//! The per-node worker thread of the threaded runtime.
//!
//! The protocol state and dispatch stack live in the shared
//! [`NodeCore`]; this module supplies its channel-and-wheel [`NodeIo`]
//! ([`WheelIo`]) plus what only the threaded runtime has: the heartbeat
//! failure detector, crash bookkeeping, the admin messages the
//! [`Cluster`](crate::Cluster) facade sends, and gauges paced by
//! dispatch count.

use crate::cluster::{CompletionMap, Outcome};
use crate::core::{NodeCore, NodeIo};
use crate::timer::Scheduler;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use minos_core::obs::{SharedGauges, Tracer};
use minos_core::{Event, ReqId};
use minos_nvm::LogEntry;
use minos_types::wire::TraceCtx;
use minos_types::{ClusterConfig, DdpModel, Message, NodeId};
use std::collections::HashMap;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A read-only question for a node's core, answered on its thread.
pub(crate) type Query = Box<dyn FnOnce(&NodeCore<WheelIo>) + Send>;

/// Messages a node thread accepts.
pub(crate) enum NodeMsg {
    /// A protocol or client event, with the trace context of the
    /// dispatch that caused it (`None` for client submissions).
    Ev(Event, Option<TraceCtx>),
    /// Framed peer traffic: one transport deposit carrying one or more
    /// protocol messages from `from`.
    Frame {
        /// Sending peer.
        from: NodeId,
        /// The batched messages, in emission order.
        msgs: Vec<Message>,
        /// The sending dispatch's trace context, if traced.
        ctx: Option<TraceCtx>,
    },
    /// Liveness beacon from a peer.
    Heartbeat {
        /// The beaconing peer.
        from: NodeId,
    },
    /// A read-only query against the node's core (log shipping, version
    /// summaries, catch-up deltas, audits, counters). Served even while
    /// crashed: the durable log lives in NVM, which survives the crash —
    /// this is what makes both recovery and post-crash durability audits
    /// possible.
    Query(Query),
    /// Re-replication cutover: adopt `map` iff its placement epoch is
    /// newer, installing `entries` (the background copy) first when this
    /// node is the new replica.
    InstallPlacement {
        /// The new placement, epoch included.
        map: minos_types::ShardMap,
        /// Copied records for a node joining a group (empty for
        /// bystanders, who only swap their routing map).
        entries: Vec<LogEntry>,
        /// Signaled once the install is visible (new-replica side).
        done: Option<Sender<()>>,
    },
    /// Rejoiner side of recovery: replay shipped entries, install the
    /// rebuilt records, resume service.
    Revive {
        /// The shipped log suffix.
        entries: Vec<LogEntry>,
        /// Peers the facade still considers failed: the rebuilt engine
        /// must not wait for them (their failure notices reached
        /// this node while it was down and were dropped).
        still_down: Vec<NodeId>,
        /// Signaled when the node is serving again.
        done: Sender<()>,
    },
    /// Simulate a crash: stop processing (messages drain unhandled).
    Crash,
    /// Membership notice: `node` was detected failed by the cluster
    /// (`up = false`) or rejoined (`up = true`).
    PeerStatus {
        /// The peer whose status changed.
        node: NodeId,
        /// Whether it is serving again.
        up: bool,
    },
    /// Terminate the thread.
    Shutdown,
}

pub(crate) struct NodeThread {
    pub(crate) tx: Sender<NodeMsg>,
    pub(crate) handle: Option<JoinHandle<()>>,
}

/// Spawns the worker thread for `node`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_node(
    node: NodeId,
    cfg: ClusterConfig,
    model: DdpModel,
    rx: Receiver<NodeMsg>,
    tx: Sender<NodeMsg>,
    scheduler: Scheduler<NodeMsg>,
    completions: CompletionMap,
    failure_tx: Sender<NodeId>,
    tracer: Option<Tracer>,
    gauges: SharedGauges,
) -> NodeThread {
    let handle = std::thread::Builder::new()
        .name(format!("minos-node-{}", node.0))
        .spawn(move || {
            NodeLoop {
                io: WheelIo {
                    node,
                    wire_latency_ns: cfg.wire_latency_ns,
                    scheduler,
                    completions,
                },
                failure_timeout: Duration::from_nanos(cfg.failure_timeout_ns),
                core: NodeCore::boot(node, model, cfg, None, tracer, gauges),
                rx,
                failure_tx,
                last_seen: HashMap::new(),
                crashed: false,
                dispatches: 0,
            }
            .run();
        })
        .expect("spawn node thread");
    NodeThread {
        tx,
        handle: Some(handle),
    }
}

struct NodeLoop {
    core: NodeCore<WheelIo>,
    io: WheelIo,
    failure_timeout: Duration,
    rx: Receiver<NodeMsg>,
    failure_tx: Sender<NodeId>,
    last_seen: HashMap<NodeId, Instant>,
    crashed: bool,
    /// Dispatches handled so far — the gauge sampling pacer.
    dispatches: u64,
}

/// Sample the level gauges once per this many dispatches: each sample
/// takes the gauge lock every node shares and records several series, so
/// it stays off the per-event hot path (the lock-table read itself is
/// O(1)). Changing the pace changes every recorded gauge series.
const GAUGE_SAMPLE_DISPATCHES: u64 = 32;

/// The threaded runtime's [`NodeIo`]: frames and self-addressed events
/// ride the delay wheel, completions wake the blocked client thread.
pub(crate) struct WheelIo {
    node: NodeId,
    wire_latency_ns: u64,
    scheduler: Scheduler<NodeMsg>,
    completions: CompletionMap,
}

impl NodeIo for WheelIo {
    /// The blocked caller waits on the shared completion map, keyed by
    /// request id.
    type Reply = ();

    fn deposit(&mut self, to: NodeId, msgs: Vec<Message>, ctx: Option<TraceCtx>) {
        let from = self.node;
        self.scheduler
            .send_after(self.wire_latency_ns, to, NodeMsg::Frame { from, msgs, ctx });
    }

    fn deposit_all(&mut self, dests: &[NodeId], msgs: Vec<Message>, ctx: Option<TraceCtx>) {
        // Native broadcast: one wheel entry expands to every destination
        // at expiry.
        let from = self.node;
        let deliveries = dests
            .iter()
            .map(|&to| {
                let msgs = msgs.clone();
                (to, NodeMsg::Frame { from, msgs, ctx })
            })
            .collect();
        self.scheduler
            .send_after_many(self.wire_latency_ns, deliveries);
    }

    fn local(&mut self, delay_ns: u64, event: Event, ctx: Option<TraceCtx>) {
        self.scheduler
            .send_after(delay_ns, self.node, NodeMsg::Ev(event, ctx));
    }

    fn redirect(&mut self, to: NodeId, event: Event, ctx: Option<TraceCtx>) {
        self.scheduler
            .send_after(self.wire_latency_ns, to, NodeMsg::Ev(event, ctx));
    }

    fn complete(&mut self, req: ReqId, (): (), outcome: Outcome) {
        if let Some(tx) = self.completions.lock().remove(&req) {
            let _ = tx.send(outcome);
        }
    }
}

impl NodeLoop {
    fn run(mut self) {
        let heartbeat_every = (self.failure_timeout / 4).max(Duration::from_millis(1));
        let mut next_beat = Instant::now();
        let boot = Instant::now();
        loop {
            let wait = next_beat.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(wait.max(Duration::from_micros(100))) {
                Ok(NodeMsg::Shutdown) => {
                    self.core.flush_trace();
                    return;
                }
                Ok(NodeMsg::Crash) => {
                    self.crashed = true;
                    // A crash loses every op this coordinator had in
                    // flight: drop their reply senders so the blocked
                    // clients fail fast rather than waiting out the
                    // submit timeout. (The completion map is shared by
                    // all nodes, so only our own requests are removed.)
                    let mut map = self.io.completions.lock();
                    for req in self.core.drop_inflight() {
                        map.remove(&req);
                    }
                }
                Ok(NodeMsg::Revive {
                    entries,
                    still_down,
                    done,
                }) => {
                    self.core.reboot(&entries, &still_down);
                    self.crashed = false;
                    self.last_seen.clear();
                    let _ = done.send(());
                }
                Ok(NodeMsg::Query(query)) => query(&self.core),
                Ok(NodeMsg::InstallPlacement { map, entries, done }) => {
                    // A crashed node drops the cutover, acknowledgment
                    // included.
                    if !self.crashed {
                        self.core.install_placement(map, &entries);
                        if let Some(done) = done {
                            let _ = done.send(());
                        }
                    }
                }
                Ok(msg) if self.crashed => {
                    // A crashed node silently drains its inbox — but a
                    // client op racing the crash (sent before the failed
                    // flag was visible) must still fail fast, so its
                    // reply sender is dropped here just as `Crash` does
                    // for ops already admitted.
                    if let NodeMsg::Ev(
                        Event::ClientWrite { req, .. }
                        | Event::ClientRead { req, .. }
                        | Event::ClientPersistScope { req, .. },
                        _,
                    ) = msg
                    {
                        self.io.completions.lock().remove(&req);
                    }
                }
                Ok(NodeMsg::Ev(ev, ctx)) => self.handle_event(ev, ctx),
                Ok(NodeMsg::Frame { from, msgs, ctx }) => {
                    for msg in msgs {
                        self.handle_event(Event::Message { from, msg }, ctx);
                    }
                }
                Ok(NodeMsg::Heartbeat { from }) => {
                    self.last_seen.insert(from, Instant::now());
                }
                Ok(NodeMsg::PeerStatus { node, up }) => {
                    self.core.view_change(node, up, &mut self.io);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }

            // Heartbeating + failure detection (§III-E timeouts).
            if !self.crashed && Instant::now() >= next_beat {
                next_beat = Instant::now() + heartbeat_every;
                let alive = self.core.engine().alive_peers();
                for &peer in &alive {
                    self.io.scheduler.send_after(
                        self.io.wire_latency_ns,
                        peer,
                        NodeMsg::Heartbeat { from: self.io.node },
                    );
                }
                // Grace period: peers we have never heard from are only
                // suspect once the cluster has been up for a full timeout.
                if boot.elapsed() > self.failure_timeout {
                    for s in alive.into_iter().filter(|p| {
                        self.last_seen
                            .get(p)
                            .is_none_or(|t| t.elapsed() > self.failure_timeout)
                    }) {
                        // Report to the cluster monitor, which alerts all
                        // other nodes (including us, via PeerStatus).
                        let _ = self.failure_tx.send(s);
                    }
                }
            }
        }
    }

    fn handle_event(&mut self, ev: Event, ctx: Option<TraceCtx>) {
        self.core.admit(&ev, ());
        self.core.dispatch(ev, ctx, &mut self.io);
        self.dispatches += 1;
        // `% N == 1` rather than `== 0`: short runs still get a sample.
        if self.dispatches % GAUGE_SAMPLE_DISPATCHES == 1 {
            self.core.sample_gauges(self.rx.len());
        }
    }
}
