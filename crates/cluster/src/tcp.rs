//! A real-socket MINOS-B runtime: nodes as independent processes (or
//! threads) exchanging protocol messages over TCP, with a framed client
//! protocol.
//!
//! This is the genuine multi-node deployment path: `minos-noded` runs one
//! node per process; [`TcpClient`] connects to any node and issues
//! puts/gets/`[PERSIST]sc`. Protocol messages travel in the hand-rolled
//! wire format of [`minos_types::wire`] (the approved dependency set has
//! no serializer, so the codec is part of this workspace). The protocol
//! state and dispatch stack are the shared node core the threaded
//! runtime runs too; this module adds the sockets around it.
//!
//! ## Frames
//!
//! Everything on the wire is `[u32 little-endian length][body]`.
//!
//! * **peer → peer**: a peer frame from [`minos_types::wire`]
//!   (`[u16 from][u16 count]` then `count` length-prefixed messages) —
//!   the same codec the batching middleware coalesces into, so a frame
//!   carries one message without batching and a whole dispatch's worth
//!   with it
//! * **client → node**: `[u8 op][u64 client-req][op payload]` where op is
//!   1=put `[key][scope_opt][value]`, 2=get `[key]`, 3=persist `[scope]`,
//!   4=dump-durable (no payload; audit surface, served off the protocol
//!   path), 5=rejoin catch-up `[u32 count]{[key][ts]}` (a per-key version
//!   summary; the reply is the donor's missing-version delta), 6=peer
//!   status `[u16 peer][u8 up]` (the membership admin surface — the
//!   control plane's failure detector marks peers down/recovered here).
//!   An op byte with [`CLIENT_CTX_FLAG`] set carries a 24-byte trace
//!   context between the client-req field and the payload
//! * **node → client**: `[u64 client-req][u8 status][payload]` — status
//!   1=write-done `[ts]`, 2=read-done `[ts][value]`, 3=persist-done,
//!   4=durable-log dump, 5=catch-up delta, 6=peer-status ack, 0=error.
//!   Dumps and deltas are `[u32 count]` followed by the entries in the
//!   NVM log codec ([`minos_nvm::encode_entries`]: length-framed and
//!   checksummed); a client rejects a reply that does not decode
//!   completely to exactly `count` entries

use crate::cluster::Outcome;
use crate::core::{NodeCore, NodeIo};
use crate::timer::{Scheduler, TimerWheel};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use minos_core::obs::{
    self, shared_gauges, HistogramSet, JsonlWriter, MetricsSink, TraceClock, Tracer,
};
use minos_core::{Event, ReqId};
use minos_nvm::{decode_entries, encode_entries, DecodeOutcome, LogEntry};
use minos_types::wire::{
    decode_peer_frame_ctx, encode_peer_frame_ctx_into, TraceCtx, CLIENT_CTX_FLAG,
};
use minos_types::{
    ChaosSpec, ClusterConfig, DdpModel, FaultSpec, Key, Message, NodeId, ScopeId, ShardMap, Ts,
    Value,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of one TCP node.
#[derive(Debug, Clone)]
pub struct TcpNodeConfig {
    /// This node's id.
    pub node: NodeId,
    /// DDP model to run.
    pub model: DdpModel,
    /// Peer-protocol addresses, indexed by node id (including this
    /// node's own listen address).
    pub peers: Vec<SocketAddr>,
    /// Address serving the client protocol.
    pub client_addr: SocketAddr,
    /// Emulated NVM persist latency (ns per KB).
    pub persist_ns_per_kb: u64,
    /// Transport-level message batching (Fig. 12 `batching`): messages
    /// emitted while handling one event travel in one peer frame per
    /// destination.
    pub batching: bool,
    /// Transport-level broadcast (Fig. 12 `broadcast`): a fan-out frame
    /// is encoded once and the same bytes are written to every
    /// destination socket.
    pub broadcast: bool,
    /// When set, every protocol-event boundary is appended to this file
    /// as JSONL trace records (`minos-trace` replays them).
    pub trace_out: Option<PathBuf>,
    /// When set, per-op latency histograms plus resource gauges are
    /// dumped to this file in Prometheus text exposition format, every
    /// [`TcpNodeConfig::metrics_interval`] and at shutdown (the
    /// `minos-noded --metrics-out` flag).
    pub metrics_out: Option<PathBuf>,
    /// Cadence of the periodic metrics dump and of the resource-gauge
    /// sampling tick (the `minos-noded --metrics-interval` flag).
    /// Clamped to at least 1 ms.
    pub metrics_interval: Duration,
    /// Deterministic message-level chaos schedule applied to this node's
    /// outbound protocol traffic (`None` = no chaos). Torture schedules
    /// for the TCP runtime stick to delay/reorder — a dropped message is
    /// permanent here and the client protocol has no retry.
    pub chaos: Option<ChaosSpec>,
    /// Deliberate protocol bug to arm (`None` = correct protocol). Only
    /// honored when built with the `fault-injection` feature; silently
    /// ignored otherwise.
    pub fault: Option<FaultSpec>,
    /// Key-space placement (`None` = the paper's single fully replicated
    /// group). Every process of a sharded deployment must be handed the
    /// *same* map (`minos-noded --shards`/`--placement`); the node then
    /// replicates only its shards and expects clients to contact a
    /// replica of each key's shard ([`ShardedTcpClient`] does this).
    pub placement: Option<ShardMap>,
    /// On-disk NVM log (`minos-noded --nvm-log`). Every persist is
    /// appended to this file in the [`minos_nvm`] entry codec; on
    /// startup the file is decoded and replayed — the "replay your own
    /// durable log" half of a node rejoin. A truncated tail (torn final
    /// append from a crash) is discarded, matching the codec's
    /// crash-consistency contract. `None` keeps the log in memory only.
    pub nvm_log: Option<PathBuf>,
    /// Client-protocol address of a rejoin donor (`minos-noded
    /// --rejoin-donor`). When set, the node completes its startup rejoin
    /// before serving: after replaying its own log it sends the donor a
    /// per-key version summary and installs the donor's catch-up delta —
    /// exactly the versions it missed while down. `None` = fresh start.
    pub rejoin_donor: Option<SocketAddr>,
}

enum In {
    Peer(NodeId, Vec<Message>, Option<TraceCtx>),
    Client {
        conn: u64,
        creq: u64,
        op: ClientOp,
        ctx: Option<TraceCtx>,
    },
    /// An event this node scheduled for itself (a persist completion or
    /// a deferred dispatch hop).
    Local(Event, Option<TraceCtx>),
    Shutdown,
}

/// One client-port request. The value type is generic so a client can
/// encode a put straight from a borrowed slice; the server parses into
/// owned [`Value`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ClientOp<V = Value> {
    Put {
        key: Key,
        scope: Option<ScopeId>,
        value: V,
    },
    Get {
        key: Key,
    },
    Persist {
        scope: ScopeId,
    },
    /// Durability audit: dump the node's NVM log (op 4). Served directly
    /// by the node loop, off the protocol path — the wire analogue of the
    /// threaded cluster's log-shipping snapshot.
    DumpDurable,
    /// Rejoin catch-up (op 5): the caller is a rejoining node shipping
    /// its per-key durable version summary; the response is the donor's
    /// delta — durable records strictly newer than (or absent from) the
    /// summary. Served off the protocol path, like `DumpDurable`.
    Delta {
        have: Vec<(Key, Ts)>,
    },
    /// Membership notification (op 6): the control plane (the torture
    /// harness, or an operator's failure detector) tells this node that
    /// a peer went down or came back. The TCP runtime carries no
    /// heartbeats of its own — frames to a dead peer are just lost — so
    /// view changes arrive over this admin surface.
    PeerStatus {
        peer: NodeId,
        up: bool,
    },
}

impl<V> ClientOp<V> {
    /// The op byte; a reply to this op carries the same status byte.
    fn code(&self) -> u8 {
        match self {
            ClientOp::Put { .. } => 1,
            ClientOp::Get { .. } => 2,
            ClientOp::Persist { .. } => 3,
            ClientOp::DumpDurable => 4,
            ClientOp::Delta { .. } => 5,
            ClientOp::PeerStatus { .. } => 6,
        }
    }
}

/// Handle to a running TCP node (its threads stop on [`TcpNode::shutdown`]
/// or drop).
pub struct TcpNode {
    tx: Sender<In>,
    engine_thread: Option<JoinHandle<()>>,
    accept_threads: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    peer_addr: SocketAddr,
    client_addr: SocketAddr,
    /// Write-halves of the established client connections, shared with
    /// the engine's response path. Closed on shutdown so blocked client
    /// reads observe the crash (a real dead process RSTs its sockets).
    client_writers: Arc<Mutex<HashMap<u64, TcpStream>>>,
    /// Established inbound peer connections, closed on shutdown for the
    /// same reason (and to release their reader threads).
    peer_conns: Arc<Mutex<Vec<TcpStream>>>,
}

/// The largest frame a reader accepts.
const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Reads one length-prefixed frame. The body buffer grows only as body
/// bytes arrive, so a header announcing a huge frame costs nothing
/// until the bytes are actually sent.
fn read_frame(stream: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(std::io::Error::other("frame too large"));
    }
    let mut body = Vec::with_capacity(n.min(64 * 1024));
    stream.take(n as u64).read_to_end(&mut body)?;
    if body.len() != n {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(body)
}

/// Spawns thread `name` handing every connection accepted on
/// `listener` to `on_conn`. The loop exits (dropping the listener,
/// freeing the port) when `stop` is raised and a wake-up connection
/// arrives — so a shut-down node can be re-served on the same address,
/// which is what a rejoin after a process "crash" looks like in-process.
fn spawn_acceptor(
    name: String,
    listener: TcpListener,
    stop: &Arc<AtomicBool>,
    mut on_conn: impl FnMut(TcpStream) + Send + 'static,
) -> std::io::Result<JoinHandle<()>> {
    let stop = Arc::clone(stop);
    std::thread::Builder::new().name(name).spawn(move || {
        for stream in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            if let Ok(stream) = stream {
                on_conn(stream);
            }
        }
    })
}

/// Reads frames from `stream` on a thread of its own and sends each one
/// `decode` accepts to the engine. Stops at a malformed frame, a closed
/// socket or a stopped engine, then runs `done`.
fn spawn_reader(
    mut stream: TcpStream,
    tx: Sender<In>,
    decode: impl Fn(&[u8]) -> Option<In> + Send + 'static,
    done: impl FnOnce() + Send + 'static,
) {
    std::thread::spawn(move || {
        while let Some(input) = read_frame(&mut stream).ok().and_then(|f| decode(&f)) {
            if tx.send(input).is_err() {
                break;
            }
        }
        done();
    });
}

/// Writes one length-prefixed frame.
fn write_frame(stream: &mut TcpStream, body: &[u8]) -> std::io::Result<()> {
    stream.write_all(&(body.len() as u32).to_le_bytes())?;
    stream.write_all(body)
}

/// Opens the node's observability sinks: a JSONL trace and, when
/// metrics are exported, the per-op latency histograms. Records are
/// stamped from this process's monotonic epoch.
fn open_sinks(
    cfg: &TcpNodeConfig,
) -> (Option<Tracer>, Option<Arc<std::sync::Mutex<HistogramSet>>>) {
    let mut sinks: Vec<obs::SharedSink> = Vec::new();
    if let Some(path) = cfg.trace_out.as_ref() {
        match JsonlWriter::create(path) {
            Ok(w) => sinks.push(obs::shared(w)),
            Err(e) => {
                eprintln!("minos-tcp: cannot open trace file {}: {e}", path.display());
            }
        }
    }
    let mut hists = None;
    if cfg.metrics_out.is_some() {
        let (sink, set) = MetricsSink::new(cfg.model.persistency);
        sinks.push(obs::shared(sink));
        hists = Some(set);
    }
    let tracer = (!sinks.is_empty()).then(|| Tracer::new(cfg.node, TraceClock::monotonic(), sinks));
    (tracer, hists)
}

impl TcpNode {
    /// Binds the peer and client listeners and spawns the node.
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub fn serve(cfg: TcpNodeConfig) -> std::io::Result<TcpNode> {
        let peer_listener = TcpListener::bind(cfg.peers[cfg.node.0 as usize])?;
        let client_listener = TcpListener::bind(cfg.client_addr)?;
        let peer_addr = peer_listener.local_addr()?;
        let client_addr = client_listener.local_addr()?;

        let (tx, rx) = unbounded::<In>();
        let stop = Arc::new(AtomicBool::new(false));
        let mut accept_threads = Vec::with_capacity(2);

        // Peer acceptor: one reader thread per inbound peer connection.
        let peer_conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let (conns, peer_tx) = (Arc::clone(&peer_conns), tx.clone());
        let name = format!("minos-tcp-peer-accept-{}", cfg.node);
        accept_threads.push(spawn_acceptor(name, peer_listener, &stop, move |stream| {
            if let Ok(c) = stream.try_clone() {
                conns.lock().push(c);
            }
            let decode = |frame: &[u8]| {
                let (from, msgs, ctx) = decode_peer_frame_ctx(frame).ok()?;
                Some(In::Peer(from, msgs, ctx))
            };
            spawn_reader(stream, peer_tx.clone(), decode, || {});
        })?);

        // Client acceptor: per-connection reader + shared writer handle.
        let client_writers: Arc<Mutex<HashMap<u64, TcpStream>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let (writers, client_tx) = (Arc::clone(&client_writers), tx.clone());
        let mut next_conn = 0u64;
        let name = format!("minos-tcp-client-accept-{}", cfg.node);
        accept_threads.push(spawn_acceptor(
            name,
            client_listener,
            &stop,
            move |stream| {
                let Ok(w) = stream.try_clone() else { return };
                next_conn += 1;
                let conn = next_conn;
                writers.lock().insert(conn, w);
                let decode = move |frame: &[u8]| {
                    let (creq, op, ctx) = parse_client_request(frame)?;
                    Some(In::Client {
                        conn,
                        creq,
                        op,
                        ctx,
                    })
                };
                let writers = Arc::clone(&writers);
                spawn_reader(stream, client_tx.clone(), decode, move || {
                    writers.lock().remove(&conn);
                });
            },
        )?);

        // Persist-completion timer (single destination: this engine).
        let wheel = TimerWheel::spawn(vec![tx.clone()]);

        let io = SocketIo {
            node: cfg.node,
            peer_addrs: cfg.peers.clone(),
            peers: HashMap::new(),
            frame_buf: Vec::new(),
            scheduler: wheel.scheduler(),
            engine_tx: tx.clone(),
            writers: Arc::clone(&client_writers),
        };
        let engine_thread = std::thread::Builder::new()
            .name(format!("minos-tcp-engine-{}", cfg.node))
            .spawn(move || run_engine(&cfg, &rx, io))?;

        Ok(TcpNode {
            tx,
            engine_thread: Some(engine_thread),
            accept_threads,
            stop,
            peer_addr,
            client_addr,
            client_writers,
            peer_conns,
        })
    }

    /// The bound peer-protocol address.
    #[must_use]
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer_addr
    }

    /// The bound client-protocol address.
    #[must_use]
    pub fn client_addr(&self) -> SocketAddr {
        self.client_addr
    }

    /// Stops the engine thread and both acceptor threads, releasing the
    /// listening ports — so the node can later be re-served on the same
    /// addresses ([`TcpNode::serve`] with `nvm_log`/`rejoin_donor` set),
    /// which is what a crash → rejoin cycle looks like in-process.
    ///
    /// Every *established* connection is closed too, exactly as a dead
    /// process's sockets would be: a client blocked on a response to an
    /// op the node admitted but never finished gets an immediate error
    /// (its write stays pending — the conformance checkers treat it as
    /// such), and peers see dead sockets, i.e. frame loss — a crashed
    /// node's signature.
    pub fn shutdown(mut self) {
        let _ = self.tx.send(In::Shutdown);
        self.stop.store(true, Ordering::SeqCst);
        // Wake both acceptors so they observe the stop flag and drop
        // their listeners.
        let _ = TcpStream::connect(self.peer_addr);
        let _ = TcpStream::connect(self.client_addr);
        for h in self.accept_threads.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.engine_thread.take() {
            let _ = h.join();
        }
        // Sever established connections (the acceptors are gone, so no
        // new ones can race in). `Shutdown::Both` reaches the underlying
        // socket shared with the per-connection reader threads, waking
        // them and the remote ends.
        for (_, s) in self.client_writers.lock().drain() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        for s in self.peer_conns.lock().drain(..) {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Blocks forever serving (used by the `minos-noded` binary).
    pub fn join(mut self) {
        if let Some(h) = self.engine_thread.take() {
            let _ = h.join();
        }
    }
}

/// The engine thread: boots the node core (startup rejoin included),
/// then feeds it decoded inputs until shutdown, exporting metrics on the
/// configured tick.
fn run_engine(cfg: &TcpNodeConfig, rx: &Receiver<In>, mut io: SocketIo) {
    let (tracer, hists) = open_sinks(cfg);
    let gauges = shared_gauges();
    // The node-local knobs; wire latency and heartbeat timeouts are the
    // threaded runtime's and stay unused.
    let node_cfg = ClusterConfig {
        nodes: cfg.peers.len(),
        nvm_persist_ns_per_kb: cfg.persist_ns_per_kb,
        batching: cfg.batching,
        broadcast: cfg.broadcast,
        chaos: cfg.chaos.clone(),
        fault: cfg.fault,
        placement: cfg.placement.clone(),
        ..ClusterConfig::cloudlab()
    };
    // Startup rejoin, step 1: replay this node's own on-disk NVM log
    // (surviving state from before the crash).
    let nvm_log = cfg.nvm_log.as_deref();
    let mut core = NodeCore::boot(
        cfg.node,
        cfg.model,
        node_cfg,
        nvm_log,
        tracer,
        gauges.clone(),
    );
    // Step 2, donor catch-up: ship the per-key version summary to the
    // donor and fetch exactly the versions this node missed while down.
    // The reboot appends them to the on-disk log (so they survive a
    // second crash) and raises the fresh engine to the recovered durable
    // state before the first client op is admitted.
    let delta = cfg.rejoin_donor.map_or_else(Vec::new, |donor| {
        TcpClient::connect(donor)
            .and_then(|mut c| c.fetch_delta(&core.durable().summary()))
            .unwrap_or_else(|e| {
                eprintln!("minos-tcp: rejoin catch-up from {donor} failed: {e}");
                Vec::new()
            })
    });
    core.reboot(&delta, &[]);

    let dump_metrics = || {
        if let (Some(path), Some(set)) = (cfg.metrics_out.as_ref(), hists.as_ref()) {
            let mut text = set.lock().expect("histogram lock").render_prometheus();
            text.push_str(&gauges.lock().expect("gauge lock").render_prometheus());
            let _ = std::fs::write(path, text);
        }
    };
    let mut next_req = 1u64;
    let dump_every = cfg.metrics_interval.max(Duration::from_millis(1));
    let mut next_dump = Instant::now() + dump_every;
    loop {
        // Before each wait, keep trace shards on disk current: a killed
        // (not shut down) process must still leave an assemblable shard
        // behind, so the JSONL sink may not sit on a buffered tail across
        // input batches.
        core.flush_trace();
        if Instant::now() >= next_dump {
            core.sample_gauges(rx.len());
            dump_metrics();
            next_dump = Instant::now() + dump_every;
        }
        match rx.recv_timeout(dump_every.min(Duration::from_millis(200))) {
            Ok(In::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {}
            Ok(In::Peer(from, msgs, ctx)) => {
                // One inbound frame may carry a whole batch.
                for msg in msgs {
                    core.dispatch(Event::Message { from, msg }, ctx, &mut io);
                }
            }
            Ok(In::Local(ev, ctx)) => core.dispatch(ev, ctx, &mut io),
            Ok(In::Client {
                conn,
                creq,
                op,
                ctx,
            }) => {
                let req = ReqId(next_req);
                let ev = match op {
                    ClientOp::Put { key, scope, value } => Event::ClientWrite {
                        key,
                        value,
                        scope,
                        req,
                    },
                    ClientOp::Get { key } => Event::ClientRead { key, req },
                    ClientOp::Persist { scope } => Event::ClientPersistScope { scope, req },
                    // Admin ops, served off the protocol path.
                    ClientOp::DumpDurable => {
                        let entries = core.durable().entries_since(0);
                        io.respond(conn, creq, 4, |b| encode_log_reply(&entries, b));
                        continue;
                    }
                    ClientOp::Delta { have } => {
                        // Donor side of a rejoin: ship the versions the
                        // caller's summary is missing.
                        let entries = core.durable().delta_against(&have);
                        io.respond(conn, creq, 5, |b| encode_log_reply(&entries, b));
                        continue;
                    }
                    ClientOp::PeerStatus { peer, up } => {
                        // Drop the cached connection either way: a down
                        // peer's socket is dead, and a rejoined peer
                        // listens on a *new* socket — a write into the
                        // half-closed old one would succeed at the TCP
                        // level and silently swallow the frame.
                        if peer != cfg.node {
                            io.peers.remove(&peer);
                        }
                        core.view_change(peer, up, &mut io);
                        io.respond(conn, creq, 6, |_| {});
                        continue;
                    }
                };
                next_req += 1;
                core.admit(&ev, (conn, creq));
                core.dispatch(ev, ctx, &mut io);
            }
        }
    }
    // Final dump + flush so short-lived runs still export.
    core.sample_gauges(rx.len());
    dump_metrics();
    core.flush_trace();
}

/// The TCP runtime's [`NodeIo`]: peer frames are encoded with the shared
/// wire codec and written straight to peer sockets; persist completions
/// ride the local delay wheel; completions are written back to the
/// client connection.
struct SocketIo {
    node: NodeId,
    peer_addrs: Vec<SocketAddr>,
    /// Cached outbound peer connections, opened on first use.
    peers: HashMap<NodeId, TcpStream>,
    /// Peer-frame encode scratch, reused across dispatches.
    frame_buf: Vec<u8>,
    scheduler: Scheduler<In>,
    engine_tx: Sender<In>,
    writers: Arc<Mutex<HashMap<u64, TcpStream>>>,
}

impl SocketIo {
    /// Writes one already-encoded frame to `to`, reconnecting once on a
    /// stale connection. An unreachable peer loses the frame, which is
    /// exactly what a crashed node looks like.
    fn write_to(&mut self, to: NodeId, body: &[u8]) {
        for _attempt in 0..2 {
            if !self.peers.contains_key(&to) {
                match TcpStream::connect(self.peer_addrs[to.0 as usize]) {
                    Ok(s) => {
                        self.peers.insert(to, s);
                    }
                    Err(_) => return, // peer down: message lost
                }
            }
            if let Some(s) = self.peers.get_mut(&to) {
                if write_frame(s, body).is_ok() {
                    return;
                }
                self.peers.remove(&to); // stale connection: retry
            }
        }
    }

    /// Writes `[creq][status]` plus `fill`'s payload to client
    /// connection `conn`, forgetting the connection if the write fails.
    fn respond(&self, conn: u64, creq: u64, status: u8, fill: impl FnOnce(&mut Vec<u8>)) {
        let mut body = creq.to_le_bytes().to_vec();
        body.push(status);
        fill(&mut body);
        let mut writers = self.writers.lock();
        if let Some(s) = writers.get_mut(&conn) {
            if write_frame(s, &body).is_err() {
                writers.remove(&conn);
            }
        }
    }
}

impl NodeIo for SocketIo {
    /// The client connection and the client's own request id.
    type Reply = (u64, u64);

    fn deposit(&mut self, to: NodeId, msgs: Vec<Message>, ctx: Option<TraceCtx>) {
        let mut body = std::mem::take(&mut self.frame_buf);
        encode_peer_frame_ctx_into(self.node, &msgs, ctx, &mut body);
        self.write_to(to, &body);
        self.frame_buf = body;
    }

    fn deposit_all(&mut self, dests: &[NodeId], msgs: Vec<Message>, ctx: Option<TraceCtx>) {
        // Broadcast: encode once (into the reused scratch), write the
        // same bytes to every socket.
        let mut body = std::mem::take(&mut self.frame_buf);
        encode_peer_frame_ctx_into(self.node, &msgs, ctx, &mut body);
        for &to in dests {
            self.write_to(to, &body);
        }
        self.frame_buf = body;
    }

    fn local(&mut self, delay_ns: u64, event: Event, ctx: Option<TraceCtx>) {
        if delay_ns == 0 {
            let _ = self.engine_tx.send(In::Local(event, ctx));
        } else {
            self.scheduler
                .send_after(delay_ns, NodeId(0), In::Local(event, ctx));
        }
    }

    fn redirect(&mut self, _to: NodeId, _event: Event, _ctx: Option<TraceCtx>) {
        // Client-op routing happens at the client ([`ShardedTcpClient`]),
        // so a correctly routed deployment never redirects. An op that
        // reaches a non-replica anyway is dropped — indistinguishable
        // from a lost frame, and the client times out.
    }

    fn complete(&mut self, _req: ReqId, (conn, creq): (u64, u64), outcome: Outcome) {
        match outcome {
            Outcome::Write { ts, .. } => self.respond(conn, creq, 1, |b| put_ts(b, ts)),
            Outcome::Read { value, ts } => self.respond(conn, creq, 2, |b| {
                put_ts(b, ts);
                b.extend_from_slice(&value);
            }),
            Outcome::PersistScope { .. } => self.respond(conn, creq, 3, |_| {}),
        }
    }
}

/// Appends `ts` as `[u32 version][u16 node]`.
fn put_ts(b: &mut Vec<u8>, ts: Ts) {
    b.extend_from_slice(&ts.version.to_le_bytes());
    b.extend_from_slice(&ts.node.0.to_le_bytes());
}

/// A little-endian reader over untrusted bytes: every read is
/// bounds-checked and yields `None` past the end.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.0.split_first_chunk::<N>()?;
        self.0 = rest;
        Some(*head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take::<1>().map(|[b]| b)
    }

    fn u16(&mut self) -> Option<u16> {
        self.take().map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take().map(u64::from_le_bytes)
    }

    /// A timestamp written by [`put_ts`].
    fn ts(&mut self) -> Option<Ts> {
        Some(Ts {
            version: self.u32()?,
            node: NodeId(self.u16()?),
        })
    }
}

/// Encodes one client request into `out` (cleared first): the op byte
/// (with [`CLIENT_CTX_FLAG`] set when `ctx` is given), the client-req
/// id, the trace context if any, then the op's payload. The inverse of
/// [`parse_client_request`].
fn encode_client_request<V: AsRef<[u8]>>(
    creq: u64,
    op: &ClientOp<V>,
    ctx: Option<TraceCtx>,
    out: &mut Vec<u8>,
) {
    out.clear();
    let flag = if ctx.is_some() { CLIENT_CTX_FLAG } else { 0 };
    out.push(op.code() | flag);
    out.extend_from_slice(&creq.to_le_bytes());
    if let Some(ctx) = ctx {
        out.extend_from_slice(&ctx.encode());
    }
    match op {
        ClientOp::Put { key, scope, value } => {
            out.extend_from_slice(&key.0.to_le_bytes());
            match scope {
                Some(sc) => {
                    out.push(1);
                    out.extend_from_slice(&sc.0.to_le_bytes());
                }
                None => out.push(0),
            }
            out.extend_from_slice(value.as_ref());
        }
        ClientOp::Get { key } => out.extend_from_slice(&key.0.to_le_bytes()),
        ClientOp::Persist { scope } => out.extend_from_slice(&scope.0.to_le_bytes()),
        ClientOp::DumpDurable => {}
        ClientOp::Delta { have } => {
            out.extend_from_slice(&u32::try_from(have.len()).unwrap_or(u32::MAX).to_le_bytes());
            for (key, ts) in have {
                out.extend_from_slice(&key.0.to_le_bytes());
                put_ts(out, *ts);
            }
        }
        ClientOp::PeerStatus { peer, up } => {
            out.extend_from_slice(&peer.0.to_le_bytes());
            out.push(u8::from(*up));
        }
    }
}

/// Parses one client request frame into `(client-req, op, context)`;
/// `None` for anything malformed, including trailing bytes.
fn parse_client_request(frame: &[u8]) -> Option<(u64, ClientOp, Option<TraceCtx>)> {
    let mut r = Cursor(frame);
    let op = r.u8()?;
    let creq = r.u64()?;
    // A set CLIENT_CTX_FLAG bit means a trace context follows the
    // client-req field; the low bits are the op code either way.
    let ctx = if op & CLIENT_CTX_FLAG != 0 {
        let c = TraceCtx::decode(&r.take::<{ TraceCtx::WIRE_LEN }>()?).ok()?;
        Some(c).filter(|c| !c.is_empty())
    } else {
        None
    };
    let parsed = match op & !CLIENT_CTX_FLAG {
        1 => {
            // [key u64][scope flag u8 (+u32)][value...]
            let key = Key(r.u64()?);
            let scope = match r.u8()? {
                1 => Some(ScopeId(r.u32()?)),
                _ => None,
            };
            let value = Value::copy_from_slice(std::mem::take(&mut r.0));
            ClientOp::Put { key, scope, value }
        }
        2 => ClientOp::Get { key: Key(r.u64()?) },
        3 => ClientOp::Persist {
            scope: ScopeId(r.u32()?),
        },
        4 => ClientOp::DumpDurable,
        5 => {
            // [u32 count]{[u64 key][u32 ts_version][u16 ts_node]}
            let count = r.u32()? as usize;
            let mut have = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                have.push((Key(r.u64()?), r.ts()?));
            }
            ClientOp::Delta { have }
        }
        6 => ClientOp::PeerStatus {
            peer: NodeId(r.u16()?),
            up: r.u8()? == 1,
        },
        _ => return None,
    };
    r.0.is_empty().then_some((creq, parsed, ctx))
}

/// Encodes a durable-log dump or catch-up delta reply payload:
/// `[u32 count]` then the entries in the NVM log codec.
fn encode_log_reply(entries: &[LogEntry], body: &mut Vec<u8>) {
    let count = u32::try_from(entries.len()).unwrap_or(u32::MAX);
    body.extend_from_slice(&count.to_le_bytes());
    body.extend_from_slice(&encode_entries(entries));
}

/// Decodes [`encode_log_reply`] output. A payload that does not decode
/// completely to exactly the announced number of entries — truncated,
/// bit-flipped or padded — is rejected.
fn decode_log_reply(payload: &[u8]) -> std::io::Result<Vec<LogEntry>> {
    let mut r = Cursor(payload);
    match r.u32().map(|count| (count, decode_entries(r.0))) {
        Some((count, (entries, DecodeOutcome::Complete))) if entries.len() == count as usize => {
            Ok(entries)
        }
        _ => Err(std::io::Error::other("malformed log reply")),
    }
}

/// A synchronous client for the TCP node protocol.
pub struct TcpClient {
    stream: TcpStream,
    next_req: u64,
    trace_ctx: Option<TraceCtx>,
    /// Request encode scratch, reused across calls.
    buf: Vec<u8>,
}

impl TcpClient {
    /// Connects to a node's client port.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: SocketAddr) -> std::io::Result<TcpClient> {
        Ok(TcpClient {
            stream: TcpStream::connect(addr)?,
            next_req: 1,
            trace_ctx: None,
            buf: Vec::new(),
        })
    }

    /// Sets the trace context stamped on every subsequent request
    /// (`None` reverts to untraced requests). A stamped request makes
    /// the server adopt the client's trace id instead of minting one,
    /// and the context's `origin_ns` gives the assembler a client-side
    /// send timestamp for the client-to-server hop.
    pub fn set_trace_ctx(&mut self, ctx: Option<TraceCtx>) {
        self.trace_ctx = ctx.filter(|c| !c.is_empty());
    }

    /// Sends `op` and returns the whole reply, failing unless its status
    /// byte (after the echoed `[creq]`) matches the op.
    fn roundtrip<V: AsRef<[u8]>>(&mut self, op: &ClientOp<V>) -> std::io::Result<Vec<u8>> {
        let creq = self.next_req;
        self.next_req += 1;
        encode_client_request(creq, op, self.trace_ctx, &mut self.buf);
        write_frame(&mut self.stream, &self.buf)?;
        let resp = read_frame(&mut self.stream)?;
        let code = op.code();
        if resp.get(8) != Some(&code) {
            return Err(std::io::Error::other(format!(
                "unexpected response to op {code}"
            )));
        }
        Ok(resp)
    }

    /// Writes `value` under `key`; returns the write's timestamp.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn put(&mut self, key: Key, value: &[u8], scope: Option<ScopeId>) -> std::io::Result<Ts> {
        let resp = self.roundtrip(&ClientOp::Put { key, scope, value })?;
        Cursor(&resp[9..])
            .ts()
            .ok_or_else(|| std::io::Error::other("short put response"))
    }

    /// Reads `key` from the connected node.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn get(&mut self, key: Key) -> std::io::Result<Vec<u8>> {
        self.get_versioned(key).map(|(v, _)| v)
    }

    /// Reads `key` and also reports the version (`volatileTS`) observed —
    /// what the linearizability checkers need from a TCP history.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn get_versioned(&mut self, key: Key) -> std::io::Result<(Vec<u8>, Ts)> {
        let mut resp = self.roundtrip(&ClientOp::<Value>::Get { key })?;
        let ts = Cursor(&resp[9..])
            .ts()
            .ok_or_else(|| std::io::Error::other("short get response"))?;
        resp.drain(..15);
        Ok((resp, ts))
    }

    /// Dumps the connected node's durable log (op 4) — the post-crash
    /// durability audit surface of the TCP runtime.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn dump_durable(&mut self) -> std::io::Result<Vec<LogEntry>> {
        decode_log_reply(&self.roundtrip(&ClientOp::<Value>::DumpDurable)?[9..])
    }

    /// Fetches a rejoin catch-up delta (op 5): ships `have` — this
    /// node's per-key durable version summary — and returns the donor's
    /// durable records strictly newer than (or absent from) it. Called
    /// by a restarting node against its donor before it starts serving.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn fetch_delta(&mut self, have: &[(Key, Ts)]) -> std::io::Result<Vec<LogEntry>> {
        let have = have.to_vec();
        decode_log_reply(&self.roundtrip(&ClientOp::<Value>::Delta { have })?[9..])
    }

    /// Notifies the connected node that `peer` went down (`up = false`)
    /// or rejoined (`up = true`) — op 6, the membership admin surface.
    /// The TCP runtime has no in-band failure detector; the control
    /// plane (an operator, or the torture harness) drives view changes
    /// through this call so survivors shrink their replication quorum.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn set_peer_status(&mut self, peer: NodeId, up: bool) -> std::io::Result<()> {
        self.roundtrip(&ClientOp::<Value>::PeerStatus { peer, up })
            .map(drop)
    }

    /// Issues a `[PERSIST]sc` for `scope`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn persist_scope(&mut self, scope: ScopeId) -> std::io::Result<()> {
        self.roundtrip(&ClientOp::<Value>::Persist { scope })
            .map(drop)
    }
}

/// A placement-aware TCP client: holds (lazy) connections to every
/// node's client port and routes each operation to a replica of its
/// key's shard — the wire-protocol counterpart of the facade routing the
/// in-process harnesses get from
/// [`ShardRouter`](minos_core::runtime::ShardRouter).
///
/// `origin` plays the role the submit node plays in the threaded
/// cluster: ops on keys it replicates stay local, everything else goes
/// to the shard's home node. Scoped writes record their coordinator so
/// [`ShardedTcpClient::persist_scope`] can fan the flush out to exactly
/// the touched shards.
pub struct ShardedTcpClient {
    map: ShardMap,
    origin: NodeId,
    client_addrs: Vec<SocketAddr>,
    conns: HashMap<NodeId, TcpClient>,
    /// Coordinators each open scope's writes were routed to.
    scopes: HashMap<ScopeId, Vec<NodeId>>,
}

impl ShardedTcpClient {
    /// A client attached at `origin`, routing over `map`. `client_addrs`
    /// lists every node's client-protocol address, indexed by node id;
    /// connections are opened on first use.
    #[must_use]
    pub fn new(map: ShardMap, origin: NodeId, client_addrs: Vec<SocketAddr>) -> ShardedTcpClient {
        assert_eq!(
            map.n_nodes(),
            client_addrs.len(),
            "placement map and client address list disagree on cluster size"
        );
        ShardedTcpClient {
            map,
            origin,
            client_addrs,
            conns: HashMap::new(),
            scopes: HashMap::new(),
        }
    }

    fn conn(&mut self, node: NodeId) -> std::io::Result<&mut TcpClient> {
        if !self.conns.contains_key(&node) {
            let c = TcpClient::connect(self.client_addrs[node.0 as usize])?;
            self.conns.insert(node, c);
        }
        Ok(self.conns.get_mut(&node).expect("connection just inserted"))
    }

    /// Routes and issues a put; returns the write's timestamp.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn put(&mut self, key: Key, value: &[u8], scope: Option<ScopeId>) -> std::io::Result<Ts> {
        let coord = self.map.serving(self.origin, key);
        if let Some(sc) = scope {
            let coords = self.scopes.entry(sc).or_default();
            if !coords.contains(&coord) {
                coords.push(coord);
            }
        }
        self.conn(coord)?.put(key, value, scope)
    }

    /// Routes and issues a get.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn get(&mut self, key: Key) -> std::io::Result<Vec<u8>> {
        let coord = self.map.serving(self.origin, key);
        self.conn(coord)?.get(key)
    }

    /// Flushes `scope` at every coordinator its writes were routed to
    /// (consuming the record); a scope with no routed writes flushes
    /// trivially at the origin.
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn persist_scope(&mut self, scope: ScopeId) -> std::io::Result<()> {
        let coords = match self.scopes.remove(&scope) {
            Some(c) if !c.is_empty() => c,
            _ => vec![self.origin],
        };
        for c in coords {
            self.conn(c)?.persist_scope(scope)?;
        }
        Ok(())
    }

    /// Dumps `node`'s durable log (the audit surface, unrouted).
    ///
    /// # Errors
    ///
    /// Propagates socket errors and malformed responses.
    pub fn dump_durable(&mut self, node: NodeId) -> std::io::Result<Vec<LogEntry>> {
        self.conn(node)?.dump_durable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn entry(lsn: u64, key: u64, value: &[u8]) -> LogEntry {
        LogEntry {
            lsn,
            key: Key(key),
            ts: Ts {
                version: lsn as u32,
                node: NodeId(1),
            },
            value: Value::copy_from_slice(value),
        }
    }

    #[test]
    fn log_reply_round_trips_and_rejects_damage() {
        let entries = vec![entry(1, 7, b"a"), entry(2, 8, b"bc"), entry(3, 7, b"")];
        let mut body = Vec::new();
        encode_log_reply(&entries, &mut body);
        assert_eq!(decode_log_reply(&body).unwrap(), entries);
        let mut empty = Vec::new();
        encode_log_reply(&[], &mut empty);
        assert!(decode_log_reply(&empty).unwrap().is_empty());
        // Truncation at every offset, entry boundaries included, is
        // rejected rather than read as a shorter log.
        for cut in 0..body.len() {
            assert!(decode_log_reply(&body[..cut]).is_err(), "cut at {cut}");
        }
        // So is any single flipped bit, and trailing garbage.
        for bit in 0..body.len() * 8 {
            let mut bad = body.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(decode_log_reply(&bad).is_err(), "bit {bit}");
        }
        let mut padded = body.clone();
        padded.push(0);
        assert!(decode_log_reply(&padded).is_err());
    }

    /// A reader that yields `data` and then EOF, recording the largest
    /// buffer it was offered.
    struct Probe<'a> {
        data: &'a [u8],
        max_buf: usize,
    }

    impl Read for Probe<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.max_buf = self.max_buf.max(buf.len());
            let n = buf.len().min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn read_frame_grows_with_the_body_not_the_header() {
        // A header announcing a frame just under the cap, then 10 bytes
        // and EOF: the read fails without sizing a buffer to the claim.
        let mut bytes = u32::try_from(MAX_FRAME - 1).unwrap().to_le_bytes().to_vec();
        bytes.extend_from_slice(&[7u8; 10]);
        let mut probe = Probe {
            data: &bytes,
            max_buf: 0,
        };
        let err = read_frame(&mut probe).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert!(probe.max_buf <= 1 << 20, "offered {} bytes", probe.max_buf);
        // Over the cap: rejected from the header alone.
        let over = u32::try_from(MAX_FRAME + 1).unwrap().to_le_bytes();
        let mut probe = Probe {
            data: &over,
            max_buf: 0,
        };
        assert!(read_frame(&mut probe).is_err());
        // A well-formed frame still reads back whole.
        let mut ok = 3u32.to_le_bytes().to_vec();
        ok.extend_from_slice(b"abc");
        let mut probe = Probe {
            data: &ok,
            max_buf: 0,
        };
        assert_eq!(read_frame(&mut probe).unwrap(), b"abc");
    }

    fn arb_op() -> impl Strategy<Value = ClientOp> {
        let ts = (any::<u32>(), any::<u16>()).prop_map(|(version, n)| Ts {
            version,
            node: NodeId(n),
        });
        prop_oneof![
            (
                any::<u64>(),
                any::<bool>(),
                any::<u32>(),
                vec(any::<u8>(), 0..40)
            )
                .prop_map(|(k, scoped, sc, v)| ClientOp::Put {
                    key: Key(k),
                    scope: scoped.then_some(ScopeId(sc)),
                    value: Value::from(v),
                }),
            any::<u64>().prop_map(|k| ClientOp::Get { key: Key(k) }),
            any::<u32>().prop_map(|sc| ClientOp::Persist { scope: ScopeId(sc) }),
            Just(ClientOp::DumpDurable),
            vec((any::<u64>(), ts), 0..6).prop_map(|have| ClientOp::Delta {
                have: have.into_iter().map(|(k, ts)| (Key(k), ts)).collect(),
            }),
            (any::<u16>(), any::<bool>()).prop_map(|(p, up)| ClientOp::PeerStatus {
                peer: NodeId(p),
                up,
            }),
        ]
    }

    fn arb_ctx() -> impl Strategy<Value = Option<TraceCtx>> {
        (any::<bool>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(some, trace_id, span, origin_ns)| {
                let ctx = TraceCtx {
                    trace_id: trace_id | 1,
                    span,
                    origin_ns,
                };
                some.then_some(ctx)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes — fully random, or a plausible op byte over a
        /// random tail — parse to `None` or `Some`, never a panic.
        #[test]
        fn prop_arbitrary_bytes_never_panic(
            raw in vec(any::<u8>(), 0..96),
            op in 0u8..8,
            flag in any::<bool>(),
            tail in vec(any::<u8>(), 0..96),
        ) {
            let _ = parse_client_request(&raw);
            let mut frame = vec![if flag { op | CLIENT_CTX_FLAG } else { op }];
            frame.extend_from_slice(&tail);
            let _ = parse_client_request(&frame);
        }

        /// Every encoded op parses back to itself, context included.
        #[test]
        fn prop_encoded_ops_round_trip(
            op in arb_op(),
            creq in any::<u64>(),
            ctx in arb_ctx(),
        ) {
            let mut buf = Vec::new();
            encode_client_request(creq, &op, ctx, &mut buf);
            prop_assert_eq!(parse_client_request(&buf), Some((creq, op, ctx)));
        }

        /// A valid request cut at any offset never panics the parser.
        #[test]
        fn prop_truncated_requests_never_panic(
            op in arb_op(),
            creq in any::<u64>(),
            ctx in arb_ctx(),
        ) {
            let mut buf = Vec::new();
            encode_client_request(creq, &op, ctx, &mut buf);
            for cut in 0..buf.len() {
                let _ = parse_client_request(&buf[..cut]);
            }
        }
    }

    #[test]
    fn put_request_bytes_are_the_documented_layout() {
        // `[1][creq][key][scope-flag][scope?][value]`, as raw-socket
        // clients write it.
        let mut buf = Vec::new();
        let op = ClientOp::Put {
            key: Key(5),
            scope: Some(ScopeId(9)),
            value: &b"v"[..],
        };
        encode_client_request(3, &op, None, &mut buf);
        let mut want = vec![1u8];
        want.extend_from_slice(&3u64.to_le_bytes());
        want.extend_from_slice(&5u64.to_le_bytes());
        want.push(1);
        want.extend_from_slice(&9u32.to_le_bytes());
        want.push(b'v');
        assert_eq!(buf, want);
    }
}
