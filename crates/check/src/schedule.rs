//! Seeded chaos schedules and greedy shrinking.
//!
//! A schedule is derived deterministically from a `u64` seed: the same
//! seed always yields the same injections, so a failing seed printed by
//! `minos-torture` is a complete reproduction recipe. The schedule is
//! *explicit data* (not a probability): message-level injections ride in
//! [`ChaosSpec`] down to the `ChaosNet` transport middleware, and the
//! crash/rejoin points are executed by the torture driver against
//! either live runtime, keyed on *protocol progress* (the history's
//! completed-op count) rather than wall time so they replay stably. A schedule may carry several crash points — a
//! rolling restart — whose outage windows the generator keeps disjoint.
//!
//! Shrinking is greedy component removal: drop one injection (or one
//! crash point's rejoin, or the whole point) at a time, re-run, and keep
//! every removal that still fails, looping to a fixpoint. Because
//! schedules are explicit lists, every shrink candidate is itself a
//! perfectly reproducible schedule.

use minos_types::{ChaosSpec, MsgChaos, MsgInjection};
use std::fmt;

/// A deterministic xorshift64* generator (no external RNG dependency;
/// the vendored `rand` stub is not seedable).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator; any seed (zero included) is valid.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        // SplitMix-style scramble so nearby seeds diverge immediately.
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `0..bound` (`bound` must be nonzero).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// Crash/recovery point, phrased in protocol progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// The node to crash.
    pub node: u16,
    /// Crash once this many client ops have completed cluster-wide.
    pub after_ops: u64,
    /// Rejoin (own-log replay plus donor catch-up) once this many ops
    /// have completed; `None` leaves the node down for the rest of the
    /// run.
    pub recover_after_ops: Option<u64>,
}

/// One run's complete chaos schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// The seed the schedule was generated from.
    pub seed: u64,
    /// Message-level injections (applied by `ChaosNet`).
    pub injections: Vec<MsgInjection>,
    /// Driver-level crash/rejoin points, ordered by `after_ops`. The
    /// generator keeps the outage windows disjoint (each crash fires at
    /// or after the previous point's recovery) — a rolling restart —
    /// though shrinking may drop a recovery and leave windows nested;
    /// the driver skips a crash of an already-down node.
    pub crashes: Vec<CrashPoint>,
}

impl Schedule {
    /// An empty schedule (chaos-free run) for `seed`.
    #[must_use]
    pub fn empty(seed: u64) -> Self {
        Schedule {
            seed,
            injections: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// The transport-level part, for the runtime configs.
    #[must_use]
    pub fn spec(&self) -> ChaosSpec {
        ChaosSpec {
            seed: self.seed,
            injections: self.injections.clone(),
        }
    }

    /// Number of removable components (shrink candidates).
    #[must_use]
    pub fn weight(&self) -> usize {
        self.injections.len()
            + self
                .crashes
                .iter()
                .map(|c| 1 + usize::from(c.recover_after_ops.is_some()))
                .sum::<usize>()
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "schedule (seed {:#x}):", self.seed)?;
        if self.injections.is_empty() && self.crashes.is_empty() {
            writeln!(f, "  (no chaos — the failure needs no schedule)")?;
        }
        for inj in &self.injections {
            writeln!(
                f,
                "  {} on message #{} leaving n{}",
                inj.kind.label(),
                inj.nth,
                inj.node
            )?;
        }
        for c in &self.crashes {
            write!(f, "  crash n{} after {} completed ops", c.node, c.after_ops)?;
            match c.recover_after_ops {
                Some(r) => writeln!(f, ", rejoin after {r}")?,
                None => writeln!(f, " (never rejoined)")?,
            }
        }
        Ok(())
    }
}

/// Knobs for schedule generation.
#[derive(Debug, Clone)]
pub struct ScheduleOptions {
    /// Cluster size (injections target nodes `0..nodes`).
    pub nodes: u16,
    /// Message injections to generate.
    pub injections: u32,
    /// Highest outbound-message index an injection may target. Scale
    /// with expected run length: roughly `ops × messages-per-op`.
    pub max_nth: u64,
    /// Allowed injection kinds. The live runtimes have no
    /// retransmission, so their schedules must not include
    /// [`MsgChaos::Drop`].
    pub kinds: Vec<MsgChaos>,
    /// Permit crash/rejoin points.
    pub allow_crash: bool,
    /// Most crash points one schedule may carry. At 2 or more, seeds
    /// produce rolling restarts: consecutive outage windows over
    /// (usually) different nodes, each rejoin replaying the node's log
    /// and catching up from a donor before the next crash fires.
    pub max_crashes: u32,
    /// Total client ops the run will attempt (bounds crash placement).
    pub total_ops: u64,
}

/// Derives the schedule for `seed`.
#[must_use]
pub fn generate(seed: u64, opts: &ScheduleOptions) -> Schedule {
    let mut rng = Rng::new(seed);
    let mut injections = Vec::new();
    for _ in 0..opts.injections {
        injections.push(MsgInjection {
            node: rng.below(u64::from(opts.nodes)) as u16,
            nth: rng.below(opts.max_nth.max(1)),
            kind: opts.kinds[rng.below(opts.kinds.len() as u64) as usize],
        });
    }
    let mut crashes = Vec::new();
    if opts.allow_crash && opts.max_crashes > 0 && opts.total_ops >= 8 && rng.chance(1, 2) {
        let span = opts.total_ops;
        let want = 1 + rng.below(u64::from(opts.max_crashes));
        // Rolling placement: each crash fires at or after the previous
        // rejoin, so at most one node is down at a time (and a crash
        // left unrecovered ends the sequence — the driver rejoins it
        // post-run).
        let mut cursor = 1 + rng.below((span / 2).max(1));
        for _ in 0..want {
            if cursor >= span {
                break;
            }
            let after_ops = cursor;
            let recover_after_ops = rng
                .chance(3, 4)
                .then(|| after_ops + 1 + rng.below((span / 3).max(1)));
            crashes.push(CrashPoint {
                node: rng.below(u64::from(opts.nodes)) as u16,
                after_ops,
                recover_after_ops,
            });
            match recover_after_ops {
                Some(r) => cursor = r + rng.below((span / 3).max(1)),
                None => break,
            }
        }
    }
    Schedule {
        seed,
        injections,
        crashes,
    }
}

/// Greedily shrinks a failing schedule: repeatedly removes one component
/// and keeps the removal whenever `still_fails` says the smaller
/// schedule still reproduces the violation. Returns the shrunk schedule
/// and the number of re-runs spent.
pub fn shrink<F: FnMut(&Schedule) -> bool>(
    failing: &Schedule,
    mut still_fails: F,
    max_runs: usize,
) -> (Schedule, usize) {
    let mut best = failing.clone();
    let mut runs = 0;
    loop {
        let mut progressed = false;

        // Injections, one at a time.
        let mut i = 0;
        while i < best.injections.len() {
            if runs >= max_runs {
                return (best, runs);
            }
            let mut candidate = best.clone();
            candidate.injections.remove(i);
            runs += 1;
            if still_fails(&candidate) {
                best = candidate;
                progressed = true;
            } else {
                i += 1;
            }
        }

        // Per crash point: the rejoin alone, then the whole point.
        let mut ci = 0;
        while ci < best.crashes.len() {
            if best.crashes[ci].recover_after_ops.is_some() && runs < max_runs {
                let mut candidate = best.clone();
                candidate.crashes[ci].recover_after_ops = None;
                runs += 1;
                if still_fails(&candidate) {
                    best = candidate;
                    progressed = true;
                }
            }
            if runs >= max_runs {
                return (best, runs);
            }
            let mut candidate = best.clone();
            candidate.crashes.remove(ci);
            runs += 1;
            if still_fails(&candidate) {
                best = candidate;
                progressed = true;
            } else {
                ci += 1;
            }
        }

        if !progressed || runs >= max_runs {
            return (best, runs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> ScheduleOptions {
        ScheduleOptions {
            nodes: 3,
            injections: 6,
            max_nth: 100,
            kinds: vec![MsgChaos::DelayToFlush, MsgChaos::ReorderNext],
            allow_crash: true,
            max_crashes: 3,
            total_ops: 60,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate(42, &opts()), generate(42, &opts()));
        assert_ne!(
            generate(42, &opts()).injections,
            generate(43, &opts()).injections
        );
    }

    #[test]
    fn generation_respects_kind_allowlist() {
        for seed in 0..50 {
            let s = generate(seed, &opts());
            assert!(s
                .injections
                .iter()
                .all(|i| i.kind != MsgChaos::Drop && i.node < 3));
            for c in &s.crashes {
                assert!(c.after_ops >= 1 && c.node < 3);
                if let Some(r) = c.recover_after_ops {
                    assert!(r > c.after_ops);
                }
            }
        }
    }

    #[test]
    fn crash_windows_are_disjoint_and_a_final_crash_may_stay_down() {
        let mut saw_multi = false;
        for seed in 0..200 {
            let s = generate(seed, &opts());
            saw_multi |= s.crashes.len() >= 2;
            for pair in s.crashes.windows(2) {
                let r = pair[0]
                    .recover_after_ops
                    .expect("only the last crash may stay down");
                assert!(
                    pair[1].after_ops >= r,
                    "rolling restarts: the next crash fires at or after \
                     the previous rejoin ({pair:?})"
                );
            }
        }
        assert!(saw_multi, "max_crashes 3 must yield rolling restarts");
    }

    #[test]
    fn shrink_reaches_the_single_guilty_injection() {
        let schedule = generate(7, &opts());
        assert!(schedule.weight() >= 6);
        let guilty = schedule.injections[3];
        // A run "fails" iff the guilty injection is present.
        let (shrunk, _) = shrink(&schedule, |s| s.injections.contains(&guilty), 200);
        assert_eq!(shrunk.injections, vec![guilty]);
        assert!(shrunk.crashes.is_empty());
    }

    #[test]
    fn shrink_isolates_the_guilty_crash_point() {
        // Find a seed with at least two crash points.
        let (schedule, guilty) = (0..500)
            .map(|seed| generate(seed, &opts()))
            .find(|s| s.crashes.len() >= 2)
            .map(|s| {
                let guilty = s.crashes[1];
                (s, guilty)
            })
            .expect("some seed yields a rolling restart");
        let (shrunk, _) = shrink(&schedule, |s| s.crashes.contains(&guilty), 400);
        assert_eq!(shrunk.crashes, vec![guilty]);
        assert!(shrunk.injections.is_empty());
    }

    #[test]
    fn shrink_of_schedule_free_failure_is_empty() {
        // A fault that fires regardless of chaos (the mutation smoke
        // case): everything shrinks away.
        let schedule = generate(9, &opts());
        let (shrunk, _) = shrink(&schedule, |_| true, 200);
        assert_eq!(shrunk.weight(), 0);
    }

    #[test]
    fn shrink_respects_the_run_budget() {
        let schedule = generate(11, &opts());
        let (_, runs) = shrink(&schedule, |_| false, 3);
        assert_eq!(runs, 3);
    }
}
