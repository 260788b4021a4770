//! Wall-clock benchmark of the MINOS runtimes.
//!
//! ```text
//! minos-perfbench --workload <threaded-ycsb-a|tcp-ycsb-b|des-ycsb-a> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) measures the workload's end-to-end
//! metrics; a traced run (`--trace 1`) measures every per-layer metric
//! under the workload's op mix. Both check the run for correctness and
//! print, last, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See `README.md` in this directory.

mod des;
mod gate;
mod layers;
mod live;
mod report;
mod stats;
mod tcp;
mod threaded;

use report::Report;
use std::path::PathBuf;
use std::time::Duration;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// YCSB-A on the threaded cluster.
    ThreadedYcsbA,
    /// YCSB-B on in-process TCP nodes.
    TcpYcsbB,
    /// YCSB-A on the simulator, open loop at 1 M ops/s.
    DesYcsbA,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ThreadedYcsbA,
        Workload::TcpYcsbB,
        Workload::DesYcsbA,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ThreadedYcsbA => "threaded-ycsb-a",
            Workload::TcpYcsbB => "tcp-ycsb-b",
            Workload::DesYcsbA => "des-ycsb-a",
        }
    }

    fn scenario(self) -> minos_workload::openloop::Scenario {
        use minos_workload::openloop::Scenario;
        match self {
            Workload::TcpYcsbB => Scenario::YcsbB,
            Workload::ThreadedYcsbA | Workload::DesYcsbA => Scenario::YcsbA,
        }
    }

    fn spec(self, sim_ops: u64) -> minos_workload::openloop::OpenLoopSpec {
        match self {
            Workload::ThreadedYcsbA => threaded::spec(self.scenario()),
            Workload::TcpYcsbB => tcp::spec(self.scenario()),
            Workload::DesYcsbA => des::spec(self.scenario(), sim_ops),
        }
    }
}

/// Arrivals of the workload's schedule replayed on the loopback cluster.
const REPLAY_OPS: u64 = 20_000;

/// One invocation's arguments.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Arrivals in the simulated schedules.
    sim_ops: u64,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        sim_ops: des::SIM_OPS,
    })
}

/// Per-run scratch space for trace files, inside this directory.
fn scratch_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".scratch")
        .join(std::process::id().to_string())
}

/// Runs one invocation and returns its report.
pub fn run(args: Args) -> Report {
    let mut r = if args.trace {
        traced(args)
    } else {
        match args.workload {
            Workload::ThreadedYcsbA => threaded::e2e(args.seed, args.seconds),
            Workload::TcpYcsbB => tcp::e2e(args.seed, args.seconds),
            Workload::DesYcsbA => {
                des::e2e(&args.workload.spec(args.sim_ops), args.seed, args.seconds)
            }
        }
    };
    r.notes.insert(
        0,
        format!(
            "perfbench workload={} seed={} seconds={} trace={} nproc={} client_threads={} connections={} processes=1",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            live::client_threads(),
            if args.workload == Workload::TcpYcsbB { live::client_threads() } else { 0 },
        ),
    );
    r
}

/// Every per-layer metric under the workload's op mix. The workload's own
/// runtime supplies the `trace.*` breakdown (the threaded cluster for the
/// simulator workload, whose traces are in virtual time).
fn traced(args: Args) -> Report {
    let mut r = Report::default();
    let spec = args.workload.spec(args.sim_ops);
    let sim_spec = des::spec(args.workload.scenario(), args.sim_ops);
    let scenario = args.workload.scenario();
    let phase = Duration::from_secs_f64((args.seconds / 5.0).max(0.5));

    layers::schedule_gen(&mut r, &spec, args.seed);
    layers::loopback_replay(
        &mut r,
        &spec.clone().with_total_ops(REPLAY_OPS).schedule(args.seed),
    );
    layers::persist(&mut r);
    layers::wire(&mut r);
    layers::event_queue(&mut r, sim_spec.mean_gap_ns() as u64);

    let threaded = threaded::layers(&mut r, scenario, args.seed, phase);
    let scratch = scratch_dir();
    let tcp = tcp::layers(&mut r, scenario, args.seed, phase, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    if let Some(parent) = scratch.parent() {
        // Removed only when no concurrent run still uses it.
        let _ = std::fs::remove_dir(parent);
    }
    des::layers(&mut r, &sim_spec, args.seed);

    let (breakdown, overhead) = if args.workload == Workload::TcpYcsbB {
        tcp
    } else {
        threaded
    };
    breakdown.record(&mut r, overhead);
    r
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: minos-perfbench --workload <threaded-ycsb-a|tcp-ycsb-b|des-ycsb-a> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    run(args).print(args.trace);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short(workload: Workload, seconds: f64, trace: bool) -> Args {
        Args {
            workload,
            seed: 5,
            seconds,
            trace,
            sim_ops: 2_000,
        }
    }

    #[test]
    fn parses_the_command_line() {
        let argv: Vec<String> = "--workload tcp-ycsb-b --seed 9 --seconds 20 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse(&argv).unwrap();
        assert_eq!(a.workload, Workload::TcpYcsbB);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 20.0, true));
        assert!(parse(&["--workload".into(), "nope".into()]).is_err());
        assert!(
            parse(&["--seed".into(), "1".into()]).is_err(),
            "workload is required"
        );
    }

    #[test]
    fn short_untraced_runs_are_correct() {
        for (w, secs) in [
            (Workload::ThreadedYcsbA, 1.0),
            (Workload::TcpYcsbB, 1.0),
            (Workload::DesYcsbA, 0.5),
        ] {
            let r = run(short(w, secs, false));
            assert!(r.violations.is_empty(), "{}: {:?}", w.name(), r.violations);
            assert_eq!(r.error_rate(), 0.0, "{}", w.name());
            assert!(
                r.correct(false),
                "{}: missing {:?}",
                w.name(),
                r.missing(false)
            );
            assert!(r.json(false).starts_with("{\"correct\": true"));
        }
    }

    #[test]
    fn traced_run_reports_consistent_layer_metrics() {
        for w in [Workload::ThreadedYcsbA, Workload::TcpYcsbB] {
            let r = run(short(w, 2.5, true));
            assert!(
                r.correct(true),
                "{}: missing {:?}, violations {:?}",
                w.name(),
                r.missing(true),
                r.violations
            );
            let get = |n| r.get(n).unwrap();
            assert!(get("cluster.put_wait_us") >= 0.0, "{}", w.name());
            assert!(get("trace.puts") >= 1.0, "{}", w.name());
            let parts: f64 = [
                "trace.dispatch_us",
                "trace.computation_us",
                "trace.communication_us",
                "trace.persist_us",
            ]
            .into_iter()
            .map(get)
            .sum();
            let total = get("trace.put_mean_us");
            assert!(
                (parts - total).abs() <= 1e-9 * total.max(1.0),
                "{}: categories {parts} vs put mean {total}",
                w.name()
            );
        }
    }
}
