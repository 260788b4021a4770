//! Observability: trace a threaded cluster run, replay the trace into a
//! Fig. 4-style critical-path breakdown, and export latency histograms.
//!
//! Run with:
//! ```text
//! cargo run -p minos --example observability
//! ```
//!
//! The same sinks attach to every harness (`loopback::Cluster::attach_tracer`
//! for `BCluster`/`OCluster`, `Sim::attach_tracer` for `BSim`/`OSim`,
//! `MinosKv::attach_tracer`, `minos-noded --trace-out/--metrics-out`);
//! this example uses the threaded cluster
//! because its traces carry real wall-clock time. The JSONL file written
//! here is exactly what `minos-trace <file>` replays from the command
//! line.

use minos::cluster::Cluster;
use minos::obs::{self, analyze, format_report, parse_jsonl, JsonlWriter, MetricsSink};
use minos::types::{ClusterConfig, DdpModel, Key, NodeId, PersistencyModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = DdpModel::lin(PersistencyModel::Synchronous);
    let trace_path = std::env::temp_dir().join("minos-observability-example.jsonl");

    // 1. Spawn a 3-node cluster with two sinks attached to every node's
    //    dispatcher: a JSONL trace writer and a latency-histogram sink.
    let writer = JsonlWriter::create(&trace_path)?;
    let (metrics, hists) = MetricsSink::new(model.persistency);
    let mut cfg = ClusterConfig::cloudlab().with_nodes(3);
    cfg.wire_latency_ns = 20_000;
    let cl = Cluster::spawn_observed(cfg, model, vec![obs::shared(writer), obs::shared(metrics)]);

    // 2. A small closed-loop workload: 20 writes and 20 reads.
    for i in 0..20u64 {
        cl.put(
            NodeId((i % 3) as u16),
            Key(i % 5),
            format!("value-{i}").into(),
        )?;
        cl.get(NodeId(((i + 1) % 3) as u16), Key(i % 5))?;
    }
    cl.shutdown(); // flushes the JSONL sink on every node

    // 3. Replay the trace: per-op critical paths + the aggregate
    //    communication/computation split of Fig. 4.
    let mut records = parse_jsonl(&std::fs::read_to_string(&trace_path)?);
    records.sort_by_key(|r| r.at_ns);
    let ops = analyze(&records);
    println!(
        "--- replay of {} ({} records) ---",
        trace_path.display(),
        records.len()
    );
    print!("{}", format_report(&ops, 4));

    // 4. The histogram sink aggregated the same ops; this is the text
    //    `minos-noded --metrics-out` dumps every second.
    println!("\n--- Prometheus exposition (excerpt) ---");
    let text = hists.lock().unwrap().render_prometheus();
    for line in text.lines().filter(|l| !l.contains("_bucket")) {
        println!("{line}");
    }

    println!("\nreplay the same file yourself:");
    println!(
        "  cargo run -p minos-bench --bin minos-trace -- {}",
        trace_path.display()
    );
    Ok(())
}
