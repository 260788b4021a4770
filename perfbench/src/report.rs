//! Metric names, the run report, and its output.

/// End-to-end metrics (untraced runs), as `(name, unit)`. Every run
/// reports all of them; `BENCHMARK.json` lists the same set.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("put_p50_us", "us"),
    ("put_p99_us", "us"),
    ("get_p50_us", "us"),
    ("get_p99_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs), as `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("workload.gen_ms", "ms"),
    ("core.put_ns", "ns"),
    ("core.get_ns", "ns"),
    ("core.lock_scan_us", "us"),
    ("core.records", "count"),
    ("core.msgs_per_op", "msgs/op"),
    ("core.frames_per_op", "frames/op"),
    ("core.persists_per_write", "persists/op"),
    ("core.defers_per_op", "defers/op"),
    ("core.useful_ratio", "ratio"),
    ("kv.persist_ns", "ns"),
    ("cluster.put_wait_us", "us"),
    ("cluster.get_wait_us", "us"),
    ("cluster.inbox_max", "count"),
    ("cluster.inflight_max", "count"),
    ("tcp.admin_rtt_us", "us"),
    ("tcp.get_engine_us", "us"),
    ("tcp.put_engine_us", "us"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("bsim.wall_s", "s"),
    ("osim.wall_s", "s"),
    ("bsim.ops_per_s", "1/s"),
    ("osim.ops_per_s", "1/s"),
    ("bsim.telemetry_share", "ratio"),
    ("osim.telemetry_share", "ratio"),
    ("sim.queue_ns", "ns"),
    ("trace.dispatch_us", "us"),
    ("trace.computation_us", "us"),
    ("trace.communication_us", "us"),
    ("trace.persist_us", "us"),
    ("trace.put_mean_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.puts", "count"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// What one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (client calls, or simulated ops).
    pub attempted: u64,
    /// Operations that returned an error, timed out or did not complete.
    pub failed: u64,
    /// Correctness-gate violations (empty = the run is correct).
    pub violations: Vec<String>,
    /// Measured metrics, in insertion order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Informational lines printed ahead of the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records metric `name` (which must be declared above).
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let _ = unit_of(name);
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Records `setup_s` as the median of the set-up times (seconds),
    /// noting each.
    pub fn setup(&mut self, times: &[f64]) {
        self.metric("setup_s", crate::stats::median(times));
        self.note(format!("set-up times (s): {times:?}"));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Adds an informational line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Ops that failed, as a share of ops attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// True when the gate passed, no op failed, every value is finite and
    /// exactly the metrics of the mode (`traced` or not) were recorded.
    pub fn correct(&self, traced: bool) -> bool {
        self.violations.is_empty()
            && self.failed == 0
            && self.attempted > 0
            && self.missing(traced).is_empty()
            && self.metrics.iter().all(|(_, v)| v.is_finite())
    }

    /// Declared metrics of the mode that were not recorded.
    pub fn missing(&self, traced: bool) -> Vec<&'static str> {
        let declared: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        declared
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| self.get(n).is_none())
            .collect()
    }

    /// The result object: the last line the benchmark prints.
    pub fn json(&self, traced: bool) -> String {
        let declared: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = declared
            .iter()
            .filter_map(|(n, u)| {
                let v = self.get(n)?;
                let v = if v.is_finite() { v } else { 0.0 };
                Some(format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(traced),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Prints notes, one line per metric, the gate verdict and the result
    /// object (last).
    pub fn print(&self, traced: bool) {
        for n in &self.notes {
            println!("{n}");
        }
        for (n, v) in &self.metrics {
            println!("metric {n} = {v} {}", unit_of(n));
        }
        println!(
            "error_rate = {} ({} failed of {} attempted)",
            self.error_rate(),
            self.failed,
            self.attempted
        );
        for m in self.missing(traced) {
            println!("MISSING metric {m}");
        }
        if self.violations.is_empty() {
            println!("gate: ok");
        } else {
            for v in self.violations.iter().take(20) {
                println!("VIOLATION {v}");
            }
            println!("gate: FAILED ({} violations)", self.violations.len());
        }
        println!("{}", self.json(traced));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
    /// with a letter or digit, at most 64 characters.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The `name` values of one top-level array of `BENCHMARK.json`.
    fn declared_in_benchmark_json(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn metric_names_are_legal_and_declared_in_benchmark_json() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared_in_benchmark_json("end_to_end"), e2e);
        assert_eq!(declared_in_benchmark_json("per_layer"), layer);
    }

    #[test]
    fn result_line_carries_exactly_the_mode_metrics() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        for (n, _) in END_TO_END {
            r.metric(n, 1.5);
        }
        r.metric("core.put_ns", 2.0);
        assert!(r.correct(false));
        assert!(!r.correct(true), "per-layer metrics are missing");
        let line = r.json(false);
        assert!(line.contains("\"put_p99_us\": {\"value\": 1.5, \"unit\": \"us\"}"));
        assert!(!line.contains("core.put_ns"));
        r.failed = 1;
        assert!(!r.correct(false));
    }
}
