//! Percentiles, medians and process-level readings.

/// Fewest samples that support a p99: ten samples lie beyond it.
pub const P99_MIN_SAMPLES: usize = 1000;

/// Most windows a run's samples are split into.
pub const WINDOWS: usize = 10;

/// Nearest-rank quantile of `samples` (sorted in place); `None` when empty.
pub fn quantile(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// A latency summary of one op kind, in microseconds.
///
/// The samples, in the order they were taken, are split into up to
/// [`WINDOWS`] consecutive windows of at least [`P99_MIN_SAMPLES`] each
/// (one window when there are fewer); each percentile is the median of
/// the windows' percentiles, so a stall confined to a few windows of a
/// run on a shared machine does not set the run's figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Samples behind both percentiles.
    pub samples: usize,
    /// Windows the samples were split into.
    pub windows: usize,
    /// Median.
    pub p50_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
}

impl LatencySummary {
    /// Summarises nanosecond samples given in time order; `None` when
    /// there are none.
    pub fn of_ns(samples: Vec<u64>) -> Option<LatencySummary> {
        if samples.is_empty() {
            return None;
        }
        let windows = (samples.len() / P99_MIN_SAMPLES).clamp(1, WINDOWS);
        let width = samples.len().div_ceil(windows);
        let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
        for w in samples.chunks(width) {
            let mut w = w.to_vec();
            p50s.push(quantile(&mut w, 0.50)? as f64);
            p99s.push(quantile(&mut w, 0.99)? as f64);
        }
        Some(LatencySummary {
            samples: samples.len(),
            windows: p50s.len(),
            p50_us: median(&p50s) / 1e3,
            p99_us: median(&p99s) / 1e3,
        })
    }

    /// Whether at least ten samples lie beyond the p99.
    pub fn p99_supported(&self) -> bool {
        self.samples >= P99_MIN_SAMPLES
    }
}

/// Median of `values` (the mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Resets this process's peak resident set size to its current one, so
/// the next [`peak_rss_mb`] reading covers only what follows. Returns
/// false where the kernel does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50));
        assert_eq!(quantile(&mut v, 0.99), Some(99));
        assert_eq!(quantile(&mut v, 1.0), Some(100));
        assert_eq!(quantile(&mut [], 0.5), None);
    }

    #[test]
    fn p99_support_needs_a_thousand_samples() {
        let small = LatencySummary::of_ns(vec![1_000; P99_MIN_SAMPLES - 1]).unwrap();
        assert!(!small.p99_supported());
        let big = LatencySummary::of_ns(vec![1_000; P99_MIN_SAMPLES]).unwrap();
        assert!(big.p99_supported());
        assert_eq!(big.p50_us, 1.0);
    }

    #[test]
    fn a_stall_in_one_window_does_not_set_the_p99() {
        let mut samples = vec![1_000u64; 10 * P99_MIN_SAMPLES];
        samples[..200].iter_mut().for_each(|s| *s = 1_000_000);
        let s = LatencySummary::of_ns(samples).unwrap();
        assert_eq!(s.windows, WINDOWS);
        assert_eq!(s.p99_us, 1.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
