//! Failure-trace generation (Fig. 1) and failure statistics.
//!
//! The paper shows a month of node-failure counts from the 3000-node
//! Facebook production cluster: "it is quite typical to have 20 or more
//! node failures per day", with bursts reaching ~100. The raw trace is
//! proprietary, so we generate a synthetic one from an overdispersed
//! counting process: a Poisson base rate plus occasional correlated
//! burst days (rack/switch events), matching the reported statistics.

use rand::Rng;

/// Configuration of the synthetic failure trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Days to generate.
    pub days: usize,
    /// Mean of the per-day Poisson base failure count.
    pub base_mean: f64,
    /// Probability a day carries a correlated burst.
    pub burst_prob: f64,
    /// Mean extra failures on a burst day (geometric).
    pub burst_mean: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        // Calibrated to Fig. 1: median ≈ 20, occasional days near 100.
        Self {
            days: 30,
            base_mean: 18.0,
            burst_prob: 0.12,
            burst_mean: 40.0,
        }
    }
}

/// Samples a Poisson variate (Knuth's product method; fine for the
/// small means used here).
fn sample_poisson<R: Rng>(mean: f64, rng: &mut R) -> u32 {
    assert!(mean > 0.0, "mean must be positive");
    let l = (-mean).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Samples a geometric variate with the given mean (support `1..`).
fn sample_geometric<R: Rng>(mean: f64, rng: &mut R) -> u32 {
    assert!(mean >= 1.0, "mean must be at least 1");
    let p = 1.0 / mean;
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    (u.ln() / (1.0 - p).ln()).ceil().max(1.0) as u32
}

/// Samples one day's failure count from the overdispersed process: a
/// Poisson base plus, with probability `burst_prob`, a geometric burst
/// (the heavy tail behind Fig. 1's near-100-failure days). Shared by
/// [`generate_trace`] and the warehouse scenario driver so both replay
/// the same statistics. A non-positive `base_mean` contributes zero
/// base failures (tiny-fleet scalings use this).
pub fn sample_day_failures<R: Rng>(cfg: &TraceConfig, rng: &mut R) -> u32 {
    let mut failures = if cfg.base_mean > 0.0 {
        sample_poisson(cfg.base_mean, rng)
    } else {
        0
    };
    if rng.gen::<f64>() < cfg.burst_prob {
        failures += sample_geometric(cfg.burst_mean, rng);
    }
    failures
}

/// Generates a per-day failed-node trace.
pub fn generate_trace<R: Rng>(cfg: TraceConfig, rng: &mut R) -> Vec<u32> {
    (0..cfg.days)
        .map(|_| sample_day_failures(&cfg, rng))
        .collect()
}

/// Summary statistics of a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Median failures/day.
    pub median: f64,
    /// Mean failures/day.
    pub mean: f64,
    /// Maximum failures in a day.
    pub max: u32,
    /// Days with 20 or more failures.
    pub days_at_least_20: usize,
}

/// Computes [`TraceStats`].
pub fn trace_stats(trace: &[u32]) -> TraceStats {
    assert!(!trace.is_empty(), "empty trace");
    let mut sorted = trace.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2] as f64
    } else {
        (sorted[n / 2 - 1] as f64 + sorted[n / 2] as f64) / 2.0
    };
    TraceStats {
        median,
        mean: trace.iter().map(|&x| x as f64).sum::<f64>() / n as f64,
        // The trace was asserted non-empty on entry.
        max: sorted.last().copied().unwrap_or(0),
        days_at_least_20: trace.iter().filter(|&&x| x >= 20).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_mean_is_close() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| sample_poisson(18.0, &mut rng) as u64).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 18.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn trace_matches_figure_1_statistics() {
        let mut rng = StdRng::seed_from_u64(99);
        // Aggregate several months so the statistics are stable.
        let trace = generate_trace(
            TraceConfig {
                days: 600,
                ..Default::default()
            },
            &mut rng,
        );
        let stats = trace_stats(&trace);
        // "quite typical to have 20 or more node failures per day".
        assert!(stats.median >= 15.0 && stats.median <= 25.0, "{stats:?}");
        assert!(stats.days_at_least_20 as f64 / 600.0 > 0.3, "{stats:?}");
        // Bursts approach the ~100 spike of Fig. 1.
        assert!(stats.max >= 60, "{stats:?}");
        assert!(stats.max <= 400, "{stats:?}");
    }

    #[test]
    fn trace_is_deterministic_under_seed() {
        let a = generate_trace(TraceConfig::default(), &mut StdRng::seed_from_u64(5));
        let b = generate_trace(TraceConfig::default(), &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn stats_of_known_sequence() {
        let s = trace_stats(&[10, 30, 20, 40, 25]);
        assert_eq!(s.median, 25.0);
        assert_eq!(s.mean, 25.0);
        assert_eq!(s.max, 40);
        assert_eq!(s.days_at_least_20, 4);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_rejected() {
        let _ = trace_stats(&[]);
    }
}
