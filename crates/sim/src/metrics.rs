//! Measurement collection: the §5.1 evaluation metrics.
//!
//! * **HDFS Bytes Read** — data read by repair/degraded-read tasks.
//! * **Network Traffic** — bytes crossing the network (read streams and
//!   block write-back), as AWS CloudWatch would report.
//! * **Repair Duration** — first repair-job launch to last completion.
//!
//! The counters are cumulative totals, so a caller measures one event
//! (Fig. 4) or a whole run (Fig. 5's totals) as the difference of two
//! [`CounterSnapshot`]s.

use crate::time::SimTime;

/// A point-in-time snapshot of the cumulative counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CounterSnapshot {
    /// Cumulative HDFS bytes read.
    pub hdfs_bytes_read: f64,
    /// Cumulative network bytes moved.
    pub network_bytes: f64,
    /// Blocks reconstructed so far.
    pub blocks_repaired: u64,
}

/// One completed job's span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpan {
    /// Submission time.
    pub submitted: SimTime,
    /// Completion time.
    pub finished: SimTime,
}

impl JobSpan {
    /// Wall-clock duration.
    pub fn duration(&self) -> SimTime {
        self.finished - self.submitted
    }
}

/// Exact order statistics over a recorded sample set: the shared
/// tail-latency helper behind the simulator's repair-duration and
/// serving-latency summaries.
///
/// Quantiles use the *nearest-rank* definition: for `0 < q <= 1` over
/// `n` ascending samples, the quantile is the sample at 1-based rank
/// `ceil(q * n)` (and `q = 0` is the minimum). On exact small
/// distributions this gives the textbook answers — over `1..=100`,
/// p50 = 50, p99 = 99, p999 = 100 — with no interpolation surprises.
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

/// The headline summary [`Percentiles::summary`] produces: count, mean,
/// and the p50/p99/p999 tail the paper-scale experiments report. All
/// values are `0.0` when no samples were recorded.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PercentileSummary {
    /// Number of samples recorded.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum sample.
    pub min: f64,
    /// Median (nearest-rank p50).
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Maximum sample.
    pub max: f64,
}

impl Percentiles {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample. Non-finite samples are ignored (they would
    /// poison every order statistic).
    pub fn record(&mut self, v: f64) {
        if v.is_finite() {
            self.samples.push(v);
            self.sorted = false;
        }
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Folds another recorder's samples into this one (worker threads
    /// record privately, the reporter merges).
    pub fn merge(&mut self, other: &Percentiles) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The nearest-rank `q`-quantile (`0.0 <= q <= 1.0`), or `0.0` when
    /// empty. Out-of-range `q` clamps.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let q = q.clamp(0.0, 1.0);
        let rank = (q * n as f64).ceil() as usize;
        self.samples[rank.max(1) - 1]
    }

    /// The full summary (sorts once; repeated calls are cheap).
    pub fn summary(&mut self) -> PercentileSummary {
        if self.samples.is_empty() {
            return PercentileSummary::default();
        }
        self.ensure_sorted();
        let n = self.samples.len();
        PercentileSummary {
            count: n,
            mean: self.samples.iter().sum::<f64>() / n as f64,
            min: self.samples[0],
            p50: self.quantile(0.50),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            max: self.samples[n - 1],
        }
    }
}

/// Per-outcome accounting for the serving plane (client reads issued by
/// `Simulation::start_workload`): how each read was served, the bytes it
/// moved, and its latency tail. Serving bytes are deliberately *not*
/// folded into [`CounterSnapshot::hdfs_bytes_read`] — that counter is
/// the §5 repair-traffic measurement, and the scenario pins on it must
/// not shift when a workload rides along.
#[derive(Debug, Clone, Default)]
pub struct ServingStats {
    /// Client reads issued (every outcome below, plus still-parked ones).
    pub reads_issued: u64,
    /// Reads served from a live block.
    pub direct_reads: u64,
    /// Degraded reads decoded with only light (local-group XOR) steps.
    pub degraded_light: u64,
    /// Degraded reads that needed a heavy (Reed-Solomon) decode.
    pub degraded_heavy: u64,
    /// Reads parked on an unavailable block and served after the
    /// BlockFixer (or a returning node) restored it.
    pub fixer_wait_reads: u64,
    /// Reads of permanently lost (unrecoverable-stripe) blocks.
    pub failed_reads: u64,
    /// Recovery events: reads that found their block unavailable
    /// (degraded, fixer-wait, and failed alike), counted at issue time.
    pub recovery_reads: u64,
    /// Recovery events whose stripe had exactly one unavailable block —
    /// the numerator of the Rashmi et al. 98.08% single-block pin
    /// ([`crate::workload::RASHMI_SINGLE_BLOCK_RECOVERY_FRACTION`]).
    pub single_loss_recoveries: u64,
    /// Bytes returned by direct reads.
    pub direct_bytes: f64,
    /// Bytes *fetched* by degraded reads (every surviving lane read to
    /// decode — the client-side analogue of repair traffic).
    pub degraded_bytes: f64,
    /// Bytes returned by fixer-wait reads.
    pub fixer_wait_bytes: f64,
    /// Latency of direct reads, ms.
    pub direct_latency_ms: Percentiles,
    /// Latency of degraded reads, ms.
    pub degraded_latency_ms: Percentiles,
    /// Latency of fixer-wait reads (park time plus final service), ms.
    pub fixer_wait_latency_ms: Percentiles,
}

/// The flat, copyable summary a [`ServingStats`] reduces to: counters,
/// the two headline fractions, and the three latency tails.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServingSummary {
    /// Client reads issued.
    pub reads_issued: u64,
    /// Reads served from a live block.
    pub direct_reads: u64,
    /// Light degraded reads.
    pub degraded_light: u64,
    /// Heavy degraded reads.
    pub degraded_heavy: u64,
    /// Reads served after waiting for the BlockFixer.
    pub fixer_wait_reads: u64,
    /// Reads of permanently lost blocks.
    pub failed_reads: u64,
    /// Reads that found their block unavailable.
    pub recovery_reads: u64,
    /// Recovery events with exactly one unavailable block in the stripe.
    pub single_loss_recoveries: u64,
    /// Fraction of completed reads not served directly.
    pub degraded_fraction: f64,
    /// Fraction of recovery events that were single-block (the Rashmi
    /// et al. pin; `NaN` when no recovery event occurred).
    pub single_loss_fraction: f64,
    /// Bytes returned by direct reads.
    pub direct_bytes: f64,
    /// Bytes fetched by degraded reads.
    pub degraded_bytes: f64,
    /// Bytes returned by fixer-wait reads.
    pub fixer_wait_bytes: f64,
    /// Direct-read latency tail, ms.
    pub direct_ms: PercentileSummary,
    /// Degraded-read latency tail, ms.
    pub degraded_ms: PercentileSummary,
    /// Fixer-wait latency tail, ms.
    pub fixer_wait_ms: PercentileSummary,
}

impl ServingStats {
    /// Records a read served from a live block.
    pub fn record_direct(&mut self, latency_ms: f64, bytes: f64) {
        self.direct_reads += 1;
        self.direct_bytes += bytes;
        self.direct_latency_ms.record(latency_ms);
    }

    /// Records an inline degraded read (`light` per the decode used).
    pub fn record_degraded(&mut self, light: bool, latency_ms: f64, fetched_bytes: f64) {
        if light {
            self.degraded_light += 1;
        } else {
            self.degraded_heavy += 1;
        }
        self.degraded_bytes += fetched_bytes;
        self.degraded_latency_ms.record(latency_ms);
    }

    /// Records a read served after its block was restored.
    pub fn record_fixer_wait(&mut self, latency_ms: f64, bytes: f64) {
        self.fixer_wait_reads += 1;
        self.fixer_wait_bytes += bytes;
        self.fixer_wait_latency_ms.record(latency_ms);
    }

    /// Records a recovery event at issue time (`single_loss` when the
    /// stripe had exactly one unavailable block).
    pub fn record_recovery_event(&mut self, single_loss: bool) {
        self.recovery_reads += 1;
        if single_loss {
            self.single_loss_recoveries += 1;
        }
    }

    /// Reads that completed (every outcome except failures and
    /// still-parked reads).
    pub fn completed(&self) -> u64 {
        self.direct_reads + self.degraded_light + self.degraded_heavy + self.fixer_wait_reads
    }

    /// Completed reads not served directly.
    pub fn degraded_reads(&self) -> u64 {
        self.degraded_light + self.degraded_heavy + self.fixer_wait_reads
    }

    /// Fraction of completed reads not served directly (0 when nothing
    /// completed).
    pub fn degraded_fraction(&self) -> f64 {
        let done = self.completed();
        if done == 0 {
            0.0
        } else {
            self.degraded_reads() as f64 / done as f64
        }
    }

    /// Fraction of recovery events that were single-block (`NaN` when
    /// no read ever found its block unavailable).
    pub fn single_loss_fraction(&self) -> f64 {
        if self.recovery_reads == 0 {
            f64::NAN
        } else {
            self.single_loss_recoveries as f64 / self.recovery_reads as f64
        }
    }

    /// Reduces to the flat summary (sorts the latency recorders once).
    pub fn summary(&mut self) -> ServingSummary {
        ServingSummary {
            reads_issued: self.reads_issued,
            direct_reads: self.direct_reads,
            degraded_light: self.degraded_light,
            degraded_heavy: self.degraded_heavy,
            fixer_wait_reads: self.fixer_wait_reads,
            failed_reads: self.failed_reads,
            recovery_reads: self.recovery_reads,
            single_loss_recoveries: self.single_loss_recoveries,
            degraded_fraction: self.degraded_fraction(),
            single_loss_fraction: self.single_loss_fraction(),
            direct_bytes: self.direct_bytes,
            degraded_bytes: self.degraded_bytes,
            fixer_wait_bytes: self.fixer_wait_bytes,
            direct_ms: self.direct_latency_ms.summary(),
            degraded_ms: self.degraded_latency_ms.summary(),
            fixer_wait_ms: self.fixer_wait_latency_ms.summary(),
        }
    }
}

/// The full metric state of a simulation.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: CounterSnapshot,
    /// Completed repair jobs.
    pub repair_jobs: Vec<JobSpan>,
    /// Completed workload (e.g. WordCount) jobs.
    pub workload_jobs: Vec<JobSpan>,
    /// Stripes found unrecoverable (data-loss events). Each stripe is
    /// counted once, when the BlockFixer first abandons it.
    pub data_loss_stripes: u64,
    /// Serving-plane (client-read) outcomes, bytes, and latency tails.
    pub serving: ServingStats,
}

impl Metrics {
    /// Current cumulative counters.
    pub fn snapshot(&self) -> CounterSnapshot {
        self.counters
    }

    /// Records an HDFS-level block read.
    pub fn record_block_read(&mut self, bytes: f64) {
        self.counters.hdfs_bytes_read += bytes;
    }

    /// Records bytes moved over the network (called as flows drain).
    pub fn record_network(&mut self, bytes: f64) {
        self.counters.network_bytes += bytes;
    }

    /// Records a reconstructed block.
    pub fn record_block_repaired(&mut self) {
        self.counters.blocks_repaired += 1;
    }

    /// Records a finished repair job.
    pub fn record_repair_job(&mut self, submitted: SimTime, finished: SimTime) {
        self.repair_jobs.push(JobSpan {
            submitted,
            finished,
        });
    }

    /// Records a finished workload job.
    pub fn record_workload_job(&mut self, submitted: SimTime, finished: SimTime) {
        self.workload_jobs.push(JobSpan {
            submitted,
            finished,
        });
    }

    /// Records an unrecoverable stripe.
    pub fn record_data_loss(&mut self) {
        self.data_loss_stripes += 1;
    }

    /// Order statistics over completed repair-job durations, in minutes:
    /// the simulator-side consumer of [`Percentiles`] (Fig.-5-style
    /// "how long do repairs take" summaries with a p99/p999 tail).
    pub fn repair_minutes_percentiles(&self) -> PercentileSummary {
        let mut p = Percentiles::new();
        for j in &self.repair_jobs {
            p.record(j.duration().as_mins_f64());
        }
        p.summary()
    }

    /// Repair span between two snapshots: earliest submit / latest finish
    /// of repair jobs recorded after `since` jobs existed. `None` when no
    /// repair job completed in the span.
    pub fn repair_span_since(&self, since: usize) -> Option<(SimTime, SimTime)> {
        let jobs = &self.repair_jobs[since.min(self.repair_jobs.len())..];
        let start = jobs.iter().map(|j| j.submitted).min()?;
        let end = jobs.iter().map(|j| j.finished).max()?;
        Some((start, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::default();
        m.record_block_read(64.0);
        m.record_block_read(36.0);
        m.record_network(50.0);
        m.record_block_repaired();
        let s = m.snapshot();
        assert_eq!(s.hdfs_bytes_read, 100.0);
        assert_eq!(s.network_bytes, 50.0);
        assert_eq!(s.blocks_repaired, 1);
    }

    #[test]
    fn repair_span_since_tracks_new_jobs_only() {
        let mut m = Metrics::default();
        m.record_repair_job(SimTime::from_secs(1), SimTime::from_secs(5));
        let mark = m.repair_jobs.len();
        m.record_repair_job(SimTime::from_secs(10), SimTime::from_secs(20));
        m.record_repair_job(SimTime::from_secs(12), SimTime::from_secs(18));
        let (s, e) = m.repair_span_since(mark).unwrap();
        assert_eq!(s, SimTime::from_secs(10));
        assert_eq!(e, SimTime::from_secs(20));
        assert!(m.repair_span_since(3).is_none());
    }

    #[test]
    fn repair_span_since_empty_spans() {
        let m = Metrics::default();
        // No jobs at all.
        assert!(m.repair_span_since(0).is_none());
        let mut m = Metrics::default();
        m.record_repair_job(SimTime::from_secs(1), SimTime::from_secs(2));
        // Mark past the end: the span is empty even though jobs exist.
        assert!(m.repair_span_since(1).is_none());
        assert!(m.repair_span_since(usize::MAX).is_none());
    }

    #[test]
    fn percentiles_nearest_rank_on_exact_distributions() {
        // 1..=100: p50 = 50, p99 = 99, p999 = 100 (rank ceil(99.9)).
        let mut p = Percentiles::new();
        for v in 1..=100 {
            p.record(v as f64);
        }
        assert_eq!(p.quantile(0.50), 50.0);
        assert_eq!(p.quantile(0.99), 99.0);
        assert_eq!(p.quantile(0.999), 100.0);
        assert_eq!(p.quantile(0.0), 1.0);
        assert_eq!(p.quantile(1.0), 100.0);
        let s = p.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_thousand_samples_hit_exact_tail_ranks() {
        // 1..=1000: rank ceil(0.999 * 1000) = 999 → sample 999.
        let mut p = Percentiles::new();
        for v in (1..=1000).rev() {
            p.record(v as f64); // insertion order must not matter
        }
        assert_eq!(p.quantile(0.5), 500.0);
        assert_eq!(p.quantile(0.99), 990.0);
        assert_eq!(p.quantile(0.999), 999.0);
    }

    #[test]
    fn percentiles_tiny_sets_and_edge_cases() {
        let mut p = Percentiles::new();
        assert_eq!(p.summary(), PercentileSummary::default());
        p.record(7.0);
        // One sample: every quantile is that sample.
        assert_eq!(p.quantile(0.001), 7.0);
        assert_eq!(p.quantile(0.5), 7.0);
        assert_eq!(p.quantile(0.999), 7.0);
        p.record(3.0);
        // Two samples: p50 = rank ceil(1.0) = 1 → the smaller.
        assert_eq!(p.quantile(0.5), 3.0);
        assert_eq!(p.quantile(0.51), 7.0);
        p.record(f64::NAN); // ignored
        assert_eq!(p.len(), 2);
        // Out-of-range q clamps instead of panicking.
        assert_eq!(p.quantile(-1.0), 3.0);
        assert_eq!(p.quantile(2.0), 7.0);
    }

    #[test]
    fn percentiles_merge_matches_single_recorder() {
        let mut a = Percentiles::new();
        let mut b = Percentiles::new();
        let mut whole = Percentiles::new();
        for v in 0..50 {
            a.record(v as f64);
            whole.record(v as f64);
        }
        for v in 50..100 {
            b.record(v as f64);
            whole.record(v as f64);
        }
        a.merge(&b);
        assert_eq!(a.summary(), whole.summary());
    }

    #[test]
    fn repair_minutes_percentiles_summarize_jobs() {
        let mut m = Metrics::default();
        for mins in [1u64, 2, 3, 4] {
            m.record_repair_job(SimTime::ZERO, SimTime::from_mins(mins));
        }
        let s = m.repair_minutes_percentiles();
        assert_eq!(s.count, 4);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn job_span_duration() {
        let j = JobSpan {
            submitted: SimTime::from_secs(10),
            finished: SimTime::from_secs(70),
        };
        assert_eq!(j.duration(), SimTime::from_secs(60));
    }
}
