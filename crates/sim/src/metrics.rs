//! Measurement collection: the §5.1 evaluation metrics.
//!
//! * **HDFS Bytes Read** — data read by repair/degraded-read tasks.
//! * **Network Traffic** — bytes crossing the network (read streams and
//!   block write-back), as AWS CloudWatch would report.
//! * **Repair Duration** — first repair-job launch to last completion.
//!
//! Cumulative counters support per-event deltas (Fig. 4); bucketed time
//! series reproduce the 5-minute-resolution plots of Fig. 5.
//!
//! # Bounded time series
//!
//! A multi-year warehouse run at 5-minute resolution would grow an
//! unbounded per-bucket vector (a simulated decade is >1M buckets per
//! series). [`BucketSeries`] therefore keeps a *fixed maximum number of
//! buckets*: when a sample lands past the last representable bucket, the
//! series coarsens itself by merging adjacent bucket pairs and doubling
//! the bucket width — aggregation happens on the fly, memory stays
//! `O(max_buckets)`, and totals are preserved exactly. Paper-scale runs
//! (hours to days at 300 s buckets) never coarsen, so the Fig.-5 plots
//! are bit-identical to the unbounded implementation.

use crate::time::SimTime;

/// Default cap on buckets per series: 8192 buckets × 300 s ≈ 28 days at
/// the paper's 5-minute resolution before the first coarsening.
pub const DEFAULT_MAX_BUCKETS: usize = 8192;

/// A point-in-time snapshot of the cumulative counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CounterSnapshot {
    /// Cumulative HDFS bytes read.
    pub hdfs_bytes_read: f64,
    /// Cumulative network bytes moved.
    pub network_bytes: f64,
    /// Cumulative disk bytes read.
    pub disk_bytes_read: f64,
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

/// A bounded time series of per-interval totals.
///
/// Samples are spread proportionally over the buckets their interval
/// overlaps. The series starts at the configured resolution and doubles
/// its bucket width (merging pairs in place) whenever a sample would
/// need more than `max_buckets` buckets, so memory is bounded however
/// long the simulation runs. Out-of-order recording is supported: a
/// sample may land in any bucket at or before the latest one.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketSeries {
    bucket_secs: u64,
    max_buckets: usize,
    buckets: Vec<f64>,
    total: f64,
}

impl BucketSeries {
    /// An empty series at `bucket_secs` resolution holding at most
    /// `max_buckets` buckets before coarsening.
    pub fn new(bucket_secs: u64, max_buckets: usize) -> Self {
        assert!(bucket_secs > 0, "bucket width must be positive");
        assert!(max_buckets >= 2, "need at least two buckets to coarsen");
        Self {
            bucket_secs,
            max_buckets,
            buckets: Vec::new(),
            total: 0.0,
        }
    }

    /// The *current* bucket width in seconds (doubles on coarsening).
    pub fn bucket_secs(&self) -> u64 {
        self.bucket_secs
    }

    /// Per-bucket totals, oldest first.
    pub fn values(&self) -> &[f64] {
        &self.buckets
    }

    /// Number of buckets recorded so far.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Sum over all buckets (preserved exactly across coarsening).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The bucket a time currently falls into.
    pub fn bucket_index(&self, t: SimTime) -> usize {
        (t.0 / (self.bucket_secs * 1_000_000)) as usize
    }

    /// Merges adjacent bucket pairs, doubling the bucket width.
    fn coarsen(&mut self) {
        let merged: Vec<f64> = self
            .buckets
            .chunks(2)
            .map(|pair| pair.iter().sum())
            .collect();
        self.buckets = merged;
        self.bucket_secs *= 2;
    }

    /// Grows to cover bucket `idx`, coarsening first if `idx` would
    /// exceed the bucket cap.
    fn ensure(&mut self, t_end: SimTime) -> usize {
        while self.bucket_index(t_end) >= self.max_buckets {
            self.coarsen();
        }
        let idx = self.bucket_index(t_end);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0.0);
        }
        idx
    }

    /// Adds `amount` spread uniformly over `[start, start + dur_secs]`
    /// across bucket boundaries. Instantaneous samples (`dur_secs <= 0`)
    /// land entirely in `start`'s bucket.
    pub fn add_spread(&mut self, start: SimTime, dur_secs: f64, amount: f64) {
        if amount <= 0.0 {
            return;
        }
        self.total += amount;
        if dur_secs <= 0.0 {
            let idx = self.ensure(start);
            self.buckets[idx] += amount;
            return;
        }
        let end = SimTime(start.0 + (dur_secs * 1e6) as u64);
        // The interval is half-open: an end exactly on a bucket edge
        // puts no mass in (and must not materialize) the next bucket.
        let last = self.ensure(SimTime(end.0.saturating_sub(1).max(start.0)));
        // Bucket geometry may have coarsened inside ensure(); recompute
        // against the final width.
        let bucket_us = self.bucket_secs as f64 * 1e6;
        let start_us = start.0 as f64;
        let end_us = start_us + dur_secs * 1e6;
        let first = self.bucket_index(start);
        #[allow(clippy::needless_range_loop)] // idx participates in bucket arithmetic
        for idx in first..=last {
            let lo = (idx as f64 * bucket_us).max(start_us);
            let hi = ((idx + 1) as f64 * bucket_us).min(end_us);
            if hi > lo {
                self.buckets[idx] += amount * (hi - lo) / (end_us - start_us);
            }
        }
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
#[derive(Debug, Clone)]
pub struct Metrics {
    counters: CounterSnapshot,
    network_series: BucketSeries,
    disk_series: BucketSeries,
    cpu_busy_series: BucketSeries,
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
    /// Metrics with the given series resolution and the default bucket
    /// cap ([`DEFAULT_MAX_BUCKETS`]).
    pub fn new(bucket_secs: u64) -> Self {
        Self::with_max_buckets(bucket_secs, DEFAULT_MAX_BUCKETS)
    }

    /// Metrics with an explicit per-series bucket cap.
    pub fn with_max_buckets(bucket_secs: u64, max_buckets: usize) -> Self {
        Self {
            counters: CounterSnapshot::default(),
            network_series: BucketSeries::new(bucket_secs, max_buckets),
            disk_series: BucketSeries::new(bucket_secs, max_buckets),
            cpu_busy_series: BucketSeries::new(bucket_secs, max_buckets),
            repair_jobs: Vec::new(),
            workload_jobs: Vec::new(),
            data_loss_stripes: 0,
            serving: ServingStats::default(),
        }
    }

    /// The network series' *current* bucket width in seconds.
    pub fn bucket_secs(&self) -> u64 {
        self.network_series.bucket_secs()
    }

    /// Current cumulative counters.
    pub fn snapshot(&self) -> CounterSnapshot {
        self.counters
    }

    /// Network bytes per bucket.
    pub fn network_series(&self) -> &BucketSeries {
        &self.network_series
    }

    /// Disk bytes read per bucket.
    pub fn disk_series(&self) -> &BucketSeries {
        &self.disk_series
    }

    /// Busy slot-seconds per bucket (normalize by slots·bucket for %).
    pub fn cpu_busy_series(&self) -> &BucketSeries {
        &self.cpu_busy_series
    }

    /// Records an HDFS-level block read (also a disk read at the source).
    pub fn record_block_read(&mut self, t: SimTime, bytes: f64) {
        self.counters.hdfs_bytes_read += bytes;
        self.counters.disk_bytes_read += bytes;
        self.disk_series.add_spread(t, 0.0, bytes);
    }

    /// Records network transfer over an interval (called as flows drain).
    pub fn record_network(&mut self, start: SimTime, dur_secs: f64, bytes: f64) {
        self.counters.network_bytes += bytes;
        self.network_series.add_spread(start, dur_secs, bytes);
    }

    /// Records CPU busy time (`slots` busy for `dur_secs` from `start`).
    pub fn record_cpu_busy(&mut self, start: SimTime, dur_secs: f64, slots: usize) {
        self.cpu_busy_series
            .add_spread(start, dur_secs, dur_secs * slots as f64);
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

    /// CPU utilization per bucket as a fraction of `total_slots`.
    pub fn cpu_utilization(&self, total_slots: usize) -> Vec<f64> {
        let cap = (total_slots as f64) * self.cpu_busy_series.bucket_secs() as f64;
        self.cpu_busy_series
            .values()
            .iter()
            .map(|&busy| (busy / cap).min(1.0))
            .collect()
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
        let mut m = Metrics::new(300);
        m.record_block_read(SimTime::from_secs(10), 64.0);
        m.record_block_read(SimTime::from_secs(20), 36.0);
        let s = m.snapshot();
        assert_eq!(s.hdfs_bytes_read, 100.0);
        assert_eq!(s.disk_bytes_read, 100.0);
    }

    #[test]
    fn spread_splits_across_buckets_proportionally() {
        let mut m = Metrics::new(10);
        // 100 bytes over 20s starting at t=5: buckets get 25/50/25.
        m.record_network(SimTime::from_secs(5), 20.0, 100.0);
        let s = m.network_series().values();
        assert_eq!(s.len(), 3);
        assert!((s[0] - 25.0).abs() < 1e-9);
        assert!((s[1] - 50.0).abs() < 1e-9);
        assert!((s[2] - 25.0).abs() < 1e-9);
    }

    #[test]
    fn instantaneous_amounts_land_in_one_bucket() {
        let mut m = Metrics::new(10);
        m.record_block_read(SimTime::from_secs(25), 7.0);
        assert_eq!(m.disk_series().len(), 3);
        assert_eq!(m.disk_series().values()[2], 7.0);
    }

    #[test]
    fn boundary_instant_lands_in_the_later_bucket() {
        // t = exactly one bucket width belongs to bucket 1, not bucket 0
        // (buckets are half-open [k·w, (k+1)·w)).
        let mut m = Metrics::new(10);
        m.record_block_read(SimTime::from_secs(10), 3.0);
        let s = m.disk_series().values();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0], 0.0);
        assert_eq!(s[1], 3.0);
    }

    #[test]
    fn boundary_aligned_interval_splits_exactly() {
        // An interval starting and ending exactly on bucket edges puts
        // exactly half in each bucket, nothing in a third.
        let mut m = Metrics::new(10);
        m.record_network(SimTime::from_secs(10), 20.0, 50.0);
        let s = m.network_series().values();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0], 0.0);
        assert!((s[1] - 25.0).abs() < 1e-9);
        assert!((s[2] - 25.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_order_records_accumulate_into_earlier_buckets() {
        let mut m = Metrics::new(10);
        m.record_block_read(SimTime::from_secs(55), 1.0);
        m.record_block_read(SimTime::from_secs(5), 2.0); // earlier than the last
        m.record_network(SimTime::from_secs(15), 0.0, 4.0);
        assert_eq!(m.disk_series().len(), 6);
        assert_eq!(m.disk_series().values()[0], 2.0);
        assert_eq!(m.disk_series().values()[5], 1.0);
        assert_eq!(m.network_series().values()[1], 4.0);
        assert_eq!(m.snapshot().disk_bytes_read, 3.0);
    }

    #[test]
    fn series_coarsens_instead_of_growing_unboundedly() {
        let mut s = BucketSeries::new(10, 4);
        for k in 0..32 {
            s.add_spread(SimTime::from_secs(10 * k), 0.0, 1.0);
        }
        // 32 * 10s of samples in <= 4 buckets: width coarsened to 80s.
        assert!(s.len() <= 4);
        assert_eq!(s.bucket_secs(), 80);
        assert!((s.total() - 32.0).abs() < 1e-9);
        assert!((s.values().iter().sum::<f64>() - 32.0).abs() < 1e-9);
        // Mass distribution: each 80s bucket saw 8 samples.
        for &v in s.values() {
            assert!((v - 8.0).abs() < 1e-9);
        }
    }

    #[test]
    fn coarsening_preserves_spread_mass() {
        let mut s = BucketSeries::new(10, 4);
        s.add_spread(SimTime::from_secs(5), 20.0, 100.0);
        // Force two coarsenings with a far-future instant sample.
        s.add_spread(SimTime::from_secs(150), 0.0, 1.0);
        assert!(s.len() <= 4);
        assert!((s.total() - 101.0).abs() < 1e-9);
        assert!((s.values().iter().sum::<f64>() - 101.0).abs() < 1e-9);
    }

    #[test]
    fn spread_interval_straddling_a_coarsening_keeps_mass() {
        let mut s = BucketSeries::new(10, 4);
        // The interval itself needs bucket 12 at width 10 -> coarsens
        // inside the same add_spread call.
        s.add_spread(SimTime::from_secs(100), 25.0, 10.0);
        assert!((s.total() - 10.0).abs() < 1e-9);
        assert!((s.values().iter().sum::<f64>() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn cpu_utilization_normalizes_by_slots() {
        let mut m = Metrics::new(10);
        // 2 slots busy for 5 s in bucket 0, cluster has 4 slots:
        // utilization = 10 slot-secs / 40 = 0.25.
        m.record_cpu_busy(SimTime::ZERO, 5.0, 2);
        let u = m.cpu_utilization(4);
        assert!((u[0] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn repair_span_since_tracks_new_jobs_only() {
        let mut m = Metrics::new(10);
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
        let m = Metrics::new(10);
        // No jobs at all.
        assert!(m.repair_span_since(0).is_none());
        let mut m = Metrics::new(10);
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
        let mut m = Metrics::new(10);
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
