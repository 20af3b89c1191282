//! The six workloads and what they share: run context, the result a
//! workload hands back, and the sizes every workload is built from.
//!
//! Every workload runs in **cycles**: set up fresh state (timed as one
//! `setup_s` sample), measure for its share of `--seconds`, check the
//! outputs, tear down. Three cycles give three set-up samples without
//! setting anything up that is not then used, and keep the bytes a
//! cluster holds small (see the README on first-touch memory cost).

pub mod codec_stream;
pub mod put_stream;
pub mod read_mix;
pub mod repair_drain;
pub mod sim;

use crate::hostspeed::HostSpeed;
use crate::stats;
use crate::trace::Tracer;
use std::time::Instant;

/// Cycles per run. A traced run adds a fourth and records spans in
/// every other cycle, starting with the first; the cycles in between
/// are the base `trace.overhead_share` is measured against.
pub const CYCLES: usize = 3;

/// Sizes, fixed here and not settable from outside. `--smoke` divides
/// chunk and lane sizes by 16 and shortens every phase; it exists to
/// run every gate quickly, and its numbers mean nothing.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub smoke: bool,
    /// Chunk size of the node workloads.
    pub chunk_bytes: usize,
    /// File size of the node workloads: four LRC(10,6,5) stripes.
    pub file_bytes: usize,
}

impl Sizes {
    pub fn new(smoke: bool) -> Self {
        let chunk_bytes = if smoke { 64 << 10 } else { 1 << 20 };
        Self {
            smoke,
            chunk_bytes,
            file_bytes: 40 * chunk_bytes,
        }
    }

    /// `full` normally, `smoke` under `--smoke`.
    pub fn pick<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

pub struct Ctx {
    pub seed: u64,
    /// Measured time per run, split evenly over the cycles.
    pub seconds: f64,
    pub sizes: Sizes,
    pub trace: bool,
    pub tracer: Tracer,
    /// Sampled by every workload between its timed phases.
    pub speed: HostSpeed,
}

impl Ctx {
    /// Cycles to run, and whether the tracer records in cycle `i`.
    pub fn cycles(&self) -> usize {
        CYCLES + usize::from(self.trace)
    }

    pub fn traced_cycle(&self, cycle: usize) -> bool {
        self.trace && cycle.is_multiple_of(2)
    }

    pub fn cycle_seconds(&self) -> f64 {
        self.seconds / CYCLES as f64
    }
}

/// The five end-to-end metrics, the same on every workload; the README
/// says what each one is on each workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub op_p50_ms: f64,
    pub alt_p50_ms: f64,
    pub work_per_s: f64,
    pub io_amp: f64,
}

impl EndToEnd {
    /// The values in the order of `schema::END_TO_END`.
    pub fn values(&self) -> [f64; 5] {
        [
            self.setup_s,
            self.op_p50_ms,
            self.alt_p50_ms,
            self.work_per_s,
            self.io_amp,
        ]
    }

    /// The same numbers had the host run at its nominal speed (see
    /// `hostspeed`): durations scale by `factor`, the rate by its
    /// inverse, the byte ratio not at all.
    pub fn at_nominal_speed(self, factor: f64) -> Self {
        Self {
            setup_s: self.setup_s * factor,
            op_p50_ms: self.op_p50_ms * factor,
            alt_p50_ms: self.alt_p50_ms * factor,
            work_per_s: self.work_per_s / factor,
            io_amp: self.io_amp,
        }
    }
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: EndToEnd,
    /// Per-layer metrics this workload produced, by declared name.
    /// Declared metrics a workload does not produce are reported as 0:
    /// the layer did no work on that workload.
    pub layers: Vec<(&'static str, f64)>,
    /// Lines for the human-readable report (data root, sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }
}

/// Latency samples of one operation class, in milliseconds, split by
/// whether the tracer was recording (the split gives the overhead).
#[derive(Debug, Default)]
pub struct Samples {
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
}

impl Samples {
    /// Records the time since `since` and returns it in milliseconds.
    pub fn push(&mut self, traced: bool, since: Instant) -> f64 {
        let ms = since.elapsed().as_secs_f64() * 1e3;
        self.push_ms(traced, ms);
        ms
    }

    pub fn push_ms(&mut self, traced: bool, ms: f64) {
        if traced {
            self.traced_ms.push(ms);
        } else {
            self.untraced_ms.push(ms);
        }
    }

    /// Every sample of the run. In an untraced run that is all cycles;
    /// in a traced run it includes the cycles the tracer recorded, and
    /// those numbers are reported as per-layer metrics only.
    pub fn all(&self) -> Vec<f64> {
        let mut v = self.untraced_ms.clone();
        v.extend_from_slice(&self.traced_ms);
        v
    }

    pub fn len(&self) -> usize {
        self.untraced_ms.len() + self.traced_ms.len()
    }

    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    pub fn percentile(&self, p: f64) -> f64 {
        stats::percentile(&self.all(), p)
    }

    pub fn total_s(&self) -> f64 {
        self.all().iter().sum::<f64>() / 1e3
    }

    /// Share by which the median got slower when the tracer recorded
    /// (0 in an untraced run). Can come out slightly negative: span
    /// recording costs tens of nanoseconds, less than run-to-run noise.
    pub fn overhead_share(&self) -> f64 {
        if self.traced_ms.is_empty() || self.untraced_ms.is_empty() {
            return 0.0;
        }
        let base = stats::percentile(&self.untraced_ms, 0.5);
        if base == 0.0 {
            return 0.0;
        }
        stats::percentile(&self.traced_ms, 0.5) / base - 1.0
    }
}

/// Counts one checked operation; a mismatch is a failed operation and
/// is printed once, so a broken gate names itself.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("FAILED: {}", what());
            }
        }
    }
}

pub const MIB: f64 = (1u64 << 20) as f64;
