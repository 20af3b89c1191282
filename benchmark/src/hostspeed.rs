//! How fast the host is running right now, so that end-to-end times can
//! be stated at its nominal speed.
//!
//! On this sandbox the vCPUs run at one of two speeds for tens of
//! minutes at a time: a fixed pure-Python loop took 17 ms all morning
//! and 32 ms all afternoon, and every workload here — sockets, file
//! writes, codecs, the simulator — slowed by 1.7 to 1.9 times with it.
//! Two sets of runs of one commit taken an hour apart then differ by
//! far more than any bound the contract allows, and a set that
//! straddles the switch has a spread of 30%.
//!
//! So every run times a fixed reference computation of the harness's own
//! (no code under test: a faster codec must not move it) between its
//! timed phases, and multiplies its end-to-end durations by
//! `NOMINAL_MS / measured`. At nominal speed the factor is 1 and the
//! numbers are plain wall-clock milliseconds. The factor itself is
//! reported as `host.speed_factor`, and the per-layer metrics stay as
//! measured.

use crate::gen;
use crate::stats;
use std::time::Instant;

/// Time of one reference pass on the sandbox at its faster speed.
pub const NOMINAL_MS: f64 = 12.0;

const BUF_BYTES: usize = 32 << 20;

/// The reference load: fill 32 MiB with the harness's integer mixer
/// (compute-bound) and copy it twice (memory-bound).
/// When the sandbox slowed down, this slowed by 1.75 times, the
/// workloads by 1.7 to 1.9 (the XOR-bound light decode by 1.3, the
/// warehouse simulation by 2.2).
pub struct HostSpeed {
    src: Vec<u8>,
    dst: Vec<u8>,
    samples_ms: Vec<f64>,
}

impl HostSpeed {
    pub fn new() -> Self {
        let mut speed = Self {
            src: vec![0u8; BUF_BYTES],
            dst: vec![0u8; BUF_BYTES],
            samples_ms: Vec::new(),
        };
        // Touch both buffers once, so no sample pays for page faults.
        speed.pass();
        speed
    }

    fn pass(&mut self) {
        gen::fill(0, 0x5EED, &mut self.src);
        for _ in 0..2 {
            self.dst.copy_from_slice(std::hint::black_box(&self.src));
        }
        std::hint::black_box(&self.dst);
    }

    /// Times one reference pass. Call between timed phases, never
    /// inside one.
    pub fn sample(&mut self) {
        // The fastest of three passes: the first one after a workload
        // phase finds the caches and TLB full of that phase's data.
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            self.pass();
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        self.samples_ms.push(best);
    }

    /// `NOMINAL_MS` over the median sample: below 1 when the host is
    /// slower than nominal. 1 before any sample was taken.
    pub fn factor(&self) -> f64 {
        if self.samples_ms.is_empty() {
            return 1.0;
        }
        NOMINAL_MS / stats::median(&self.samples_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_is_nominal_over_the_median_sample() {
        let mut speed = HostSpeed::new();
        assert_eq!(speed.factor(), 1.0);
        speed.samples_ms = vec![2.0 * NOMINAL_MS, 2.0 * NOMINAL_MS, 50.0 * NOMINAL_MS];
        assert_eq!(speed.factor(), 0.5);
        speed.sample();
        assert_eq!(speed.samples_ms.len(), 4);
        assert!(speed.samples_ms[3] > 0.0);
    }
}
