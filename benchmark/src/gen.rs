//! Seeded input generation: every byte the workloads store, read back or
//! encode comes from here, so one `--seed` always makes the same inputs.

/// SplitMix64: the stream behind every generated buffer and every
/// seeded choice (which chunk to read, which server to kill).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below what
    /// any workload here could notice.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Fills `out` with the stream keyed by `(seed, stream)`. Distinct
/// streams give distinct buffers, so a chunk served from the wrong
/// file, stripe or lane never compares equal.
pub fn fill(seed: u64, stream: u64, out: &mut [u8]) {
    let mut rng = SplitMix64::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
    let mut words = out.chunks_exact_mut(8);
    for w in &mut words {
        w.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    let tail = words.into_remainder();
    let last = rng.next_u64().to_le_bytes();
    tail.copy_from_slice(&last[..tail.len()]);
}

/// A fresh buffer of `len` generated bytes.
pub fn bytes(seed: u64, stream: u64, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    fill(seed, stream, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_bytes_and_streams_differ() {
        assert_eq!(bytes(7, 1, 1003), bytes(7, 1, 1003));
        assert_ne!(bytes(7, 1, 1003), bytes(7, 2, 1003));
        assert_ne!(bytes(7, 1, 1003), bytes(8, 1, 1003));
        // A prefix of a longer buffer is the shorter buffer.
        assert_eq!(bytes(7, 1, 64)[..], bytes(7, 1, 1003)[..64]);
    }
}
