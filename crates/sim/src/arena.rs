//! Preallocated stripe lane storage for the simulator's hot paths.
//!
//! Verify-mode repair checks run once per repaired block — thousands of
//! times per simulated month. A [`StripeArena`] keeps one set of lane
//! buffers alive for the whole simulation and hands out `&mut [Vec<u8>]`
//! slices sized to the stripe at hand, so the steady state does no
//! payload allocation at all.

/// Reusable lane buffers for one stripe's worth of payloads.
#[derive(Debug, Default)]
pub struct StripeArena {
    lanes: Vec<Vec<u8>>,
}

impl StripeArena {
    /// An empty arena; lanes grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// `n` lane buffers of exactly `len` bytes each, contents arbitrary.
    ///
    /// Grows the arena on first use (and whenever a larger stripe shows
    /// up); otherwise only adjusts lengths within existing capacity.
    pub fn lanes(&mut self, n: usize, len: usize) -> &mut [Vec<u8>] {
        if self.lanes.len() < n {
            self.lanes.resize_with(n, Vec::new);
        }
        for lane in &mut self.lanes[..n] {
            lane.resize(len, 0);
        }
        &mut self.lanes[..n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_are_sized_and_reused() {
        let mut arena = StripeArena::new();
        {
            let lanes = arena.lanes(3, 8);
            assert_eq!(lanes.len(), 3);
            assert!(lanes.iter().all(|l| l.len() == 8));
            lanes[0][0] = 42;
        }
        // Shrinking reuses the same buffers without reallocating.
        let ptr = arena.lanes(3, 8)[0].as_ptr();
        let lanes = arena.lanes(2, 4);
        assert_eq!(lanes.len(), 2);
        assert_eq!(lanes[0].len(), 4);
        assert_eq!(lanes[0].as_ptr(), ptr);
    }

    #[test]
    fn growing_len_extends_with_zeroes_only_beyond_old_len() {
        let mut arena = StripeArena::new();
        arena.lanes(1, 2)[0].copy_from_slice(&[7, 7]);
        let lanes = arena.lanes(1, 4);
        assert_eq!(&lanes[0][..2], &[7, 7]); // contents are arbitrary but stable
    }
}
