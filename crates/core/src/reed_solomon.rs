//! The Reed-Solomon baseline ("HDFS-RS").
//!
//! Facebook's HDFS-RAID encodes cold files with an RS(10,4): 4 parity
//! blocks per 10 data blocks, tolerating any 4 erasures at 1.4× storage.
//! Its weakness — the reason the paper exists — is repair: rebuilding a
//! single lost block reads `k = 10` blocks (§1.1).
//!
//! Two generator constructions are provided:
//!
//! * [`ReedSolomon::new`] — the Appendix-D construction: `G` is the right
//!   null space of the Vandermonde parity-check matrix
//!   `[H]_{i,j} = α^{(i-1)(j-1)}`, systematized. Because `H`'s first row
//!   is all ones, every codeword's blocks XOR to zero — the *alignment*
//!   property `Σ g_i = 0` that makes the LRC's implied parity possible.
//! * [`ReedSolomon::with_vandermonde_generator`] — the textbook
//!   systematic-Vandermonde construction, which lacks alignment; kept as
//!   a baseline for the ablation of the implied-parity design.

use xorbas_gf::{Field, Gf256};
use xorbas_linalg::{special, Matrix};

use crate::codec::{
    check_data_lanes, check_parity_lanes, check_symbol_alignment, encode_rows, ErasureCodec,
    RepairPlan,
};
use crate::error::{CodeError, Result};
use crate::linear;
use crate::session::RepairSession;
use crate::spec::CodeSpec;

/// A systematic `(k, m)` Reed-Solomon erasure code over `F`.
///
/// Block layout: indices `0..k` are data, `k..k+m` are parities.
#[derive(Debug, Clone)]
pub struct ReedSolomon<F: Field = Gf256> {
    k: usize,
    m: usize,
    /// Systematic generator, `k × (k + m)`, `G = [I_k | P]`.
    generator: Matrix<F>,
    /// Whether `Σ_j g_j = 0` (Appendix-D construction).
    aligned: bool,
}

impl<F: Field> ReedSolomon<F> {
    /// Builds the aligned Appendix-D code: `G = null(H)` systematized,
    /// `H` the canonical Vandermonde parity-check matrix.
    pub fn new(k: usize, m: usize) -> Result<Self> {
        Self::validate_params(k, m)?;
        let n = k + m;
        let h = special::vandermonde::<F>(m, n);
        let g = h.right_null_space();
        debug_assert_eq!(g.rows(), k);
        let gs = special::systematize(&g).ok_or_else(|| {
            CodeError::ConstructionFailed("null-space generator could not be systematized".into())
        })?;
        debug_assert!(gs.mul(&h.transpose()).is_zero());
        Ok(Self {
            k,
            m,
            generator: gs,
            aligned: true,
        })
    }

    /// Builds the textbook systematic-Vandermonde code (not aligned).
    pub fn with_vandermonde_generator(k: usize, m: usize) -> Result<Self> {
        Self::validate_params(k, m)?;
        let n = k + m;
        let w = special::vandermonde::<F>(k, n);
        let gs = special::systematize(&w).ok_or_else(|| {
            CodeError::ConstructionFailed("Vandermonde generator could not be systematized".into())
        })?;
        let aligned = (0..k).all(|r| gs.row(r).iter().copied().sum::<F>().is_zero());
        Ok(Self {
            k,
            m,
            generator: gs,
            aligned,
        })
    }

    /// Builds a code from an explicit `k × m` parity submatrix `P`
    /// (`G = [I | P]`). The caller is responsible for `P` yielding the
    /// desired distance; used by the randomized constructions.
    pub fn from_parity_matrix(k: usize, m: usize, p: Matrix<F>) -> Result<Self> {
        Self::validate_params(k, m)?;
        if p.rows() != k || p.cols() != m {
            return Err(CodeError::InvalidParameters(format!(
                "parity matrix must be {k}x{m}, got {}x{}",
                p.rows(),
                p.cols()
            )));
        }
        let generator = Matrix::identity(k).hcat(&p);
        let aligned = (0..k).all(|r| generator.row(r).iter().copied().sum::<F>().is_zero());
        Ok(Self {
            k,
            m,
            generator,
            aligned,
        })
    }

    fn validate_params(k: usize, m: usize) -> Result<()> {
        if k == 0 || m == 0 {
            return Err(CodeError::InvalidParameters(
                "k and m must be positive".into(),
            ));
        }
        let n = (k + m) as u64;
        if n > u64::from(F::ORDER) - 1 {
            return Err(CodeError::InvalidParameters(format!(
                "blocklength {n} exceeds field capacity {}",
                F::ORDER - 1
            )));
        }
        Ok(())
    }

    /// Number of parity blocks `m = n - k`.
    pub fn parity_blocks(&self) -> usize {
        self.m
    }

    /// The systematic generator matrix `[I_k | P]`.
    pub fn generator(&self) -> &Matrix<F> {
        &self.generator
    }

    /// Whether the code has the Appendix-D alignment `Σ_j g_j = 0`
    /// (all blocks of every stripe XOR to zero), the property the LRC's
    /// implied parity relies on.
    pub fn is_aligned(&self) -> bool {
        self.aligned
    }
}

impl<F: Field> ErasureCodec for ReedSolomon<F> {
    fn data_blocks(&self) -> usize {
        self.k
    }

    fn total_blocks(&self) -> usize {
        self.k + self.m
    }

    fn spec(&self) -> CodeSpec {
        CodeSpec::ReedSolomon {
            k: self.k,
            m: self.m,
        }
    }

    fn symbol_bytes(&self) -> usize {
        F::SYMBOL_BYTES
    }

    fn encode_into(&self, data: &[&[u8]], parity: &mut [&mut [u8]]) -> Result<()> {
        let len = check_data_lanes(data, self.k)?;
        check_parity_lanes(parity, self.m, len)?;
        check_symbol_alignment(len, F::SYMBOL_BYTES)?;
        // Every parity lane is a row of one fused block: parity lane `r`
        // is generator column `k + r`.
        encode_rows(parity, data, |r, i| self.generator[(i, self.k + r)]);
        Ok(())
    }

    // RS is the LRC with no local equations: nothing peels, so every
    // repair is one heavy task rebuilding all targets from the same k
    // streams.
    fn repair_plan_for(&self, unavailable: &[usize], targets: &[usize]) -> Result<RepairPlan> {
        linear::plan_for(&self.generator, &[], unavailable, targets)
    }

    fn repair_session(&self, unavailable: &[usize]) -> Result<RepairSession> {
        linear::session(&self.generator, &[], unavailable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::owned;
    use proptest::prelude::*;
    use xorbas_gf::{Gf16, Gf65536};

    fn sample_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 131 + j * 17 + 7) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn encode_is_systematic() {
        let rs = ReedSolomon::<Gf256>::new(10, 4).unwrap();
        let data = sample_data(10, 32);
        let stripe = owned::encode(&rs, &data).unwrap();
        assert_eq!(stripe.len(), 14);
        assert_eq!(&stripe[..10], &data[..]);
    }

    #[test]
    fn appendix_d_construction_is_aligned() {
        // Σ of all 14 blocks is the zero payload — the implied-parity
        // precondition (Appendix D: G·1ᵀ = 0).
        let rs = ReedSolomon::<Gf256>::new(10, 4).unwrap();
        assert!(rs.is_aligned());
        let stripe = owned::encode(&rs, &sample_data(10, 64)).unwrap();
        let mut acc = vec![0u8; 64];
        for b in &stripe {
            xorbas_gf::slice_ops::xor_into(&mut acc, b);
        }
        assert_eq!(acc, vec![0u8; 64]);
    }

    #[test]
    fn vandermonde_generator_is_not_aligned_for_10_4() {
        let rs = ReedSolomon::<Gf256>::with_vandermonde_generator(10, 4).unwrap();
        assert!(!rs.is_aligned());
    }

    #[test]
    fn single_failure_reads_k_blocks() {
        // The repair problem (§1): RS repairs one block by reading k = 10.
        let rs = ReedSolomon::<Gf256>::new(10, 4).unwrap();
        let plan = rs.repair_plan(&[3]).unwrap();
        assert_eq!(plan.blocks_read(), 10);
        assert!(!plan.is_light());
    }

    #[test]
    fn all_4_erasure_patterns_recover() {
        let rs = ReedSolomon::<Gf256>::new(10, 4).unwrap();
        let data = sample_data(10, 8);
        let stripe = owned::encode(&rs, &data).unwrap();
        for pattern in crate::analysis::combinations(14, 4) {
            let mut lanes = stripe.clone();
            let session = owned::repair(&rs, &mut lanes, &pattern).unwrap();
            assert_eq!(session.plan().blocks_read(), 10);
            assert_eq!(lanes, stripe, "pattern {pattern:?}");
        }
    }

    #[test]
    fn five_erasures_are_unrecoverable() {
        let rs = ReedSolomon::<Gf256>::new(10, 4).unwrap();
        let data = sample_data(10, 8);
        let mut lanes = owned::encode(&rs, &data).unwrap();
        assert!(matches!(
            owned::repair(&rs, &mut lanes, &[0, 1, 2, 3, 4]),
            Err(CodeError::Unrecoverable { .. })
        ));
    }

    #[test]
    fn works_over_gf16_and_gf65536() {
        let rs4 = ReedSolomon::<Gf16>::new(4, 2).unwrap();
        // GF(2^4) payloads carry one 4-bit symbol per byte.
        let data: Vec<Vec<u8>> = sample_data(4, 6)
            .into_iter()
            .map(|d| d.iter().map(|b| b % 16).collect())
            .collect();
        let stripe = owned::encode(&rs4, &data).unwrap();
        let mut lanes = stripe.clone();
        owned::repair(&rs4, &mut lanes, &[0, 5]).unwrap();
        assert_eq!(lanes, stripe);

        let rs16 = ReedSolomon::<Gf65536>::new(6, 3).unwrap();
        let data = sample_data(6, 8); // even length: whole GF(2^16) symbols
        let stripe = owned::encode(&rs16, &data).unwrap();
        let mut lanes = stripe.clone();
        owned::repair(&rs16, &mut lanes, &[2, 7, 8]).unwrap();
        assert_eq!(lanes, stripe);
    }

    #[test]
    fn blocklength_must_fit_the_field() {
        assert!(ReedSolomon::<Gf16>::new(12, 4).is_err());
        assert!(ReedSolomon::<Gf16>::new(11, 4).is_ok());
    }

    #[test]
    fn rejects_bad_shapes() {
        let rs = ReedSolomon::<Gf256>::new(4, 2).unwrap();
        assert!(matches!(
            owned::encode(&rs, &sample_data(3, 8)),
            Err(CodeError::ShardCountMismatch {
                expected: 4,
                got: 3
            })
        ));
        let mut ragged = sample_data(4, 8);
        ragged[2].pop();
        assert!(matches!(
            owned::encode(&rs, &ragged),
            Err(CodeError::ShardSizeMismatch)
        ));
        // A stripe one lane short of n is refused before any replay.
        assert!(matches!(
            owned::repair(&rs, &mut vec![vec![0u8; 4]; 5], &[1]),
            Err(CodeError::ShardCountMismatch {
                expected: 6,
                got: 5
            })
        ));
    }

    #[test]
    fn degraded_read_plans_single_target_among_many_failures() {
        let rs = ReedSolomon::<Gf256>::new(10, 4).unwrap();
        let plan = rs.repair_plan_for(&[1, 2, 3], &[2]).unwrap();
        assert_eq!(plan.missing, vec![2]);
        assert_eq!(plan.tasks.len(), 1);
        assert_eq!(plan.blocks_read(), 10);
        // Reads avoid every unavailable block.
        for b in [1, 2, 3] {
            assert!(!plan.tasks[0].reads.contains(&b));
        }
    }

    #[test]
    fn empty_repair_is_a_no_op() {
        let rs = ReedSolomon::<Gf256>::new(4, 2).unwrap();
        let plan = rs.repair_plan(&[]).unwrap();
        assert_eq!(plan.blocks_read(), 0);
        let stripe = owned::encode(&rs, &sample_data(4, 4)).unwrap();
        let mut lanes = stripe.clone();
        let session = owned::repair(&rs, &mut lanes, &[]).unwrap();
        assert_eq!(session.plan().blocks_read(), 0);
        assert!(session.plan().missing.is_empty());
        assert_eq!(lanes, stripe);
    }

    proptest! {
        #[test]
        fn any_recoverable_pattern_round_trips(
            seed in any::<u64>(),
            erasures in proptest::collection::btree_set(0usize..14, 0..=4),
            len in 1usize..64,
        ) {
            let rs = ReedSolomon::<Gf256>::new(10, 4).unwrap();
            let mut rng_state = seed;
            let mut next = || {
                rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (rng_state >> 33) as u8
            };
            let data: Vec<Vec<u8>> =
                (0..10).map(|_| (0..len).map(|_| next()).collect()).collect();
            let stripe = owned::encode(&rs, &data).unwrap();
            let erased: Vec<usize> = erasures.iter().copied().collect();
            let mut lanes = stripe.clone();
            owned::repair(&rs, &mut lanes, &erased).unwrap();
            prop_assert_eq!(lanes, stripe);
        }
    }
}
