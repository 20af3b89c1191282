//! Locally Repairable Codes — the paper's contribution (§2, Fig. 2).
//!
//! An LRC extends a Reed-Solomon code with *local parities*: the `k` data
//! blocks are split into groups of `r`, each group XOR-ed into a local
//! parity. A single failure then repairs from `r` blocks instead of `k`.
//! The global parities form their own repair group whose local parity
//! `S3 = S1 + S2` need not be stored — the *implied parity* — because the
//! Appendix-D Reed-Solomon construction aligns all blocks to XOR to zero.
//!
//! The (10,6,5) instance deployed in HDFS-Xorbas:
//!
//! ```text
//! X1 ... X5 | X6 ... X10 | P1 P2 P3 P4 | S1 S2     (16 stored blocks)
//! \___ S1 = X1+..+X5     \___ S3 = P1+..+P4 = S1+S2 (implied)
//!            \___ S2 = X6+..+X10
//! ```
//!
//! Every block has locality 5 and the code has optimal distance 5 for
//! that locality (Theorem 5); tests verify both by brute force.

use xorbas_gf::{Field, Gf256};
use xorbas_linalg::Matrix;

use crate::codec::{
    check_data_lanes, check_parity_lanes, check_symbol_alignment, encode_row_iter, encode_rows,
    ErasureCodec, RepairPlan,
};
use crate::error::{CodeError, Result};
use crate::linear;
use crate::peeling::XorEquation;
use crate::session::RepairSession;
use crate::spec::{CodeSpec, LrcSpec};
use crate::ReedSolomon;

/// A `(k, n - k, r)` Locally Repairable Code over `F`.
///
/// Block layout: `0..k` data, `k..k+g` global (RS) parities,
/// `k+g..k+g+k/r` local parities `S_t`, and — only when
/// `spec.implied_parity` is false — one stored parity-group local parity
/// at the last index.
#[derive(Debug, Clone)]
pub struct Lrc<F: Field = Gf256> {
    spec: LrcSpec,
    rs: ReedSolomon<F>,
    /// Per data group, the coefficient of each member in its local parity.
    local_coeffs: Vec<Vec<F>>,
    /// Full `k × n` generator (RS columns followed by local columns).
    generator: Matrix<F>,
    /// The XOR repair-group equations the light decoder peels.
    equations: Vec<XorEquation<F>>,
}

impl Lrc<Gf256> {
    /// The explicit (10,6,5) LRC of HDFS-Xorbas over GF(2^8).
    pub fn xorbas_10_6_5() -> Result<Self> {
        Self::new(LrcSpec::XORBAS)
    }
}

impl<F: Field> Lrc<F> {
    /// Builds an LRC with unit local coefficients (`c_i = 1`, plain XOR)
    /// on top of the aligned Appendix-D Reed-Solomon code — the paper
    /// proves this choice suffices for RS parities (§2.1).
    pub fn new(spec: LrcSpec) -> Result<Self> {
        spec.validate()?;
        let rs = ReedSolomon::new(spec.k, spec.global_parities)?;
        let coeffs = vec![vec![F::ONE; spec.group_size]; spec.data_groups()];
        Self::with_base(spec, rs, coeffs)
    }

    /// Builds an LRC from an explicit base code and local coefficients.
    ///
    /// `local_coeffs[t][i]` is the coefficient of the `i`-th member of
    /// data group `t` (all must be nonzero — Eq. (1) divides by them).
    /// The implied-parity optimization additionally requires the aligned
    /// base construction with unit coefficients, since the alignment
    /// identity `S1 + S2 + S3 = 0` is what replaces the stored block.
    pub fn with_base(spec: LrcSpec, rs: ReedSolomon<F>, local_coeffs: Vec<Vec<F>>) -> Result<Self> {
        spec.validate()?;
        if rs.data_blocks() != spec.k || rs.parity_blocks() != spec.global_parities {
            return Err(CodeError::InvalidParameters(format!(
                "base code is ({}, {}), spec needs ({}, {})",
                rs.data_blocks(),
                rs.parity_blocks(),
                spec.k,
                spec.global_parities
            )));
        }
        if local_coeffs.len() != spec.data_groups()
            || local_coeffs.iter().any(|g| g.len() != spec.group_size)
        {
            return Err(CodeError::InvalidParameters(
                "local coefficient shape must be (k/r) groups of r".into(),
            ));
        }
        if local_coeffs.iter().flatten().any(|c| c.is_zero()) {
            return Err(CodeError::InvalidParameters(
                "local parity coefficients must be nonzero".into(),
            ));
        }
        if spec.implied_parity {
            if !rs.is_aligned() {
                return Err(CodeError::InvalidParameters(
                    "implied parity requires the aligned (Appendix-D) base code".into(),
                ));
            }
            if local_coeffs.iter().flatten().any(|&c| c != F::ONE) {
                return Err(CodeError::InvalidParameters(
                    "implied parity requires unit local coefficients".into(),
                ));
            }
        }

        let generator = Self::build_generator(&spec, &rs, &local_coeffs);
        let equations = Self::build_equations(&spec, &local_coeffs);
        Ok(Self {
            spec,
            rs,
            local_coeffs,
            generator,
            equations,
        })
    }

    fn build_generator(spec: &LrcSpec, rs: &ReedSolomon<F>, coeffs: &[Vec<F>]) -> Matrix<F> {
        let k = spec.k;
        let g = spec.global_parities;
        let mut gen = rs.generator().clone();
        for (t, group) in coeffs.iter().enumerate() {
            let mut col = vec![F::ZERO; k];
            for (i, &c) in group.iter().enumerate() {
                col[t * spec.group_size + i] = c;
            }
            gen.push_column(&col);
        }
        if !spec.implied_parity {
            // Stored parity-group local parity: S_p = Σ_j P_j.
            let mut col = vec![F::ZERO; k];
            for j in 0..g {
                let parity_col = rs.generator().column(k + j);
                for (slot, &v) in col.iter_mut().zip(&parity_col) {
                    *slot += v;
                }
            }
            gen.push_column(&col);
        }
        gen
    }

    fn build_equations(spec: &LrcSpec, coeffs: &[Vec<F>]) -> Vec<XorEquation<F>> {
        let k = spec.k;
        let g = spec.global_parities;
        let dg = spec.data_groups();
        let mut eqs = Vec::with_capacity(dg + 1);
        // Data groups: Σ c_i · X_i + S_t = 0.
        for (t, group) in coeffs.iter().enumerate() {
            let mut members: Vec<(usize, F)> = group
                .iter()
                .enumerate()
                .map(|(i, &c)| (t * spec.group_size + i, c))
                .collect();
            members.push((k + g + t, F::ONE));
            eqs.push(XorEquation::new(members));
        }
        // Parity group.
        let mut members: Vec<(usize, F)> = (0..g).map(|j| (k + j, F::ONE)).collect();
        if spec.implied_parity {
            // Alignment: Σ_j P_j + Σ_t S_t = 0 (S3 is implied).
            members.extend((0..dg).map(|t| (k + g + t, F::ONE)));
        } else {
            // Stored: Σ_j P_j + S_p = 0 by definition of S_p.
            members.push((k + g + dg, F::ONE));
        }
        eqs.push(XorEquation::new(members));
        eqs
    }

    /// The LRC-specific spec (group structure, implied parity).
    pub fn lrc_spec(&self) -> LrcSpec {
        self.spec
    }

    /// The base Reed-Solomon code.
    pub fn base(&self) -> &ReedSolomon<F> {
        &self.rs
    }

    /// The full `k × n` generator matrix.
    pub fn generator(&self) -> &Matrix<F> {
        &self.generator
    }

    /// The repair-group XOR equations used by the light decoder.
    pub fn equations(&self) -> &[XorEquation<F>] {
        &self.equations
    }
}

impl<F: Field> ErasureCodec for Lrc<F> {
    fn data_blocks(&self) -> usize {
        self.spec.k
    }

    fn total_blocks(&self) -> usize {
        self.spec.total_blocks()
    }

    fn spec(&self) -> CodeSpec {
        CodeSpec::Lrc(self.spec)
    }

    fn symbol_bytes(&self) -> usize {
        F::SYMBOL_BYTES
    }

    fn encode_into(&self, data: &[&[u8]], parity: &mut [&mut [u8]]) -> Result<()> {
        let k = self.spec.k;
        let g = self.spec.global_parities;
        let len = check_data_lanes(data, k)?;
        check_parity_lanes(parity, self.total_blocks() - k, len)?;
        check_symbol_alignment(len, F::SYMBOL_BYTES)?;
        let (globals, locals) = parity.split_at_mut(g);
        // Global (Reed-Solomon) parities, columns k..k+g of the
        // generator, are one fused block: each data vector is split once
        // for all of them.
        encode_rows(globals, data, |r, i| self.generator[(i, k + r)]);
        // Local parities: Σ cᵢ · Xᵢ over each data group, one row each
        // (unit coefficients route to the fused-XOR kernel).
        for (t, group) in self.local_coeffs.iter().enumerate() {
            let base = t * self.spec.group_size;
            let members = &data[base..base + self.spec.group_size];
            encode_rows(&mut locals[t..=t], members, |_, i| group[i]);
        }
        // Stored parity-group parity S_p = Σ_j P_j (implied codes omit it).
        if !self.spec.implied_parity {
            let (_, tail) = locals.split_at_mut(self.spec.data_groups());
            encode_row_iter(&mut *tail[0], globals.iter().map(|p| (F::ONE, &**p)));
        }
        Ok(())
    }

    fn repair_plan_for(&self, unavailable: &[usize], targets: &[usize]) -> Result<RepairPlan> {
        linear::plan_for(&self.generator, &self.equations, unavailable, targets)
    }

    fn repair_session(&self, unavailable: &[usize]) -> Result<RepairSession> {
        linear::session(&self.generator, &self.equations, unavailable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{owned, StripeViewMut};
    use xorbas_gf::slice_ops::xor_into;
    use xorbas_gf::Gf65536;

    fn sample_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 37 + j * 101 + 3) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    fn xorbas() -> Lrc<Gf256> {
        Lrc::xorbas_10_6_5().unwrap()
    }

    #[test]
    fn stripe_layout_matches_figure_2() {
        let lrc = xorbas();
        assert_eq!(lrc.total_blocks(), 16);
        let data = sample_data(10, 32);
        let stripe = owned::encode(&lrc, &data).unwrap();
        // Systematic prefix.
        assert_eq!(&stripe[..10], &data[..]);
        // S1 = X1+..+X5, S2 = X6+..+X10 (unit coefficients = XOR).
        let mut s1 = vec![0u8; 32];
        for d in &data[..5] {
            xor_into(&mut s1, d);
        }
        assert_eq!(stripe[14], s1);
        let mut s2 = vec![0u8; 32];
        for d in &data[5..10] {
            xor_into(&mut s2, d);
        }
        assert_eq!(stripe[15], s2);
    }

    #[test]
    fn implied_parity_identity_holds() {
        // S1 + S2 = P1 + P2 + P3 + P4 — the stored S3 is redundant.
        let lrc = xorbas();
        let stripe = owned::encode(&lrc, &sample_data(10, 64)).unwrap();
        let mut lhs = stripe[14].clone();
        xor_into(&mut lhs, &stripe[15]);
        let mut rhs = vec![0u8; 64];
        for p in &stripe[10..14] {
            xor_into(&mut rhs, p);
        }
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn every_single_failure_light_decodes_reading_5_blocks() {
        // The headline property: locality 5 for all 16 blocks.
        let lrc = xorbas();
        let stripe = owned::encode(&lrc, &sample_data(10, 16)).unwrap();
        for lost in 0..16 {
            let mut lanes = stripe.clone();
            let session = owned::repair(&lrc, &mut lanes, &[lost]).unwrap();
            assert!(session.plan().is_light(), "block {lost} went heavy");
            assert_eq!(session.plan().blocks_read(), 5, "block {lost} read != 5");
            assert_eq!(lanes[lost], stripe[lost]);
        }
    }

    #[test]
    fn global_parity_repair_uses_equation_2() {
        // P2 lost: read P1, P3, P4, S1, S2 (Eq. (2) of the paper).
        let lrc = xorbas();
        let plan = lrc.repair_plan(&[11]).unwrap();
        assert!(plan.is_light());
        let mut reads = plan.tasks[0].reads.clone();
        reads.sort_unstable();
        assert_eq!(reads, vec![10, 12, 13, 14, 15]);
    }

    #[test]
    fn double_failure_in_different_groups_stays_light() {
        let lrc = xorbas();
        let stripe = owned::encode(&lrc, &sample_data(10, 16)).unwrap();
        let mut lanes = stripe.clone();
        // Lane 2 is in group 1, lane 7 in group 2.
        let session = owned::repair(&lrc, &mut lanes, &[2, 7]).unwrap();
        assert!(session.plan().is_light());
        assert_eq!(session.plan().read_events(), 10); // two tasks x 5 streams
        assert_eq!(lanes, stripe);
    }

    #[test]
    fn double_failure_in_same_group_goes_heavy() {
        let lrc = xorbas();
        let stripe = owned::encode(&lrc, &sample_data(10, 16)).unwrap();
        let mut lanes = stripe.clone();
        // Lanes 2 and 3 share a local group.
        let session = owned::repair(&lrc, &mut lanes, &[2, 3]).unwrap();
        assert!(!session.plan().is_light());
        assert_eq!(session.plan().blocks_read(), 10);
        assert_eq!(lanes, stripe);
    }

    #[test]
    fn peeling_cascades_when_parity_group_unlocks() {
        // Lose S1 and P1. P1's equation has 2 unknowns at first (P1 and…
        // actually S1): repair S1 from its data group, which unlocks the
        // parity-group equation for P1.
        let lrc = xorbas();
        let stripe = owned::encode(&lrc, &sample_data(10, 16)).unwrap();
        let mut lanes = stripe.clone();
        // Lane 10 is P1, lane 14 is S1.
        let session = owned::repair(&lrc, &mut lanes, &[10, 14]).unwrap();
        assert!(session.plan().is_light());
        assert_eq!(lanes, stripe);
    }

    #[test]
    fn all_four_erasure_patterns_recover() {
        // d = 5: any 4 erasures must decode (exhaustive, C(16,4) = 1820).
        let lrc = xorbas();
        let stripe = owned::encode(&lrc, &sample_data(10, 4)).unwrap();
        for pattern in crate::analysis::combinations(16, 4) {
            let mut lanes = stripe.clone();
            owned::repair(&lrc, &mut lanes, &pattern)
                .unwrap_or_else(|e| panic!("pattern {pattern:?} failed: {e}"));
            assert_eq!(lanes, stripe, "pattern {pattern:?}");
        }
    }

    #[test]
    fn some_five_erasure_pattern_fails() {
        // d = 5 exactly: there exists an unrecoverable 5-pattern.
        // Erasing a whole local group (5 data blocks + … here: the 5
        // blocks X1..X4 + S1 leaves group 1 with rank deficit).
        let lrc = xorbas();
        let stripe = owned::encode(&lrc, &sample_data(10, 4)).unwrap();
        let mut found_failure = false;
        for pattern in crate::analysis::combinations(16, 5) {
            if owned::repair(&lrc, &mut stripe.clone(), &pattern).is_err() {
                found_failure = true;
                break;
            }
        }
        assert!(found_failure, "minimum distance should be exactly 5");
    }

    #[test]
    fn stored_parity_variant_encodes_s3_explicitly() {
        let spec = LrcSpec {
            implied_parity: false,
            ..LrcSpec::XORBAS
        };
        let lrc: Lrc<Gf256> = Lrc::new(spec).unwrap();
        assert_eq!(lrc.total_blocks(), 17);
        let stripe = owned::encode(&lrc, &sample_data(10, 16)).unwrap();
        let mut s3 = vec![0u8; 16];
        for p in &stripe[10..14] {
            xor_into(&mut s3, p);
        }
        assert_eq!(stripe[16], s3);
        // Global parity repair now reads P-peers + stored S3: 4 blocks.
        let plan = lrc.repair_plan(&[11]).unwrap();
        assert!(plan.is_light());
        assert_eq!(plan.blocks_read(), 4);
    }

    #[test]
    fn degraded_read_repairs_only_the_target() {
        let lrc = xorbas();
        // Blocks 0 and 9 both missing (different groups); job needs only 0.
        let plan = lrc.repair_plan_for(&[0, 9], &[0]).unwrap();
        assert_eq!(plan.missing, vec![0]);
        assert_eq!(plan.tasks.len(), 1);
        assert_eq!(plan.tasks[0].repairs, vec![0]);
        assert_eq!(plan.blocks_read(), 5);
    }

    #[test]
    fn non_unit_coefficients_decode_via_equation_1() {
        // General c_i with a stored (non-implied) parity-group parity.
        let spec = LrcSpec {
            implied_parity: false,
            ..LrcSpec::XORBAS
        };
        let rs = ReedSolomon::<Gf256>::new(10, 4).unwrap();
        let coeffs: Vec<Vec<Gf256>> = (0..2)
            .map(|t| {
                (0..5)
                    .map(|i| Gf256::from_index((t * 5 + i + 2) as u32))
                    .collect()
            })
            .collect();
        let lrc = Lrc::with_base(spec, rs, coeffs).unwrap();
        let stripe = owned::encode(&lrc, &sample_data(10, 16)).unwrap();
        let mut lanes = stripe.clone();
        let session = owned::repair(&lrc, &mut lanes, &[3]).unwrap();
        assert!(session.plan().is_light());
        assert_eq!(session.plan().blocks_read(), 5);
        assert_eq!(lanes[3], stripe[3]);
    }

    #[test]
    fn implied_parity_rejects_unaligned_base_or_nonunit_coeffs() {
        let unaligned = ReedSolomon::<Gf256>::with_vandermonde_generator(10, 4).unwrap();
        let unit = vec![vec![Gf256::ONE; 5]; 2];
        assert!(matches!(
            Lrc::with_base(LrcSpec::XORBAS, unaligned, unit.clone()),
            Err(CodeError::InvalidParameters(_))
        ));
        let aligned = ReedSolomon::<Gf256>::new(10, 4).unwrap();
        let mut nonunit = unit;
        nonunit[0][0] = Gf256::from_index(3);
        assert!(matches!(
            Lrc::with_base(LrcSpec::XORBAS, aligned, nonunit),
            Err(CodeError::InvalidParameters(_))
        ));
    }

    #[test]
    fn zero_coefficient_rejected() {
        let spec = LrcSpec {
            implied_parity: false,
            ..LrcSpec::XORBAS
        };
        let rs = ReedSolomon::<Gf256>::new(10, 4).unwrap();
        let mut coeffs = vec![vec![Gf256::ONE; 5]; 2];
        coeffs[1][2] = Gf256::ZERO;
        assert!(Lrc::with_base(spec, rs, coeffs).is_err());
    }

    #[test]
    fn generator_matches_paper_shape_and_rank() {
        let lrc = xorbas();
        let g = lrc.generator();
        assert_eq!((g.rows(), g.cols()), (10, 16));
        assert_eq!(g.rank(), 10);
        // Equations annihilate the generator: for each equation,
        // Σ c_i · g_{idx_i} = 0 columnwise.
        for eq in lrc.equations() {
            for row in 0..10 {
                let sum: Gf256 = eq.members.iter().map(|&(i, c)| c * g[(row, i)]).sum();
                assert!(sum.is_zero());
            }
        }
    }

    #[test]
    fn small_lrc_with_more_groups() {
        // (12, 4+3, 4) LRC with implied parity over GF(2^8): 3 data
        // groups of 4, 4 global parities, n = 12 + 4 + 3 = 19.
        let spec = LrcSpec {
            k: 12,
            global_parities: 4,
            group_size: 4,
            implied_parity: true,
        };
        let lrc: Lrc<Gf256> = Lrc::new(spec).unwrap();
        assert_eq!(lrc.total_blocks(), 19);
        let stripe = owned::encode(&lrc, &sample_data(12, 8)).unwrap();
        // Single data failure reads 4; parity failure reads g-1 + 3 = 6.
        let plan = lrc.repair_plan(&[1]).unwrap();
        assert_eq!(plan.blocks_read(), 4);
        let plan = lrc.repair_plan(&[13]).unwrap();
        assert_eq!(plan.blocks_read(), 6);
        assert!(plan.is_light());
        // Round-trip a triple failure.
        let mut lanes = stripe.clone();
        owned::repair(&lrc, &mut lanes, &[0, 4, 16]).unwrap();
        assert_eq!(lanes, stripe);
    }

    #[test]
    fn roundtrip_light_repair_at_assorted_payload_lengths() {
        // The (10,6,5) encode → lose-block → light-repair loop must be
        // payload-length agnostic: single bytes, odd lengths that don't
        // divide the table-kernel stride, and block-sized payloads.
        let lrc = xorbas();
        for len in [1, 7, 64, 1000] {
            let stripe = owned::encode(&lrc, &sample_data(10, len)).unwrap();
            for lost in 0..16 {
                let mut lanes = stripe.clone();
                let session = owned::repair(&lrc, &mut lanes, &[lost]).unwrap();
                assert!(session.plan().is_light(), "len {len} block {lost}");
                assert_eq!(session.plan().blocks_read(), 5, "len {len} block {lost}");
                assert_eq!(lanes[lost], stripe[lost], "len {len} block {lost}");
            }
        }
    }

    #[test]
    fn wide_lrc_encodes_and_repairs_past_255_lanes() {
        // The (200, 60, 10)-class layout over GF(2^16): 260 stored
        // lanes. One construction is shared across every check below —
        // wide generators are the expensive part of this test.
        let lrc = Lrc::<Gf65536>::new(LrcSpec::WIDE).unwrap();
        assert_eq!(lrc.total_blocks(), 260);
        assert_eq!(lrc.symbol_bytes(), 2);
        let data = sample_data(200, 8);
        let stripe = owned::encode(&lrc, &data).unwrap();
        assert_eq!(&stripe[..200], &data[..]);

        // Single data failure: light, reads its 10-lane group.
        let plan = lrc.repair_plan(&[7]).unwrap();
        assert!(plan.is_light());
        assert_eq!(plan.blocks_read(), 10);
        // Global parity failure: light via the alignment equation,
        // reading the other 39 globals plus the 20 data-group locals.
        let plan = lrc.repair_plan(&[205]).unwrap();
        assert!(plan.is_light());
        assert_eq!(plan.blocks_read(), 59);

        // Session replay round-trips a light and a heavy pattern.
        for pattern in [vec![7usize], vec![3, 4]] {
            let mut lanes = stripe.clone();
            owned::repair(&lrc, &mut lanes, &pattern).unwrap();
            for &i in &pattern {
                assert_eq!(lanes[i], stripe[i], "lane {i} of {pattern:?}");
            }
        }
    }

    #[test]
    fn odd_payload_lengths_are_rejected_for_two_byte_symbols() {
        // GF(2^16) symbols span two bytes: a 7-byte lane has no valid
        // interpretation, so encode and session replay both return the
        // typed boundary error instead of truncating or panicking.
        // A small wide-field geometry keeps this test cheap.
        let spec = LrcSpec {
            k: 4,
            global_parities: 2,
            group_size: 2,
            implied_parity: true,
        };
        let lrc: Lrc<Gf65536> = Lrc::new(spec).unwrap();
        let data = sample_data(4, 7);
        assert!(matches!(
            owned::encode(&lrc, &data),
            Err(CodeError::PayloadNotSymbolAligned {
                symbol_bytes: 2,
                len: 7
            })
        ));
        // Even lengths encode; replaying a session against odd lanes is
        // rejected by the same check.
        let stripe = owned::encode(&lrc, &sample_data(4, 8)).unwrap();
        let session = lrc.repair_session(&[1]).unwrap();
        let mut odd_lanes = vec![vec![0u8; 7]; stripe.len()];
        let mut refs: Vec<&mut [u8]> = odd_lanes.iter_mut().map(Vec::as_mut_slice).collect();
        let mut view = StripeViewMut::new(&mut refs, &[1]).unwrap();
        assert!(matches!(
            session.repair(&mut view),
            Err(CodeError::PayloadNotSymbolAligned {
                symbol_bytes: 2,
                len: 7
            })
        ));
        // Byte-symbol codecs are unaffected: odd lengths stay valid.
        let narrow = xorbas();
        assert!(owned::encode(&narrow, &sample_data(10, 7)).is_ok());
    }

    #[test]
    fn implied_parity_identity_beyond_the_paper_geometry() {
        // §3.1.1 generalizes: with the aligned base code and unit local
        // coefficients, the XOR of all stored local parities equals the
        // XOR of all RS parities, whatever the (k, g, r) geometry.
        for (k, g, r) in [(4, 2, 2), (6, 3, 3), (12, 4, 4), (9, 2, 3)] {
            let spec = LrcSpec {
                k,
                global_parities: g,
                group_size: r,
                implied_parity: true,
            };
            let lrc: Lrc<Gf256> = Lrc::new(spec).unwrap();
            let stripe = owned::encode(&lrc, &sample_data(k, 48)).unwrap();
            let mut locals_xor = vec![0u8; 48];
            for s in &stripe[k + g..] {
                xor_into(&mut locals_xor, s);
            }
            let mut globals_xor = vec![0u8; 48];
            for p in &stripe[k..k + g] {
                xor_into(&mut globals_xor, p);
            }
            assert_eq!(locals_xor, globals_xor, "({k},{g},{r})");
        }
    }
}
