//! The piggybacked Reed-Solomon code — the third codec family.
//!
//! §1.1's dilemma is that RS repairs a single lost block by reading
//! `k` whole blocks, while the LRC buys locality with 14% extra
//! storage. The *piggybacking framework* (Rashmi et al., applied to
//! HDFS as "Hitchhiker") occupies a third corner of that trade-off:
//! keep the RS geometry — same lanes, same 1.4x storage, same MDS
//! erasure tolerance — but split every lane into two substripes and let
//! the second substripe's parities carry *piggybacks* (XORs of
//! first-substripe data), so a single lost data block repairs from
//! roughly `(k + k/(m-1))/2` block-volumes instead of `k` (~33% fewer
//! repair bytes for the (10,4) geometry).
//!
//! # Construction
//!
//! Each lane payload of length `L` is two substripes: `A = [0, L/2)`
//! and `B = [L/2, L)`. With `G = [I_k | P]` the aligned Appendix-D
//! generator and `g_j` the column of parity `j`:
//!
//! * substripe A of every parity is a clean RS row: `pA_j = Σ_i G[i,k+j]·a_i`;
//! * parity 0's substripe B is also clean: `pB_0 = Σ_i G[i,k]·b_i`;
//! * parity `j ≥ 1` carries a piggyback: `pB_j = Σ_i G[i,k+j]·b_i ⊕
//!   Σ_{d ∈ group j} a_d`, where data lane `i` belongs to group
//!   `1 + (i mod (m-1))`.
//!
//! # Repair
//!
//! A single lost data lane `i` (group `g`) decodes in two sublane
//! steps: first `b_i` from the surviving data B-halves plus `pB_0` (one
//! `k`-column solve), then `a_i` peels out of `pB_g`'s piggyback using
//! the data B-halves and the other group members' A-halves. Only group
//! members are read whole; everything else is a half-lane read, so the
//! plan's [`RepairPlan::read_volume`] is `(k + |group g|)/2` — 6.7 for
//! the (10,4) code against RS's 10. Every other failure pattern
//! (parities, multi-loss, and the paper's §6 degraded reads) falls back
//! to an RS-style `k`-column decode at RS cost, compiled once and
//! corrected for the piggybacks sublane-by-sublane.

use xorbas_gf::{Field, Gf256};

use crate::codec::{
    check_data_lanes, check_parity_lanes, check_symbol_alignment, encode_row_iter,
    normalize_repair_request, ErasureCodec, RepairPlan, RepairTask,
};
use crate::error::{CodeError, Result};
use crate::session::{CompiledStep, RepairSession};
use crate::spec::CodeSpec;
use crate::ReedSolomon;

/// A 2-substripe piggybacked `(k, m)` Reed-Solomon code over `F`.
///
/// Block layout matches [`ReedSolomon`]: indices `0..k` are data,
/// `k..k+m` parities (parity 0 clean, parities `1..m` piggybacked).
/// Payload lengths must be multiples of
/// [`symbol_bytes`](ErasureCodec::symbol_bytes) `= 2 · F::SYMBOL_BYTES`
/// so both substripes hold whole field symbols.
#[derive(Debug, Clone)]
pub struct PiggybackRs<F: Field = Gf256> {
    k: usize,
    m: usize,
    /// The aligned Appendix-D base code; supplies the generator both
    /// substripes share.
    base: ReedSolomon<F>,
}

impl<F: Field> PiggybackRs<F> {
    /// Builds the piggybacked code on the aligned Appendix-D RS base.
    ///
    /// Requires `m ≥ 2`: parity 0 stays clean (it anchors the substripe-B
    /// solve), so at least one further parity must exist to carry
    /// piggybacks.
    pub fn new(k: usize, m: usize) -> Result<Self> {
        if m < 2 {
            return Err(CodeError::InvalidParameters(
                "piggybacked RS needs m >= 2 (one clean parity plus piggybacked ones)".into(),
            ));
        }
        Ok(Self {
            k,
            m,
            base: ReedSolomon::new(k, m)?,
        })
    }

    /// Number of parity blocks `m = n - k`.
    pub fn parity_blocks(&self) -> usize {
        self.m
    }

    /// The piggyback group data lane `i` feeds: `1 + (i mod (m-1))`,
    /// i.e. the index of the parity carrying its A-half.
    fn group_of(&self, data_lane: usize) -> usize {
        debug_assert!(data_lane < self.k);
        1 + data_lane % (self.m - 1)
    }

    /// The data lanes whose A-halves parity `j ≥ 1` piggybacks.
    fn group_members(&self, j: usize) -> impl Iterator<Item = usize> + '_ {
        debug_assert!((1..self.m).contains(&j));
        (0..self.k).filter(move |i| i % (self.m - 1) == j - 1)
    }

    /// `Some(j)` when `lane` is the piggybacked parity of group `j`.
    fn piggyback_index(&self, lane: usize) -> Option<usize> {
        (lane > self.k && lane < self.k + self.m).then(|| lane - self.k)
    }

    /// The piggyback dividend applies to exactly one pattern: a single
    /// lane lost, and it is data. `Some(that lane)` then; every other
    /// pattern takes the general path. Plan and compiled steps both ask
    /// here, so they cannot disagree on which path a pattern takes.
    fn fast_lane(&self, unavailable: &[usize]) -> Option<usize> {
        match unavailable[..] {
            [i] if i < self.k => Some(i),
            _ => None,
        }
    }

    /// The fast single-data-loss task: half-lane reads everywhere except
    /// lane `i`'s fellow group members (whose A- and B-halves are both
    /// needed), for a read volume of `(k + |group|)/2`.
    fn fast_task(&self, i: usize) -> RepairTask {
        let g = self.group_of(i);
        let reads: Vec<usize> = (0..self.k)
            .filter(|&t| t != i)
            .chain([self.k, self.k + g])
            .collect();
        let half_reads: Vec<usize> = reads
            .iter()
            .copied()
            .filter(|&t| !(t < self.k && self.group_of(t) == g))
            .collect();
        RepairTask {
            repairs: vec![i],
            reads,
            half_reads,
            light: false,
        }
    }

    /// Compiles the fast path's two sublane steps (one solve).
    fn compile_fast_steps(&self, i: usize) -> Result<Vec<CompiledStep>> {
        let gen = self.base.generator();
        let g = self.group_of(i);
        // Step 1: the lost B-half from the surviving data B-halves plus
        // the clean parity's — substripe B restricted to these columns
        // is an ordinary RS codeword.
        let selection: Vec<usize> = (0..self.k).filter(|&t| t != i).chain([self.k]).collect();
        let rows = crate::linear::compile_combination_steps(gen, &selection, &[i])?;
        let mut steps: Vec<CompiledStep> = rows
            .into_iter()
            .map(|row| CompiledStep {
                target: 2 * row.target + 1,
                sources: row.sources.iter().map(|&(s, c)| (2 * s + 1, c)).collect(),
            })
            .collect();
        // Step 2: the lost A-half peels out of parity g's piggyback:
        // a_i = pB_g + Σ_t G[t,k+g]·b_t + Σ_{d ∈ group g, d ≠ i} a_d
        // (b_i being the sibling sublane step 1 just repaired).
        let one = F::ONE.index();
        let mut sources: Vec<(usize, u32)> = vec![(2 * (self.k + g) + 1, one)];
        for t in 0..self.k {
            let c = gen[(t, self.k + g)];
            if !c.is_zero() {
                sources.push((2 * t + 1, c.index()));
            }
        }
        sources.extend(
            self.group_members(g)
                .filter(|&d| d != i)
                .map(|d| (2 * d, one)),
        );
        steps.push(CompiledStep {
            target: 2 * i,
            sources,
        });
        Ok(steps)
    }

    /// Compiles the general path: one `k`-column solve shared by both
    /// substripes, with piggyback corrections spliced into the B steps.
    fn compile_general_steps(
        &self,
        selection: &[usize],
        targets: &[usize],
    ) -> Result<Vec<CompiledStep>> {
        let gen = self.base.generator();
        let rows = crate::linear::compile_combination_steps(gen, selection, targets)?;
        let one = F::ONE.index();
        let mut steps = Vec::with_capacity(2 * rows.len());
        // Every A step first: substripe A is a clean RS codeword, so the
        // coefficient rows apply verbatim — and the B steps below may
        // read just-repaired A-halves as piggyback corrections (a
        // missing correction lane is always itself a target here; the
        // selection is the first k surviving lanes ascending — data,
        // clean parity 0, piggybacked parities — so whenever it holds a
        // piggybacked parity it holds every available data lane too).
        for row in &rows {
            steps.push(CompiledStep {
                target: 2 * row.target,
                sources: row.sources.iter().map(|&(s, c)| (2 * s, c)).collect(),
            });
        }
        // B steps: the same row over the stored B-halves cancels each
        // selected piggybacked parity's piggyback with that parity's
        // coefficient, and a piggybacked *target* re-adds its own.
        for row in &rows {
            let mut sources: Vec<(usize, u32)> =
                row.sources.iter().map(|&(s, c)| (2 * s + 1, c)).collect();
            for &(s, c) in &row.sources {
                if let Some(j) = self.piggyback_index(s) {
                    sources.extend(self.group_members(j).map(|d| (2 * d, c)));
                }
            }
            if let Some(j) = self.piggyback_index(row.target) {
                sources.extend(self.group_members(j).map(|d| (2 * d, one)));
            }
            steps.push(CompiledStep {
                target: 2 * row.target + 1,
                sources,
            });
        }
        Ok(steps)
    }
}

impl<F: Field> ErasureCodec for PiggybackRs<F> {
    fn data_blocks(&self) -> usize {
        self.k
    }

    fn total_blocks(&self) -> usize {
        self.k + self.m
    }

    fn spec(&self) -> CodeSpec {
        CodeSpec::Piggyback {
            k: self.k,
            m: self.m,
        }
    }

    fn symbol_bytes(&self) -> usize {
        2 * F::SYMBOL_BYTES
    }

    fn encode_into(&self, data: &[&[u8]], parity: &mut [&mut [u8]]) -> Result<()> {
        // The whole lane is the shard at offset 0 whose parity buffers
        // are as long as the data lanes.
        let len = check_data_lanes(data, self.k)?;
        check_parity_lanes(parity, self.m, len)?;
        self.encode_range_into(data, parity, 0)
    }

    fn encode_range_into(
        &self,
        data: &[&[u8]],
        parity: &mut [&mut [u8]],
        offset: usize,
    ) -> Result<()> {
        let len = check_data_lanes(data, self.k)?;
        check_symbol_alignment(len, 2 * F::SYMBOL_BYTES)?;
        let shard = parity.first().map_or(0, |p| p.len());
        check_parity_lanes(parity, self.m, shard)?;
        if offset + shard > len {
            return Err(CodeError::ShardSizeMismatch);
        }
        check_symbol_alignment(offset, F::SYMBOL_BYTES)?;
        check_symbol_alignment(shard, F::SYMBOL_BYTES)?;
        let half = len / 2;
        // The shard's intersection with the A substripe ([0, half)) and,
        // in substripe-local coordinates, with B ([half, len)). A parity
        // byte at stripe offset `half + o` mixes data B bytes at the same
        // offset with data A bytes at `o` — so a B shard needs *distant*
        // data ranges, which is why the default whole-row slicing cannot
        // serve this codec.
        let a_lo = offset.min(half);
        let a_hi = (offset + shard).min(half);
        let b_lo = offset.max(half) - half;
        let b_hi = (offset + shard).max(half) - half;
        let gen = self.base.generator();
        let groups = self.m - 1;
        for (j, out) in parity.iter_mut().enumerate() {
            let col = self.k + j;
            let (oa, ob) = out.split_at_mut(a_hi - a_lo);
            if a_lo < a_hi {
                encode_row_iter(
                    oa,
                    data.iter()
                        .enumerate()
                        .map(|(i, d)| (gen[(i, col)], &d[a_lo..a_hi])),
                );
            }
            if b_lo < b_hi {
                encode_row_iter(
                    ob,
                    data.iter()
                        .enumerate()
                        .map(|(i, d)| (gen[(i, col)], &d[half + b_lo..half + b_hi]))
                        .chain(
                            data.iter()
                                .enumerate()
                                .filter(move |&(i, _)| j >= 1 && i % groups == j - 1)
                                .map(move |(_, d)| (F::ONE, &d[b_lo..b_hi])),
                        ),
                );
            }
        }
        Ok(())
    }

    fn repair_plan_for(&self, unavailable: &[usize], targets: &[usize]) -> Result<RepairPlan> {
        let n = self.total_blocks();
        let (unavailable, targets) = normalize_repair_request(unavailable, targets, n)?;
        if targets.is_empty() {
            return Ok(RepairPlan::default());
        }
        if let Some(i) = self.fast_lane(&unavailable) {
            return Ok(RepairPlan {
                missing: targets,
                tasks: vec![self.fast_task(i)],
            });
        }
        // Anything else decodes RS-style from k whole columns: the base
        // code's plan, selection included.
        self.base.repair_plan_for(&unavailable, &targets)
    }

    fn repair_session(&self, unavailable: &[usize]) -> Result<RepairSession> {
        let plan = self.repair_plan(unavailable)?;
        let missing = plan.missing.clone();
        let mut steps = Vec::new();
        let mut solves = 0;
        if let Some(task) = plan.tasks.first() {
            steps = match self.fast_lane(&missing) {
                Some(i) => self.compile_fast_steps(i)?,
                None => self.compile_general_steps(&task.reads, &missing)?,
            };
            solves = 1;
        }
        Ok(RepairSession::from_sub_parts::<F>(
            self.total_blocks(),
            2,
            missing,
            plan,
            steps,
            solves,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::StripeViewMut;
    use crate::owned;
    use xorbas_gf::slice_ops::xor_into;
    use xorbas_gf::Gf65536;

    fn sample_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 151 + j * 23 + 11) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn needs_at_least_two_parities() {
        assert!(PiggybackRs::<Gf256>::new(10, 1).is_err());
        assert!(PiggybackRs::<Gf256>::new(10, 2).is_ok());
    }

    #[test]
    fn groups_partition_the_data_lanes() {
        let pb = PiggybackRs::<Gf256>::new(10, 4).unwrap();
        let sizes: Vec<usize> = (1..4).map(|j| pb.group_members(j).count()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        for i in 0..10 {
            let g = pb.group_of(i);
            assert!(pb.group_members(g).any(|d| d == i));
        }
    }

    #[test]
    fn encode_is_rs_plus_piggybacks() {
        // Substripe A of every parity and substripe B of parity 0 match
        // the plain RS encode of the half-payloads; each piggybacked
        // parity's B-half differs by exactly the XOR of its group's
        // A-halves.
        let pb = PiggybackRs::<Gf256>::new(10, 4).unwrap();
        let rs = ReedSolomon::<Gf256>::new(10, 4).unwrap();
        let len = 64;
        let half = len / 2;
        let data = sample_data(10, len);
        let stripe = owned::encode(&pb, &data).unwrap();
        assert_eq!(&stripe[..10], &data[..]);
        let a_half: Vec<Vec<u8>> = data.iter().map(|d| d[..half].to_vec()).collect();
        let b_half: Vec<Vec<u8>> = data.iter().map(|d| d[half..].to_vec()).collect();
        let rs_a = owned::encode(&rs, &a_half).unwrap();
        let rs_b = owned::encode(&rs, &b_half).unwrap();
        for j in 0..4 {
            assert_eq!(&stripe[10 + j][..half], &rs_a[10 + j][..], "pA_{j}");
            let mut expect = rs_b[10 + j].clone();
            if j >= 1 {
                for d in pb.group_members(j) {
                    xor_into(&mut expect, &data[d][..half]);
                }
            }
            assert_eq!(&stripe[10 + j][half..], &expect[..], "pB_{j}");
        }
    }

    #[test]
    fn single_data_loss_reads_fewer_bytes_than_rs() {
        // The headline: every single data-lane plan reads (k + group)/2
        // block-volumes — at most 7.0 and 6.7 on average, against RS's
        // 10.0 — while touching k + 1 distinct lanes.
        let pb = PiggybackRs::<Gf256>::new(10, 4).unwrap();
        let mut total = 0.0;
        for i in 0..10 {
            let plan = pb.repair_plan(&[i]).unwrap();
            let gsz = pb.group_members(pb.group_of(i)).count();
            assert_eq!(plan.read_volume(), (10 + gsz) as f64 / 2.0, "lane {i}");
            assert!(plan.read_volume() <= 7.0);
            assert_eq!(plan.blocks_read(), 11);
            total += plan.read_volume();
        }
        assert!((total / 10.0 - 6.7).abs() < 1e-12);
    }

    #[test]
    fn parity_and_multi_loss_cost_rs_volume() {
        let pb = PiggybackRs::<Gf256>::new(10, 4).unwrap();
        for missing in [vec![10], vec![13], vec![0, 5], vec![2, 11, 13]] {
            let plan = pb.repair_plan(&missing).unwrap();
            assert_eq!(plan.blocks_read(), 10, "{missing:?}");
            assert_eq!(plan.read_volume(), 10.0, "{missing:?}");
            for task in &plan.tasks {
                assert!(task.half_reads.is_empty());
            }
        }
    }

    #[test]
    fn every_single_loss_round_trips_bit_identically() {
        let pb = PiggybackRs::<Gf256>::new(10, 4).unwrap();
        let data = sample_data(10, 48);
        let stripe = owned::encode(&pb, &data).unwrap();
        for i in 0..14 {
            let mut lanes = stripe.clone();
            owned::repair(&pb, &mut lanes, &[i]).unwrap();
            assert_eq!(lanes[i], stripe[i], "lane {i}");
        }
    }

    #[test]
    fn all_recoverable_erasure_patterns_recover() {
        // MDS is preserved: every 4-erasure pattern of the (10,4)
        // geometry round-trips, mixed data/parity losses included.
        let pb = PiggybackRs::<Gf256>::new(10, 4).unwrap();
        let data = sample_data(10, 8);
        let stripe = owned::encode(&pb, &data).unwrap();
        for pattern in crate::analysis::combinations(14, 4) {
            let mut lanes = stripe.clone();
            owned::repair(&pb, &mut lanes, &pattern).unwrap();
            assert_eq!(lanes, stripe, "pattern {pattern:?}");
        }
    }

    #[test]
    fn five_erasures_are_unrecoverable() {
        let pb = PiggybackRs::<Gf256>::new(10, 4).unwrap();
        assert!(matches!(
            pb.repair_plan(&[0, 1, 2, 3, 4]),
            Err(CodeError::Unrecoverable { .. })
        ));
    }

    #[test]
    fn session_replays_both_paths_bit_identically() {
        let pb = PiggybackRs::<Gf256>::new(10, 4).unwrap();
        let data = sample_data(10, 32);
        let stripe = owned::encode(&pb, &data).unwrap();
        for missing in [vec![4], vec![12], vec![3, 7], vec![0, 10, 13]] {
            let session = pb.repair_session(&missing).unwrap();
            assert_eq!(session.solve_count(), 1);
            let mut work = stripe.clone();
            for &i in &missing {
                work[i].fill(0xEE);
            }
            let mut lane_refs: Vec<&mut [u8]> = work.iter_mut().map(Vec::as_mut_slice).collect();
            let mut view = StripeViewMut::new(&mut lane_refs, &missing).unwrap();
            session.repair(&mut view).unwrap();
            for &i in &missing {
                assert!(view.is_present(i));
            }
            drop(lane_refs);
            assert_eq!(work, stripe, "{missing:?}");
        }
    }

    #[test]
    fn degraded_read_plans_one_target_among_many_failures() {
        let pb = PiggybackRs::<Gf256>::new(10, 4).unwrap();
        let plan = pb.repair_plan_for(&[1, 2, 3], &[2]).unwrap();
        assert_eq!(plan.missing, vec![2]);
        assert_eq!(plan.blocks_read(), 10);
        for b in [1, 2, 3] {
            assert!(!plan.tasks[0].reads.contains(&b));
        }
    }

    #[test]
    fn odd_payloads_are_rejected_at_the_substripe_boundary() {
        // symbol_bytes is 2·F::SYMBOL_BYTES: a payload must split into
        // two whole-symbol substripes.
        let pb = PiggybackRs::<Gf256>::new(10, 4).unwrap();
        assert_eq!(pb.symbol_bytes(), 2);
        assert!(matches!(
            owned::encode(&pb, &sample_data(10, 7)),
            Err(CodeError::PayloadNotSymbolAligned {
                symbol_bytes: 2,
                len: 7
            })
        ));
        let session = pb.repair_session(&[0]).unwrap();
        let mut work = sample_data(14, 7);
        let mut lane_refs: Vec<&mut [u8]> = work.iter_mut().map(Vec::as_mut_slice).collect();
        let mut view = StripeViewMut::new(&mut lane_refs, &[0]).unwrap();
        assert!(matches!(
            session.repair(&mut view),
            Err(CodeError::PayloadNotSymbolAligned { .. })
        ));
    }

    #[test]
    fn parallel_encode_matches_serial_across_the_substripe_seam() {
        // 3 threads put a shard boundary inside both substripes and one
        // shard across the A/B seam — the encode_range_into override.
        let pb = PiggybackRs::<Gf256>::new(10, 4).unwrap();
        let data = sample_data(10, 64 * 1024);
        let data_refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let mut serial = vec![vec![0u8; 64 * 1024]; 4];
        let mut serial_refs: Vec<&mut [u8]> = serial.iter_mut().map(Vec::as_mut_slice).collect();
        pb.encode_into(&data_refs, &mut serial_refs).unwrap();
        for threads in [2, 3, 5] {
            let mut par = vec![vec![0x55u8; 64 * 1024]; 4];
            let mut par_refs: Vec<&mut [u8]> = par.iter_mut().map(Vec::as_mut_slice).collect();
            crate::encode_into_parallel(&pb, &data_refs, &mut par_refs, threads).unwrap();
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn wide_gf65536_geometry_round_trips() {
        // GF(2^16) symbols are 2 bytes, so lanes align at 4 bytes.
        let pb = PiggybackRs::<Gf65536>::new(6, 3).unwrap();
        assert_eq!(pb.symbol_bytes(), 4);
        let data = sample_data(6, 16);
        let stripe = owned::encode(&pb, &data).unwrap();
        for missing in [vec![1], vec![7], vec![0, 8], vec![2, 3, 6]] {
            let mut lanes = stripe.clone();
            owned::repair(&pb, &mut lanes, &missing).unwrap();
            assert_eq!(lanes, stripe, "{missing:?}");
        }
        assert!(matches!(
            owned::encode(&pb, &sample_data(6, 6)),
            Err(CodeError::PayloadNotSymbolAligned {
                symbol_bytes: 4,
                len: 6
            })
        ));
    }

    #[test]
    fn empty_repair_is_a_no_op() {
        let pb = PiggybackRs::<Gf256>::new(4, 2).unwrap();
        let plan = pb.repair_plan(&[]).unwrap();
        assert_eq!(plan.blocks_read(), 0);
        let session = pb.repair_session(&[]).unwrap();
        assert_eq!(session.solve_count(), 0);
    }

    #[test]
    fn fast_session_runs_exactly_one_solve() {
        let pb = PiggybackRs::<Gf256>::new(10, 4).unwrap();
        let before = crate::decode_solve_count();
        let _session = pb.repair_session(&[3]).unwrap();
        assert_eq!(crate::decode_solve_count(), before + 1);
    }
}
