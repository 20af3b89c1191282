//! Reusable, pre-compiled repairs: [`RepairSession`].
//!
//! Planning a repair and executing it have very different costs. The
//! plan of a heavy repair hides a Gaussian elimination (inverting the
//! `k × k` decode submatrix), and the simulator's BlockFixer replays the
//! *same* failure pattern across thousands of stripes. A
//! [`RepairSession`] therefore compiles the whole repair once — light
//! peeling steps and the heavy solve alike — into a flat list of
//! `lane_target = Σ cᵢ · lane_srcᵢ` steps with the inverse already
//! folded into the coefficients. Executing the session against a
//! [`StripeViewMut`] then runs pure slice kernels: no planning, no
//! elimination, no allocation — and each step's whole row is issued as
//! *fused* multi-source kernel calls ([`xorbas_gf::slice_ops`]), so the
//! target lane makes one pass through memory however many source lanes
//! the row combines.

use crate::codec::{LaneMask, RepairPlan, StripeViewMut};
use crate::error::{CodeError, Result};
use xorbas_gf::slice_ops::{payload_mul_acc_multi, payload_mul_into_multi};
use xorbas_gf::Field;

/// One compiled reconstruction: `lane[target] = Σ cᵢ · lane[srcᵢ]`.
///
/// Coefficients are stored as field bit-pattern indices so the session
/// type stays independent of the codec's field parameter.
///
/// In a *sublane* session (compiled via [`RepairSession::from_sub_parts`]
/// by substripe codecs like the piggybacked RS), `target` and the source
/// indices address sublanes — lane `ℓ`'s `s`-th of `sub` equal substripe
/// slices is sublane `ℓ·sub + s` — and a step may source a sibling
/// sublane of its own target lane (the piggyback peel reads the
/// just-repaired other half).
#[derive(Debug, Clone)]
pub(crate) struct CompiledStep {
    /// The lane (or sublane) this step reconstructs.
    pub(crate) target: usize,
    /// `(source lane, coefficient index)` pairs; zero coefficients are
    /// dropped at compile time.
    pub(crate) sources: Vec<(usize, u32)>,
}

/// How many sources a replayed row hands to one fused kernel call; rows
/// wider than this are folded in stack-buffered batches.
const ROW_FUSE: usize = 16;

/// Monomorphized fused-row kernel: `dst = [dst ^] Σ cᵢ·srcᵢ` with
/// coefficients as field bit-pattern indices; the `bool` is `accumulate`.
type ApplyRowFn = for<'a> fn(&mut [u8], &[(u32, &'a [u8])], bool);

/// A repair compiled for one failure pattern, reusable across stripes.
///
/// Created by [`ErasureCodec::repair_session`].
/// [`RepairSession::repair`] takes `&self`, so one compiled session can
/// serve many threads repairing different stripes concurrently.
///
/// [`ErasureCodec::repair_session`]: crate::ErasureCodec::repair_session
#[derive(Debug, Clone)]
pub struct RepairSession {
    lanes: usize,
    /// Substripe slices per lane: 1 for whole-lane codecs; 2 for the
    /// piggybacked RS, whose steps address half-lanes.
    sublanes: usize,
    missing: Vec<usize>,
    missing_mask: LaneMask,
    plan: RepairPlan,
    steps: Vec<CompiledStep>,
    apply_row: ApplyRowFn,
    solves: usize,
    /// Bytes per field symbol; replayed stripes must be whole symbols.
    symbol_bytes: usize,
}

fn apply_row_in<F: Field>(dst: &mut [u8], srcs: &[(u32, &[u8])], accumulate: bool) {
    debug_assert!(srcs.len() <= ROW_FUSE);
    let mut batch: [(F, &[u8]); ROW_FUSE] = [(F::ZERO, &[]); ROW_FUSE];
    for (slot, &(c, s)) in batch.iter_mut().zip(srcs) {
        *slot = (F::from_index(c), s);
    }
    if accumulate {
        payload_mul_acc_multi(dst, &batch[..srcs.len()]);
    } else {
        payload_mul_into_multi(dst, &batch[..srcs.len()]);
    }
}

impl RepairSession {
    /// Assembles a session from codec-compiled parts. `missing` must be
    /// sorted and deduplicated (the codecs normalize before compiling).
    pub(crate) fn from_parts<F: Field>(
        lanes: usize,
        missing: Vec<usize>,
        plan: RepairPlan,
        steps: Vec<CompiledStep>,
        solves: usize,
    ) -> Self {
        Self::from_sub_parts::<F>(lanes, 1, missing, plan, steps, solves)
    }

    /// Assembles a *sublane* session: steps address the `sublanes` equal
    /// substripe slices of each lane (sublane `ℓ·sublanes + s`). Lane
    /// lengths replayed through it must divide into `sublanes` slices of
    /// whole field symbols, so the alignment granularity is
    /// `sublanes · F::SYMBOL_BYTES`.
    pub(crate) fn from_sub_parts<F: Field>(
        lanes: usize,
        sublanes: usize,
        missing: Vec<usize>,
        plan: RepairPlan,
        steps: Vec<CompiledStep>,
        solves: usize,
    ) -> Self {
        debug_assert!(sublanes >= 1);
        let mut missing_mask = LaneMask::empty(lanes);
        for &i in &missing {
            missing_mask.set(i);
        }
        Self {
            lanes,
            sublanes,
            missing,
            missing_mask,
            plan,
            steps,
            apply_row: apply_row_in::<F>,
            solves,
            symbol_bytes: sublanes * F::SYMBOL_BYTES,
        }
    }

    /// The stripe blocklength `n` this session operates on.
    pub fn lane_count(&self) -> usize {
        self.lanes
    }

    /// The failure pattern this session repairs (sorted lane indices).
    pub fn missing(&self) -> &[usize] {
        &self.missing
    }

    /// The repair plan this session was compiled from.
    pub fn plan(&self) -> &RepairPlan {
        &self.plan
    }

    /// Number of linear solves (Gaussian eliminations) compilation ran:
    /// 1 for patterns needing the heavy decoder, 0 for pure-light
    /// patterns. [`RepairSession::repair`] never adds to this — the test
    /// hook that pins "repeated same-pattern repairs skip the solve"
    /// (see also the global [`crate::decode_solve_count`]).
    pub fn solve_count(&self) -> usize {
        self.solves
    }

    /// Reconstructs this session's failure pattern in `stripe`, in place.
    ///
    /// Every lane the view reports missing must be part of the session's
    /// pattern (lanes the session covers but the view already has are
    /// simply rewritten with identical bytes). Runs no planning, no
    /// elimination, and allocates nothing; each step's row is issued as
    /// fused multi-source kernel calls gathered over an on-stack batch,
    /// and repaired lanes are marked present. For multi-byte-symbol
    /// codecs (GF(2^16)), lane lengths must be a whole number of symbols
    /// or the replay fails with
    /// [`CodeError::PayloadNotSymbolAligned`](crate::CodeError).
    pub fn repair(&self, stripe: &mut StripeViewMut<'_, '_>) -> Result<()> {
        if stripe.lane_count() != self.lanes {
            return Err(CodeError::ShardCountMismatch {
                expected: self.lanes,
                got: stripe.lane_count(),
            });
        }
        crate::codec::check_symbol_alignment(stripe.lane_len(), self.symbol_bytes)?;
        // view-missing ⊆ session-missing: every lane the view lacks must
        // be one this session knows how to rebuild.
        for i in 0..self.lanes {
            if !stripe.is_present(i) && !self.missing_mask.get(i) {
                return Err(CodeError::InvalidParameters(
                    "stripe is missing lanes outside this session's failure pattern".into(),
                ));
            }
        }
        // One replay loop for every codec: a step targets one of the
        // `sublanes` equal slices of a lane (the whole lane when
        // `sublanes == 1`) and may source any slice of any *other* lane
        // — or a sibling slice of its own lane (the piggyback peel reads
        // the just-repaired other half).
        let sub = self.sublanes;
        let sub_len = stripe.lane_len() / sub;
        for step in &self.steps {
            let lane = step.target / sub;
            let part = step.target % sub;
            let (dst, head, tail) = stripe.lane_split_mut(lane);
            // Split the target lane into its slices so sibling sublanes
            // stay readable while the target slice is written.
            let (left, rest) = dst.split_at_mut(part * sub_len);
            let (mine, right) = rest.split_at_mut(sub_len);
            let mut accumulate = false;
            for chunk in step.sources.chunks(ROW_FUSE) {
                let mut batch: [(u32, &[u8]); ROW_FUSE] = [(0, &[]); ROW_FUSE];
                for (slot, &(src, c)) in batch.iter_mut().zip(chunk) {
                    let s_lane = src / sub;
                    let s_part = src % sub;
                    let src_slice: &[u8] = if s_lane < lane {
                        &head[s_lane][s_part * sub_len..(s_part + 1) * sub_len]
                    } else if s_lane > lane {
                        &tail[s_lane - lane - 1][s_part * sub_len..(s_part + 1) * sub_len]
                    } else if s_part < part {
                        &left[s_part * sub_len..(s_part + 1) * sub_len]
                    } else {
                        debug_assert_ne!(s_part, part, "step reads its own target sublane");
                        let base = (s_part - part - 1) * sub_len;
                        &right[base..base + sub_len]
                    };
                    *slot = (c, src_slice);
                }
                (self.apply_row)(mine, &batch[..chunk.len()], accumulate);
                accumulate = true;
            }
            if step.sources.is_empty() {
                // A target with no sources decodes to the zero payload.
                mine.fill(0);
            }
        }
        // A step may write only one slice of a lane; the compiler emits
        // every slice of every missing lane, so the pattern is whole
        // again only once the full step list has run.
        for &i in &self.missing {
            stripe.mark_present(i);
        }
        Ok(())
    }
}
