//! The decoder — the only one in the crate.
//!
//! Every linear codec here expresses a stripe as `y = x · G` (row vector
//! of `k` data payloads times a `k × n` generator), optionally with XOR
//! equations `Σ cᵢ · y_i = 0` over the stored blocks (the LRC's repair
//! groups). Repair is §3.1.2's "light decoder first, heavy fallback",
//! as a function of `(generator, equations)`:
//!
//! 1. **Light.** Peel the equations ([`crate::peeling`]); keep only the
//!    steps the targets need.
//! 2. **Heavy.** For whatever peeling left unresolved, take the first
//!    `k` independent surviving columns `S` in ascending lane order
//!    ([`select_decode_columns`]), invert `G_S` once, and recover
//!    `x = y_S · G_S⁻¹`; a block `b` is then `y_b = x · g_b`.
//!    [`compile_combination_steps`] folds the two products into one
//!    coefficient row per target — `y_b = y_S · (G_S⁻¹ · g_b)` — so
//!    executing a repair is pure slice arithmetic with no matrix work
//!    left.
//!
//! [`plan_for`] renders that decision as a [`RepairPlan`], [`session`]
//! compiles it into a [`RepairSession`]. The LRC calls them with its
//! equations; Reed-Solomon *is* the LRC with no local equations (the
//! paper's heavy decoder is HDFS-RAID's RS decoder) and calls them with
//! `&[]`, so nothing peels and every request is one heavy task.

use std::cell::Cell;

use xorbas_gf::Field;
use xorbas_linalg::Matrix;

use crate::codec::{normalize_repair_request, RepairPlan, RepairTask};
use crate::error::{CodeError, Result};
use crate::peeling::{peel, PeelStep, XorEquation};
use crate::session::{CompiledStep, RepairSession};

thread_local! {
    static DECODE_SOLVES: Cell<u64> = const { Cell::new(0) };
}

/// Number of decode linear solves (Gaussian eliminations of a selected
/// `k × k` generator submatrix) this thread has ever run.
///
/// A diagnostic/test hook: compiling a heavy [`crate::RepairSession`]
/// adds exactly one; executing a compiled session adds zero, however
/// many stripes it repairs.
pub fn decode_solve_count() -> u64 {
    DECODE_SOLVES.with(Cell::get)
}

/// Greedily selects independent columns from `candidates` (in order)
/// until `gen.rows()` of them are found. Returns `None` if the candidate
/// columns do not span the row space.
fn select_independent_columns<F: Field>(
    gen: &Matrix<F>,
    candidates: &[usize],
) -> Option<Vec<usize>> {
    let sub = gen.select_columns(candidates);
    let (_, pivots) = sub.rref();
    if pivots.len() < gen.rows() {
        return None;
    }
    Some(pivots.into_iter().map(|p| candidates[p]).collect())
}

/// The heavy decoder's column choice: the first `k` independent columns
/// among the lanes outside `unavailable` (sorted), in ascending lane
/// order. Data lanes are `0..k` in every layout, so ascending order
/// already reads surviving data first — identity columns keep the solve
/// cheap, and HDFS-RAID prefers the same streams. Fails with
/// [`CodeError::Unrecoverable`] when the survivors do not span the code.
fn select_decode_columns<F: Field>(gen: &Matrix<F>, unavailable: &[usize]) -> Result<Vec<usize>> {
    let surviving: Vec<usize> = (0..gen.cols())
        .filter(|i| !unavailable.contains(i))
        .collect();
    select_independent_columns(gen, &surviving).ok_or_else(|| CodeError::Unrecoverable {
        erased: unavailable.to_vec(),
    })
}

/// Keeps only the steps needed (transitively) to repair `targets`,
/// preserving dependency order.
fn prune_steps<F>(steps: Vec<PeelStep<F>>, targets: &[usize]) -> Vec<PeelStep<F>> {
    let mut needed: Vec<usize> = targets.to_vec();
    let mut keep = vec![false; steps.len()];
    for (i, step) in steps.iter().enumerate().rev() {
        if needed.contains(&step.repaired) {
            keep[i] = true;
            needed.extend(step.sources.iter().map(|&(s, _)| s));
        }
    }
    steps
        .into_iter()
        .zip(keep)
        .filter_map(|(s, k)| k.then_some(s))
        .collect()
}

/// What the decoder decided for one request, before it is rendered as a
/// plan or compiled into steps.
struct Decode<F> {
    /// The request's targets, sorted and deduplicated.
    targets: Vec<usize>,
    /// Light steps in dependency order.
    light: Vec<PeelStep<F>>,
    /// `None` when the light decoder handled everything (or there was
    /// nothing to repair).
    heavy: Option<HeavyRemainder>,
}

/// What is left for the heavy decoder.
struct HeavyRemainder {
    /// The targets peeling left unresolved.
    unresolved: Vec<usize>,
    /// The `k` columns they decode from.
    selection: Vec<usize>,
}

fn decode<F: Field>(
    gen: &Matrix<F>,
    equations: &[XorEquation<F>],
    unavailable: &[usize],
    targets: &[usize],
) -> Result<Decode<F>> {
    let (unavailable, targets) = normalize_repair_request(unavailable, targets, gen.cols())?;
    let mut avail = vec![true; gen.cols()];
    for &u in &unavailable {
        avail[u] = false;
    }
    let outcome = peel(equations, &avail, &targets);
    let peeled: Vec<usize> = targets
        .iter()
        .copied()
        .filter(|t| !outcome.unresolved.contains(t))
        .collect();
    let light = prune_steps(outcome.steps, &peeled);
    // The heavy decoder reads originally available lanes only, never one
    // a light step rebuilt.
    let heavy = if outcome.unresolved.is_empty() {
        None
    } else {
        Some(HeavyRemainder {
            selection: select_decode_columns(gen, &unavailable)?,
            unresolved: outcome.unresolved,
        })
    };
    Ok(Decode {
        targets,
        light,
        heavy,
    })
}

impl<F: Field> Decode<F> {
    /// One light task per peel step, then the heavy task if any.
    fn plan(&self) -> RepairPlan {
        let mut tasks: Vec<RepairTask> = self
            .light
            .iter()
            .map(|s| RepairTask {
                repairs: vec![s.repaired],
                reads: s.sources.iter().map(|&(i, _)| i).collect(),
                half_reads: vec![],
                light: true,
            })
            .collect();
        if let Some(heavy) = &self.heavy {
            tasks.push(RepairTask {
                repairs: heavy.unresolved.clone(),
                reads: heavy.selection.clone(),
                half_reads: vec![],
                light: false,
            });
        }
        RepairPlan {
            missing: self.targets.clone(),
            tasks,
        }
    }
}

/// Plans reconstruction of `targets ⊆ unavailable` for the code
/// `(gen, equations)`: light tasks first, then at most one heavy task
/// rebuilding every unresolved target from the same `k` streams. An
/// empty target list is the empty plan, whatever is unavailable.
pub(crate) fn plan_for<F: Field>(
    gen: &Matrix<F>,
    equations: &[XorEquation<F>],
    unavailable: &[usize],
    targets: &[usize],
) -> Result<RepairPlan> {
    Ok(decode(gen, equations, unavailable, targets)?.plan())
}

/// Compiles the repair of every lane in `unavailable` for the code
/// `(gen, equations)`: peel steps translate one-to-one into compiled
/// steps, and a heavy remainder costs the session's one elimination.
pub(crate) fn session<F: Field>(
    gen: &Matrix<F>,
    equations: &[XorEquation<F>],
    unavailable: &[usize],
) -> Result<RepairSession> {
    let decoded = decode(gen, equations, unavailable, unavailable)?;
    let plan = decoded.plan();
    let mut steps: Vec<CompiledStep> = decoded
        .light
        .iter()
        .map(|s| CompiledStep {
            target: s.repaired,
            sources: s.sources.iter().map(|&(i, c)| (i, c.index())).collect(),
        })
        .collect();
    if let Some(h) = &decoded.heavy {
        steps.extend(compile_combination_steps(gen, &h.selection, &h.unresolved)?);
    }
    let solves = usize::from(decoded.heavy.is_some());
    Ok(RepairSession::from_parts::<F>(
        gen.cols(),
        decoded.targets,
        plan,
        steps,
        solves,
    ))
}

/// Compiles the heavy decode of `targets` from the shards at `selection`
/// (which must index `k` independent, present columns) into one
/// [`CompiledStep`] per target: `y_b = Σ_j (G_S⁻¹ · g_b)_j · y_{S_j}`.
///
/// Runs the one Gaussian elimination of the repair (counted in
/// [`decode_solve_count`]); the inverse is folded into the returned
/// coefficients and never needed again. Fails with
/// [`CodeError::ConstructionFailed`] if the selected columns turn out
/// dependent — the planner guarantees independence, so a failure here
/// means the caller selected columns without checking.
pub(crate) fn compile_combination_steps<F: Field>(
    gen: &Matrix<F>,
    selection: &[usize],
    targets: &[usize],
) -> Result<Vec<CompiledStep>> {
    let k = gen.rows();
    debug_assert_eq!(selection.len(), k);
    let sub = gen.select_columns(selection);
    let Some(inv) = sub.invert() else {
        return Err(CodeError::ConstructionFailed(format!(
            "selected columns {selection:?} are not independent"
        )));
    };
    DECODE_SOLVES.with(|c| c.set(c.get() + 1));
    Ok(targets
        .iter()
        .map(|&b| {
            let sources = selection
                .iter()
                .enumerate()
                .filter_map(|(j, &s)| {
                    let c: F = (0..k).map(|i| inv[(j, i)] * gen[(i, b)]).sum();
                    (!c.is_zero()).then(|| (s, c.index()))
                })
                .collect();
            CompiledStep { target: b, sources }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xorbas_gf::slice_ops::payload_mul_acc;
    use xorbas_gf::Gf256;
    use xorbas_linalg::special;

    #[test]
    fn select_independent_columns_respects_order() {
        let g: Matrix<Gf256> = special::systematize(&special::vandermonde(3, 6)).unwrap();
        let sel = select_independent_columns(&g, &[5, 4, 3, 2, 1, 0]).unwrap();
        assert_eq!(sel, vec![5, 4, 3]); // first three candidates are independent (MDS)
    }

    #[test]
    fn select_independent_columns_skips_dependent() {
        // G = [I_2 | duplicate of column 0].
        let id = Matrix::<Gf256>::identity(2);
        let mut g = id.clone();
        g.push_column(&id.column(0));
        let sel = select_independent_columns(&g, &[0, 2, 1]).unwrap();
        assert_eq!(sel, vec![0, 1]); // column 2 is dependent on column 0
    }

    #[test]
    fn select_reports_rank_deficiency() {
        let id = Matrix::<Gf256>::identity(3);
        assert!(select_independent_columns(&id, &[0, 1]).is_none());
    }

    #[test]
    fn compiled_steps_reproduce_the_stripe() {
        let g: Matrix<Gf256> = special::systematize(&special::vandermonde(3, 6)).unwrap();
        let data = [vec![1u8, 2], vec![3u8, 4], vec![5u8, 6]];
        let stripe: Vec<Vec<u8>> = (0..6)
            .map(|c| {
                let mut out = vec![0u8; 2];
                for (i, d) in data.iter().enumerate() {
                    payload_mul_acc(&mut out, d, g[(i, c)]);
                }
                out
            })
            .collect();
        // Recover blocks 0..3 (the data half) from the parity columns.
        let before = decode_solve_count();
        let steps = compile_combination_steps(&g, &[3, 4, 5], &[0, 1, 2]).unwrap();
        assert_eq!(decode_solve_count(), before + 1);
        for step in steps {
            let mut out = vec![0u8; 2];
            for (src, c) in step.sources {
                payload_mul_acc(&mut out, &stripe[src], Gf256::from_index(c));
            }
            assert_eq!(out, stripe[step.target], "target {}", step.target);
        }
    }

    #[test]
    fn identity_targets_compile_to_single_source_steps() {
        // Selecting the systematic columns makes each data target a
        // trivial copy: exactly one source with coefficient 1.
        let g: Matrix<Gf256> = special::systematize(&special::vandermonde(2, 4)).unwrap();
        let steps = compile_combination_steps(&g, &[0, 1], &[2, 3]).unwrap();
        assert_eq!(steps.len(), 2);
        for s in &steps {
            assert!(!s.sources.is_empty());
        }
        let copy = compile_combination_steps(&g, &[0, 1], &[0]).unwrap();
        assert_eq!(copy[0].sources, vec![(0, 1)]);
    }
}
