//! Randomized and deterministic code construction (Appendix C/D).
//!
//! Theorem 4: random linear codes with the right group structure achieve
//! the distance bound with high probability over a large enough field.
//! [`random_aligned_mds`] draws random parity matrices (with the last
//! column forced so that the alignment `Σ g_j = 0` holds, keeping the
//! implied-parity optimization available) and verifies the MDS property
//! by exhaustive erasure checking; [`random_lrc`] stacks local parities
//! on top and verifies the target distance.
//!
//! [`exhaustive_search_small`] is the deterministic alternative the paper
//! describes as "exponential in the code parameters (n, k) and therefore
//! useful only for small code constructions".

use rand::Rng;

use xorbas_gf::Field;
use xorbas_linalg::Matrix;

use crate::analysis::{combinations, minimum_distance, reconstructable};
use crate::error::{CodeError, Result};
use crate::spec::LrcSpec;
use crate::{Lrc, ReedSolomon};

fn random_nonzero<F: Field, R: Rng>(rng: &mut R) -> F {
    F::from_index(rng.gen_range(1..F::ORDER))
}

/// Verifies the MDS property of a systematic `[I | P]` generator by
/// checking every `m`-erasure pattern is recoverable.
pub fn is_mds<F: Field>(generator: &Matrix<F>) -> bool {
    let k = generator.rows();
    let n = generator.cols();
    let m = n - k;
    combinations(n, m).all(|pattern| reconstructable(generator, &pattern))
}

/// Draws random `(k, m)` MDS codes whose generator columns sum to zero
/// (the Appendix-D alignment), retrying up to `attempts` times.
///
/// Alignment is arranged by forcing the last parity column to
/// `Σ data columns + Σ other parity columns`, which is one linear
/// constraint and leaves the rest of `P` uniform.
pub fn random_aligned_mds<F: Field, R: Rng>(
    k: usize,
    m: usize,
    rng: &mut R,
    attempts: usize,
) -> Result<ReedSolomon<F>> {
    for _ in 0..attempts {
        let mut p = Matrix::from_fn(k, m, |_, _| random_nonzero::<F, _>(rng));
        // Force row sums of [I | P] to zero: P[i][m-1] = 1 + Σ_{j<m-1} P[i][j].
        for i in 0..k {
            let partial: F = (0..m - 1).map(|j| p[(i, j)]).sum();
            p[(i, m - 1)] = F::ONE + partial;
        }
        if (0..k).any(|i| p[(i, m - 1)].is_zero()) {
            continue; // zero parity coefficient would break light repair
        }
        let rs = ReedSolomon::from_parity_matrix(k, m, p)?;
        debug_assert!(rs.is_aligned());
        if is_mds(rs.generator()) {
            return Ok(rs);
        }
    }
    Err(CodeError::ConstructionFailed(format!(
        "no aligned MDS ({k},{m}) code found in {attempts} attempts"
    )))
}

/// Randomized LRC construction: random aligned MDS base + unit local
/// parities, retried until the brute-force distance reaches `target_d`.
///
/// This is the practical face of Theorem 4: with `|F| = 2^8` or `2^16`
/// the first draw almost always succeeds.
pub fn random_lrc<F: Field, R: Rng>(
    spec: LrcSpec,
    target_d: usize,
    rng: &mut R,
    attempts: usize,
) -> Result<Lrc<F>> {
    spec.validate()?;
    for _ in 0..attempts {
        let Ok(rs) = random_aligned_mds::<F, R>(spec.k, spec.global_parities, rng, 16) else {
            continue;
        };
        let coeffs = vec![vec![F::ONE; spec.group_size]; spec.data_groups()];
        let lrc = Lrc::with_base(spec, rs, coeffs)?;
        if minimum_distance(lrc.generator()) >= target_d {
            return Ok(lrc);
        }
    }
    Err(CodeError::ConstructionFailed(format!(
        "no LRC with d >= {target_d} found in {attempts} attempts"
    )))
}

/// Deterministic exhaustive search over all parity matrices of a tiny
/// `(k, m)` code, returning the first aligned MDS instance.
///
/// Complexity is `O(q^{k·(m-1)})` — exponential, exactly as the paper
/// warns; callers should keep `k·(m-1)` at a handful of field symbols.
pub fn exhaustive_search_small<F: Field>(k: usize, m: usize) -> Result<ReedSolomon<F>> {
    let q = F::ORDER as u64;
    let cells = k * (m - 1);
    let space = q
        .checked_pow(cells as u32)
        .ok_or_else(|| CodeError::InvalidParameters("search space exceeds u64".into()))?;
    if space > 1 << 24 {
        return Err(CodeError::InvalidParameters(format!(
            "search space {space} too large for exhaustive search"
        )));
    }
    for idx in 0..space {
        // Decode idx into the free cells of P (all but the last column).
        let mut p = Matrix::zero(k, m);
        let mut rest = idx;
        for i in 0..k {
            for j in 0..m - 1 {
                p[(i, j)] = F::from_index((rest % q) as u32);
                rest /= q;
            }
        }
        // Alignment forces the last column.
        let mut ok = true;
        for i in 0..k {
            let partial: F = (0..m - 1).map(|j| p[(i, j)]).sum();
            p[(i, m - 1)] = F::ONE + partial;
            if p[(i, m - 1)].is_zero() {
                ok = false;
                break;
            }
        }
        if !ok {
            continue;
        }
        let rs = ReedSolomon::from_parity_matrix(k, m, p)?;
        if is_mds(rs.generator()) {
            return Ok(rs);
        }
    }
    Err(CodeError::ConstructionFailed(format!(
        "no aligned MDS ({k},{m}) code exists over this field"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::code_locality;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xorbas_gf::{Gf16, Gf256};

    #[test]
    fn appendix_d_code_is_mds() {
        let rs = ReedSolomon::<Gf256>::new(10, 4).unwrap();
        assert!(is_mds(rs.generator()));
    }

    #[test]
    fn random_aligned_mds_first_try_over_gf256() {
        let mut rng = StdRng::seed_from_u64(7);
        let rs = random_aligned_mds::<Gf256, _>(6, 3, &mut rng, 32).unwrap();
        assert!(rs.is_aligned());
        assert!(is_mds(rs.generator()));
    }

    #[test]
    fn random_lrc_reaches_target_distance() {
        let spec = LrcSpec {
            k: 6,
            global_parities: 3,
            group_size: 3,
            implied_parity: true,
        };
        let mut rng = StdRng::seed_from_u64(11);
        // n = 6 + 3 + 2 = 11; Theorem-2 bound: 11 - 2 - 6 + 2 = 5.
        // A random draw reaches at least 4 (and 5 when no minimum-weight
        // base codeword happens to have zero group sums).
        let lrc = random_lrc::<Gf256, _>(spec, 4, &mut rng, 8).unwrap();
        let d = minimum_distance(lrc.generator());
        assert!((4..=5).contains(&d), "unexpected distance {d}");
        assert!(code_locality(lrc.generator(), 4).is_some());
    }

    #[test]
    fn random_lrc_round_trips_payloads() {
        let spec = LrcSpec {
            k: 4,
            global_parities: 2,
            group_size: 2,
            implied_parity: true,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let lrc = random_lrc::<Gf256, _>(spec, 3, &mut rng, 8).unwrap();
        let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8 * 13 + 1; 8]).collect();
        let stripe = crate::owned::encode(&lrc, &data).unwrap();
        let mut lanes = stripe.clone();
        crate::owned::repair(&lrc, &mut lanes, &[1, 5]).unwrap();
        assert_eq!(lanes, stripe);
    }

    #[test]
    fn exhaustive_search_finds_tiny_aligned_mds() {
        // (2, 2) over GF(2^4): search space 16^2 = 256.
        let rs = exhaustive_search_small::<Gf16>(2, 2).unwrap();
        assert!(rs.is_aligned());
        assert!(is_mds(rs.generator()));
    }

    #[test]
    fn exhaustive_search_rejects_oversized_spaces() {
        assert!(matches!(
            exhaustive_search_small::<Gf256>(10, 4),
            Err(CodeError::InvalidParameters(_))
        ));
    }

    #[test]
    fn randomized_construction_is_deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let ra = random_aligned_mds::<Gf256, _>(4, 2, &mut a, 8).unwrap();
        let rb = random_aligned_mds::<Gf256, _>(4, 2, &mut b, 8).unwrap();
        assert_eq!(ra.generator(), rb.generator());
    }
}
