//! Absorbing birth–death chains and mean time to absorption.

/// The Fig.-3 chain: states `0..=s`, where state `i` means `i` blocks of
/// the stripe are lost and state `s` (data loss) is absorbing.
///
/// `forward[i]` is the failure rate `λ_i` out of state `i` (for
/// `i = 0..s`); `backward[i]` is the repair rate `ρ_{i+1}` from state
/// `i+1` back to `i` (for `i = 0..s-1`). Rates are per day.
#[derive(Debug, Clone, PartialEq)]
pub struct BirthDeathChain {
    forward: Vec<f64>,
    backward: Vec<f64>,
}

impl BirthDeathChain {
    /// Builds a chain; `forward.len()` must be `backward.len() + 1` and
    /// all rates must be positive.
    pub fn new(forward: Vec<f64>, backward: Vec<f64>) -> Self {
        assert_eq!(
            forward.len(),
            backward.len() + 1,
            "an s-state chain has s forward and s-1 backward rates"
        );
        assert!(!forward.is_empty(), "need at least one transient state");
        assert!(
            forward
                .iter()
                .chain(&backward)
                .all(|&r| r > 0.0 && r.is_finite()),
            "rates must be positive and finite"
        );
        Self { forward, backward }
    }

    /// Mean time (days) from state 0 to absorption — the stripe MTTDL.
    ///
    /// Uses the classical upward-passage decomposition: with
    /// `h_i = E[time to go from state i to i+1]`,
    ///
    /// ```text
    /// h_0 = 1/λ_0,   h_i = 1/λ_i + (ρ_i/λ_i)·h_{i-1},   T_0 = Σ h_i.
    /// ```
    ///
    /// Every term is positive, so the computation is numerically stable
    /// even when MTTDL exceeds the transition times by 20+ orders of
    /// magnitude (a direct linear solve cancels catastrophically there).
    pub fn mean_time_to_absorption(&self) -> f64 {
        let s = self.forward.len();
        let mut total = 0.0f64;
        let mut h = 0.0f64; // h_{i-1}
        for i in 0..s {
            let lambda = self.forward[i];
            let rho = if i > 0 { self.backward[i - 1] } else { 0.0 };
            h = (1.0 + rho * h) / lambda;
            total += h;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_state_is_exponential_lifetime() {
        // No repair possible: MTTDL = 1/λ.
        let c = BirthDeathChain::new(vec![0.25], vec![]);
        assert!((c.mean_time_to_absorption() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn two_state_matches_closed_form() {
        // T_0 = (λ0 + λ1 + ρ1) / (λ0·λ1).
        let (l0, l1, r1) = (0.3, 0.2, 5.0);
        let c = BirthDeathChain::new(vec![l0, l1], vec![r1]);
        let expect = (l0 + l1 + r1) / (l0 * l1);
        assert!((c.mean_time_to_absorption() - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn three_state_matches_high_repair_asymptotic() {
        // With ρ >> λ, MTTDL ≈ ρ1·ρ2 / (λ0·λ1·λ2).
        let (l, r) = (1e-3, 1e4);
        let c = BirthDeathChain::new(vec![3.0 * l, 2.0 * l, l], vec![r, r]);
        let approx = r * r / (3.0 * l * 2.0 * l * l);
        let exact = c.mean_time_to_absorption();
        assert!((exact - approx).abs() / approx < 1e-2);
    }

    #[test]
    fn faster_repair_increases_mttdl() {
        let slow = BirthDeathChain::new(vec![0.1, 0.1], vec![1.0]);
        let fast = BirthDeathChain::new(vec![0.1, 0.1], vec![10.0]);
        assert!(fast.mean_time_to_absorption() > slow.mean_time_to_absorption());
    }

    #[test]
    fn more_transient_states_increase_mttdl() {
        let short = BirthDeathChain::new(vec![0.1, 0.1], vec![10.0]);
        let long = BirthDeathChain::new(vec![0.1, 0.1, 0.1], vec![10.0, 10.0]);
        assert!(long.mean_time_to_absorption() > short.mean_time_to_absorption());
    }

    #[test]
    fn mean_hitting_time_agrees_with_monte_carlo() {
        // Small chain cross-checked against a hand-rolled simulation
        // using exponential sampling via inverse CDF.
        let c = BirthDeathChain::new(vec![0.5, 0.4], vec![2.0]);
        let analytic = c.mean_time_to_absorption();
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut uniform = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let trials = 200_000;
        let mut total = 0.0;
        for _ in 0..trials {
            let mut state = 0usize;
            let mut t = 0.0;
            while state < 2 {
                let (l, r) = if state == 0 { (0.5, 0.0) } else { (0.4, 2.0) };
                let rate = l + r;
                t += -(1.0 - uniform()).ln() / rate;
                state = if uniform() < l / rate {
                    state + 1
                } else {
                    state - 1
                };
            }
            total += t;
        }
        let mc = total / trials as f64;
        assert!(
            (mc - analytic).abs() / analytic < 0.02,
            "MC {mc} vs analytic {analytic}"
        );
    }

    #[test]
    #[should_panic(expected = "forward and s-1 backward")]
    fn mismatched_rate_vectors_rejected() {
        let _ = BirthDeathChain::new(vec![1.0], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn non_positive_rates_rejected() {
        let _ = BirthDeathChain::new(vec![1.0, 0.0], vec![1.0]);
    }
}
