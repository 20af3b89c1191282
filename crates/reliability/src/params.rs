//! Cluster parameters for the reliability model.

/// The physical parameters of §4's analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterParams {
    /// Number of disk nodes `N`.
    pub nodes: usize,
    /// Total data stored `C`, in bytes.
    pub total_data_bytes: f64,
    /// Block size `B`, in bytes.
    pub block_bytes: f64,
    /// Mean time to failure of a node, in days (`1/λ`).
    pub node_mttf_days: f64,
    /// Cross-rack repair bandwidth `γ`, in bits per second.
    pub cross_rack_bps: f64,
}

impl ClusterParams {
    /// The paper's Facebook-derived parameters: `N = 3000`, `C = 30 PB`,
    /// `B = 256 MB`, `1/λ = 4 years`, `γ = 1 Gbps`.
    pub fn facebook() -> Self {
        Self {
            nodes: 3000,
            total_data_bytes: 30e15,
            block_bytes: 256e6,
            node_mttf_days: 4.0 * 365.0,
            cross_rack_bps: 1e9,
        }
    }

    /// Per-node failure rate `λ`, in 1/day.
    pub fn lambda_per_day(&self) -> f64 {
        1.0 / self.node_mttf_days
    }

    /// Repair bandwidth in bytes/day.
    fn gamma_bytes_per_day(&self) -> f64 {
        self.cross_rack_bps / 8.0 * 86_400.0
    }

    /// Repair rate when a repair downloads `blocks_read` blocks:
    /// `ρ = γ / (b · B)`, in 1/day.
    pub fn repair_rate_per_day(&self, blocks_read: f64) -> f64 {
        assert!(blocks_read > 0.0, "a repair must read at least one block");
        self.gamma_bytes_per_day() / (blocks_read * self.block_bytes)
    }

    /// Number of stripes in the cluster for blocklength `n`
    /// (eqn (3): `C / (n·B)`).
    pub fn num_stripes(&self, n: usize) -> f64 {
        self.total_data_bytes / (n as f64 * self.block_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facebook_defaults_match_section_4() {
        let p = ClusterParams::facebook();
        assert_eq!(p.nodes, 3000);
        assert_eq!(p.total_data_bytes, 30e15);
        assert_eq!(p.node_mttf_days, 1460.0);
        // γ = 1 Gbps = 10.8 TB/day.
        assert!((p.gamma_bytes_per_day() - 1.08e13).abs() / 1.08e13 < 1e-9);
    }

    #[test]
    fn repair_rate_scales_inversely_with_reads() {
        let p = ClusterParams::facebook();
        let one = p.repair_rate_per_day(1.0);
        let ten = p.repair_rate_per_day(10.0);
        assert!((one / ten - 10.0).abs() < 1e-9);
        // One-block repair: 256 MB at 1 Gbps ≈ 2.05 s ≈ 42k repairs/day.
        assert!((one - 42187.5).abs() / 42187.5 < 1e-6);
    }

    #[test]
    fn stripe_counts_match_paper_magnitudes() {
        let p = ClusterParams::facebook();
        // ~39M replication stripes, ~8.4M RS stripes, ~7.3M LRC stripes.
        assert!((p.num_stripes(3) / 3.9e7 - 1.0).abs() < 0.03);
        assert!((p.num_stripes(14) / 8.37e6 - 1.0).abs() < 0.03);
        assert!((p.num_stripes(16) / 7.32e6 - 1.0).abs() < 0.03);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_read_repair_rejected() {
        let p = ClusterParams::facebook();
        let _ = p.repair_rate_per_day(0.0);
    }
}
