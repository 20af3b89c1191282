//! Code specifications and stripe geometry.
//!
//! The paper compares three redundancy schemes on equal data-stripe size
//! (§4): 3-way replication, the (10,4) Reed-Solomon code deployed in
//! HDFS-RAID, and the (10,6,5) LRC deployed in HDFS-Xorbas. [`CodeSpec`]
//! captures their geometry; [`LrcSpec`] carries the extra structure an
//! LRC needs (group size, implied parity).

use crate::error::{CodeError, Result};

/// The widest stripe any codec here can carry: GF(2^16) has 65 535
/// nonzero evaluation points.
const MAX_LANES: usize = (1 << 16) - 1;

/// Geometry of an LRC: which blocks exist and how they are grouped.
///
/// Using the paper's notation, this describes a `(k, n - k, r)` code
/// where `n = k + global_parities + k/group_size (+ 1 when the parity
/// group's local parity is stored rather than implied)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LrcSpec {
    /// Number of data blocks per stripe (`k`).
    pub k: usize,
    /// Number of Reed-Solomon global parities (`P_1..P_g`).
    pub global_parities: usize,
    /// Data blocks per local repair group (`r`); must divide `k`.
    pub group_size: usize,
    /// When true, the local parity of the *parity* group (`S3` in Fig. 2)
    /// is not stored: the alignment `S1 + S2 + S3 = 0` makes it implied.
    /// Requires the aligned Reed-Solomon construction with unit
    /// coefficients (§2.1, Appendix D).
    pub implied_parity: bool,
}

impl LrcSpec {
    /// The (10,6,5) LRC implemented in HDFS-Xorbas (Fig. 2).
    pub const XORBAS: LrcSpec = LrcSpec {
        k: 10,
        global_parities: 4,
        group_size: 5,
        implied_parity: true,
    };

    /// A wide-stripe (200, 60, 10)-class LRC beyond GF(2^8)'s 255-lane
    /// ceiling: 20 data groups of 10, 40 global parities, implied
    /// parity — n = 260 stored lanes at 1.3x storage (the same overhead
    /// as its RS(200, 60) MDS contrast, but any single data-block
    /// failure repairs from 10 lanes instead of 200). Requires a field
    /// with at least 240 nonzero points for the base code — GF(2^16).
    pub const WIDE: LrcSpec = LrcSpec {
        k: 200,
        global_parities: 40,
        group_size: 10,
        implied_parity: true,
    };

    /// Validates the structural constraints.
    pub fn validate(&self) -> Result<()> {
        if self.k == 0 || self.global_parities == 0 || self.group_size == 0 {
            return Err(CodeError::InvalidParameters(
                "k, global parities and group size must be positive".into(),
            ));
        }
        if !self.k.is_multiple_of(self.group_size) {
            return Err(CodeError::InvalidParameters(format!(
                "group size {} must divide k = {}",
                self.group_size, self.k
            )));
        }
        Ok(())
    }

    /// Number of data groups (`k / r`), each with one stored local parity.
    pub fn data_groups(&self) -> usize {
        self.k / self.group_size
    }

    /// Number of stored local parity blocks.
    fn stored_local_parities(&self) -> usize {
        self.data_groups() + usize::from(!self.implied_parity)
    }

    /// Total stored blocks per stripe (`n`).
    pub fn total_blocks(&self) -> usize {
        self.k + self.global_parities + self.stored_local_parities()
    }

    /// Stored parity blocks per stripe (`n - k`).
    pub fn parity_blocks(&self) -> usize {
        self.total_blocks() - self.k
    }

    /// Block locality: the number of blocks read to repair any single
    /// failure. Data and local-parity blocks read `group_size`; a global
    /// parity reads its `g - 1` peers plus either the stored parity-group
    /// local parity (1 block) or all data-group local parities (implied).
    pub fn locality(&self) -> usize {
        let parity_repair = if self.implied_parity {
            self.global_parities - 1 + self.data_groups()
        } else {
            self.global_parities
        };
        self.group_size.max(parity_repair)
    }

    /// The paper-style `(k, n - k, r)` triple.
    pub fn triple(&self) -> (usize, usize, usize) {
        (self.k, self.parity_blocks(), self.locality())
    }
}

/// A redundancy scheme, in the paper's notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeSpec {
    /// `f`-way replication (the stripe is one logical block stored
    /// `replicas` times).
    Replication {
        /// Total number of copies, e.g. 3 for HDFS default replication.
        replicas: usize,
    },
    /// A `(k, n - k)` Reed-Solomon code: `k` data and `m = n - k` parity
    /// blocks; tolerates any `m` erasures (MDS).
    ReedSolomon {
        /// Data blocks per stripe.
        k: usize,
        /// Parity blocks per stripe.
        m: usize,
    },
    /// A locally repairable code.
    Lrc(LrcSpec),
    /// A 2-substripe *piggybacked* `(k, m)` Reed-Solomon code: the same
    /// lanes, storage overhead and erasure tolerance as
    /// [`CodeSpec::ReedSolomon`], but every lane is split into two
    /// substripes and the parities of the second substripe carry
    /// piggybacks of first-substripe data, so a single lost data block
    /// repairs from roughly `(k + k/(m-1))/2` block-volumes of reads
    /// instead of `k`.
    Piggyback {
        /// Data blocks per stripe.
        k: usize,
        /// Parity blocks per stripe; must be at least 2 (one parity
        /// stays clean, the rest carry piggybacks).
        m: usize,
    },
}

impl CodeSpec {
    /// 3-way replication, the HDFS default the paper benchmarks against.
    pub const REPLICATION_3: CodeSpec = CodeSpec::Replication { replicas: 3 };
    /// The RS(10,4) used in Facebook's HDFS-RAID ("HDFS-RS").
    pub const RS_10_4: CodeSpec = CodeSpec::ReedSolomon { k: 10, m: 4 };
    /// The (10,6,5) LRC used in HDFS-Xorbas.
    pub const LRC_10_6_5: CodeSpec = CodeSpec::Lrc(LrcSpec::XORBAS);
    /// The wide-stripe (200, 60, 10)-class LRC (260 lanes, GF(2^16)).
    pub const LRC_WIDE: CodeSpec = CodeSpec::Lrc(LrcSpec::WIDE);
    /// The RS(200, 60) wide-stripe MDS contrast (260 lanes, GF(2^16)):
    /// the same 1.3x storage as [`CodeSpec::LRC_WIDE`], but every repair
    /// reads `k = 200` blocks.
    pub const RS_200_60: CodeSpec = CodeSpec::ReedSolomon { k: 200, m: 60 };
    /// The piggybacked RS(10,4): identical geometry and 1.4x storage to
    /// [`CodeSpec::RS_10_4`], but a single lost data block reads ~6.7
    /// block-volumes instead of 10.
    pub const PB_10_4: CodeSpec = CodeSpec::Piggyback { k: 10, m: 4 };
    /// The wide-stripe piggybacked RS(200, 60) (260 lanes, GF(2^16)):
    /// the same 1.3x storage as [`CodeSpec::RS_200_60`] with ~0.5x its
    /// single-data-loss repair bytes.
    pub const PB_200_60: CodeSpec = CodeSpec::Piggyback { k: 200, m: 60 };

    /// Validates the parameters: whether a codec can exist for this
    /// spec. [`crate::Codec::build`] and every decoder of an externally
    /// supplied spec (the node's manifest) share this one definition.
    ///
    /// Replication needs a second copy to repair from, RS a data and a
    /// parity block, the piggyback a clean parity plus a piggybacked
    /// one, an LRC its [`LrcSpec::validate`] structure; and no stripe
    /// may be wider than GF(2^16)'s 65 535 lanes.
    pub fn validate(&self) -> Result<()> {
        let repairable = match *self {
            CodeSpec::Replication { replicas } => replicas >= 2,
            CodeSpec::ReedSolomon { k, m } => k >= 1 && m >= 1,
            CodeSpec::Lrc(spec) => {
                spec.validate()?;
                true
            }
            CodeSpec::Piggyback { k, m } => k >= 1 && m >= 2,
        };
        if !repairable {
            return Err(CodeError::InvalidParameters(format!(
                "{} has too few blocks to repair from",
                self.name()
            )));
        }
        if self.total_blocks() > MAX_LANES {
            return Err(CodeError::InvalidParameters(format!(
                "{} is wider than the {MAX_LANES} lanes GF(2^16) carries",
                self.name()
            )));
        }
        Ok(())
    }

    /// Data blocks per stripe (`k`).
    pub fn data_blocks(&self) -> usize {
        match *self {
            CodeSpec::Replication { .. } => 1,
            CodeSpec::ReedSolomon { k, .. } => k,
            CodeSpec::Lrc(spec) => spec.k,
            CodeSpec::Piggyback { k, .. } => k,
        }
    }

    /// Stored blocks per stripe (`n`).
    pub fn total_blocks(&self) -> usize {
        match *self {
            CodeSpec::Replication { replicas } => replicas,
            CodeSpec::ReedSolomon { k, m } => k + m,
            CodeSpec::Lrc(spec) => spec.total_blocks(),
            CodeSpec::Piggyback { k, m } => k + m,
        }
    }

    /// Storage overhead beyond the data itself, `(n - k) / k`:
    /// 2.0 for 3-replication, 0.4 for RS(10,4), 0.6 for LRC(10,6,5)
    /// (Table 1's "storage overhead" column).
    pub fn storage_overhead(&self) -> f64 {
        let k = self.data_blocks() as f64;
        (self.total_blocks() as f64 - k) / k
    }

    /// Blocks that must be *touched* to repair a single lost block.
    ///
    /// Replication reads the surviving copy (1); RS reads `k`; LRC reads
    /// its locality (5 for the Xorbas code). This is Table 1's "repair
    /// traffic" column, normalized to replication. The piggybacked RS
    /// touches `k + 1` distinct blocks for a lost data block but fetches
    /// only half of most of them — the byte-volume win shows up in
    /// [`crate::RepairPlan::read_volume`], not here.
    pub fn single_repair_reads(&self) -> usize {
        match *self {
            CodeSpec::Replication { .. } => 1,
            CodeSpec::ReedSolomon { k, .. } => k,
            CodeSpec::Lrc(spec) => spec.locality(),
            CodeSpec::Piggyback { k, .. } => k + 1,
        }
    }

    /// Upper bound on the minimum distance implied by the parameters.
    ///
    /// Replication and MDS specs are exact (`replicas` and `m + 1`); for
    /// LRC specs this is the Theorem-2 bound `n - ⌈k/r⌉ - k + 2`, which
    /// overlapping-group structures like the Xorbas code may not reach —
    /// use `analysis::minimum_distance` on the built codec for the exact
    /// value (5 for the (10,6,5) code, per Theorem 5).
    pub fn distance_upper_bound(&self) -> usize {
        match *self {
            CodeSpec::Replication { replicas } => replicas,
            // Piggybacking preserves the MDS property: each substripe
            // decodes from any k lanes (the second after subtracting the
            // piggybacks, which live entirely in the first).
            CodeSpec::ReedSolomon { m, .. } | CodeSpec::Piggyback { m, .. } => m + 1,
            CodeSpec::Lrc(spec) => {
                let n = spec.total_blocks();
                let k = spec.k;
                let r = spec.locality();
                n - k.div_ceil(r) - k + 2
            }
        }
    }

    /// Which positions of a stripe with `real_data` data blocks are
    /// structurally zero and therefore not stored (§3.1.1 zero padding),
    /// written into a caller-reused buffer (cleared first) so a
    /// namespace load allocates nothing per stripe.
    ///
    /// Data positions beyond `real_data` are virtual; a local parity is
    /// virtual when its whole group is virtual (its XOR would be the
    /// zero block); global parities are always stored.
    pub fn virtual_mask_into(&self, real_data: usize, out: &mut Vec<bool>) {
        out.clear();
        match *self {
            CodeSpec::Replication { replicas } => out.resize(replicas, false),
            // The piggybacked RS shares the RS lane layout; its parities
            // are always stored (a piggyback of virtual zero lanes is
            // just the clean RS parity).
            CodeSpec::ReedSolomon { k, m } | CodeSpec::Piggyback { k, m } => {
                out.extend((0..k + m).map(|p| p < k && p >= real_data));
            }
            CodeSpec::Lrc(spec) => {
                let locals = spec.k + spec.global_parities;
                out.extend((0..spec.total_blocks()).map(|p| {
                    if p < spec.k {
                        p >= real_data
                    } else if (locals..locals + spec.data_groups()).contains(&p) {
                        // S_t is zero when its group holds no real data.
                        (p - locals) * spec.group_size >= real_data
                    } else {
                        false // global and stored parity-group parities
                    }
                }));
            }
        }
    }

    /// Whether stripe position `pos` holds a local (repair-group) parity
    /// rather than data or a global parity. Only LRCs have any; their
    /// layout puts them after the global parities.
    pub fn is_local_parity(&self, pos: usize) -> bool {
        matches!(*self, CodeSpec::Lrc(spec) if pos >= spec.k + spec.global_parities)
    }

    /// Human-readable name in the paper's style.
    pub fn name(&self) -> String {
        match *self {
            CodeSpec::Replication { replicas } => format!("{replicas}-replication"),
            CodeSpec::ReedSolomon { k, m } => format!("RS ({k}, {m})"),
            CodeSpec::Lrc(spec) => {
                let (k, nk, r) = spec.triple();
                format!("LRC ({k}, {nk}, {r})")
            }
            CodeSpec::Piggyback { k, m } => format!("Piggybacked RS ({k}, {m})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorbas_spec_matches_paper_figure_2() {
        let s = LrcSpec::XORBAS;
        s.validate().unwrap();
        assert_eq!(s.total_blocks(), 16);
        assert_eq!(s.parity_blocks(), 6);
        assert_eq!(s.data_groups(), 2);
        assert_eq!(s.stored_local_parities(), 2);
        assert_eq!(s.locality(), 5);
        assert_eq!(s.triple(), (10, 6, 5));
    }

    #[test]
    fn stored_parity_variant_costs_one_more_block() {
        let stored = LrcSpec {
            implied_parity: false,
            ..LrcSpec::XORBAS
        };
        assert_eq!(stored.total_blocks(), 17);
        assert_eq!(stored.locality(), 5);
    }

    #[test]
    fn wide_specs_cross_the_255_lane_ceiling_at_rs_storage() {
        let w = LrcSpec::WIDE;
        w.validate().unwrap();
        assert_eq!(w.total_blocks(), 260);
        assert_eq!(w.parity_blocks(), 60);
        assert_eq!(w.data_groups(), 20);
        // Equal storage overhead with the MDS contrast; ~4.6x less than
        // the paper's (10,6,5) per-byte overhead gap vs RS(10,4).
        assert!((CodeSpec::LRC_WIDE.storage_overhead() - 0.3).abs() < 1e-12);
        assert!((CodeSpec::RS_200_60.storage_overhead() - 0.3).abs() < 1e-12);
        assert_eq!(CodeSpec::RS_200_60.total_blocks(), 260);
        // Repair asymmetry: the whole point of the wide LRC.
        assert_eq!(CodeSpec::RS_200_60.single_repair_reads(), 200);
        assert!(CodeSpec::LRC_WIDE.single_repair_reads() < 60);
    }

    #[test]
    fn table_1_storage_overheads() {
        assert_eq!(CodeSpec::REPLICATION_3.storage_overhead(), 2.0);
        assert!((CodeSpec::RS_10_4.storage_overhead() - 0.4).abs() < 1e-12);
        assert!((CodeSpec::LRC_10_6_5.storage_overhead() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn table_1_repair_traffic() {
        assert_eq!(CodeSpec::REPLICATION_3.single_repair_reads(), 1);
        assert_eq!(CodeSpec::RS_10_4.single_repair_reads(), 10);
        assert_eq!(CodeSpec::LRC_10_6_5.single_repair_reads(), 5);
    }

    #[test]
    fn distance_bounds_match_section_4() {
        // Replication loses data at 3 erasures; RS(10,4) at 5 (exact,
        // MDS). The LRC's Theorem-2 *bound* is 6; the structural optimum
        // for n=16, r=5 is 5 (Theorem 5), verified exactly in
        // `analysis::tests::xorbas_lrc_distance_is_5`.
        assert_eq!(CodeSpec::REPLICATION_3.distance_upper_bound(), 3);
        assert_eq!(CodeSpec::RS_10_4.distance_upper_bound(), 5);
        assert_eq!(CodeSpec::LRC_10_6_5.distance_upper_bound(), 6);
    }

    #[test]
    fn names_follow_paper_notation() {
        assert_eq!(CodeSpec::REPLICATION_3.name(), "3-replication");
        assert_eq!(CodeSpec::RS_10_4.name(), "RS (10, 4)");
        assert_eq!(CodeSpec::LRC_10_6_5.name(), "LRC (10, 6, 5)");
    }

    #[test]
    fn piggyback_matches_rs_geometry_at_lower_repair_bytes() {
        // Equal storage and distance to the RS contrast at both widths;
        // the spec-level read count only reports *touched* blocks (k+1) —
        // the ~0.67x byte volume is pinned against the real planner in
        // `piggyback::tests`.
        assert_eq!(
            CodeSpec::PB_10_4.storage_overhead(),
            CodeSpec::RS_10_4.storage_overhead()
        );
        assert_eq!(CodeSpec::PB_10_4.total_blocks(), 14);
        assert_eq!(CodeSpec::PB_10_4.distance_upper_bound(), 5);
        assert_eq!(CodeSpec::PB_10_4.single_repair_reads(), 11);
        assert_eq!(CodeSpec::PB_10_4.name(), "Piggybacked RS (10, 4)");
        assert_eq!(
            CodeSpec::PB_200_60.storage_overhead(),
            CodeSpec::RS_200_60.storage_overhead()
        );
        assert_eq!(CodeSpec::PB_200_60.total_blocks(), 260);
    }

    fn mask(spec: CodeSpec, real_data: usize) -> Vec<bool> {
        let mut out = vec![true; 3]; // stale contents must be cleared
        spec.virtual_mask_into(real_data, &mut out);
        out
    }

    #[test]
    fn masks_for_full_stripes_are_all_real() {
        for spec in [CodeSpec::RS_10_4, CodeSpec::LRC_10_6_5] {
            assert!(mask(spec, 10).iter().all(|&v| !v));
        }
        assert_eq!(mask(CodeSpec::REPLICATION_3, 1), vec![false; 3]);
    }

    #[test]
    fn rs_mask_pads_missing_data_only() {
        let mask3 = mask(CodeSpec::RS_10_4, 3);
        assert_eq!(mask3.iter().filter(|&&v| v).count(), 7);
        assert!(!mask3[0] && !mask3[2]);
        assert!(mask3[3] && mask3[9]);
        assert!(!mask3[10] && !mask3[13], "parities are stored");
        // The piggyback shares the RS lane layout.
        assert_eq!(mask(CodeSpec::PB_10_4, 3), mask3);
    }

    #[test]
    fn lrc_mask_drops_empty_group_local_parity() {
        // 3 real data blocks: group 2 (positions 5..10) is entirely
        // virtual, so S2 (position 15) is virtual too.
        let mask3 = mask(CodeSpec::LRC_10_6_5, 3);
        assert!(!mask3[14], "S1 has real members");
        assert!(mask3[15], "S2 covers only padding");
        assert!(mask3[4] && mask3[9]);
        assert!(!mask3[10] && !mask3[13]);
        // 6 real data groups -> both locals real.
        let mask6 = mask(CodeSpec::LRC_10_6_5, 6);
        assert!(!mask6[14] && !mask6[15]);
        // A stored parity-group parity (position 16) is never virtual.
        let stored = CodeSpec::Lrc(LrcSpec {
            implied_parity: false,
            ..LrcSpec::XORBAS
        });
        assert_eq!(mask(stored, 3).len(), 17);
        assert!(!mask(stored, 3)[16]);
    }

    #[test]
    fn local_parities_follow_the_globals() {
        let lrc = CodeSpec::LRC_10_6_5;
        assert!(!lrc.is_local_parity(9) && !lrc.is_local_parity(13));
        assert!(lrc.is_local_parity(14) && lrc.is_local_parity(15));
        assert!(!CodeSpec::RS_10_4.is_local_parity(13));
    }

    #[test]
    fn validate_is_the_single_definition_of_a_buildable_spec() {
        for spec in [
            CodeSpec::REPLICATION_3,
            CodeSpec::RS_10_4,
            CodeSpec::LRC_10_6_5,
            CodeSpec::PB_10_4,
            CodeSpec::PB_200_60,
        ] {
            spec.validate().unwrap();
        }
        for bad in [
            CodeSpec::Replication { replicas: 1 },
            CodeSpec::ReedSolomon { k: 0, m: 4 },
            CodeSpec::ReedSolomon { k: 10, m: 0 },
            CodeSpec::Piggyback { k: 10, m: 1 },
            CodeSpec::ReedSolomon { k: 65_000, m: 600 },
            CodeSpec::Lrc(LrcSpec {
                group_size: 3,
                ..LrcSpec::XORBAS
            }),
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn invalid_group_size_rejected() {
        let bad = LrcSpec {
            group_size: 3,
            ..LrcSpec::XORBAS
        };
        assert!(bad.validate().is_err());
        let zero = LrcSpec {
            k: 0,
            ..LrcSpec::XORBAS
        };
        assert!(zero.validate().is_err());
    }

    #[test]
    fn storage_overhead_of_implied_parity_is_14_percent_over_rs() {
        // §1: "requires 14% more storage compared to RS": 16/14 ≈ 1.143.
        let lrc = CodeSpec::LRC_10_6_5.total_blocks() as f64;
        let rs = CodeSpec::RS_10_4.total_blocks() as f64;
        assert!((lrc / rs - 1.0 - 0.142857).abs() < 1e-5);
    }
}
