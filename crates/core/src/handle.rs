//! [`Codec`]: the one object the simulator, the chunk servers and the
//! benchmark hold when they mean "whatever implements this
//! [`CodeSpec`]".
//!
//! Which concrete family and field sit behind a spec is decided here and
//! nowhere else, so a new family is one more arm of [`Codec::build`]
//! rather than one more arm of every method in every consumer.

use crate::codec::{ErasureCodec, RepairPlan};
use crate::error::Result;
use crate::session::RepairSession;
use crate::spec::CodeSpec;
use crate::{Lrc, PiggybackRs, ReedSolomon, Replication, WideLrc, WidePiggyback, WideReedSolomon};
use std::fmt;
use std::sync::Arc;

/// Highest stripe blocklength GF(2^8) supports (`q - 1`); wider specs
/// build over GF(2^16).
const GF256_MAX_LANES: usize = 255;

/// A built codec for one [`CodeSpec`], cheap to clone and share across
/// threads.
///
/// [`Codec::build`] picks the field from the geometry: specs whose
/// stripe fits GF(2^8) use it (one-byte symbols, the paper's
/// deployment); wider stripes — e.g. [`CodeSpec::RS_200_60`] or the
/// [`CodeSpec::LRC_WIDE`] layout at 260 lanes — build over GF(2^16).
/// The methods mirror [`ErasureCodec`]'s borrowed-buffer surface so
/// holders need not name the trait.
#[derive(Clone)]
pub struct Codec(Arc<dyn ErasureCodec + Send + Sync>);

impl fmt::Debug for Codec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Codec").field(&self.spec()).finish()
    }
}

impl Codec {
    /// Validates `spec` ([`CodeSpec::validate`]) and builds its codec
    /// (Appendix-D constructions), choosing GF(2^8) or GF(2^16) by the
    /// stripe blocklength.
    pub fn build(spec: CodeSpec) -> Result<Self> {
        spec.validate()?;
        let narrow = spec.total_blocks() <= GF256_MAX_LANES;
        Ok(Self(match spec {
            CodeSpec::Replication { replicas } => Arc::new(Replication::new(replicas)?),
            CodeSpec::ReedSolomon { k, m } if narrow => Arc::new(<ReedSolomon>::new(k, m)?),
            CodeSpec::ReedSolomon { k, m } => Arc::new(WideReedSolomon::new(k, m)?),
            CodeSpec::Lrc(spec) if narrow => Arc::new(<Lrc>::new(spec)?),
            CodeSpec::Lrc(spec) => Arc::new(WideLrc::new(spec)?),
            CodeSpec::Piggyback { k, m } if narrow => Arc::new(<PiggybackRs>::new(k, m)?),
            CodeSpec::Piggyback { k, m } => Arc::new(WidePiggyback::new(k, m)?),
        }))
    }

    /// The spec this codec implements.
    pub fn spec(&self) -> CodeSpec {
        self.0.spec()
    }

    /// Stripe blocklength `n`.
    pub fn total_blocks(&self) -> usize {
        self.0.total_blocks()
    }

    /// Bytes per payload symbol (see [`ErasureCodec::symbol_bytes`]):
    /// which field, and how many substripes, `build` chose.
    pub fn symbol_bytes(&self) -> usize {
        self.0.symbol_bytes()
    }

    /// Whether this codec's arithmetic commutes with [`crate::digest`]:
    /// its encode and every repair session combine whole lanes with
    /// GF(2^8) coefficients, so the lanes' digests, read as 8-byte lanes,
    /// encode and repair exactly as the lanes do. True for RS and LRC
    /// over GF(2^8) and for replication (one-byte symbols); false for
    /// Piggyback, whose steps act on half lanes, and for every GF(2^16)
    /// codec, whose coefficients are not bytes.
    pub fn commutes_with_digest(&self) -> bool {
        self.symbol_bytes() == 1
    }

    /// Zero-copy encode into caller-owned parity lanes (see
    /// [`ErasureCodec::encode_into`]).
    pub fn encode_into(&self, data: &[&[u8]], parity: &mut [&mut [u8]]) -> Result<()> {
        self.0.encode_into(data, parity)
    }

    /// Plans reconstruction of `targets` given `unavailable` positions
    /// (see [`ErasureCodec::repair_plan_for`]).
    pub fn repair_plan_for(&self, unavailable: &[usize], targets: &[usize]) -> Result<RepairPlan> {
        self.0.repair_plan_for(unavailable, targets)
    }

    /// Compiles a reusable [`RepairSession`] for one failure pattern
    /// (see [`ErasureCodec::repair_session`]).
    ///
    /// Always `Some`: the `Option` dates from when replication had no
    /// session and is kept only because the frozen `benchmark/` harness
    /// compiles against this exact signature.
    pub fn repair_session(&self, unavailable: &[usize]) -> Option<Result<RepairSession>> {
        Some(self.0.repair_session(unavailable))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::owned;

    /// Encodes `data` with the codec behind the handle, erases `lost`,
    /// replays the compiled session, and checks every lane came back.
    fn round_trip(codec: &Codec, data: &[Vec<u8>], lost: &[usize]) {
        let stripe = owned::encode(&*codec.0, data).unwrap();
        let mut lanes = stripe.clone();
        owned::repair(&*codec.0, &mut lanes, lost).unwrap();
        assert_eq!(lanes, stripe, "{}", codec.spec().name());
    }

    #[test]
    fn every_family_round_trips_through_the_handle() {
        let data: Vec<Vec<u8>> = (0..10).map(|i| vec![i as u8 + 1; 16]).collect();
        for spec in [CodeSpec::RS_10_4, CodeSpec::LRC_10_6_5, CodeSpec::PB_10_4] {
            round_trip(&Codec::build(spec).unwrap(), &data, &[0, 11]);
        }
        let rep = Codec::build(CodeSpec::REPLICATION_3).unwrap();
        round_trip(&rep, &data[..1], &[2]);
        // Verify-mode arithmetic through the GF(2^16) codec: all 260
        // lanes from 200 data payloads, a mixed data + global loss.
        let wide: Vec<Vec<u8>> = (0..200).map(|i| vec![(i % 251) as u8 + 1; 16]).collect();
        round_trip(&Codec::build(CodeSpec::LRC_WIDE).unwrap(), &wide, &[0, 230]);
    }

    /// The digest of `lane`, as the 8-byte lane a codec encodes.
    fn digest_lane(lane: &[u8]) -> Vec<u8> {
        let mut acc = [0u8; crate::digest::BLOCK];
        let mut padded = lane.to_vec();
        padded.resize(lane.len().div_ceil(acc.len()) * acc.len(), 0);
        crate::digest::horner(&mut acc, &padded);
        crate::digest::fold(&acc).to_vec()
    }

    /// Encoding the data lanes' digests gives the parity lanes' digests
    /// exactly for the codecs that say they commute with the digest, and
    /// not for the others.
    #[test]
    fn lane_digests_encode_as_the_lanes_do_where_the_codec_commutes() {
        for spec in [
            CodeSpec::RS_10_4,
            CodeSpec::LRC_10_6_5,
            CodeSpec::REPLICATION_3,
            CodeSpec::PB_10_4,
            CodeSpec::LRC_WIDE,
        ] {
            let codec = Codec::build(spec).unwrap();
            let k = spec.data_blocks();
            let data: Vec<Vec<u8>> = (0..k)
                .map(|i| {
                    (0..1000)
                        .map(|j| (i * 131 + j * 7 + j / 97) as u8)
                        .collect()
                })
                .collect();
            let stripe = owned::encode(&*codec.0, &data).unwrap();
            let digests: Vec<Vec<u8>> = stripe.iter().map(|l| digest_lane(l)).collect();
            let encoded = owned::encode(&*codec.0, &digests[..k]).unwrap();
            assert_eq!(
                encoded == digests,
                codec.commutes_with_digest(),
                "{}",
                spec.name()
            );
        }
    }

    #[test]
    fn build_validates_the_spec() {
        assert!(Codec::build(CodeSpec::Replication { replicas: 1 }).is_err());
        assert!(Codec::build(CodeSpec::ReedSolomon { k: 10, m: 0 }).is_err());
        assert!(Codec::build(CodeSpec::Piggyback { k: 10, m: 1 }).is_err());
    }

    #[test]
    fn wide_specs_build_over_gf65536_and_keep_repair_local() {
        // 260-lane stripes exceed GF(2^8); build must pick the wide
        // field automatically and plan with the real wide codecs.
        let lrc = Codec::build(CodeSpec::LRC_WIDE).unwrap();
        assert_eq!(lrc.symbol_bytes(), 2);
        assert_eq!(lrc.total_blocks(), 260);
        let plan = lrc.repair_plan_for(&[3], &[3]).unwrap();
        assert!(plan.is_light());
        assert_eq!(plan.blocks_read(), 10);

        let rs = Codec::build(CodeSpec::RS_200_60).unwrap();
        assert_eq!(rs.symbol_bytes(), 2);
        let plan = rs.repair_plan_for(&[3], &[3]).unwrap();
        assert!(!plan.is_light());
        assert_eq!(plan.blocks_read(), 200);

        // Narrow specs keep the GF(2^8) instantiation.
        for spec in [CodeSpec::RS_10_4, CodeSpec::LRC_10_6_5] {
            assert_eq!(Codec::build(spec).unwrap().symbol_bytes(), 1);
        }
    }

    #[test]
    fn piggyback_builds_both_fields_and_reads_fewer_bytes() {
        // Two substripes per lane: 2 one-byte symbols narrow, 2 two-byte
        // symbols wide.
        let pb = Codec::build(CodeSpec::PB_10_4).unwrap();
        assert_eq!(pb.symbol_bytes(), 2);
        let plan = pb.repair_plan_for(&[3], &[3]).unwrap();
        assert!(!plan.is_light());
        assert_eq!(plan.blocks_read(), 11);
        assert!(plan.read_volume() <= 7.0);

        let wide = Codec::build(CodeSpec::PB_200_60).unwrap();
        assert_eq!(wide.symbol_bytes(), 4);
        assert_eq!(wide.total_blocks(), 260);
        let plan = wide.repair_plan_for(&[3], &[3]).unwrap();
        // (k + group)/2 with groups of 200/59 rounded: far below k=200.
        assert!(plan.read_volume() < 0.52 * 200.0, "{}", plan.read_volume());
    }
}
