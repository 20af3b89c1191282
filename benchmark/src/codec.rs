//! In-memory stripes for the codec workload and the `core` layer
//! probes: lanes filled from the seed, encoded through
//! `CodecInstance::encode_into`, repaired through a compiled
//! `RepairSession` — the zero-copy surface the node and the simulator
//! both call.

use crate::gen;
use xorbas_core::{CodeSpec, RepairSession, StripeViewMut};
use xorbas_sim::codecs::CodecInstance;

pub struct Stripe {
    pub codec: CodecInstance,
    pub k: usize,
    pub lane_bytes: usize,
    /// `k` data lanes, then the parity lanes.
    pub lanes: Vec<Vec<u8>>,
}

impl Stripe {
    /// Data lanes from `(seed, stream + lane)`, parity lanes encoded.
    pub fn new(spec: CodeSpec, lane_bytes: usize, seed: u64, stream: u64) -> Result<Self, String> {
        let codec =
            CodecInstance::build(spec).map_err(|e| format!("build {}: {e}", spec.name()))?;
        let k = spec.data_blocks();
        let lanes = (0..spec.total_blocks())
            .map(|i| {
                if i < k {
                    gen::bytes(seed, stream + i as u64, lane_bytes)
                } else {
                    vec![0u8; lane_bytes]
                }
            })
            .collect();
        let mut stripe = Self {
            codec,
            k,
            lane_bytes,
            lanes,
        };
        stripe.encode()?;
        Ok(stripe)
    }

    pub fn data_bytes(&self) -> usize {
        self.k * self.lane_bytes
    }

    /// One `encode_into` over the whole stripe.
    pub fn encode(&mut self) -> Result<(), String> {
        let (data, parity) = self.lanes.split_at_mut(self.k);
        let data: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let mut parity: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        self.codec
            .encode_into(std::hint::black_box(&data), &mut parity)
            .map_err(|e| format!("encode_into: {e}"))
    }

    /// Compiles the repair session for `missing` and proves it: the
    /// missing lanes are wiped, replayed, and must come back as encoded.
    pub fn session(&mut self, missing: &[usize]) -> Result<RepairSession, String> {
        let session = self
            .codec
            .repair_session(missing)
            .ok_or("codec has no repair session")?
            .map_err(|e| format!("compile session {missing:?}: {e}"))?;
        let saved: Vec<Vec<u8>> = missing.iter().map(|&i| self.lanes[i].clone()).collect();
        for &i in missing {
            self.lanes[i].fill(0xA5);
        }
        self.replay(&session)?;
        for (&i, want) in missing.iter().zip(&saved) {
            if self.lanes[i] != *want {
                return Err(format!(
                    "{}: lane {i} did not round-trip through repair of {missing:?}",
                    self.codec.spec().name()
                ));
            }
        }
        Ok(session)
    }

    /// One session replay in place (the missing lanes are overwritten).
    pub fn replay(&mut self, session: &RepairSession) -> Result<(), String> {
        let mut refs: Vec<&mut [u8]> = self.lanes.iter_mut().map(Vec::as_mut_slice).collect();
        let mut view =
            StripeViewMut::new(&mut refs, session.missing()).map_err(|e| format!("view: {e}"))?;
        session
            .repair(std::hint::black_box(&mut view))
            .map_err(|e| format!("replay: {e}"))
    }
}
