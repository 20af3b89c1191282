//! Verify mode: real payloads in, real decodes checked on every repair.
//!
//! With [`SimConfig::verify_payloads`](crate::SimConfig) set, every
//! block carries a small deterministic payload encoded by the real
//! codec, and every restore replays the real decoder and compares. The
//! verifier owns the buffers and compiled sessions that makes cheap.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use xorbas_core::{Codec, RepairSession, StripeViewMut};

use crate::arena::StripeArena;
use crate::fasthash::FastMap;
use crate::hdfs::{BlockId, Hdfs, Position, StripeId};

#[derive(Default)]
pub(super) struct Verifier {
    /// Preallocated lane buffers (no per-repair allocation).
    arena: StripeArena,
    /// Compiled repair sessions, keyed by the stripe's failure pattern.
    /// The BlockFixer replays the same few patterns across thousands of
    /// stripes, so each pattern's decode solve runs exactly once.
    sessions: FastMap<Vec<usize>, RepairSession>,
}

impl Verifier {
    /// Reconstructs `block`'s payload with the real codec from the
    /// other positions of its stripe and compares with the original.
    /// Panics on a mismatch: a repair that corrupts bytes is a bug.
    pub(super) fn verify_repair(&mut self, hdfs: &Hdfs, codec: &Codec, len: usize, block: BlockId) {
        let meta = hdfs.block(block);
        let target_pos = meta.pos;
        let positions = hdfs.positions(meta.stripe);
        let Some(want) = hdfs.payload(block) else {
            debug_assert!(false, "verify mode stores payloads");
            return;
        };
        let lanes = self.arena.lanes(positions.len(), len);
        let mut missing: Vec<usize> = Vec::new();
        for (pos, p) in positions.iter().enumerate() {
            match p {
                Position::Virtual => lanes[pos].fill(0),
                Position::Real(b) => {
                    let bm = hdfs.block(*b);
                    match hdfs.payload(*b) {
                        Some(p) if pos != target_pos && bm.location.is_some() => {
                            lanes[pos].copy_from_slice(p);
                        }
                        // A live block without a stored payload is a
                        // bookkeeping bug; decode it like a loss.
                        other => {
                            debug_assert!(
                                other.is_some() || pos == target_pos || bm.location.is_none(),
                                "verify mode stores payloads"
                            );
                            missing.push(pos);
                        }
                    }
                }
            }
        }
        let session = match self.sessions.entry(missing.clone()) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(slot) => {
                // A block was just repaired, so this pattern must
                // compile; if it does not, skip verification rather
                // than poison the cache.
                let Some(Ok(session)) = codec.repair_session(&missing) else {
                    debug_assert!(false, "repaired erasure patterns compile to sessions");
                    return;
                };
                slot.insert(session)
            }
        };
        let mut lane_refs: Vec<&mut [u8]> = lanes.iter_mut().map(Vec::as_mut_slice).collect();
        let Ok(mut view) = StripeViewMut::new(&mut lane_refs, &missing) else {
            debug_assert!(false, "arena lanes share one length");
            return;
        };
        if let Err(e) = session.repair(&mut view) {
            debug_assert!(false, "cached session repairs its own pattern: {e}");
            return;
        }
        assert_eq!(
            &lanes[target_pos], want,
            "repair of block {block} corrupted its payload"
        );
    }
}

/// Encoded payloads for a file of `data_blocks` blocks whose first
/// stripe gets id `base`: every position of every stripe, keyed by
/// stripe id (padding positions are all-zero lanes).
pub(super) fn payload_table(
    codec: &Codec,
    len: usize,
    base: StripeId,
    data_blocks: usize,
) -> HashMap<StripeId, Vec<Vec<u8>>> {
    let (k, n) = (codec.spec().data_blocks(), codec.spec().total_blocks());
    let mut table = HashMap::new();
    for j in 0..data_blocks.div_ceil(k).max(1) {
        let real = (data_blocks - j * k).min(k);
        let mut stripe: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                if i < real {
                    deterministic_payload(base + j, i, len)
                } else {
                    vec![0u8; len]
                }
            })
            .collect();
        let (data, parity) = stripe.split_at_mut(k);
        let data: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let mut parity: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        match codec.encode_into(&data, &mut parity) {
            Ok(()) => {
                table.insert(base + j, stripe);
            }
            // Unencodable data would only mean this constructor built a
            // malformed lane set; skip the table entry (verification is
            // simply not exercised for it).
            Err(_) => debug_assert!(false, "k equal-length data lanes encode"),
        }
    }
    table
}

/// Deterministic verify-mode payload for a (stripe, position).
fn deterministic_payload(stripe: usize, pos: usize, len: usize) -> Vec<u8> {
    let mut state = (stripe as u64)
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(pos as u64 + 1);
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 24) as u8
        })
        .collect()
}
