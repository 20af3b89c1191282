//! `Vec<Vec<u8>>` conveniences over the borrowed-lane surface, for
//! tests, docs and examples that want a whole stripe as owned vectors.
//!
//! They allocate per call and compile a session per repair; anything on
//! a hot path holds its own buffers and calls
//! [`ErasureCodec::encode_into`] / [`ErasureCodec::repair_session`]
//! directly.

use crate::codec::{ErasureCodec, StripeViewMut};
use crate::error::Result;
use crate::session::RepairSession;

/// Written over every missing lane before replay, so a repair that
/// skipped a lane cannot pass by finding the original bytes still there.
const POISON: u8 = 0xEE;

/// Encodes `k` data payloads into all `n` stored payloads (data lanes
/// copied through bit-identically, parity lanes appended).
pub fn encode(codec: &(impl ErasureCodec + ?Sized), data: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
    let len = data.first().map_or(0, Vec::len);
    let mut parity = vec![vec![0u8; len]; codec.total_blocks() - codec.data_blocks()];
    let data_refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let mut parity_refs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
    codec.encode_into(&data_refs, &mut parity_refs)?;
    let mut stripe = data.to_vec();
    stripe.extend(parity);
    Ok(stripe)
}

/// Rebuilds the `missing` lanes of `lanes` in place: compiles the
/// pattern's session, poisons the missing lanes, replays. Returns the
/// session so callers can read what the repair cost
/// (`session.plan().blocks_read()`, `.is_light()`, …).
pub fn repair(
    codec: &(impl ErasureCodec + ?Sized),
    lanes: &mut [Vec<u8>],
    missing: &[usize],
) -> Result<RepairSession> {
    let session = codec.repair_session(missing)?;
    let mut refs: Vec<&mut [u8]> = lanes.iter_mut().map(Vec::as_mut_slice).collect();
    let mut view = StripeViewMut::new(&mut refs, missing)?;
    for &i in missing {
        view.lane_mut(i).fill(POISON);
    }
    session.repair(&mut view)?;
    Ok(session)
}
