//! Range-sharded parallel stripe encoding.
//!
//! Erasure encoding is embarrassingly parallel along the payload axis:
//! byte `i` of every parity lane depends only on byte `i` of every data
//! lane (symbol `i` for wider fields). [`encode_into_parallel`] splits
//! the borrowed lanes into contiguous, symbol-aligned ranges and encodes
//! each range on its own scoped thread — no thread pool, no channels, no
//! external dependencies, and no copying: every worker writes straight
//! into a disjoint slice of the caller's parity buffers.

use crate::codec::{check_data_lanes, check_parity_lanes, ErasureCodec};
use crate::error::{CodeError, Result};

/// Encodes `k` borrowed data payloads into caller-provided parity
/// buffers, sharding the payload range across up to `threads` scoped
/// threads.
///
/// Bit-identical to [`ErasureCodec::encode_into`] (property-tested), and
/// falls back to it when a single shard would be fastest: one thread
/// requested or a payload too small to split. Accepts unsized codecs,
/// so `&dyn ErasureCodec + Sync` works.
///
/// # Errors
///
/// Shape errors ([`crate::CodeError::ShardCountMismatch`],
/// [`crate::CodeError::ShardSizeMismatch`]) are detected up front,
/// before any thread spawns. A payload that is not a whole number of
/// field symbols takes the serial path, which rejects it with
/// [`crate::CodeError::PayloadNotSymbolAligned`] for multi-byte-symbol
/// codecs.
pub fn encode_into_parallel<C>(
    codec: &C,
    data: &[&[u8]],
    parity: &mut [&mut [u8]],
    threads: usize,
) -> Result<()>
where
    C: ErasureCodec + Sync + ?Sized,
{
    let k = codec.data_blocks();
    let len = check_data_lanes(data, k)?;
    check_parity_lanes(parity, codec.total_blocks() - k, len)?;
    let sym = codec.symbol_bytes().max(1);
    let threads = threads.max(1);
    let symbols = len / sym;
    // Below ~4 KiB per shard the spawn overhead dominates the kernel.
    const MIN_SHARD_BYTES: usize = 4096;
    if threads == 1
        || len % sym != 0
        || symbols < threads
        || len / threads < MIN_SHARD_BYTES
        || parity.is_empty()
    {
        return codec.encode_into(data, parity);
    }
    let per_shard = symbols.div_ceil(threads) * sym;
    let bounds: Vec<(usize, usize)> = (0..threads)
        .filter_map(|t| {
            let start = t * per_shard;
            let end = ((t + 1) * per_shard).min(len);
            (start < end).then_some((start, end))
        })
        .collect();
    // Transpose the parity lanes into per-shard lane sets: shard `t`
    // owns bytes `bounds[t]` of every parity lane, disjointly.
    let mut shard_parity: Vec<Vec<&mut [u8]>> = bounds
        .iter()
        .map(|_| Vec::with_capacity(parity.len()))
        .collect();
    for lane in parity.iter_mut() {
        let mut rest: &mut [u8] = lane;
        for (t, &(start, end)) in bounds.iter().enumerate() {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(end - start);
            shard_parity[t].push(head);
            rest = tail;
        }
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = shard_parity
            .into_iter()
            .zip(&bounds)
            .map(|(mut pshard, &(start, _))| {
                scope.spawn(move || codec.encode_range_into(data, &mut pshard, start))
            })
            .collect();
        handles.into_iter().try_for_each(|h| {
            h.join().unwrap_or_else(|_| {
                Err(CodeError::ConstructionFailed(
                    "encode worker panicked".to_owned(),
                ))
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lrc, ReedSolomon};
    use xorbas_gf::{Gf256, Gf65536};

    fn sample(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 83 + j * 29 + 5) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    fn assert_parallel_matches<C: ErasureCodec + Sync>(codec: &C, len: usize, threads: usize) {
        let k = codec.data_blocks();
        let m = codec.total_blocks() - k;
        let data = sample(k, len);
        let data_refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let mut serial = vec![vec![0u8; len]; m];
        let mut serial_refs: Vec<&mut [u8]> = serial.iter_mut().map(Vec::as_mut_slice).collect();
        codec.encode_into(&data_refs, &mut serial_refs).unwrap();
        let mut par = vec![vec![0xAAu8; len]; m];
        let mut par_refs: Vec<&mut [u8]> = par.iter_mut().map(Vec::as_mut_slice).collect();
        encode_into_parallel(codec, &data_refs, &mut par_refs, threads).unwrap();
        assert_eq!(serial, par, "threads={threads} len={len}");
    }

    #[test]
    fn parallel_encode_matches_serial_rs_and_lrc() {
        let rs: ReedSolomon<Gf256> = ReedSolomon::new(10, 4).unwrap();
        let lrc = Lrc::xorbas_10_6_5().unwrap();
        for len in [0, 1, 1000, 64 * 1024, 64 * 1024 + 13] {
            for threads in [1, 2, 4, 7] {
                assert_parallel_matches(&rs, len, threads);
                assert_parallel_matches(&lrc, len, threads);
            }
        }
    }

    #[test]
    fn parallel_encode_respects_symbol_alignment() {
        // GF(2^16): shard boundaries must land on 2-byte symbols; an odd
        // payload length falls back to the serial path (which asserts the
        // same invariant the codec itself requires of whole payloads).
        let rs: ReedSolomon<Gf65536> = ReedSolomon::new(6, 3).unwrap();
        assert_eq!(rs.symbol_bytes(), 2);
        for len in [0, 2, 4096 * 6, 4096 * 6 + 2] {
            assert_parallel_matches(&rs, len, 4);
        }
    }

    #[test]
    fn parallel_encode_works_through_dyn_codec() {
        let lrc = Lrc::xorbas_10_6_5().unwrap();
        let dyn_codec: &(dyn ErasureCodec + Sync) = &lrc;
        let data = sample(10, 32 * 1024);
        let data_refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let mut parity = vec![vec![0u8; 32 * 1024]; 6];
        let mut parity_refs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        encode_into_parallel(dyn_codec, &data_refs, &mut parity_refs, 4).unwrap();
        let stripe = crate::owned::encode(&lrc, &data).unwrap();
        assert_eq!(&stripe[10..], &parity[..]);
    }

    #[test]
    fn parallel_encode_rejects_bad_shapes_before_spawning() {
        let rs: ReedSolomon<Gf256> = ReedSolomon::new(4, 2).unwrap();
        let data = sample(3, 8);
        let data_refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let mut parity = vec![vec![0u8; 8]; 2];
        let mut parity_refs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        assert!(encode_into_parallel(&rs, &data_refs, &mut parity_refs, 4).is_err());
    }
}
