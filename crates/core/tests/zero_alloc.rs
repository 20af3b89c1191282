//! Pins the zero-copy guarantees of the borrowed-buffer codec API:
//!
//! * `encode_into` performs **zero heap allocations** per stripe once
//!   buffers exist (measured with a counting global allocator);
//! * a compiled [`RepairSession`] repairs repeated stripes of one
//!   failure pattern with **zero allocations** and **zero further
//!   linear solves** (the `decode_solve_count` hook), while compiling
//!   a session per call (`owned::repair`) re-solves every call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xorbas_core::{
    decode_solve_count, owned, ErasureCodec, Lrc, LrcSpec, PiggybackRs, ReedSolomon, Replication,
    StripeViewMut,
};
use xorbas_gf::{Gf256, Gf65536};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the counter update is a
// plain thread-local `Cell` write with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract (nonzero
    // layout); forwarded verbatim to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    // SAFETY: caller passes a pointer previously returned by this
    // allocator with its original layout; forwarded verbatim to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: same contract as `dealloc` plus a nonzero `new_size`;
    // forwarded verbatim to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_now() -> u64 {
    ALLOCS.with(Cell::get)
}

fn sample_data(k: usize, len: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| {
            (0..len)
                .map(|j| ((i * 53 + j * 11 + 1) % 256) as u8)
                .collect()
        })
        .collect()
}

fn assert_encode_into_allocates_nothing<C: ErasureCodec>(codec: &C, label: &str) {
    let k = codec.data_blocks();
    let m = codec.total_blocks() - k;
    const LEN: usize = 4096;
    let data = sample_data(k, LEN);
    let data_refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let mut parity = vec![vec![0u8; LEN]; m];
    let mut parity_refs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
    // Warmup, then count.
    codec.encode_into(&data_refs, &mut parity_refs).unwrap();
    let before = allocs_now();
    for _ in 0..10 {
        codec.encode_into(&data_refs, &mut parity_refs).unwrap();
    }
    let after = allocs_now();
    assert_eq!(
        after - before,
        0,
        "{label}: encode_into allocated on the steady state"
    );
    // The lanes really were encoded: compare against the owned helper.
    let stripe = owned::encode(codec, &data).unwrap();
    assert_eq!(&stripe[k..], &parity[..], "{label}: parity mismatch");
}

#[test]
fn encode_into_is_allocation_free_after_warmup() {
    let rs: ReedSolomon<Gf256> = ReedSolomon::new(10, 4).unwrap();
    assert_encode_into_allocates_nothing(&rs, "rs(10,4)");
    let lrc = Lrc::xorbas_10_6_5().unwrap();
    assert_encode_into_allocates_nothing(&lrc, "lrc(10,6,5)");
}

#[test]
fn session_repair_is_allocation_free_and_solve_free() {
    let rs: ReedSolomon<Gf256> = ReedSolomon::new(10, 4).unwrap();
    const LEN: usize = 2048;
    let stripe = owned::encode(&rs, &sample_data(10, LEN)).unwrap();

    // Compiling the session runs the one Gaussian elimination.
    let solves_before_compile = decode_solve_count();
    let session = rs.repair_session(&[3, 7]).unwrap();
    assert_eq!(decode_solve_count(), solves_before_compile + 1);
    assert_eq!(session.solve_count(), 1);

    let mut lanes = stripe.clone();
    lanes[3].fill(0);
    lanes[7].fill(0);
    let mut lane_refs: Vec<&mut [u8]> = lanes.iter_mut().map(Vec::as_mut_slice).collect();
    // Warmup repair (first call touches nothing lazily, but keep the
    // measurement honest), then count allocations and solves across many
    // same-pattern repairs.
    {
        let mut view = StripeViewMut::new(&mut lane_refs, &[3, 7]).unwrap();
        session.repair(&mut view).unwrap();
    }
    let solves_before = decode_solve_count();
    let allocs_before = allocs_now();
    for _ in 0..25 {
        let mut view = StripeViewMut::new(&mut lane_refs, &[3, 7]).unwrap();
        session.repair(&mut view).unwrap();
    }
    assert_eq!(
        allocs_now() - allocs_before,
        0,
        "session repair allocated on the steady state"
    );
    assert_eq!(
        decode_solve_count() - solves_before,
        0,
        "session repair re-ran the linear solve"
    );
    drop(lane_refs);
    assert_eq!(lanes[3], stripe[3]);
    assert_eq!(lanes[7], stripe[7]);

    // Contrast: compiling a session per call, as the owned helper does,
    // re-solves every time.
    let solves_before_owned = decode_solve_count();
    for _ in 0..5 {
        owned::repair(&rs, &mut stripe.clone(), &[3, 7]).unwrap();
    }
    assert_eq!(decode_solve_count() - solves_before_owned, 5);
}

#[test]
fn gf65536_session_repair_is_allocation_free_and_solve_free() {
    // The GF(2^16) replay path builds its nibble tables per fused call;
    // they must live on the stack, and the compiled heavy solve must be
    // reused exactly like the GF(2^8) path. A wide-field (not wide-lane)
    // geometry keeps the test quick while exercising the same kernels a
    // 260-lane stripe runs.
    let rs: ReedSolomon<Gf65536> = ReedSolomon::new(12, 4).unwrap();
    assert_encode_into_allocates_nothing(&rs, "rs(12,4)/gf65536");
    const LEN: usize = 2048;
    let stripe = owned::encode(&rs, &sample_data(12, LEN)).unwrap();
    let solves_before_compile = decode_solve_count();
    let session = rs.repair_session(&[1, 9]).unwrap();
    assert_eq!(decode_solve_count(), solves_before_compile + 1);
    assert_eq!(session.solve_count(), 1);

    let mut lanes = stripe.clone();
    lanes[1].fill(0);
    lanes[9].fill(0);
    let mut lane_refs: Vec<&mut [u8]> = lanes.iter_mut().map(Vec::as_mut_slice).collect();
    {
        let mut view = StripeViewMut::new(&mut lane_refs, &[1, 9]).unwrap();
        session.repair(&mut view).unwrap();
    }
    let solves_before = decode_solve_count();
    let allocs_before = allocs_now();
    for _ in 0..25 {
        let mut view = StripeViewMut::new(&mut lane_refs, &[1, 9]).unwrap();
        session.repair(&mut view).unwrap();
    }
    assert_eq!(
        allocs_now() - allocs_before,
        0,
        "gf65536 session repair allocated on the steady state"
    );
    assert_eq!(
        decode_solve_count() - solves_before,
        0,
        "gf65536 session repair re-ran the linear solve"
    );
    drop(lane_refs);
    assert_eq!(lanes[1], stripe[1]);
    assert_eq!(lanes[9], stripe[9]);

    // The light (XOR-partition) GF(2^16) replay is equally pinned.
    let spec = LrcSpec {
        k: 8,
        global_parities: 3,
        group_size: 4,
        implied_parity: true,
    };
    let lrc: Lrc<Gf65536> = Lrc::new(spec).unwrap();
    assert_encode_into_allocates_nothing(&lrc, "lrc(8,5,4)/gf65536");
    let stripe = owned::encode(&lrc, &sample_data(8, LEN)).unwrap();
    let session = lrc.repair_session(&[2]).unwrap();
    assert_eq!(session.solve_count(), 0);
    let mut lanes = stripe.clone();
    lanes[2].fill(0xEE);
    let mut lane_refs: Vec<&mut [u8]> = lanes.iter_mut().map(Vec::as_mut_slice).collect();
    {
        let mut view = StripeViewMut::new(&mut lane_refs, &[2]).unwrap();
        session.repair(&mut view).unwrap();
    }
    let allocs_before = allocs_now();
    for _ in 0..25 {
        let mut view = StripeViewMut::new(&mut lane_refs, &[2]).unwrap();
        session.repair(&mut view).unwrap();
    }
    assert_eq!(allocs_now() - allocs_before, 0);
    drop(lane_refs);
    assert_eq!(lanes[2], stripe[2]);
}

/// Replays one compiled piggyback session 25 times and asserts the
/// steady state allocates nothing and never re-solves, then checks the
/// repaired lanes bit-for-bit against the pristine stripe.
fn assert_piggyback_replay_is_free(
    pb: &PiggybackRs<Gf256>,
    stripe: &[Vec<u8>],
    missing: &[usize],
    label: &str,
) {
    let solves_before_compile = decode_solve_count();
    let session = pb.repair_session(missing).unwrap();
    assert_eq!(
        decode_solve_count(),
        solves_before_compile + 1,
        "{label}: compile runs exactly one solve"
    );
    assert_eq!(session.solve_count(), 1, "{label}");

    let mut lanes = stripe.to_vec();
    for &e in missing {
        lanes[e].fill(0xEE);
    }
    let mut lane_refs: Vec<&mut [u8]> = lanes.iter_mut().map(Vec::as_mut_slice).collect();
    {
        let mut view = StripeViewMut::new(&mut lane_refs, missing).unwrap();
        session.repair(&mut view).unwrap();
    }
    let solves_before = decode_solve_count();
    let allocs_before = allocs_now();
    for _ in 0..25 {
        let mut view = StripeViewMut::new(&mut lane_refs, missing).unwrap();
        session.repair(&mut view).unwrap();
    }
    assert_eq!(
        allocs_now() - allocs_before,
        0,
        "{label}: piggyback replay allocated on the steady state"
    );
    assert_eq!(
        decode_solve_count() - solves_before,
        0,
        "{label}: piggyback replay re-ran the linear solve"
    );
    drop(lane_refs);
    for &e in missing {
        assert_eq!(lanes[e], stripe[e], "{label}: lane {e}");
    }
}

#[test]
fn piggyback_session_repair_is_allocation_free_and_solve_free() {
    // The 2-substripe replay runs through the sublane kernel path
    // (sibling half-lane reads split the destination lane three ways);
    // both it and the plain path must stay on the zero-alloc ratchet.
    let pb: PiggybackRs<Gf256> = PiggybackRs::new(10, 4).unwrap();
    assert_encode_into_allocates_nothing(&pb, "pb(10,4)");
    const LEN: usize = 2048;
    let stripe = owned::encode(&pb, &sample_data(10, LEN)).unwrap();

    // The fast path: one data lane, decoded from k+1 lanes' halves.
    assert_piggyback_replay_is_free(&pb, &stripe, &[4], "fast path");
    // The general path: a data + piggybacked-parity pair replays the
    // compiled coefficient rows plus the piggyback corrections.
    assert_piggyback_replay_is_free(&pb, &stripe, &[0, 12], "general path");
}

/// Compiles a session that must need no linear solve (a light LRC
/// pattern, a replica copy), replays it 25 times, and asserts neither
/// the compile nor the steady state solves or allocates.
fn assert_solve_free_replay<C: ErasureCodec>(codec: &C, missing: &[usize], label: &str) {
    let before = decode_solve_count();
    let session = codec.repair_session(missing).unwrap();
    assert_eq!(session.solve_count(), 0, "{label}");
    assert_eq!(decode_solve_count(), before, "{label}");

    const LEN: usize = 1024;
    let stripe = owned::encode(codec, &sample_data(codec.data_blocks(), LEN)).unwrap();
    let mut lanes = stripe.clone();
    for &e in missing {
        lanes[e].fill(0xEE);
    }
    let mut lane_refs: Vec<&mut [u8]> = lanes.iter_mut().map(Vec::as_mut_slice).collect();
    {
        let mut view = StripeViewMut::new(&mut lane_refs, missing).unwrap();
        session.repair(&mut view).unwrap();
    }
    let allocs_before = allocs_now();
    for _ in 0..25 {
        let mut view = StripeViewMut::new(&mut lane_refs, missing).unwrap();
        session.repair(&mut view).unwrap();
    }
    assert_eq!(allocs_now() - allocs_before, 0, "{label}");
    drop(lane_refs);
    assert_eq!(lanes, stripe, "{label}");
    assert_eq!(decode_solve_count(), before, "{label}: never solves");
}

#[test]
fn light_lrc_session_compiles_without_any_solve() {
    assert_solve_free_replay(&Lrc::xorbas_10_6_5().unwrap(), &[2], "lrc light");
}

#[test]
fn replication_encode_and_replay_are_allocation_free() {
    // Replication rides the same session machinery as the real codes:
    // a copy is the step `target = 1 · survivor`.
    let rep = Replication::new(3).unwrap();
    assert_encode_into_allocates_nothing(&rep, "3-replication");
    assert_solve_free_replay(&rep, &[0, 2], "3-replication");
}
