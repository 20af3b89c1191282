//! Ablation A5 — GF(2^m) byte-slice kernel throughput.
//!
//! The hot path of every encode and repair is the fused multi-source
//! row (one `dst` pass per output lane): pure XOR rows (what the LRC
//! light decoder runs), GF(2^8) rows (what RS encode and heavy decode
//! run), and GF(2^16) rows for wider fields. Each row shape is measured
//! on every backend the CPU supports *and* through the process-wide
//! dispatched entry point, so a dispatch regression and a kernel
//! regression are distinguishable; the `looped_` lanes issue the same
//! row as n one-source calls — one `dst` pass per source — which is
//! what fusion saves (cf. Uezato, "Accelerating XOR-based Erasure
//! Coding", SC 2021).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use xorbas_core::{ErasureCodec, Lrc};
use xorbas_gf::slice_ops::{
    mul_acc, mul_acc_multi, payload_mul_acc_multi, xor_into, xor_into_multi, KernelBackend,
};
use xorbas_gf::{Field, Gf256, Gf65536};

const BLOCK: usize = 1 << 20; // 1 MiB payloads, the benchmark's lane size

fn bench_fused_rows(c: &mut Criterion) {
    // The row shapes the codecs issue: a heavy RS row combines k = 10
    // coefficient streams into one output lane; an LRC light repair
    // XORs r = 5 streams.
    let srcs: Vec<Vec<u8>> = (0..10)
        .map(|i| {
            (0..BLOCK)
                .map(|j| ((i * 31 + j * 7 + 13) % 256) as u8)
                .collect()
        })
        .collect();
    let coeffs: Vec<Gf256> = (0..10).map(|i| Gf256::from_index(i * 23 + 2)).collect();
    let pairs: Vec<(Gf256, &[u8])> = coeffs
        .iter()
        .zip(&srcs)
        .map(|(&c, s)| (c, s.as_slice()))
        .collect();
    let xor_refs: Vec<&[u8]> = srcs.iter().take(5).map(Vec::as_slice).collect();
    let mut dst = vec![0u8; BLOCK];

    let mut g = c.benchmark_group("gf_kernels_fused");
    g.throughput(Throughput::Bytes((10 * BLOCK) as u64));
    for backend in KernelBackend::supported() {
        g.bench_function(format!("{}_mul_acc_multi_10x1MiB", backend.name()), |b| {
            b.iter(|| backend.payload_mul_acc_multi(black_box(&mut dst), black_box(&pairs)))
        });
    }
    g.bench_function("mul_acc_multi_10x1MiB", |b| {
        b.iter(|| mul_acc_multi(black_box(&mut dst), black_box(&pairs)))
    });
    g.bench_function("looped_mul_acc_10x1MiB", |b| {
        b.iter(|| {
            for &(cf, s) in &pairs {
                mul_acc(black_box(&mut dst), black_box(s), cf);
            }
        })
    });
    g.finish();

    let mut g = c.benchmark_group("gf_kernels_fused_xor");
    g.throughput(Throughput::Bytes((5 * BLOCK) as u64));
    for backend in KernelBackend::supported() {
        g.bench_function(format!("{}_xor_into_multi_5x1MiB", backend.name()), |b| {
            b.iter(|| backend.xor_into_multi(black_box(&mut dst), black_box(&xor_refs)))
        });
    }
    g.bench_function("xor_into_multi_5x1MiB", |b| {
        b.iter(|| xor_into_multi(black_box(&mut dst), black_box(&xor_refs)))
    });
    g.bench_function("looped_xor_into_5x1MiB", |b| {
        b.iter(|| {
            for s in &xor_refs {
                xor_into(black_box(&mut dst), black_box(s));
            }
        })
    });
    g.finish();
}

fn bench_gf65536(c: &mut Criterion) {
    // The fused wide row: a wide LRC heavy step or RS(200, 60) encode
    // column batches 8 general coefficients per fused call. The scalar
    // backend streams split `u16` tables; ssse3/avx2 run the eight-table
    // nibble `PSHUFB` path. Varied payload bytes light every table.
    let srcs: Vec<Vec<u8>> = (0..8)
        .map(|i| {
            (0..BLOCK)
                .map(|j| ((i * 37 + j * 11 + 5) % 256) as u8)
                .collect()
        })
        .collect();
    let pairs: Vec<(Gf65536, &[u8])> = srcs
        .iter()
        .enumerate()
        .map(|(i, s)| (Gf65536::from_index(i as u32 * 8191 + 3), s.as_slice()))
        .collect();
    let mut dst = vec![0xE7u8; BLOCK];
    let mut g = c.benchmark_group("gf_kernels_gf65536_fused");
    g.throughput(Throughput::Bytes((8 * BLOCK) as u64));
    for backend in KernelBackend::supported() {
        g.bench_function(
            format!("{}_payload_mul_acc_multi_8x1MiB", backend.name()),
            |b| b.iter(|| backend.payload_mul_acc_multi(black_box(&mut dst), black_box(&pairs))),
        );
    }
    g.bench_function("payload_mul_acc_multi_8x1MiB", |b| {
        b.iter(|| payload_mul_acc_multi(black_box(&mut dst), black_box(&pairs)))
    });
    g.finish();
}

fn bench_encode_into_e2e(c: &mut Criterion) {
    // End-to-end stripe encode over the zero-copy path: the (10,6,5)
    // LRC at 1 MiB payloads, parity lanes preallocated. This is the
    // stripe-level number the SIMD kernel work is judged against —
    // per-kernel gains must survive the full column-combination loop.
    let lrc = Lrc::xorbas_10_6_5().unwrap();
    let data: Vec<Vec<u8>> = (0..10)
        .map(|i| {
            (0..BLOCK)
                .map(|j| ((i * 31 + j * 7 + 13) % 256) as u8)
                .collect()
        })
        .collect();
    let data_refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let mut parity = vec![vec![0u8; BLOCK]; 6];
    let mut parity_refs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
    let mut g = c.benchmark_group("gf_kernels_stripe_e2e");
    g.throughput(Throughput::Bytes((10 * BLOCK) as u64));
    g.sample_size(20);
    g.bench_function("lrc_10_6_5_encode_into_10x1MiB", |b| {
        b.iter(|| {
            lrc.encode_into(black_box(&data_refs), &mut parity_refs)
                .unwrap()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fused_rows,
    bench_gf65536,
    bench_encode_into_e2e
);
criterion_main!(benches);
