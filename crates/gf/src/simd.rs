//! SIMD byte-slice kernel backends and their runtime dispatch.
//!
//! GF(2^8) multiplication by a fixed coefficient `c` is a 256-entry
//! table lookup per byte. The SIMD kernels here replace that with the
//! *split-nibble* scheme (cf. Uezato, "Accelerating XOR-based Erasure
//! Coding", SC 2021): since `c·x = c·(x_hi·16) + c·x_lo`, two 16-entry
//! tables — one for each nibble — suffice, and 16-entry lookups are
//! exactly what `PSHUFB`/`VPSHUFB` compute for a whole vector of bytes
//! per instruction.
//!
//! Two backends implement the same [`KernelSuite`] contract — three
//! fused multi-source row kernels, the only shape the codecs issue:
//!
//! * **scalar** — portable Rust: 256-entry product-row lookups (the
//!   nibble tables expanded once per call) and a `u64`-wide XOR. The
//!   universal fallback, always available, and the reference the
//!   equivalence tests hold the vector kernels to.
//! * **avx2** — 256-bit `VPSHUFB` kernels (the 16-entry tables broadcast
//!   to both 128-bit lanes).
//!
//! Selection happens once per process (see [`KernelBackend::active`])
//! via `is_x86_feature_detected!`, overridable with the
//! `XORBAS_KERNEL_BACKEND` environment variable for testing — the full
//! story is documented on [`crate::slice_ops`].
//!
//! # Safety model
//!
//! This is the only module in the crate that uses `unsafe` (the crate
//! root carries `#![deny(unsafe_code)]`; this module opts out locally).
//! Every `#[target_feature]` function documents its contract: it must
//! only be invoked on a CPU with that feature. The *only* route from
//! safe code to those functions is a [`KernelSuite`] obtained from
//! [`suite_for`], which hands out a SIMD suite strictly after the
//! corresponding `is_x86_feature_detected!` check has passed (and falls
//! back to the scalar suite otherwise), making the safe wrapper
//! functions stored in the suites sound.

#![allow(unsafe_code)]
// Dispatch and table-construction code must justify every index; the
// kernel scopes below carry audited allows (nibble-masked lookups into
// fixed 16-entry tables, flush-bounded batch arrays).
#![warn(clippy::indexing_slicing)]

/// Split-nibble multiplication tables for one coefficient of a byte-wide
/// field: `lo[x] = c·x` for `x < 16` and `hi[x] = c·(x·16)`, so that
/// `c·b = lo[b & 0xF] ^ hi[b >> 4]` for any byte `b`.
///
/// 32 bytes — cheap enough to build per kernel call (30 field
/// multiplications) and small enough to live in two vector registers.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MulTables {
    pub(crate) lo: [u8; 16],
    pub(crate) hi: [u8; 16],
}

// Indices are 4-bit nibbles (`& 0xF`, `>> 4`) into the 16-entry tables.
#[allow(clippy::indexing_slicing)]
impl MulTables {
    /// Builds the split-nibble tables for `c` in any field whose symbols
    /// are single bytes (`SYMBOL_BYTES == 1`; sub-byte fields like
    /// GF(2^4) work because `from_index` truncates out-of-range bits,
    /// matching the historical 256-entry product-row semantics).
    pub(crate) fn build<F: crate::Field>(c: F) -> Self {
        debug_assert_eq!(F::SYMBOL_BYTES, 1, "split-nibble tables are byte-wide");
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        for x in 0..16u32 {
            lo[x as usize] = (c * F::from_index(x)).index() as u8;
            hi[x as usize] = (c * F::from_index(x << 4)).index() as u8;
        }
        Self { lo, hi }
    }

    /// Expands to the classic 256-entry product row (`row[x] = c·x`),
    /// the representation the scalar kernels stream through.
    fn expand_row(&self) -> [u8; 256] {
        let mut row = [0u8; 256];
        for (x, slot) in row.iter_mut().enumerate() {
            *slot = self.lo[x & 0xF] ^ self.hi[x >> 4];
        }
        row
    }

    /// Single-byte product via the nibble tables (used by vector-kernel
    /// tails).
    #[inline(always)]
    fn mul_byte(&self, b: u8) -> u8 {
        self.lo[(b & 0xF) as usize] ^ self.hi[(b >> 4) as usize]
    }
}

/// Split-nibble multiplication tables for one GF(2^16) coefficient.
///
/// A two-byte little-endian symbol `s` decomposes into four nibbles
/// `s = n₀ | n₁·16 | n₂·256 | n₃·4096`, so
/// `c·s = c·n₀ + c·(n₁·16) + c·(n₂·256) + c·(n₃·4096)` — four 16-entry
/// lookups of 16-bit products. Storing each product table as separate
/// low/high output-byte halves (`lo[j]` / `hi[j]`) makes every lookup a
/// `PSHUFB`: eight tables, eight shuffles per vector of symbols (the
/// natural extension of the byte-wide split-nibble scheme; cf. Uezato,
/// SC 2021, and gf-complete's SPLIT w=16).
///
/// 128 bytes — cheap to build per kernel call (64 field multiplications)
/// and small enough for all eight tables to live in vector registers.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Nibble16Tables {
    /// `lo[j][x]` = low byte of `c · (x << 4j)`.
    pub(crate) lo: [[u8; 16]; 4],
    /// `hi[j][x]` = high byte of `c · (x << 4j)`.
    pub(crate) hi: [[u8; 16]; 4],
}

// Indices are 4-bit nibbles into the 16-entry tables and byte values
// into the 256-entry expanded rows.
#[allow(clippy::indexing_slicing)]
impl Nibble16Tables {
    /// Builds the four split product tables for `c` in any field whose
    /// symbols are two little-endian bytes (`SYMBOL_BYTES == 2`).
    pub(crate) fn build<F: crate::Field>(c: F) -> Self {
        debug_assert_eq!(F::SYMBOL_BYTES, 2, "nibble16 tables are two-byte-wide");
        let mut t = Self {
            lo: [[0; 16]; 4],
            hi: [[0; 16]; 4],
        };
        for j in 0..4 {
            for x in 0..16u32 {
                let p = (c * F::from_index(x << (4 * j))).index() as u16;
                t.lo[j][x as usize] = p as u8;
                t.hi[j][x as usize] = (p >> 8) as u8;
            }
        }
        t
    }

    /// Expands to the split low/high *input-byte* `u16` tables the scalar
    /// kernels stream through: `lo_row[b] = c·b`, `hi_row[b] = c·(b·256)`
    /// for every input byte `b`, so a symbol multiplies in two reads.
    pub(crate) fn expand_rows(&self) -> Wide16Rows {
        let mut rows = Wide16Rows {
            lo: [0; 256],
            hi: [0; 256],
        };
        for b in 0..256usize {
            let (n0, n1) = (b & 0xF, b >> 4);
            rows.lo[b] = u16::from_le_bytes([
                self.lo[0][n0] ^ self.lo[1][n1],
                self.hi[0][n0] ^ self.hi[1][n1],
            ]);
            rows.hi[b] = u16::from_le_bytes([
                self.lo[2][n0] ^ self.lo[3][n1],
                self.hi[2][n0] ^ self.hi[3][n1],
            ]);
        }
        rows
    }

    /// Single-symbol product via the nibble tables (vector-kernel tails).
    #[inline(always)]
    fn mul_symbol(&self, s: u16) -> u16 {
        let n = [
            (s & 0xF) as usize,
            ((s >> 4) & 0xF) as usize,
            ((s >> 8) & 0xF) as usize,
            ((s >> 12) & 0xF) as usize,
        ];
        let mut lo = 0u8;
        let mut hi = 0u8;
        for ((lo_t, hi_t), &nj) in self.lo.iter().zip(&self.hi).zip(&n) {
            lo ^= lo_t[nj];
            hi ^= hi_t[nj];
        }
        u16::from_le_bytes([lo, hi])
    }
}

/// Split low/high input-byte product tables for one GF(2^16)
/// coefficient — the scalar representation (`lo[b] = c·b`,
/// `hi[b] = c·(b·256)`; a little-endian symbol `b₀ | b₁·256` multiplies
/// as `lo[b₀] ^ hi[b₁]`). Expanded from [`Nibble16Tables`] per call.
#[derive(Clone, Copy)]
pub(crate) struct Wide16Rows {
    pub(crate) lo: [u16; 256],
    pub(crate) hi: [u16; 256],
}

/// Most sources a fused multi-source kernel call accepts; callers batch
/// longer rows. Bounds the scalar backend's on-stack expanded rows
/// (16 × 256 B = 4 KiB) and keeps SIMD table state within L1.
pub(crate) const MAX_FUSE: usize = 16;

/// How many general (non-unit) sources a GF(2^16) fused batch carries:
/// bounds the scalar backend's expanded split rows (8 × 1 KiB on the
/// stack) and the AVX2 backend's live table state (8 × 128 B).
pub(crate) const WIDE16_FUSE: usize = 8;

/// A fused multi-source multiply kernel over per-source tables of type
/// `T`: `dst = [dst ^] Σ cᵢ·srcᵢ`; the `bool` is `accumulate`.
pub(crate) type FusedMulFn<T> = for<'a> fn(&mut [u8], &[(T, &'a [u8])], bool);

/// The byte-wide fused multiply kernel. At most [`MAX_FUSE`] sources.
pub(crate) type MulMultiFn = FusedMulFn<MulTables>;

/// Fused multi-source XOR kernel: `dst = [dst ^] Σ srcᵢ`.
pub(crate) type XorMultiFn = for<'a> fn(&mut [u8], &[&'a [u8]], bool);

/// The GF(2^16) fused multiply kernel over two-byte symbols. At most
/// [`WIDE16_FUSE`] sources.
pub(crate) type Mul16MultiFn = FusedMulFn<Nibble16Tables>;

/// One implementation of the fused-row kernel set. All function
/// pointers are safe to call with any slice arguments (equal lengths are
/// the caller's contract, checked by the public wrappers); feature-gated
/// suites are only reachable through [`suite_for`] after detection.
pub(crate) struct KernelSuite {
    pub(crate) backend: KernelBackend,
    /// Fused `dst = [dst ^] Σ cᵢ·srcᵢ` over at most [`MAX_FUSE`] sources:
    /// one pass over `dst` however many sources there are. With no
    /// sources and `accumulate == false` the destination is zero-filled.
    pub(crate) mul_multi: MulMultiFn,
    /// Fused `dst = [dst ^] Σ srcᵢ` over at most [`MAX_FUSE`] sources.
    pub(crate) xor_multi: XorMultiFn,
    /// GF(2^16) fused `dst = [dst ^] Σ cᵢ·srcᵢ` over at most
    /// [`WIDE16_FUSE`] sources: one pass over `dst`. With no sources and
    /// `accumulate == false` the destination is zero-filled.
    pub(crate) mul16_multi: Mul16MultiFn,
}

/// A byte-kernel implementation selectable at runtime.
///
/// [`KernelBackend::active`] reports the process-wide choice; the
/// methods on this enum (defined in [`crate::slice_ops`]) run a specific
/// backend's fused rows directly, which is how the benchmarks compare
/// scalar against dispatched code and how the equivalence tests check
/// every backend against field arithmetic in a single process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// Portable Rust: product-row lookups and `u64`-wide XOR.
    Scalar,
    /// 256-bit split-nibble `VPSHUFB` kernels (x86/x86_64).
    Avx2,
}

impl KernelBackend {
    /// Every backend this build knows about, portable first.
    pub const ALL: [KernelBackend; 2] = [KernelBackend::Scalar, KernelBackend::Avx2];

    /// The backend's lowercase name (`"scalar"`, `"avx2"`), as accepted
    /// by the `XORBAS_KERNEL_BACKEND` override.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2 => "avx2",
        }
    }

    /// Parses a backend name as accepted by `XORBAS_KERNEL_BACKEND`
    /// (case-insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL
            .iter()
            .copied()
            .find(|b| b.name().eq_ignore_ascii_case(name))
    }

    /// Whether the running CPU supports this backend.
    pub fn is_supported(self) -> bool {
        match self {
            KernelBackend::Scalar => true,
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            KernelBackend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
            _ => false,
        }
    }

    /// The backends the running CPU supports, portable first.
    pub fn supported() -> impl Iterator<Item = KernelBackend> {
        Self::ALL.into_iter().filter(|b| b.is_supported())
    }

    /// The process-wide backend the module-level kernels dispatch to.
    ///
    /// Chosen once, on first use: the best supported backend
    /// (avx2, else scalar), unless overridden by the environment —
    /// see the [`crate::slice_ops`] module docs for the variables.
    pub fn active() -> KernelBackend {
        active_suite().backend
    }
}

/// The suite implementing `backend`, or the scalar suite when the CPU
/// lacks the feature. This fallback (rather than a panic) is what makes
/// the feature-gated suites sound: no code path hands out a SIMD suite
/// on a CPU that cannot execute it.
pub(crate) fn suite_for(backend: KernelBackend) -> &'static KernelSuite {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        if backend == KernelBackend::Avx2 && backend.is_supported() {
            return &x86::AVX2_SUITE;
        }
    }
    let _ = backend;
    &scalar::SUITE
}

/// The process-wide suite, selected once on first use.
pub(crate) fn active_suite() -> &'static KernelSuite {
    use std::sync::OnceLock;
    static ACTIVE: OnceLock<&'static KernelSuite> = OnceLock::new();
    ACTIVE.get_or_init(select_suite)
}

/// Applies the `XORBAS_KERNEL_BACKEND` override, else picks AVX2, which
/// `suite_for` turns into scalar on a CPU without it.
fn select_suite() -> &'static KernelSuite {
    if let Ok(name) = std::env::var("XORBAS_KERNEL_BACKEND") {
        match KernelBackend::parse(&name) {
            Some(requested) => return suite_for(requested),
            None => {
                // A typo must not silently measure the wrong backend.
                eprintln!(
                    "xorbas_gf: unrecognized XORBAS_KERNEL_BACKEND {name:?} \
                     (expected scalar or avx2); using auto-detection"
                );
            }
        }
    }
    suite_for(KernelBackend::Avx2)
}

/// Portable fallback kernels: safe Rust throughout, auto-vectorizable
/// product-row streams, `u64`-wide XOR.
// xlint::hot-path(scalar-kernels)
// Kernel indexing is length-checked up front: `chunks_exact` bodies,
// remainder tails indexed below the asserted common length, and
// nibble-masked table lookups.
#[allow(clippy::indexing_slicing)]
pub(crate) mod scalar {
    use super::WIDE16_FUSE;
    use super::{KernelBackend, KernelSuite, MulTables, Nibble16Tables, Wide16Rows, MAX_FUSE};

    pub(crate) static SUITE: KernelSuite = KernelSuite {
        backend: KernelBackend::Scalar,
        mul_multi,
        xor_multi,
        mul16_multi,
    };

    /// Little-endian `u64` load from an 8-byte chunk (as produced by
    /// `chunks_exact(8)`).
    #[inline(always)]
    fn load_u64(b: &[u8]) -> u64 {
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        u64::from_le_bytes(a)
    }

    fn xor_into(dst: &mut [u8], src: &[u8]) {
        let mut s = src.chunks_exact(8);
        let mut d = dst.chunks_exact_mut(8);
        for (dc, sc) in (&mut d).zip(&mut s) {
            let v = load_u64(dc) ^ load_u64(sc);
            dc.copy_from_slice(&v.to_le_bytes());
        }
        for (dc, sc) in d.into_remainder().iter_mut().zip(s.remainder()) {
            *dc ^= sc;
        }
    }

    /// Destination-chunked fusion: the expanded rows live on the stack
    /// (hence [`MAX_FUSE`]) and `dst` is walked in L1-sized chunks, each
    /// chunk visited by every source before moving on — one effective
    /// pass of `dst` through memory however many sources there are.
    fn mul_multi(dst: &mut [u8], srcs: &[(MulTables, &[u8])], accumulate: bool) {
        assert!(srcs.len() <= MAX_FUSE, "fused row wider than MAX_FUSE");
        if srcs.is_empty() {
            if !accumulate {
                dst.fill(0);
            }
            return;
        }
        let mut rows = [[0u8; 256]; MAX_FUSE];
        for (row, (t, _)) in rows.iter_mut().zip(srcs) {
            *row = t.expand_row();
        }
        const CHUNK: usize = 4096;
        let n = dst.len();
        let mut pos = 0;
        while pos < n {
            let end = (pos + CHUNK).min(n);
            for (j, (_, s)) in srcs.iter().enumerate() {
                let row = &rows[j];
                let chunk = &mut dst[pos..end];
                if j == 0 && !accumulate {
                    for (d, b) in chunk.iter_mut().zip(&s[pos..end]) {
                        *d = row[*b as usize];
                    }
                } else {
                    for (d, b) in chunk.iter_mut().zip(&s[pos..end]) {
                        *d ^= row[*b as usize];
                    }
                }
            }
            pos = end;
        }
    }

    fn xor_multi(dst: &mut [u8], srcs: &[&[u8]], accumulate: bool) {
        assert!(srcs.len() <= MAX_FUSE, "fused row wider than MAX_FUSE");
        if srcs.is_empty() {
            if !accumulate {
                dst.fill(0);
            }
            return;
        }
        const CHUNK: usize = 4096;
        let n = dst.len();
        let mut pos = 0;
        while pos < n {
            let end = (pos + CHUNK).min(n);
            for (j, s) in srcs.iter().enumerate() {
                if j == 0 && !accumulate {
                    dst[pos..end].copy_from_slice(&s[pos..end]);
                } else {
                    xor_into(&mut dst[pos..end], &s[pos..end]);
                }
            }
            pos = end;
        }
    }

    /// `dst = [dst ^] c·src` over little-endian 16-bit symbols via the
    /// expanded split input-byte rows — two table reads per symbol.
    fn wide16_mul_rows(dst: &mut [u8], src: &[u8], r: &Wide16Rows, accumulate: bool) {
        debug_assert_eq!(dst.len() % 2, 0);
        for (dc, sc) in dst.chunks_exact_mut(2).zip(src.chunks_exact(2)) {
            let mut p = r.lo[sc[0] as usize] ^ r.hi[sc[1] as usize];
            if accumulate {
                p ^= u16::from_le_bytes([dc[0], dc[1]]);
            }
            dc.copy_from_slice(&p.to_le_bytes());
        }
    }

    /// GF(2^16) fused row: the expanded split rows live on the stack
    /// (hence [`WIDE16_FUSE`]) and `dst` is walked in L1-sized chunks,
    /// each chunk visited by every source before the walk moves on.
    fn mul16_multi(dst: &mut [u8], srcs: &[(Nibble16Tables, &[u8])], accumulate: bool) {
        assert!(
            srcs.len() <= WIDE16_FUSE,
            "fused row wider than WIDE16_FUSE"
        );
        if srcs.is_empty() {
            if !accumulate {
                dst.fill(0);
            }
            return;
        }
        const EMPTY: Wide16Rows = Wide16Rows {
            lo: [0; 256],
            hi: [0; 256],
        };
        let mut rows = [EMPTY; WIDE16_FUSE];
        for (row, (t, _)) in rows.iter_mut().zip(srcs) {
            *row = t.expand_rows();
        }
        const CHUNK: usize = 4096; // multiple of the 2-byte symbol width
        let n = dst.len();
        let mut pos = 0;
        while pos < n {
            let end = (pos + CHUNK).min(n);
            for (j, (_, s)) in srcs.iter().enumerate() {
                wide16_mul_rows(
                    &mut dst[pos..end],
                    &s[pos..end],
                    &rows[j],
                    accumulate || j > 0,
                );
            }
            pos = end;
        }
    }
}

/// x86/x86_64 vector kernels: AVX2 (`VPSHUFB`, 256-bit).
// xlint::hot-path(x86-kernels)
// Vector kernels slice at multiples of the vector width computed from
// `len()` and index scalar tails below the asserted common length.
#[allow(clippy::indexing_slicing)]
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86 {
    use super::{KernelBackend, KernelSuite, MulTables, Nibble16Tables, MAX_FUSE, WIDE16_FUSE};
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    pub(super) static AVX2_SUITE: KernelSuite = KernelSuite {
        backend: KernelBackend::Avx2,
        mul_multi: |d, s, acc| {
            // SAFETY: this suite is only reachable via `suite_for`, which
            // verified is_x86_feature_detected!("avx2").
            unsafe { avx2_mul_multi(d, s, acc) }
        },
        xor_multi: |d, s, acc| {
            // SAFETY: as above — AVX2 presence verified by `suite_for`.
            unsafe { avx2_xor_multi(d, s, acc) }
        },
        mul16_multi: |d, s, acc| {
            // SAFETY: as above — AVX2 presence verified by `suite_for`.
            unsafe { avx2_mul16_multi(d, s, acc) }
        },
    };

    /// Byte-gather masks deinterleaving 16-bit little-endian symbols:
    /// the even (low) or odd (high) source bytes land in the lower 8
    /// bytes of each shuffled 128-bit lane, the rest zero (`-1` lanes).
    const GATHER_EVEN: [i8; 16] = [0, 2, 4, 6, 8, 10, 12, 14, -1, -1, -1, -1, -1, -1, -1, -1];
    const GATHER_ODD: [i8; 16] = [1, 3, 5, 7, 9, 11, 13, 15, -1, -1, -1, -1, -1, -1, -1, -1];

    /// Split-nibble product of 32 bytes via `VPSHUFB` (which looks up
    /// within each 128-bit lane — hence the tables are broadcast to both
    /// lanes).
    ///
    /// Safe to define: it only operates on values, so the sole
    /// obligation — AVX2 being available — is discharged by every caller
    /// already running under `#[target_feature(enable = "avx2")]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mul_vec256(v: __m256i, lo: __m256i, hi: __m256i, mask: __m256i) -> __m256i {
        let l = _mm256_shuffle_epi8(lo, _mm256_and_si256(v, mask));
        let h = _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64::<4>(v), mask));
        _mm256_xor_si256(l, h)
    }

    /// Broadcasts a 16-byte nibble table to both 128-bit lanes.
    ///
    /// # Safety
    /// Requires AVX2. `table` must point to 16 readable bytes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn broadcast_table(table: &[u8; 16]) -> __m256i {
        // SAFETY: caller guarantees AVX2 and 16 readable bytes.
        unsafe { _mm256_broadcastsi128_si256(_mm_loadu_si128(table.as_ptr().cast())) }
    }

    /// Fused row over 32-byte vectors: one load/store of each `dst`
    /// vector regardless of the number of sources.
    ///
    /// # Safety
    /// Requires AVX2. At most [`MAX_FUSE`] sources of `dst`'s length.
    #[target_feature(enable = "avx2")]
    unsafe fn avx2_mul_multi(dst: &mut [u8], srcs: &[(MulTables, &[u8])], accumulate: bool) {
        debug_assert!(srcs.len() <= MAX_FUSE);
        if srcs.is_empty() {
            if !accumulate {
                dst.fill(0);
            }
            return;
        }
        // SAFETY: caller guarantees AVX2; all pointer arithmetic stays
        // within `dst` and every source (they share `dst`'s length)
        // because `i + 32 <= n == len` at every load and store, and
        // `loadu`/`storeu` have no alignment requirement.
        unsafe {
            let mask = _mm256_set1_epi8(0x0F);
            let n = dst.len();
            let mut i = 0;
            while i + 32 <= n {
                let mut acc = if accumulate {
                    _mm256_loadu_si256(dst.as_ptr().add(i).cast())
                } else {
                    _mm256_setzero_si256()
                };
                for (t, s) in srcs {
                    let lo = broadcast_table(&t.lo);
                    let hi = broadcast_table(&t.hi);
                    let v = _mm256_loadu_si256(s.as_ptr().add(i).cast());
                    acc = _mm256_xor_si256(acc, mul_vec256(v, lo, hi, mask));
                }
                _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), acc);
                i += 32;
            }
            for j in i..n {
                let mut acc = if accumulate { dst[j] } else { 0 };
                for (t, s) in srcs {
                    acc ^= t.mul_byte(s[j]);
                }
                dst[j] = acc;
            }
        }
    }

    /// The eight nibble tables of one GF(2^16) coefficient, each
    /// broadcast to both 128-bit lanes.
    ///
    /// # Safety
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_tables16_256(t: &Nibble16Tables) -> [__m256i; 8] {
        // SAFETY: caller guarantees AVX2; each table is 16 readable bytes.
        unsafe {
            [
                broadcast_table(&t.lo[0]),
                broadcast_table(&t.lo[1]),
                broadcast_table(&t.lo[2]),
                broadcast_table(&t.lo[3]),
                broadcast_table(&t.hi[0]),
                broadcast_table(&t.hi[1]),
                broadcast_table(&t.hi[2]),
                broadcast_table(&t.hi[3]),
            ]
        }
    }

    /// Deinterleaves two loaded payload vectors (64 bytes = 32 symbols)
    /// into their (low bytes, high bytes) vectors in symbol order.
    /// `VPSHUFB` gathers per lane, so each lane's even (or odd) bytes
    /// land in its low qword; `unpacklo_epi64` pairs the qwords as
    /// `[A₀,B₀|A₁,B₁]` and the `permute4x64` restores `[A₀,A₁,B₀,B₁]`.
    ///
    /// Safe to define: value-only; callers run under AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn deinterleave256(
        va: __m256i,
        vb: __m256i,
        even: __m256i,
        odd: __m256i,
    ) -> (__m256i, __m256i) {
        let lo = _mm256_permute4x64_epi64::<0b1101_1000>(_mm256_unpacklo_epi64(
            _mm256_shuffle_epi8(va, even),
            _mm256_shuffle_epi8(vb, even),
        ));
        let hi = _mm256_permute4x64_epi64::<0b1101_1000>(_mm256_unpacklo_epi64(
            _mm256_shuffle_epi8(va, odd),
            _mm256_shuffle_epi8(vb, odd),
        ));
        (lo, hi)
    }

    /// Split-nibble GF(2^16) product of 32 symbols (deinterleaved form):
    /// eight `VPSHUFB` lookups.
    ///
    /// Safe to define: value-only; callers run under AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mul16_vec256(
        lo: __m256i,
        hi: __m256i,
        t: &[__m256i; 8],
        mask: __m256i,
    ) -> (__m256i, __m256i) {
        let n0 = _mm256_and_si256(lo, mask);
        let n1 = _mm256_and_si256(_mm256_srli_epi64::<4>(lo), mask);
        let n2 = _mm256_and_si256(hi, mask);
        let n3 = _mm256_and_si256(_mm256_srli_epi64::<4>(hi), mask);
        let plo = _mm256_xor_si256(
            _mm256_xor_si256(_mm256_shuffle_epi8(t[0], n0), _mm256_shuffle_epi8(t[1], n1)),
            _mm256_xor_si256(_mm256_shuffle_epi8(t[2], n2), _mm256_shuffle_epi8(t[3], n3)),
        );
        let phi = _mm256_xor_si256(
            _mm256_xor_si256(_mm256_shuffle_epi8(t[4], n0), _mm256_shuffle_epi8(t[5], n1)),
            _mm256_xor_si256(_mm256_shuffle_epi8(t[6], n2), _mm256_shuffle_epi8(t[7], n3)),
        );
        (plo, phi)
    }

    /// Reinterleaves product byte vectors back into two payload vectors.
    /// `unpack{lo,hi}_epi8` interleave per lane, leaving the four symbol
    /// octets as `[s0₋8|s16₋24]` and `[s8₋16|s24₋32]`; the two lane
    /// permutes reassemble contiguous payload order.
    ///
    /// Safe to define: value-only; callers run under AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn interleave256(plo: __m256i, phi: __m256i) -> (__m256i, __m256i) {
        let il = _mm256_unpacklo_epi8(plo, phi);
        let ih = _mm256_unpackhi_epi8(plo, phi);
        (
            _mm256_permute2x128_si256::<0x20>(il, ih),
            _mm256_permute2x128_si256::<0x31>(il, ih),
        )
    }

    /// GF(2^16) fused row over 64-byte blocks: one load/store of each
    /// `dst` vector pair regardless of the number of sources.
    ///
    /// # Safety
    /// Requires AVX2. At most [`WIDE16_FUSE`] sources, each of `dst`'s
    /// (even) length.
    #[target_feature(enable = "avx2")]
    unsafe fn avx2_mul16_multi(dst: &mut [u8], srcs: &[(Nibble16Tables, &[u8])], accumulate: bool) {
        debug_assert!(srcs.len() <= WIDE16_FUSE);
        if srcs.is_empty() {
            if !accumulate {
                dst.fill(0);
            }
            return;
        }
        // SAFETY: caller guarantees AVX2; pointer arithmetic stays in
        // bounds of `dst` and every source (they share `dst`'s length)
        // because `i + 64 <= n == len` at every load and store.
        unsafe {
            let mask = _mm256_set1_epi8(0x0F);
            let even = _mm256_broadcastsi128_si256(_mm_loadu_si128(GATHER_EVEN.as_ptr().cast()));
            let odd = _mm256_broadcastsi128_si256(_mm_loadu_si128(GATHER_ODD.as_ptr().cast()));
            let n = dst.len();
            let mut i = 0;
            while i + 64 <= n {
                let (mut acca, mut accb) = if accumulate {
                    (
                        _mm256_loadu_si256(dst.as_ptr().add(i).cast()),
                        _mm256_loadu_si256(dst.as_ptr().add(i + 32).cast()),
                    )
                } else {
                    (_mm256_setzero_si256(), _mm256_setzero_si256())
                };
                for (t, s) in srcs {
                    let tabs = load_tables16_256(t);
                    let va = _mm256_loadu_si256(s.as_ptr().add(i).cast());
                    let vb = _mm256_loadu_si256(s.as_ptr().add(i + 32).cast());
                    let (lo, hi) = deinterleave256(va, vb, even, odd);
                    let (plo, phi) = mul16_vec256(lo, hi, &tabs, mask);
                    let (outa, outb) = interleave256(plo, phi);
                    acca = _mm256_xor_si256(acca, outa);
                    accb = _mm256_xor_si256(accb, outb);
                }
                _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), acca);
                _mm256_storeu_si256(dst.as_mut_ptr().add(i + 32).cast(), accb);
                i += 64;
            }
            while i + 2 <= n {
                let mut acc = if accumulate {
                    u16::from_le_bytes([dst[i], dst[i + 1]])
                } else {
                    0
                };
                for (t, s) in srcs {
                    acc ^= t.mul_symbol(u16::from_le_bytes([s[i], s[i + 1]]));
                }
                dst[i..i + 2].copy_from_slice(&acc.to_le_bytes());
                i += 2;
            }
        }
    }

    /// Fused XOR row over 32-byte vectors.
    ///
    /// # Safety
    /// Requires AVX2. At most [`MAX_FUSE`] sources of `dst`'s length.
    #[target_feature(enable = "avx2")]
    unsafe fn avx2_xor_multi(dst: &mut [u8], srcs: &[&[u8]], accumulate: bool) {
        debug_assert!(srcs.len() <= MAX_FUSE);
        if srcs.is_empty() {
            if !accumulate {
                dst.fill(0);
            }
            return;
        }
        // SAFETY: caller guarantees AVX2; bounds as in `avx2_mul_multi`.
        unsafe {
            let n = dst.len();
            let mut i = 0;
            while i + 32 <= n {
                let mut acc = if accumulate {
                    _mm256_loadu_si256(dst.as_ptr().add(i).cast())
                } else {
                    _mm256_setzero_si256()
                };
                for s in srcs {
                    acc = _mm256_xor_si256(acc, _mm256_loadu_si256(s.as_ptr().add(i).cast()));
                }
                _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), acc);
                i += 32;
            }
            for j in i..n {
                let mut acc = if accumulate { dst[j] } else { 0 };
                for s in srcs {
                    acc ^= s[j];
                }
                dst[j] = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{scalar, suite_for, KernelBackend, KernelSuite};

    /// Each variant's successor in declaration order. The `match` is
    /// exhaustive, so a new variant does not compile until it is placed
    /// here — and then `ALL` must list it too.
    fn next_variant(b: KernelBackend) -> Option<KernelBackend> {
        match b {
            KernelBackend::Scalar => Some(KernelBackend::Avx2),
            KernelBackend::Avx2 => None,
        }
    }

    #[test]
    fn all_lists_every_variant_and_each_name_parses_back() {
        let every: Vec<KernelBackend> =
            std::iter::successors(Some(KernelBackend::Scalar), |&b| next_variant(b)).collect();
        assert_eq!(KernelBackend::ALL.to_vec(), every);
        for b in KernelBackend::ALL {
            assert_eq!(KernelBackend::parse(b.name()), Some(b));
            assert_eq!(KernelBackend::parse(&b.name().to_uppercase()), Some(b));
        }
        // A retired backend name is unknown: the override warns and
        // falls back to auto-detection.
        assert_eq!(KernelBackend::parse("ssse3"), None);
    }

    /// ARCHITECTURE's environment table documents exactly the one knob
    /// this crate reads, with exactly the names `parse` accepts.
    #[test]
    fn the_documented_knob_is_the_one_read_here() {
        let doc = include_str!("../../../docs/ARCHITECTURE.md");
        let rows: Vec<&str> = doc
            .lines()
            .filter_map(|l| l.strip_prefix("| `XORBAS_"))
            .collect();
        let [row] = rows[..] else {
            panic!("one XORBAS_* knob row, got {rows:?}");
        };
        let (name, rest) = row.split_once('=').expect("a `NAME=values` cell");
        assert_eq!(name, "KERNEL_BACKEND");
        let values: Vec<&str> = rest.split('`').next().unwrap_or("").split("\\|").collect();
        let names: Vec<&str> = KernelBackend::ALL.map(KernelBackend::name).to_vec();
        assert_eq!(values, names);
    }

    #[test]
    fn suite_for_hands_out_the_suite_it_was_asked_for() {
        for b in KernelBackend::ALL {
            let want = if b.is_supported() {
                b
            } else {
                KernelBackend::Scalar
            };
            assert_eq!(suite_for(b).backend, want, "suite_for({b:?})");
        }
    }

    /// The fields of `suite` that hold the same kernel as the scalar
    /// suite's field of that name.
    fn fields_shared_with_scalar(suite: &KernelSuite) -> Vec<&'static str> {
        let s = &scalar::SUITE;
        [
            (
                "mul_multi",
                std::ptr::fn_addr_eq(suite.mul_multi, s.mul_multi),
            ),
            (
                "xor_multi",
                std::ptr::fn_addr_eq(suite.xor_multi, s.xor_multi),
            ),
            (
                "mul16_multi",
                std::ptr::fn_addr_eq(suite.mul16_multi, s.mul16_multi),
            ),
        ]
        .into_iter()
        .filter_map(|(name, shared)| shared.then_some(name))
        .collect()
    }

    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[test]
    fn avx2_suite_runs_no_scalar_kernel() {
        let avx2 = &super::x86::AVX2_SUITE;
        assert_eq!(avx2.backend, KernelBackend::Avx2);
        assert_eq!(fields_shared_with_scalar(avx2), Vec::<&str>::new());
        // The comparison can see a shared kernel at all: the scalar suite
        // shares every field with itself.
        assert_eq!(
            fields_shared_with_scalar(&scalar::SUITE),
            ["mul_multi", "xor_multi", "mul16_multi"]
        );
    }
}
