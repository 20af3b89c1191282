//! SIMD byte-slice kernel backends and their runtime dispatch.
//!
//! GF(2^8) multiplication by a fixed coefficient `c` is a 256-entry
//! table lookup per byte. The SIMD kernels here replace that with the
//! *split-nibble* scheme (cf. Uezato, "Accelerating XOR-based Erasure
//! Coding", SC 2021): since `c·x = c·(x_hi·16) + c·x_lo`, two 16-entry
//! tables — one for each nibble — suffice, and 16-entry lookups are
//! exactly what `PSHUFB`/`VPSHUFB` compute for a whole vector of bytes
//! per instruction. Multiplying by `c` is also a GF(2)-linear map of
//! the byte's bits, an 8×8 bit matrix, and GFNI's `vgf2p8affineqb`
//! applies such a matrix to 64 bytes in one instruction: the matrix
//! Uezato's XOR programs spell out as about 32 XORs per coefficient.
//!
//! Three backends implement the same [`KernelSuite`] contract — two fused
//! multiply *blocks* `dstᵣ = [dstᵣ ^] Σⱼ cᵣⱼ·srcⱼ` (up to [`BLOCK_ROWS`]
//! rows over the same sources) and one fused XOR row, the only shapes
//! the codecs issue:
//!
//! * **scalar** — portable Rust: 256-entry product-row lookups (the
//!   nibble tables expanded once per row and call), a block being a loop
//!   over its rows, and a `u64`-wide XOR. The universal fallback, always
//!   available, and the reference the equivalence tests hold the vector
//!   kernels to.
//! * **avx2** — 256-bit `VPSHUFB` kernels (the 16-entry tables broadcast
//!   to both 128-bit lanes).
//! * **gfni** — 512-bit `vgf2p8affineqb` multiply blocks, each
//!   coefficient's matrices derived from the products of the single
//!   bits its nibble tables already hold (GF(2^16) needs four: each
//!   output byte from each input byte), and the AVX2 XOR row. Picked
//!   when the CPU has AVX2, AVX-512 F/BW/VBMI and GFNI.
//!
//! Each suite also carries the lane digest's Horner step
//! ([`crate::digest`]): shifts and XORs in the scalar suite, `VPSHUFB`
//! lookups and a doubling in AVX2, 256-bit affine ops in GFNI.
//!
//! # Why a block
//!
//! Splitting a source vector into nibbles does not depend on the
//! coefficient, so a block splits each source vector once and
//! multiplies every row from the split form. For GF(2^16), vector ALU
//! ops per (row, source, 64 bytes):
//!
//! | step | row kernel | block | GFNI block |
//! |---|---|---|---|
//! | deinterleave low/high bytes | 8 | 8 / rows | 1 / rows |
//! | split into four nibbles | 6 | 6 / rows | — |
//! | eight table shuffles, six XORs to combine | 14 | 14 | 2 affine |
//! | reinterleave | 4 | 4 / sources | 1 / sources |
//! | accumulate into the row | 2 | 2 | 1 |
//! | **total** | **34** | **16 + 14 / rows + 4 / sources** | **3 + 1 / rows + 1 / sources** |
//!
//! so a 12-row, 16-source block issues 17.4 ops where the row issued
//! 34 (the reinterleave now runs once per row, after all its sources).
//! The GFNI block's steps are 128 bytes: two `vpermt2b` split them into
//! low and high bytes, four affine ops and two three-way XORs
//! (`vpternlogq`) multiply-accumulate each (row, source), and two
//! `vpermt2b` reinterleave each row — 3.15 ops per 64 bytes at 12 × 16,
//! though only one port runs the 512-bit affine op: on a Xeon of family
//! 6, model 207, a 12 × 16 block over 64 KiB lanes takes 2.2 ns per
//! (row, source, 128 bytes) where AVX2 takes 6.6, and RS(200,60)'s
//! whole 60 × 200 block over 64 KiB lanes runs 2.4–3.0x the AVX2 one.
//! GF(2^8) goes from 7 ops per (row, source, 32 bytes) to
//! 4 + 3 / rows, and GFNI needs one affine op and one XOR per (row,
//! source, 64 bytes). A block of several rows parks its split sources on
//! the stack for each step and multiplies two rows at a time from them
//! (a parked vector is loaded once for both; the GFNI GF(2^8) block has
//! nothing to split and loads each source vector once per pair); a
//! one-row block keeps them in registers, so the rows that sessions and
//! light repairs issue pay nothing for the block shape.
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
//! The AVX2 and GFNI kernels are safe `#[target_feature]` fns: value
//! intrinsics are safe inside them, so `unsafe` covers only two things,
//! each block with its own `// SAFETY:` line:
//!
//! * a pointer load or store, kept inside its slice by the loop bound
//!   and by [`block_len`], which every multiply and XOR kernel calls
//!   first: every source and every destination of a call has one common
//!   length (a digest kernel loads only from its 128-byte accumulator
//!   and from the 128-byte blocks `chunks_exact` hands out);
//! * the call into a kernel from a [`KernelSuite`] entry, sound because
//!   [`suite_for`] hands out a vector suite strictly after
//!   `is_x86_feature_detected!` has passed for every feature its kernels
//!   enable (and the scalar suite otherwise).

#![allow(unsafe_code)]
// Dispatch and table-construction code must justify every index; the
// kernel scopes below carry audited allows (nibble-masked lookups into
// fixed 16-entry tables, flush-bounded batch arrays).
#![warn(clippy::indexing_slicing)]

/// Split-nibble multiplication tables for one coefficient of a byte-wide
/// field: `lo[x] = c·x` for `x < 16` and `hi[x] = c·(x·16)`, so that
/// `c·b = lo[b & 0xF] ^ hi[b >> 4]` for any byte `b`.
///
/// 32 bytes — cheap enough to build per kernel call (8 field
/// multiplications, see [`nibble_products`]) and small enough to live in
/// two vector registers.
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
        let lo = nibble_products(|x| (c * F::from_index(x)).index()).map(|p| p as u8);
        let hi = nibble_products(|x| (c * F::from_index(x << 4)).index()).map(|p| p as u8);
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

    /// The GFNI affine matrix of `b ↦ c·b`: the tables are linear in
    /// their nibble, so the products of the eight single bits are the
    /// matrix's columns (a GF(2^4) `hi` table is all zero, so its high
    /// input bits drop out, as `from_index` drops them).
    #[cfg_attr(
        not(any(target_arch = "x86", target_arch = "x86_64")),
        allow(dead_code)
    )]
    fn affine(&self) -> u64 {
        affine_matrix(&self.lo, &self.hi)
    }
}

/// The `vgf2p8affineqb` matrix of the GF(2)-linear byte map whose
/// single-bit images are `lo[1], lo[2], lo[4], lo[8]` (input bits 0–3)
/// and `hi[1], hi[2], hi[4], hi[8]` (bits 4–7). The instruction's output
/// bit `i` is the parity of the matrix's byte `7 − i` ANDed with the
/// input, so byte `7 − i` holds bit `i` of every image: the bit-transpose
/// of the images packed one per byte, byte-reversed.
#[cfg_attr(
    not(any(target_arch = "x86", target_arch = "x86_64")),
    allow(dead_code)
)]
const fn affine_matrix(lo: &[u8; 16], hi: &[u8; 16]) -> u64 {
    let cols = [lo[1], lo[2], lo[4], lo[8], hi[1], hi[2], hi[4], hi[8]];
    // Byte j, bit i is the matrix entry (i, j); the three swap rounds of
    // an 8×8 bit transpose (Hacker's Delight, 7–3) move it to byte i, bit j.
    let mut x = u64::from_le_bytes(cols);
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^= t ^ (t << 28);
    x.swap_bytes()
}

/// `[f(0), f(1), …, f(15)]` for a map `f` that is linear over GF(2), as
/// multiplying by a field constant is (in the polynomial basis, addition
/// is XOR): four evaluations at the single bits, and every other entry
/// the XOR of its lowest bit's entry and the rest's. A block of 12 rows
/// × 16 GF(2^16) sources builds 192 coefficient tables per call, so the
/// 64 multiplications a table would take otherwise show in a wide
/// encode.
// `x ^ low < x` and `low ≤ x < 16`: both entries are filled already.
#[allow(clippy::indexing_slicing)]
fn nibble_products(f: impl Fn(u32) -> u32) -> [u32; 16] {
    let mut p = [0u32; 16];
    for x in 1..16usize {
        let low = x & x.wrapping_neg();
        p[x] = if x == low {
            f(x as u32)
        } else {
            p[low] ^ p[x ^ low]
        };
    }
    p
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
/// 128 bytes — cheap to build per kernel call (16 field
/// multiplications, see [`nibble_products`]) and small enough for all
/// eight tables to live in vector registers.
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
        let mut t = Self::default();
        for j in 0..4 {
            let p = nibble_products(|x| (c * F::from_index(x << (4 * j))).index());
            t.lo[j] = p.map(|p| p as u8);
            t.hi[j] = p.map(|p| (p >> 8) as u8);
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

    /// The four GFNI affine matrices of `s ↦ c·s` between the symbol's
    /// low and high bytes: low→low, high→low, low→high, high→high.
    #[cfg_attr(
        not(any(target_arch = "x86", target_arch = "x86_64")),
        allow(dead_code)
    )]
    fn affine(&self) -> [u64; 4] {
        [
            affine_matrix(&self.lo[0], &self.lo[1]),
            affine_matrix(&self.lo[2], &self.lo[3]),
            affine_matrix(&self.hi[0], &self.hi[1]),
            affine_matrix(&self.hi[2], &self.hi[3]),
        ]
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

/// Most sources one kernel call accepts (byte-wide multiply and XOR);
/// callers batch longer rows. Bounds the scalar backend's on-stack
/// expanded rows (16 × 256 B = 4 KiB) and the AVX2 block's parked
/// source nibbles (16 × 64 B).
pub(crate) const MAX_FUSE: usize = 16;

/// Most sources one GF(2^16) block accepts: bounds the scalar backend's
/// expanded split rows (16 × 1 KiB on the stack) and the AVX2 block's
/// parked source nibbles (16 × 128 B).
pub(crate) const WIDE16_FUSE: usize = 16;

/// Most rows one multiply block accepts; callers batch taller blocks.
/// Bounds a block's coefficient tables, which the caller keeps on its
/// stack and every vector step reads once: a GF(2^16) block of 12 rows
/// × 16 sources is 24 KiB of tables, half of L1. Swept on a Xeon with
/// 48 KiB of L1d per core (GF(2^16), 16 sources, 64 KiB lanes; best of
/// ten runs, ns per (row, source, 64 bytes)): 4 rows 3.55, 8 rows 3.09,
/// 12 rows 3.05, 16 rows 3.16, 20 rows 3.24, 24 rows 3.34 — slower
/// with every row past 12, as the tables fill more of L1 (32 KiB at 16
/// rows, all 48 KiB at 24).
pub(crate) const BLOCK_ROWS: usize = 12;

/// A fused multiply block over per-(row, source) tables of type `T`:
/// `dstᵣ = [dstᵣ ^] Σⱼ cᵣⱼ·srcⱼ` with `cᵣⱼ` in `tables[r·srcs.len() + j]`;
/// the `bool` is `accumulate`.
pub(crate) type FusedMulFn<T> = for<'d, 's> fn(&mut [&'d mut [u8]], &[T], &[&'s [u8]], bool);

/// The byte-wide multiply block: at most [`BLOCK_ROWS`] rows and
/// [`MAX_FUSE`] sources.
pub(crate) type MulBlockFn = FusedMulFn<MulTables>;

/// Fused multi-source XOR kernel: `dst = [dst ^] Σ srcᵢ`.
pub(crate) type XorMultiFn = for<'a> fn(&mut [u8], &[&'a [u8]], bool);

/// The GF(2^16) multiply block over two-byte symbols: at most
/// [`BLOCK_ROWS`] rows and [`WIDE16_FUSE`] sources.
pub(crate) type Mul16BlockFn = FusedMulFn<Nibble16Tables>;

/// The lane digest's Horner kernel: every whole [`DIGEST_BLOCK`] of
/// the input folded into the 64 lane accumulators, one step per block.
pub(crate) type DigestHornerFn = fn(&mut [u8; DIGEST_BLOCK], &[u8]);

/// Bytes per digest step: the low and high coordinates of 64 lanes
/// (see [`crate::digest`]).
pub(crate) const DIGEST_BLOCK: usize = 128;

/// Lanes per digest step; byte `l` of a block is lane `l`'s low
/// coordinate and byte `DIGEST_LANES + l` its high one.
const DIGEST_LANES: usize = DIGEST_BLOCK / 2;

/// The low coordinate of `β·s` is `DIGEST_LO_MUL · hi`.
const DIGEST_LO_MUL: u8 = 0x40;

/// The high coordinate of `β·s` is `DIGEST_HI_MUL · (lo ⊕ hi)`.
const DIGEST_HI_MUL: u8 = 0x02;

/// The split-nibble tables of a digest constant, at compile time: a
/// Horner kernel runs once per GET piece and per WAL record, so its
/// setup must cost nothing.
// `x < 16` indexes the 16-entry tables (a const fn has no iterators).
#[allow(clippy::indexing_slicing)]
#[cfg_attr(
    not(any(target_arch = "x86", target_arch = "x86_64")),
    allow(dead_code)
)]
const fn digest_tables(c: u8) -> MulTables {
    let mut t = MulTables {
        lo: [0; 16],
        hi: [0; 16],
    };
    let mut x = 0;
    while x < 16 {
        t.lo[x] = crate::digest::gmul(c, x as u8);
        t.hi[x] = crate::digest::gmul(c, (x as u8) << 4);
        x += 1;
    }
    t
}

/// One implementation of the fused kernel set. All function pointers
/// are safe to call with any slice arguments: a block wider or taller
/// than its caps, a table count other than rows × sources, or a source
/// or destination whose length differs from the first destination's
/// panics (see [`block_len`]); feature-gated suites are only reachable
/// through [`suite_for`] after detection.
pub(crate) struct KernelSuite {
    pub(crate) backend: KernelBackend,
    /// Fused block over at most [`BLOCK_ROWS`] rows and [`MAX_FUSE`]
    /// sources: one pass over each destination and one split of each
    /// source vector, however many rows and sources there are. With no
    /// sources and `accumulate == false` every destination is
    /// zero-filled.
    pub(crate) mul_block: MulBlockFn,
    /// Fused `dst = [dst ^] Σ srcᵢ` over at most [`MAX_FUSE`] sources.
    pub(crate) xor_multi: XorMultiFn,
    /// GF(2^16) fused block over at most [`BLOCK_ROWS`] rows and
    /// [`WIDE16_FUSE`] sources. With no sources and
    /// `accumulate == false` every destination is zero-filled.
    pub(crate) mul16_block: Mul16BlockFn,
    /// The lane digest's Horner step over whole 128-byte blocks.
    pub(crate) digest_horner: DigestHornerFn,
}

/// Checks a block call's shape and returns its payload length: at most
/// [`BLOCK_ROWS`] rows and `max_srcs` sources, one table per (row,
/// source), and every destination and every source as long as the
/// first destination. The vector kernels load `n` bytes of every source
/// and store `n` bytes into every destination through raw pointers, so
/// this check is what keeps them in bounds.
fn block_len(dsts: &[&mut [u8]], tables: usize, srcs: &[&[u8]], max_srcs: usize) -> usize {
    assert!(
        dsts.len() <= BLOCK_ROWS && srcs.len() <= max_srcs,
        "block larger than its caps"
    );
    assert_eq!(
        tables,
        dsts.len() * srcs.len(),
        "one table per (row, source)"
    );
    let n = dsts.first().map_or(0, |d| d.len());
    assert!(
        dsts.iter().all(|d| d.len() == n),
        "destination length differs from the first destination"
    );
    assert!(
        srcs.iter().all(|s| s.len() == n),
        "source length differs from dst"
    );
    n
}

/// Panics unless `blocks` is a whole number of digest blocks. The
/// Horner kernels step through `chunks_exact`, which would drop a
/// partial last block without a word; padding it is the caller's.
fn assert_whole_blocks(blocks: &[u8]) {
    assert!(
        blocks.len().is_multiple_of(DIGEST_BLOCK),
        "digest input is not whole blocks"
    );
}

/// A block with no sources: zero-fills every destination unless
/// accumulating. Returns whether the block was empty.
fn empty_block(dsts: &mut [&mut [u8]], srcs: &[&[u8]], accumulate: bool) -> bool {
    if !srcs.is_empty() {
        return false;
    }
    if !accumulate {
        for d in dsts {
            d.fill(0);
        }
    }
    true
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
    /// 512-bit GFNI affine-transform multiply blocks beside the AVX2 XOR
    /// row (x86/x86_64 with AVX2, AVX-512 F/BW/VBMI and GFNI).
    Gfni,
}

impl KernelBackend {
    /// Every backend this build knows about, portable first, each later
    /// one preferred to those before it.
    pub const ALL: [KernelBackend; 3] = [
        KernelBackend::Scalar,
        KernelBackend::Avx2,
        KernelBackend::Gfni,
    ];

    /// The backend's lowercase name (`"scalar"`, `"avx2"`, `"gfni"`), as
    /// accepted by the `XORBAS_KERNEL_BACKEND` override.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2 => "avx2",
            KernelBackend::Gfni => "gfni",
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
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            KernelBackend::Gfni => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
                    && std::arch::is_x86_feature_detected!("avx512vbmi")
                    && std::arch::is_x86_feature_detected!("gfni")
            }
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
    /// Chosen once, on first use: the best supported backend (gfni,
    /// else avx2, else scalar), unless overridden by the environment —
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
        if backend.is_supported() {
            match backend {
                KernelBackend::Scalar => {}
                KernelBackend::Avx2 => return &x86::AVX2_SUITE,
                KernelBackend::Gfni => return &x86::GFNI_SUITE,
            }
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

/// Applies the `XORBAS_KERNEL_BACKEND` override, else picks the last
/// backend of [`KernelBackend::ALL`] the CPU supports.
fn select_suite() -> &'static KernelSuite {
    if let Ok(name) = std::env::var("XORBAS_KERNEL_BACKEND") {
        match KernelBackend::parse(&name) {
            Some(requested) => return suite_for(requested),
            None => {
                // A typo must not silently measure the wrong backend.
                let expected = KernelBackend::ALL.map(KernelBackend::name).join(", ");
                eprintln!(
                    "xorbas_gf: unrecognized XORBAS_KERNEL_BACKEND {name:?} \
                     (expected one of {expected}); using auto-detection"
                );
            }
        }
    }
    let best = KernelBackend::supported().last();
    suite_for(best.unwrap_or(KernelBackend::Scalar))
}

/// Portable fallback kernels: safe Rust throughout, auto-vectorizable
/// product-row streams, `u64`-wide XOR. A block is a loop over its rows.
// Kernel indexing is length-checked up front: `chunks_exact` bodies,
// remainder tails indexed below the asserted common length, and
// nibble-masked table lookups.
#[allow(clippy::indexing_slicing)]
pub(crate) mod scalar {
    use super::{assert_whole_blocks, block_len, empty_block, WIDE16_FUSE};
    use super::{KernelBackend, KernelSuite, MulTables, Nibble16Tables, Wide16Rows, MAX_FUSE};
    use super::{DIGEST_BLOCK, DIGEST_HI_MUL, DIGEST_LANES, DIGEST_LO_MUL};

    pub(crate) static SUITE: KernelSuite = KernelSuite {
        backend: KernelBackend::Scalar,
        mul_block,
        xor_multi,
        mul16_block,
        digest_horner,
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

    fn mul_block(dsts: &mut [&mut [u8]], tables: &[MulTables], srcs: &[&[u8]], accumulate: bool) {
        block_len(dsts, tables.len(), srcs, MAX_FUSE);
        if empty_block(dsts, srcs, accumulate) {
            return;
        }
        for (dst, row) in dsts.iter_mut().zip(tables.chunks_exact(srcs.len())) {
            mul_row(dst, row, srcs, accumulate);
        }
    }

    /// One row, destination-chunked: the expanded rows live on the stack
    /// (hence [`MAX_FUSE`]) and `dst` is walked in L1-sized chunks, each
    /// chunk visited by every source before moving on — one effective
    /// pass of `dst` through memory however many sources there are.
    fn mul_row(dst: &mut [u8], tables: &[MulTables], srcs: &[&[u8]], accumulate: bool) {
        let mut rows = [[0u8; 256]; MAX_FUSE];
        for (row, t) in rows.iter_mut().zip(tables) {
            *row = t.expand_row();
        }
        const CHUNK: usize = 4096;
        let n = dst.len();
        let mut pos = 0;
        while pos < n {
            let end = (pos + CHUNK).min(n);
            for (j, s) in srcs.iter().enumerate() {
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

    /// `2·b` in GF(2^8): a shift, and the reduction `0x1D` when the top
    /// bit falls out. Branch-free, so the digest's lane loop vectorizes.
    #[inline(always)]
    fn xtime(b: u8) -> u8 {
        (b << 1) ^ (((b as i8) >> 7) as u8 & 0x1D)
    }

    /// `2^e·b`: `e` doublings.
    #[inline(always)]
    fn mul_pow2<const E: u32>(mut b: u8) -> u8 {
        for _ in 0..E {
            b = xtime(b);
        }
        b
    }

    /// The Horner step in portable code: the lanes live in two 64-byte
    /// arrays for the whole loop, and each step is shifts and XORs
    /// only (`0x40 = 2^6`), which the compiler runs 16 lanes at a time
    /// on any x86-64.
    fn digest_horner(acc: &mut [u8; DIGEST_BLOCK], blocks: &[u8]) {
        assert_whole_blocks(blocks);
        const _: () = assert!(DIGEST_LO_MUL == 1 << 6 && DIGEST_HI_MUL == 2);
        let mut lo = [0u8; DIGEST_LANES];
        let mut hi = [0u8; DIGEST_LANES];
        lo.copy_from_slice(&acc[..DIGEST_LANES]);
        hi.copy_from_slice(&acc[DIGEST_LANES..]);
        for block in blocks.chunks_exact(DIGEST_BLOCK) {
            let (x_lo, x_hi) = block.split_at(DIGEST_LANES);
            for (((l, h), xl), xh) in lo.iter_mut().zip(hi.iter_mut()).zip(x_lo).zip(x_hi) {
                let (a, b) = (*l, *h);
                *l = mul_pow2::<6>(b) ^ xl;
                *h = xtime(a ^ b) ^ xh;
            }
        }
        acc[..DIGEST_LANES].copy_from_slice(&lo);
        acc[DIGEST_LANES..].copy_from_slice(&hi);
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

    fn mul16_block(
        dsts: &mut [&mut [u8]],
        tables: &[Nibble16Tables],
        srcs: &[&[u8]],
        accumulate: bool,
    ) {
        block_len(dsts, tables.len(), srcs, WIDE16_FUSE);
        if empty_block(dsts, srcs, accumulate) {
            return;
        }
        for (dst, row) in dsts.iter_mut().zip(tables.chunks_exact(srcs.len())) {
            mul16_row(dst, row, srcs, accumulate);
        }
    }

    /// One GF(2^16) row: the expanded split rows live on the stack
    /// (hence [`WIDE16_FUSE`]) and `dst` is walked in L1-sized chunks,
    /// each chunk visited by every source before the walk moves on.
    fn mul16_row(dst: &mut [u8], tables: &[Nibble16Tables], srcs: &[&[u8]], accumulate: bool) {
        const EMPTY: Wide16Rows = Wide16Rows {
            lo: [0; 256],
            hi: [0; 256],
        };
        let mut rows = [EMPTY; WIDE16_FUSE];
        for (row, t) in rows.iter_mut().zip(tables) {
            *row = t.expand_rows();
        }
        const CHUNK: usize = 4096; // multiple of the 2-byte symbol width
        let n = dst.len();
        let mut pos = 0;
        while pos < n {
            let end = (pos + CHUNK).min(n);
            for (j, s) in srcs.iter().enumerate() {
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

/// x86/x86_64 vector kernels: AVX2 (`VPSHUFB`, 256-bit) and GFNI
/// (`vgf2p8affineqb`, 512-bit).
// Vector kernels slice at multiples of the vector width computed from
// `len()` and index scalar tails below the asserted common length.
#[allow(clippy::indexing_slicing)]
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86 {
    use super::{affine_matrix, assert_whole_blocks, block_len, digest_tables, empty_block};
    use super::{KernelBackend, KernelSuite, MulTables, Nibble16Tables};
    use super::{BLOCK_ROWS, DIGEST_BLOCK, DIGEST_HI_MUL, DIGEST_LO_MUL, MAX_FUSE, WIDE16_FUSE};
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    pub(super) static AVX2_SUITE: KernelSuite = KernelSuite {
        backend: KernelBackend::Avx2,
        mul_block: |d, t, s, acc| {
            // SAFETY: this suite is only reachable via `suite_for`, which
            // verified is_x86_feature_detected!("avx2").
            unsafe { avx2_mul_block(d, t, s, acc) }
        },
        xor_multi: xor_multi_avx2,
        mul16_block: |d, t, s, acc| {
            // SAFETY: as above — AVX2 presence verified by `suite_for`.
            unsafe { avx2_mul16_block(d, t, s, acc) }
        },
        digest_horner: |acc, blocks| {
            // SAFETY: as above — AVX2 presence verified by `suite_for`.
            unsafe { avx2_digest_horner(acc, blocks) }
        },
    };

    pub(super) static GFNI_SUITE: KernelSuite = KernelSuite {
        backend: KernelBackend::Gfni,
        mul_block: |d, t, s, acc| {
            // SAFETY: this suite is only reachable via `suite_for`, which
            // verified all five features with `is_x86_feature_detected!`.
            unsafe { gfni_mul_block(d, t, s, acc) }
        },
        xor_multi: xor_multi_avx2,
        mul16_block: |d, t, s, acc| {
            // SAFETY: as above — all five features verified by `suite_for`.
            unsafe { gfni_mul16_block(d, t, s, acc) }
        },
        digest_horner: |acc, blocks| {
            // SAFETY: as above — all five features verified by `suite_for`.
            unsafe { gfni_digest_horner(acc, blocks) }
        },
    };

    /// The XOR row of both vector suites.
    fn xor_multi_avx2(dst: &mut [u8], srcs: &[&[u8]], accumulate: bool) {
        // SAFETY: both suites holding this fn are only reachable via
        // `suite_for`, which verified AVX2 (the GFNI suite's features
        // include it).
        unsafe { avx2_xor_multi(dst, srcs, accumulate) }
    }

    /// Byte-gather masks deinterleaving 16-bit little-endian symbols:
    /// the even (low) or odd (high) source bytes land in the lower 8
    /// bytes of each shuffled 128-bit lane, the rest zero (`-1` lanes).
    const GATHER_EVEN: [i8; 16] = [0, 2, 4, 6, 8, 10, 12, 14, -1, -1, -1, -1, -1, -1, -1, -1];
    const GATHER_ODD: [i8; 16] = [1, 3, 5, 7, 9, 11, 13, 15, -1, -1, -1, -1, -1, -1, -1, -1];

    /// Broadcasts a 16-byte nibble table to both 128-bit lanes (`VPSHUFB`
    /// looks up within each lane).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn broadcast_table(table: &[u8; 16]) -> __m256i {
        // SAFETY: `table` is 16 readable bytes; `loadu` needs no alignment.
        _mm256_broadcastsi128_si256(unsafe { _mm_loadu_si128(table.as_ptr().cast()) })
    }

    /// Panics unless every source length is `n`: the vector loads read
    /// `n` bytes of each source, so this is what keeps them in bounds.
    fn assert_sources_span(n: usize, mut lens: impl Iterator<Item = usize>) {
        assert!(lens.all(|len| len == n), "source length differs from dst");
    }

    /// 32 source bytes split into their low and high nibbles: the part
    /// of a split-nibble multiply that no coefficient changes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn split8(v: __m256i, mask: __m256i) -> [__m256i; 2] {
        [
            _mm256_and_si256(v, mask),
            _mm256_and_si256(_mm256_srli_epi64::<4>(v), mask),
        ]
    }

    /// `c·v` for 32 split bytes: two `VPSHUFB` lookups in `c`'s tables.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mul8(nib: &[__m256i; 2], t: &MulTables) -> __m256i {
        _mm256_xor_si256(
            _mm256_shuffle_epi8(broadcast_table(&t.lo), nib[0]),
            _mm256_shuffle_epi8(broadcast_table(&t.hi), nib[1]),
        )
    }

    /// `dst[i..i + 32]`, or zero when the block overwrites.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn start32(dst: &[u8], i: usize, accumulate: bool) -> __m256i {
        assert!(i + 32 <= dst.len());
        if accumulate {
            // SAFETY: asserted just above.
            unsafe { _mm256_loadu_si256(dst.as_ptr().add(i).cast()) }
        } else {
            _mm256_setzero_si256()
        }
    }

    /// Byte-wide block over 32-byte vectors: each source vector is
    /// loaded and split once per step, each destination vector loaded
    /// (when accumulating) and stored once. At most [`MAX_FUSE`] sources.
    #[target_feature(enable = "avx2")]
    fn avx2_mul_block(
        dsts: &mut [&mut [u8]],
        tables: &[MulTables],
        srcs: &[&[u8]],
        accumulate: bool,
    ) {
        let n = block_len(dsts, tables.len(), srcs, MAX_FUSE);
        if empty_block(dsts, srcs, accumulate) {
            return;
        }
        let mask = _mm256_set1_epi8(0x0F);
        let mut i = 0;
        if let [dst] = dsts {
            // One row: every split source goes straight from registers
            // into the product.
            while i + 32 <= n {
                let mut acc = start32(dst, i, accumulate);
                for (t, s) in tables.iter().zip(srcs) {
                    // SAFETY: `s` is `n` bytes long and `i + 32 <= n`.
                    let v = unsafe { _mm256_loadu_si256(s.as_ptr().add(i).cast()) };
                    acc = _mm256_xor_si256(acc, mul8(&split8(v, mask), t));
                }
                // SAFETY: `dst` is `n` bytes long and `i + 32 <= n`.
                unsafe { _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), acc) };
                i += 32;
            }
        } else {
            // Several rows: each step parks its split sources on the
            // stack, and every row multiplies from them.
            let mut parked = [[_mm256_setzero_si256(); 2]; MAX_FUSE];
            while i + 32 <= n {
                for (p, s) in parked.iter_mut().zip(srcs) {
                    // SAFETY: `s` is `n` bytes long and `i + 32 <= n`.
                    let v = unsafe { _mm256_loadu_si256(s.as_ptr().add(i).cast()) };
                    *p = split8(v, mask);
                }
                // Two rows at a time, sharing each parked nibble load; an
                // odd last row runs as its own twin and is stored once.
                let ns = srcs.len();
                for (pair, pt) in dsts.chunks_mut(2).zip(tables.chunks(2 * ns)) {
                    let (t0, rest) = pt.split_at(ns);
                    let t1 = if rest.is_empty() { t0 } else { rest };
                    let mut acc = [_mm256_setzero_si256(); 2];
                    for ((a, b), nib) in t0.iter().zip(t1).zip(&parked) {
                        acc[0] = _mm256_xor_si256(acc[0], mul8(nib, a));
                        acc[1] = _mm256_xor_si256(acc[1], mul8(nib, b));
                    }
                    for (dst, acc) in pair.iter_mut().zip(acc) {
                        let acc = _mm256_xor_si256(acc, start32(dst, i, accumulate));
                        // SAFETY: `dst` is `n` bytes long and `i + 32 <= n`.
                        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), acc) };
                    }
                }
                i += 32;
            }
        }
        for (dst, row) in dsts.iter_mut().zip(tables.chunks_exact(srcs.len())) {
            for j in i..n {
                let mut acc = if accumulate { dst[j] } else { 0 };
                for (t, s) in row.iter().zip(srcs) {
                    acc ^= t.mul_byte(s[j]);
                }
                dst[j] = acc;
            }
        }
    }

    /// Splits 64 payload bytes (32 symbols) into the four nibble vectors
    /// of their symbols, in symbol order: deinterleave the low and high
    /// bytes, then split each. `VPSHUFB` gathers per lane, so each lane's
    /// even (or odd) bytes land in its low qword; `unpacklo_epi64` pairs
    /// the qwords as `[A₀,B₀|A₁,B₁]` and the `permute4x64` restores
    /// `[A₀,A₁,B₀,B₁]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn split16(
        va: __m256i,
        vb: __m256i,
        even: __m256i,
        odd: __m256i,
        mask: __m256i,
    ) -> [__m256i; 4] {
        let lo = _mm256_permute4x64_epi64::<0b1101_1000>(_mm256_unpacklo_epi64(
            _mm256_shuffle_epi8(va, even),
            _mm256_shuffle_epi8(vb, even),
        ));
        let hi = _mm256_permute4x64_epi64::<0b1101_1000>(_mm256_unpacklo_epi64(
            _mm256_shuffle_epi8(va, odd),
            _mm256_shuffle_epi8(vb, odd),
        ));
        let [n0, n1] = split8(lo, mask);
        let [n2, n3] = split8(hi, mask);
        [n0, n1, n2, n3]
    }

    /// GF(2^16) product of 32 split symbols by one coefficient: eight
    /// `VPSHUFB` lookups, returned as (low bytes, high bytes) vectors.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mul16(nib: &[__m256i; 4], t: &Nibble16Tables) -> (__m256i, __m256i) {
        let look = |table: &[u8; 16], n: __m256i| _mm256_shuffle_epi8(broadcast_table(table), n);
        let plo = _mm256_xor_si256(
            _mm256_xor_si256(look(&t.lo[0], nib[0]), look(&t.lo[1], nib[1])),
            _mm256_xor_si256(look(&t.lo[2], nib[2]), look(&t.lo[3], nib[3])),
        );
        let phi = _mm256_xor_si256(
            _mm256_xor_si256(look(&t.hi[0], nib[0]), look(&t.hi[1], nib[1])),
            _mm256_xor_si256(look(&t.hi[2], nib[2]), look(&t.hi[3], nib[3])),
        );
        (plo, phi)
    }

    /// Reinterleaves a row's product bytes into 64 payload bytes at
    /// `dst[i..]`, XORed onto them when accumulating. `unpack{lo,hi}_epi8`
    /// interleave per lane, leaving the four symbol octets as
    /// `[s0₋8|s16₋24]` and `[s8₋16|s24₋32]`; the two lane permutes
    /// reassemble contiguous payload order.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn finish16(dst: &mut [u8], i: usize, plo: __m256i, phi: __m256i, accumulate: bool) {
        assert!(i + 64 <= dst.len());
        let il = _mm256_unpacklo_epi8(plo, phi);
        let ih = _mm256_unpackhi_epi8(plo, phi);
        let mut outa = _mm256_permute2x128_si256::<0x20>(il, ih);
        let mut outb = _mm256_permute2x128_si256::<0x31>(il, ih);
        let p = dst.as_mut_ptr();
        if accumulate {
            // SAFETY: asserted above: both loads stay in `dst`.
            let (da, db) = unsafe {
                (
                    _mm256_loadu_si256(p.add(i).cast()),
                    _mm256_loadu_si256(p.add(i + 32).cast()),
                )
            };
            outa = _mm256_xor_si256(outa, da);
            outb = _mm256_xor_si256(outb, db);
        }
        // SAFETY: asserted above: both stores stay in `dst`.
        unsafe {
            _mm256_storeu_si256(p.add(i).cast(), outa);
            _mm256_storeu_si256(p.add(i + 32).cast(), outb);
        }
    }

    /// GF(2^16) block over 64-byte steps: each source step is loaded,
    /// deinterleaved and split once, and each row is reinterleaved and
    /// stored once, after all its sources. At most [`WIDE16_FUSE`]
    /// sources, each of the destinations' (even) length.
    #[target_feature(enable = "avx2")]
    fn avx2_mul16_block(
        dsts: &mut [&mut [u8]],
        tables: &[Nibble16Tables],
        srcs: &[&[u8]],
        accumulate: bool,
    ) {
        let n = block_len(dsts, tables.len(), srcs, WIDE16_FUSE);
        if empty_block(dsts, srcs, accumulate) {
            return;
        }
        let mask = _mm256_set1_epi8(0x0F);
        // SAFETY: each mask is a 16-byte array; `loadu` needs no alignment.
        let even =
            _mm256_broadcastsi128_si256(unsafe { _mm_loadu_si128(GATHER_EVEN.as_ptr().cast()) });
        // SAFETY: as above.
        let odd =
            _mm256_broadcastsi128_si256(unsafe { _mm_loadu_si128(GATHER_ODD.as_ptr().cast()) });
        let load = |s: &[u8], i: usize| {
            assert!(i + 64 <= s.len());
            // SAFETY: asserted just above: both loads stay in `s`.
            let (va, vb) = unsafe {
                (
                    _mm256_loadu_si256(s.as_ptr().add(i).cast()),
                    _mm256_loadu_si256(s.as_ptr().add(i + 32).cast()),
                )
            };
            split16(va, vb, even, odd, mask)
        };
        let mut i = 0;
        if let [dst] = dsts {
            // One row: every split source goes straight from registers
            // into the product.
            while i + 64 <= n {
                let (mut lo, mut hi) = (_mm256_setzero_si256(), _mm256_setzero_si256());
                for (t, s) in tables.iter().zip(srcs) {
                    let (plo, phi) = mul16(&load(s, i), t);
                    lo = _mm256_xor_si256(lo, plo);
                    hi = _mm256_xor_si256(hi, phi);
                }
                finish16(dst, i, lo, hi, accumulate);
                i += 64;
            }
        } else {
            // Several rows: each step parks its split sources on the
            // stack, and every row multiplies from them.
            let mut parked = [[_mm256_setzero_si256(); 4]; WIDE16_FUSE];
            while i + 64 <= n {
                for (p, s) in parked.iter_mut().zip(srcs) {
                    *p = load(s, i);
                }
                // Two rows at a time, sharing each parked nibble load; an
                // odd last row runs as its own twin and is stored once.
                let ns = srcs.len();
                for (pair, pt) in dsts.chunks_mut(2).zip(tables.chunks(2 * ns)) {
                    let (t0, rest) = pt.split_at(ns);
                    let t1 = if rest.is_empty() { t0 } else { rest };
                    let mut acc = [_mm256_setzero_si256(); 4];
                    for ((a, b), nib) in t0.iter().zip(t1).zip(&parked) {
                        let (p, q) = mul16(nib, a);
                        acc[0] = _mm256_xor_si256(acc[0], p);
                        acc[1] = _mm256_xor_si256(acc[1], q);
                        let (p, q) = mul16(nib, b);
                        acc[2] = _mm256_xor_si256(acc[2], p);
                        acc[3] = _mm256_xor_si256(acc[3], q);
                    }
                    let [lo0, hi0, lo1, hi1] = acc;
                    for (dst, [lo, hi]) in pair.iter_mut().zip([[lo0, hi0], [lo1, hi1]]) {
                        finish16(dst, i, lo, hi, accumulate);
                    }
                }
                i += 64;
            }
        }
        for (dst, row) in dsts.iter_mut().zip(tables.chunks_exact(srcs.len())) {
            let mut j = i;
            while j + 2 <= n {
                let mut acc = if accumulate {
                    u16::from_le_bytes([dst[j], dst[j + 1]])
                } else {
                    0
                };
                for (t, s) in row.iter().zip(srcs) {
                    acc ^= t.mul_symbol(u16::from_le_bytes([s[j], s[j + 1]]));
                }
                dst[j..j + 2].copy_from_slice(&acc.to_le_bytes());
                j += 2;
            }
        }
    }

    /// `vpermt2b` indices gathering the even (`ODD = 0`) or odd
    /// (`ODD = 1`) bytes of a 128-byte pair of vectors: 128 bytes of
    /// symbols become their 64 low and 64 high bytes.
    const fn gather_index<const ODD: u8>() -> [u8; 64] {
        let mut idx = [0u8; 64];
        let mut k = 0;
        while k < 64 {
            idx[k] = 2 * k as u8 + ODD;
            k += 1;
        }
        idx
    }

    /// `vpermt2b` indices interleaving symbols `HALF·32 ..` of a low-byte
    /// and a high-byte vector (`HALF` 0 or 1) back into 64 payload bytes.
    const fn interleave_index<const HALF: u8>() -> [u8; 64] {
        let mut idx = [0u8; 64];
        let mut k = 0;
        while k < 32 {
            idx[2 * k] = HALF * 32 + k as u8;
            idx[2 * k + 1] = 64 + HALF * 32 + k as u8;
            k += 1;
        }
        idx
    }

    /// One 64-byte vector of the 64-byte array `idx`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load_index(idx: &[u8; 64]) -> __m512i {
        // SAFETY: `idx` is 64 readable bytes; `loadu` needs no alignment.
        unsafe { _mm512_loadu_si512(idx.as_ptr().cast()) }
    }

    /// `dst[i..i + 64] = [dst[i..i + 64] ^] v`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store64(dst: &mut [u8], i: usize, v: __m512i, accumulate: bool) {
        assert!(i + 64 <= dst.len());
        let p = dst.as_mut_ptr();
        let v = if accumulate {
            // SAFETY: asserted above: the load stays in `dst`.
            _mm512_xor_si512(v, unsafe { _mm512_loadu_si512(p.add(i).cast()) })
        } else {
            v
        };
        // SAFETY: asserted above: the store stays in `dst`.
        unsafe { _mm512_storeu_si512(p.add(i).cast(), v) };
    }

    /// 64 bytes multiplied by the coefficient whose affine matrix is `m`.
    #[inline]
    #[target_feature(enable = "avx512f,gfni")]
    fn affine(v: __m512i, m: &u64) -> __m512i {
        _mm512_gf2p8affine_epi64_epi8::<0>(v, _mm512_set1_epi64(*m as i64))
    }

    /// `a ^ b ^ c` in one `vpternlogq`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn xor3(a: __m512i, b: __m512i, c: __m512i) -> __m512i {
        _mm512_ternarylogic_epi64::<0x96>(a, b, c)
    }

    /// The sub-slices from byte `i` on of a block's destinations and
    /// sources, for the AVX2 block to finish what the 512-bit steps
    /// left.
    fn tails<'d, 's, const FUSE: usize>(
        dsts: &'d mut [&mut [u8]],
        srcs: &[&'s [u8]],
        i: usize,
    ) -> ([&'d mut [u8]; BLOCK_ROWS], [&'s [u8]; FUSE]) {
        let mut d: [&mut [u8]; BLOCK_ROWS] = Default::default();
        let mut s: [&[u8]; FUSE] = [&[]; FUSE];
        for (t, dst) in d.iter_mut().zip(dsts.iter_mut()) {
            *t = &mut dst[i..];
        }
        for (t, src) in s.iter_mut().zip(srcs) {
            *t = &src[i..];
        }
        (d, s)
    }

    /// Byte-wide block over 64-byte steps: one `vgf2p8affineqb` and one
    /// XOR per (row, source, step), each coefficient's 8×8 bit matrix
    /// broadcast from memory. A one-row block keeps its sources in
    /// registers; taller blocks run two rows per pass, sharing each
    /// source load. The AVX2 block finishes the last `< 64` bytes.
    #[target_feature(enable = "avx2,avx512f,avx512bw,avx512vbmi,gfni")]
    fn gfni_mul_block(
        dsts: &mut [&mut [u8]],
        tables: &[MulTables],
        srcs: &[&[u8]],
        accumulate: bool,
    ) {
        let n = block_len(dsts, tables.len(), srcs, MAX_FUSE);
        if empty_block(dsts, srcs, accumulate) {
            return;
        }
        let mut i = 0;
        if let [dst] = dsts {
            let mats: [u64; MAX_FUSE] =
                std::array::from_fn(|k| tables.get(k).map_or(0, MulTables::affine));
            while i + 64 <= n {
                let mut acc = _mm512_setzero_si512();
                for (m, s) in mats.iter().zip(srcs) {
                    // SAFETY: `s` is `n` bytes long and `i + 64 <= n`.
                    let v = unsafe { _mm512_loadu_si512(s.as_ptr().add(i).cast()) };
                    acc = _mm512_xor_si512(acc, affine(v, m));
                }
                store64(dst, i, acc, accumulate);
                i += 64;
            }
        } else {
            let mats: [u64; BLOCK_ROWS * MAX_FUSE] =
                std::array::from_fn(|k| tables.get(k).map_or(0, MulTables::affine));
            let ns = srcs.len();
            while i + 64 <= n {
                // Two rows at a time; an odd last row runs as its own
                // twin and is stored once.
                for (pair, pm) in dsts.chunks_mut(2).zip(mats[..tables.len()].chunks(2 * ns)) {
                    let (m0, rest) = pm.split_at(ns);
                    let m1 = if rest.is_empty() { m0 } else { rest };
                    let mut acc = [_mm512_setzero_si512(); 2];
                    for ((a, b), s) in m0.iter().zip(m1).zip(srcs) {
                        // SAFETY: `s` is `n` bytes long and `i + 64 <= n`.
                        let v = unsafe { _mm512_loadu_si512(s.as_ptr().add(i).cast()) };
                        acc[0] = _mm512_xor_si512(acc[0], affine(v, a));
                        acc[1] = _mm512_xor_si512(acc[1], affine(v, b));
                    }
                    for (dst, acc) in pair.iter_mut().zip(acc) {
                        store64(dst, i, acc, accumulate);
                    }
                }
                i += 64;
            }
        }
        if i < n {
            let rows = dsts.len();
            let (mut d, s) = tails::<MAX_FUSE>(dsts, srcs, i);
            avx2_mul_block(&mut d[..rows], tables, &s[..srcs.len()], accumulate);
        }
    }

    /// GF(2^16) block over 128-byte steps: two `vpermt2b` split each
    /// source step into its 64 symbols' low and high bytes, four affine
    /// ops and two `vpternlogq` multiply-accumulate one (row, source),
    /// and two `vpermt2b` reinterleave each row once, after all its
    /// sources. A one-row block keeps its split sources in registers;
    /// taller blocks park them on the stack and run two rows per pass.
    /// The AVX2 block finishes the last `< 128` bytes.
    #[target_feature(enable = "avx2,avx512f,avx512bw,avx512vbmi,gfni")]
    fn gfni_mul16_block(
        dsts: &mut [&mut [u8]],
        tables: &[Nibble16Tables],
        srcs: &[&[u8]],
        accumulate: bool,
    ) {
        let n = block_len(dsts, tables.len(), srcs, WIDE16_FUSE);
        if empty_block(dsts, srcs, accumulate) {
            return;
        }
        let (even, odd) = (
            load_index(&gather_index::<0>()),
            load_index(&gather_index::<1>()),
        );
        let (first, second) = (
            load_index(&interleave_index::<0>()),
            load_index(&interleave_index::<1>()),
        );
        let split = |s: &[u8], i: usize| {
            assert!(i + 128 <= s.len());
            // SAFETY: asserted just above: `s[i..i + 64]` is in `s`.
            let va = unsafe { _mm512_loadu_si512(s.as_ptr().add(i).cast()) };
            // SAFETY: asserted above: `s[i + 64..i + 128]` is in `s`.
            let vb = unsafe { _mm512_loadu_si512(s.as_ptr().add(i + 64).cast()) };
            [
                _mm512_permutex2var_epi8(va, even, vb),
                _mm512_permutex2var_epi8(va, odd, vb),
            ]
        };
        // `c·s` for one split source step, accumulated into `acc`.
        let mul_acc = |acc: &mut [__m512i; 2], [lo, hi]: [__m512i; 2], m: &[u64; 4]| {
            acc[0] = xor3(acc[0], affine(lo, &m[0]), affine(hi, &m[1]));
            acc[1] = xor3(acc[1], affine(lo, &m[2]), affine(hi, &m[3]));
        };
        let finish = |dst: &mut [u8], i: usize, [lo, hi]: [__m512i; 2]| {
            store64(dst, i, _mm512_permutex2var_epi8(lo, first, hi), accumulate);
            store64(
                dst,
                i + 64,
                _mm512_permutex2var_epi8(lo, second, hi),
                accumulate,
            );
        };
        let mut i = 0;
        if let [dst] = dsts {
            let mats: [[u64; 4]; WIDE16_FUSE] =
                std::array::from_fn(|k| tables.get(k).map_or([0; 4], Nibble16Tables::affine));
            while i + 128 <= n {
                let mut acc = [_mm512_setzero_si512(); 2];
                for (m, s) in mats.iter().zip(srcs) {
                    mul_acc(&mut acc, split(s, i), m);
                }
                finish(dst, i, acc);
                i += 128;
            }
        } else {
            let mats: [[u64; 4]; BLOCK_ROWS * WIDE16_FUSE] =
                std::array::from_fn(|k| tables.get(k).map_or([0; 4], Nibble16Tables::affine));
            let ns = srcs.len();
            let mut parked = [[_mm512_setzero_si512(); 2]; WIDE16_FUSE];
            while i + 128 <= n {
                for (p, s) in parked.iter_mut().zip(srcs) {
                    *p = split(s, i);
                }
                // Two rows at a time, sharing each parked load; an odd
                // last row runs as its own twin and is stored once.
                for (pair, pm) in dsts.chunks_mut(2).zip(mats[..tables.len()].chunks(2 * ns)) {
                    let (m0, rest) = pm.split_at(ns);
                    let m1 = if rest.is_empty() { m0 } else { rest };
                    let mut acc = [[_mm512_setzero_si512(); 2]; 2];
                    for ((a, b), &p) in m0.iter().zip(m1).zip(&parked) {
                        mul_acc(&mut acc[0], p, a);
                        mul_acc(&mut acc[1], p, b);
                    }
                    for (dst, acc) in pair.iter_mut().zip(acc) {
                        finish(dst, i, acc);
                    }
                }
                i += 128;
            }
        }
        if i < n {
            let rows = dsts.len();
            let (mut d, s) = tails::<WIDE16_FUSE>(dsts, srcs, i);
            avx2_mul16_block(&mut d[..rows], tables, &s[..srcs.len()], accumulate);
        }
    }

    /// The nibble tables of `0x40`, for the AVX2 Horner step.
    const DIGEST_LO_TABLES: MulTables = digest_tables(DIGEST_LO_MUL);

    /// The affine matrices of `0x40` and `2`, for the GFNI Horner step.
    const DIGEST_LO_MATRIX: u64 = affine_matrix(&DIGEST_LO_TABLES.lo, &DIGEST_LO_TABLES.hi);
    const DIGEST_HI_MATRIX: u64 = {
        let t = digest_tables(DIGEST_HI_MUL);
        affine_matrix(&t.lo, &t.hi)
    };

    /// The Horner step over 32-byte vectors, the 64 lanes in four
    /// registers for the whole loop: `0x40·hi` is two `VPSHUFB`
    /// lookups, `2·(lo ⊕ hi)` a doubling with a conditional `0x1D`.
    #[target_feature(enable = "avx2")]
    fn avx2_digest_horner(acc: &mut [u8; DIGEST_BLOCK], blocks: &[u8]) {
        assert_whole_blocks(blocks);
        // The doubling below is the multiply by `DIGEST_HI_MUL`.
        const _: () = assert!(DIGEST_HI_MUL == 2);
        let t = &DIGEST_LO_TABLES;
        let (t_lo, t_hi) = (broadcast_table(&t.lo), broadcast_table(&t.hi));
        let mask = _mm256_set1_epi8(0x0F);
        let poly = _mm256_set1_epi8(0x1D);
        let zero = _mm256_setzero_si256();
        let p = acc.as_mut_ptr();
        let mut v = [_mm256_setzero_si256(); 4];
        for (i, r) in v.iter_mut().enumerate() {
            // SAFETY: `acc` is 128 bytes and `32·i + 32 <= 128`.
            *r = unsafe { _mm256_loadu_si256(p.add(32 * i).cast()) };
        }
        let mut x = [_mm256_setzero_si256(); 4];
        for block in blocks.chunks_exact(DIGEST_BLOCK) {
            for (i, r) in x.iter_mut().enumerate() {
                // SAFETY: `block` is 128 bytes, as `chunks_exact` hands
                // out, and `32·i + 32 <= 128`.
                *r = unsafe { _mm256_loadu_si256(block.as_ptr().add(32 * i).cast()) };
            }
            for half in 0..2 {
                let (lo, hi) = (v[half], v[half + 2]);
                let nib = split8(hi, mask);
                let lo_next = _mm256_xor_si256(
                    _mm256_xor_si256(
                        _mm256_shuffle_epi8(t_lo, nib[0]),
                        _mm256_shuffle_epi8(t_hi, nib[1]),
                    ),
                    x[half],
                );
                let s = _mm256_xor_si256(lo, hi);
                let twice = _mm256_xor_si256(
                    _mm256_add_epi8(s, s),
                    _mm256_and_si256(_mm256_cmpgt_epi8(zero, s), poly),
                );
                v[half] = lo_next;
                v[half + 2] = _mm256_xor_si256(twice, x[half + 2]);
            }
        }
        for (i, r) in v.into_iter().enumerate() {
            // SAFETY: as for the loads: inside `acc`'s 128 bytes.
            unsafe { _mm256_storeu_si256(p.add(32 * i).cast(), r) };
        }
    }

    /// The Horner step over 32-byte vectors, the 64 lanes in four
    /// registers for the whole loop: two affine ops (`0x40·hi`,
    /// `2·(lo ⊕ hi)`) and three XORs per 64 bytes. 256-bit, not 512: a
    /// 512-bit twin runs within 10% of this one's rate, and a digest
    /// runs on every chunk a client reads, between socket reads, where
    /// this one needs no AVX-512 state. On an AMD EPYC ten `read_mix`
    /// pairs with the 512-bit twin read the direct reads' median +2.8%
    /// against the parent (2 of 10 won), ten with this one −1.7% (7 of
    /// 10); the two sets were not interleaved.
    #[target_feature(enable = "avx2,gfni")]
    fn gfni_digest_horner(acc: &mut [u8; DIGEST_BLOCK], blocks: &[u8]) {
        assert_whole_blocks(blocks);
        let m_lo = _mm256_set1_epi64x(DIGEST_LO_MATRIX as i64);
        let m_hi = _mm256_set1_epi64x(DIGEST_HI_MATRIX as i64);
        let p = acc.as_mut_ptr();
        let mut v = [_mm256_setzero_si256(); 4];
        for (i, r) in v.iter_mut().enumerate() {
            // SAFETY: `acc` is 128 bytes and `32·i + 32 <= 128`.
            *r = unsafe { _mm256_loadu_si256(p.add(32 * i).cast()) };
        }
        let mut x = [_mm256_setzero_si256(); 4];
        for block in blocks.chunks_exact(DIGEST_BLOCK) {
            for (i, r) in x.iter_mut().enumerate() {
                // SAFETY: `block` is 128 bytes, as `chunks_exact` hands
                // out, and `32·i + 32 <= 128`.
                *r = unsafe { _mm256_loadu_si256(block.as_ptr().add(32 * i).cast()) };
            }
            for half in 0..2 {
                let (lo, hi) = (v[half], v[half + 2]);
                v[half] = _mm256_xor_si256(_mm256_gf2p8affine_epi64_epi8::<0>(hi, m_lo), x[half]);
                v[half + 2] = _mm256_xor_si256(
                    _mm256_gf2p8affine_epi64_epi8::<0>(_mm256_xor_si256(lo, hi), m_hi),
                    x[half + 2],
                );
            }
        }
        for (i, r) in v.into_iter().enumerate() {
            // SAFETY: as for the loads: inside `acc`'s 128 bytes.
            unsafe { _mm256_storeu_si256(p.add(32 * i).cast(), r) };
        }
    }

    /// Fused XOR row over 32-byte vectors. At most [`MAX_FUSE`] sources,
    /// each of `dst`'s length.
    #[target_feature(enable = "avx2")]
    fn avx2_xor_multi(dst: &mut [u8], srcs: &[&[u8]], accumulate: bool) {
        debug_assert!(srcs.len() <= MAX_FUSE);
        let n = dst.len();
        assert_sources_span(n, srcs.iter().map(|s| s.len()));
        if srcs.is_empty() {
            if !accumulate {
                dst.fill(0);
            }
            return;
        }
        let mut i = 0;
        while i + 32 <= n {
            let mut acc = if accumulate {
                // SAFETY: `i + 32 <= n`, so the load stays in `dst`.
                unsafe { _mm256_loadu_si256(dst.as_ptr().add(i).cast()) }
            } else {
                _mm256_setzero_si256()
            };
            for s in srcs {
                // SAFETY: `s` is `n` bytes long and `i + 32 <= n`.
                let v = unsafe { _mm256_loadu_si256(s.as_ptr().add(i).cast()) };
                acc = _mm256_xor_si256(acc, v);
            }
            // SAFETY: `i + 32 <= n`, so the store stays in `dst`.
            unsafe { _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), acc) };
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

#[cfg(test)]
mod tests {
    use super::{scalar, suite_for, KernelBackend, KernelSuite, MulTables, Nibble16Tables};
    use crate::{Field, Gf16, Gf256, Gf65536};

    /// Each variant's successor in declaration order. The `match` is
    /// exhaustive, so a new variant does not compile until it is placed
    /// here — and then `ALL` must list it too.
    fn next_variant(b: KernelBackend) -> Option<KernelBackend> {
        match b {
            KernelBackend::Scalar => Some(KernelBackend::Avx2),
            KernelBackend::Avx2 => Some(KernelBackend::Gfni),
            KernelBackend::Gfni => None,
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

    /// A source shorter than `dst`, a destination shorter than the
    /// first, or a digest input that ends mid-block panics in every
    /// kernel of every suite instead of being read or written past its
    /// end.
    #[test]
    fn a_short_source_panics_in_every_kernel() {
        let short = [0u8; 32];
        let long = [0u8; 128];
        for b in KernelBackend::supported() {
            let s = suite_for(b);
            for kernel in 0..6 {
                let call = std::panic::catch_unwind(|| {
                    let (mut d0, mut d1, mut d2) = ([0u8; 64], [0u8; 128], [0u8; 32]);
                    match kernel {
                        0 => {
                            (s.mul_block)(&mut [&mut d0], &[MulTables::default()], &[&short], true)
                        }
                        1 => (s.xor_multi)(&mut d0, &[&short], true),
                        2 => (s.mul16_block)(
                            &mut [&mut d1],
                            &[Nibble16Tables::default()],
                            &[&short],
                            true,
                        ),
                        // A second row shorter than the first.
                        3 => (s.mul_block)(
                            &mut [&mut d0, &mut d2],
                            &[MulTables::default(); 2],
                            &[&long[..64]],
                            true,
                        ),
                        4 => (s.mul16_block)(
                            &mut [&mut d1, &mut d2],
                            &[Nibble16Tables::default(); 2],
                            &[&long],
                            true,
                        ),
                        // A digest input that ends mid-block.
                        _ => (s.digest_horner)(&mut [0; 128], &long[..97]),
                    }
                });
                assert!(
                    call.is_err(),
                    "{b:?} kernel {kernel} went past a short source or destination"
                );
            }
        }
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
                "mul_block",
                std::ptr::fn_addr_eq(suite.mul_block, s.mul_block),
            ),
            (
                "xor_multi",
                std::ptr::fn_addr_eq(suite.xor_multi, s.xor_multi),
            ),
            (
                "mul16_block",
                std::ptr::fn_addr_eq(suite.mul16_block, s.mul16_block),
            ),
            (
                "digest_horner",
                std::ptr::fn_addr_eq(suite.digest_horner, s.digest_horner),
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
            ["mul_block", "xor_multi", "mul16_block", "digest_horner"]
        );
    }

    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[test]
    fn gfni_suite_runs_no_scalar_kernel() {
        let (gfni, avx2) = (&super::x86::GFNI_SUITE, &super::x86::AVX2_SUITE);
        assert_eq!(gfni.backend, KernelBackend::Gfni);
        assert_eq!(fields_shared_with_scalar(gfni), Vec::<&str>::new());
        // The XOR row is the AVX2 suite's; both multiply blocks and the
        // digest kernel are its own.
        assert!(std::ptr::fn_addr_eq(gfni.xor_multi, avx2.xor_multi));
        assert!(!std::ptr::fn_addr_eq(gfni.mul_block, avx2.mul_block));
        assert!(!std::ptr::fn_addr_eq(gfni.mul16_block, avx2.mul16_block));
        assert!(!std::ptr::fn_addr_eq(
            gfni.digest_horner,
            avx2.digest_horner
        ));
    }

    /// The digest kernels' compile-time tables are the field's.
    #[test]
    fn digest_tables_multiply_as_the_field_does() {
        for c in [super::DIGEST_LO_MUL, super::DIGEST_HI_MUL] {
            let want = MulTables::build(Gf256::from_index(c.into()));
            let got = super::digest_tables(c);
            assert_eq!((got.lo, got.hi), (want.lo, want.hi), "{c:#x}");
        }
    }

    /// `vgf2p8affineqb` on one byte, in portable code: output bit `i` is
    /// the parity of the matrix's byte `7 − i` ANDed with `x`.
    fn apply_affine(m: u64, x: u8) -> u8 {
        (0..8).fold(0, |out, i| {
            let row = (m >> (8 * (7 - i))) as u8;
            out | (((row & x).count_ones() & 1) as u8) << i
        })
    }

    /// A GF(2^16) symbol through the four matrices of
    /// [`Nibble16Tables::affine`], as the GFNI block combines them.
    fn apply_affine16(m: &[u64; 4], s: u16) -> u16 {
        let [lo, hi] = s.to_le_bytes();
        u16::from_le_bytes([
            apply_affine(m[0], lo) ^ apply_affine(m[1], hi),
            apply_affine(m[2], lo) ^ apply_affine(m[3], hi),
        ])
    }

    /// The matrices the GFNI kernels derive from the split-nibble tables
    /// multiply exactly as the field does, checked without the ISA.
    #[test]
    fn affine_matrices_multiply_as_the_field_does() {
        for c in 0..256 {
            let (c8, c4) = (Gf256::from_index(c), Gf16::from_index(c % 16));
            let (m8, m4) = (MulTables::build(c8).affine(), MulTables::build(c4).affine());
            for x in 0..=255u8 {
                let want = (c8 * Gf256::from_index(x.into())).index();
                assert_eq!(
                    u32::from(apply_affine(m8, x)),
                    want,
                    "GF(2^8) {c:#x} · {x:#x}"
                );
                // The high nibble of a GF(2^4) byte drops out, as in
                // `from_index`.
                let want = (c4 * Gf16::from_index(x.into())).index();
                assert_eq!(
                    u32::from(apply_affine(m4, x)),
                    want,
                    "GF(2^4) {c:#x} · {x:#x}"
                );
            }
        }
        let coeffs = [0, 1, 2, 0x8000, 0xFFFF]
            .into_iter()
            .chain((0..1000u32).map(|k| (k * 9973 + 0x8E2B) % 65536));
        for c in coeffs {
            let c = Gf65536::from_index(c);
            let m = Nibble16Tables::build(c).affine();
            for k in 0..256u32 {
                let s = (k * 40503 + k / 16) as u16;
                let want = (c * Gf65536::from_index(s.into())).index();
                assert_eq!(
                    u32::from(apply_affine16(&m, s)),
                    want,
                    "GF(2^16) {:#x} · {s:#x}",
                    c.index()
                );
            }
        }
    }
}
