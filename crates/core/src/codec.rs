//! The [`ErasureCodec`] trait, borrowed stripe views, and repair
//! accounting types.
//!
//! The codecs operate on *borrowed* stripe storage: the caller owns the
//! lane buffers (one per stripe position) and the codec reads and writes
//! through slices — [`ErasureCodec::encode_into`] into caller parity
//! buffers ([`crate::encode_into_parallel`] to shard that over threads),
//! [`ErasureCodec::repair_session`] compiled once per failure pattern,
//! then [`crate::RepairSession::repair`] on a [`StripeViewMut`].
//!
//! A [`RepairSession`](crate::RepairSession) caches the compiled decode
//! (the inverted submatrix folded into per-target coefficient rows), so
//! repeated repairs of one failure pattern — the simulator's common case
//! — run no Gaussian elimination and allocate nothing after compilation.
//! The number of eliminations ever performed is observable through
//! [`crate::decode_solve_count`].

use crate::error::{CodeError, Result};
use crate::session::RepairSession;
use crate::spec::CodeSpec;
use xorbas_gf::slice_ops::{payload_mul_acc_multi, payload_mul_into_block, payload_mul_into_multi};
use xorbas_gf::Field;

/// Maximum lane count a [`LaneMask`] stores without heap spill.
const INLINE_LANES: usize = 256;

/// A small bitset over stripe lane indices.
///
/// Stripes up to 256 lanes (every code in the paper, and anything that
/// fits GF(2^8)) are tracked inline without heap allocation; wider
/// stripes over larger fields spill to a heap vector at construction
/// time only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneMask {
    lanes: usize,
    bits: MaskBits,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum MaskBits {
    Inline([u64; INLINE_LANES / 64]),
    Spilled(Vec<u64>),
}

impl LaneMask {
    /// An all-clear mask over `lanes` lane indices.
    pub fn empty(lanes: usize) -> Self {
        let bits = if lanes <= INLINE_LANES {
            MaskBits::Inline([0; INLINE_LANES / 64])
        } else {
            MaskBits::Spilled(vec![0; lanes.div_ceil(64)])
        };
        Self { lanes, bits }
    }

    /// An all-set mask over `lanes` lane indices.
    pub fn full(lanes: usize) -> Self {
        let mut mask = Self::empty(lanes);
        for i in 0..lanes {
            mask.set(i);
        }
        mask
    }

    /// Number of lane indices this mask covers.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    fn words(&self) -> &[u64] {
        match &self.bits {
            MaskBits::Inline(w) => w,
            MaskBits::Spilled(w) => w,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.bits {
            MaskBits::Inline(w) => w,
            MaskBits::Spilled(w) => w,
        }
    }

    /// Sets bit `i`. Panics if `i` is out of range.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.lanes, "lane {i} out of range for {}", self.lanes);
        self.words_mut()[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`. Panics if `i` is out of range.
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.lanes, "lane {i} out of range for {}", self.lanes);
        self.words_mut()[i / 64] &= !(1u64 << (i % 64));
    }

    /// Whether bit `i` is set. Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.lanes, "lane {i} out of range for {}", self.lanes);
        self.words()[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits.
    fn count_ones(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The set lane indices, ascending.
    pub fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.lanes).filter(|&i| self.get(i))
    }
}

/// Validates a set of borrowed lanes: expected count, one shared length.
fn check_lane_shape(lens: impl Iterator<Item = usize>, expected: usize) -> Result<usize> {
    let mut count = 0;
    let mut shared = None;
    for len in lens {
        count += 1;
        match shared {
            None => shared = Some(len),
            Some(l) if l != len => return Err(CodeError::ShardSizeMismatch),
            _ => {}
        }
    }
    if count != expected {
        return Err(CodeError::ShardCountMismatch {
            expected,
            got: count,
        });
    }
    Ok(shared.unwrap_or(0))
}

/// Validates encode input lanes: exactly `k` borrowed payloads of one
/// shared length, returned.
pub(crate) fn check_data_lanes(data: &[&[u8]], k: usize) -> Result<usize> {
    check_lane_shape(data.iter().map(|d| d.len()), k)
}

/// Validates encode output lanes: exactly `m` borrowed buffers of length
/// `len` each.
pub(crate) fn check_parity_lanes(parity: &[&mut [u8]], m: usize, len: usize) -> Result<()> {
    let got = check_lane_shape(parity.iter().map(|p| p.len()), m)?;
    if m > 0 && got != len {
        return Err(CodeError::ShardSizeMismatch);
    }
    Ok(())
}

/// Rejects payload lengths that are not a whole number of field symbols.
///
/// Multi-byte-symbol codecs (GF(2^16): 2-byte symbols) cannot interpret
/// a trailing partial symbol; rather than silently truncating or
/// panicking deep in a kernel, every encode and session replay checks
/// the boundary up front and returns
/// [`CodeError::PayloadNotSymbolAligned`].
pub(crate) fn check_symbol_alignment(len: usize, symbol_bytes: usize) -> Result<()> {
    if symbol_bytes > 1 && !len.is_multiple_of(symbol_bytes) {
        return Err(CodeError::PayloadNotSymbolAligned { symbol_bytes, len });
    }
    Ok(())
}

/// How many sources an encode row hands to one fused kernel call; wider
/// rows are folded in stack-buffered batches.
pub(crate) const ENC_FUSE: usize = 16;

/// Fused-block encode of parity lanes: `out[r] = Σᵢ coeff(r, i)·data[i]`.
///
/// All the rows go to the kernels as one block, so each data vector is
/// loaded and split once per batch of rows rather than once per row.
/// Allocation-free; zero-fills every output lane when `data` is empty.
pub(crate) fn encode_rows<F: Field>(
    out: &mut [&mut [u8]],
    data: &[&[u8]],
    coeff: impl Fn(usize, usize) -> F,
) {
    payload_mul_into_block(out, data, coeff);
}

/// Fused-row encode of one output lane from any `(coefficient, source)`
/// stream: `out = Σ cᵢ·srcᵢ`.
///
/// Gathers the row on the stack in [`ENC_FUSE`] batches and issues the
/// fused multi-source kernels, so `out` is overwritten exactly once and
/// streamed through memory once, not once per source. Allocation-free;
/// zero-fills `out` when the stream is empty.
pub(crate) fn encode_row_iter<'a, F: Field>(
    out: &mut [u8],
    srcs: impl Iterator<Item = (F, &'a [u8])>,
) {
    let mut accumulate = false;
    let mut batch: [(F, &[u8]); ENC_FUSE] = [(F::ZERO, &[]); ENC_FUSE];
    let mut n = 0;
    let mut flush = |batch: &[(F, &[u8])], accumulate: &mut bool| {
        if *accumulate {
            payload_mul_acc_multi(out, batch);
        } else {
            payload_mul_into_multi(out, batch);
            *accumulate = true;
        }
    };
    for item in srcs {
        batch[n] = item;
        n += 1;
        if n == ENC_FUSE {
            flush(&batch[..n], &mut accumulate);
            n = 0;
        }
    }
    if n > 0 {
        flush(&batch[..n], &mut accumulate);
    }
    if !accumulate {
        out.fill(0);
    }
}

/// A borrowed mutable stripe: `n` equal-length payload lanes over
/// caller-owned storage, plus a present/missing mask.
///
/// This is the repair surface: a [`RepairSession`] reads the present
/// lanes and writes reconstructed payloads into the missing ones,
/// marking them present as it goes. Construct one per repair over
/// whatever storage the caller keeps (arena lanes, pooled buffers,
/// `Vec<Vec<u8>>` shards) — construction allocates nothing.
#[derive(Debug)]
pub struct StripeViewMut<'s, 'l> {
    lanes: &'s mut [&'l mut [u8]],
    present: LaneMask,
    lane_len: usize,
}

impl<'s, 'l> StripeViewMut<'s, 'l> {
    /// A view over `lanes` whose `missing` indices await reconstruction.
    ///
    /// Fails on ragged lane lengths or out-of-range indices.
    pub fn new(lanes: &'s mut [&'l mut [u8]], missing: &[usize]) -> Result<Self> {
        let lane_len = check_lane_shape(lanes.iter().map(|l| l.len()), lanes.len())?;
        let mut present = LaneMask::full(lanes.len());
        for &i in missing {
            if i >= lanes.len() {
                return Err(CodeError::InvalidParameters(format!(
                    "missing lane {i} out of range for {} lanes",
                    lanes.len()
                )));
            }
            present.clear(i);
        }
        Ok(Self {
            lanes,
            present,
            lane_len,
        })
    }

    /// Number of lanes (the stripe blocklength `n`).
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Shared payload length in bytes.
    pub fn lane_len(&self) -> usize {
        self.lane_len
    }

    /// Lane `i`'s payload (meaningless while the lane is missing).
    pub fn lane(&self, i: usize) -> &[u8] {
        self.lanes[i]
    }

    /// Mutable access to lane `i`'s payload.
    pub fn lane_mut(&mut self, i: usize) -> &mut [u8] {
        self.lanes[i]
    }

    /// Whether lane `i` carries real data.
    pub fn is_present(&self, i: usize) -> bool {
        self.present.get(i)
    }

    /// Marks lane `i` as carrying real data (a decoder finished it).
    pub fn mark_present(&mut self, i: usize) {
        self.present.set(i);
    }

    /// Split borrow for fused row kernels: mutable access to lane `dst`
    /// plus shared access to every other lane, exposed as the lanes
    /// before `dst` and the lanes after it. A source lane `i ≠ dst`
    /// reads as `&head[i]` when `i < dst` and `&tail[i - dst - 1]`
    /// otherwise — which is what [`crate::RepairSession`] does to gather
    /// a whole `lane[dst] = Σ cᵢ·lane[srcᵢ]` row for one fused kernel
    /// call instead of one pass over `dst` per source.
    #[allow(clippy::type_complexity)] // (dst, lanes-before, lanes-after)
    pub fn lane_split_mut(&mut self, dst: usize) -> (&mut [u8], &[&'l mut [u8]], &[&'l mut [u8]]) {
        let (head, rest) = self.lanes.split_at_mut(dst);
        let (dst_lane, tail) = rest.split_at_mut(1);
        (&mut *dst_lane[0], &*head, &*tail)
    }
}

/// One reconstruction task: the unit of work a BlockFixer map task
/// performs (§3.1.2 — "a single map task opens parallel streams to the
/// nodes containing the required blocks, downloads them, and performs a
/// simple XOR").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairTask {
    /// Blocks this task reconstructs and writes back.
    pub repairs: Vec<usize>,
    /// Blocks this task reads (distinct within the task).
    pub reads: Vec<usize>,
    /// The subset of `reads` from which only *half* the block's bytes
    /// are fetched. Substripe codecs (the piggybacked RS) repair a
    /// single data loss from mostly half-lane reads; whole-lane codecs
    /// leave this empty. Every entry must also appear in `reads`.
    pub half_reads: Vec<usize>,
    /// Whether this task runs the light decoder (XOR of a repair group)
    /// rather than the heavy full-stripe linear solve.
    pub light: bool,
}

impl RepairTask {
    /// Bytes this task reads, in block units: a whole-lane read counts
    /// 1.0, a half-lane read 0.5.
    pub fn read_volume(&self) -> f64 {
        self.reads.len() as f64 - 0.5 * self.half_reads.len() as f64
    }
}

/// What a repair would read, before any bytes move.
///
/// Produced by [`ErasureCodec::repair_plan`]; the cluster simulator
/// schedules one network/compute task per entry in `tasks`, and the
/// reliability model uses plans to derive expected repair traffic per
/// Markov state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairPlan {
    /// Indices of the missing blocks this plan repairs.
    pub missing: Vec<usize>,
    /// The tasks, in execution order (a later task may read a block an
    /// earlier task reconstructed).
    pub tasks: Vec<RepairTask>,
}

impl RepairPlan {
    /// Whether every task is a light-decoder task.
    pub fn is_light(&self) -> bool {
        self.tasks.iter().all(|t| t.light)
    }

    /// The blocks the plan's tasks read, deduplicated across tasks, as
    /// two disjoint lane bitsets: those some task reads whole, and those
    /// only ever read as half-lanes. This is the per-task view behind
    /// `blocks_read` / `read_volume` / `read_fractions` — it is not
    /// peel-aware (see [`RepairPlan::fetch_lanes`]). No sorting, and no
    /// heap traffic for stripes up to 256 blocks.
    fn read_lanes(&self) -> (LaneMask, LaneMask) {
        let width = self
            .tasks
            .iter()
            .flat_map(|t| t.reads.iter())
            .max()
            .map_or(0, |&m| m + 1);
        let mut full = LaneMask::empty(width);
        let mut half = LaneMask::empty(width);
        for task in &self.tasks {
            for &r in &task.reads {
                if task.half_reads.contains(&r) {
                    half.set(r);
                } else {
                    full.set(r);
                }
            }
        }
        for i in full.indices() {
            half.clear(i);
        }
        (full, half)
    }

    /// The lanes one in-memory executor must fetch to replay the whole
    /// plan, ascending: every lane some task reads that no *earlier*
    /// task of the plan repaired. This is the peel-aware set — a lane a
    /// first task rebuilds and a second then reads is already in the
    /// executor's memory — so it never meets the missing lanes, and it
    /// is what the node's one fetch loop and the simulator's degraded
    /// reads pull. For LRC(10,6,5) losing {P1, S1} it is 9 lanes where
    /// [`RepairPlan::blocks_read`] says 10: S1 is rebuilt by the first
    /// task and only then read by the second.
    pub fn fetch_lanes(&self) -> impl Iterator<Item = usize> {
        let width = self
            .tasks
            .iter()
            .flat_map(|t| t.reads.iter().chain(&t.repairs))
            .max()
            .map_or(0, |&m| m + 1);
        let mut fetch = LaneMask::empty(width);
        let mut repaired = LaneMask::empty(width);
        for task in &self.tasks {
            for &r in &task.reads {
                if !repaired.get(r) {
                    fetch.set(r);
                }
            }
            for &r in &task.repairs {
                repaired.set(r);
            }
        }
        (0..width).filter(move |&i| fetch.get(i))
    }

    /// Number of *distinct* blocks read across all tasks, each task
    /// counted as its own reader (the per-task HDFS-counter view: a
    /// block an earlier task rebuilt and a later task reads still
    /// counts, because that later map task opens a stream for it). What
    /// one executor holding the stripe in memory pulls is
    /// [`RepairPlan::fetch_lanes`].
    pub fn blocks_read(&self) -> usize {
        let (full, half) = self.read_lanes();
        full.count_ones() + half.count_ones()
    }

    /// Total block-read events, counting a block once per task that reads
    /// it — this is what HDFS "bytes read" counters aggregate, since each
    /// map task opens its own streams.
    pub fn read_events(&self) -> usize {
        self.tasks.iter().map(|t| t.reads.len()).sum()
    }

    /// Bytes the whole plan fetches, in block units, deduplicated across
    /// tasks: a block any task reads whole counts 1.0; a block read only
    /// as a half-lane counts 0.5. This is the §5 repair-*bytes* metric —
    /// for whole-lane codecs it equals [`RepairPlan::blocks_read`], and
    /// the piggybacked RS's single-data-loss advantage shows up here.
    pub fn read_volume(&self) -> f64 {
        let (full, half) = self.read_lanes();
        full.count_ones() as f64 + 0.5 * half.count_ones() as f64
    }

    /// Per-block read fractions for the plan, deduplicated across tasks:
    /// `(block, fraction)` with fraction 1.0 for whole-lane reads and
    /// 0.5 for blocks only ever read as half-lanes. Ascending by block.
    pub fn read_fractions(&self) -> Vec<(usize, f64)> {
        let (full, half) = self.read_lanes();
        (0..full.lanes())
            .filter_map(|i| {
                if full.get(i) {
                    Some((i, 1.0))
                } else if half.get(i) {
                    Some((i, 0.5))
                } else {
                    None
                }
            })
            .collect()
    }
}

/// A systematic erasure codec operating on equal-length block payloads.
///
/// Block indices are stripe positions: `0..k` are data blocks, the rest
/// parity blocks (layout is codec-specific). Encoding leaves the data
/// lanes untouched (the codes here are systematic — the paper's §6
/// explains why exact/systematic repair is required for MapReduce
/// workloads) and derives only the parity lanes.
///
/// The whole surface is borrowed buffers ([`encode_into`],
/// [`repair_session`]); [`crate::owned`] wraps it for callers that want
/// a stripe as `Vec<Vec<u8>>`.
///
/// [`encode_into`]: ErasureCodec::encode_into
/// [`repair_session`]: ErasureCodec::repair_session
pub trait ErasureCodec {
    /// Number of data blocks `k`.
    fn data_blocks(&self) -> usize;

    /// Total stored blocks `n`.
    fn total_blocks(&self) -> usize;

    /// This codec's [`CodeSpec`].
    fn spec(&self) -> CodeSpec;

    /// Bytes per field symbol in a payload — the granularity at which a
    /// payload may be split without breaking symbol boundaries (1 for
    /// GF(2^8), 2 for GF(2^16)). [`crate::encode_into_parallel`] aligns
    /// its range shards to this.
    fn symbol_bytes(&self) -> usize {
        1
    }

    /// Encodes `k` borrowed data payloads into `n - k` caller-provided
    /// parity buffers, allocating nothing.
    ///
    /// `data` must hold `k` equal-length lanes and `parity` the code's
    /// parity-lane count at the same length. Parity lanes are fully
    /// overwritten (no pre-zeroing needed).
    fn encode_into(&self, data: &[&[u8]], parity: &mut [&mut [u8]]) -> Result<()>;

    /// Encodes one contiguous shard of the parity lanes: `parity` holds
    /// each parity lane's bytes `offset..offset + shard_len`, while
    /// `data` holds the *full* data lanes. [`crate::encode_into_parallel`]
    /// calls this so each worker writes only its disjoint parity shard.
    ///
    /// The default delegates to [`encode_into`] over the matching data
    /// ranges, which is exact for position-independent codes (byte `i` of
    /// every parity depends only on byte `i` of every data lane — RS,
    /// LRC). Substripe codecs whose output mixes distant payload
    /// positions (the piggybacked RS) must override it.
    ///
    /// `offset` and the shard length must be multiples of
    /// [`symbol_bytes`](ErasureCodec::symbol_bytes), and the shard must
    /// lie within the data-lane length.
    ///
    /// [`encode_into`]: ErasureCodec::encode_into
    fn encode_range_into(
        &self,
        data: &[&[u8]],
        parity: &mut [&mut [u8]],
        offset: usize,
    ) -> Result<()> {
        let len = check_data_lanes(data, self.data_blocks())?;
        let shard = parity.first().map_or(0, |p| p.len());
        if offset + shard > len {
            return Err(CodeError::ShardSizeMismatch);
        }
        let dshard: Vec<&[u8]> = data.iter().map(|d| &d[offset..offset + shard]).collect();
        self.encode_into(&dshard, parity)
    }

    /// Plans reconstruction of `targets` when `unavailable` blocks cannot
    /// be read. `targets ⊆ unavailable`. Degraded reads plan a single
    /// target while other failures may coexist in the stripe.
    fn repair_plan_for(&self, unavailable: &[usize], targets: &[usize]) -> Result<RepairPlan>;

    /// Plans the repair of all missing blocks.
    fn repair_plan(&self, missing: &[usize]) -> Result<RepairPlan> {
        self.repair_plan_for(missing, missing)
    }

    /// Compiles a reusable repair for one failure pattern.
    ///
    /// Compilation runs the planner and (for heavy patterns) a single
    /// Gaussian elimination, folding the inverted decode submatrix into
    /// per-target coefficient rows. The returned session repairs any
    /// stripe with this pattern via [`RepairSession::repair`] with no
    /// further solves and no allocation — compile once per pattern, reuse
    /// across stripes.
    fn repair_session(&self, unavailable: &[usize]) -> Result<RepairSession>;
}

/// Sorted, deduplicated copy of an index list; rejects out-of-range.
pub(crate) fn normalize_indices(indices: &[usize], n: usize) -> Result<Vec<usize>> {
    let mut v = indices.to_vec();
    v.sort_unstable();
    v.dedup();
    if let Some(&bad) = v.iter().find(|&&i| i >= n) {
        return Err(CodeError::InvalidParameters(format!(
            "block index {bad} out of range for blocklength {n}"
        )));
    }
    Ok(v)
}

/// The prelude every `repair_plan_for` shares: both index lists sorted,
/// deduplicated and range-checked against blocklength `n`, and
/// `targets ⊆ unavailable` enforced (a codec must never plan to read
/// the lane it repairs). Returns `(unavailable, targets)`.
pub(crate) fn normalize_repair_request(
    unavailable: &[usize],
    targets: &[usize],
    n: usize,
) -> Result<(Vec<usize>, Vec<usize>)> {
    let unavailable = normalize_indices(unavailable, n)?;
    let targets = normalize_indices(targets, n)?;
    if let Some(&bad) = targets.iter().find(|t| !unavailable.contains(t)) {
        return Err(CodeError::InvalidParameters(format!(
            "target block {bad} is not among the unavailable blocks"
        )));
    }
    Ok((unavailable, targets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ErasureCodec, Lrc};

    #[test]
    fn lane_mask_inline_set_get_count() {
        let mut m = LaneMask::empty(16);
        assert_eq!(m.count_ones(), 0);
        m.set(0);
        m.set(15);
        m.set(15);
        assert!(m.get(0) && m.get(15) && !m.get(7));
        assert_eq!(m.count_ones(), 2);
        m.clear(0);
        assert_eq!(m.indices().collect::<Vec<_>>(), vec![15]);
    }

    #[test]
    fn lane_mask_spills_past_256_lanes() {
        let mut m = LaneMask::empty(300);
        m.set(299);
        m.set(0);
        assert_eq!(m.count_ones(), 2);
        assert!(m.get(299));
        assert_eq!(m.indices().collect::<Vec<_>>(), vec![0, 299]);
    }

    #[test]
    fn blocks_read_is_5_for_xorbas_single_failure_plan() {
        // The headline locality: one lost block of the (10,6,5) LRC reads
        // exactly its 5-block repair group (Fig. 2 / §3.1.2). Pinned here
        // against the bitset rewrite of `blocks_read`.
        let lrc = Lrc::xorbas_10_6_5().unwrap();
        let plan = lrc.repair_plan(&[0]).unwrap();
        assert_eq!(plan.blocks_read(), 5);
        assert_eq!(plan.read_events(), 5);
    }

    #[test]
    fn blocks_read_dedups_across_tasks() {
        let plan = RepairPlan {
            missing: vec![1, 2],
            tasks: vec![
                RepairTask {
                    repairs: vec![1],
                    reads: vec![0, 3, 4],
                    half_reads: vec![],
                    light: true,
                },
                RepairTask {
                    repairs: vec![2],
                    reads: vec![0, 3, 5],
                    half_reads: vec![],
                    light: true,
                },
            ],
        };
        assert_eq!(plan.blocks_read(), 4); // {0, 3, 4, 5}
        assert_eq!(plan.read_events(), 6);
        assert_eq!(plan.read_volume(), 4.0); // no half reads: volume = blocks
    }

    #[test]
    fn read_volume_counts_half_reads_and_upgrades_on_overlap() {
        let plan = RepairPlan {
            missing: vec![4],
            tasks: vec![
                RepairTask {
                    repairs: vec![4],
                    reads: vec![0, 1, 2],
                    half_reads: vec![1, 2],
                    light: false,
                },
                RepairTask {
                    repairs: vec![4],
                    reads: vec![2],
                    half_reads: vec![],
                    light: false,
                },
            ],
        };
        // Block 0 whole (1.0), block 1 half only (0.5), block 2 read half
        // by one task but whole by another → whole (1.0).
        assert_eq!(plan.read_volume(), 2.5);
        assert_eq!(plan.read_fractions(), vec![(0, 1.0), (1, 0.5), (2, 1.0)]);
        assert_eq!(plan.tasks[0].read_volume(), 2.0);
    }

    #[test]
    fn stripe_view_mut_rejects_ragged_lanes() {
        let mut a = [1u8, 2, 3];
        let mut b = [4u8, 5];
        let mut lanes: Vec<&mut [u8]> = vec![&mut a, &mut b];
        assert!(matches!(
            StripeViewMut::new(&mut lanes, &[]),
            Err(CodeError::ShardSizeMismatch)
        ));
    }

    #[test]
    fn stripe_view_mut_tracks_missing() {
        let mut a = [1u8, 2];
        let mut b = [3u8, 4];
        let mut lanes: Vec<&mut [u8]> = vec![&mut a, &mut b];
        assert!(StripeViewMut::new(&mut lanes, &[2]).is_err());
        let mut v = StripeViewMut::new(&mut lanes, &[1]).unwrap();
        assert!(v.is_present(0) && !v.is_present(1));
        assert_eq!(v.lane_len(), 2);
        v.mark_present(1);
        assert!(v.is_present(1));
    }
}
