//! The simulated DRFS namespace: files, stripes, blocks, placement.
//!
//! # Scaling design
//!
//! The namespace is built for warehouse-size clusters (3000 nodes,
//! hundreds of thousands of tracked blocks — see
//! [`ClusterScale`](crate::config::ClusterScale)):
//!
//! * **Arena-indexed stripe positions** — stripe layouts live in one
//!   shared [`Position`] arena; a [`StripeMeta`] is a `(start, len)`
//!   window into it, so creating a stripe performs no per-stripe heap
//!   allocation and iterating positions is a cache-friendly slice scan.
//! * **Per-node slab indices** — each node's block inventory is a dense
//!   `Vec<BlockId>` paired with a per-block back-pointer (`node_slot`),
//!   giving O(1) insert/remove/membership with deterministic iteration
//!   order (unlike the hash-set it replaces).
//! * **Lost-block slab** — lost blocks are tracked incrementally in the
//!   same slab style, so the BlockFixer's scan is O(lost), not
//!   O(namespace).
//! * **Rejection-sampling placement** — on large clusters,
//!   [`Placement`] samples candidate nodes instead of shuffling the
//!   full node list, making block placement O(stripe width) rather than
//!   O(cluster).
//!
//! Verify-mode payloads live in a side table (empty unless
//! `verify_payloads` is on) so [`BlockMeta`] stays small at scale.

use rand::seq::SliceRandom;
use rand::Rng;

use xorbas_core::CodeSpec;

/// Identifies a worker node.
pub type NodeId = usize;
/// Identifies a stored block.
pub type BlockId = usize;
/// Identifies a file.
pub type FileId = usize;
/// Identifies a stripe.
pub type StripeId = usize;

/// Sentinel slot value for "not a member of any slab".
const NO_SLOT: u32 = u32::MAX;

/// Role of a stored block within its stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// A systematic data block (or a replica of one, under replication).
    Data,
    /// A Reed-Solomon global parity.
    GlobalParity,
    /// A local XOR parity.
    LocalParity,
}

/// One stripe position: either a stored block or a structurally-zero
/// position of a zero-padded stripe ("incomplete stripes are considered
/// as zero-padded full-stripes", §3.1.1). Virtual positions cost nothing
/// to read and never need repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Position {
    /// A materialized block.
    Real(BlockId),
    /// Structurally zero content; not stored.
    Virtual,
}

/// A stored block.
#[derive(Debug, Clone)]
pub struct BlockMeta {
    /// Identifier.
    pub id: BlockId,
    /// Owning file.
    pub file: FileId,
    /// Owning stripe.
    pub stripe: StripeId,
    /// Stripe position (codec index; for replication, the replica index).
    pub pos: usize,
    /// Role.
    pub kind: BlockKind,
    /// Size in bytes.
    pub bytes: u64,
    /// Hosting node; `None` while lost.
    pub location: Option<NodeId>,
}

/// A stripe: a codec stripe, or a replica set under replication. Its
/// positions live in the shared arena — read them through
/// [`Hdfs::positions`].
#[derive(Debug, Clone)]
pub struct StripeMeta {
    /// Identifier.
    pub id: StripeId,
    /// Owning file.
    pub file: FileId,
    /// Redundancy scheme.
    pub code: CodeSpec,
    /// Number of real (non-padded) data blocks in this stripe.
    pub real_data: usize,
    /// Marked unrecoverable by the BlockFixer (data loss); its lost
    /// blocks are withdrawn from the scan index and never re-planned.
    pub unrecoverable: bool,
    /// Start of this stripe's window in the position arena.
    pos_start: usize,
    /// Width of this stripe's window in the position arena.
    pos_len: usize,
}

/// A file. Stripes are created contiguously, so the stripe set is a
/// range rather than a per-file vector.
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// Identifier.
    pub id: FileId,
    /// Human-readable name.
    pub name: String,
    /// Logical data blocks.
    pub data_blocks: usize,
    /// Stripes, as a contiguous id range.
    pub stripes: std::ops::Range<StripeId>,
}

/// The namespace plus block→node inventory.
#[derive(Debug, Clone)]
pub struct Hdfs {
    files: Vec<FileMeta>,
    stripes: Vec<StripeMeta>,
    blocks: Vec<BlockMeta>,
    /// Shared position arena backing every stripe's layout.
    position_arena: Vec<Position>,
    /// Per-node inventory slabs (dense, unordered).
    node_blocks: Vec<Vec<BlockId>>,
    /// Back-pointer: a block's index within its node's slab.
    node_slot: Vec<u32>,
    /// Dense index of currently-lost blocks awaiting repair.
    lost: Vec<BlockId>,
    /// Back-pointer: a block's index within `lost`.
    lost_slot: Vec<u32>,
    /// Verify-mode payloads, indexed by block id (empty = none stored).
    payloads: Vec<Vec<u8>>,
}

impl Hdfs {
    /// An empty namespace over `nodes` DataNodes.
    pub fn new(nodes: usize) -> Self {
        Self {
            files: Vec::new(),
            stripes: Vec::new(),
            blocks: Vec::new(),
            position_arena: Vec::new(),
            node_blocks: vec![Vec::new(); nodes],
            node_slot: Vec::new(),
            lost: Vec::new(),
            lost_slot: Vec::new(),
            payloads: Vec::new(),
        }
    }

    /// All files.
    pub fn files(&self) -> &[FileMeta] {
        &self.files
    }

    /// All stripes.
    pub fn stripes(&self) -> &[StripeMeta] {
        &self.stripes
    }

    /// A stripe by id.
    pub fn stripe(&self, id: StripeId) -> &StripeMeta {
        &self.stripes[id]
    }

    /// A stripe's positions in codec order (for replication: replicas).
    pub fn positions(&self, id: StripeId) -> &[Position] {
        let s = &self.stripes[id];
        &self.position_arena[s.pos_start..s.pos_start + s.pos_len]
    }

    /// A block by id.
    pub fn block(&self, id: BlockId) -> &BlockMeta {
        &self.blocks[id]
    }

    /// A block's verify-mode payload as a borrowed slice (`None` outside
    /// verify mode). The zero-copy decode paths read stripes through
    /// this instead of cloning payload vectors.
    pub fn payload(&self, id: BlockId) -> Option<&[u8]> {
        self.payloads
            .get(id)
            .filter(|p| !p.is_empty())
            .map(|p| &p[..])
    }

    /// Total stored blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Blocks currently hosted by `node` (slab order: insertion order
    /// perturbed by O(1) removals — deterministic under a fixed seed).
    pub fn blocks_on(&self, node: NodeId) -> &[BlockId] {
        &self.node_blocks[node]
    }

    /// O(1) slab insert of `block` into `node`'s inventory.
    fn attach(&mut self, block: BlockId, node: NodeId) {
        debug_assert_eq!(self.node_slot[block], NO_SLOT);
        self.node_slot[block] = self.node_blocks[node].len() as u32;
        self.node_blocks[node].push(block);
        self.blocks[block].location = Some(node);
    }

    /// O(1) slab removal of `block` from its hosting node's inventory.
    /// No-op (with a debug assertion) if the block is already lost —
    /// both callers check `location` first.
    fn detach(&mut self, block: BlockId) {
        let Some(node) = self.blocks[block].location.take() else {
            debug_assert!(false, "detaching a located block");
            return;
        };
        let slot = self.node_slot[block] as usize;
        let slab = &mut self.node_blocks[node];
        let removed = slab.swap_remove(slot);
        debug_assert_eq!(removed, block);
        if let Some(&moved) = slab.get(slot) {
            self.node_slot[moved] = slot as u32;
        }
        self.node_slot[block] = NO_SLOT;
    }

    /// O(1) insert into the lost-block index.
    fn mark_lost(&mut self, block: BlockId) {
        debug_assert_eq!(self.lost_slot[block], NO_SLOT);
        self.lost_slot[block] = self.lost.len() as u32;
        self.lost.push(block);
    }

    /// O(1) removal from the lost-block index (no-op if not indexed).
    fn unmark_lost(&mut self, block: BlockId) {
        if self.lost_slot[block] == NO_SLOT {
            return;
        }
        let slot = self.lost_slot[block] as usize;
        let removed = self.lost.swap_remove(slot);
        debug_assert_eq!(removed, block);
        if let Some(&moved) = self.lost.get(slot) {
            self.lost_slot[moved] = slot as u32;
        }
        self.lost_slot[block] = NO_SLOT;
    }

    /// Registers a new stored block at a location.
    #[allow(clippy::too_many_arguments)] // mirrors the BlockMeta fields
    fn add_block(
        &mut self,
        file: FileId,
        stripe: StripeId,
        pos: usize,
        kind: BlockKind,
        bytes: u64,
        location: NodeId,
        payload: Option<Vec<u8>>,
    ) -> BlockId {
        let id = self.blocks.len();
        self.blocks.push(BlockMeta {
            id,
            file,
            stripe,
            pos,
            kind,
            bytes,
            location: None,
        });
        self.node_slot.push(NO_SLOT);
        self.lost_slot.push(NO_SLOT);
        self.payloads.push(payload.unwrap_or_default());
        self.attach(id, location);
        id
    }

    /// Creates a fully-RAIDed file: `data_blocks` logical blocks encoded
    /// into stripes of `code`, placed by `placement`. `virtual_mask(s,
    /// buf)` fills `buf` with the structurally-zero positions for a
    /// stripe with `s` real data blocks; `payload(stripe, stripe_pos)`
    /// supplies verify-mode content (or `None`).
    #[allow(clippy::too_many_arguments)]
    pub fn create_raided_file<R: Rng>(
        &mut self,
        name: &str,
        data_blocks: usize,
        code: CodeSpec,
        block_bytes: u64,
        placement: &Placement,
        alive: &[bool],
        rng: &mut R,
        mut virtual_mask: impl FnMut(usize, &mut Vec<bool>),
        mut payload: impl FnMut(StripeId, usize) -> Option<Vec<u8>>,
    ) -> Option<FileId> {
        let file_id = self.files.len();
        let k = code.data_blocks();
        let n = code.total_blocks();
        let stripe_start = self.stripes.len();
        let mut remaining = data_blocks;
        let mut mask = Vec::with_capacity(n);
        let mut nodes = Vec::with_capacity(n);
        while remaining > 0 || self.stripes.len() == stripe_start {
            let real_data = remaining.min(k);
            remaining -= real_data;
            let stripe_id = self.stripes.len();
            virtual_mask(real_data, &mut mask);
            assert_eq!(mask.len(), n, "virtual mask must cover the stripe");
            let real_count = mask.iter().filter(|&&v| !v).count();
            placement.place_best_effort(real_count, alive, &[], rng, &mut nodes)?;
            let pos_start = self.position_arena.len();
            let mut node_iter = 0usize;
            for (pos, &is_virtual) in mask.iter().enumerate() {
                if is_virtual {
                    self.position_arena.push(Position::Virtual);
                    continue;
                }
                // Positions `k..n` are parities (replication's copies
                // included): globals right after the data, an LRC's
                // local parities after those.
                let kind = if pos < k {
                    BlockKind::Data
                } else if code.is_local_parity(pos) {
                    BlockKind::LocalParity
                } else {
                    BlockKind::GlobalParity
                };
                let node = nodes[node_iter];
                node_iter += 1;
                let bid = self.add_block(
                    file_id,
                    stripe_id,
                    pos,
                    kind,
                    block_bytes,
                    node,
                    payload(stripe_id, pos),
                );
                self.position_arena.push(Position::Real(bid));
            }
            self.stripes.push(StripeMeta {
                id: stripe_id,
                file: file_id,
                code,
                real_data,
                unrecoverable: false,
                pos_start,
                pos_len: n,
            });
            if remaining == 0 {
                break;
            }
        }
        self.files.push(FileMeta {
            id: file_id,
            name: name.to_string(),
            data_blocks,
            stripes: stripe_start..self.stripes.len(),
        });
        Some(file_id)
    }

    /// Marks every block on `node` as lost; returns the lost block ids.
    pub fn kill_node(&mut self, node: NodeId) -> Vec<BlockId> {
        let lost = std::mem::take(&mut self.node_blocks[node]);
        for &b in &lost {
            self.blocks[b].location = None;
            self.node_slot[b] = NO_SLOT;
            if !self.stripes[self.blocks[b].stripe].unrecoverable {
                self.mark_lost(b);
            }
        }
        lost
    }

    /// Drops a single block (Fig.-7-style simulated block loss).
    pub fn drop_block(&mut self, block: BlockId) {
        if self.blocks[block].location.is_some() {
            self.detach(block);
            if !self.stripes[self.blocks[block].stripe].unrecoverable {
                self.mark_lost(block);
            }
        }
    }

    /// Moves a live block to a new node (decommission drain).
    pub fn relocate_block(&mut self, block: BlockId, node: NodeId) {
        assert!(
            self.blocks[block].location.is_some(),
            "relocating a block that is lost"
        );
        self.detach(block);
        self.attach(block, node);
    }

    /// Restores a repaired block at `node`.
    pub fn restore_block(&mut self, block: BlockId, node: NodeId) {
        assert!(
            self.blocks[block].location.is_none(),
            "restoring a block that is not lost"
        );
        self.unmark_lost(block);
        self.attach(block, node);
    }

    /// All currently-lost blocks that are still worth repairing
    /// (blocks of abandoned stripes are withdrawn). Maintained
    /// incrementally: O(lost), not O(namespace).
    pub fn lost_blocks(&self) -> &[BlockId] {
        &self.lost
    }

    /// Marks a stripe unrecoverable and withdraws its lost blocks from
    /// the scan index (they stay lost; nothing will re-plan them).
    /// Returns whether this was the first time (data-loss accounting
    /// counts each stripe once).
    pub fn mark_unrecoverable(&mut self, stripe: StripeId) -> bool {
        if self.stripes[stripe].unrecoverable {
            return false;
        }
        self.stripes[stripe].unrecoverable = true;
        let s = &self.stripes[stripe];
        let (start, len) = (s.pos_start, s.pos_len);
        for i in start..start + len {
            if let Position::Real(b) = self.position_arena[i] {
                if self.blocks[b].location.is_none() {
                    self.unmark_lost(b);
                }
            }
        }
        true
    }

    /// The stripe positions (codec indices) of `stripe` that are real and
    /// currently unavailable, into a caller-reused buffer (cleared
    /// first) — allocation-free for per-event scan loops.
    pub fn unavailable_positions_into(&self, stripe: StripeId, out: &mut Vec<usize>) {
        out.clear();
        for (pos, p) in self.positions(stripe).iter().enumerate() {
            if let Position::Real(b) = p {
                if self.blocks[*b].location.is_none() {
                    out.push(pos);
                }
            }
        }
    }

    /// Nodes currently hosting blocks of `stripe` (for placement
    /// exclusion: never two blocks of a stripe on one node), into a
    /// caller-reused buffer (cleared first; duplicates are not added).
    pub fn stripe_nodes_into(&self, stripe: StripeId, out: &mut Vec<NodeId>) {
        out.clear();
        let s = &self.stripes[stripe];
        for p in &self.position_arena[s.pos_start..s.pos_start + s.pos_len] {
            if let Position::Real(b) = p {
                if let Some(node) = self.blocks[*b].location {
                    if !out.contains(&node) {
                        out.push(node);
                    }
                }
            }
        }
    }
}

/// Block placement: random distinct nodes, rack-aware when possible
/// (Hadoop's default policy "randomly places blocks at DataNodes,
/// avoiding collocating blocks of the same stripe", §3.1.1).
///
/// On clusters larger than [`Placement::EXACT_THRESHOLD`] nodes,
/// candidates are drawn by rejection sampling (O(stripe width) per
/// stripe) instead of shuffling the full node list (O(cluster)); the
/// greedy rack-spreading step then runs over the sampled pool. Small
/// clusters keep the exact full-scan policy, which the §5 testbed
/// experiments rely on for tight spreading guarantees.
#[derive(Debug, Clone)]
pub struct Placement {
    rack_of: Vec<usize>,
    racks: usize,
}

impl Placement {
    /// Cluster size up to which placement scans all candidates exactly.
    pub const EXACT_THRESHOLD: usize = 256;

    /// Rejection-sampling attempts per needed candidate before falling
    /// back to the exact scan (covers adversarially-full clusters).
    const REJECTION_TRIES: usize = 32;

    /// Assigns `nodes` round-robin over `racks`.
    pub fn new(nodes: usize, racks: usize) -> Self {
        assert!(racks >= 1, "need at least one rack");
        Self {
            rack_of: (0..nodes).map(|n| n % racks).collect(),
            racks,
        }
    }

    /// Picks `count` distinct alive nodes avoiding `exclude`, spreading
    /// racks as evenly as the candidate set allows, into `out` (cleared
    /// first). `None` if not enough candidates exist.
    pub fn place_many<R: Rng>(
        &self,
        count: usize,
        alive: &[bool],
        exclude: &[NodeId],
        rng: &mut R,
        out: &mut Vec<NodeId>,
    ) -> Option<()> {
        out.clear();
        if count == 0 {
            return Some(());
        }
        let n = self.rack_of.len();
        if n > Self::EXACT_THRESHOLD {
            // Sample a pool of ~4x the needed candidates; rack-greedy
            // selection over the pool approximates the exact spread.
            let pool_target = (4 * count).min(n);
            let mut pool: Vec<NodeId> = Vec::with_capacity(pool_target);
            for _ in 0..Self::REJECTION_TRIES * pool_target {
                if pool.len() >= pool_target {
                    break;
                }
                let c = rng.gen_range(0..n);
                if alive[c] && !exclude.contains(&c) && !pool.contains(&c) {
                    pool.push(c);
                }
            }
            if pool.len() >= count {
                self.rack_greedy(&mut pool, count, out);
                return Some(());
            }
            // Nearly-full cluster: fall through to the exact scan.
        }
        let mut candidates: Vec<NodeId> = (0..n)
            .filter(|&c| alive[c] && !exclude.contains(&c))
            .collect();
        if candidates.len() < count {
            return None;
        }
        candidates.shuffle(rng);
        self.rack_greedy(&mut candidates, count, out);
        Some(())
    }

    /// Greedy rack spreading: repeatedly take a candidate from the
    /// least-used rack among the remaining ones.
    fn rack_greedy(&self, candidates: &mut Vec<NodeId>, count: usize, out: &mut Vec<NodeId>) {
        let mut rack_use = vec![0usize; self.racks];
        for _ in 0..count {
            // The caller provides at least `count` candidates.
            let Some((idx, _)) = candidates
                .iter()
                .enumerate()
                .min_by_key(|(_, &c)| rack_use[self.rack_of[c]])
            else {
                debug_assert!(false, "candidates remain");
                break;
            };
            let node = candidates.swap_remove(idx);
            rack_use[self.rack_of[node]] += 1;
            out.push(node);
        }
    }

    /// Picks one node (repair-target placement). Uniform over the
    /// allowed set; O(1) expected on large, mostly-placeable clusters.
    pub fn place_one<R: Rng>(
        &self,
        alive: &[bool],
        exclude: &[NodeId],
        rng: &mut R,
    ) -> Option<NodeId> {
        let n = self.rack_of.len();
        if n > Self::EXACT_THRESHOLD {
            for _ in 0..Self::REJECTION_TRIES {
                let c = rng.gen_range(0..n);
                if alive[c] && !exclude.contains(&c) {
                    return Some(c);
                }
            }
        }
        let mut buf = Vec::with_capacity(1);
        self.place_many(1, alive, exclude, rng, &mut buf)?;
        Some(buf[0])
    }

    /// Like [`Placement::place_many`], but degrades gracefully when the
    /// cluster is smaller than the stripe: candidates are reused
    /// round-robin, collocating as few stripe blocks as possible. This
    /// mirrors HDFS's best-effort spreading — the paper's own workload
    /// experiment ran 16-block stripes on 15-slave clusters. `None` only
    /// when no candidate exists at all.
    pub fn place_best_effort<R: Rng>(
        &self,
        count: usize,
        alive: &[bool],
        exclude: &[NodeId],
        rng: &mut R,
        out: &mut Vec<NodeId>,
    ) -> Option<()> {
        // The common large-cluster case never needs the distinct count.
        if self.place_many(count, alive, exclude, rng, out).is_some() {
            return Some(());
        }
        let distinct = (0..self.rack_of.len())
            .filter(|&c| alive[c] && !exclude.contains(&c))
            .count();
        if distinct == 0 {
            return None;
        }
        let mut base = Vec::with_capacity(distinct);
        // `distinct` was counted from the same predicate, so this cannot
        // miss; `?` still propagates cleanly if it somehow does.
        self.place_many(distinct, alive, exclude, rng, &mut base)?;
        out.clear();
        let mut i = 0;
        while out.len() < count {
            out.push(base[i % base.len()]);
            i += 1;
            if i % base.len() == 0 {
                base.shuffle(rng);
            }
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn full_mask(code: CodeSpec) -> impl FnMut(usize, &mut Vec<bool>) {
        move |_real, buf| {
            buf.clear();
            buf.resize(code.total_blocks(), false);
        }
    }

    #[test]
    fn raided_file_creates_full_stripes() {
        let mut fs = Hdfs::new(20);
        let placement = Placement::new(20, 4);
        let alive = vec![true; 20];
        let mut rng = StdRng::seed_from_u64(1);
        let code = CodeSpec::RS_10_4;
        let f = fs
            .create_raided_file(
                "f1",
                20,
                code,
                64,
                &placement,
                &alive,
                &mut rng,
                full_mask(code),
                |_, _| None,
            )
            .unwrap();
        assert_eq!(fs.files()[f].stripes.len(), 2);
        assert_eq!(fs.block_count(), 28);
        // No two blocks of a stripe share a node.
        let mut nodes = Vec::new();
        for s in fs.stripes() {
            fs.stripe_nodes_into(s.id, &mut nodes);
            assert_eq!(nodes.len(), 14);
        }
    }

    #[test]
    fn replicated_file_spreads_replicas() {
        let mut fs = Hdfs::new(10);
        let placement = Placement::new(10, 2);
        let alive = vec![true; 10];
        let mut rng = StdRng::seed_from_u64(2);
        // Replication is the [3,1] code: one stripe per logical block.
        let code = CodeSpec::REPLICATION_3;
        fs.create_raided_file(
            "r",
            4,
            code,
            64,
            &placement,
            &alive,
            &mut rng,
            full_mask(code),
            |_, _| None,
        )
        .unwrap();
        assert_eq!(fs.block_count(), 12);
        let mut nodes = Vec::new();
        for s in fs.stripes() {
            fs.stripe_nodes_into(s.id, &mut nodes);
            assert_eq!(nodes.len(), 3);
            // 3 replicas over 2 racks: both racks used.
            let racks: HashSet<usize> = nodes.iter().map(|&n| placement.rack_of[n]).collect();
            assert_eq!(racks.len(), 2);
        }
    }

    #[test]
    fn kill_and_restore_round_trip() {
        let mut fs = Hdfs::new(20);
        let placement = Placement::new(20, 1);
        let alive = vec![true; 20];
        let mut rng = StdRng::seed_from_u64(3);
        let code = CodeSpec::RS_10_4;
        fs.create_raided_file(
            "f",
            10,
            code,
            64,
            &placement,
            &alive,
            &mut rng,
            full_mask(code),
            |_, _| None,
        )
        .unwrap();
        let victim = fs.block(0).location.unwrap();
        let lost = fs.kill_node(victim);
        assert!(!lost.is_empty());
        assert_eq!(fs.lost_blocks().len(), lost.len());
        let stripe = fs.block(lost[0]).stripe;
        let mut unavailable = Vec::new();
        fs.unavailable_positions_into(stripe, &mut unavailable);
        assert!(unavailable.contains(&fs.block(lost[0]).pos));
        fs.restore_block(lost[0], victim);
        assert!(!fs.lost_blocks().contains(&lost[0]));
    }

    #[test]
    fn zero_padded_stripes_have_virtual_positions() {
        let mut fs = Hdfs::new(20);
        let placement = Placement::new(20, 1);
        let alive = vec![true; 20];
        let mut rng = StdRng::seed_from_u64(4);
        let code = CodeSpec::RS_10_4;
        // 3 real data blocks: positions 3..10 virtual, parities real.
        let f = fs
            .create_raided_file(
                "small",
                3,
                code,
                64,
                &placement,
                &alive,
                &mut rng,
                |real, buf| {
                    buf.clear();
                    buf.extend((0..14).map(|p| p < 10 && p >= real));
                },
                |_, _| None,
            )
            .unwrap();
        let s = fs.files()[f].stripes.start;
        let stripe = fs.stripe(s);
        assert_eq!(stripe.real_data, 3);
        let virtuals = fs
            .positions(s)
            .iter()
            .filter(|p| **p == Position::Virtual)
            .count();
        assert_eq!(virtuals, 7);
        assert_eq!(fs.block_count(), 7); // 3 data + 4 parities
    }

    #[test]
    fn placement_fails_when_capacity_exhausted() {
        let placement = Placement::new(5, 1);
        let alive = vec![true; 5];
        let mut rng = StdRng::seed_from_u64(5);
        let mut out = Vec::new();
        assert!(placement
            .place_many(6, &alive, &[], &mut rng, &mut out)
            .is_none());
        let mut dead = alive;
        dead[0] = false;
        assert!(placement
            .place_many(5, &dead, &[], &mut rng, &mut out)
            .is_none());
    }

    #[test]
    fn drop_block_loses_exactly_one() {
        let mut fs = Hdfs::new(20);
        let placement = Placement::new(20, 1);
        let alive = vec![true; 20];
        let mut rng = StdRng::seed_from_u64(6);
        let code = CodeSpec::LRC_10_6_5;
        fs.create_raided_file(
            "f",
            10,
            code,
            64,
            &placement,
            &alive,
            &mut rng,
            full_mask(code),
            |_, _| None,
        )
        .unwrap();
        fs.drop_block(5);
        assert_eq!(fs.lost_blocks(), &[5]);
    }

    #[test]
    fn rejection_placement_spreads_large_clusters() {
        // 1000 nodes, 50 racks: the rejection path must give distinct
        // nodes on distinct racks for a 14-wide stripe.
        let placement = Placement::new(1000, 50);
        let alive = vec![true; 1000];
        let mut rng = StdRng::seed_from_u64(7);
        let mut out = Vec::new();
        placement
            .place_many(14, &alive, &[], &mut rng, &mut out)
            .unwrap();
        assert_eq!(out.len(), 14);
        let distinct: HashSet<NodeId> = out.iter().copied().collect();
        assert_eq!(distinct.len(), 14);
        let racks: HashSet<usize> = out.iter().map(|&c| placement.rack_of[c]).collect();
        assert_eq!(racks.len(), 14, "each block on its own rack");
    }

    #[test]
    fn rejection_place_one_respects_exclusions() {
        let placement = Placement::new(1000, 10);
        let mut alive = vec![true; 1000];
        alive[17] = false;
        let exclude = vec![3usize, 4, 5];
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..200 {
            let c = placement.place_one(&alive, &exclude, &mut rng).unwrap();
            assert!(c != 17 && !exclude.contains(&c));
        }
    }

    #[test]
    fn mark_unrecoverable_withdraws_lost_blocks_once() {
        let mut fs = Hdfs::new(20);
        let placement = Placement::new(20, 1);
        let alive = vec![true; 20];
        let mut rng = StdRng::seed_from_u64(9);
        let code = CodeSpec::RS_10_4;
        fs.create_raided_file(
            "f",
            10,
            code,
            64,
            &placement,
            &alive,
            &mut rng,
            full_mask(code),
            |_, _| None,
        )
        .unwrap();
        fs.drop_block(0);
        fs.drop_block(1);
        assert_eq!(fs.lost_blocks().len(), 2);
        let stripe = fs.block(0).stripe;
        assert!(fs.mark_unrecoverable(stripe));
        assert!(!fs.mark_unrecoverable(stripe), "counted once");
        assert!(fs.lost_blocks().is_empty(), "withdrawn from the index");
        // Later losses on an abandoned stripe never enter the index.
        fs.drop_block(2);
        assert!(fs.lost_blocks().is_empty());
        assert!(fs.block(0).location.is_none(), "still lost");
    }
}
