//! Flow-level network model with max-min fair bandwidth sharing.
//!
//! Every transfer is a *flow* crossing three links: the source's NIC
//! uplink, the shared core switch, and the destination's NIC downlink.
//! Rates are assigned by progressive filling (the classic max-min fair
//! allocation), which is exact for this link model.
//!
//! This captures the §5.2.3 phenomenon the evaluation leans on: many
//! concurrent repair streams share "a single top-level switch which
//! becomes saturated", so schemes that move fewer bytes finish
//! disproportionately faster.
//!
//! # Scaling design
//!
//! A warehouse repair storm keeps thousands of flows in flight and
//! completes them one at a time, so both the per-event pass and the
//! rate recomputation are engineered down:
//!
//! * **Generational slab storage** — flows live in a slot vector with a
//!   dense active-list (O(1) insert/remove); [`FlowId`]s embed slot and
//!   generation so stale ids simply miss. Each flow's NIC links,
//!   `remaining` and `rate` sit in arrays parallel to the active list,
//!   so the completion scan, [`Network::advance`] and the filling read
//!   contiguous memory.
//! * **Lazy recomputation** — flow arrivals and cancellations only mark
//!   the allocation dirty; one progressive-filling pass runs when rates
//!   are next observed, so a scheduling round that starts hundreds of
//!   flows pays for one recompute.
//! * **Kept link lists** — each NIC link keeps its active flows as
//!   `(active position, other NIC link)` entries, and each flow its
//!   index in its two lists, so [`Network::flows_touching`] reads two
//!   lists. The loaded NIC links are listed in two groups, those with
//!   one flow and those with more; the latter sit beside their seed
//!   shares `nic / count`, the division the filling starts from, so the
//!   same bits. Every NIC link's seed state (capacity, flow count, dense
//!   position) is one array. Flow starts and finishes keep all of it in
//!   O(1), and a recompute seeds by copying it. The core link, which
//!   every flow crosses, is two scalars.
//! * **Banded filling** — each round takes the minimal fair share over
//!   the loaded links (one pass, which also drops emptied links) and
//!   marks as bottlenecks the links within 0.1% of it. It then walks the
//!   unassigned flows in active-list order and freezes, at that share,
//!   each flow that crosses a link marked *at the moment it is visited*.
//!   A freeze raises its links' remaining shares and re-marks them, so a
//!   banded link that rises past the cutoff stops freezing its later
//!   flows in that round. A frozen flow is swap-removed from the round's
//!   list, so the last flow is visited next at the same index. Which
//!   flows freeze in a round therefore depends on that order; the
//!   `golden_trace` pins depend on it, so it is part of the model. The
//!   band exists because exact filling would tell apart shares that
//!   drifted by float ulps as flows come and go, one round per NIC on
//!   long runs; a ≤0.1% rate error is far below what the §5 metrics
//!   resolve. It does not collapse a storm to one round: the 3000-node
//!   RS(10,4) 40-day warehouse run averages 13.6 rounds per recompute
//!   with ~3,900 flows in flight.
//! * **Order-free rounds** — run as written, the rule visits every
//!   unassigned flow in every round: the 40-day RS(10,4) warehouse run's
//!   486,636 rounds made 417M visits to freeze 138.5M flows. A round is
//!   *order-free* when it freezes exactly the unassigned flows on its
//!   band links, whatever the visit order. Its rates, capacities and
//!   shares are then the same bits as the scan's, because each link
//!   subtracts the same round share once per frozen flow. So a
//!   recompute first fills by such rounds only (`network/fill.rs`). The
//!   shares of the links with two or more flows sit in one dense array;
//!   a round takes their minimum in one vectorised pass, tests them
//!   eight at a time for band links, and walks only the band links'
//!   member lists, each freeze updating the flow's other link. A link
//!   with one flow stays out of that array: its share is the NIC's
//!   until its flow freezes and empties it. A round costs O(flows on band
//!   links + loaded links). Three exact checks decide that a round is
//!   order-free; if one fails, the recompute is redone by the scan from
//!   its start. Let s be the round's share, the minimum, ε =
//!   `f64::EPSILON` and u = ε/2. A link's exact share after j of its n
//!   flows froze, (C − js)/(n − j), is non-decreasing in j, so only
//!   rounding can lower one. Each subtraction rounds by at most u·C and
//!   each division by u of the share.
//!   1. *Band links.* A band link must stay within the cutoff until its
//!      last flow freezes. `max(C − (n−1)s, s) + (2n+4)·ε·C ≤ cutoff`
//!      is enough: the shares err by under (n+2)·u·C in all, and
//!      evaluating the bound by under 4·u·C. Otherwise the n − 1 exact
//!      subtractions are walked.
//!   2. *Links outside the band* must never fall within the cutoff:
//!      each share a freeze writes is compared with it exactly. Only
//!      rounding can make this check fail.
//!   3. *The core.* Its subtractions are deferred while a lower bound
//!      of its share stays above the cutoff: its exact capacity at the
//!      last sync, minus the float sum of the deferred subtractions,
//!      minus (count + 2·rounds + 8)·ε·capacity (u·C per subtraction,
//!      two roundings per deferred round in the sum, the bound's own
//!      evaluation and division), over its load. The bound less
//!      s + ε·capacity per freeze is monotone in the round's freezes and
//!      cannot fall while it exceeds s + ε·capacity, which
//!      s ≥ 1024·ε·capacity guarantees above a cutoff of s·1.001; so one
//!      check at the round's start covers the round. Otherwise the
//!      deferred subtractions are replayed in order. A core within the
//!      cutoff is *hot* and freezes every flow; that round is order-free
//!      when check 1's bound (or walk) shows the core stays hot until
//!      the last one. A core just above the cutoff has the round's
//!      subtractions walked exactly, each share checked.
//!
//!   Every recompute of the 40-day warehouse runs is order-free; of the
//!   serving week's, 51.5% (RS) and 65.5% (LRC) are, and the rest fail
//!   check 1.
//! * **Deferred steps** — the pass that finds the earliest completion
//!   also yields a *quiet window*, a span in which no flow can complete
//!   (`Network::completion_window`). An event-loop step that ends
//!   inside it only appends its length to a list (`Network::defer`);
//!   the list is replayed flow by flow when a flow is next started,
//!   cancelled, read or advanced. The replay does each flow's
//!   `rate * dt`, `min` and subtraction exactly as [`Network::advance`]
//!   would, and sums each step's bytes in active-list order, so every
//!   remaining byte count and every step's byte total is the same bits
//!   as stepping eagerly. The window is the earliest completion less a
//!   relative `QUIET_REL` (2⁻²⁰), and empty while any flow has under
//!   `QUIET_MIN_BYTES` (2) left. Why that suffices: a window covers at
//!   most `MAX_DEFERRED` (2¹⁶) + 1 subtractions from a flow's remaining `r`
//!   (the exact step that opened it, then the deferred ones). With
//!   u = 2⁻⁵³, each subtraction rounds by at most u·r, the products
//!   `rate * dt` add at most 2u·r together (`dt` and the product each
//!   round once), and the window's own division, scaling and
//!   microsecond floor add 4u: under (2¹⁶ + 8)u ≈ 7.3e-12 of `r` in
//!   all. A window of `(1 − QUIET_REL)` times the earliest completion
//!   leaves every flow at least `QUIET_REL · r` exactly, so eagerly at
//!   least `(2⁻²⁰ − 7.3e-12) · 2` ≈ 1.9e-6 bytes, above the 1e-6-byte
//!   completion tolerance: no deferred step completes a flow. And since
//!   `QUIET_REL` ≫ 7.3e-12, the completion time an eager loop would
//!   recompute at each deferred step still lies after the window, so it
//!   would have stopped at the same control events.

mod fill;

use crate::hdfs::NodeId;
use fill::{Filling, Flows, LoadedLinks};

/// Identifies an active flow (slot index in the low 32 bits, slot
/// generation in the high 32 — stale ids never alias a reused slot).
pub type FlowId = u64;

/// An active transfer.
#[derive(Debug, Clone, Copy)]
pub struct Flow {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Bytes still to move.
    pub remaining: f64,
    /// Current max-min fair rate, bytes/s.
    pub rate: f64,
    /// Owning task (opaque to the network).
    pub owner: u64,
}

/// One slab slot: the flow payload plus its generation and its index in
/// the dense active list (`NOT_ACTIVE` when free). While the flow is
/// active its `remaining` and `rate` live in [`Network`]'s dense arrays;
/// the copies here are refreshed whenever the flow is handed out.
#[derive(Debug, Clone)]
struct Slot {
    gen: u32,
    active_idx: u32,
    flow: Flow,
}

const NOT_ACTIVE: u32 = u32::MAX;

/// Most steps one quiet window may defer; bounds the float error the
/// window must absorb (module docs, "Deferred steps").
const MAX_DEFERRED: u32 = 1 << 16;

/// The quiet window is the earliest completion times `1 − QUIET_REL`.
/// This margin is far above the ≈ 7.3e-12 relative error of
/// `MAX_DEFERRED` + 1 steps, and with [`QUIET_MIN_BYTES`] it keeps every
/// flow above the 1e-6-byte completion tolerance.
const QUIET_REL: f64 = 1.0 / (1u64 << 20) as f64;

/// No quiet window while any flow has fewer bytes left than this:
/// `QUIET_REL` of 2 bytes, less the float error, is still above 1e-6.
const QUIET_MIN_BYTES: f64 = 2.0;

fn make_id(slot: u32, gen: u32) -> FlowId {
    ((gen as u64) << 32) | slot as u64
}

fn split_id(id: FlowId) -> (u32, u32) {
    (id as u32, (id >> 32) as u32)
}

/// The network state.
#[derive(Debug, Clone)]
pub struct Network {
    nodes: usize,
    nic_bytes_per_sec: f64,
    core_bytes_per_sec: f64,
    slots: Vec<Slot>,
    /// Dense list of occupied slot indices. A position is not an age:
    /// removal moves the last flow into the freed position.
    active: Vec<u32>,
    /// Parallel to `active`: the flow's uplink `src` and downlink
    /// `nodes + dst`.
    nic_links: Vec<[u32; 2]>,
    /// Parallel to `active`: bytes still to move.
    remaining: Vec<f64>,
    /// Parallel to `active`: current max-min fair rate, bytes/s.
    rate: Vec<f64>,
    free: Vec<u32>,
    rates_dirty: bool,
    /// Per NIC link (uplinks `0..n`, downlinks `n..2n`), its active flows
    /// as `(active position, other NIC link)`, in no particular order.
    members: Vec<Vec<(u32, u32)>>,
    /// Parallel to `active`: the flow's index in its uplink's and in its
    /// downlink's `members` list.
    member_at: Vec<[u32; 2]>,
    /// The NIC links with members.
    loaded: LoadedLinks,
    /// Filling scratch.
    filling: Filling,
    /// Scratch: completion list for [`Network::advance`].
    done_scratch: Vec<FlowId>,
    /// Steps the open quiet window may still defer; 0 once a flow
    /// starts or ends.
    quiet_steps: u32,
    /// Lengths (seconds) of the deferred steps, oldest first.
    deferred: Vec<f64>,
    /// Bytes moved by each replayed step, oldest first, until
    /// [`Network::settle`] hands them out.
    replayed: Vec<f64>,
}

impl Network {
    /// A network of `nodes` full-duplex NICs behind one core switch.
    pub fn new(nodes: usize, nic_bps: f64, core_bps: f64) -> Self {
        assert!(
            nic_bps > 0.0 && core_bps > 0.0,
            "bandwidths must be positive"
        );
        Self {
            nodes,
            nic_bytes_per_sec: nic_bps / 8.0,
            core_bytes_per_sec: core_bps / 8.0,
            slots: Vec::new(),
            active: Vec::new(),
            nic_links: Vec::new(),
            remaining: Vec::new(),
            rate: Vec::new(),
            free: Vec::new(),
            rates_dirty: false,
            members: vec![Vec::new(); 2 * nodes],
            member_at: Vec::new(),
            loaded: LoadedLinks::new(2 * nodes, nic_bps / 8.0),
            filling: Filling::new(2 * nodes),
            done_scratch: Vec::new(),
            quiet_steps: 0,
            deferred: Vec::new(),
            replayed: Vec::new(),
        }
    }

    /// Starts a flow; `src != dst` (local reads are instantaneous and
    /// never enter the network). Returns its id. Rates are recomputed
    /// lazily at the next observation.
    pub fn start_flow(&mut self, src: NodeId, dst: NodeId, bytes: f64, owner: u64) -> FlowId {
        assert_ne!(src, dst, "local transfers do not use the network");
        assert!(bytes > 0.0, "flows must carry bytes");
        self.replay_deferred();
        let flow = Flow {
            src,
            dst,
            remaining: bytes,
            rate: 0.0,
            owner,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                let e = &mut self.slots[s as usize];
                e.gen = e.gen.wrapping_add(1);
                e.active_idx = self.active.len() as u32;
                e.flow = flow;
                s
            }
            None => {
                self.slots.push(Slot {
                    gen: 0,
                    active_idx: self.active.len() as u32,
                    flow,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let links = [src as u32, (self.nodes + dst) as u32];
        let pos = self.active.len() as u32;
        let mut at = [0; 2];
        for (side, &l) in links.iter().enumerate() {
            let list = &mut self.members[l as usize];
            at[side] = list.len() as u32;
            list.push((pos, links[1 - side]));
            self.loaded.set_count(l as usize, list.len() as u32);
        }
        self.active.push(slot);
        self.nic_links.push(links);
        self.member_at.push(at);
        self.remaining.push(bytes);
        self.rate.push(0.0);
        self.flows_changed();
        make_id(slot, self.slots[slot as usize].gen)
    }

    /// Looks up a live slot index for an id, or `None` if stale/free.
    fn resolve(&self, id: FlowId) -> Option<u32> {
        let (slot, gen) = split_id(id);
        let e = self.slots.get(slot as usize)?;
        (e.gen == gen && e.active_idx != NOT_ACTIVE).then_some(slot)
    }

    /// Removes a slot from the active list (and its dense arrays and
    /// link lists) and frees it.
    fn release(&mut self, slot: u32) -> Flow {
        let idx = self.slots[slot as usize].active_idx as usize;
        self.slots[slot as usize].active_idx = NOT_ACTIVE;
        // Out of its two member lists first, while positions are still
        // the ones the entries hold. A link is on the same side of all
        // its flows, so a list's moved entry keeps the side.
        for (side, &l) in self.nic_links[idx].iter().enumerate() {
            let at = self.member_at[idx][side] as usize;
            let list = &mut self.members[l as usize];
            list.swap_remove(at);
            if let Some(&(moved, _)) = list.get(at) {
                self.member_at[moved as usize][side] = at as u32;
            }
            self.loaded.set_count(l as usize, list.len() as u32);
        }
        let removed = self.active.swap_remove(idx);
        debug_assert_eq!(removed, slot);
        self.nic_links.swap_remove(idx);
        self.member_at.swap_remove(idx);
        let remaining = self.remaining.swap_remove(idx);
        let rate = self.rate.swap_remove(idx);
        if let Some(&moved) = self.active.get(idx) {
            self.slots[moved as usize].active_idx = idx as u32;
            for side in 0..2 {
                let l = self.nic_links[idx][side] as usize;
                let at = self.member_at[idx][side] as usize;
                self.members[l][at].0 = idx as u32;
            }
        }
        self.free.push(slot);
        let flow = &mut self.slots[slot as usize].flow;
        flow.remaining = remaining;
        flow.rate = rate;
        *flow
    }

    /// Cancels a flow (e.g. its endpoint failed). Returns the flow if it
    /// existed.
    pub fn cancel_flow(&mut self, id: FlowId) -> Option<Flow> {
        let slot = self.resolve(id)?;
        self.replay_deferred();
        let f = self.release(slot);
        self.flows_changed();
        Some(f)
    }

    /// The flow set changed: rates are stale and the quiet window shut.
    fn flows_changed(&mut self) {
        self.rates_dirty = true;
        self.quiet_steps = 0;
    }

    /// Ids of flows touching `node` (as source or destination), in
    /// active-list order.
    pub fn flows_touching(&self, node: NodeId) -> Vec<FlowId> {
        let mut at: Vec<u32> = self.members[node]
            .iter()
            .chain(&self.members[self.nodes + node])
            .map(|&(pos, _)| pos)
            .collect();
        at.sort_unstable();
        at.iter()
            .map(|&pos| {
                let s = self.active[pos as usize];
                make_id(s, self.slots[s as usize].gen)
            })
            .collect()
    }

    /// A flow by id (with rates brought up to date).
    pub fn flow(&mut self, id: FlowId) -> Option<&Flow> {
        self.replay_deferred();
        self.ensure_rates();
        let slot = self.resolve(id)?;
        let e = &mut self.slots[slot as usize];
        let idx = e.active_idx as usize;
        e.flow.remaining = self.remaining[idx];
        e.flow.rate = self.rate[idx];
        Some(&e.flow)
    }

    // Per-event-loop-step surface: completion scan, step deferral and
    // replay, flow advancement, and the max-min filling pass. All state
    // lives in reused scratch vectors on `self` (or the caller's
    // buffer); amortized `push` onto those is the only growth.

    /// Seconds until the earliest flow completes at current rates, and
    /// the quiet window: seconds from now within which no flow completes,
    /// however the span is split into deferred steps. Opens the window
    /// for [`Network::defer`]. `None` when idle (nothing can complete).
    pub(crate) fn completion_window(&mut self) -> Option<(f64, f64)> {
        self.replay_deferred();
        self.ensure_rates();
        self.quiet_steps = MAX_DEFERRED;
        let mut flows = self.remaining.iter().zip(&self.rate);
        let (&bytes, &rate) = flows.next()?;
        let (mut earliest, mut least) = (bytes / rate, bytes);
        for (&bytes, &rate) in flows {
            let secs = bytes / rate;
            if secs.total_cmp(&earliest).is_lt() {
                earliest = secs;
            }
            // A compare and select: `f64::min`'s NaN handling would put
            // three instructions on this loop-carried chain.
            if bytes < least {
                least = bytes;
            }
        }
        let quiet = if least >= QUIET_MIN_BYTES {
            earliest * (1.0 - QUIET_REL)
        } else {
            0.0
        };
        Some((earliest, quiet))
    }

    /// Defers a step of `dt` seconds, which the caller guarantees ends
    /// inside the quiet window of the last
    /// [`Network::completion_window`]. Returns false, deferring nothing,
    /// once the window is shut or has deferred [`MAX_DEFERRED`] steps.
    pub(crate) fn defer(&mut self, dt: f64) -> bool {
        if self.quiet_steps == 0 {
            return false;
        }
        self.quiet_steps -= 1;
        if dt > 0.0 {
            self.deferred.push(dt);
        }
        true
    }

    /// Replays the deferred steps, then hands `record` the bytes each
    /// replayed step moved, oldest first.
    pub(crate) fn settle(&mut self, mut record: impl FnMut(f64)) {
        self.replay_deferred();
        for &bytes in &self.replayed {
            record(bytes);
        }
        self.replayed.clear();
    }

    /// Applies the deferred steps to every flow with the arithmetic of
    /// [`Network::advance`], and queues each step's bytes for
    /// [`Network::settle`].
    fn replay_deferred(&mut self) {
        if self.deferred.is_empty() {
            return;
        }
        let steps = &self.deferred;
        let first = self.replayed.len();
        self.replayed.resize(first + steps.len(), 0.0);
        let moved = &mut self.replayed[first..];
        // Four flows at a time: their subtraction chains are independent,
        // and each step still adds its flows' bytes in active-list order.
        let mut remaining = self.remaining.chunks_exact_mut(4);
        let mut rates = self.rate.chunks_exact(4);
        for (rem, rate) in (&mut remaining).zip(&mut rates) {
            let mut r = [rem[0], rem[1], rem[2], rem[3]];
            for (m, &dt) in moved.iter_mut().zip(steps) {
                let s = [rate[0] * dt, rate[1] * dt, rate[2] * dt, rate[3] * dt];
                *m = *m + s[0].min(r[0]) + s[1].min(r[1]) + s[2].min(r[2]) + s[3].min(r[3]);
                for (r, s) in r.iter_mut().zip(s) {
                    *r -= s;
                }
            }
            rem.copy_from_slice(&r);
        }
        for (rem, &rate) in remaining.into_remainder().iter_mut().zip(rates.remainder()) {
            for (m, &dt) in moved.iter_mut().zip(steps) {
                let s = rate * dt;
                *m += s.min(*rem);
                *rem -= s;
            }
        }
        debug_assert!(
            self.remaining.iter().all(|&r| r > 1e-6),
            "a deferred step completed a flow"
        );
        self.deferred.clear();
    }

    /// Advances all flows by `dt` seconds, appending completed flows to
    /// `completed` (cleared first) in active-list position order
    /// (deterministic). Returns the bytes moved; completed flows are
    /// removed and rates recomputed lazily afterwards.
    pub fn advance(&mut self, dt: f64, completed: &mut Vec<(FlowId, Flow)>) -> f64 {
        completed.clear();
        self.replay_deferred();
        self.ensure_rates();
        let mut moved = 0.0;
        let mut done = std::mem::take(&mut self.done_scratch);
        done.clear();
        for (idx, (remaining, &rate)) in self.remaining.iter_mut().zip(&self.rate).enumerate() {
            let step = rate * dt;
            moved += step.min(*remaining);
            *remaining -= step;
            // Tolerance: rate-quantization can leave a few bytes.
            if *remaining <= 1e-6 {
                let s = self.active[idx];
                done.push(make_id(s, self.slots[s as usize].gen));
            }
        }
        // Ids, not positions: each release moves the last flow into the
        // freed position. `done` is in active-list position order.
        for &id in &done {
            // The ids were collected from live slots above; a miss here
            // would mean the slab was corrupted mid-loop.
            let Some(slot) = self.resolve(id) else {
                debug_assert!(false, "completed flow {id} vanished");
                continue;
            };
            completed.push((id, self.release(slot)));
        }
        self.done_scratch = done;
        if !completed.is_empty() {
            self.flows_changed();
        }
        moved
    }

    fn ensure_rates(&mut self) {
        if self.rates_dirty {
            self.recompute_rates();
            self.rates_dirty = false;
        }
    }

    /// Max-min fair progressive filling over uplinks, downlinks and the
    /// core link, touching only links used by active flows. See the
    /// module docs for the round rule; rates are exact to it, bit for
    /// bit.
    fn recompute_rates(&mut self) {
        let flows = Flows {
            nic: self.nic_bytes_per_sec,
            core: self.core_bytes_per_sec,
            loaded: &self.loaded,
            members: &self.members,
            nic_links: &self.nic_links,
        };
        self.filling.fill(&flows, &mut self.rate);
    }
}

#[cfg(test)]
mod tests {
    use super::fill::{FillPath, BAND, SINK};
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The progressive filling as it was before link loads were kept,
    /// bottleneck marks tracked and flow state moved into dense arrays:
    /// `links_of` and `recompute_rates` are verbatim, only the state is
    /// this struct's. It rebuilds every link load from the flows and
    /// re-tests all three links of each visited flow. Its comments are
    /// verbatim too: banded links do not "freeze together as one
    /// bottleneck class", see the module docs for the rule both follow.
    struct Reference {
        nodes: usize,
        nic_bytes_per_sec: f64,
        core_bytes_per_sec: f64,
        slots: Vec<Slot>,
        active: Vec<u32>,
        cap_scratch: Vec<f64>,
        load_scratch: Vec<usize>,
        touched: Vec<usize>,
        unassigned_scratch: Vec<u32>,
    }

    impl Reference {
        /// The reference's rate for each flow of `n`, in active-list
        /// order.
        fn rates_of(n: &Network) -> Vec<f64> {
            let mut r = Reference {
                nodes: n.nodes,
                nic_bytes_per_sec: n.nic_bytes_per_sec,
                core_bytes_per_sec: n.core_bytes_per_sec,
                slots: n.slots.clone(),
                active: n.active.clone(),
                cap_scratch: vec![0.0; 2 * n.nodes + 1],
                load_scratch: vec![0; 2 * n.nodes + 1],
                touched: Vec::new(),
                unassigned_scratch: Vec::new(),
            };
            r.recompute_rates();
            r.active
                .iter()
                .map(|&s| r.slots[s as usize].flow.rate)
                .collect()
        }

        /// The three links a flow crosses: source uplink, destination
        /// downlink, shared core.
        fn links_of(&self, slot: u32) -> [usize; 3] {
            let f = &self.slots[slot as usize].flow;
            [f.src, self.nodes + f.dst, 2 * self.nodes]
        }

        /// Max-min fair progressive filling over uplinks, downlinks and the
        /// core link, touching only links used by active flows.
        fn recompute_rates(&mut self) {
            // Reset scratch state for the links the last pass touched, then
            // seed capacities/loads for the links active flows use.
            let core_link = 2 * self.nodes;
            for &l in &self.touched {
                self.load_scratch[l] = 0;
            }
            self.touched.clear();
            let mut unassigned = std::mem::take(&mut self.unassigned_scratch);
            unassigned.clear();
            unassigned.extend_from_slice(&self.active);
            for &s in &unassigned {
                for l in self.links_of(s) {
                    if self.load_scratch[l] == 0 {
                        self.touched.push(l);
                        self.cap_scratch[l] = if l == core_link {
                            self.core_bytes_per_sec
                        } else {
                            self.nic_bytes_per_sec
                        };
                    }
                    self.load_scratch[l] += 1;
                }
            }
            while !unassigned.is_empty() {
                // Minimal fair share among loaded links. Links within 0.1%
                // of it freeze together as one bottleneck class: exact
                // progressive filling would distinguish shares that drifted
                // apart by float ulps as flows start and finish mid-stream,
                // degenerating to one round per NIC on long runs; the
                // ≤0.1% rate error is far below anything the §5 metrics
                // resolve. Every round freezes at least the minimal link's
                // flows, so the pass terminates.
                let share = self
                    .touched
                    .iter()
                    .copied()
                    .filter(|&l| self.load_scratch[l] > 0)
                    .map(|l| self.cap_scratch[l] / self.load_scratch[l] as f64)
                    .min_by(f64::total_cmp);
                // Every unassigned flow loads three links, so a round with
                // no loaded link is unreachable; bail rather than spin.
                let Some(share) = share else {
                    debug_assert!(false, "unassigned flows use some link");
                    break;
                };
                let cutoff = share * (1.0 + 1e-3);
                // Freeze every unassigned flow crossing a bottleneck link at
                // `share`; swap-retain keeps the pass allocation-free.
                let mut i = 0;
                while i < unassigned.len() {
                    let s = unassigned[i];
                    let links = self.links_of(s);
                    let bottlenecked = links.iter().any(|&l| {
                        self.load_scratch[l] > 0
                            && self.cap_scratch[l] / self.load_scratch[l] as f64 <= cutoff
                    });
                    if bottlenecked {
                        self.slots[s as usize].flow.rate = share;
                        for l in links {
                            self.cap_scratch[l] = (self.cap_scratch[l] - share).max(0.0);
                            self.load_scratch[l] -= 1;
                        }
                        unassigned.swap_remove(i);
                    } else {
                        i += 1;
                    }
                }
            }
            self.unassigned_scratch = unassigned;
        }
    }

    /// Brings `n`'s rates up to date and asserts each is bitwise the
    /// reference's.
    fn assert_rates_match_reference(n: &mut Network) {
        n.ensure_rates();
        let got: Vec<u64> = n.rate.iter().map(|r| r.to_bits()).collect();
        let want: Vec<u64> = Reference::rates_of(n).iter().map(|r| r.to_bits()).collect();
        assert_eq!(got, want, "rates differ from the reference");
    }

    /// Recounts every NIC link's flows and checks the kept member lists,
    /// each flow's index in them, the loaded links' lists with their seed
    /// shares (bitwise) and seed states, and the dense per-flow links
    /// against it.
    fn assert_kept_loads_match_recount(n: &Network) {
        let mut recount = vec![Vec::new(); 2 * n.nodes];
        assert_eq!(n.member_at.len(), n.active.len());
        for (idx, &s) in n.active.iter().enumerate() {
            let e = &n.slots[s as usize];
            assert_eq!(e.active_idx as usize, idx);
            let links = [e.flow.src as u32, (n.nodes + e.flow.dst) as u32];
            assert_eq!(n.nic_links[idx], links);
            for side in 0..2 {
                let (l, entry) = (links[side] as usize, (idx as u32, links[1 - side]));
                assert_eq!(n.members[l][n.member_at[idx][side] as usize], entry);
                recount[l].push(entry);
            }
        }
        let kept = &n.loaded;
        for (l, want) in recount.iter().enumerate() {
            let mut got = n.members[l].clone();
            got.sort_unstable();
            assert_eq!(&got, want, "members of link {l}");
            let seed = kept.seed[l];
            assert_eq!(seed.cap.to_bits(), n.nic_bytes_per_sec.to_bits());
            assert_eq!(seed.load as usize, want.len(), "count of link {l}");
            let at = kept.at[l] as usize;
            match want.len() {
                0 => assert_eq!(seed.pos, SINK),
                1 => {
                    assert_eq!(kept.single[at] as usize, l);
                    assert_eq!(seed.pos, SINK);
                }
                count => {
                    assert_eq!(kept.multi[at] as usize, l);
                    assert_eq!(seed.pos as usize, SINK as usize + 1 + at);
                    let share = n.nic_bytes_per_sec / count as f64;
                    assert_eq!(kept.multi_share[at].to_bits(), share.to_bits());
                }
            }
        }
        assert_eq!(kept.multi_share.len(), kept.multi.len());
        let listed = kept.single.len() + kept.multi.len();
        assert_eq!(listed, recount.iter().filter(|m| !m.is_empty()).count());
    }

    /// A random storm's shape.
    struct Shape {
        /// Below `in_flight.start` flows every operation starts one; none
        /// starts one at `in_flight.end`.
        in_flight: std::ops::Range<usize>,
        /// Serving-like: node 0 is hot and sends the next flow whenever
        /// it sends at most `1/m` of those in flight, and the core is `m`
        /// NICs and a hair (0.01% to 0.1%). So the core's share often
        /// sits just above the hot uplink's, within the band, and cools
        /// before the round's last freeze. `None`: any node sends, and
        /// the core runs from half a NIC (binds on almost every
        /// recompute) to 100 NICs (never binds).
        hot: Option<usize>,
    }

    /// Path counts of the filling, indexed by [`FillPath`].
    type Counts = [u64; 8];

    /// Runs 300 random operations on a fresh network of `nodes` nodes,
    /// checking its rates against the reference and its kept state
    /// against a recount after each, and returns its path counts. Of ten
    /// draws, six start a flow, one cancels one, and three advance by a
    /// quarter of, all of or four times the time to the next completion.
    fn storm(rng: &mut StdRng, nodes: usize, shape: &Shape) -> Counts {
        let nic = [1e8, 3.3e8, 1e9][rng.gen_range(0..3usize)];
        let core = match shape.hot {
            None => nic * 0.5 * 200f64.powf(rng.gen::<f64>()),
            Some(m) => nic * m as f64 * (1.0 + rng.gen_range(1e-4..1e-3)),
        };
        let mut n = Network::new(nodes, nic, core);
        let mut ids = Vec::new();
        let mut done = Vec::new();
        for _ in 0..300 {
            let live = n.active.len();
            let op = if live < shape.in_flight.start {
                0
            } else {
                rng.gen_range(0..10u32)
            };
            match op {
                0..=5 if live < shape.in_flight.end => {
                    let src = match shape.hot {
                        None => rng.gen_range(0..nodes),
                        Some(m) if n.members[0].len() * m <= live => 0,
                        Some(_) => rng.gen_range(1..nodes),
                    };
                    let dst = (src + rng.gen_range(1..nodes)) % nodes;
                    let bytes = rng.gen_range(1e3..1e8);
                    ids.push(n.start_flow(src, dst, bytes, 0));
                }
                6 if !ids.is_empty() => {
                    // May be a flow that already completed: a stale id
                    // must change nothing.
                    let id = ids.swap_remove(rng.gen_range(0..ids.len()));
                    n.cancel_flow(id);
                }
                _ => {
                    if let Some((t, _)) = n.completion_window() {
                        let scale = [0.25, 1.0, 4.0][rng.gen_range(0..3usize)];
                        n.advance(t * scale, &mut done);
                    }
                }
            }
            assert_rates_match_reference(&mut n);
            assert_kept_loads_match_recount(&n);
        }
        n.filling.stats.counts
    }

    fn add(sum: &mut Counts, c: Counts) {
        for (sum, c) in sum.iter_mut().zip(c) {
            *sum += c;
        }
    }

    #[test]
    fn filling_matches_the_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x0e1e_9a27);
        // Warehouse-like storms on small clusters.
        let mut warehouse = [0; 8];
        let any = Shape {
            in_flight: 0..usize::MAX,
            hot: None,
        };
        for _ in 0..400 {
            let nodes = rng.gen_range(2..12usize);
            add(&mut warehouse, storm(&mut rng, nodes, &any));
        }
        // Serving-like storms: at most six nodes under 20 to 80 flows, a
        // hot sender, and a core that often cools mid-round.
        let mut serving = [0; 8];
        for _ in 0..100 {
            let nodes = rng.gen_range(3..7usize);
            let hot = Shape {
                in_flight: 20..80,
                hot: Some(rng.gen_range(2..4usize)),
            };
            add(&mut serving, storm(&mut rng, nodes, &hot));
        }
        let count = |c: &Counts, path: FillPath| c[path as usize];
        eprintln!("filling paths: warehouse-like {warehouse:?}, serving-like {serving:?}");
        let scanned = count(&serving, FillPath::Scanned);
        let all = scanned + count(&serving, FillPath::OrderFree);
        assert!(
            10 * scanned >= all,
            "{scanned} of {all} serving-like recomputes took the scan"
        );
        let mut both = warehouse;
        add(&mut both, serving);
        for (path, floor) in [
            (FillPath::OrderFree, 100_000),
            (FillPath::Scanned, 4_000),
            (FillPath::BandWalk, 50),
            (FillPath::HotCoreWalk, 4_000),
            (FillPath::HotCore, 50_000),
            (FillPath::CoreReplay, 10_000),
        ] {
            let got = count(&both, path);
            assert!(got >= floor, "{path:?}: {got} < {floor}");
        }
        // Only rounding reaches these two: a core whose share is a few
        // ulps above the cutoff (`core_just_above_the_cutoff_is_walked`
        // builds one), and a link outside the band that a freeze brings
        // within it, which no storm has.
        assert_eq!(count(&both, FillPath::CoreWalk), 0);
        assert_eq!(count(&both, FillPath::FreshMark), 0);
    }

    /// One network stepped eagerly and one through deferral, driven by the
    /// same operations, with the bytes each step moved on each.
    struct Twin {
        eager: Network,
        lazy: Network,
        eager_bytes: Vec<f64>,
        lazy_bytes: Vec<f64>,
        /// The lazy network's quiet window and the seconds already spent
        /// in it, while it is open.
        window: Option<(f64, f64)>,
    }

    impl Twin {
        /// An exact step of `scale` times the earliest completion: it
        /// opens a quiet window on the lazy side, as the event loop does.
        fn exact_step(&mut self, scale: f64) {
            let lazy_bytes = &mut self.lazy_bytes;
            self.lazy.settle(|b| lazy_bytes.push(b));
            let Some((earliest, quiet)) = self.lazy.completion_window() else {
                self.window = None;
                return;
            };
            assert_eq!(
                self.eager.completion_window().map(|(e, _)| e.to_bits()),
                Some(earliest.to_bits())
            );
            let dt = earliest * scale;
            let (mut done_eager, mut done_lazy) = (Vec::new(), Vec::new());
            self.eager_bytes
                .push(self.eager.advance(dt, &mut done_eager));
            self.lazy_bytes.push(self.lazy.advance(dt, &mut done_lazy));
            let ids = |d: &[(FlowId, Flow)]| d.iter().map(|&(id, _)| id).collect::<Vec<_>>();
            assert_eq!(ids(&done_eager), ids(&done_lazy));
            self.window = done_lazy.is_empty().then_some((quiet, dt));
        }

        /// Spends `frac` of what is left of the quiet window in `pieces`
        /// deferred steps, checking both sides after each.
        fn deferred_steps(&mut self, frac: f64, pieces: usize) {
            let Some((quiet, spent)) = self.window else {
                return;
            };
            let mut at = spent;
            for i in 1..=pieces {
                let next = spent + (quiet - spent) * frac * i as f64 / pieces as f64;
                let dt = next - at;
                if dt <= 0.0 {
                    continue;
                }
                at = next;
                assert!(self.lazy.defer(dt), "an open window refused a step");
                let mut done = Vec::new();
                self.eager_bytes.push(self.eager.advance(dt, &mut done));
                assert!(
                    done.is_empty(),
                    "a step inside the quiet window completed a flow"
                );
                self.assert_equal();
            }
            self.window = Some((quiet, at));
        }

        /// Remaining bytes, rates and every step's bytes bitwise equal;
        /// a copy of the lazy side is settled, so its deferred steps stay
        /// pending.
        fn assert_equal(&self) {
            let (mut eager, mut lazy) = (self.eager.clone(), self.lazy.clone());
            let mut lazy_bytes = self.lazy_bytes.clone();
            lazy.settle(|b| lazy_bytes.push(b));
            eager.ensure_rates();
            lazy.ensure_rates();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&lazy.remaining), bits(&eager.remaining), "remaining");
            assert_eq!(bits(&lazy.rate), bits(&eager.rate), "rates");
            assert_eq!(bits(&lazy_bytes), bits(&self.eager_bytes), "bytes per step");
        }
    }

    #[test]
    fn deferred_steps_match_eager_stepping_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0xde_fe44ed);
        for _ in 0..300 {
            let nodes = rng.gen_range(2..12usize);
            let nic = [1e8, 3.3e8, 1e9][rng.gen_range(0..3usize)];
            let core = nic * 0.5 * 200f64.powf(rng.gen::<f64>());
            let net = Network::new(nodes, nic, core);
            let mut t = Twin {
                eager: net.clone(),
                lazy: net,
                eager_bytes: Vec::new(),
                lazy_bytes: Vec::new(),
                window: None,
            };
            let mut ids = Vec::new();
            // 4 in 12 operations start a flow (one in eight of them a
            // flow of a few bytes, which empties the quiet window), 1 in 12
            // cancels one, 1 in 12 reads one, 2 in 12 take an exact step,
            // and 4 in 12 spend part or all of the quiet window in one to
            // four deferred steps.
            for _ in 0..200 {
                match rng.gen_range(0..12u32) {
                    0..=3 => {
                        let src = rng.gen_range(0..nodes);
                        let dst = (src + rng.gen_range(1..nodes)) % nodes;
                        let bytes = if rng.gen_range(0..8u32) == 0 {
                            rng.gen_range(1e-3..4.0)
                        } else {
                            rng.gen_range(1e3..1e8)
                        };
                        let id = t.eager.start_flow(src, dst, bytes, 0);
                        assert_eq!(t.lazy.start_flow(src, dst, bytes, 0), id);
                        ids.push(id);
                        t.window = None;
                    }
                    4 if !ids.is_empty() => {
                        let id = ids.swap_remove(rng.gen_range(0..ids.len()));
                        let eager = t.eager.cancel_flow(id).map(|f| f.remaining.to_bits());
                        let lazy = t.lazy.cancel_flow(id).map(|f| f.remaining.to_bits());
                        assert_eq!(eager, lazy);
                        if eager.is_some() {
                            t.window = None;
                        }
                    }
                    5 if !ids.is_empty() => {
                        let id = ids[rng.gen_range(0..ids.len())];
                        let eager = t
                            .eager
                            .flow(id)
                            .map(|f| (f.remaining.to_bits(), f.rate.to_bits()));
                        let lazy = t
                            .lazy
                            .flow(id)
                            .map(|f| (f.remaining.to_bits(), f.rate.to_bits()));
                        assert_eq!(eager, lazy);
                    }
                    6 | 7 => t.exact_step([0.25, 1.0, 4.0][rng.gen_range(0..3usize)]),
                    _ => {
                        let frac = [0.25, 0.5, 1.0][rng.gen_range(0..3usize)];
                        t.deferred_steps(frac, rng.gen_range(1..5usize));
                    }
                }
                t.assert_equal();
            }
        }
    }

    #[test]
    fn banded_link_stops_freezing_once_it_rises_past_the_cutoff() {
        // 1 Gbps NICs (125 MB/s), core 250.225 MB/s. In round 0 uplink 0
        // has the minimal share (two flows, 62.5 MB/s each) and the core,
        // at 250.225 / 4 = 62.55625 MB/s, is inside the 0.1% band
        // (cutoff 62.5625). Visit order is c, a, b, d:
        // - c freezes through the core, which rises to 62.575 > cutoff;
        // - d takes c's place and crosses no marked link, so stays;
        // - a and b freeze through uplink 0.
        // Round 1 gives d the core's remainder. Freezing the whole band
        // at round start instead would give d 62.5 MB/s too.
        let mut n = Network::new(7, 1e9, 2001.8e6);
        let c = n.start_flow(3, 4, 1e6, 0);
        let a = n.start_flow(0, 1, 1e6, 1);
        let b = n.start_flow(0, 2, 1e6, 2);
        let d = n.start_flow(5, 6, 1e6, 3);
        for id in [a, b, c] {
            assert_eq!(n.flow(id).unwrap().rate, 62.5e6);
        }
        assert_eq!(n.flow(d).unwrap().rate, 62.725e6);
        assert_rates_match_reference(&mut n);
    }

    #[test]
    fn core_just_above_the_cutoff_is_walked() {
        // 1 Gbps NICs. Uplink 0 carries a and b at the round's share,
        // 62.5 MB/s; c crosses idle links. The core's share is a few ulps
        // above the cutoff: cold, but too close for the deferral bound,
        // so the round's two subtractions from it are walked. The core
        // rises with each and never enters the band, so the round is
        // order-free; round 1 gives c what is left of the core.
        let cutoff = 62.5e6 * BAND;
        let core = 3.0 * cutoff * (1.0 + 4.0 * f64::EPSILON);
        let mut n = Network::new(5, 1e9, 8.0 * core);
        let a = n.start_flow(0, 1, 1e6, 0);
        let b = n.start_flow(0, 2, 1e6, 1);
        let c = n.start_flow(3, 4, 1e6, 2);
        assert_rates_match_reference(&mut n);
        let counts = n.filling.stats.counts;
        assert_eq!(counts[FillPath::CoreWalk as usize], 1);
        assert_eq!(counts[FillPath::OrderFree as usize], 1);
        for id in [a, b] {
            assert_eq!(n.flow(id).unwrap().rate, 62.5e6);
        }
        assert!((n.flow(c).unwrap().rate - (core - 125e6)).abs() < 1.0);
    }

    fn net() -> Network {
        // 4 nodes, 1 Gbps NICs (125 MB/s), 2 Gbps core (250 MB/s).
        Network::new(4, 1e9, 2e9)
    }

    #[test]
    fn single_flow_gets_nic_rate() {
        let mut n = net();
        n.start_flow(0, 1, 125e6, 0);
        assert!((n.completion_window().unwrap().0 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_flows_into_one_destination_share_its_downlink() {
        let mut n = net();
        let a = n.start_flow(0, 2, 1e6, 0);
        let b = n.start_flow(1, 2, 1e6, 1);
        for f in [a, b] {
            assert!((n.flow(f).unwrap().rate - 62.5e6).abs() < 1.0);
        }
    }

    #[test]
    fn core_switch_saturates_many_disjoint_flows() {
        // 4 disjoint node pairs would each want 125 MB/s = 500 MB/s total,
        // but the 250 MB/s core caps them at 62.5 MB/s each.
        let mut n = Network::new(8, 1e9, 2e9);
        let ids: Vec<FlowId> = (0..4)
            .map(|i| n.start_flow(i, 4 + i, 1e6, i as u64))
            .collect();
        for id in ids {
            assert!((n.flow(id).unwrap().rate - 62.5e6).abs() < 1.0);
        }
    }

    #[test]
    fn max_min_gives_leftover_to_unbottlenecked_flows() {
        // Flows: A: 0->1, B: 0->2, C: 3->2. Uplink 0 carries A,B;
        // downlink 2 carries B,C. Fair shares: A=B=62.5 (uplink 0);
        // C gets the rest of downlink 2: 62.5... then core has room, so
        // C could go to 125-62.5 = 62.5. All equal here; check totals.
        let mut n = net();
        let a = n.start_flow(0, 1, 1e6, 0);
        let b = n.start_flow(0, 2, 1e6, 1);
        let c = n.start_flow(3, 2, 1e6, 2);
        let ra = n.flow(a).unwrap().rate;
        let rb = n.flow(b).unwrap().rate;
        let rc = n.flow(c).unwrap().rate;
        assert!(ra + rb <= 125e6 + 1.0, "uplink 0 respected");
        assert!(rb + rc <= 125e6 + 1.0, "downlink 2 respected");
        assert!(ra + rb + rc <= 250e6 + 1.0, "core respected");
        // C is limited only by downlink 2, shared with B: C >= B.
        assert!(rc >= rb - 1.0);
    }

    #[test]
    fn advance_completes_flows_and_reports_bytes() {
        let mut n = net();
        n.start_flow(0, 1, 125e6, 7); // 1 second at full NIC rate
        let mut done = Vec::new();
        let moved = n.advance(0.5, &mut done);
        assert!((moved - 62.5e6).abs() < 1.0);
        assert!(done.is_empty());
        let moved2 = n.advance(0.5, &mut done);
        assert!((moved2 - 62.5e6).abs() < 1.0);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1.owner, 7);
        assert_eq!(n.completion_window(), None);
    }

    #[test]
    fn completion_frees_bandwidth_for_survivors() {
        let mut n = net();
        n.start_flow(0, 2, 10e6, 0);
        let slow = n.start_flow(1, 2, 125e6, 1);
        // Both share downlink 2 at 62.5 MB/s.
        assert!((n.flow(slow).unwrap().rate - 62.5e6).abs() < 1.0);
        // After the small flow drains, the survivor gets the full NIC.
        let (dt, _) = n.completion_window().unwrap();
        n.advance(dt, &mut Vec::new());
        assert!((n.flow(slow).unwrap().rate - 125e6).abs() < 1.0);
    }

    #[test]
    fn cancel_removes_and_rebalances() {
        let mut n = net();
        let a = n.start_flow(0, 2, 1e6, 0);
        let b = n.start_flow(1, 2, 1e6, 1);
        n.cancel_flow(a).unwrap();
        assert!((n.flow(b).unwrap().rate - 125e6).abs() < 1.0);
        assert!(n.cancel_flow(a).is_none());
    }

    #[test]
    fn stale_ids_never_alias_reused_slots() {
        let mut n = net();
        let a = n.start_flow(0, 2, 1e6, 0);
        n.cancel_flow(a).unwrap();
        // The slot is reused with a bumped generation: the old id stays
        // dead even though the slot is live again.
        let b = n.start_flow(1, 3, 1e6, 1);
        assert!(n.cancel_flow(a).is_none());
        assert!(n.flow(a).is_none());
        assert!(n.flow(b).is_some());
    }

    #[test]
    fn flows_touching_finds_both_directions() {
        let mut n = net();
        let a = n.start_flow(0, 1, 1e6, 0);
        let b = n.start_flow(2, 0, 1e6, 1);
        let c = n.start_flow(2, 3, 1e6, 2);
        let mut touching = n.flows_touching(0);
        touching.sort_unstable();
        let mut expect = vec![a, b];
        expect.sort_unstable();
        assert_eq!(touching, expect);
        assert!(!n.flows_touching(1).contains(&c));
    }

    #[test]
    fn lazy_recompute_batches_flow_churn() {
        // A burst of starts and cancels costs one recompute when rates
        // are next observed; every observation sees consistent rates.
        let mut n = Network::new(100, 1e9, 1e12);
        let ids: Vec<FlowId> = (0..50)
            .map(|i| n.start_flow(i, 50 + i, 1e6, i as u64))
            .collect();
        for &id in &ids[..10] {
            n.cancel_flow(id);
        }
        for &id in &ids[10..] {
            assert!((n.flow(id).unwrap().rate - 125e6).abs() < 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "local transfers")]
    fn local_flow_rejected() {
        let mut n = net();
        n.start_flow(1, 1, 1e6, 0);
    }
}
