//! The max-min filling: the kept link lists it seeds from, the
//! order-free rounds, and the visit-order scan they fall back on. The
//! parent module's docs state the rule ("Banded filling") and why an
//! order-free round computes the scan's bits ("Order-free rounds").

use super::NOT_ACTIVE;

/// A round freezes the flows of links whose fair share is within this
/// factor of the round's minimum.
pub(super) const BAND: f64 = 1.0 + 1e-3;

/// An order-free round checks the core's deferred subtractions once, at
/// its start; that needs the round share to be at least this fraction
/// of the core's capacity (parent docs, "Order-free rounds").
const CORE_DEFER_MIN: f64 = 1024.0 * f64::EPSILON;

/// The dense position whose share is always +inf or NaN. A link that
/// carried one flow at the seed points there, so a freeze need not
/// branch on whether its other link is such a link.
pub(super) const SINK: u32 = 0;

/// One NIC link's state during an order-free filling.
#[derive(Debug, Clone, Copy)]
pub(super) struct LinkState {
    /// Capacity not yet given to frozen flows.
    pub(super) cap: f64,
    /// Unassigned flows crossing the link; 0 for a band link once its
    /// round's band is collected.
    pub(super) load: u32,
    /// Position in the dense arrays; [`SINK`] for a link that carries
    /// one flow.
    pub(super) pos: u32,
}

/// The NIC links that carry flows, kept as flows start and finish so a
/// filling seeds without counting. A link with one flow has the NIC's
/// share until that flow freezes; a link with more has `nic / count`.
#[derive(Debug, Clone)]
pub(super) struct LoadedLinks {
    /// NIC capacity, bytes/s.
    nic: f64,
    /// Links carrying two or more flows, in no particular order.
    pub(super) multi: Vec<u32>,
    /// Parallel to `multi`: `nic / count`, the division the filling
    /// would make, so the same bits.
    pub(super) multi_share: Vec<f64>,
    /// Links carrying one flow, in no particular order.
    pub(super) single: Vec<u32>,
    /// Per NIC link: its index in `multi` or `single` while it is loaded.
    pub(super) at: Vec<u32>,
    /// Per NIC link: its order-free filling state before any freeze. The
    /// load is the link's flow count; a link in `multi` sits at dense
    /// position `SINK + 1 +` its index there.
    pub(super) seed: Vec<LinkState>,
}

impl LoadedLinks {
    /// `links` NIC links of `nic` bytes/s, none loaded.
    pub(super) fn new(links: usize, nic: f64) -> Self {
        let idle = LinkState {
            cap: nic,
            load: 0,
            pos: SINK,
        };
        Self {
            nic,
            multi: Vec::new(),
            multi_share: Vec::new(),
            single: Vec::new(),
            at: vec![0; links],
            seed: vec![idle; links],
        }
    }

    /// Records that `link` carries `count` flows, one more or one fewer
    /// than before.
    // xlint::hot-path(rate-recompute)
    pub(super) fn set_count(&mut self, link: usize, count: u32) {
        let was = self.seed[link].load;
        self.seed[link].load = count;
        if was >= 2 && count >= 2 {
            self.multi_share[self.at[link] as usize] = self.nic / count as f64;
            return;
        }
        let at = self.at[link] as usize;
        if was == 1 {
            self.single.swap_remove(at);
            if let Some(&moved) = self.single.get(at) {
                self.at[moved as usize] = at as u32;
            }
        } else if was >= 2 {
            self.multi.swap_remove(at);
            self.multi_share.swap_remove(at);
            if let Some(&moved) = self.multi.get(at) {
                self.at[moved as usize] = at as u32;
                self.seed[moved as usize].pos = SINK + 1 + at as u32;
            }
            self.seed[link].pos = SINK;
        }
        if count == 1 {
            self.at[link] = self.single.len() as u32;
            self.single.push(link as u32);
        } else if count >= 2 {
            self.at[link] = self.multi.len() as u32;
            self.seed[link].pos = SINK + 1 + self.at[link];
            self.multi.push(link as u32);
            self.multi_share.push(self.nic / count as f64);
        }
    }
}

/// Counts of the filling's paths for the tests; empty outside them.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct FillStats {
    #[cfg(test)]
    pub(super) counts: [u64; 8],
}

/// The paths [`FillStats`] counts.
#[derive(Debug, Clone, Copy)]
pub(super) enum FillPath {
    /// A recompute filled by order-free rounds alone.
    OrderFree,
    /// A recompute redone by the scan.
    Scanned,
    /// A band link whose rise the bound could not clear, walked exactly.
    BandWalk,
    /// A hot core whose rise the bound could not clear, walked exactly.
    HotCoreWalk,
    /// A round whose core was hot.
    HotCore,
    /// A replay of the core's deferred subtractions.
    CoreReplay,
    /// A round whose core subtractions were walked exactly.
    CoreWalk,
    /// A link outside the band that a freeze brought within the cutoff
    /// (check 2 failed).
    FreshMark,
}

impl FillStats {
    fn count(&mut self, _path: FillPath) {
        #[cfg(test)]
        {
            self.counts[_path as usize] += 1;
        }
    }
}

/// The network's state as a filling reads it.
pub(super) struct Flows<'a> {
    /// NIC capacity, bytes/s.
    pub(super) nic: f64,
    /// Core capacity, bytes/s.
    pub(super) core: f64,
    /// The NIC links that carry flows.
    pub(super) loaded: &'a LoadedLinks,
    /// Per NIC link, its flows as `(active position, other NIC link)`.
    pub(super) members: &'a [Vec<(u32, u32)>],
    /// Per flow, in active-list order: its uplink and downlink.
    pub(super) nic_links: &'a [[u32; 2]],
}

/// Both fillings' scratch, reused across recomputes.
#[derive(Debug, Clone)]
pub(super) struct Filling {
    order_free: OrderFree,
    scan: Scan,
    pub(super) stats: FillStats,
}

impl Filling {
    /// Scratch for `links` NIC links.
    pub(super) fn new(links: usize) -> Self {
        let idle = LinkState {
            cap: 0.0,
            load: 0,
            pos: SINK,
        };
        Self {
            order_free: OrderFree {
                link: Vec::new(),
                share: Vec::new(),
                state: vec![idle; links],
                singles_from: 0,
                band: Vec::new(),
                core: CoreLink::default(),
            },
            scan: Scan {
                links: vec![ScanLink::default(); links],
                bottleneck: vec![false; links],
                round_links: Vec::new(),
                band: Vec::new(),
                unassigned: Vec::new(),
            },
            stats: FillStats::default(),
        }
    }

    /// Writes each flow's max-min fair rate to `rate`, in active-list
    /// order: by order-free rounds, or, where one could depend on the
    /// visit order, by the scan. The bits are the same either way.
    pub(super) fn fill(&mut self, flows: &Flows, rate: &mut [f64]) {
        if self.order_free.fill(flows, rate, &mut self.stats) {
            self.stats.count(FillPath::OrderFree);
        } else {
            self.stats.count(FillPath::Scanned);
            self.scan.fill(flows, rate);
        }
    }
}

// xlint::hot-path(rate-recompute) begin
// Every recompute runs through here. All state lives in reused scratch
// vectors; amortized `push` onto those is the only growth.

/// The core link during an order-free filling: its exact capacity at the
/// last sync, its exact load, and the subtractions deferred since.
#[derive(Debug, Clone, Default)]
struct CoreLink {
    cap: f64,
    load: u32,
    /// The deferred subtractions as `(round share, freezes)`, oldest
    /// first.
    pending: Vec<(f64, u32)>,
    /// Float sum of the deferred subtractions.
    pending_sum: f64,
    /// Number of deferred subtractions.
    pending_count: u32,
}

impl CoreLink {
    fn reset(&mut self, cap: f64, load: u32) {
        self.cap = cap;
        self.load = load;
        self.pending.clear();
        self.pending_sum = 0.0;
        self.pending_count = 0;
    }

    /// Whether the core's share stays above `cutoff` through every freeze
    /// of a round at `share`, without knowing its exact capacity.
    fn stays_cold(&self, share: f64, cutoff: f64) -> bool {
        let slack = (self.pending_count as f64 + 2.0 * self.pending.len() as f64 + 8.0)
            * f64::EPSILON
            * self.cap;
        share >= CORE_DEFER_MIN * self.cap
            && (self.cap - self.pending_sum - slack) / self.load as f64 > cutoff
    }

    /// Defers a round's `frozen` subtractions of `share`.
    fn defer(&mut self, share: f64, frozen: u32) {
        self.pending.push((share, frozen));
        self.pending_sum += share * frozen as f64;
        self.pending_count += frozen;
        self.load -= frozen;
    }

    /// Applies the deferred subtractions in order, as the scan would.
    fn sync(&mut self, stats: &mut FillStats) {
        if self.pending.is_empty() {
            return;
        }
        stats.count(FillPath::CoreReplay);
        for &(share, frozen) in &self.pending {
            for _ in 0..frozen {
                self.cap = (self.cap - share).max(0.0);
            }
        }
        self.pending.clear();
        self.pending_sum = 0.0;
        self.pending_count = 0;
    }
}

/// The order-free rounds' scratch: the shares of the links that carried
/// two or more flows at the seed as one dense array, so a round's
/// minimum is one contiguous pass, and every link's state by link.
#[derive(Debug, Clone)]
struct OrderFree {
    /// Dense: the links; emptied ones are dropped now and then. Position
    /// [`SINK`] holds no link.
    link: Vec<u32>,
    /// Parallel to `link`: `cap / load` as of the last change, +inf or
    /// NaN once `load` is 0.
    share: Vec<f64>,
    /// Per NIC link: its state.
    state: Vec<LinkState>,
    /// A link that carried one flow at the seed has the NIC's share until
    /// that flow freezes, which empties it, so it stays out of the dense
    /// arrays. Those before this index in `LoadedLinks::single` are
    /// emptied.
    singles_from: usize,
    /// The round's band, as dense positions, then scratch.
    band: Vec<u32>,
    core: CoreLink,
}

impl OrderFree {
    /// Fills by order-free rounds. Returns false, with rates partly
    /// written, at the first round whose outcome could depend on the
    /// visit order.
    fn fill(&mut self, flows: &Flows, rate: &mut [f64], stats: &mut FillStats) -> bool {
        let loaded = flows.loaded;
        // One copy of every link's seed, sequential: cheaper than writing
        // the loaded links' states one by one.
        self.state.copy_from_slice(&loaded.seed);
        self.link.clear();
        self.link.push(NOT_ACTIVE);
        self.link.extend_from_slice(&loaded.multi);
        self.share.clear();
        self.share.push(f64::INFINITY);
        self.share.extend_from_slice(&loaded.multi_share);
        if self.band.len() < self.share.len() {
            self.band.resize(self.share.len(), 0);
        }
        self.singles_from = 0;
        self.core.reset(flows.core, rate.len() as u32);
        // NaN marks a flow not yet frozen.
        rate.fill(f64::NAN);
        while self.core.load > 0 {
            let (mut least_link, dead) = least(&self.share);
            if 2 * dead > self.link.len() {
                self.compact();
            }
            if flows.nic < least_link && self.single_alive(&loaded.single) {
                least_link = flows.nic;
            }
            let mut share = least_link;
            let mut cutoff = least_link * BAND;
            let mut defer_core = self.core.stays_cold(share, cutoff);
            if !defer_core {
                self.core.sync(stats);
                let core = &self.core;
                let core_share = core.cap / core.load as f64;
                // As the scan does: the core's share unless a link's is
                // strictly less (no share here is NaN).
                if core_share <= least_link {
                    share = core_share;
                    cutoff = core_share * BAND;
                }
                if core_share <= cutoff {
                    // A hot core freezes every flow it is visited with.
                    stats.count(FillPath::HotCore);
                    let walk = FillPath::HotCoreWalk;
                    if !stays_in_band(core.cap, core.load, share, cutoff, stats, walk) {
                        return false;
                    }
                    for r in rate.iter_mut().filter(|r| r.is_nan()) {
                        *r = share;
                    }
                    return true;
                }
                defer_core = core.stays_cold(share, cutoff);
            }
            let Some(frozen) = self.freeze_band(flows, rate, share, cutoff, stats) else {
                return false;
            };
            // The minimal link's flows always freeze; a round that froze
            // nothing would mean the kept lists disagree with the flows.
            if frozen == 0 {
                debug_assert!(false, "an order-free round froze no flow");
                return false;
            }
            if defer_core {
                self.core.defer(share, frozen);
            } else {
                stats.count(FillPath::CoreWalk);
                let core = &mut self.core;
                for _ in 0..frozen {
                    core.cap = (core.cap - share).max(0.0);
                    core.load -= 1;
                    if core.cap / core.load as f64 <= cutoff {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Whether a link that carried one flow at the seed still carries
    /// it.
    fn single_alive(&mut self, singles: &[u32]) -> bool {
        while let Some(&l) = singles.get(self.singles_from) {
            if self.state[l as usize].load == 1 {
                return true;
            }
            self.singles_from += 1;
        }
        false
    }

    /// One order-free round's band and freezes at `share`: returns the
    /// flows frozen, or `None` once the round is found not to be
    /// order-free.
    fn freeze_band(
        &mut self,
        flows: &Flows,
        rate: &mut [f64],
        share: f64,
        cutoff: f64,
        stats: &mut FillStats,
    ) -> Option<u32> {
        let singles = &flows.loaded.single;
        let singles_in_band = flows.nic <= cutoff && self.single_alive(singles);
        let (link, shares, state) = (&self.link[..], &mut self.share[..], &mut self.state[..]);
        // The band: few links are in it, so a chunk of eight shares is
        // tested at once and only a chunk that holds one is walked, with
        // no branch per link.
        let band = &mut self.band[..shares.len()];
        let mut in_band = 0;
        for (c, chunk) in shares.chunks(8).enumerate() {
            if !chunk.iter().fold(false, |any, &s| any | (s <= cutoff)) {
                continue;
            }
            for (p, &s) in (8 * c..).zip(chunk) {
                band[in_band] = p as u32;
                in_band += usize::from(s <= cutoff);
            }
        }
        let band = &band[..in_band];
        // Each band link is emptied by the round, so it is retired now: a
        // load of 0 tells the freezes below to leave it alone. A single
        // needs neither: its one flow empties it whichever link freezes
        // that flow.
        for &p in band {
            let band_link = &mut state[link[p as usize] as usize];
            let (cap, load) = (band_link.cap, band_link.load);
            if !stays_in_band(cap, load, share, cutoff, stats, FillPath::BandWalk) {
                return None;
            }
            band_link.load = 0;
            shares[p as usize] = f64::INFINITY;
        }
        let mut round = Round {
            share,
            cutoff,
            stats,
        };
        let mut frozen = 0;
        for &p in band {
            let entries = &flows.members[link[p as usize] as usize];
            frozen += round.freeze(entries, rate, state, shares)?;
        }
        if singles_in_band {
            for &l in &singles[self.singles_from..] {
                if state[l as usize].load == 1 {
                    state[l as usize].load = 0;
                    let entries = &flows.members[l as usize][..1];
                    frozen += round.freeze(entries, rate, state, shares)?;
                }
            }
            self.singles_from = singles.len();
        }
        Some(frozen)
    }

    /// Drops the links whose load is 0.
    fn compact(&mut self) {
        let first = SINK as usize + 1;
        let mut kept = first;
        for p in first..self.link.len() {
            // Branch-free: a dead link is written and then overwritten,
            // and its stale `pos` is never read again.
            let (link, share) = (self.link[p], self.share[p]);
            self.link[kept] = link;
            self.share[kept] = share;
            self.state[link as usize].pos = kept as u32;
            // A dead link's share is +inf or NaN.
            kept += usize::from(share.is_finite());
        }
        self.link.truncate(kept);
        self.share.truncate(kept);
    }
}

/// An order-free round's share and cutoff.
struct Round<'a> {
    share: f64,
    cutoff: f64,
    stats: &'a mut FillStats,
}

impl Round<'_> {
    /// Freezes at the round's share each flow of `entries`, one band
    /// link's members, that is not frozen yet, and takes that share from
    /// the flow's other link unless that is a band link too. `None` when
    /// the other link falls within the cutoff (check 2).
    fn freeze(
        &mut self,
        entries: &[(u32, u32)],
        rate: &mut [f64],
        state: &mut [LinkState],
        shares: &mut [f64],
    ) -> Option<u32> {
        let mut frozen = 0;
        for &(idx, other) in entries {
            let r = &mut rate[idx as usize];
            if !r.is_nan() {
                continue;
            }
            *r = self.share;
            frozen += 1;
            let o = &mut state[other as usize];
            let (load, pos) = (o.load, o.pos);
            if load == 0 {
                continue;
            }
            // No branch on the outcome: a link this empties gets
            // `cap / 0`, +inf or NaN, which no comparison takes, and a
            // single's share goes to the sink.
            let (load, cap) = (load - 1, (o.cap - self.share).max(0.0));
            (o.load, o.cap) = (load, cap);
            let o_share = cap / load as f64;
            shares[pos as usize] = o_share;
            if o_share <= self.cutoff {
                self.stats.count(FillPath::FreshMark);
                return None;
            }
        }
        Some(frozen)
    }
}

/// The least of `shares`, NaN skipped (+inf if none), and how many are
/// +inf or NaN. Two passes, each of which vectorises: eight running
/// minima, then a count.
fn least(shares: &[f64]) -> (f64, usize) {
    let mut acc = [f64::INFINITY; 8];
    let mut chunks = shares.chunks_exact(8);
    for c in &mut chunks {
        for (a, &x) in acc.iter_mut().zip(c) {
            if x < *a {
                *a = x;
            }
        }
    }
    let least = chunks
        .remainder()
        .iter()
        .chain(&acc)
        .fold(f64::INFINITY, |m, &x| if x < m { x } else { m });
    let dead = shares.iter().filter(|x| !x.is_finite()).count();
    (least, dead)
}

/// Whether a link of capacity `cap` with `load` unassigned flows keeps
/// its share within `cutoff` until its last flow freezes at `share`: the
/// bound of check 1 (parent docs, "Order-free rounds"), else the exact
/// subtractions the scan would make, counted as `walk`.
fn stays_in_band(
    cap: f64,
    load: u32,
    share: f64,
    cutoff: f64,
    stats: &mut FillStats,
    walk: FillPath,
) -> bool {
    if load <= 1 {
        return true;
    }
    let n = load as f64;
    if (cap - (n - 1.0) * share).max(share) + (2.0 * n + 4.0) * f64::EPSILON * cap <= cutoff {
        return true;
    }
    stats.count(walk);
    let mut c = cap;
    (1..load).all(|j| {
        c = (c - share).max(0.0);
        c / (load - j) as f64 <= cutoff
    })
}

/// One NIC link's state during the scan.
#[derive(Debug, Clone, Copy, Default)]
struct ScanLink {
    /// Capacity not yet given to frozen flows.
    cap: f64,
    /// `cap / load` as of the last change: +inf or NaN once `load` is 0.
    share: f64,
    /// Unassigned flows crossing the link.
    load: u32,
}

/// The scan's scratch.
#[derive(Debug, Clone)]
struct Scan {
    /// Per NIC link: capacity, share and load.
    links: Vec<ScanLink>,
    /// Per NIC link: `load > 0 && cap / load <= cutoff`, set at each
    /// round's start and recomputed at every freeze.
    bottleneck: Vec<bool>,
    /// The loaded NIC links, emptied ones dropped by each round's pass.
    round_links: Vec<u32>,
    /// `(link, share)` candidates for the round's band.
    band: Vec<(u32, f64)>,
    /// `(active position, NIC links)` of unassigned flows.
    unassigned: Vec<(u32, [u32; 2])>,
}

impl Scan {
    /// The filling by visit-order scan: each round walks every unassigned
    /// flow, so it follows the rule even where the order decides the
    /// outcome.
    fn fill(&mut self, flows: &Flows, rate: &mut [f64]) {
        let Self {
            links: fill,
            bottleneck,
            round_links,
            band,
            unassigned,
        } = self;
        let loaded = flows.loaded;
        for (&l, &share) in loaded.multi.iter().zip(&loaded.multi_share) {
            fill[l as usize] = ScanLink {
                cap: flows.nic,
                share,
                load: loaded.seed[l as usize].load,
            };
        }
        for &l in &loaded.single {
            fill[l as usize] = ScanLink {
                cap: flows.nic,
                share: flows.nic,
                load: 1,
            };
        }
        round_links.clear();
        round_links.extend_from_slice(&loaded.multi);
        round_links.extend_from_slice(&loaded.single);
        let mut core_cap = flows.core;
        let mut core_load = flows.nic_links.len() as u32;
        unassigned.clear();
        unassigned.extend(
            flows
                .nic_links
                .iter()
                .enumerate()
                .map(|(idx, &links)| (idx as u32, links)),
        );
        while !unassigned.is_empty() {
            // One pass over the loaded links: drop the emptied ones,
            // clear every mark, find the minimal fair share, and keep
            // each link that was within the band of the running minimum
            // when seen (a superset of the final band). The core link is
            // loaded while any flow is unassigned.
            let core_share = core_cap / core_load as f64;
            let mut share = core_share;
            let mut cutoff = share * BAND;
            band.clear();
            let mut kept = 0;
            for j in 0..round_links.len() {
                let l = round_links[j];
                // An emptied link's share is +inf or NaN: it fails every
                // comparison and is not kept.
                let r = fill[l as usize].share;
                bottleneck[l as usize] = false;
                if r < share {
                    let top = r * BAND;
                    if top < share {
                        // Every candidate so far is at least the old
                        // minimum, so above any later cutoff.
                        band.clear();
                    }
                    share = r;
                    cutoff = top;
                }
                if r <= cutoff {
                    band.push((l, r));
                }
                round_links[kept] = l;
                kept += usize::from(r < f64::INFINITY);
            }
            round_links.truncate(kept);
            for &(l, r) in band.iter() {
                bottleneck[l as usize] = r <= cutoff;
            }
            let mut core_hot = core_share <= cutoff;
            // Visit in active-list order; a frozen flow's place is taken
            // by the last one, visited next. Each freeze re-marks the
            // links it decrements, so a visit sees exactly whether one
            // of its links is a bottleneck at that moment.
            let before = unassigned.len();
            let mut i = 0;
            while i < unassigned.len() {
                let (idx, [up, down]) = unassigned[i];
                let (up, down) = (up as usize, down as usize);
                if !(bottleneck[up] | bottleneck[down] | core_hot) {
                    i += 1;
                    continue;
                }
                rate[idx as usize] = share;
                // A link's last freeze leaves `cap / 0`, +inf or NaN: never
                // within the cutoff, and dropped by the next pass.
                for l in [up, down] {
                    let f = &mut fill[l];
                    f.cap = (f.cap - share).max(0.0);
                    f.load -= 1;
                    f.share = f.cap / f.load as f64;
                    bottleneck[l] = f.share <= cutoff;
                }
                core_cap = (core_cap - share).max(0.0);
                core_load -= 1;
                core_hot = core_cap / core_load as f64 <= cutoff;
                unassigned.swap_remove(i);
            }
            // The minimal link's flows always freeze; a round that froze
            // nothing would mean the kept loads disagree with the flows.
            if unassigned.len() == before {
                debug_assert!(false, "a filling round froze no flow");
                break;
            }
        }
    }
}
// xlint::hot-path(rate-recompute) end
