//! Deterministic fault injection for the node stack.
//!
//! The paper's reliability argument (§2, §5) is about how a storage
//! system behaves under the *messy* failures a warehouse actually sees —
//! transient unavailability, torn writes, silent bit rot — not just the
//! clean server kill the smoke tests stage. This module gives the
//! whole crate one seeded, process-global [`FaultPlan`]: code paths call
//! [`hit`]/[`hit_value`]/[`maybe_stall`] at labeled sites, and those
//! calls are a single relaxed atomic load (a branch, no lock) when no
//! plan is armed, so production paths pay essentially nothing.
//!
//! Decisions are deterministic: each site keeps its own call counter,
//! and the decision for call *i* at site *s* is a pure function of
//! `(seed, s, i)` via splitmix64. Two runs with the same plan inject
//! the same faults at the same per-site call indices (thread
//! interleaving may map them to different wall-clock moments, which is
//! exactly the nondeterminism a chaos harness should absorb).
//!
//! A plan is armed programmatically — [`arm`] a [`FaultPlan`] built
//! with [`FaultPlan::new`] and [`FaultPlan::with`] / [`FaultPlan::with_param`]
//! (per-site rates in permille, the param carrying site-specific
//! meaning such as a stall in milliseconds), or [`FaultPlan::once`],
//! which fires one site on exactly one call index so a test can
//! enumerate single faults. Nothing in the environment can arm one, so
//! a timed run cannot inherit faults.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of injection sites (length of [`Site::ALL`]).
const SITE_COUNT: usize = 7;

/// A labeled fault-injection site.
///
/// Each variant names one place in the stack where an armed plan may
/// fire. The wire sites live in `protocol.rs`/`server.rs`, the storage
/// sites in `chunk_store.rs`, and the crash sites in `client.rs`/
/// `repair.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Site {
    /// Client-side: a dial attempt is treated as refused.
    ConnectRefuse = 0,
    /// Server-side: a CHUNK reply is cut mid-frame (header plus half
    /// the payload) and the connection dropped.
    ServeReset = 1,
    /// Server-side: the reply is delayed by the site param (ms) before
    /// any byte is written — a stalled peer from the client's view.
    ServeStall = 2,
    /// Chunk store: the temp-file write stops partway and errors,
    /// leaving a torn `.tmp` behind.
    TornWrite = 3,
    /// Chunk store: one payload byte is flipped *after* the chunk is
    /// durably renamed — silent bit rot for the scrubber to find.
    BitFlip = 4,
    /// Client: the put pipeline aborts mid-stripe, between two lane
    /// sends, as if the writer thread died with PUTs on the wire and
    /// their acks unread.
    CrashPut = 5,
    /// Repair agent: a stripe repair aborts after reconstruction but
    /// before all lanes are re-placed.
    CrashRepair = 6,
}

impl Site {
    /// Every site, in `repr` order.
    pub const ALL: [Site; SITE_COUNT] = [
        Site::ConnectRefuse,
        Site::ServeReset,
        Site::ServeStall,
        Site::TornWrite,
        Site::BitFlip,
        Site::CrashPut,
        Site::CrashRepair,
    ];

    /// The telemetry name of the site.
    pub fn name(self) -> &'static str {
        match self {
            Site::ConnectRefuse => "connect-refuse",
            Site::ServeReset => "serve-reset",
            Site::ServeStall => "serve-stall",
            Site::TornWrite => "torn-write",
            Site::BitFlip => "bit-flip",
            Site::CrashPut => "crash-put",
            Site::CrashRepair => "crash-repair",
        }
    }
}

#[derive(Default)]
struct SiteCfg {
    /// Firing rate out of 1000 calls (0 = site disabled).
    permille: u32,
    /// Site-specific parameter (e.g. stall milliseconds).
    param: u64,
    /// Set by [`FaultPlan::once`]: the one call index that fires.
    only_call: Option<u64>,
    /// Per-site call counter; the decision index.
    counter: AtomicU64,
    /// How many calls actually fired.
    fired: AtomicU64,
}

/// A seeded set of per-site firing rates.
///
/// Build one with [`FaultPlan::new`] + [`FaultPlan::with`], then
/// [`arm`] it. Rates are permille per *call* at the site, decided
/// deterministically from `(seed, site, call index)`.
pub struct FaultPlan {
    seed: u64,
    sites: [SiteCfg; SITE_COUNT],
}

impl FaultPlan {
    /// A plan with every site disabled.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            sites: Default::default(),
        }
    }

    /// Enables `site` at `permille` firings per 1000 calls.
    pub fn with(self, site: Site, permille: u32) -> Self {
        self.with_param(site, permille, 0)
    }

    /// Enables `site` with a site-specific parameter (e.g. stall ms).
    pub fn with_param(mut self, site: Site, permille: u32, param: u64) -> Self {
        let cfg = &mut self.sites[site as usize];
        cfg.permille = permille.min(1000);
        cfg.param = param;
        self
    }

    /// Fires `site` on call index `call` (counting from 0) and on no
    /// other call.
    pub fn once(mut self, site: Site, call: u64) -> Self {
        let cfg = &mut self.sites[site as usize];
        cfg.permille = 1000;
        cfg.only_call = Some(call);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Decides call `counter.fetch_add(1)` at `site`. `Some(h)` when
    /// the site fires, carrying the decision hash for callers that
    /// need site-specific entropy (e.g. which byte to flip).
    fn roll(&self, site: Site) -> Option<u64> {
        let cfg = &self.sites[site as usize];
        if cfg.permille == 0 {
            return None;
        }
        let idx = cfg.counter.fetch_add(1, Ordering::Relaxed);
        let h = mix64(
            self.seed
                ^ (site as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ idx.wrapping_mul(0xbf58_476d_1ce4_e5b9),
        );
        let fires = match cfg.only_call {
            Some(call) => idx == call,
            None => h % 1000 < u64::from(cfg.permille),
        };
        if fires {
            cfg.fired.fetch_add(1, Ordering::Relaxed);
            Some(mix64(h))
        } else {
            None
        }
    }

    /// Per-site `(name, calls, fired)` counters, for chaos telemetry.
    pub fn counters(&self) -> [(&'static str, u64, u64); SITE_COUNT] {
        let mut out = [("", 0u64, 0u64); SITE_COUNT];
        for (slot, site) in out.iter_mut().zip(Site::ALL) {
            let cfg = &self.sites[site as usize];
            *slot = (
                site.name(),
                cfg.counter.load(Ordering::Relaxed),
                cfg.fired.load(Ordering::Relaxed),
            );
        }
        out
    }
}

/// Fast-path flag: a single relaxed load decides "is chaos on at all".
static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<Arc<FaultPlan>>> = Mutex::new(None);

/// Arms `plan` process-wide, replacing any previous plan. Returns a
/// handle so the harness can read [`FaultPlan::counters`] afterwards.
pub fn arm(plan: FaultPlan) -> Arc<FaultPlan> {
    let plan = Arc::new(plan);
    let mut slot = crate::lock(&PLAN);
    *slot = Some(Arc::clone(&plan));
    ARMED.store(true, Ordering::SeqCst);
    plan
}

/// Disarms fault injection; every site becomes a no-op again.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    *crate::lock(&PLAN) = None;
}

fn with_plan<T>(f: impl FnOnce(&FaultPlan) -> T) -> Option<T> {
    let guard = crate::lock(&PLAN);
    guard.as_ref().map(|p| f(p))
}

/// Does `site` fire on this call? Always `false` when disarmed — the
/// disarmed cost is one relaxed atomic load.
#[inline]
pub fn hit(site: Site) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    with_plan(|p| p.roll(site).is_some()).unwrap_or(false)
}

/// Like [`hit`] but returns the decision hash on a firing, for sites
/// that need extra entropy (e.g. [`Site::BitFlip`] picking an offset).
#[inline]
pub fn hit_value(site: Site) -> Option<u64> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    with_plan(|p| p.roll(site)).flatten()
}

/// Fires `site` and, on a hit, sleeps for the site's configured param
/// in milliseconds (capped at 2 s so a typo can't wedge a worker).
#[inline]
pub fn maybe_stall(site: Site) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let ms = with_plan(|p| {
        p.roll(site)
            .map(|_| p.sites[site as usize].param.min(2_000))
    })
    .flatten();
    if let Some(ms) = ms {
        if ms > 0 {
            std::thread::sleep(Duration::from_millis(ms));
        }
    }
}

/// The splitmix64 finalizer: the crate's standard cheap bit mixer.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No unit test in this binary arms the process-global plan (the
    /// tests that do live in `tests/chaos.rs`, serialized on its gate),
    /// so every fault site here is off for the whole run.
    #[test]
    fn disarmed_sites_never_fire() {
        disarm();
        for site in Site::ALL {
            assert!(!hit(site));
            assert!(hit_value(site).is_none());
        }
    }

    #[test]
    fn decisions_are_deterministic_per_seed_and_index() {
        let a = FaultPlan::new(7).with(Site::BitFlip, 250);
        let b = FaultPlan::new(7).with(Site::BitFlip, 250);
        let rolls_a: Vec<Option<u64>> = (0..512).map(|_| a.roll(Site::BitFlip)).collect();
        let rolls_b: Vec<Option<u64>> = (0..512).map(|_| b.roll(Site::BitFlip)).collect();
        assert_eq!(rolls_a, rolls_b);
        let fired = rolls_a.iter().filter(|r| r.is_some()).count();
        // 250‰ over 512 calls: loose sanity band, exact count is fixed
        // by the seed so this can never flake.
        assert!((64..=192).contains(&fired), "fired {fired}/512");
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(1).with(Site::CrashPut, 500);
        let b = FaultPlan::new(2).with(Site::CrashPut, 500);
        let ra: Vec<bool> = (0..256).map(|_| a.roll(Site::CrashPut).is_some()).collect();
        let rb: Vec<bool> = (0..256).map(|_| b.roll(Site::CrashPut).is_some()).collect();
        assert_ne!(ra, rb);
    }

    #[test]
    fn counters_report_calls_and_firings() {
        let plan = FaultPlan::new(3).with(Site::TornWrite, 1000);
        for _ in 0..10 {
            let _ = plan.roll(Site::TornWrite);
        }
        let counters = plan.counters();
        let (name, calls, fired) = counters[Site::TornWrite as usize];
        assert_eq!(name, "torn-write");
        assert_eq!(calls, 10);
        assert_eq!(fired, 10);
    }

    #[test]
    fn a_once_plan_fires_its_call_index_and_no_other() {
        let plan = FaultPlan::new(3).once(Site::CrashRepair, 4);
        let fired: Vec<u64> = (0..64)
            .filter(|_| plan.roll(Site::CrashRepair).is_some())
            .collect();
        assert_eq!(fired, [4]);
        assert!(plan.roll(Site::TornWrite).is_none());
        let (_, calls, fired) = plan.counters()[Site::CrashRepair as usize];
        assert_eq!((calls, fired), (64, 1));
    }
}
