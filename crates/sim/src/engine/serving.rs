//! The serving plane: Zipf client reads riding the event loop.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use super::{ControlEvent, Simulation};
use crate::fasthash::FastMap;
use crate::hdfs::BlockId;
use crate::metrics::ServingStats;
use crate::time::SimTime;
use crate::workload::{exp_gap_secs, ServePolicy, WorkloadConfig, ZipfSampler};

/// Live state of the serving-plane workload
/// ([`Simulation::start_workload`]): the popularity model, the
/// rank→block mapping of the current churn epoch, and the workload's
/// private RNG stream. The stream is deliberately separate from the
/// engine RNG so attaching a workload never perturbs failure placement
/// or repair decisions, and churn reshuffles are re-keyed from
/// `(seed, epoch)` so the mapping is a function of simulated time alone
/// — not of how many arrivals happened to precede the epoch boundary.
#[derive(Debug)]
struct WorkloadState {
    cfg: WorkloadConfig,
    sampler: ZipfSampler,
    /// All data blocks, in block-id order (the stable identity the
    /// per-epoch permutation reshuffles).
    base: Vec<BlockId>,
    /// Current rank→block mapping (`perm[rank]` is the block with that
    /// popularity rank this epoch).
    perm: Vec<BlockId>,
    /// Arrival-gap and rank-draw stream.
    rng: StdRng,
    start: SimTime,
    horizon: SimTime,
    /// Churn epoch `perm` currently reflects (`u64::MAX` = none yet).
    epoch: u64,
}

impl WorkloadState {
    /// Rebuilds `perm` for `epoch` from a fresh `(seed, epoch)`-keyed
    /// stream.
    fn reshuffle(&mut self, epoch: u64) {
        self.perm.clear();
        self.perm.extend_from_slice(&self.base);
        let key = self
            .cfg
            .seed
            .wrapping_add(1) // epoch key 0 differs from the arrival seed
            .wrapping_add(epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.perm.shuffle(&mut StdRng::seed_from_u64(key));
        self.epoch = epoch;
    }

    /// The next arrival no later than the horizon, if any.
    fn next_arrival(&mut self, now: SimTime) -> Option<SimTime> {
        let gap = exp_gap_secs(&mut self.rng, self.cfg.reads_per_sec);
        Some(now + SimTime::from_secs_f64(gap)).filter(|&t| t <= self.horizon)
    }
}

#[derive(Default)]
pub(super) struct Serving {
    /// The workload, when one is attached.
    workload: Option<WorkloadState>,
    /// Reads parked on an unavailable block
    /// ([`ServePolicy::WaitForFixer`]): block → issue times.
    reads_waiting_on_block: FastMap<BlockId, Vec<SimTime>>,
}

impl Serving {
    /// Attaches the workload over `base` (every data block) and returns
    /// its first arrival.
    pub(super) fn attach(
        &mut self,
        base: Vec<BlockId>,
        start: SimTime,
        horizon: SimTime,
        cfg: WorkloadConfig,
    ) -> Option<SimTime> {
        assert!(self.workload.is_none(), "one workload per simulation");
        assert!(!base.is_empty(), "load files before starting a workload");
        let w = self.workload.insert(WorkloadState {
            sampler: ZipfSampler::new(base.len(), cfg.zipf_s),
            perm: Vec::with_capacity(base.len()),
            base,
            rng: StdRng::seed_from_u64(cfg.seed),
            start,
            horizon,
            epoch: u64::MAX,
            cfg,
        });
        w.next_arrival(start)
    }

    /// One arrival at `now`: rolls the churn epoch forward if a
    /// boundary passed and draws the target block, then the gap to the
    /// next arrival.
    fn arrive(&mut self, now: SimTime) -> Option<(WorkloadConfig, BlockId, Option<SimTime>)> {
        let w = self.workload.as_mut()?;
        let epoch = if w.cfg.churn_every == SimTime::ZERO {
            0
        } else {
            now.saturating_sub(w.start).0 / w.cfg.churn_every.0
        };
        if w.epoch != epoch {
            w.reshuffle(epoch);
        }
        let block = w.perm[w.sampler.sample_rank(&mut w.rng)];
        Some((w.cfg, block, w.next_arrival(now)))
    }

    /// Completes the reads parked on a freshly-available block: each is
    /// charged its full park time plus a direct service as fixer-wait
    /// latency.
    pub(super) fn complete_parked(
        &mut self,
        block: BlockId,
        now: SimTime,
        stats: &mut ServingStats,
    ) {
        let Some(parked) = self.reads_waiting_on_block.remove(&block) else {
            return;
        };
        let Some(w) = &self.workload else {
            debug_assert!(false, "parked reads imply an attached workload");
            return;
        };
        for issued in parked {
            let waited_ms = now.saturating_sub(issued).as_secs_f64() * 1e3;
            stats.record_fixer_wait(
                waited_ms + w.cfg.direct_service_ms(),
                w.cfg.read_bytes as f64,
            );
        }
    }

    /// Fails the reads parked on a permanently lost block: nothing will
    /// ever wake them.
    pub(super) fn fail_parked(&mut self, block: BlockId, stats: &mut ServingStats) {
        if let Some(parked) = self.reads_waiting_on_block.remove(&block) {
            stats.failed_reads += parked.len() as u64;
        }
    }
}

impl Simulation {
    /// Attaches the serving-plane workload: Poisson client-read arrivals
    /// at `cfg.reads_per_sec` from `start` until `horizon`, targets
    /// drawn Zipf(`cfg.zipf_s`) over every data block currently loaded.
    /// Outcomes land in [`crate::metrics::ServingStats`]. Call after
    /// loading files; one workload per simulation.
    pub fn start_workload(&mut self, start: SimTime, horizon: SimTime, cfg: WorkloadConfig) {
        let k = self.planner.codec().spec().data_blocks();
        let base = (0..self.hdfs.block_count())
            .filter(|&b| self.hdfs.block(b).pos < k)
            .collect();
        if let Some(first) = self.serving.attach(base, start, horizon, cfg) {
            self.events.push(first, ControlEvent::ClientRead);
        }
    }

    /// One client-read arrival: schedule the next one and serve this.
    pub(super) fn on_client_read(&mut self) {
        let Some((cfg, block, next)) = self.serving.arrive(self.clock) else {
            debug_assert!(false, "ClientRead events imply an attached workload");
            return;
        };
        if let Some(next) = next {
            self.events.push(next, ControlEvent::ClientRead);
        }
        self.serve_read(cfg, block);
    }

    /// Serves one client read of `block` under the workload's policy,
    /// recording outcome, bytes and latency in
    /// [`crate::metrics::ServingStats`]. Latency is analytic (O(1) per
    /// read, no flow-level simulation): client reads are `read_bytes`
    /// range reads that would be lost in the noise of the coarse
    /// block-sized repair flows, but their *relative* cost — direct vs
    /// degraded vs wait-for-fixer — is exactly the paper's story.
    fn serve_read(&mut self, cfg: WorkloadConfig, block: BlockId) {
        let stats = &mut self.metrics.serving;
        stats.reads_issued += 1;
        let meta = self.hdfs.block(block);
        if meta.location.is_some() {
            stats.record_direct(cfg.direct_service_ms(), cfg.read_bytes as f64);
            return;
        }
        // The block is unavailable: this is a recovery operation in the
        // Rashmi et al. sense. Classify the stripe's loss multiplicity
        // before deciding how to serve.
        let (stripe, pos) = (meta.stripe, meta.pos);
        stats.record_recovery_event(self.planner.scan(&self.hdfs, stripe).len() == 1);
        if self.hdfs.stripe(stripe).unrecoverable {
            stats.failed_reads += 1;
            return;
        }
        if cfg.policy == ServePolicy::WaitForFixer {
            let parked = self.serving.reads_waiting_on_block.entry(block);
            parked.or_default().push(self.clock);
            return;
        }
        let Ok((read_blocks, light, cache_hit)) =
            self.planner.degraded_read(&self.hdfs, stripe, pos, false)
        else {
            // Unrecoverable pattern the fixer has not seen yet: abandon
            // (exactly-once) and fail the read.
            self.abandon_stripe(stripe);
            self.metrics.serving.failed_reads += 1;
            return;
        };
        // Range-read the same offsets of every surviving lane in the
        // plan, stream them over the client NIC, decode.
        let fetched = read_blocks.len().max(1) as f64 * cfg.read_bytes as f64;
        let mut latency_ms = cfg.base_latency_ms
            + fetched / cfg.client_read_bps * 1e3
            + fetched / self.cfg.compute.decode_bps(light) * 1e3;
        if !cache_hit {
            latency_ms += cfg.plan_compile_ms;
        }
        stats.record_degraded(light, latency_ms, fetched);
    }
}
