//! The discrete-event simulation engine.
//!
//! Ties together the namespace ([`crate::hdfs`]), the flow-level network
//! ([`crate::network`]), the codecs ([`crate::codecs`]) and the metrics
//! ([`crate::metrics`]) into the §3 system model:
//!
//! * a **BlockFixer** that detects lost blocks after a detection delay,
//!   plans repairs with the real codec planners, and dispatches repair
//!   MapReduce jobs (one map task per light repair, one per stripe for
//!   heavy repairs);
//! * a **fair scheduler** allocating map slots across concurrent jobs;
//! * **WordCount-style workload jobs** whose tasks perform *degraded
//!   reads* (reconstruct-before-read, no write-back) when their input
//!   block is missing;
//! * node failures that cancel in-flight work and trigger rescans, and
//!   node **replacements** ([`Simulation::revive_node_at`]) so
//!   multi-year scenarios keep their fleet size.
//!
//! # Scaling design
//!
//! Every per-event path is allocation-free and index-backed so a
//! 3000-node, multi-simulated-year run stays event-bound rather than
//! scan-bound:
//!
//! * the control-event queue is a slab-indexed binary heap (no hashing,
//!   payload slots recycled) — `events.rs`;
//! * the BlockFixer scans the incremental lost-block index
//!   ([`Hdfs::lost_blocks`]), never the namespace — `fixer.rs`;
//! * finished tasks are retired from the task table immediately — the
//!   table holds the working set, not history — `tasks.rs`;
//! * the fair scheduler picks jobs from a `jobs_with_work` index and
//!   nodes from a free-slot bucket index (no O(cluster) scans per task)
//!   — `scheduler.rs`;
//! * repair plans are memoized by failure pattern and shared by `Rc`,
//!   so a lookup that hits allocates nothing — `planner.rs`;
//! * unrecoverable stripes are abandoned exactly once and withdrawn
//!   from scanning ([`Hdfs::mark_unrecoverable`]);
//! * per-event scratch buffers are owned by the subsystem that fills
//!   them and reused;
//! * **deferred steps** — a step whose stop (the next control event, or
//!   the run's limit) falls inside the network's quiet window reads and
//!   writes no flow: it only hands its length to the network
//!   (`Network::defer`). The window is the earliest completion less 2⁻²⁰
//!   of it, empty while some flow has under 2 bytes left, and defers at
//!   most 2¹⁶ steps. Stepping eagerly would subtract from each flow's
//!   remaining `r` at most 2¹⁶ + 1 times, with float error under
//!   7.3e-12·r in all, so inside the window every flow keeps at least
//!   (2⁻²⁰ − 7.3e-12)·r ≥ 1.9e-6 bytes, above the 1e-6-byte completion
//!   tolerance, and the completion time it would recompute stays after
//!   the window. So no flow completes and the stop is the one eager
//!   stepping picks ([`crate::network`]'s "Deferred steps" has the
//!   bound term by term). The network replays the steps flow by flow,
//!   with the same arithmetic, on the next flow start, cancel or exact
//!   step, and [`Simulation::run_until`] / [`Simulation::run_until_idle`]
//!   settle them before returning; each step's bytes reach
//!   `Metrics::record_network` in step order, so every pinned value is
//!   bit-identical. The completion scan of an exact step is the pass
//!   that opens the window, so a step that cannot defer costs no extra
//!   pass.
//!
//! # Who owns what
//!
//! [`Simulation`] keeps the loop's own state (clock, configuration,
//! namespace, network, metrics, RNG, event queue) and holds one plain
//! struct per concern — `Planner`, `Verifier`, `Fleet`, `Scheduler`,
//! `TaskTable`, `Serving`, each in the file of its name. Each owns its
//! state and is called with explicit borrows of whatever else it reads
//! (`self.planner.scan(&self.hdfs, stripe)`), so a handler that needs
//! two subsystems names both. Handlers that span subsystems are `impl
//! Simulation` blocks: `fixer.rs` (failures, returns, decommissioning,
//! BlockFixer scans, job submission), `lifecycle.rs` (schedule, start,
//! compute, write-back, abort, complete) and `serving.rs` (client
//! reads). The full ownership table — state, event kinds, callers — is
//! in `docs/ARCHITECTURE.md`.

use rand::rngs::StdRng;
use rand::SeedableRng;

use xorbas_core::Codec;

use crate::config::SimConfig;
use crate::hdfs::{BlockId, FileId, Hdfs, NodeId};
use crate::metrics::Metrics;
use crate::network::{Flow, FlowId, Network};
use crate::time::SimTime;

mod events;
mod fixer;
mod fleet;
mod lifecycle;
mod planner;
mod scheduler;
mod serving;
mod tasks;
mod verifier;

pub use scheduler::JobId;
pub use tasks::TaskId;

use events::{ControlEvent, EventQueue};
use fleet::Fleet;
use planner::Planner;
use scheduler::{JobKind, Scheduler};
use serving::Serving;
use tasks::{TaskKind, TaskState, TaskTable};
use verifier::Verifier;

/// The simulation.
pub struct Simulation {
    /// Current simulated time.
    pub clock: SimTime,
    cfg: SimConfig,
    /// The namespace (public for inspection by drivers and tests).
    pub hdfs: Hdfs,
    network: Network,
    /// Collected measurements.
    pub metrics: Metrics,
    rng: StdRng,
    events: EventQueue,
    events_processed: u64,
    /// Reused scratch for per-step flow-completion batches.
    completed_scratch: Vec<(FlowId, Flow)>,
    /// End of the network's quiet window: a step stopping at or before
    /// it completes no flow and is deferred.
    quiet_until: SimTime,
    planner: Planner,
    verifier: Verifier,
    fleet: Fleet,
    scheduler: Scheduler,
    tasks: TaskTable,
    serving: Serving,
}

impl Simulation {
    /// A fresh simulation for the given configuration.
    #[expect(
        clippy::expect_used,
        reason = "the frozen benchmark harness calls `new` as infallible"
    )]
    pub fn new(cfg: SimConfig) -> Self {
        let nodes = cfg.cluster.nodes;
        Self {
            clock: SimTime::ZERO,
            hdfs: Hdfs::new(nodes),
            network: Network::new(nodes, cfg.cluster.nic_bps, cfg.cluster.core_bps),
            metrics: Metrics::default(),
            rng: StdRng::seed_from_u64(cfg.seed),
            events: EventQueue::default(),
            events_processed: 0,
            completed_scratch: Vec::new(),
            quiet_until: SimTime::ZERO,
            planner: Planner::new(Codec::build(cfg.code).expect("valid code spec")),
            verifier: Verifier::default(),
            fleet: Fleet::new(nodes, cfg.cluster.racks),
            scheduler: Scheduler::new(nodes, cfg.cluster.map_slots_per_node),
            tasks: TaskTable::default(),
            serving: Serving::default(),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The codec instance in use.
    pub fn codec(&self) -> &Codec {
        self.planner.codec()
    }

    /// Which nodes are alive.
    pub fn alive_nodes(&self) -> usize {
        self.fleet.alive_nodes().count()
    }

    /// Control events handled plus network-flow completions delivered —
    /// the simulator's unit of work for throughput reporting.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    // ----- setup API -------------------------------------------------

    /// Loads a RAIDed file of `data_blocks` blocks. In verify mode every
    /// block receives a deterministic payload and parities are encoded
    /// with the real codec. Panics if placement capacity is exhausted.
    #[expect(
        clippy::expect_used,
        reason = "the frozen benchmark harness ignores this return value"
    )]
    pub fn load_raided_file(&mut self, name: &str, data_blocks: usize) -> FileId {
        let codec = self.planner.codec();
        let code = codec.spec();
        let payloads = if self.cfg.verify_payloads {
            let first_stripe = self.hdfs.stripes().len();
            verifier::payload_table(codec, self.cfg.payload_bytes, first_stripe, data_blocks)
        } else {
            Default::default()
        };
        let pad_locals = self.cfg.pad_local_parities;
        self.hdfs
            .create_raided_file(
                name,
                data_blocks,
                code,
                self.cfg.cluster.block_bytes,
                self.fleet.placement(),
                self.fleet.alive(),
                &mut self.rng,
                |real, mask| {
                    code.virtual_mask_into(real, mask);
                    if pad_locals {
                        // Deployed HDFS-Xorbas stored all-zero local
                        // parities; only data padding stays virtual.
                        for (pos, v) in mask.iter_mut().enumerate() {
                            if pos >= code.data_blocks() {
                                *v = false;
                            }
                        }
                    }
                },
                |sid, pos| payloads.get(&sid).map(|s| s[pos].clone()),
            )
            .expect("cluster has capacity for the file")
    }

    // ----- scenario API ----------------------------------------------

    /// Schedules the termination of a DataNode.
    pub fn kill_node_at(&mut self, t: SimTime, node: NodeId) {
        self.events.push(t, ControlEvent::KillNode(node));
    }

    /// Schedules a replacement for a dead DataNode: the node rejoins
    /// empty (its blocks do not return), with fresh map slots. This is
    /// how multi-year scenarios model the ops team swapping failed
    /// machines so the fleet stays at size.
    pub fn revive_node_at(&mut self, t: SimTime, node: NodeId) {
        self.events.push(t, ControlEvent::ReviveNode(node));
    }

    /// Schedules the return of a transiently-failed node *with its disk
    /// intact* — a reboot or partition healing rather than the machine
    /// swap of [`Simulation::revive_node_at`]. Blocks the node held at
    /// kill time re-attach unless the BlockFixer already restored them
    /// elsewhere; nothing counts as repaired. This is the §1 mechanism
    /// behind most production "failures" being transient.
    pub fn restore_node_at(&mut self, t: SimTime, node: NodeId) {
        self.events.push(t, ControlEvent::RestoreNode(node));
    }

    /// Schedules the silent loss of individual blocks (Fig.-7-style).
    /// No FixerScan is triggered: the blocks stay lost until read
    /// (degraded) or until a scan is scheduled explicitly.
    pub fn drop_blocks_at(&mut self, t: SimTime, blocks: Vec<BlockId>) {
        self.events.push(t, ControlEvent::DropBlocks(blocks));
    }

    /// Schedules a BlockFixer scan.
    pub fn scan_at(&mut self, t: SimTime) {
        self.events.push(t, ControlEvent::FixerScan);
    }

    /// Schedules a WordCount job over a file's data blocks.
    pub fn submit_wordcount_at(&mut self, t: SimTime, file: FileId) {
        self.events.push(t, ControlEvent::SubmitWordcount(file));
    }

    /// Schedules the decommissioning of a DataNode (§1.1): its blocks
    /// are moved elsewhere while it keeps serving, either by streaming
    /// them out (`via_repair = false`, the classical drain through one
    /// NIC) or by re-creating them from their repair groups like a
    /// scheduled repair (`via_repair = true`, the paper's proposal).
    pub fn decommission_node_at(&mut self, t: SimTime, node: NodeId, via_repair: bool) {
        self.events
            .push(t, ControlEvent::Decommission { node, via_repair });
    }

    /// Whether a decommissioned node has been fully drained.
    pub fn is_drained(&self, node: NodeId) -> bool {
        self.fleet.is_draining(node) && self.hdfs.blocks_on(node).is_empty()
    }

    /// The alive node currently hosting a block count closest to
    /// `target` (the paper terminated DataNodes "storing roughly the
    /// same number of blocks" across both clusters).
    pub fn node_with_block_count_near(&self, target: usize) -> Option<NodeId> {
        self.fleet
            .alive_nodes()
            .min_by_key(|&n| (self.hdfs.blocks_on(n).len() as i64 - target as i64).abs())
    }

    /// Whether a node is alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.fleet.is_alive(node)
    }

    /// Picks `count` distinct alive victims whose block counts are
    /// closest to the alive-node average — the paper's methodology of
    /// terminating comparably-loaded DataNodes in both clusters.
    pub fn pick_victims(&self, count: usize) -> Vec<NodeId> {
        let alive: Vec<NodeId> = self.fleet.alive_nodes().collect();
        if alive.is_empty() {
            return vec![];
        }
        let avg = alive
            .iter()
            .map(|&n| self.hdfs.blocks_on(n).len())
            .sum::<usize>()
            / alive.len();
        let mut sorted = alive;
        sorted.sort_by_key(|&n| ((self.hdfs.blocks_on(n).len() as i64 - avg as i64).abs(), n));
        sorted.truncate(count);
        sorted
    }

    // ----- event loop ------------------------------------------------

    /// Runs until no work remains or `limit` is reached. Returns the
    /// quiesce time. Panics if the limit is hit (a stuck simulation is
    /// a bug, not a result).
    pub fn run_until_idle(&mut self, limit: SimTime) -> SimTime {
        while self.step(limit) {}
        self.settle_network();
        assert!(
            self.clock < limit,
            "simulation did not quiesce before {limit}"
        );
        self.clock
    }

    /// Runs until the clock reaches `t`, processing everything due
    /// before it; pending work may remain (unlike
    /// [`Simulation::run_until_idle`]). Scenario drivers use this to
    /// interleave decisions (e.g. picking failure victims among
    /// currently-alive nodes) with simulation progress.
    pub fn run_until(&mut self, t: SimTime) {
        while self.step(t) {}
        if self.clock < t {
            self.advance_to(t);
        }
        self.settle_network();
    }

    // xlint::hot-path(event-loop) begin
    // The per-event spin: every simulated event funnels through `step`
    // and `advance_to`, so this surface reuses engine-owned scratch
    // (`completed_scratch`) instead of allocating per step. The event
    // *handlers* it dispatches to may allocate — they run once per
    // logical task, not once per clock advance.

    /// Processes the next event; returns false when idle or past `limit`.
    fn step(&mut self, limit: SimTime) -> bool {
        let next_ctrl = self.events.peek_time();
        // Inside the quiet window no flow completes, so the stop is the
        // next control event (or `limit`) and the step is deferred.
        if let Some(c) = next_ctrl {
            let stop = c.min(limit);
            if stop <= self.quiet_until && self.network.defer((stop - self.clock).as_secs_f64()) {
                self.clock = stop;
                if c > limit {
                    return false;
                }
                self.handle_due_events();
                return true;
            }
        }
        let window = self.network.completion_window();
        self.quiet_until = window.map_or(SimTime(u64::MAX), |(_, quiet)| {
            self.clock + SimTime::from_secs_f64_floor(quiet)
        });
        // Ceil to the next microsecond: rounding down would advance the
        // clock by zero and never complete the flow (livelock).
        let next_flow =
            window.map(|(earliest, _)| self.clock + SimTime::from_secs_f64_ceil(earliest));
        let target = match (next_ctrl, next_flow) {
            (None, None) => return false,
            (Some(c), None) => c,
            (None, Some(f)) => f,
            (Some(c), Some(f)) => c.min(f),
        };
        if target > limit {
            self.advance_to(limit);
            return false;
        }
        // Flow completions at `target` are handled inside advance_to.
        self.advance_to(target);
        self.handle_due_events();
        true
    }

    /// Handles the control events due at or before the clock.
    fn handle_due_events(&mut self) {
        while let Some(t) = self.events.peek_time() {
            if t > self.clock {
                break;
            }
            let Some((_, ev)) = self.events.pop() else {
                debug_assert!(false, "peeked event vanished");
                break;
            };
            self.events_processed += 1;
            self.handle_event(ev);
        }
    }

    /// Replays the network's deferred steps and counts each one's bytes,
    /// in step order.
    fn settle_network(&mut self) {
        let metrics = &mut self.metrics;
        self.network.settle(|bytes| metrics.record_network(bytes));
    }

    /// Advances the clock, draining network flows and counting the bytes
    /// they moved.
    fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.clock);
        let dt = (t - self.clock).as_secs_f64();
        if dt > 0.0 {
            self.settle_network();
            // Swap the completion buffer out so the network can fill it
            // while `on_flow_complete` re-borrows `self` mutably.
            let mut completed = std::mem::take(&mut self.completed_scratch);
            let bytes = self.network.advance(dt, &mut completed);
            self.metrics.record_network(bytes);
            self.clock = t;
            self.events_processed += completed.len() as u64;
            for &(id, flow) in &completed {
                self.on_flow_complete(id, flow.owner);
            }
            completed.clear();
            self.completed_scratch = completed;
        } else {
            self.clock = t;
        }
    }
    // xlint::hot-path(event-loop) end

    fn handle_event(&mut self, ev: ControlEvent) {
        match ev {
            ControlEvent::KillNode(node) => self.on_kill_node(node),
            ControlEvent::ReviveNode(node) => self.on_rejoin(node, false),
            ControlEvent::RestoreNode(node) => self.on_rejoin(node, true),
            ControlEvent::DropBlocks(blocks) => {
                for b in blocks {
                    self.hdfs.drop_block(b);
                }
            }
            ControlEvent::FixerScan => self.on_fixer_scan(),
            ControlEvent::SubmitWordcount(file) => self.on_submit_wordcount(file),
            ControlEvent::ComputeDone(task, run) => self.on_compute_done(task, run),
            ControlEvent::ClientRead => self.on_client_read(),
            ControlEvent::Decommission { node, via_repair } => {
                self.on_decommission(node, via_repair)
            }
        }
    }
}

#[cfg(test)]
mod tests;
