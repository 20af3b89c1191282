//! A task's life: scheduled onto a slot, reads resolved against the
//! live namespace, streamed in, computed, written back, retired — or
//! aborted by a failure along the way.

use super::{ControlEvent, JobKind, Simulation, TaskId, TaskKind, TaskState};
use crate::config::ReadPolicy;
use crate::hdfs::{BlockId, NodeId, Position};
use crate::network::FlowId;
use crate::time::SimTime;

impl Simulation {
    /// Hands free slots to queued tasks until either runs out.
    /// Re-entrant calls (task completions triggered while scheduling)
    /// no-op — the active loop re-examines slots and queues every
    /// iteration.
    pub(super) fn schedule(&mut self) {
        if self.scheduler.scheduling {
            return;
        }
        self.scheduler.scheduling = true;
        let repair_cap = self.cfg.max_concurrent_repairs;
        while let Some((tid, node)) =
            self.scheduler
                .next_assignment(&self.tasks, &self.fleet, repair_cap)
        {
            self.start_task(tid, node);
        }
        self.scheduler.scheduling = false;
    }

    /// Resolves the reads of a task given the current namespace state.
    /// Returns `(read_blocks_with_fractions, compute_secs, restores)` or
    /// `None` when the task is impossible (data loss) or trivially done.
    /// Each read carries the fraction of the block fetched: 1.0 for
    /// whole-lane reads, 0.5 where the plan needs only one substripe of
    /// a lane (the piggybacked RS's single-data-loss repair).
    #[allow(clippy::type_complexity)]
    fn resolve_task_work(
        &mut self,
        tid: TaskId,
    ) -> Option<(Vec<(BlockId, f64)>, f64, Vec<(usize, BlockId)>)> {
        let block_bytes = self.cfg.cluster.block_bytes as f64;
        let rates = self.cfg.compute;
        match self.tasks.get(tid)?.kind {
            TaskKind::Repair {
                stripe,
                ref targets,
                light,
            } => {
                // One scan of the stripe serves both the still-lost
                // filter and replanning.
                let unavailable = self.planner.scan(&self.hdfs, stripe);
                let still_lost: Vec<usize> = targets
                    .iter()
                    .copied()
                    .filter(|p| unavailable.contains(p))
                    .collect();
                if still_lost.is_empty() {
                    return Some((vec![], 0.0, vec![]));
                }
                let positions = self.hdfs.positions(stripe);
                let read_positions: Vec<(usize, f64)> =
                    if !light && self.cfg.read_policy == ReadPolicy::Deployed {
                        (0..positions.len())
                            .filter(|p| !unavailable.contains(p))
                            .map(|p| (p, 1.0))
                            .collect()
                    } else {
                        let (plan, _) = self.planner.plan(&still_lost).ok()?;
                        if light {
                            // The planned light reads were fixed at scan
                            // time; they remain exactly the repair
                            // group, re-derived here.
                            plan.fetch_lanes().map(|p| (p, 1.0)).collect()
                        } else {
                            // Deduplicated per-position fractions: a
                            // half-lane read moves (and bills) half a
                            // block; whole-lane plans are all 1.0.
                            plan.read_fractions()
                        }
                    };
                // Map to real blocks; virtual positions read for free.
                let read_blocks: Vec<(BlockId, f64)> = read_positions
                    .iter()
                    .filter_map(|&(p, frac)| match positions[p] {
                        Position::Real(b) => Some((b, frac)),
                        Position::Virtual => None,
                    })
                    .collect();
                let read_volume: f64 = read_blocks.iter().map(|&(_, f)| f).sum();
                let compute = read_volume * block_bytes / rates.decode_bps(light);
                let restores: Vec<(usize, BlockId)> = still_lost
                    .iter()
                    .filter_map(|&p| match positions[p] {
                        Position::Real(b) => Some((p, b)),
                        Position::Virtual => {
                            debug_assert!(false, "virtual positions never fail");
                            None
                        }
                    })
                    .collect();
                Some((read_blocks, compute, restores))
            }
            TaskKind::Map { block } => {
                let meta = self.hdfs.block(block);
                let wordcount = block_bytes / rates.wordcount_bps;
                if meta.location.is_some() {
                    return Some((vec![(block, 1.0)], wordcount, vec![]));
                }
                // Degraded read: reconstruct the block in memory first.
                let stripe = meta.stripe;
                let Ok((read_blocks, light, _)) = self
                    .planner
                    .degraded_read(&self.hdfs, stripe, meta.pos, false)
                else {
                    self.abandon_stripe(stripe);
                    return None;
                };
                let decode = read_blocks.len() as f64 * block_bytes / rates.decode_bps(light);
                // Degraded map reads stream whole blocks (the wordcount
                // consumes the payload anyway), so every fraction is 1.0.
                let reads = read_blocks.into_iter().map(|b| (b, 1.0)).collect();
                Some((reads, wordcount + decode, vec![]))
            }
            TaskKind::Relocate { block, via_repair } => {
                let meta = self.hdfs.block(block);
                let pos = meta.pos;
                // Lost in the meantime: the BlockFixer owns it now.
                meta.location?;
                if !via_repair {
                    // Classical drain: stream the block off the node.
                    return Some((vec![(block, 1.0)], 0.0, vec![(pos, block)]));
                }
                // Scheduled-repair drain: rebuild from peers, never
                // touching the draining node.
                let (read_blocks, light, _) = self
                    .planner
                    .degraded_read(&self.hdfs, meta.stripe, pos, true)
                    .ok()?;
                let compute = read_blocks.len() as f64 * block_bytes / rates.decode_bps(light);
                let reads = read_blocks.into_iter().map(|b| (b, 1.0)).collect();
                Some((reads, compute, vec![(pos, block)]))
            }
        }
    }

    fn start_task(&mut self, tid: TaskId, node: NodeId) {
        let Some((read_blocks, compute_secs, restores)) = self.resolve_task_work(tid) else {
            // Impossible task (data loss): complete it vacuously.
            self.complete_task(tid);
            return;
        };
        // Any read of a currently-lost block (an intermediate of a
        // peeling chain) parks the task until that block is restored.
        let lost_reads: Vec<BlockId> = read_blocks
            .iter()
            .map(|&(b, _)| b)
            .filter(|&b| self.hdfs.block(b).location.is_none())
            .collect();
        if !lost_reads.is_empty() {
            self.tasks.park(tid, lost_reads);
            return;
        }
        let Some(task) = self.tasks.get_mut(tid) else {
            debug_assert!(false, "started task is live");
            return;
        };
        self.scheduler.claim(node, task.job);
        task.node = Some(node);
        task.state = TaskState::Reading;
        task.compute_secs = compute_secs;
        task.restores = restores;
        // Issue reads: local ones are free and instantaneous. A
        // fractional read (a piggyback half-lane) moves and bills only
        // that fraction of the block.
        let block_bytes = self.cfg.cluster.block_bytes as f64;
        for (b, frac) in read_blocks {
            let Some(src) = self.hdfs.block(b).location else {
                // Lost reads parked the task above; a read here is live.
                debug_assert!(false, "read block has a location");
                continue;
            };
            self.metrics.record_block_read(block_bytes * frac);
            if src != node {
                let flow = self.network.start_flow(src, node, block_bytes * frac, tid);
                task.pending_reads.push(flow);
            }
        }
        if task.pending_reads.is_empty() {
            self.begin_compute(tid);
        }
    }

    fn begin_compute(&mut self, tid: TaskId) {
        let Some(task) = self.tasks.get_mut(tid) else {
            debug_assert!(false, "computing task is live");
            return;
        };
        task.state = TaskState::Computing;
        task.run += 1;
        let done = self.clock + SimTime::from_secs_f64(task.compute_secs);
        self.events
            .push(done, ControlEvent::ComputeDone(tid, task.run));
    }

    pub(super) fn on_compute_done(&mut self, tid: TaskId, run: u32) {
        let Some(task) = self.tasks.get_mut(tid) else {
            return;
        };
        // An aborted run's event outlives it: the task may since have
        // been requeued, or be computing again under a later run.
        if task.state != TaskState::Computing || task.run != run {
            return;
        }
        let Some(node) = task.node else {
            debug_assert!(false, "computing tasks have a node");
            return;
        };
        let restores = task.restores.clone();
        if !restores.is_empty() {
            task.state = TaskState::Writing;
        }
        // Write phase: place each reconstructed block and ship it.
        let block_bytes = self.cfg.cluster.block_bytes as f64;
        for (_, block) in restores {
            let stripe = self.hdfs.block(block).stripe;
            let Some(target) = self.fleet.place_rebuilt(&self.hdfs, stripe, &mut self.rng) else {
                debug_assert!(false, "some node accepts the restored block");
                continue;
            };
            if target == node {
                self.settle_block(tid, block, target);
            } else {
                let fid = self.network.start_flow(node, target, block_bytes, tid);
                if let Some(task) = self.tasks.get_mut(tid) {
                    task.write_queue.push((fid, block, target));
                }
            }
        }
        if self
            .tasks
            .get(tid)
            .is_some_and(|t| t.write_queue.is_empty())
        {
            self.complete_task(tid);
        }
    }

    /// Lands a task's output block: repairs restore a lost block,
    /// relocations move a live one.
    fn settle_block(&mut self, tid: TaskId, block: BlockId, node: NodeId) {
        let relocating = matches!(
            self.tasks.get(tid).map(|t| &t.kind),
            Some(TaskKind::Relocate { .. })
        );
        // A relocation whose source died mid-drain became a repair.
        if relocating && self.hdfs.block(block).location.is_some() {
            self.hdfs.relocate_block(block, node);
        } else {
            self.restore_block_now(block, node);
        }
    }

    pub(super) fn restore_block_now(&mut self, block: BlockId, node: NodeId) {
        // Already located: a transient node return re-attached the block
        // while this repair was in flight. The reconstruction is
        // redundant — drop it on the floor (the bytes were already
        // charged, matching the real system, where the write-back races
        // the re-registration) and only settle the bookkeeping.
        if self.hdfs.block(block).location.is_none() {
            if self.cfg.verify_payloads {
                let (codec, len) = (self.planner.codec(), self.cfg.payload_bytes);
                self.verifier.verify_repair(&self.hdfs, codec, len, block);
            }
            self.hdfs.restore_block(block, node);
            self.metrics.record_block_repaired();
        }
        let meta = self.hdfs.block(block);
        self.tasks.repair_in_flight.remove(&(meta.stripe, meta.pos));
        self.wake_block_waiters(block);
    }

    /// Wakes everything parked on a freshly-available block: waiting
    /// tasks requeue, and parked serving reads complete.
    pub(super) fn wake_block_waiters(&mut self, block: BlockId) {
        self.tasks.wake(block, &mut self.scheduler);
        self.serving
            .complete_parked(block, self.clock, &mut self.metrics.serving);
    }

    pub(super) fn on_flow_complete(&mut self, fid: FlowId, owner: TaskId) {
        let Some(task) = self.tasks.get_mut(owner) else {
            return;
        };
        if let Some(i) = task.pending_reads.iter().position(|&f| f == fid) {
            task.pending_reads.swap_remove(i);
            if task.pending_reads.is_empty() && task.state == TaskState::Reading {
                self.begin_compute(owner);
            }
            return;
        }
        if let Some(i) = task.write_queue.iter().position(|&(f, _, _)| f == fid) {
            let (_, block, target) = task.write_queue.swap_remove(i);
            let done = task.write_queue.is_empty();
            self.settle_block(owner, block, target);
            if done {
                self.complete_task(owner);
            }
        }
    }

    fn complete_task(&mut self, tid: TaskId) {
        let Some(task) = self.tasks.get(tid) else {
            debug_assert!(false, "completed task is live");
            return;
        };
        if task.state.holds_slot() {
            self.scheduler.release(&self.fleet, task.job, task.node);
        }
        self.tasks.unindex(tid);
        self.retire_task(tid);
        self.schedule();
    }

    /// Removes a finished task from the table and settles job
    /// accounting; the table holds only live tasks.
    fn retire_task(&mut self, tid: TaskId) {
        let Some(task) = self.tasks.remove(tid) else {
            debug_assert!(false, "retired task is live");
            return;
        };
        if let Some((kind, submitted)) = self.scheduler.retire(task.job) {
            match kind {
                JobKind::Repair => self.metrics.record_repair_job(submitted, self.clock),
                JobKind::Workload => self.metrics.record_workload_job(submitted, self.clock),
            }
        }
    }

    /// Aborts a task: workload and relocation tasks requeue (they
    /// re-plan cleanly from scratch), repair tasks are dropped (a rescan
    /// re-creates them consistently).
    pub(super) fn abort_task(&mut self, tid: TaskId) {
        let Some(task) = self.tasks.get_mut(tid) else {
            return;
        };
        let (state, job) = (task.state, task.job);
        for f in task.pending_reads.drain(..) {
            self.network.cancel_flow(f);
        }
        for (f, _, _) in task.write_queue.drain(..) {
            self.network.cancel_flow(f);
        }
        if state.holds_slot() {
            self.scheduler.release(&self.fleet, job, task.node.take());
        }
        let requeue = !matches!(task.kind, TaskKind::Repair { .. });
        if requeue {
            task.state = TaskState::Queued;
        }
        self.tasks.unindex(tid);
        if requeue {
            self.scheduler.enqueue(job, tid);
        } else {
            self.retire_task(tid);
        }
    }
}
