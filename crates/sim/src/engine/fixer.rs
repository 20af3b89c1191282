//! What happens to the cluster and who is sent to fix it: node
//! failures and returns, decommissioning, the BlockFixer's scans, and
//! job submission.

use super::{ControlEvent, JobKind, Simulation, TaskId, TaskKind};
use crate::config::ReadPolicy;
use crate::hdfs::{BlockId, FileId, NodeId, Position, StripeId};
use crate::time::SimTime;

impl Simulation {
    /// Opens a job with one task per spec and lets the scheduler at it.
    fn submit_job(&mut self, kind: JobKind, specs: Vec<(TaskKind, Option<NodeId>)>) {
        if specs.is_empty() {
            return;
        }
        self.scheduler
            .submit(&mut self.tasks, kind, self.clock, specs);
        self.schedule();
    }

    /// Dispatches one relocate job covering every block on the node.
    pub(super) fn on_decommission(&mut self, node: NodeId, via_repair: bool) {
        if !self.fleet.start_drain(node) {
            return;
        }
        let mut blocks: Vec<BlockId> = self.hdfs.blocks_on(node).to_vec();
        blocks.sort_unstable();
        let relocate = |block| (TaskKind::Relocate { block, via_repair }, None);
        self.submit_job(JobKind::Repair, blocks.into_iter().map(relocate).collect());
    }

    // ----- failures ---------------------------------------------------

    pub(super) fn on_kill_node(&mut self, node: NodeId) {
        if !self.fleet.is_alive(node) {
            return;
        }
        self.scheduler.set_free_slots(node, 0);
        self.fleet.kill(node, self.hdfs.kill_node(node));
        // Cancel flows touching the dead node; abort their tasks.
        // Ordering matters for determinism: task ids ascending.
        let mut hit_tasks: Vec<TaskId> = Vec::new();
        for fid in self.network.flows_touching(node) {
            if let Some(f) = self.network.cancel_flow(fid) {
                hit_tasks.push(f.owner);
            }
        }
        // Tasks running on the dead node are gone too. The task table
        // holds only live tasks, so this scan is the working set.
        hit_tasks.extend(self.tasks.running_on(node));
        hit_tasks.sort_unstable();
        hit_tasks.dedup();
        // Policy: only tasks the failure actually disturbed are aborted
        // (their node died or one of their streams was cut). Unaffected
        // repairs keep running — tasks re-derive their read plans
        // against the live namespace when they start, so queued work
        // stays valid, and at warehouse failure rates (a failure every
        // ~70 minutes) cancelling the whole repair effort per failure
        // would thrash forever. Aborted repair tasks are dropped (not
        // requeued); the rescan below re-plans them consistently, while
        // workload and relocation tasks requeue individually.
        for tid in hit_tasks {
            self.abort_task(tid);
        }
        let scan_at = self.clock + SimTime::from_secs_f64(self.cfg.detection_delay_secs);
        self.events.push(scan_at, ControlEvent::FixerScan);
        self.schedule();
    }

    /// A dead node's place in the fleet is filled again, with fresh map
    /// slots. Without its disk it is a replacement machine: the old
    /// blocks went with the old one. With it, this is a reboot or a
    /// healed partition: every kill-time block the BlockFixer has not
    /// already restored elsewhere re-attaches, waking anything parked
    /// on it. Re-attachment is not a repair — no bytes moved — so
    /// repair counters stay untouched, and a repair task already in
    /// flight for a returning block settles harmlessly: its completion
    /// finds the block located and skips the restore
    /// ([`Simulation::restore_block_now`]).
    pub(super) fn on_rejoin(&mut self, node: NodeId, with_disk: bool) {
        let Some(disk) = self.fleet.rejoin(node) else {
            return;
        };
        self.scheduler
            .set_free_slots(node, self.cfg.cluster.map_slots_per_node);
        if with_disk {
            for block in disk {
                if self.hdfs.block(block).location.is_none() {
                    self.hdfs.restore_block(block, node);
                    self.wake_block_waiters(block);
                }
            }
        }
        self.schedule();
    }

    // ----- BlockFixer ---------------------------------------------------

    /// Marks a stripe unrecoverable (recording the data loss exactly
    /// once) and aborts any tasks parked on its permanently-lost blocks
    /// — those restores will never come, so the waiters would otherwise
    /// strand forever, pinning their jobs and `repair_in_flight`
    /// entries. Aborted workload/relocation waiters requeue, re-resolve
    /// against the doomed stripe and complete vacuously; repair waiters
    /// are dropped.
    pub(super) fn abandon_stripe(&mut self, stripe: StripeId) {
        if !self.hdfs.mark_unrecoverable(stripe) {
            return;
        }
        self.metrics.record_data_loss();
        let mut stranded: Vec<TaskId> = Vec::new();
        for p in self.hdfs.positions(stripe) {
            let Position::Real(b) = *p else { continue };
            if self.hdfs.block(b).location.is_none() {
                stranded.extend(self.tasks.waiters(b));
                // Serving reads parked here will never be woken: fail
                // them now rather than letting them dangle unaccounted.
                self.serving.fail_parked(b, &mut self.metrics.serving);
            }
        }
        stranded.sort_unstable();
        stranded.dedup();
        for tid in stranded {
            self.abort_task(tid);
        }
    }

    pub(super) fn on_fixer_scan(&mut self) {
        // Group the lost-block index by stripe: sort (stripe, position)
        // pairs and walk runs.
        let stripe_pos = |&b| {
            let meta = self.hdfs.block(b);
            (meta.stripe, meta.pos)
        };
        let mut pairs: Vec<(StripeId, usize)> =
            self.hdfs.lost_blocks().iter().map(stripe_pos).collect();
        pairs.sort_unstable();
        let mut specs: Vec<(TaskKind, Option<NodeId>)> = Vec::new();
        for positions in pairs.chunk_by(|a, b| a.0 == b.0) {
            let stripe = positions[0].0;
            let targets: Vec<usize> = positions
                .iter()
                .map(|&(_, p)| p)
                .filter(|&p| !self.tasks.repair_in_flight.contains(&(stripe, p)))
                .collect();
            if targets.is_empty() {
                continue;
            }
            self.planner.scan(&self.hdfs, stripe);
            let Ok((plan, _)) = self.planner.plan(&targets) else {
                self.abandon_stripe(stripe);
                continue;
            };
            // Deployed HDFS-RAID runs one BlockFixer map task per lost
            // block (each opening its own streams); our codec plans one
            // heavy task per stripe, so split it when mirroring the
            // deployed system. Light tasks are already per-block.
            let per_block = self.cfg.read_policy == ReadPolicy::Deployed;
            for ptask in &plan.tasks {
                let groups: Vec<Vec<usize>> = if per_block {
                    ptask.repairs.iter().map(|&p| vec![p]).collect()
                } else {
                    vec![ptask.repairs.clone()]
                };
                for mut repairs in groups {
                    // A plan may repair more than the requested targets
                    // (peeling intermediates of a multi-loss group). Any
                    // position already owned by an in-flight task — e.g.
                    // a parked sibling waiting on an intermediate — must
                    // not get a second task, or two repairs would race
                    // to restore one block.
                    repairs.retain(|&p| self.tasks.repair_in_flight.insert((stripe, p)));
                    if !repairs.is_empty() {
                        let kind = TaskKind::Repair {
                            stripe,
                            targets: repairs,
                            light: ptask.light,
                        };
                        specs.push((kind, None));
                    }
                }
            }
        }
        self.submit_job(JobKind::Repair, specs);
    }

    // ----- workload -------------------------------------------------

    pub(super) fn on_submit_wordcount(&mut self, file: FileId) {
        let k = self.planner.codec().spec().data_blocks();
        let specs: Vec<_> = self.hdfs.files()[file]
            .stripes
            .clone()
            // WordCount reads data blocks only.
            .flat_map(|sid| self.hdfs.positions(sid).iter().take(k))
            .filter_map(|p| match *p {
                Position::Real(block) => {
                    Some((TaskKind::Map { block }, self.hdfs.block(block).location))
                }
                Position::Virtual => None,
            })
            .collect();
        assert!(!specs.is_empty(), "wordcount job over an empty file");
        self.submit_job(JobKind::Workload, specs);
    }
}
