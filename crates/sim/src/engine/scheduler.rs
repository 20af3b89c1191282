//! The fair scheduler: jobs, their queues, and map-slot accounting.
//!
//! Hadoop-FairScheduler-style allocation: the job with the fewest
//! running tasks gets the next free slot; map tasks prefer a slot on
//! the node hosting their input.

use std::collections::{BTreeSet, VecDeque};

use super::{Fleet, TaskId, TaskKind, TaskState, TaskTable};
use crate::hdfs::NodeId;
use crate::time::SimTime;

/// Identifies a job.
pub type JobId = usize;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum JobKind {
    Repair,
    Workload,
}

#[derive(Debug)]
struct Job {
    kind: JobKind,
    queued: VecDeque<TaskId>,
    running: usize,
    outstanding: usize,
    submitted: SimTime,
}

pub(super) struct Scheduler {
    jobs: Vec<Job>,
    /// Jobs whose queues are non-empty (fair-scheduler candidates).
    jobs_with_work: BTreeSet<JobId>,
    free_slots: Vec<usize>,
    total_free_slots: usize,
    /// Nodes bucketed by free-slot count (`free_slot_index[c]` holds the
    /// nodes with exactly `c` free slots) — O(log n) slot accounting,
    /// O(buckets) most-free-node lookup. Dead nodes sit in bucket 0.
    free_slot_index: Vec<BTreeSet<NodeId>>,
    /// Running repair/relocation tasks, for the concurrency throttle
    /// (`SimConfig::max_concurrent_repairs`).
    repairs_running: usize,
    /// Whether an assignment loop is already running (re-entrant calls
    /// no-op; the active loop re-examines conditions each iteration).
    pub(super) scheduling: bool,
}

impl Scheduler {
    pub(super) fn new(nodes: usize, slots: usize) -> Self {
        let mut free_slot_index = vec![BTreeSet::new(); slots + 1];
        free_slot_index[slots].extend(0..nodes);
        Self {
            jobs: Vec::new(),
            jobs_with_work: BTreeSet::new(),
            free_slots: vec![slots; nodes],
            total_free_slots: slots * nodes,
            free_slot_index,
            repairs_running: 0,
            scheduling: false,
        }
    }

    /// Sets a node's free-slot count (0 when it dies, its full
    /// complement when it rejoins), keeping the total and the bucket
    /// index consistent.
    pub(super) fn set_free_slots(&mut self, node: NodeId, count: usize) {
        let old = self.free_slots[node];
        if old == count {
            return;
        }
        self.free_slot_index[old].remove(&node);
        self.free_slot_index[count].insert(node);
        self.free_slots[node] = count;
        self.total_free_slots = self.total_free_slots + count - old;
    }

    /// The alive node with the most free slots (ties: highest id). Dead
    /// nodes always sit in bucket 0, so any node in a positive bucket
    /// is schedulable.
    fn most_free_node(&self) -> Option<NodeId> {
        self.free_slot_index
            .iter()
            .skip(1) // bucket 0: no free slots
            .rev()
            .find_map(|bucket| bucket.last().copied())
    }

    /// Opens a job of `kind` with one queued task per `(kind,
    /// preferred node)` spec, spawned into `tasks`.
    pub(super) fn submit(
        &mut self,
        tasks: &mut TaskTable,
        kind: JobKind,
        now: SimTime,
        specs: Vec<(TaskKind, Option<NodeId>)>,
    ) {
        let id = self.jobs.len();
        let queued: VecDeque<TaskId> = specs
            .into_iter()
            .map(|(task, preferred)| tasks.spawn(id, task, preferred))
            .collect();
        self.jobs.push(Job {
            kind,
            outstanding: queued.len(),
            queued,
            running: 0,
            submitted: now,
        });
        self.jobs_with_work.insert(id);
    }

    /// Puts a live task (back) at the tail of its job's queue.
    pub(super) fn enqueue(&mut self, job: JobId, tid: TaskId) {
        self.jobs[job].queued.push_back(tid);
        self.jobs_with_work.insert(job);
    }

    /// A task of `job` starts running on `node`.
    pub(super) fn claim(&mut self, node: NodeId, job: JobId) {
        self.set_free_slots(node, self.free_slots[node] - 1);
        self.jobs[job].running += 1;
        if self.jobs[job].kind == JobKind::Repair {
            self.repairs_running += 1;
        }
    }

    /// A running task of `job` stops (done or aborted). Its slot
    /// returns to the pool only if its node is still alive: a dead
    /// node's slots were zeroed at the kill and stay zeroed.
    pub(super) fn release(&mut self, fleet: &Fleet, job: JobId, node: Option<NodeId>) {
        if let Some(n) = node {
            if fleet.is_alive(n) {
                self.set_free_slots(n, self.free_slots[n] + 1);
            }
        }
        self.jobs[job].running -= 1;
        if self.jobs[job].kind == JobKind::Repair {
            self.repairs_running -= 1;
        }
    }

    /// One task of `job` has left the table. When it was the last, the
    /// job is history: returns its kind and submission time.
    pub(super) fn retire(&mut self, job: JobId) -> Option<(JobKind, SimTime)> {
        let j = &mut self.jobs[job];
        j.outstanding -= 1;
        if j.outstanding > 0 {
            return None;
        }
        // Release the queue's capacity: completed jobs are history.
        j.queued = VecDeque::new();
        let done = (j.kind, j.submitted);
        self.jobs_with_work.remove(&job);
        Some(done)
    }

    /// The fair-scheduler candidate: the job with the fewest running
    /// tasks among those with queued work (ties: lowest id). Jobs whose
    /// queues emptied are dropped from the index lazily here; repair
    /// jobs are skipped (left queued) while `repair_cap` (0 = none)
    /// running repairs are reached.
    fn pick_job(&mut self, repair_cap: usize) -> Option<JobId> {
        let throttled = repair_cap > 0 && self.repairs_running >= repair_cap;
        loop {
            let mut best: Option<(usize, JobId)> = None;
            let mut empty: Option<JobId> = None;
            for &j in &self.jobs_with_work {
                if self.jobs[j].queued.is_empty() {
                    empty = Some(j);
                    break; // drop it, then rescan
                }
                if throttled && self.jobs[j].kind == JobKind::Repair {
                    continue;
                }
                let key = (self.jobs[j].running, j);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            match empty {
                Some(j) => {
                    self.jobs_with_work.remove(&j);
                }
                None => return best.map(|(_, j)| j),
            }
        }
    }

    /// The next `(task, node)` to start, or `None` when no slot is free
    /// or no eligible job has queued work. Tasks aborted while queued
    /// are dropped lazily here.
    pub(super) fn next_assignment(
        &mut self,
        tasks: &TaskTable,
        fleet: &Fleet,
        repair_cap: usize,
    ) -> Option<(TaskId, NodeId)> {
        loop {
            if self.total_free_slots == 0 {
                return None;
            }
            let job = self.pick_job(repair_cap)?;
            let Some(tid) = self.jobs[job].queued.pop_front() else {
                debug_assert!(false, "picked jobs have queued tasks");
                continue;
            };
            let Some(task) = tasks.get(tid).filter(|t| t.state == TaskState::Queued) else {
                continue;
            };
            let node = match task.preferred_node {
                Some(n) if fleet.is_alive(n) && self.free_slots[n] > 0 => n,
                _ => match self.most_free_node() {
                    Some(n) => n,
                    None => {
                        // No slot anywhere: requeue and stop.
                        self.jobs[job].queued.push_front(tid);
                        self.jobs_with_work.insert(job);
                        return None;
                    }
                },
            };
            return Some((tid, node));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_slots(s: &Scheduler) {
        assert_eq!(s.total_free_slots, s.free_slots.iter().sum::<usize>());
        for (node, &free) in s.free_slots.iter().enumerate() {
            for (count, bucket) in s.free_slot_index.iter().enumerate() {
                assert_eq!(bucket.contains(&node), count == free, "node {node}");
            }
        }
    }

    fn relocations(n: usize) -> Vec<(TaskKind, Option<NodeId>)> {
        (0..n)
            .map(|block| {
                let kind = TaskKind::Relocate {
                    block,
                    via_repair: false,
                };
                (kind, None)
            })
            .collect()
    }

    #[test]
    fn claim_and_release_keep_the_slot_index_consistent_across_a_kill() {
        let mut fleet = Fleet::new(3, 1);
        let mut tasks = TaskTable::default();
        let mut s = Scheduler::new(3, 2);
        s.submit(&mut tasks, JobKind::Repair, SimTime::ZERO, relocations(3));
        check_slots(&s);
        s.claim(1, 0);
        s.claim(1, 0);
        s.claim(2, 0);
        check_slots(&s);
        assert_eq!((s.total_free_slots, s.repairs_running), (3, 3));
        assert_eq!(s.most_free_node(), Some(0));
        // Node 1 dies with two tasks on it: its slots are gone, and
        // releasing those tasks must not resurrect them.
        fleet.kill(1, vec![]);
        s.set_free_slots(1, 0);
        s.release(&fleet, 0, Some(1));
        s.release(&fleet, 0, Some(1));
        check_slots(&s);
        assert!(
            s.free_slot_index[0].contains(&1),
            "dead nodes sit in bucket 0"
        );
        assert_eq!(s.total_free_slots, 3);
        s.release(&fleet, 0, Some(2));
        check_slots(&s);
        assert_eq!((s.total_free_slots, s.repairs_running), (4, 0));
        assert_eq!(s.jobs[0].running, 0);
    }

    #[test]
    fn pick_job_skips_throttled_repairs_and_drops_emptied_jobs() {
        let mut tasks = TaskTable::default();
        let mut s = Scheduler::new(4, 2);
        s.submit(&mut tasks, JobKind::Repair, SimTime::ZERO, relocations(2));
        let map = vec![(TaskKind::Map { block: 9 }, None)];
        s.submit(&mut tasks, JobKind::Workload, SimTime::ZERO, map);
        assert_eq!(s.pick_job(1), Some(0), "fewest running, lowest id");
        s.claim(0, 0);
        assert_eq!(s.pick_job(0), Some(1), "the workload job now runs fewer");
        s.jobs[1].queued.clear();
        assert_eq!(s.pick_job(1), None, "one repair running: at the cap of 1");
        assert!(!s.jobs_with_work.contains(&1), "emptied jobs are dropped");
        assert!(s.jobs_with_work.contains(&0), "throttled jobs stay queued");
        assert_eq!(s.pick_job(2), Some(0));
        assert_eq!(s.pick_job(0), Some(0), "cap 0 means unthrottled");
    }
}
