//! The task table: the working set of live tasks and the indexes that
//! point into it.

use super::{JobId, Scheduler};
use crate::fasthash::{FastMap, FastSet};
use crate::hdfs::{BlockId, NodeId, StripeId};
use crate::network::FlowId;

/// Identifies a task.
pub type TaskId = u64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum TaskState {
    Queued,
    Waiting,
    Reading,
    Computing,
    Writing,
}

impl TaskState {
    /// Whether a task in this state occupies a map slot.
    pub(super) fn holds_slot(self) -> bool {
        matches!(self, Self::Reading | Self::Computing | Self::Writing)
    }
}

#[derive(Debug)]
pub(super) enum TaskKind {
    /// Reconstruct stripe positions and write them back.
    Repair {
        stripe: StripeId,
        targets: Vec<usize>,
        light: bool,
    },
    /// Read one block (degraded if necessary) and run map compute.
    Map { block: BlockId },
    /// Move a block off a draining node: either stream it out directly
    /// (`via_repair = false`) or re-create it from its peers like a
    /// scheduled repair (§1.1's decommissioning use case).
    Relocate { block: BlockId, via_repair: bool },
}

#[derive(Debug)]
pub(super) struct Task {
    pub(super) job: JobId,
    pub(super) kind: TaskKind,
    pub(super) state: TaskState,
    pub(super) node: Option<NodeId>,
    pub(super) preferred_node: Option<NodeId>,
    pub(super) pending_reads: Vec<FlowId>,
    /// Lost blocks this task is parked on (mirror of the table's
    /// `waiting_on_block`).
    waits: Vec<BlockId>,
    /// Blocks to restore on completion (stripe position, block).
    pub(super) restores: Vec<(usize, BlockId)>,
    /// In-flight write-back flows: (flow, block, destination node).
    /// The task is done writing when the list drains.
    pub(super) write_queue: Vec<(FlowId, BlockId, NodeId)>,
    pub(super) compute_secs: f64,
    /// How many times the task has entered its compute phase.
    pub(super) run: u32,
}

impl Task {
    fn new(job: JobId, kind: TaskKind, preferred_node: Option<NodeId>) -> Self {
        Self {
            job,
            kind,
            state: TaskState::Queued,
            node: None,
            preferred_node,
            pending_reads: Vec::new(),
            waits: Vec::new(),
            restores: Vec::new(),
            write_queue: Vec::new(),
            compute_secs: 0.0,
            run: 0,
        }
    }
}

#[derive(Default)]
pub(super) struct TaskTable {
    /// Live tasks only: finished tasks are retired immediately, so the
    /// table is the working set, not history.
    tasks: FastMap<TaskId, Task>,
    next_task: TaskId,
    waiting_on_block: FastMap<BlockId, Vec<TaskId>>,
    /// Stripe positions with an in-flight repair task.
    pub(super) repair_in_flight: FastSet<(StripeId, usize)>,
}

impl TaskTable {
    /// Creates a queued task of `job` and returns its id.
    pub(super) fn spawn(
        &mut self,
        job: JobId,
        kind: TaskKind,
        preferred_node: Option<NodeId>,
    ) -> TaskId {
        let id = self.next_task;
        self.next_task += 1;
        self.tasks.insert(id, Task::new(job, kind, preferred_node));
        id
    }

    pub(super) fn get(&self, tid: TaskId) -> Option<&Task> {
        self.tasks.get(&tid)
    }

    pub(super) fn get_mut(&mut self, tid: TaskId) -> Option<&mut Task> {
        self.tasks.get_mut(&tid)
    }

    pub(super) fn remove(&mut self, tid: TaskId) -> Option<Task> {
        self.tasks.remove(&tid)
    }

    /// Tasks holding a slot on `node`.
    pub(super) fn running_on(&self, node: NodeId) -> impl Iterator<Item = TaskId> + '_ {
        self.tasks
            .iter()
            .filter(move |(_, t)| t.node == Some(node))
            .map(|(&id, _)| id)
    }

    /// Tasks parked on `block`.
    pub(super) fn waiters(&self, block: BlockId) -> &[TaskId] {
        self.waiting_on_block.get(&block).map_or(&[], Vec::as_slice)
    }

    /// Parks a task until any of `blocks` (lost inputs) is restored.
    pub(super) fn park(&mut self, tid: TaskId, blocks: Vec<BlockId>) {
        let Some(task) = self.tasks.get_mut(&tid) else {
            debug_assert!(false, "parked task is live");
            return;
        };
        task.state = TaskState::Waiting;
        for &b in &blocks {
            self.waiting_on_block.entry(b).or_default().push(tid);
        }
        task.waits = blocks;
    }

    /// Requeues everything parked on a freshly-available block,
    /// unparking each task from every other block it was waiting on.
    pub(super) fn wake(&mut self, block: BlockId, scheduler: &mut Scheduler) {
        for tid in self.waiting_on_block.remove(&block).unwrap_or_default() {
            let Some(task) = self.tasks.get_mut(&tid) else {
                continue;
            };
            if task.state != TaskState::Waiting {
                continue;
            }
            task.state = TaskState::Queued;
            scheduler.enqueue(task.job, tid);
            Self::unpark(&mut self.waiting_on_block, tid, task);
        }
    }

    /// Drops every index entry that points at `tid`: the repair targets
    /// it owns and the blocks it is parked on. Run when a task stops
    /// (aborted or complete), before it is requeued or retired.
    pub(super) fn unindex(&mut self, tid: TaskId) {
        let Some(task) = self.tasks.get_mut(&tid) else {
            return;
        };
        if let TaskKind::Repair {
            stripe,
            ref targets,
            ..
        } = task.kind
        {
            for &p in targets {
                self.repair_in_flight.remove(&(stripe, p));
            }
        }
        Self::unpark(&mut self.waiting_on_block, tid, task);
    }

    /// Takes `task` off the waiter list of every block it is parked on.
    fn unpark(waiting: &mut FastMap<BlockId, Vec<TaskId>>, tid: TaskId, task: &mut Task) {
        for b in task.waits.drain(..) {
            if let Some(waiters) = waiting.get_mut(&b) {
                waiters.retain(|&w| w != tid);
            }
        }
    }
}
