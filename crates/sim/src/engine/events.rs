//! Control events and the queue that orders them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::TaskId;
use crate::hdfs::{BlockId, FileId, NodeId};
use crate::time::SimTime;

/// Control events (network-flow completions are derived, not queued).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) enum ControlEvent {
    KillNode(NodeId),
    /// A replacement machine takes the dead node's place, disk empty.
    ReviveNode(NodeId),
    /// A transiently-failed node rejoins *with its disk intact* (a
    /// reboot or network partition healing, not a replacement).
    RestoreNode(NodeId),
    DropBlocks(Vec<BlockId>),
    FixerScan,
    SubmitWordcount(FileId),
    /// A task's compute phase ends; the tag names the run that
    /// scheduled it, so the event of an aborted run matches nothing.
    ComputeDone(TaskId, u32),
    /// The next client-read arrival of the serving-plane workload.
    ClientRead,
    Decommission {
        node: NodeId,
        via_repair: bool,
    },
}

/// A slab-indexed event queue: the heap orders `(time, seq)` keys while
/// payloads live in recycled slots, so scheduling an event is two pushes
/// and popping one is O(log n) with no hashing or per-event allocation
/// (enum payloads are stored inline).
#[derive(Debug, Default)]
pub(super) struct EventQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    slots: Vec<Option<ControlEvent>>,
    free: Vec<u32>,
    seq: u64,
}

impl EventQueue {
    pub(super) fn push(&mut self, t: SimTime, ev: ControlEvent) {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(ev);
                s
            }
            None => {
                self.slots.push(Some(ev));
                (self.slots.len() - 1) as u32
            }
        };
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((t, seq, slot)));
    }

    pub(super) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    pub(super) fn pop(&mut self) -> Option<(SimTime, ControlEvent)> {
        let Reverse((t, _, slot)) = self.heap.pop()?;
        let ev = self.slots[slot as usize].take();
        self.free.push(slot);
        debug_assert!(ev.is_some(), "heap keys always have a payload slot");
        ev.map(|ev| (t, ev))
    }
}
