//! The global discrete-event queue.
//!
//! All cross-CPU and asynchronous effects (IPIs, timer expiry, storage and
//! NIC completions) flow through this queue, keyed by global time in cycles.
//! Ties break by insertion order, which keeps the simulation deterministic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::process::Tid;

/// An asynchronous kernel event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// Inter-processor interrupt arriving at a CPU (reschedule request).
    Ipi {
        /// Target CPU index.
        cpu: usize,
    },
    /// A sleeping or IO-blocked thread becomes runnable.
    Wake {
        /// Thread to wake.
        tid: Tid,
        /// Value placed in the thread's wake slot (syscall result plumbing).
        value: u64,
    },
}

#[derive(PartialEq, Eq)]
struct Entry {
    time: u64,
    seq: u64,
    event: Event,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap of events by time.
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Schedules `event` at absolute `time` (cycles).
    pub fn push(&mut self, time: u64, event: Event) {
        self.seq += 1;
        self.heap.push(Reverse(Entry { time, seq: self.seq, event }));
    }

    /// Time of the earliest event.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(u64, Event)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.push(20, Event::Ipi { cpu: 1 });
        q.push(10, Event::Wake { tid: Tid(1), value: 0 });
        q.push(10, Event::Wake { tid: Tid(2), value: 0 });
        assert_eq!(q.peek_time(), Some(10));
        assert_eq!(q.pop().unwrap().1, Event::Wake { tid: Tid(1), value: 0 });
        assert_eq!(q.pop().unwrap().1, Event::Wake { tid: Tid(2), value: 0 });
        assert_eq!(q.pop().unwrap().1, Event::Ipi { cpu: 1 });
        assert!(q.is_empty());
    }
}
