//! The per-CPU run queues and the scheduler's pick.
//!
//! [`RunQueues`] holds one FIFO queue of [`RunqEntry`] per CPU and caches
//! each queue's earliest `ready_at`, which the kernel reads on every
//! simulation step (a CPU's next action time) and every slice (the
//! preemption deadline). The fields are private: every edit goes through
//! [`RunQueues::push`], [`RunQueues::remove`] or [`RunQueues::pick`], which
//! keep the cache exact. `tests/props.rs` holds the type to a naive
//! oracle that scans a flat list.

use std::collections::VecDeque;

use crate::process::Tid;

/// A queued thread with the two facts about it the scheduler scans for, so
/// picking, stealing and the earliest-entry rescan read the queue alone.
/// The kernel queues a thread with its current `ready_at` and affinity and
/// changes neither while it is queued (debug builds check the copies
/// against the thread table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunqEntry {
    /// The queued thread.
    pub tid: Tid,
    /// Its `Thread::ready_at`.
    pub ready_at: u64,
    /// Its `Thread::affinity.is_some()`: pinned threads are not stolen.
    pub pinned: bool,
}

/// What [`RunQueues::pick`] took off a queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pick {
    /// The entry, now off its queue.
    pub entry: RunqEntry,
    /// The CPU whose queue held it. Another CPU than the picking one means
    /// the entry was stolen.
    pub from: usize,
}

/// One CPU's queue and its cached earliest `ready_at`.
#[derive(Clone, Debug)]
struct Queue {
    entries: VecDeque<RunqEntry>,
    /// Earliest `ready_at` among `entries` (`u64::MAX` when empty).
    earliest: u64,
}

impl Queue {
    /// The definition `earliest` caches.
    fn scan_earliest(&self) -> u64 {
        self.entries.iter().map(|e| e.ready_at).min().unwrap_or(u64::MAX)
    }

    /// True if an entry is ready by `clock`.
    fn has_ready(&self, clock: u64) -> bool {
        !self.entries.is_empty() && self.earliest <= clock
    }
}

/// The per-CPU FIFO run queues.
#[derive(Clone, Debug)]
pub struct RunQueues {
    queues: Vec<Queue>,
}

impl RunQueues {
    /// Empty queues for `cpus` CPUs.
    pub fn new(cpus: usize) -> RunQueues {
        RunQueues { queues: vec![Queue { entries: VecDeque::new(), earliest: u64::MAX }; cpus] }
    }

    /// Appends `e` to CPU `cpu`'s queue.
    pub fn push(&mut self, cpu: usize, e: RunqEntry) {
        let q = &mut self.queues[cpu];
        q.entries.push_back(e);
        q.earliest = q.earliest.min(e.ready_at);
    }

    /// Removes `tid` from whichever queue holds it.
    pub fn remove(&mut self, tid: Tid) -> Option<RunqEntry> {
        let (cpu, pos) = self.queues.iter().enumerate().find_map(|(cpu, q)| {
            q.entries.iter().position(|e| e.tid == tid).map(|pos| (cpu, pos))
        })?;
        Some(self.remove_at(cpu, pos))
    }

    /// Removes and returns the entry at `pos` of CPU `cpu`'s queue.
    fn remove_at(&mut self, cpu: usize, pos: usize) -> RunqEntry {
        let q = &mut self.queues[cpu];
        let e = q.entries.remove(pos).expect("index valid");
        // Only the removal of an earliest entry can move the minimum.
        if e.ready_at <= q.earliest {
            q.earliest = q.scan_earliest();
        }
        e
    }

    /// Number of threads queued on CPU `cpu`.
    pub fn len(&self, cpu: usize) -> usize {
        self.queues[cpu].entries.len()
    }

    /// Earliest `ready_at` on CPU `cpu`'s queue, `None` when it is empty.
    pub fn earliest(&self, cpu: usize) -> Option<u64> {
        let q = &self.queues[cpu];
        (!q.entries.is_empty()).then_some(q.earliest)
    }

    /// True if CPU `cpu`'s queue holds a thread ready by `clock`.
    pub fn has_ready(&self, cpu: usize, clock: u64) -> bool {
        self.queues[cpu].has_ready(clock)
    }

    /// CPU `cpu`'s queue, front first.
    pub fn entries(&self, cpu: usize) -> impl Iterator<Item = &RunqEntry> {
        self.queues[cpu].entries.iter()
    }

    /// Takes the thread CPU `cpu` runs next at local time `clock`:
    /// 1. the first local entry ready by `clock`;
    /// 2. else, with `steal`, the first ready unpinned entry of the
    ///    most-loaded sibling queue that has one (lowest CPU index breaks
    ///    load ties);
    /// 3. else the first local entry with the earliest `ready_at` (the CPU
    ///    idles until then).
    ///
    /// `None` when nothing qualifies. A pure function of the queues, so the
    /// choice is deterministic.
    pub fn pick(&mut self, cpu: usize, clock: u64, steal: bool) -> Option<Pick> {
        let q = &self.queues[cpu];
        let local = if q.has_ready(clock) {
            q.entries.iter().position(|e| e.ready_at <= clock)
        } else {
            None
        };
        let (from, pos) = if let Some(pos) = local {
            (cpu, pos)
        } else if let Some(victim) = steal.then(|| self.steal_victim(cpu, clock)).flatten() {
            victim
        } else {
            (cpu, q.entries.iter().position(|e| e.ready_at == q.earliest)?)
        };
        Some(Pick { entry: self.remove_at(from, pos), from })
    }

    /// The `(victim cpu, position)` step 2 of [`RunQueues::pick`] takes.
    fn steal_victim(&self, cpu: usize, clock: u64) -> Option<(usize, usize)> {
        let mut best: Option<(usize, usize, usize)> = None; // (load, cpu, pos)
        for (j, q) in self.queues.iter().enumerate() {
            if j == cpu || !q.has_ready(clock) {
                continue;
            }
            if let Some(pos) = q.entries.iter().position(|e| e.ready_at <= clock && !e.pinned) {
                let load = q.entries.len();
                if best.is_none_or(|(l, _, _)| load > l) {
                    best = Some((load, j, pos));
                }
            }
        }
        best.map(|(_, j, pos)| (j, pos))
    }
}
