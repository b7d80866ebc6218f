//! Property-based tests for kernel data structures.

use std::cmp::Reverse;

use proptest::prelude::*;
use simkernel::event::{Event, EventQueue};
use simkernel::object::Pipe;
use simkernel::sched::{Pick, RunQueues, RunqEntry};
use simkernel::{Tid, TimeBreakdown, TimeCat};

/// The model [`RunQueues`] is held to: one flat list of `(cpu, entry)` in
/// push order, every query a linear scan, nothing cached.
struct OracleRunQueues {
    cpus: usize,
    entries: Vec<(usize, RunqEntry)>,
}

impl OracleRunQueues {
    fn queue(&self, cpu: usize) -> impl Iterator<Item = &RunqEntry> + '_ {
        self.entries.iter().filter(move |(c, _)| *c == cpu).map(|(_, e)| e)
    }

    fn remove(&mut self, tid: Tid) -> Option<(usize, RunqEntry)> {
        let pos = self.entries.iter().position(|(_, e)| e.tid == tid)?;
        Some(self.entries.remove(pos))
    }

    fn earliest(&self, cpu: usize) -> Option<u64> {
        self.queue(cpu).map(|e| e.ready_at).min()
    }

    /// Local ready-now first, then the first ready unpinned entry of the
    /// most-loaded sibling (lowest index on ties), then the first local
    /// entry with the earliest `ready_at`.
    fn pick(&mut self, cpu: usize, clock: u64, steal: bool) -> Option<Pick> {
        let stolen = || {
            (0..self.cpus)
                .filter(|&j| j != cpu)
                .filter_map(|j| {
                    let e = self.queue(j).find(|e| e.ready_at <= clock && !e.pinned)?;
                    Some((self.queue(j).count(), Reverse(j), e.tid))
                })
                .max()
                .map(|(_, _, tid)| tid)
        };
        let tid = match self.queue(cpu).find(|e| e.ready_at <= clock) {
            Some(e) => e.tid,
            None => match steal.then(stolen).flatten() {
                Some(tid) => tid,
                None => {
                    let earliest = self.earliest(cpu)?;
                    self.queue(cpu).find(|e| e.ready_at == earliest)?.tid
                }
            },
        };
        let (from, entry) = self.remove(tid)?;
        Some(Pick { entry, from })
    }
}

/// Runs `ops` on a [`RunQueues`] over `cpus` CPUs and on the oracle: every
/// pick (entry and victim CPU), every removal, and after every op each
/// queue's contents, earliest `ready_at` and ready-now answer must agree.
/// An op is `(kind, cpu, arg, pinned)`: kinds 0–5 push a fresh thread
/// whose `ready_at` lies within a few cycles of the clock, 6–7 remove a
/// thread (sometimes one that is not queued), 8–9 advance the clock, 10–12
/// pick with stealing off and 13 up with it on.
fn runqueues_agree_with_oracle(cpus: usize, ops: &[(u8, usize, u64, bool)]) {
    let mut rq = RunQueues::new(cpus);
    let mut oracle = OracleRunQueues { cpus, entries: Vec::new() };
    let (mut clock, mut next_tid) = (0u64, 1u64);
    for (i, &(kind, cpu, arg, pinned)) in ops.iter().enumerate() {
        let cpu = cpu % cpus;
        match kind {
            0..=5 => {
                let ready_at = (clock + arg % 32).saturating_sub(12);
                let e = RunqEntry { tid: Tid(next_tid), ready_at, pinned };
                next_tid += 1;
                rq.push(cpu, e);
                oracle.entries.push((cpu, e));
            }
            6 | 7 => {
                let tid = Tid(arg % (next_tid + 1));
                let got = rq.remove(tid);
                prop_assert_eq!(got, oracle.remove(tid).map(|(_, e)| e), "op {}: remove", i);
            }
            8 | 9 => clock += arg % 16,
            _ => {
                let steal = kind >= 13;
                let got = rq.pick(cpu, clock, steal);
                let want = oracle.pick(cpu, clock, steal);
                prop_assert_eq!(got, want, "op {}: pick on cpu {} at {}", i, cpu, clock);
            }
        }
        for c in 0..cpus {
            let entries: Vec<_> = rq.entries(c).copied().collect();
            let want: Vec<_> = oracle.queue(c).copied().collect();
            prop_assert_eq!(entries, want, "op {}: queue {}", i, c);
            prop_assert_eq!(rq.len(c), oracle.queue(c).count());
            prop_assert_eq!(rq.earliest(c), oracle.earliest(c), "op {}: earliest {}", i, c);
            let ready = oracle.earliest(c).is_some_and(|e| e <= clock);
            prop_assert_eq!(rq.has_ready(c, clock), ready, "op {}: ready {}", i, c);
        }
    }
}

proptest! {
    /// [`RunQueues`] against [`OracleRunQueues`] on 1–5 CPUs. Fails if a
    /// removal skips the earliest-`ready_at` rescan, or if a steal takes
    /// from the least-loaded sibling instead of the most-loaded one
    /// (checked by mutation).
    #[test]
    fn runqueues_match_flat_list_oracle(
        cpus in 1usize..=5,
        ops in prop::collection::vec((0u8..16, 0usize..5, 0u64..64, any::<bool>()), 1..300),
    ) {
        runqueues_agree_with_oracle(cpus, &ops);
    }

    #[test]
    fn event_queue_pops_in_time_order(times in prop::collection::vec(0u64..1000, 1..60)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(*t, Event::Ipi { cpu: i % 4 });
        }
        let mut last = 0;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last, "events out of order");
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    #[test]
    fn event_queue_is_fifo_within_a_tick(n in 1usize..30) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(7, Event::Wake { tid: simkernel::Tid(i as u64), value: 0 });
        }
        for i in 0..n {
            match q.pop().unwrap().1 {
                Event::Wake { tid, .. } => prop_assert_eq!(tid.0, i as u64),
                other => prop_assert!(false, "unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn breakdown_total_is_sum_of_categories(
        adds in prop::collection::vec((0usize..7, 0u64..1_000_000), 0..50),
    ) {
        let mut b = TimeBreakdown::new();
        let mut expect = 0u64;
        for (c, v) in adds {
            b.add(TimeCat::ALL[c], v);
            expect += v;
        }
        prop_assert_eq!(b.total(), expect);
        let (u, k, i) = b.coarse();
        prop_assert_eq!(u + k + i, expect);
        let frac_sum: f64 = TimeCat::ALL.iter().map(|c| b.fraction(*c)).sum();
        if expect > 0 {
            prop_assert!((frac_sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn breakdown_since_is_inverse_of_merge(
        base in prop::collection::vec((0usize..7, 0u64..1000), 0..20),
        delta in prop::collection::vec((0usize..7, 0u64..1000), 0..20),
    ) {
        let mut b0 = TimeBreakdown::new();
        for (c, v) in &base {
            b0.add(TimeCat::ALL[*c], *v);
        }
        let mut b1 = b0;
        let mut d = TimeBreakdown::new();
        for (c, v) in &delta {
            b1.add(TimeCat::ALL[*c], *v);
            d.add(TimeCat::ALL[*c], *v);
        }
        prop_assert_eq!(b1.since(&b0), d);
    }

    #[test]
    fn pipe_conserves_bytes(
        writes in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 1..30),
    ) {
        let mut p = Pipe::new();
        p.capacity = 257; // force wraparound and partial writes
        let mut sent: Vec<u8> = Vec::new();
        let mut received: Vec<u8> = Vec::new();
        let mut chunk = Vec::new();
        let mut read = |p: &mut Pipe, len| {
            p.read(len, &mut chunk);
            received.extend_from_slice(&chunk);
        };
        for w in &writes {
            let mut off = 0;
            while off < w.len() {
                let n = p.write(&w[off..]);
                sent.extend_from_slice(&w[off..off + n]);
                off += n;
                if n == 0 {
                    read(&mut p, 64);
                }
            }
            read(&mut p, 97);
        }
        read(&mut p, usize::MAX >> 1);
        prop_assert_eq!(received, sent, "bytes must arrive exactly once, in order");
    }
}
