//! Property-based tests for kernel data structures.

use proptest::prelude::*;
use simkernel::event::{Event, EventQueue};
use simkernel::object::Pipe;
use simkernel::{TimeBreakdown, TimeCat};

proptest! {
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
