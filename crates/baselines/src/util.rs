//! Shared measurement plumbing for the micro-benchmarks.

use dipc::System;
use simkernel::{Pid, TimeBreakdown};
use simmem::{PageFlags, PageTableId};

/// Thread placement for the two sides of a ping-pong (§2.2 compares =CPU
/// and ≠CPU variants).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    /// Both threads pinned to CPU 0.
    SameCpu,
    /// Client on CPU 0, server on CPU 1.
    CrossCpu,
}

impl Placement {
    /// CPU indices (client, server).
    pub fn cpus(&self) -> (usize, usize) {
        match self {
            Placement::SameCpu => (0, 0),
            Placement::CrossCpu => (0, 1),
        }
    }

    /// Display suffix matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Placement::SameCpu => "(=CPU)",
            Placement::CrossCpu => "(!=CPU)",
        }
    }
}

/// Result of one micro-benchmark run.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Mean latency per operation (round trip), nanoseconds.
    pub per_op_ns: f64,
    /// Figure 2 time-breakdown delta over the measured window (all CPUs).
    pub breakdown: TimeBreakdown,
    /// Measured iterations.
    pub iters: u64,
}

/// Runs `sys` until the u64 at `(pt, counter)` reaches `warmup`, snapshots,
/// then until it reaches `warmup + iters`, and reports the delta.
pub fn run_marked(
    sys: &mut System,
    pt: PageTableId,
    counter: u64,
    warmup: u64,
    iters: u64,
) -> BenchResult {
    let read = |s: &System| s.k.mem.kread_u64(pt, counter).unwrap_or(u64::MAX);
    sys.run_until(|s| read(s) >= warmup);
    let n0 = read(sys);
    assert!(n0 >= warmup, "workload finished before warm-up completed");
    // A single CPU slice can retire many iterations, so the counter may
    // overshoot any fixed mark; normalize by the *observed* iteration
    // delta instead of the requested one.
    let c0 = sys.k.now_max();
    let b0 = sys.k.breakdown();
    // Request-lifecycle tracing: watch the iteration counter from inside
    // the run predicate (a passive read, zero simulated cost) and turn
    // each observed batch of completed operations into a span on the
    // request track plus latency-histogram samples.
    let traced = simtrace::enabled();
    let mut last = n0;
    let mut last_ts = c0;
    sys.run_until(|s| {
        if traced {
            let v = read(s);
            if v != last && v != u64::MAX {
                let now = s.k.now_max();
                let done = v - last;
                let per = (now - last_ts) / done.max(1);
                for _ in 0..done {
                    simtrace::hist("request_latency_cycles", per);
                }
                simtrace::counter("bench_ops", done);
                simtrace::begin_span(
                    simtrace::Track::Request(0),
                    last_ts,
                    format!("op#{v}"),
                    "request",
                );
                simtrace::end_span(simtrace::Track::Request(0), now);
                last = v;
                last_ts = now;
            }
        }
        read(s) >= n0 + iters
    });
    let n1 = read(sys);
    assert!(n1 > n0, "workload finished before measurement completed");
    let c1 = sys.k.now_max();
    let b1 = sys.k.breakdown();
    BenchResult {
        per_op_ns: sys.k.cost.ns(c1 - c0) / (n1 - n0) as f64,
        breakdown: b1.since(&b0),
        iters: n1 - n0,
    }
}

/// Allocates a shared-memory region mapped into every given process at the
/// *same* address (setup convenience; the measured path never depends on
/// this being host-assisted).
pub fn map_shared(sys: &mut System, pids: &[Pid], pages: u64) -> u64 {
    let frames: Vec<simmem::FrameId> =
        (0..pages).map(|_| sys.k.mem.phys_mut().alloc_frame()).collect();
    // Pick an address free in *every* process's private layout and reserve
    // it everywhere (advance each heap cursor past the region), then alias
    // the same frames at that address in each table.
    let base = pids.iter().map(|p| sys.k.procs[p].heap_next).max().expect("at least one process");
    for pid in pids {
        let (pt, tag) = {
            let p = sys.k.procs.get_mut(pid).expect("process exists");
            p.heap_next = p.heap_next.max(base + pages * simmem::PAGE_SIZE);
            (p.pt, p.default_domain)
        };
        for (i, f) in frames.iter().enumerate() {
            let addr = base + i as u64 * simmem::PAGE_SIZE;
            sys.k.mem.map_shared(pt, addr, *f, PageFlags::RW, tag);
        }
    }
    base
}

/// Creates a connected pipe pair between two processes:
/// returns `(client_write_fd, client_read_fd, server_read_fd,
/// server_write_fd)` — pipe1 carries client→server, pipe2 the reverse.
pub fn make_pipe_pair(sys: &mut System, client: Pid, server: Pid) -> (u32, u32, u32, u32) {
    use simkernel::object::{KObject, Pipe};
    sys.k.pipes.push(Pipe::new());
    let p1 = sys.k.pipes.len() - 1;
    sys.k.pipes.push(Pipe::new());
    let p2 = sys.k.pipes.len() - 1;
    let c = sys.k.procs.get_mut(&client).expect("client exists");
    let cw = c.add_fd(KObject::PipeWrite(p1)).0;
    let cr = c.add_fd(KObject::PipeRead(p2)).0;
    let s = sys.k.procs.get_mut(&server).expect("server exists");
    let sr = s.add_fd(KObject::PipeRead(p1)).0;
    let sw = s.add_fd(KObject::PipeWrite(p2)).0;
    (cw, cr, sr, sw)
}

/// Creates a connected stream-socket pair between two processes:
/// returns `(client_fd, server_fd)`.
pub fn make_sock_pair(sys: &mut System, client: Pid, server: Pid) -> (u32, u32) {
    use simkernel::object::{KObject, Sock};
    sys.k.socks.push(Sock::new());
    sys.k.socks.push(Sock::new());
    let a = sys.k.socks.len() - 2;
    let b = sys.k.socks.len() - 1;
    sys.k.socks[a].peer = b;
    sys.k.socks[b].peer = a;
    let cfd = sys.k.procs.get_mut(&client).expect("exists").add_fd(KObject::Sock(a)).0;
    let sfd = sys.k.procs.get_mut(&server).expect("exists").add_fd(KObject::Sock(b)).0;
    (cfd, sfd)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_cpus() {
        assert_eq!(Placement::SameCpu.cpus(), (0, 0));
        assert_eq!(Placement::CrossCpu.cpus(), (0, 1));
    }

    #[test]
    fn shared_region_aliases_across_processes() {
        let mut sys = System::new(simkernel::KernelConfig::default());
        let a = sys.k.create_process("a", false);
        let b = sys.k.create_process("b", false);
        let base = map_shared(&mut sys, &[a, b], 1);
        let (pta, ptb) = (sys.k.procs[&a].pt, sys.k.procs[&b].pt);
        sys.k.mem.kwrite_u64(pta, base + 8, 777).unwrap();
        assert_eq!(sys.k.mem.kread_u64(ptb, base + 8).unwrap(), 777);
    }
}
