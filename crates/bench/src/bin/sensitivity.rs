//! Sensitivity analysis (§7.5): how much slower could CODOMs hardware be
//! before dIPC's OLTP benefit vanishes, and the worst-case cost of
//! capability loads.

use oltp::{dipc_stack, linux_stack, OltpParams, StorageKind};

fn main() {
    bench::banner("Sensitivity - §7.5 hardware-overhead headroom");
    let conc = 16;
    let p = OltpParams::with(conc, StorageKind::InMemory);
    let rl = linux_stack::build(&p).run(30, 200, conc);
    let mut stack = dipc_stack::build(&p);
    let rd = stack.run(30, 200, conc);
    let speedup = rd.ops_per_min / rl.ops_per_min;
    // Calls per operation, measured from the hardware's domain-crossing
    // counter over the whole run (§7.5 counts "the average number of
    // cross-domain calls per operation"; each call is several crossings:
    // caller->proxy->callee and back).
    let crossings: u64 = stack.sys.k.cpus.iter().map(|c| c.cpu.domain_crossings).sum();
    let measured_ops = rd.ops.max(1);
    println!(
        "measured domain crossings/op: {} (4 per proxy call round trip)",
        crossings / measured_ops
    );
    let calls_per_op = 1 + p.queries_per_op;
    let call_ns = baselines::dipcbench::bench_dipc(1_000, dipc::IsoProps::LOW, true, 1).per_op_ns;
    let op_ns = 60.0 / rd.ops_per_min * 1e9;
    let call_share = calls_per_op as f64 * call_ns / op_ns;
    // How much can the per-call cost inflate before dIPC == Linux?
    let slack_ns = op_ns * (speedup - 1.0) / speedup;
    let tolerable = (slack_ns / (calls_per_op as f64 * call_ns)).max(0.0) + 1.0;
    println!("dIPC speedup over Linux:      {speedup:.2}x");
    println!("cross-domain calls per op:    {calls_per_op}   (paper: 211)");
    println!("measured call round trip:     {call_ns:.0} ns");
    println!("call share of operation time: {:.2}%", call_share * 100.0);
    println!("calls could be ~{tolerable:.0}x slower before voiding the benefit (paper: 14x)");

    // Capability-load worst case: assume ~2% of memory accesses are
    // cross-domain and each pays one extra capability load from memory
    // (§7.5's worst-case model).
    let accesses_per_op = op_ns * 3.1 * 0.3; // ~30% of cycles are accesses
    let cap_extra_cycles = accesses_per_op * 0.02 * 2.0; // 2 cycles per reload
    let overhead = cap_extra_cycles / (op_ns * 3.1);
    let retained = speedup * (1.0 - overhead);
    println!(
        "\ncapability-load worst case: +{:.1}% per-op time, retaining {retained:.2}x",
        overhead * 100.0
    );
    println!("over Linux (paper: 12% overhead, retaining 1.59x)");
    bench::finish();
}
