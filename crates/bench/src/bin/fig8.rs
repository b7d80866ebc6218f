//! Figure 8: OLTP throughput, Linux vs dIPC vs Ideal, on-disk and
//! in-memory, across server concurrency.

use oltp::{dipc_stack, ideal_stack, linux_stack, OltpParams, StorageKind};

fn main() {
    bench::banner("Figure 8 - OLTP throughput by configuration and concurrency");
    println!("paper: dIPC up to 3.18x (on-disk) / 5.12x (in-memory) over Linux,");
    println!("       always >94% of Ideal.\n");
    for (name, storage) in
        [("on-disk DB", StorageKind::Disk), ("in-memory DB", StorageKind::InMemory)]
    {
        println!("--- {name} --- (ops/min)");
        println!(
            "{:>7} {:>10} {:>10} {:>10} {:>9} {:>9}",
            "threads", "Linux", "dIPC", "Ideal", "speedup", "efficiency"
        );
        for conc in [4, 16, 64, 256, 512] {
            let p = OltpParams::with(conc, storage);
            // Operation latency grows with concurrency (closed loop, 1 ms
            // quanta), so both the warm-up and the measurement window must
            // scale with the thread count to observe steady state.
            let warm = 100 + 2 * conc;
            let measure = 300 + 8 * conc;
            let rl = linux_stack::build(&p).run(warm, measure, conc);
            let rd = dipc_stack::build(&p).run(warm, measure, conc);
            let ri = ideal_stack::build(&p).run(warm, measure, conc);
            println!(
                "{conc:>7} {:>10.0} {:>10.0} {:>10.0} {:>8.2}x {:>8.1}%",
                rl.ops_per_min,
                rd.ops_per_min,
                ri.ops_per_min,
                rd.ops_per_min / rl.ops_per_min.max(1.0),
                100.0 * rd.ops_per_min / ri.ops_per_min.max(1.0)
            );
        }
        println!();
    }
    bench::finish();
}
