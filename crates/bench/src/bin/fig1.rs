//! Figure 1: time breakdown of the OLTP web application stack, Linux vs
//! Ideal (unsafe).

use oltp::{ideal_stack, linux_stack, OltpParams, StorageKind};

fn main() {
    bench::banner("Figure 1 - OLTP stack time breakdown (Linux vs Ideal)");
    let conc = 16;
    let p = OltpParams::with(conc, StorageKind::InMemory);
    println!("in-memory DB, {conc} threads/tier, 4 CPUs\n");
    println!("paper (256 threads): Linux 51% user / 23% kernel / 24% idle, 1.73ms");
    println!("                     Ideal 81% user / 16% kernel /  1% idle, 0.90ms");
    println!("                     IPC overhead 1.92x\n");
    let rl = linux_stack::build(&p).run(30, 250, conc);
    let ri = ideal_stack::build(&p).run(30, 250, conc);
    for (name, r) in [("Linux", &rl), ("Ideal (unsafe)", &ri)] {
        println!(
            "{name:<16} latency {:>7.2} ms | user {:>4.0}% kernel {:>4.0}% idle {:>4.0}%",
            r.avg_latency_ms,
            r.user_frac * 100.0,
            r.kernel_frac * 100.0,
            r.idle_frac * 100.0
        );
    }
    println!(
        "\nIPC overhead (latency ratio Linux/Ideal): {:.2}x   (paper: 1.92x)",
        rl.avg_latency_ms / ri.avg_latency_ms
    );
    bench::finish();
}
