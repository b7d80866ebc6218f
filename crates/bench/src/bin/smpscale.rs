//! SMP scaling: simulated OLTP throughput versus core count.
//!
//! The Figure 8 stacks (Linux / dIPC / Ideal) built with `cores` = 1, 2,
//! 4, 8, showing how each configuration scales its service threads across
//! simulated cores on the kernel's per-core run queues (with work
//! stealing on).
//!
//! Emits `results/BENCH_smpscale.json`.

use oltp::{dipc_stack, ideal_stack, linux_stack, OltpParams, StorageKind};

fn main() {
    bench::banner("smpscale - OLTP core scaling");
    let scale = bench::scale();
    let cores = [1usize, 2, 4, 8];
    println!("--- OLTP ops/min vs simulated cores (in-memory DB, work stealing on) ---");
    println!("{:>5} {:>10} {:>10} {:>10}", "cores", "Linux", "dIPC", "Ideal");
    let conc = 16;
    let mut oltp_rows = Vec::new();
    for &n in &cores {
        let p =
            OltpParams { cores: n, steal: true, ..OltpParams::with(conc, StorageKind::InMemory) };
        let (warm, meas) = (100 + 2 * conc, 300 + 8 * conc);
        let rl = linux_stack::build(&p).run(warm, meas, conc);
        let rd = dipc_stack::build(&p).run(warm, meas, conc);
        let ri = ideal_stack::build(&p).run(warm, meas, conc);
        println!(
            "{n:>5} {:>10.0} {:>10.0} {:>10.0}",
            rl.ops_per_min, rd.ops_per_min, ri.ops_per_min
        );
        oltp_rows.push((n, rl.ops_per_min, rd.ops_per_min, ri.ops_per_min));
    }

    let oltp_json: Vec<String> = oltp_rows
        .iter()
        .map(|(n, l, d, i)| {
            format!(
                "    {{\"cores\": {n}, \"linux_ops_min\": {l:.1}, \
                 \"dipc_ops_min\": {d:.1}, \"ideal_ops_min\": {i:.1}}}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"smpscale\",\n  \"scale\": {scale},\n  \
         \"oltp_scaling\": [\n{}\n  ]\n}}\n",
        oltp_json.join(",\n")
    );
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_smpscale.json", &json)
        .expect("write results/BENCH_smpscale.json");
    println!("\nwrote results/BENCH_smpscale.json");
    bench::finish();
}
