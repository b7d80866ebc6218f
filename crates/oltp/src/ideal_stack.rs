//! The "Ideal (unsafe)" configuration: all three tiers in one process,
//! plain function calls, no isolation (§7.4).

use std::collections::HashMap;

use cdvm::isa::reg::RA;
use cdvm::Asm;
use dipc::System;
use simkernel::KernelConfig;
use simmem::PageFlags;

use crate::params::OltpParams;
use crate::tiers::{self, TABLE_ROWS};
use crate::Stack;

/// Builds the single-process stack.
pub fn build(p: &OltpParams) -> Stack {
    let mut sys =
        System::new(KernelConfig { cpus: p.cores, steal: p.steal, ..KernelConfig::default() });
    let pid = sys.k.create_process("ideal-stack", true);

    tiers::install_db_file(&mut sys.k, pid, "dvdstore.db", p);

    // Data regions.
    let mut externs = HashMap::new();
    for (name, size) in [
        ("$data_db_table", TABLE_ROWS * p.row_bytes),
        ("$data_db_qcount", 64),
        ("$data_db_iobuf", p.row_bytes.max(64)),
        ("$data_counters", p.concurrency * 8),
    ] {
        let base = sys.k.alloc_mem(pid, size, PageFlags::RW);
        externs.insert(name.to_string(), base);
    }

    // Code: web → php → db as direct calls.
    let mut a = Asm::new();
    tiers::emit_web_main(&mut a, p, &|a| {
        a.jal(RA, "php_render");
    });
    tiers::emit_php_render(&mut a, p, &|a| {
        a.jal(RA, "db_query");
    });
    tiers::emit_db_query(&mut a, p);
    let img = sys.k.load_program(pid, &a.finish(), &externs);

    for i in 0..p.concurrency {
        sys.k.spawn_thread(pid, img.addr("web_main"), &[i]);
    }
    let pt = sys.k.procs[&pid].pt;
    Stack { sys, counters: (pt, externs["$data_counters"]), slots: p.concurrency, sheds: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::StorageKind;

    #[test]
    fn ideal_in_memory_reaches_cpu_bound_throughput() {
        let p = OltpParams::with(16, StorageKind::InMemory);
        let mut s = build(&p);
        let r = s.run(20, 120, p.concurrency);
        // 4 CPUs / 3.13 ms per op ≈ 76 k ops/min upper bound; expect ≥ 70 %
        // of it and almost no idle.
        let bound = 4.0 / (p.app_work_per_op_ns() as f64 / 1e9) * 60.0;
        assert!(r.ops_per_min > bound * 0.7, "ideal {} ops/min vs bound {bound}", r.ops_per_min);
        assert!(r.idle_frac < 0.1, "idle {}", r.idle_frac);
        assert!(r.user_frac > 0.8, "Figure 1: Ideal is ~81% user time, got {}", r.user_frac);
    }

    #[test]
    fn ideal_on_disk_is_storage_bound() {
        let p = OltpParams::with(64, StorageKind::Disk);
        let mut s = build(&p);
        let r = s.run(20, 150, p.concurrency);
        // Serialized disk: ~1/(IOs_per_op × service) ops/s.
        let ios_per_op = p.queries_per_op as f64 / p.storage_every as f64;
        let cap = 60.0 / (ios_per_op * 300e-6);
        assert!(
            r.ops_per_min < cap * 1.15,
            "on-disk {} ops/min must respect the disk cap {cap}",
            r.ops_per_min
        );
        assert!(r.idle_frac > 0.05, "disk waits should show as idle");
    }
}
