//! The Linux baseline: three isolated processes (private page tables)
//! connected by UNIX sockets, each tier with its own service-thread pool
//! (§7.4: Apache mpm-worker ↔ FastCGI PHP ↔ threaded MariaDB).

use std::collections::HashMap;

use baselines::asmlib::{read_exact, write_all};
use baselines::util::make_sock_pair;
use cdvm::isa::reg::*;
use cdvm::{Asm, Instr};
use dipc::System;
use simkernel::KernelConfig;
use simmem::PageFlags;

use crate::params::OltpParams;
use crate::tiers::{self, TABLE_ROWS};
use crate::Stack;

/// Builds the three-process socket stack: `concurrency` web threads, PHP
/// workers and DB workers, paired 1:1 by persistent connections.
pub fn build(p: &OltpParams) -> Stack {
    let mut sys = System::new(KernelConfig {
        cpus: p.cores,
        steal: p.steal,
        wake: simkernel::kernel::WakePolicy::Spread,
        ..KernelConfig::default()
    });
    let web = sys.k.create_process("apache", false);
    let php = sys.k.create_process("php-fpm", false);
    let db = sys.k.create_process("mariadb", false);

    tiers::install_db_file(&mut sys.k, db, "dvdstore.db", p);

    let n = p.concurrency;
    let marshal = (p.marshal_ns as f64 * 3.1) as i32;

    // --- Data regions ---
    let mut web_ex = HashMap::new();
    web_ex.insert("$data_counters".to_string(), sys.k.alloc_mem(web, n * 8, PageFlags::RW));
    web_ex.insert("$msgs".to_string(), sys.k.alloc_mem(web, n * 8192, PageFlags::RW));
    let mut php_ex = HashMap::new();
    php_ex.insert("$msgs".to_string(), sys.k.alloc_mem(php, n * 8192, PageFlags::RW));
    let mut db_ex = HashMap::new();
    db_ex.insert("$msgs".to_string(), sys.k.alloc_mem(db, n * 8192, PageFlags::RW));
    db_ex.insert(
        "$data_db_table".to_string(),
        sys.k.alloc_mem(db, TABLE_ROWS * p.row_bytes, PageFlags::RW),
    );
    db_ex.insert("$data_db_qcount".to_string(), sys.k.alloc_mem(db, 64, PageFlags::RW));
    db_ex.insert(
        "$data_db_iobuf".to_string(),
        sys.k.alloc_mem(db, p.row_bytes.max(64), PageFlags::RW),
    );

    // --- Web program ---
    let mut a = Asm::new();
    // a0 = thread index, a1 = socket fd to the PHP worker.
    a.label("web_main");
    a.push(Instr::Add { rd: S0, rs1: A1, rs2: ZERO });
    a.push(Instr::Slli { rd: T0, rs1: A0, imm: 3 });
    a.li_sym(S1, "$data_counters");
    a.push(Instr::Add { rd: S1, rs1: S1, rs2: T0 });
    a.push(Instr::Addi { rd: S2, rs1: A0, imm: 17 });
    a.li(T1, 8192);
    a.push(Instr::Mul { rd: T1, rs1: A0, rs2: T1 });
    a.li_sym(S3, "$msgs");
    a.push(Instr::Add { rd: S3, rs1: S3, rs2: T1 });
    a.label("web_loop");
    a.push(Instr::Work { rs1: 0, imm: (p.web_work_ns as f64 * 3.1) as i32 });
    tiers::emit_lcg(&mut a, S2, T5);
    a.push(Instr::St { rs1: S3, rs2: T5, imm: 0 });
    // Transaction mix: draw the per-op query count (0 = fixed default).
    if let Some(mix) = p.mix {
        a.push(Instr::Srli { rd: T3, rs1: S2, imm: 24 });
        a.push(Instr::Andi { rd: T3, rs1: T3, imm: 15 });
        a.li(T6, mix.browse_q);
        a.li(T4, 10);
        a.bltu(T3, T4, "web_mix_done");
        a.li(T6, mix.login_q);
        a.li(T4, 14);
        a.bltu(T3, T4, "web_mix_done");
        a.li(T6, mix.purchase_q);
        a.label("web_mix_done");
    } else {
        a.li(T6, 0);
    }
    a.push(Instr::St { rs1: S3, rs2: T6, imm: 8 }); // query count over the wire
    a.push(Instr::Work { rs1: 0, imm: marshal });
    a.li(S4, p.req_bytes);
    write_all(&mut a, S0, S3, S4, "wreq");
    a.li(S4, p.page_bytes);
    read_exact(&mut a, S0, S3, S4, "wpage");
    a.push(Instr::Work { rs1: 0, imm: marshal });
    a.push(Instr::Work { rs1: 0, imm: (p.web_respond_ns as f64 * 3.1) as i32 });
    a.push(Instr::Ld { rd: T0, rs1: S1, imm: 0 });
    a.push(Instr::Addi { rd: T0, rs1: T0, imm: 1 });
    a.push(Instr::St { rs1: S1, rs2: T0, imm: 0 });
    a.j("web_loop");
    let web_prog = a.finish();

    // --- PHP worker program ---
    let mut a = Asm::new();
    // a0 = worker index, a1 = socket to web, a2 = socket to db.
    a.label("php_main");
    a.push(Instr::Add { rd: S8, rs1: A1, rs2: ZERO });
    a.push(Instr::Add { rd: S9, rs1: A2, rs2: ZERO });
    a.li(T1, 8192);
    a.push(Instr::Mul { rd: T1, rs1: A0, rs2: T1 });
    a.li_sym(S10, "$msgs");
    a.push(Instr::Add { rd: S10, rs1: S10, rs2: T1 });
    a.label("php_serve");
    a.li(S4, p.req_bytes);
    read_exact(&mut a, S8, S10, S4, "preq");
    a.push(Instr::Work { rs1: 0, imm: marshal });
    a.push(Instr::Ld { rd: A0, rs1: S10, imm: 0 });
    a.push(Instr::Ld { rd: A1, rs1: S10, imm: 8 }); // query count (mix)
    a.jal(RA, "php_render");
    a.push(Instr::St { rs1: S10, rs2: A0, imm: 0 });
    a.push(Instr::Work { rs1: 0, imm: marshal });
    a.li(S4, p.page_bytes);
    write_all(&mut a, S8, S10, S4, "ppage");
    a.j("php_serve");
    // The render body queries the DB over the socket (MySQL-wire-style
    // request/response with marshalling on both ends).
    let (qb, rb) = (p.query_bytes, p.row_bytes);
    tiers::emit_php_render(&mut a, p, &move |a| {
        a.push(Instr::St { rs1: S10, rs2: A0, imm: 64 });
        a.push(Instr::Work { rs1: 0, imm: marshal });
        a.push(Instr::Addi { rd: T4, rs1: S10, imm: 64 });
        a.li(T3, qb);
        write_all(a, S9, T4, T3, "pq");
        a.push(Instr::Addi { rd: T4, rs1: S10, imm: 64 });
        a.li(T3, rb);
        read_exact(a, S9, T4, T3, "pr");
        a.push(Instr::Work { rs1: 0, imm: marshal });
        a.push(Instr::Ld { rd: A0, rs1: S10, imm: 64 });
    });
    let php_prog = a.finish();

    // --- DB worker program ---
    let mut a = Asm::new();
    // a0 = worker index, a1 = socket to php.
    a.label("db_main");
    a.push(Instr::Add { rd: S8, rs1: A1, rs2: ZERO });
    a.li(T1, 8192);
    a.push(Instr::Mul { rd: T1, rs1: A0, rs2: T1 });
    a.li_sym(S10, "$msgs");
    a.push(Instr::Add { rd: S10, rs1: S10, rs2: T1 });
    a.label("db_serve");
    a.li(S4, p.query_bytes);
    read_exact(&mut a, S8, S10, S4, "dq");
    a.push(Instr::Work { rs1: 0, imm: marshal });
    a.push(Instr::Ld { rd: A0, rs1: S10, imm: 0 });
    a.jal(RA, "db_query_frame");
    a.push(Instr::St { rs1: S10, rs2: A0, imm: 0 });
    a.push(Instr::Work { rs1: 0, imm: marshal });
    a.li(S4, p.row_bytes);
    write_all(&mut a, S8, S10, S4, "dr");
    a.j("db_serve");
    a.label("db_query_frame");
    a.push(Instr::Addi { rd: SP, rs1: SP, imm: -8 });
    a.push(Instr::St { rs1: SP, rs2: RA, imm: 0 });
    a.jal(RA, "db_query");
    a.push(Instr::Ld { rd: RA, rs1: SP, imm: 0 });
    a.push(Instr::Addi { rd: SP, rs1: SP, imm: 8 });
    a.push(Instr::Jalr { rd: ZERO, rs1: RA, imm: 0 });
    tiers::emit_db_query(&mut a, p);
    let db_prog = a.finish();

    // --- Load + wire + spawn ---
    let web_img = sys.k.load_program(web, &web_prog, &web_ex);
    let php_img = sys.k.load_program(php, &php_prog, &php_ex);
    let db_img = sys.k.load_program(db, &db_prog, &db_ex);

    for i in 0..n {
        let (wfd, pfd_web) = make_sock_pair(&mut sys, web, php);
        let (pfd_db, dfd) = make_sock_pair(&mut sys, php, db);
        sys.k.spawn_thread(web, web_img.addr("web_main"), &[i, wfd as u64]);
        sys.k.spawn_thread(php, php_img.addr("php_main"), &[i, pfd_web as u64, pfd_db as u64]);
        sys.k.spawn_thread(db, db_img.addr("db_main"), &[i, dfd as u64]);
    }

    let pt = sys.k.procs[&web].pt;
    Stack { sys, counters: (pt, web_ex["$data_counters"]), slots: n, sheds: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::StorageKind;

    #[test]
    fn linux_stack_completes_operations() {
        let p = OltpParams::with(4, StorageKind::InMemory);
        let mut s = build(&p);
        let r = s.run(20, 100, p.concurrency);
        assert!(r.ops > 5, "stack must make progress: {} ops", r.ops);
        assert!(r.kernel_frac > 0.03, "IPC must show kernel time: {}", r.kernel_frac);
    }

    #[test]
    fn linux_is_slower_than_ideal_with_idle_and_kernel_time() {
        // The Figure 1 story: Linux pays kernel + idle for isolation.
        let p = OltpParams::with(16, StorageKind::InMemory);
        let mut li = build(&p);
        let rl = li.run(20, 120, p.concurrency);
        let mut id = crate::ideal_stack::build(&p);
        let ri = id.run(20, 120, p.concurrency);
        assert!(
            ri.ops_per_min > rl.ops_per_min * 1.3,
            "ideal {} vs linux {}",
            ri.ops_per_min,
            rl.ops_per_min
        );
        assert!(rl.kernel_frac > ri.kernel_frac);
    }
}
