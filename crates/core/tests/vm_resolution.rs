//! The Figure 3 A–B flow executed entirely inside the VM: the server
//! registers its entry point and passes the handle over a named socket
//! (SCM_RIGHTS-style); the client requests proxies via the dIPC syscalls
//! and calls through the returned address. No host-side resolution at all.

use cdvm::isa::reg::*;
use cdvm::{Asm, Instr};
use dipc::{dsys, Signature, System};
use simkernel::{sysno, KernelConfig, ThreadState};
use simmem::PageFlags;

#[test]
fn entry_resolution_over_named_sockets() {
    let mut s = System::new(KernelConfig { cpus: 1, ..KernelConfig::default() });
    let srv = s.k.create_process("srv", true);
    let cli = s.k.create_process("cli", true);

    // --- Server program ---
    // 1. dom_default -> own domain fd.
    // 2. Build an entry descriptor for `double` in memory.
    // 3. entry_register -> entry fd.
    // 4. listen("res"), accept, send_fd(entry fd).
    let mut a = Asm::new();
    a.label("main");
    a.syscall(dsys::DOM_DEFAULT);
    a.push(Instr::Add { rd: S0, rs1: A0, rs2: ZERO }); // dom fd
                                                       // Descriptor: [address, signature, policy, 0].
    a.li_sym(T0, "$desc");
    a.li_sym(T1, "double");
    a.push(Instr::St { rs1: T0, rs2: T1, imm: 0 });
    a.li(T1, Signature::regs(1, 1).pack());
    a.push(Instr::St { rs1: T0, rs2: T1, imm: 8 });
    a.push(Instr::St { rs1: T0, rs2: ZERO, imm: 16 });
    a.push(Instr::Add { rd: A0, rs1: S0, rs2: ZERO });
    a.li(A1, 1); // count
    a.li_sym(A2, "$desc");
    a.syscall(dsys::ENTRY_REGISTER);
    a.push(Instr::Add { rd: S1, rs1: A0, rs2: ZERO }); // entry fd
                                                       // Named socket handshake.
    a.li_sym(A0, "$name");
    a.li(A1, 3);
    a.syscall(sysno::SOCK_LISTEN);
    a.push(Instr::Add { rd: A0, rs1: A0, rs2: ZERO });
    a.syscall(sysno::SOCK_ACCEPT);
    a.push(Instr::Add { rd: S2, rs1: A0, rs2: ZERO });
    a.push(Instr::Add { rd: A0, rs1: S2, rs2: ZERO });
    a.push(Instr::Add { rd: A1, rs1: S1, rs2: ZERO });
    a.syscall(sysno::SEND_FD);
    a.push(Instr::Halt);
    // The exported function (64-byte aligned like any entry point).
    a.align(64);
    a.label("double");
    a.push(Instr::Add { rd: A0, rs1: A0, rs2: A0 });
    a.ret();
    let srv_prog = a.finish();

    // --- Client program ---
    // 1. connect("res"), recv_fd -> entry fd.
    // 2. entry_request with a matching descriptor -> proxy dom fd; the
    //    proxy address is written back into the descriptor.
    // 3. grant_create(own default, proxy dom).
    // 4. Call the proxy; halt with the result.
    let mut a = Asm::new();
    a.label("main");
    a.li_sym(A0, "$name");
    a.li(A1, 3);
    a.syscall(sysno::SOCK_CONNECT);
    a.push(Instr::Add { rd: S2, rs1: A0, rs2: ZERO });
    a.push(Instr::Add { rd: A0, rs1: S2, rs2: ZERO });
    a.syscall(sysno::RECV_FD);
    a.push(Instr::Add { rd: S1, rs1: A0, rs2: ZERO }); // entry fd
                                                       // Request descriptor (signature must match - P4).
    a.li_sym(T0, "$desc");
    a.push(Instr::St { rs1: T0, rs2: ZERO, imm: 0 });
    a.li(T1, Signature::regs(1, 1).pack());
    a.push(Instr::St { rs1: T0, rs2: T1, imm: 8 });
    a.push(Instr::St { rs1: T0, rs2: ZERO, imm: 16 });
    a.push(Instr::Add { rd: A0, rs1: S1, rs2: ZERO });
    a.li(A1, 1);
    a.li_sym(A2, "$desc");
    a.syscall(dsys::ENTRY_REQUEST);
    a.push(Instr::Add { rd: S3, rs1: A0, rs2: ZERO }); // proxy dom fd
                                                       // Grant ourselves Call permission on the proxy domain.
    a.syscall(dsys::DOM_DEFAULT);
    a.push(Instr::Add { rd: T2, rs1: A0, rs2: ZERO });
    a.push(Instr::Add { rd: A0, rs1: T2, rs2: ZERO });
    a.push(Instr::Add { rd: A1, rs1: S3, rs2: ZERO });
    a.syscall(dsys::GRANT_CREATE);
    // Load the patched proxy address and call it.
    a.li_sym(T0, "$desc");
    a.push(Instr::Ld { rd: T6, rs1: T0, imm: 0 });
    a.li(A0, 21);
    a.push(Instr::Jalr { rd: RA, rs1: T6, imm: 0 });
    a.push(Instr::Halt);
    let cli_prog = a.finish();

    // Load both programs with their data.
    let mut tids = Vec::new();
    for (pid, prog) in [(srv, &srv_prog), (cli, &cli_prog)] {
        let data = s.k.alloc_mem(pid, 4096, PageFlags::RW);
        let pt = s.k.procs[&pid].pt;
        s.k.mem.kwrite(pt, data, b"res").unwrap();
        let mut ex = std::collections::HashMap::new();
        ex.insert("$name".to_string(), data);
        ex.insert("$desc".to_string(), data + 64);
        let img = s.k.load_program(pid, prog, &ex);
        tids.push(s.k.spawn_thread(pid, img.addr("main"), &[]));
    }

    s.run_to_completion();
    assert!(matches!(s.k.threads[&tids[0]].state, ThreadState::Dead));
    assert_eq!(s.k.threads[&tids[1]].exit_code, 42, "double(21) via VM-resolved proxy");
    assert_eq!(s.cold_resolves, 1);
}

/// Grant revocation must take effect even while the grant is hot in a CPU's
/// APL cache.
#[test]
fn grant_revocation_reaches_warm_apl_caches() {
    let mut s = System::new(KernelConfig { cpus: 1, ..KernelConfig::default() });
    let a_pid = s.k.create_process("a", true);

    // Victim domain with a word of data.
    let dom = s.dom_create(a_pid);
    let addr = s.dom_mmap(a_pid, dom, 4096, PageFlags::RW).unwrap();
    s.k.mem.kwrite_u64(simmem::Memory::GLOBAL_PT, addr, 5).unwrap();
    let own = s.dom_default(a_pid);
    let read_h = s.dom_copy(a_pid, dom, dipc::HandlePerm::Read).unwrap();
    let grant = s.grant_create(a_pid, own, read_h).unwrap();

    // Program: read the word, signal, spin until told, read again.
    let mut asm = Asm::new();
    asm.li(S0, addr);
    asm.push(Instr::Ld { rd: S1, rs1: S0, imm: 0 }); // warm read (fills APL cache)
    asm.li_sym(S2, "$flag");
    asm.li(T0, 1);
    asm.push(Instr::St { rs1: S2, rs2: T0, imm: 0 }); // signal "warm"
    asm.label("wait");
    asm.push(Instr::Ld { rd: T0, rs1: S2, imm: 0 });
    asm.li(T1, 2);
    asm.bne(T0, T1, "wait");
    asm.push(Instr::Ld { rd: A0, rs1: S0, imm: 0 }); // must now fault
    asm.push(Instr::Halt);
    let flag = s.k.alloc_mem(a_pid, 4096, PageFlags::RW);
    let mut ex = std::collections::HashMap::new();
    ex.insert("$flag".to_string(), flag);
    let img = s.k.load_program(a_pid, &asm.finish(), &ex);
    let tid = s.k.spawn_thread(a_pid, img.base, &[]);

    // Run until the first read happened (cache is warm).
    s.run_until(|s| s.k.mem.kread_u64(simmem::Memory::GLOBAL_PT, flag).unwrap() == 1);
    // Revoke and release the program.
    s.grant_revoke(a_pid, grant).unwrap();
    s.k.mem.kwrite_u64(simmem::Memory::GLOBAL_PT, flag, 2).unwrap();
    s.run_to_completion();
    // The second read faulted: the process was killed, not halted cleanly.
    assert!(matches!(s.k.threads[&tid].state, ThreadState::Dead));
    assert!(!s.k.procs[&a_pid].alive, "revocation must bite despite the warm cache");
}
