//! The netpipe (NPtcp) harness over the simulated NIC, per isolation
//! mechanism (Figure 7).

use std::collections::HashMap;

use baselines::asmlib::{read_exact, sem_post, sem_wait, write_all};
use cdvm::isa::reg::*;
use cdvm::{Asm, Instr};
use dipc::{AppSpec, IsoProps, Signature, System, World};
use simkernel::{sysno, KernelConfig};
use simmem::PageFlags;

use crate::nic::{emit_driver, WireModel};

/// How the user-level driver is isolated from the application.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DriverIso {
    /// Direct assignment: driver inlined in the app's domain.
    None,
    /// dIPC, driver in its own domain of the same process.
    Dipc,
    /// dIPC, driver in a separate process.
    DipcProc,
    /// Conventional kernel driver (syscall per operation).
    Kernel,
    /// Driver process reached by pipe IPC.
    Pipe,
    /// Driver process reached by semaphore IPC.
    Sem,
}

impl DriverIso {
    /// Figure 7 legend label.
    pub fn label(&self) -> &'static str {
        match self {
            DriverIso::None => "direct",
            DriverIso::Dipc => "dIPC",
            DriverIso::DipcProc => "dIPC +proc",
            DriverIso::Kernel => "Kernel",
            DriverIso::Pipe => "Pipe (= CPU)",
            DriverIso::Sem => "Semaphore (= CPU)",
        }
    }

    /// All variants in plot order.
    pub const ALL: [DriverIso; 6] = [
        DriverIso::None,
        DriverIso::Dipc,
        DriverIso::DipcProc,
        DriverIso::Kernel,
        DriverIso::Pipe,
        DriverIso::Sem,
    ];
}

/// One measurement point.
#[derive(Clone, Copy, Debug)]
pub struct NetResult {
    /// Message round-trip time (ns).
    pub rtt_ns: f64,
    /// Implied bandwidth (MB/s) for this message size.
    pub bandwidth_mbps: f64,
}

impl NetResult {
    /// Latency overhead (%) relative to a baseline measurement.
    pub fn latency_overhead_pct(&self, base: &NetResult) -> f64 {
        (self.rtt_ns - base.rtt_ns) / base.rtt_ns * 100.0
    }

    /// Bandwidth overhead (%) relative to a baseline measurement.
    pub fn bandwidth_overhead_pct(&self, base: &NetResult) -> f64 {
        (base.bandwidth_mbps - self.bandwidth_mbps) / base.bandwidth_mbps * 100.0
    }
}

fn sig() -> Signature {
    Signature::regs(2, 1)
}

/// Emits the measuring app loop: warm-up, `rdcycle`, `iters` messages,
/// `rdcycle`, halt with the delta. `call_send` / `call_recv` emit the
/// mechanism-specific driver invocation; arguments are prepared in
/// a0/a1 before each.
fn emit_app(
    a: &mut Asm,
    iters: u64,
    size: u64,
    wire_cycles: u64,
    call_send: &dyn Fn(&mut Asm),
    call_recv: &dyn Fn(&mut Asm),
) {
    a.label("main");
    a.li(S0, iters);
    // One warm-up message, then the timed loop; the message body is a
    // subroutine so its labels are emitted exactly once.
    a.jal(RA, "do_msg");
    a.push(Instr::Rdcycle { rd: S2 });
    a.label("msg");
    a.jal(RA, "do_msg");
    a.push(Instr::Addi { rd: S0, rs1: S0, imm: -1 });
    a.bne(S0, ZERO, "msg");
    a.push(Instr::Rdcycle { rd: A0 });
    a.push(Instr::Sub { rd: A0, rs1: A0, rs2: S2 });
    a.push(Instr::Halt);
    a.label("do_msg");
    a.push(Instr::Addi { rd: SP, rs1: SP, imm: -8 });
    a.push(Instr::St { rs1: SP, rs2: RA, imm: 0 });
    a.li_sym(A0, "$data_buf");
    a.li(A1, size.max(1));
    call_send(a);
    a.li(A0, size.max(1));
    a.li(A1, wire_cycles);
    call_recv(a);
    a.push(Instr::Ld { rd: RA, rs1: SP, imm: 0 });
    a.push(Instr::Addi { rd: SP, rs1: SP, imm: 8 });
    a.push(Instr::Jalr { rd: ZERO, rs1: RA, imm: 0 });
}

fn finish(sys: &mut System, tid: simkernel::Tid, iters: u64, size: u64, label: &str) -> NetResult {
    let t0 = sys.k.cpus[0].cpu.cycles;
    sys.run_to_completion();
    let cycles = sys.k.threads[&tid].exit_code;
    if simtrace::enabled() {
        let t1 = sys.k.cpus[0].cpu.cycles;
        simtrace::begin_span(
            simtrace::Track::Harness,
            t0,
            format!("netpipe {label} {size}B"),
            "net",
        );
        simtrace::end_span(simtrace::Track::Harness, t1);
        simtrace::counter("net_messages", iters);
        simtrace::hist("net_rtt_cycles", cycles / iters.max(1));
    }
    let rtt_ns = sys.k.cost.ns(cycles) / iters as f64;
    assert!(rtt_ns > 0.0, "netpipe produced no measurement");
    NetResult { rtt_ns, bandwidth_mbps: size.max(1) as f64 / rtt_ns * 1000.0 }
}

/// Measures the netpipe RTT for one isolation mechanism and message size.
pub fn netpipe_rtt(iso: DriverIso, size: u64, iters: u64) -> NetResult {
    let wire = WireModel::default();
    let wire_cycles = wire.rtt_cycles(size);
    match iso {
        DriverIso::None | DriverIso::Kernel => {
            // Single process; driver called directly (optionally through
            // the user/kernel boundary).
            let mut s = System::new(KernelConfig { cpus: 1, ..KernelConfig::default() });
            let pid = s.k.create_process("netpipe", true);
            let mut ex = HashMap::new();
            for name in ["$data_buf", "$data_nicq"] {
                ex.insert(
                    name.to_string(),
                    s.k.alloc_mem(pid, size.max(simmem::PAGE_SIZE), PageFlags::RW),
                );
            }
            let kernel_boundary = iso == DriverIso::Kernel;
            let mut a = Asm::new();
            let call = move |label: &'static str| {
                move |a: &mut Asm| {
                    if kernel_boundary {
                        // The driver lives in the kernel: pay the syscall
                        // entry/exit plus the kernel driver's argument
                        // validation / descriptor pinning work per op.
                        a.push(Instr::Add { rd: S6, rs1: A0, rs2: ZERO });
                        a.push(Instr::Add { rd: S7, rs1: A1, rs2: ZERO });
                        a.syscall(sysno::GETTID);
                        a.push(Instr::Work { rs1: 0, imm: 140 });
                        a.push(Instr::Add { rd: A0, rs1: S6, rs2: ZERO });
                        a.push(Instr::Add { rd: A1, rs1: S7, rs2: ZERO });
                    }
                    a.jal(RA, label);
                }
            };
            emit_app(&mut a, iters, size, wire_cycles, &call("drv_send"), &call("drv_recv"));
            emit_driver(&mut a);
            let img = s.k.load_program(pid, &a.finish(), &ex);
            let tid = s.k.spawn_thread(pid, img.addr("main"), &[]);
            finish(&mut s, tid, iters, size, iso.label())
        }
        DriverIso::Dipc | DriverIso::DipcProc => {
            let cross = iso == DriverIso::DipcProc;
            let mut w = World::new(KernelConfig { cpus: 1, ..KernelConfig::default() });
            let drv_name = if cross { "drv" } else { "app" };
            // Asymmetric policy (§7.3: "dIPC uses an asymmetric policy
            // between the application and the driver").
            let policy = IsoProps::LOW;
            if cross {
                let drv = AppSpec::new("drv", emit_driver)
                    .export("drv_send", sig(), policy)
                    .export("drv_recv", sig(), policy)
                    .data("nicq", simmem::PAGE_SIZE);
                w.build(drv);
                let app = AppSpec::new("app", move |a| {
                    emit_app(
                        a,
                        iters,
                        size,
                        wire_cycles,
                        &|a| {
                            a.jal(RA, "call_drv_drv_send");
                        },
                        &|a| {
                            a.jal(RA, "call_drv_drv_recv");
                        },
                    );
                })
                .import("drv", "drv_send", sig(), policy)
                .import("drv", "drv_recv", sig(), policy)
                .data("buf", size.max(simmem::PAGE_SIZE));
                w.build(app);
            } else {
                let app = AppSpec::new("app", move |a| {
                    emit_app(
                        a,
                        iters,
                        size,
                        wire_cycles,
                        &|a| {
                            a.jal(RA, "call_app_drv_send");
                        },
                        &|a| {
                            a.jal(RA, "call_app_drv_recv");
                        },
                    );
                    emit_driver(a);
                })
                .export("drv_send", sig(), policy)
                .export("drv_recv", sig(), policy)
                .import("app", "drv_send", sig(), policy)
                .import("app", "drv_recv", sig(), policy)
                .data("nicq", simmem::PAGE_SIZE)
                .data("buf", size.max(simmem::PAGE_SIZE));
                w.build(app);
            }
            w.link();
            let tid = w.spawn(if cross { "app" } else { drv_name }, "main", &[]);
            finish(&mut w.sys, tid, iters, size, iso.label())
        }
        DriverIso::Pipe => netpipe_ipc(size, iters, wire_cycles, false),
        DriverIso::Sem => netpipe_ipc(size, iters, wire_cycles, true),
    }
}

/// The driver in a separate process, reached per operation by pipe or
/// semaphore IPC. Request: `[op, arg0, arg1]` (24 B); reply: 8 B.
fn netpipe_ipc(size: u64, iters: u64, wire_cycles: u64, use_sem: bool) -> NetResult {
    let mut s = System::new(KernelConfig { cpus: 1, ..KernelConfig::default() });
    let app = s.k.create_process("netpipe-app", false);
    let drv = s.k.create_process("netpipe-drv", false);
    let shm = baselines::util::map_shared(&mut s, &[app, drv], 2);
    let (req_flag, done_flag, msg) = (shm, shm + 64, shm + 128);
    let (cw, cr, sr, sw) = baselines::util::make_pipe_pair(&mut s, app, drv);

    // App: per driver op, send a request and await the ack.
    let request = move |use_sem: bool| {
        move |a: &mut Asm, op: u64| {
            a.li(T4, msg);
            a.li(T5, op);
            a.push(Instr::St { rs1: T4, rs2: T5, imm: 0 });
            a.push(Instr::St { rs1: T4, rs2: A0, imm: 8 });
            a.push(Instr::St { rs1: T4, rs2: A1, imm: 16 });
            if use_sem {
                a.li(S8, req_flag);
                sem_post(a, S8);
                a.li(S9, done_flag);
                sem_wait(a, S9, &format!("ack{op}"));
            } else {
                a.li(S8, cw as u64);
                a.li(T4, msg);
                a.li(T5, 24);
                write_all(a, S8, T4, T5, &format!("rq{op}"));
                a.li(S8, cr as u64);
                a.li(T4, msg);
                a.li(T5, 8);
                read_exact(a, S8, T4, T5, &format!("rp{op}"));
            }
        }
    };
    let reqf = request(use_sem);
    let mut a = Asm::new();
    emit_app(&mut a, iters, size, wire_cycles, &|a| reqf(a, 1), &|a| reqf(a, 2));
    let app_prog = a.finish();

    // Driver process: serve requests forever.
    let mut a = Asm::new();
    a.label("serve");
    if use_sem {
        a.li(S8, req_flag);
        sem_wait(&mut a, S8, "dw");
    } else {
        a.li(S8, sr as u64);
        a.li(T4, msg);
        a.li(T5, 24);
        read_exact(&mut a, S8, T4, T5, "dr");
    }
    a.li(T4, msg);
    a.push(Instr::Ld { rd: T5, rs1: T4, imm: 0 }); // op
    a.push(Instr::Ld { rd: A0, rs1: T4, imm: 8 });
    a.push(Instr::Ld { rd: A1, rs1: T4, imm: 16 });
    a.li(T6, 1);
    a.beq(T5, T6, "do_send");
    a.jal(RA, "drv_recv");
    a.j("reply");
    a.label("do_send");
    a.jal(RA, "drv_send");
    a.label("reply");
    if use_sem {
        a.li(S9, done_flag);
        sem_post(&mut a, S9);
    } else {
        a.li(S8, sw as u64);
        a.li(T4, msg);
        a.li(T5, 8);
        write_all(&mut a, S8, T4, T5, "dw");
    }
    a.j("serve");
    emit_driver(&mut a);
    let drv_prog = a.finish();

    // Load both; the NIC queue lives in the driver process, the app buffer
    // in the app.
    let mut app_ex = HashMap::new();
    app_ex.insert(
        "$data_buf".to_string(),
        s.k.alloc_mem(app, size.max(simmem::PAGE_SIZE), PageFlags::RW),
    );
    let app_img = s.k.load_program(app, &app_prog, &app_ex);
    let mut drv_ex = HashMap::new();
    drv_ex.insert("$data_nicq".to_string(), s.k.alloc_mem(drv, simmem::PAGE_SIZE, PageFlags::RW));
    let drv_img = s.k.load_program(drv, &drv_prog, &drv_ex);
    let app_tid = s.k.spawn_thread(app, app_img.addr("main"), &[]);
    let drv_tid = s.k.spawn_thread(drv, drv_img.addr("serve"), &[]);
    s.k.pin_thread(app_tid, 0);
    s.k.pin_thread(drv_tid, 0);

    // Run until the app halts (the driver loops forever).
    let t0 = s.k.cpus[0].cpu.cycles;
    s.run_until(|s| matches!(s.k.threads[&app_tid].state, simkernel::ThreadState::Dead));
    let cycles = s.k.threads[&app_tid].exit_code;
    if simtrace::enabled() {
        let t1 = s.k.cpus[0].cpu.cycles;
        let label = if use_sem { "sem" } else { "pipe" };
        simtrace::begin_span(
            simtrace::Track::Harness,
            t0,
            format!("netpipe {label} {size}B"),
            "net",
        );
        simtrace::end_span(simtrace::Track::Harness, t1);
        simtrace::counter("net_messages", iters);
        simtrace::hist("net_rtt_cycles", cycles / iters.max(1));
    }
    let rtt_ns = s.k.cost.ns(cycles) / iters as f64;
    NetResult { rtt_ns, bandwidth_mbps: size.max(1) as f64 / rtt_ns * 1000.0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure7_latency_overhead_ordering() {
        let base = netpipe_rtt(DriverIso::None, 64, 40);
        let dipc = netpipe_rtt(DriverIso::Dipc, 64, 40);
        let kern = netpipe_rtt(DriverIso::Kernel, 64, 40);
        let pipe = netpipe_rtt(DriverIso::Pipe, 64, 40);
        let sem = netpipe_rtt(DriverIso::Sem, 64, 40);
        let d = dipc.latency_overhead_pct(&base);
        let k = kern.latency_overhead_pct(&base);
        let p = pipe.latency_overhead_pct(&base);
        let s = sem.latency_overhead_pct(&base);
        // §7.3: dIPC ~1%, kernel ~10%, IPC >100%.
        assert!(d < 8.0, "dIPC overhead {d:.1}% (paper ~1%)");
        assert!(d < k, "dIPC {d:.1}% must beat the kernel driver {k:.1}%");
        assert!((3.0..30.0).contains(&k), "kernel overhead {k:.1}% (paper ~10%)");
        assert!(p > 100.0, "pipe overhead {p:.1}% (paper >100%)");
        assert!(s > 100.0, "sem overhead {s:.1}% (paper >100%)");
    }

    #[test]
    fn overheads_shrink_with_message_size() {
        let small_base = netpipe_rtt(DriverIso::None, 4, 30);
        let small_pipe = netpipe_rtt(DriverIso::Pipe, 4, 30);
        let big_base = netpipe_rtt(DriverIso::None, 4096, 30);
        let big_pipe = netpipe_rtt(DriverIso::Pipe, 4096, 30);
        let small = small_pipe.latency_overhead_pct(&small_base);
        let big = big_pipe.latency_overhead_pct(&big_base);
        assert!(big < small, "overhead must decay with size: {small:.0}% -> {big:.0}%");
    }

    #[test]
    fn bandwidth_overhead_visible_for_ipc_at_4k() {
        // Figure 7 top: >60% bandwidth overhead for 4 KiB in IPC scenarios
        // (band relaxed for the simulator).
        let base = netpipe_rtt(DriverIso::None, 4096, 30);
        let sem = netpipe_rtt(DriverIso::Sem, 4096, 30);
        let bw = sem.bandwidth_overhead_pct(&base);
        assert!(bw > 15.0, "sem 4 KiB bandwidth overhead {bw:.1}%");
        let dipc = netpipe_rtt(DriverIso::Dipc, 4096, 30);
        assert!(dipc.bandwidth_overhead_pct(&base) < 5.0);
    }

    #[test]
    fn dipc_proc_between_dipc_and_ipc() {
        let base = netpipe_rtt(DriverIso::None, 64, 40);
        let dipc = netpipe_rtt(DriverIso::Dipc, 64, 40);
        let dproc = netpipe_rtt(DriverIso::DipcProc, 64, 40);
        let pipe = netpipe_rtt(DriverIso::Pipe, 64, 40);
        assert!(dipc.rtt_ns <= dproc.rtt_ns);
        assert!(dproc.latency_overhead_pct(&base) < pipe.latency_overhead_pct(&base) / 4.0);
    }
}
