//! The kernel proper: boot, processes/threads, scheduler, syscall dispatch,
//! and the discrete-event simulation loop.
//!
//! [`Kernel`] owns one [`cdvm::Cpu`] per simulated core plus the shared
//! [`simmem::Memory`], and advances the machine with a discrete-event loop:
//! each CPU runs its current thread until a quantum boundary, a fault, a
//! syscall, or a blocking operation, and cross-CPU interactions (wakeups,
//! IPIs, storage completions) are exchanged as timestamped events so the
//! interleaving is a pure function of the initial state — the determinism
//! rule every layer above relies on (see `ARCHITECTURE.md`).
//!
//! The scheduling model follows the paper's setup (modified Linux 3.9):
//! per-CPU run queues with round-robin time slices, futex-based blocking,
//! and IPI-driven remote wakeups whose costs come from [`cdvm::CostModel`].
//! Processes are conventional (private page table) or dIPC-enabled (mapped
//! into the shared global address space); the dIPC-specific machinery —
//! proxies, domain handles, KCS unwinding, reclamation of dead processes —
//! lives one layer up in the `dipc` crate, which wraps this kernel and
//! intercepts its faults and dIPC syscalls.
//!
//! Fault injection hooks (`simfault`): when a plan is armed, this module
//! perturbs IPI delivery (loss re-queues the wakeup as a delayed ready
//! transition, so forward progress is preserved), injects spurious
//! `-EINTR` futex returns, and exposes [`Kernel::kill_thread`] /
//! [`Kernel::kill_process`] for the kill triggers — all decisions drawn
//! from the deterministic plan PRNG at zero simulated cost.

use std::collections::{HashMap, VecDeque};

use cdvm::isa::reg;
use cdvm::{CostModel, Cpu, Fault, FaultKind, RunExit, StepEvent};
use codoms::apl::DomainTable;
use codoms::cap::RevocationTable;
use codoms::dcs::Dcs;
use simmem::{DomainTag, GlobalVas, IdMap, Memory, PageFlags, PageTableId, ProcLayout, PAGE_SIZE};

use crate::accounting::{TimeBreakdown, TimeCat};
use crate::costs::SysCosts;
use crate::event::{Event, EventQueue};
use crate::object::{drain_into, KObject, Listener, Pipe, Shm, Sock, Storage, VFile};
use crate::percpu;
use crate::process::{BlockReason, Pid, Process, Thread, ThreadCtx, ThreadState, Tid};
use crate::syscall::{err, errno, nr};

/// Base of the kernel-shared region in the global page table (per-CPU areas,
/// per-thread KCS and tracking caches, DCS pages).
pub const KSHARED_BASE: u64 = 0x0000_7000_0000_0000;

/// Where a woken thread is placed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WakePolicy {
    /// Wake on the thread's previous CPU (warm caches; the chain of a
    /// synchronous ping-pong collapses onto one CPU).
    Local,
    /// Wake on the least-loaded CPU (models Linux's wake balancing on
    /// unpinned server workloads: communicating threads spread out and
    /// handoffs routinely cross CPUs, paying IPI latency — the scheduler
    /// imbalance the paper blames for Linux's idle time in §7.4).
    Spread,
}

/// Kernel construction parameters.
#[derive(Clone, Debug)]
pub struct KernelConfig {
    /// Number of CPUs.
    pub cpus: usize,
    /// Hardware cost model.
    pub cost: CostModel,
    /// Kernel software-path costs.
    pub sys: SysCosts,
    /// Wake placement policy.
    pub wake: WakePolicy,
    /// Enable cross-CPU work stealing: an idle CPU with no ready-now
    /// thread pulls a ready, unpinned thread from the most-loaded sibling
    /// runqueue instead of idle-waiting. Deterministic (victim tie-break:
    /// lowest CPU index; FIFO pick within the victim). Off by default so
    /// existing single-runqueue schedules stay byte-identical.
    pub steal: bool,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            cpus: 4,
            cost: CostModel::default(),
            sys: SysCosts::default(),
            wake: WakePolicy::Local,
            steal: false,
        }
    }
}

/// A loaded program image.
#[derive(Clone, Debug)]
pub struct Loaded {
    /// Base load address.
    pub base: u64,
    /// Absolute address of every label.
    pub labels: HashMap<String, u64>,
}

impl Loaded {
    /// Absolute address of a label.
    pub fn addr(&self, label: &str) -> u64 {
        *self.labels.get(label).unwrap_or_else(|| panic!("unknown label {label}"))
    }
}

/// Per-CPU kernel state.
pub struct CpuSlot {
    /// The hardware thread.
    pub cpu: Cpu,
    /// Thread currently on the CPU.
    pub current: Option<Tid>,
    /// Local run queue. Private so that every edit goes through the
    /// kernel's enqueue/dequeue helpers, which keep `runq_earliest` and the
    /// entries' cached fields true.
    runq: VecDeque<RunqEntry>,
    /// Earliest `ready_at` among the queued threads (`u64::MAX` when the
    /// queue is empty): what the per-step CPU pick and every slice's
    /// deadline need, without walking the queue.
    runq_earliest: u64,
    /// Time attribution.
    pub breakdown: TimeBreakdown,
    /// Cycle at which the current thread started its quantum.
    pub quantum_start: u64,
    /// Virtual address of this CPU's per-CPU page.
    pub percpu_base: u64,
}

/// A queued thread with the two facts about it the scheduler scans for, so
/// picking, stealing and the earliest-entry rescan read the queue alone. A
/// queued thread's `ready_at` and affinity change only through
/// `enqueue`/`dequeue*`, which makes the copies exact (debug builds check
/// them against the thread table on every CPU pick and dequeue).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunqEntry {
    /// The queued thread.
    pub tid: Tid,
    /// Its `Thread::ready_at`.
    pub ready_at: u64,
    /// Its `Thread::affinity.is_some()`: pinned threads are not stolen.
    pub pinned: bool,
}

impl CpuSlot {
    /// The local run queue, front first.
    pub fn runq(&self) -> &VecDeque<RunqEntry> {
        &self.runq
    }

    /// The definition `runq_earliest` caches.
    fn scan_runq_earliest(&self) -> u64 {
        self.runq.iter().map(|e| e.ready_at).min().unwrap_or(u64::MAX)
    }
}

/// What [`Kernel::step_sim`] observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KStep {
    /// Simulation progressed.
    Progress,
    /// A syscall the kernel does not implement; the embedder must complete
    /// it (set the return value with [`Kernel::syscall_return`], or block
    /// the thread) before stepping again.
    UnknownSyscall {
        /// CPU it arrived on.
        cpu: usize,
        /// Calling thread.
        tid: Tid,
        /// Syscall number (a7).
        nr: u64,
        /// Arguments (a0–a5).
        args: [u64; 6],
    },
    /// An unhandled user fault; the embedder may recover (dIPC KCS
    /// unwinding) or call [`Kernel::default_fault_kill`].
    UserFault {
        /// CPU it occurred on.
        cpu: usize,
        /// Faulting thread.
        tid: Tid,
        /// Fault details.
        fault: Fault,
    },
    /// An embedder-owned event fired (NIC completions etc.).
    External {
        /// Embedder-defined class.
        class: u32,
        /// Payload.
        data: [u64; 2],
        /// Global time (cycles) at which it fired.
        time: u64,
    },
    /// Live threads exist but nothing can ever run again.
    Deadlock,
    /// No live threads remain.
    Finished,
}

enum SysResult {
    Ret(u64),
    Block(BlockReason),
    Yield,
    Exit(u64),
    ExitGroup(u64),
    /// The handler already descheduled the thread (L4 direct-switch paths).
    Descheduled,
    Unknown,
}

/// The simulated kernel.
///
/// ```
/// use cdvm::{Asm, Instr};
/// use simkernel::{Kernel, KernelConfig};
///
/// let mut k = Kernel::new(KernelConfig::default());
/// let pid = k.create_process("hello", false);
/// let mut a = Asm::new();
/// a.li(cdvm::isa::reg::A0, 7);
/// a.push(Instr::Halt);
/// let img = k.load_program(pid, &a.finish(), &Default::default());
/// let tid = k.spawn_thread(pid, img.base, &[]);
/// k.run_to_completion();
/// assert_eq!(k.threads[&tid].exit_code, 7);
/// ```
pub struct Kernel {
    /// Simulated memory (physical + all page tables).
    pub mem: Memory,
    /// Hardware cost model.
    pub cost: CostModel,
    /// Kernel software-path costs.
    pub sys: SysCosts,
    /// All CODOMs domains in the system.
    pub domains: DomainTable,
    /// Capability revocation epochs.
    pub rev: RevocationTable,
    /// Global virtual address space allocator.
    pub vas: GlobalVas,
    /// Per-CPU state.
    pub cpus: Vec<CpuSlot>,
    /// All processes.
    pub procs: IdMap<Pid, Process>,
    /// All threads.
    pub threads: IdMap<Tid, Thread>,
    /// Global event queue.
    pub events: EventQueue,
    /// Futex wait queues keyed by physical (frame, offset).
    pub futexes: IdMap<u64, Vec<Tid>>,
    /// All pipes.
    pub pipes: Vec<Pipe>,
    /// All socket endpoints.
    pub socks: Vec<Sock>,
    /// All listeners.
    pub listeners: Vec<Listener>,
    /// Named-socket registry (path → listener index).
    pub named: HashMap<String, usize>,
    /// Threads blocked connecting to a not-yet-bound name.
    pub pending_connects: HashMap<String, Vec<Tid>>,
    /// The trivial VFS.
    pub files: Vec<VFile>,
    /// Shared-memory segments.
    pub shms: Vec<Shm>,
    /// Wake placement policy.
    pub wake: WakePolicy,
    /// Cross-CPU work stealing enabled (see [`KernelConfig::steal`]).
    pub steal: bool,
    /// The kernel-shared CODOMs domain (per-CPU pages, KCS, tracking caches).
    pub kshared_dom: DomainTag,
    /// Cycle until which the (single, FIFO) disk device is busy — rotating
    /// storage serializes requests, which is what makes the paper's on-disk
    /// OLTP configuration storage-bound (Figure 8).
    pub disk_busy_until: u64,
    /// Live (non-dead) thread count.
    pub live_threads: usize,
    /// Per-process ambient-syscall restrictions (untrusted plugin
    /// domains; see [`crate::checker`]). A restricted process's denied
    /// syscalls bounce to the embedder as [`KStep::UnknownSyscall`].
    pub syscall_filters: crate::checker::SyscallFilters,
    /// Bounce buffer of the pipe and socket copy paths (the kernel-side
    /// staging of `copy_{to,from}_user`), kept for its capacity.
    bounce: Vec<u8>,
    next_pid: u64,
    next_tid: u64,
    kshared_next: u64,
}

impl Kernel {
    /// Boots a kernel: allocates per-CPU areas and the kernel-shared domain.
    pub fn new(cfg: KernelConfig) -> Kernel {
        // Each kernel restarts its CPU cycle counters at zero; rebase the
        // tracer's timeline so sequential systems in one process stay
        // monotonic per track.
        simtrace::new_epoch();
        let mut mem = Memory::new();
        let mut domains = DomainTable::new();
        let kshared_dom = domains.create();
        let mut kshared_next = KSHARED_BASE;
        let mut cpus = Vec::with_capacity(cfg.cpus);
        for i in 0..cfg.cpus {
            let base = kshared_next;
            kshared_next += PAGE_SIZE;
            mem.map_anon(Memory::GLOBAL_PT, base, 1, PageFlags::RW, kshared_dom);
            mem.kwrite_u64(Memory::GLOBAL_PT, base + percpu::CPU_INDEX, i as u64)
                .expect("percpu page just mapped");
            let mut cpu = Cpu::new(i);
            cpu.gs = base;
            cpus.push(CpuSlot {
                cpu,
                current: None,
                runq: VecDeque::new(),
                runq_earliest: u64::MAX,
                breakdown: TimeBreakdown::new(),
                quantum_start: 0,
                percpu_base: base,
            });
        }
        Kernel {
            mem,
            cost: cfg.cost,
            sys: cfg.sys,
            domains,
            rev: RevocationTable::new(),
            vas: GlobalVas::new(),
            cpus,
            procs: IdMap::default(),
            threads: IdMap::default(),
            events: EventQueue::new(),
            futexes: IdMap::default(),
            pipes: Vec::new(),
            socks: Vec::new(),
            listeners: Vec::new(),
            named: HashMap::new(),
            pending_connects: HashMap::new(),
            files: Vec::new(),
            shms: Vec::new(),
            wake: cfg.wake,
            steal: cfg.steal,
            kshared_dom,
            disk_busy_until: 0,
            live_threads: 0,
            syscall_filters: crate::checker::SyscallFilters::default(),
            bounce: Vec::new(),
            next_pid: 1,
            next_tid: 1,
            kshared_next,
        }
    }

    // ------------------------------------------------------------------
    // Host-facing setup API (what a harness uses to build a system).
    // ------------------------------------------------------------------

    /// Creates a process. dIPC-enabled processes share the global page table
    /// (§6.1.3); others get a private one.
    pub fn create_process(&mut self, name: &str, dipc_enabled: bool) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let default_domain = self.domains.create();
        let pt = if dipc_enabled { Memory::GLOBAL_PT } else { self.mem.new_page_table() };
        let mut blocks = Vec::new();
        if dipc_enabled {
            let b = self.vas.reserve_block(pid.0).expect("global VAS exhausted");
            blocks.push(b);
        }
        let layout = ProcLayout::default();
        let heap_next = layout.heap_base;
        self.procs.insert(
            pid,
            Process {
                pid,
                name: name.to_string(),
                pt,
                dipc_enabled,
                default_domain,
                layout,
                blocks,
                heap_next,
                fds: Vec::new(),
                threads: Vec::new(),
                stacks_alloc: 0,
                alive: true,
                cpu_time: 0,
            },
        );
        pid
    }

    /// Allocates `size` bytes of zeroed memory in `pid`'s address space,
    /// tagged with the process's default domain.
    pub fn alloc_mem(&mut self, pid: Pid, size: u64, flags: PageFlags) -> u64 {
        let tag = self.procs[&pid].default_domain;
        self.alloc_mem_tagged(pid, size, flags, tag)
    }

    /// Allocates memory with an explicit domain tag (dIPC `dom_mmap`).
    pub fn alloc_mem_tagged(
        &mut self,
        pid: Pid,
        size: u64,
        flags: PageFlags,
        tag: DomainTag,
    ) -> u64 {
        let pages = size.div_ceil(PAGE_SIZE);
        let proc = self.procs.get_mut(&pid).expect("no such process");
        let base = if proc.dipc_enabled {
            let block = *proc.blocks.last().expect("dIPC process has a block");
            match self.vas.suballoc(pid.0, block, pages * PAGE_SIZE) {
                Ok(a) => a,
                Err(_) => {
                    let nb = self.vas.reserve_block(pid.0).expect("global VAS exhausted");
                    self.procs.get_mut(&pid).expect("checked").blocks.push(nb);
                    self.vas
                        .suballoc(pid.0, nb, pages * PAGE_SIZE)
                        .expect("fresh 1 GiB block fits any sane allocation")
                }
            }
        } else {
            let a = proc.heap_next;
            proc.heap_next += pages * PAGE_SIZE;
            a
        };
        let pt = self.procs[&pid].pt;
        self.mem.map_anon(pt, base, pages, flags, tag);
        base
    }

    /// Loads a program image as read-execute pages and returns its base.
    pub fn load_code(&mut self, pid: Pid, bytes: &[u8]) -> u64 {
        let base = self.alloc_mem(pid, bytes.len() as u64, PageFlags::RX);
        let pt = self.procs[&pid].pt;
        self.mem.kwrite(pt, base, bytes).expect("just mapped");
        base
    }

    /// Loads an assembled [`cdvm::asm::Program`], resolving its relocations
    /// against its own labels first and `externs` second. Returns the load
    /// image with absolute label addresses.
    pub fn load_program(
        &mut self,
        pid: Pid,
        prog: &cdvm::asm::Program,
        externs: &HashMap<String, u64>,
    ) -> Loaded {
        let base = self.alloc_mem(pid, prog.bytes.len() as u64, PageFlags::RX);
        let mut bytes = prog.bytes.clone();
        for r in &prog.relocs {
            let value = match prog.labels.get(&r.symbol) {
                Some(off) => base + off,
                None => *externs
                    .get(&r.symbol)
                    .unwrap_or_else(|| panic!("unresolved symbol {}", r.symbol)),
            };
            cdvm::asm::patch_abs64(
                &mut bytes,
                r.offset as usize,
                value.wrapping_add(r.addend as u64),
            );
        }
        let pt = self.procs[&pid].pt;
        self.mem.kwrite(pt, base, &bytes).expect("just mapped");
        let labels =
            prog.labels.iter().map(|(k, v)| (k.clone(), base + v)).collect::<HashMap<_, _>>();
        Loaded { base, labels }
    }

    /// Allocates pages in the kernel-shared domain (global page table).
    pub fn kshared_alloc(&mut self, pages: u64, flags: PageFlags) -> u64 {
        let base = self.kshared_next;
        self.kshared_next += pages * PAGE_SIZE;
        self.mem.map_anon(Memory::GLOBAL_PT, base, pages, flags, self.kshared_dom);
        base
    }

    /// Spawns a thread in `pid` at `entry` with arguments in a0, a1, ….
    ///
    /// The kernel allocates a stack, a DCS page, and the thread's KCS +
    /// process-tracking cache in the kernel-shared domain.
    pub fn spawn_thread(&mut self, pid: Pid, entry: u64, args: &[u64]) -> Tid {
        assert!(args.len() <= 8, "at most 8 register arguments");
        let tid = Tid(self.next_tid);
        self.next_tid += 1;

        // Stack.
        let (sp, pt, dom) = {
            let proc = self.procs.get_mut(&pid).expect("no such process");
            // A halted process (every thread exited cleanly; pages and
            // entry points intact, like a shared library whose main
            // returned) comes back to life when a new thread enters it.
            // Without this, fault unwinds during the new thread's calls
            // would skip the process's own KCS frames as "dead".
            proc.alive = true;
            let idx = proc.stacks_alloc;
            proc.stacks_alloc += 1;
            if proc.dipc_enabled {
                let size = proc.layout.stack_size;
                let base = self.alloc_mem(pid, size, PageFlags::RW);
                let p = &self.procs[&pid];
                (base + size, p.pt, p.default_domain)
            } else {
                let top = proc.layout.stack_top_for_thread(idx);
                let size = proc.layout.stack_size;
                let pt = proc.pt;
                let dom = proc.default_domain;
                let base = top - size;
                self.mem.map_anon(pt, base, size / PAGE_SIZE, PageFlags::RW, dom);
                (top, pt, dom)
            }
        };

        // KCS + tracking cache page (kernel-shared domain).
        let kpage = self.kshared_alloc(1, PageFlags::RW);
        let proc_cache = kpage;
        let kcs_base = kpage + percpu::PROC_CACHE_BYTES;
        let kcs_limit = kpage + PAGE_SIZE;

        // DCS page (capability storage).
        let dcs_page = self.kshared_alloc(1, PageFlags::RW | PageFlags::CAP_STORE);

        let mut ctx = ThreadCtx::at(entry, pt, dom);
        ctx.regs[reg::SP as usize] = sp;
        for (i, a) in args.iter().enumerate() {
            ctx.regs[reg::A0 as usize + i] = *a;
        }
        ctx.dcs = Dcs::new(dcs_page, dcs_page + PAGE_SIZE);

        let thread = Thread {
            tid,
            home: pid,
            state: ThreadState::Runnable,
            ctx,
            affinity: None,
            last_cpu: (tid.0 as usize) % self.cpus.len(),
            ready_at: 0,
            pending_syscall: None,
            wake_value: 0,
            cur_pid: pid,
            l4_queue: VecDeque::new(),
            kcs_base,
            kcs_limit,
            kcs_top: kcs_base,
            proc_cache,
            exit_code: 0,
            cpu_time: 0,
        };
        let cpu = thread.last_cpu;
        self.threads.insert(tid, thread);
        self.procs.get_mut(&pid).expect("checked").threads.push(tid);
        self.live_threads += 1;
        self.enqueue(cpu, tid, 0, false);
        tid
    }

    /// Pins a not-yet-run thread to a CPU, re-homing its run-queue entry.
    pub fn pin_thread(&mut self, tid: Tid, cpu: usize) {
        assert!(cpu < self.cpus.len(), "no such CPU");
        self.dequeue(tid);
        let t = self.threads.get_mut(&tid).expect("no such thread");
        assert!(
            matches!(t.state, ThreadState::Runnable),
            "pin_thread is for threads that have not started"
        );
        t.affinity = Some(cpu);
        t.last_cpu = cpu;
        let ready_at = t.ready_at;
        self.enqueue(cpu, tid, ready_at, true);
    }

    /// Appends runnable thread `tid` to CPU `cpu`'s run queue. `ready_at`
    /// and `pinned` are the thread's `ready_at` and `affinity.is_some()`,
    /// final before it is queued (the queue entry carries both); every
    /// caller has just written or read them, which saves a thread-table
    /// lookup per wake.
    pub fn enqueue(&mut self, cpu: usize, tid: Tid, ready_at: u64, pinned: bool) {
        debug_assert_eq!(
            (ready_at, pinned),
            (self.threads[&tid].ready_at, self.threads[&tid].affinity.is_some())
        );
        let slot = &mut self.cpus[cpu];
        slot.runq.push_back(RunqEntry { tid, ready_at, pinned });
        slot.runq_earliest = slot.runq_earliest.min(ready_at);
    }

    /// Every entry of CPU `cpu`'s run queue agrees with the thread table,
    /// and `runq_earliest` with the entries. Tier-1 runs this in debug
    /// builds: any path that edits a queued thread's `ready_at` or
    /// affinity, or the queue behind the helpers' back, trips it.
    fn runq_mirrors_threads(&self, cpu: usize) -> bool {
        let slot = &self.cpus[cpu];
        slot.runq_earliest == slot.scan_runq_earliest()
            && slot.runq.iter().all(|e| {
                let t = &self.threads[&e.tid];
                (e.ready_at, e.pinned) == (t.ready_at, t.affinity.is_some())
            })
    }

    /// Removes `tid` from whichever run queue holds it.
    fn dequeue(&mut self, tid: Tid) {
        for i in 0..self.cpus.len() {
            while let Some(pos) = self.cpus[i].runq.iter().position(|e| e.tid == tid) {
                self.dequeue_at(i, pos);
            }
        }
    }

    /// Removes and returns the entry at `pos` of CPU `cpu`'s run queue.
    fn dequeue_at(&mut self, cpu: usize, pos: usize) -> RunqEntry {
        debug_assert!(self.runq_mirrors_threads(cpu));
        let slot = &mut self.cpus[cpu];
        let e = slot.runq.remove(pos).expect("index valid");
        // Only the removal of an earliest entry can move the minimum.
        if e.ready_at <= slot.runq_earliest {
            slot.runq_earliest = slot.scan_runq_earliest();
        }
        e
    }

    /// Registers a file in the VFS with a storage class.
    pub fn add_file(&mut self, name: &str, data: Vec<u8>, storage: Storage) -> usize {
        self.files.push(VFile { name: name.to_string(), data, storage });
        self.files.len() - 1
    }

    /// Installs an embedder-owned handle in a process's fd table.
    pub fn install_opaque(&mut self, pid: Pid, class: u32, id: u64) -> u32 {
        self.procs.get_mut(&pid).expect("no such process").add_fd(KObject::Opaque { class, id }).0
    }

    // ------------------------------------------------------------------
    // Observation helpers.
    // ------------------------------------------------------------------

    /// Smallest CPU-local clock (cycles).
    pub fn now(&self) -> u64 {
        self.cpus.iter().map(|c| c.cpu.cycles).min().unwrap_or(0)
    }

    /// Largest CPU-local clock (cycles) — total elapsed simulated time.
    pub fn now_max(&self) -> u64 {
        self.cpus.iter().map(|c| c.cpu.cycles).max().unwrap_or(0)
    }

    /// Aggregated time breakdown over all CPUs.
    pub fn breakdown(&self) -> TimeBreakdown {
        let mut b = TimeBreakdown::new();
        for c in &self.cpus {
            b.merge(&c.breakdown);
        }
        b
    }

    /// The process a CPU is *currently tracking* (the per-CPU current slot,
    /// which dIPC proxies switch without entering the kernel).
    pub fn current_pid(&self, cpu: usize) -> Pid {
        let base = self.cpus[cpu].percpu_base;
        Pid(self
            .mem
            .kread_u64(Memory::GLOBAL_PT, base + percpu::CUR_PID)
            .expect("percpu page is always mapped"))
    }

    /// Charges `cycles` to a CPU under a category.
    pub fn charge(&mut self, cpu: usize, cat: TimeCat, cycles: u64) {
        self.cpus[cpu].cpu.cycles += cycles;
        self.cpus[cpu].breakdown.add(cat, cycles);
        if simtrace::enabled() {
            simtrace::slice(cpu, self.cpus[cpu].cpu.cycles, cycles, cat);
        }
    }

    /// Completes an embedder-handled syscall by writing the return value.
    pub fn syscall_return(&mut self, cpu: usize, value: u64) {
        let a0 = reg::A0;
        self.cpus[cpu].cpu.set_reg(a0, value);
    }

    /// Blocks the current thread of `cpu` for an embedder-defined reason;
    /// wake it later with [`Kernel::wake_external`]. Unlike kernel-internal
    /// blocking this does *not* re-dispatch the syscall on wake: the wake
    /// value becomes the syscall's return value.
    pub fn block_external(&mut self, cpu: usize, class: u32) {
        let tid = self.cpus[cpu].current.expect("a thread is running");
        self.deschedule(cpu, ThreadState::Blocked(BlockReason::External(class)));
        let t = self.threads.get_mut(&tid).expect("exists");
        t.pending_syscall = None;
    }

    /// Wakes a thread blocked with [`Kernel::block_external`], delivering
    /// `value` as the blocked syscall's return value.
    pub fn wake_external(&mut self, tid: Tid, value: u64, from_cpu: usize) {
        if let Some(t) = self.threads.get_mut(&tid) {
            if matches!(t.state, ThreadState::Blocked(BlockReason::External(_))) {
                t.ctx.regs[reg::A0 as usize] = value;
                self.make_runnable(tid, self.cpus[from_cpu].cpu.cycles);
            }
        }
    }

    /// Schedules an embedder event at absolute cycle `time`.
    pub fn push_external_event(&mut self, time: u64, class: u32, data: [u64; 2]) {
        self.events.push(time, Event::External { class, data });
    }

    // ------------------------------------------------------------------
    // The simulation loop.
    // ------------------------------------------------------------------

    /// Advances the simulation by one scheduling decision / CPU slice /
    /// event.
    pub fn step_sim(&mut self) -> KStep {
        if self.live_threads == 0 {
            return KStep::Finished;
        }
        // Earliest actionable CPU (lowest index on ties), and the earliest
        // of the others: the slice's causality bound needs the latter.
        let mut best: Option<(usize, u64)> = None;
        let mut other_min = u64::MAX;
        for i in 0..self.cpus.len() {
            let Some(t) = self.cpu_next_action_time(i) else { continue };
            match best {
                Some((_, bt)) if t >= bt => other_min = other_min.min(t),
                _ => {
                    other_min = best.map_or(u64::MAX, |(_, bt)| bt);
                    best = Some((i, t));
                }
            }
        }
        match (best, self.events.peek_time()) {
            (None, None) => KStep::Deadlock,
            (None, Some(_)) => self.process_event(),
            (Some((_, bt)), Some(et)) if et <= bt => self.process_event(),
            (Some((i, _)), _) => self.run_cpu(i, other_min),
        }
    }

    /// Runs the simulation until something other than plain progress occurs.
    pub fn run_until_stop(&mut self) -> KStep {
        loop {
            match self.step_sim() {
                KStep::Progress => continue,
                other => return other,
            }
        }
    }

    /// Runs until `Finished`, killing any faulting process (the no-embedder
    /// default policy) and panicking on unknown syscalls.
    pub fn run_to_completion(&mut self) {
        loop {
            match self.step_sim() {
                KStep::Progress => {}
                KStep::Finished => return,
                KStep::UserFault { cpu, tid, .. } => self.default_fault_kill(cpu, tid),
                KStep::Deadlock => panic!("simulation deadlock"),
                KStep::UnknownSyscall { nr, .. } => {
                    panic!("unknown syscall {nr} with no embedder")
                }
                KStep::External { class, .. } => {
                    panic!("external event class {class} with no embedder")
                }
            }
        }
    }

    /// Default fault policy: kill the whole process of the faulting thread.
    pub fn default_fault_kill(&mut self, cpu: usize, tid: Tid) {
        let _ = cpu;
        let pid = self.threads[&tid].cur_pid;
        self.kill_process(pid);
    }

    fn cpu_next_action_time(&self, i: usize) -> Option<u64> {
        let slot = &self.cpus[i];
        if slot.current.is_some() {
            return Some(slot.cpu.cycles);
        }
        debug_assert!(self.runq_mirrors_threads(i));
        (!slot.runq.is_empty()).then(|| slot.runq_earliest.max(slot.cpu.cycles))
    }

    /// Earliest next action among the CPUs other than `i`.
    fn other_cpus_min(&self, i: usize) -> u64 {
        (0..self.cpus.len())
            .filter(|&j| j != i)
            .filter_map(|j| self.cpu_next_action_time(j))
            .min()
            .unwrap_or(u64::MAX)
    }

    fn process_event(&mut self) -> KStep {
        let (time, ev) = self.events.pop().expect("caller checked");
        match ev {
            Event::Ipi { cpu } => {
                let slot = &mut self.cpus[cpu];
                if slot.cpu.cycles < time {
                    let idle = time - slot.cpu.cycles;
                    slot.cpu.cycles = time;
                    slot.breakdown.add(TimeCat::Idle, idle);
                    if simtrace::enabled() {
                        simtrace::slice(cpu, time, idle, TimeCat::Idle);
                    }
                }
                if simtrace::enabled() {
                    let now = self.cpus[cpu].cpu.cycles;
                    simtrace::instant(simtrace::Track::Cpu(cpu), now, "ipi_deliver", "ipi");
                }
                // Handling cost; the reschedule happens on the next loop
                // iteration via cpu_next_action_time.
                let c = self.cost.ipi_handle;
                self.charge(cpu, TimeCat::Kernel, c);
                KStep::Progress
            }
            Event::Wake { tid, value } => {
                if let Some(t) = self.threads.get_mut(&tid) {
                    if matches!(t.state, ThreadState::Blocked(_)) {
                        t.wake_value = value;
                        self.make_runnable(tid, time);
                    }
                }
                KStep::Progress
            }
            Event::External { class, data } => KStep::External { class, data, time },
        }
    }

    /// Gives CPU `i` one slice. `other_min` is the earliest next action
    /// among the other CPUs, as `step_sim` just computed it.
    fn run_cpu(&mut self, i: usize, mut other_min: u64) -> KStep {
        if self.cpus[i].current.is_none() {
            // A steal edits a sibling's queue, the one thing here that can
            // move another CPU's next action.
            if self.schedule(i) {
                other_min = self.other_cpus_min(i);
            }
            if self.cpus[i].current.is_none() {
                // Nothing became runnable (ready_at in the future was the
                // candidate and got picked by another CPU meanwhile).
                return KStep::Progress;
            }
        }
        debug_assert_eq!(other_min, self.other_cpus_min(i));
        let tid = self.cpus[i].current.expect("scheduled above");
        // The one thread-table lookup of the slice. It stays borrowed across
        // `Cpu::run`, so everything up to the `cpu_time` update below goes
        // through fields, not `&self` methods.
        let t = self.threads.get_mut(&tid).expect("the current thread exists");

        // Restart-style blocking syscall: finish it before running user code.
        if let Some((snr, sargs)) = t.pending_syscall.take() {
            return self.handle_syscall(i, tid, snr, sargs, false);
        }

        let next_ev = self.events.peek_time().unwrap_or(u64::MAX);
        let quantum_end = self.cpus[i].quantum_start + self.sys.quantum;
        // An expired quantum only matters when a local thread is (or will
        // become) ready to take over. The runq cannot change while this CPU
        // runs its slice (other CPUs and events act between slices, and
        // pending events already bound the deadline via `next_ev`), so when
        // the runq is empty there is no preemption point to honor — don't
        // crawl one instruction at a time behind a stale `quantum_start`.
        // When the quantum has expired and a runq entry exists, stop at its
        // `ready_at` (same instruction boundary the per-step check would
        // preempt on).
        let preempt_bound = if self.cpus[i].cpu.cycles < quantum_end {
            quantum_end
        } else {
            self.cpus[i].runq_earliest
        };
        let max_slice = self.cpus[i].cpu.cycles + self.sys.max_slice;
        // Causality window: never run further than `sync_window` ahead of
        // the slowest other busy CPU, so cross-CPU shared-memory visibility
        // error stays bounded (spin-style synchronization works).
        let sync_bound = other_min.saturating_add(self.sys.sync_window);
        let deadline = next_ev
            .min(preempt_bound)
            .min(max_slice)
            .min(sync_bound)
            .max(self.cpus[i].cpu.cycles + 1);

        let start = self.cpus[i].cpu.cycles;
        let exit: RunExit = {
            let slot = &mut self.cpus[i];
            slot.cpu.run(&mut self.mem, &mut self.rev, &self.cost, deadline)
        };
        let delta = self.cpus[i].cpu.cycles - start;
        self.cpus[i].breakdown.add(TimeCat::User, delta);
        t.cpu_time += delta;
        let cur_pid = self.current_pid(i);
        if let Some(p) = self.procs.get_mut(&cur_pid) {
            p.cpu_time += delta;
        }
        if simtrace::enabled() && delta > 0 {
            // Mirror reattribute(): on an ecall exit, the trailing ecall
            // microcode cycles belong to block (2), not user code.
            let clock = self.cpus[i].cpu.cycles;
            let ec =
                if matches!(exit.event, StepEvent::Ecall) { self.cost.ecall.min(delta) } else { 0 };
            simtrace::slice(i, clock - ec, delta - ec, TimeCat::User);
            simtrace::slice(i, clock, ec, TimeCat::SyscallEntry);
        }

        match exit.event {
            StepEvent::Retired => {
                // Deadline. Preempt if the quantum expired and someone waits.
                let clock = self.cpus[i].cpu.cycles;
                if clock >= quantum_end && self.runq_has_ready(i, clock) {
                    self.preempt(i);
                }
                KStep::Progress
            }
            StepEvent::Ecall => {
                // Move the ecall microcode cycles from User to SyscallEntry.
                let ecall = self.cost.ecall;
                self.cpus[i].breakdown.move_cycles(TimeCat::User, TimeCat::SyscallEntry, ecall);
                let snr = self.cpus[i].cpu.reg(reg::A7);
                let args = [
                    self.cpus[i].cpu.reg(reg::A0),
                    self.cpus[i].cpu.reg(reg::A1),
                    self.cpus[i].cpu.reg(reg::A2),
                    self.cpus[i].cpu.reg(reg::A3),
                    self.cpus[i].cpu.reg(reg::A4),
                    self.cpus[i].cpu.reg(reg::A5),
                ];
                self.handle_syscall(i, tid, snr, args, true)
            }
            StepEvent::Halt => {
                self.finish_thread(i, tid, self.cpus[i].cpu.reg(reg::A0));
                KStep::Progress
            }
            StepEvent::AplMiss(tag) => {
                // Software-managed APL cache refill (§4.1): exception into
                // the kernel, fill, retry.
                if let Some(apl) = self.domains.apl(tag) {
                    let apl = apl.clone();
                    if simtrace::enabled() {
                        let now = self.cpus[i].cpu.cycles;
                        simtrace::counter("apl_miss", 1);
                        simtrace::instant(simtrace::Track::Cpu(i), now, "apl_refill", "kernel");
                    }
                    let c = self.cost.exception + self.cost.apl_refill;
                    self.charge(i, TimeCat::Kernel, c);
                    let (hw, evicted) = self.cpus[i].cpu.apl_cache.fill(tag, apl);
                    if evicted.is_some() {
                        // The hardware tag changed owners: scrub the current
                        // thread's process-tracking slot so dIPC proxies
                        // cannot match a stale entry (§6.1.2).
                        let base = self.cpus[i].percpu_base;
                        if let Ok(array) =
                            self.mem.kread_u64(Memory::GLOBAL_PT, base + percpu::PROC_CACHE)
                        {
                            if array != 0 {
                                let slot = array + hw.0 as u64 * percpu::PROC_CACHE_ENTRY;
                                let zero = [0u8; percpu::PROC_CACHE_ENTRY as usize];
                                let _ = self.mem.kwrite(Memory::GLOBAL_PT, slot, &zero);
                            }
                        }
                    }
                    KStep::Progress
                } else {
                    let pc = self.cpus[i].cpu.pc;
                    KStep::UserFault {
                        cpu: i,
                        tid,
                        fault: Fault {
                            pc,
                            kind: FaultKind::Codoms(codoms::check::CheckError::AplMiss { tag }),
                        },
                    }
                }
            }
            StepEvent::Fault(fault) => {
                if simtrace::enabled() {
                    let now = self.cpus[i].cpu.cycles;
                    simtrace::counter("faults", 1);
                    simtrace::instant(simtrace::Track::Cpu(i), now, "fault", "fault");
                }
                let c = self.cost.exception;
                self.charge(i, TimeCat::Kernel, c);
                KStep::UserFault { cpu: i, tid, fault }
            }
        }
    }

    fn runq_has_ready(&self, i: usize, clock: u64) -> bool {
        !self.cpus[i].runq.is_empty() && self.cpus[i].runq_earliest <= clock
    }

    /// Picks a `(victim cpu, runq position)` for CPU `i` to steal from:
    /// the most-loaded sibling holding a thread that is ready by `clock`
    /// and not pinned elsewhere (lowest CPU index breaks load ties; FIFO
    /// order within the victim). Pure function of simulated state, so the
    /// choice is deterministic.
    fn steal_candidate(&self, i: usize, clock: u64) -> Option<(usize, usize)> {
        let mut best: Option<(usize, usize, usize)> = None; // (load, cpu, pos)
        for j in 0..self.cpus.len() {
            if j == i || !self.runq_has_ready(j, clock) {
                continue;
            }
            let pos = self.cpus[j].runq.iter().position(|e| e.ready_at <= clock && !e.pinned);
            if let Some(pos) = pos {
                let load = self.cpus[j].runq.len();
                if best.is_none_or(|(l, _, _)| load > l) {
                    best = Some((load, j, pos));
                }
            }
        }
        best.map(|(_, j, pos)| (j, pos))
    }

    fn preempt(&mut self, i: usize) {
        let tid = self.cpus[i].current.expect("preempting a running thread");
        self.deschedule(i, ThreadState::Runnable);
        let clock = self.cpus[i].cpu.cycles;
        let t = self.threads.get_mut(&tid).expect("exists");
        t.ready_at = clock;
        let affinity = t.affinity;
        self.enqueue(affinity.unwrap_or(i), tid, clock, affinity.is_some());
    }

    /// Saves the current thread's context and marks it `state`.
    fn deschedule(&mut self, i: usize, state: ThreadState) {
        let tid = self.cpus[i].current.take().expect("a thread is running");
        let c = self.sys.ctx_save;
        self.charge(i, TimeCat::Sched, c);
        let base = self.cpus[i].percpu_base;
        let kcs_top =
            self.mem.kread_u64(Memory::GLOBAL_PT, base + percpu::KCS_TOP).expect("percpu mapped");
        let cur_pid = self.current_pid(i);
        let t = self.threads.get_mut(&tid).expect("exists");
        t.ctx.save(&self.cpus[i].cpu);
        t.kcs_top = kcs_top;
        t.cur_pid = cur_pid;
        t.last_cpu = i;
        t.state = state;
    }

    /// Picks and installs the next thread on CPU `i` (or leaves it idle).
    /// Returns true if it took the thread from another CPU's queue.
    fn schedule(&mut self, i: usize) -> bool {
        let pick_cost = self.sys.sched_pick;
        self.charge(i, TimeCat::Sched, pick_cost);
        let clock = self.cpus[i].cpu.cycles;
        // Prefer a thread that is ready now; with stealing enabled, an
        // empty-handed CPU next raids the most-loaded sibling runqueue for
        // a ready, unpinned thread; otherwise idle-advance to the earliest
        // local ready_at.
        let local = if self.runq_has_ready(i, clock) {
            self.cpus[i].runq.iter().position(|e| e.ready_at <= clock)
        } else {
            None
        };
        let mut stolen = None;
        if local.is_none() && self.steal {
            if let Some((victim, vpos)) = self.steal_candidate(i, clock) {
                // The remote-queue scan costs another scheduler pick.
                self.charge(i, TimeCat::Sched, pick_cost);
                stolen = Some(self.dequeue_at(victim, vpos));
                if simtrace::enabled() {
                    let now = self.cpus[i].cpu.cycles;
                    simtrace::instant(simtrace::Track::Cpu(i), now, "steal", "sched");
                    simtrace::counter("work_steals", 1);
                }
            }
        }
        let RunqEntry { tid, ready_at: ready, .. } = match stolen {
            Some(e) => e,
            None => {
                let pos = local.or_else(|| {
                    let min =
                        self.cpus[i].runq.iter().enumerate().min_by_key(|(_, e)| e.ready_at)?;
                    Some(min.0)
                });
                let Some(pos) = pos else { return false };
                self.dequeue_at(i, pos)
            }
        };
        if ready > clock {
            let idle = ready - clock;
            self.cpus[i].cpu.cycles = ready;
            self.cpus[i].breakdown.add(TimeCat::Idle, idle);
            if simtrace::enabled() {
                simtrace::slice(i, ready, idle, TimeCat::Idle);
            }
        }

        // Restore context.
        let c = self.sys.ctx_restore + self.cost.ctxsw_pollution;
        self.charge(i, TimeCat::Sched, c);
        self.load_thread(i, tid);
        // Per-process bookkeeping (the `current` switch, fd table pointer).
        let c = self.sys.proc_switch;
        self.charge(i, TimeCat::Sched, c);

        let t = self.threads.get_mut(&tid).expect("exists");
        t.state = ThreadState::Running(i);
        self.cpus[i].current = Some(tid);
        self.cpus[i].quantum_start = self.cpus[i].cpu.cycles;
        if simtrace::enabled() {
            let now = self.cpus[i].cpu.cycles;
            simtrace::counter("context_switches", 1);
            simtrace::instant(simtrace::Track::Cpu(i), now, format!("run tid{}", tid.0), "sched");
        }
        stolen.is_some()
    }

    /// Loads `tid`'s saved context and per-CPU words onto CPU `i`, straight
    /// from the thread's slot, paying the page-table switch if the thread
    /// lives in another table.
    fn load_thread(&mut self, i: usize, tid: Tid) {
        let t = &self.threads[&tid];
        let pt = t.ctx.active_pt;
        let words = [
            (percpu::CUR_PID, t.cur_pid.0),
            (percpu::CUR_TID, tid.0),
            (percpu::KCS_TOP, t.kcs_top),
            (percpu::KCS_BASE, t.kcs_base),
            (percpu::KCS_LIMIT, t.kcs_limit),
            (percpu::PROC_CACHE, t.proc_cache),
        ];
        if pt != self.cpus[i].cpu.active_pt {
            let c = self.cost.pt_switch;
            self.charge(i, TimeCat::PtSwitch, c);
            self.cpus[i].cpu.itlb.flush();
            self.cpus[i].cpu.dtlb.flush();
        }
        self.threads[&tid].ctx.restore(&mut self.cpus[i].cpu);
        self.cpus[i].cpu.thread = tid.0;
        let base = self.cpus[i].percpu_base;
        for (off, v) in words {
            self.mem.kwrite_u64(Memory::GLOBAL_PT, base + off, v).expect("percpu mapped");
        }
    }

    /// Makes a blocked thread runnable and routes it to a CPU, sending an
    /// IPI if the target CPU is idle and remote.
    fn make_runnable(&mut self, tid: Tid, at: u64) {
        let t = self.threads.get_mut(&tid).expect("no such thread");
        debug_assert!(
            matches!(t.state, ThreadState::Blocked(_)),
            "make_runnable on non-blocked thread"
        );
        t.state = ThreadState::Runnable;
        t.ready_at = t.ready_at.max(at);
        let (affinity, ready_at, last_cpu) = (t.affinity, t.ready_at, t.last_cpu);
        self.enqueue(affinity.unwrap_or(last_cpu), tid, ready_at, affinity.is_some());
    }

    /// Wakes `tid` from CPU `from` (futex wake, pipe data, …).
    fn wake_from_cpu(&mut self, tid: Tid, from: usize) {
        let now = self.cpus[from].cpu.cycles;
        let target = {
            let t = &self.threads[&tid];
            match (t.affinity, self.wake) {
                (Some(a), _) => a,
                (None, WakePolicy::Local) => t.last_cpu,
                (None, WakePolicy::Spread) => {
                    // Least-loaded CPU (running thread counts as load 1).
                    (0..self.cpus.len())
                        .min_by_key(|&i| {
                            self.cpus[i].runq.len() + self.cpus[i].current.is_some() as usize
                        })
                        .unwrap_or(t.last_cpu)
                }
            }
        };
        if target != from && self.cpus[target].current.is_none() {
            // Remote idle CPU: IPI (the dominant cross-CPU cost, §2.2).
            if simtrace::enabled() {
                simtrace::counter("ipi_sent", 1);
                simtrace::instant(simtrace::Track::Cpu(from), now, "ipi_send", "ipi");
            }
            let c = self.cost.ipi_send;
            self.charge(from, TimeCat::Kernel, c);
            let mut arrive = now + self.cost.cycles_from_ns(self.cost.ipi_latency_ns);
            // Fault injection: a lost IPI is sent (and charged) but never
            // delivered — the woken thread only becomes visible when the
            // target CPU's scheduler next polls its run queue, modelled by
            // pushing `ready_at` out by the recovery parameter. No hang is
            // possible: `cpu_next_action_time` reads the run-queue entry's
            // `ready_at` with or without a pending IPI event. A delayed IPI
            // simply arrives late.
            let mut lost = false;
            if simfault::armed() {
                if simfault::should(simfault::Site::IpiLoss, now) {
                    lost = true;
                    arrive = now + simfault::param(simfault::Site::IpiLoss).max(1);
                } else if simfault::should(simfault::Site::IpiDelay, now) {
                    arrive += simfault::param(simfault::Site::IpiDelay).max(1);
                }
            }
            if !lost {
                self.events.push(arrive, Event::Ipi { cpu: target });
            }
            let t = self.threads.get_mut(&tid).expect("exists");
            t.ready_at = t.ready_at.max(arrive);
            t.state = ThreadState::Runnable;
            let (ready_at, pinned) = (t.ready_at, t.affinity.is_some());
            self.enqueue(target, tid, ready_at, pinned);
        } else {
            self.make_runnable(tid, now);
        }
    }

    fn finish_thread(&mut self, i: usize, tid: Tid, code: u64) {
        self.cpus[i].current = None;
        let t = self.threads.get_mut(&tid).expect("exists");
        t.state = ThreadState::Dead;
        t.exit_code = code;
        self.live_threads -= 1;
        let home = t.home;
        let all_dead = self.procs[&home]
            .threads
            .iter()
            .all(|t| matches!(self.threads[t].state, ThreadState::Dead));
        if all_dead {
            self.procs.get_mut(&home).expect("exists").alive = false;
        }
    }

    /// Kills a whole process (thread crash escalation, §5.2.1's process
    /// kill path). Idempotent: a second kill of the same process finds all
    /// threads already dead and changes nothing.
    pub fn kill_process(&mut self, pid: Pid) {
        let tids = self.procs.get(&pid).map(|p| p.threads.clone()).unwrap_or_default();
        let mut died = Vec::new();
        for tid in tids {
            let state = self.threads[&tid].state;
            match state {
                ThreadState::Dead => continue,
                ThreadState::Running(cpu) => {
                    self.cpus[cpu].current = None;
                    self.mark_dead(tid);
                }
                ThreadState::Runnable => {
                    self.dequeue(tid);
                    self.mark_dead(tid);
                }
                ThreadState::Blocked(_) => self.mark_dead(tid),
            }
            died.push(tid);
        }
        // Scrub the dead threads out of every futex waiter list so stale
        // entries can't accumulate across many kills.
        if !died.is_empty() {
            for waiters in self.futexes.values_mut() {
                waiters.retain(|t| !died.contains(t));
            }
        }
        if let Some(p) = self.procs.get_mut(&pid) {
            p.alive = false;
        }
    }

    /// Kills a single thread (the host-driven `tkill` path): it is removed
    /// from its CPU, run queues and futex waits and marked dead. The rest
    /// of its process keeps running; if it was the last live thread the
    /// process dies with it. Killing a dead or unknown thread is a no-op.
    pub fn kill_thread(&mut self, tid: Tid) {
        let Some(t) = self.threads.get(&tid) else { return };
        match t.state {
            ThreadState::Dead => return,
            ThreadState::Running(cpu) => self.cpus[cpu].current = None,
            ThreadState::Runnable => self.dequeue(tid),
            ThreadState::Blocked(_) => {}
        }
        self.mark_dead(tid);
        for waiters in self.futexes.values_mut() {
            waiters.retain(|x| *x != tid);
        }
        let home = self.threads[&tid].home;
        let all_dead = self.procs[&home]
            .threads
            .iter()
            .all(|t| matches!(self.threads[t].state, ThreadState::Dead));
        if all_dead {
            self.procs.get_mut(&home).expect("exists").alive = false;
        }
    }

    fn mark_dead(&mut self, tid: Tid) {
        let t = self.threads.get_mut(&tid).expect("exists");
        if !matches!(t.state, ThreadState::Dead) {
            t.state = ThreadState::Dead;
            self.live_threads -= 1;
        }
    }

    // ------------------------------------------------------------------
    // Syscalls.
    // ------------------------------------------------------------------

    fn handle_syscall(
        &mut self,
        i: usize,
        tid: Tid,
        snr: u64,
        args: [u64; 6],
        fresh: bool,
    ) -> KStep {
        let traced = simtrace::enabled();
        if traced {
            let now = self.cpus[i].cpu.cycles;
            let name = crate::syscall::name(snr)
                .map(str::to_string)
                .unwrap_or_else(|| format!("sys_{snr}"));
            simtrace::begin_span(simtrace::Track::Cpu(i), now, name, "syscall");
        }
        if fresh {
            // Remainder of block (2): swapgs pair and the eventual sysret.
            let c2 = 2 * self.cost.swapgs + self.cost.sysret;
            self.charge(i, TimeCat::SyscallEntry, c2);
            let c3 = self.sys.dispatch;
            self.charge(i, TimeCat::Dispatch, c3);
        }
        let res = self.syscall_impl(i, tid, snr, args);
        let step = match res {
            SysResult::Ret(v) => {
                self.cpus[i].cpu.set_reg(reg::A0, v);
                KStep::Progress
            }
            SysResult::Block(reason) => {
                let t = self.threads.get_mut(&tid).expect("exists");
                t.pending_syscall = Some((snr, args));
                self.deschedule(i, ThreadState::Blocked(reason));
                KStep::Progress
            }
            SysResult::Yield => {
                self.cpus[i].cpu.set_reg(reg::A0, 0);
                self.preempt(i);
                KStep::Progress
            }
            SysResult::Exit(code) => {
                self.finish_thread(i, tid, code);
                KStep::Progress
            }
            SysResult::ExitGroup(_code) => {
                let pid = self.current_pid(i);
                self.kill_process(pid);
                KStep::Progress
            }
            SysResult::Descheduled => KStep::Progress,
            SysResult::Unknown => KStep::UnknownSyscall { cpu: i, tid, nr: snr, args },
        };
        if traced {
            simtrace::end_span(simtrace::Track::Cpu(i), self.cpus[i].cpu.cycles);
        }
        step
    }

    fn syscall_impl(&mut self, i: usize, tid: Tid, snr: u64, args: [u64; 6]) -> SysResult {
        // Ambient-syscall restriction (untrusted plugin domains): a denied
        // kernel syscall is bounced to the embedder as an unknown syscall so
        // the dIPC policy layer can treat it as a sandbox violation. The
        // filter keys on the per-CPU *current* process — code executing in a
        // sandboxed domain is restricted even on a visiting host thread,
        // while the same thread back in the filter-proxy domain is not.
        if !self.syscall_filters.is_empty()
            && snr < nr::EXTERNAL_BASE
            && !self.syscall_allowed(self.current_pid(i), snr)
        {
            return SysResult::Unknown;
        }
        match snr {
            nr::EXIT => SysResult::Exit(args[0]),
            nr::EXIT_GROUP => SysResult::ExitGroup(args[0]),
            nr::GETPID => {
                let c = self.sys.trivial;
                self.charge(i, TimeCat::Kernel, c);
                SysResult::Ret(self.current_pid(i).0)
            }
            nr::GETTID => {
                let c = self.sys.trivial;
                self.charge(i, TimeCat::Kernel, c);
                SysResult::Ret(tid.0)
            }
            nr::MMAP => {
                let c = self.sys.mmap;
                self.charge(i, TimeCat::Kernel, c);
                let pid = self.current_pid(i);
                let size = args[0];
                if size == 0 {
                    return SysResult::Ret(err(errno::EINVAL));
                }
                SysResult::Ret(self.alloc_mem(pid, size, PageFlags::RW))
            }
            nr::PIPE2 => {
                let c = self.sys.pipe;
                self.charge(i, TimeCat::Kernel, c);
                let pid = self.current_pid(i);
                self.pipes.push(Pipe::new());
                let id = self.pipes.len() - 1;
                let p = self.procs.get_mut(&pid).expect("exists");
                let r = p.add_fd(KObject::PipeRead(id));
                let w = p.add_fd(KObject::PipeWrite(id));
                SysResult::Ret(((r.0 as u64) << 32) | w.0 as u64)
            }
            nr::READ => self.sys_read(i, tid, args),
            nr::WRITE => self.sys_write(i, tid, args),
            nr::CLOSE => self.sys_close(i, args),
            nr::FUTEX_WAIT => self.sys_futex_wait(i, tid, args),
            nr::FUTEX_WAKE => self.sys_futex_wake(i, args),
            nr::SOCK_LISTEN => self.sys_sock_listen(i, args),
            nr::SOCK_CONNECT => self.sys_sock_connect(i, tid, args),
            nr::SOCK_ACCEPT => self.sys_sock_accept(i, tid, args),
            nr::SPAWN_THREAD => {
                let c = self.sys.spawn;
                self.charge(i, TimeCat::Kernel, c);
                let pid = self.current_pid(i);
                let t = self.spawn_thread(pid, args[0], &[args[1]]);
                SysResult::Ret(t.0)
            }
            nr::SLEEP_NS => {
                let c = self.sys.trivial;
                self.charge(i, TimeCat::Kernel, c);
                if self.threads[&tid].wake_value == 1 {
                    self.threads.get_mut(&tid).expect("exists").wake_value = 0;
                    return SysResult::Ret(0);
                }
                let when = self.cpus[i].cpu.cycles + self.cost.cycles_from_ns(args[0] as f64);
                self.events.push(when, Event::Wake { tid, value: 1 });
                SysResult::Block(BlockReason::Sleep)
            }
            nr::YIELD => SysResult::Yield,
            nr::PIN_CPU => {
                let c = self.sys.trivial;
                self.charge(i, TimeCat::Kernel, c);
                let cpu = args[0] as usize;
                if cpu >= self.cpus.len() {
                    return SysResult::Ret(err(errno::EINVAL));
                }
                self.threads.get_mut(&tid).expect("exists").affinity = Some(cpu);
                if cpu == i {
                    SysResult::Ret(0)
                } else {
                    SysResult::Yield
                }
            }
            nr::FILE_OPEN => self.sys_file_open(i, args),
            nr::FILE_READ => self.sys_file_rw(i, tid, args, false),
            nr::FILE_WRITE => self.sys_file_rw(i, tid, args, true),
            nr::CLOCK_NS => {
                let c = self.sys.trivial;
                self.charge(i, TimeCat::Kernel, c);
                SysResult::Ret(self.cost.ns(self.cpus[i].cpu.cycles) as u64)
            }
            nr::L4_CALL => self.sys_l4_call(i, tid, args),
            nr::L4_REPLY_WAIT => self.sys_l4_reply_wait(i, tid, args),
            nr::SHM_CREATE => {
                let c = self.sys.mmap;
                self.charge(i, TimeCat::Kernel, c);
                let size = args[0];
                let pages = size.div_ceil(PAGE_SIZE).max(1);
                let frames = (0..pages).map(|_| self.mem.phys_mut().alloc_frame()).collect();
                self.shms.push(Shm { frames, size: pages * PAGE_SIZE });
                let id = self.shms.len() - 1;
                let pid = self.current_pid(i);
                let fd = self.procs.get_mut(&pid).expect("exists").add_fd(KObject::Shm(id));
                SysResult::Ret(fd.0 as u64)
            }
            nr::SHM_MAP => {
                let c = self.sys.mmap;
                self.charge(i, TimeCat::Kernel, c);
                let pid = self.current_pid(i);
                let Some(&KObject::Shm(id)) = self.procs[&pid].fd(args[0] as u32) else {
                    return SysResult::Ret(err(errno::EBADF));
                };
                let size = self.shms[id].size;
                // Reserve address space, then replace the anon frames with
                // the shared segment's frames.
                let base = self.alloc_mem(pid, size, PageFlags::RW);
                let pt = self.procs[&pid].pt;
                let tag = self.procs[&pid].default_domain;
                self.mem.unmap(pt, base, size / PAGE_SIZE);
                for (k, frame) in self.shms[id].frames.clone().into_iter().enumerate() {
                    self.mem.map_shared(pt, base + k as u64 * PAGE_SIZE, frame, PageFlags::RW, tag);
                }
                SysResult::Ret(base)
            }
            nr::SEND_FD => self.sys_send_fd(i, args),
            nr::RECV_FD => self.sys_recv_fd(i, tid, args),
            _ => SysResult::Unknown,
        }
    }

    fn user_pt(&self, i: usize) -> PageTableId {
        self.cpus[i].cpu.active_pt
    }

    /// Kernel copy cost: copy_to/from_user runs well below cache-resident
    /// memcpy speed (uncached pipe buffers, access checks) — about a
    /// quarter of the user-copy throughput — plus per-page mapping checks
    /// (kernel transfers "must ensure that pages are mapped", §7.2).
    fn charge_kcopy(&mut self, i: usize, len: u64) {
        simtrace::counter("bytes_copied_kernel", len);
        let pages = len.div_ceil(PAGE_SIZE).max(1);
        let bytes_per_cycle = (self.cost.copy_bytes_per_cycle / 4).max(1);
        let c = 4 + len.div_ceil(bytes_per_cycle) + pages * self.sys.kcopy_page;
        self.charge(i, TimeCat::Kernel, c);
    }

    fn sys_read(&mut self, i: usize, tid: Tid, args: [u64; 6]) -> SysResult {
        let (fd, buf, len) = (args[0] as u32, args[1], args[2] as usize);
        let pid = self.current_pid(i);
        let obj = match self.procs[&pid].fd(fd) {
            Some(o) => o.clone(),
            None => return SysResult::Ret(err(errno::EBADF)),
        };
        match obj {
            KObject::PipeRead(id) => {
                let c = self.sys.pipe;
                self.charge(i, TimeCat::Kernel, c);
                if self.pipes[id].buf.is_empty() {
                    if self.pipes[id].writers == 0 {
                        return SysResult::Ret(0);
                    }
                    self.pipes[id].read_waiters.push(tid);
                    return SysResult::Block(BlockReason::PipeRead(id));
                }
                let n = self.pipes[id].read(len, &mut self.bounce);
                let pt = self.user_pt(i);
                if self.mem.kwrite(pt, buf, &self.bounce).is_err() {
                    return SysResult::Ret(err(errno::EFAULT));
                }
                self.charge_kcopy(i, n as u64);
                self.wake_all(|k| &mut k.pipes[id].write_waiters, BlockReason::PipeWrite(id), i);
                SysResult::Ret(n as u64)
            }
            KObject::Sock(id) => {
                if simtrace::enabled() {
                    let now = self.cpus[i].cpu.cycles;
                    simtrace::instant(simtrace::Track::Cpu(i), now, "sock_read", "net");
                }
                let c = self.sys.sock;
                self.charge(i, TimeCat::Kernel, c);
                if self.socks[id].rx.is_empty() {
                    let peer = self.socks[id].peer;
                    if peer == usize::MAX || self.socks[peer].closed {
                        return SysResult::Ret(0);
                    }
                    self.socks[id].recv_waiters.push(tid);
                    return SysResult::Block(BlockReason::SockRecv(id));
                }
                let n = drain_into(&mut self.socks[id].rx, len, &mut self.bounce);
                let pt = self.user_pt(i);
                if self.mem.kwrite(pt, buf, &self.bounce).is_err() {
                    return SysResult::Ret(err(errno::EFAULT));
                }
                self.charge_kcopy(i, n as u64);
                // Senders blocked because *our* receive buffer was full park
                // on our end's send_waiters (see sys_write).
                self.wake_all(|k| &mut k.socks[id].send_waiters, BlockReason::SockSend(id), i);
                SysResult::Ret(n as u64)
            }
            _ => SysResult::Ret(err(errno::EBADF)),
        }
    }

    fn sys_write(&mut self, i: usize, tid: Tid, args: [u64; 6]) -> SysResult {
        let (fd, buf, len) = (args[0] as u32, args[1], args[2] as usize);
        let pid = self.current_pid(i);
        let obj = match self.procs[&pid].fd(fd) {
            Some(o) => o.clone(),
            None => return SysResult::Ret(err(errno::EBADF)),
        };
        let pt = self.user_pt(i);
        match obj {
            KObject::PipeWrite(id) => {
                let c = self.sys.pipe;
                self.charge(i, TimeCat::Kernel, c);
                if self.pipes[id].readers == 0 {
                    return SysResult::Ret(err(errno::EPIPE));
                }
                let room = self.pipes[id].capacity - self.pipes[id].buf.len();
                if room == 0 {
                    self.pipes[id].write_waiters.push(tid);
                    return SysResult::Block(BlockReason::PipeWrite(id));
                }
                let n = room.min(len);
                self.bounce.clear();
                self.bounce.resize(n, 0);
                if self.mem.kread(pt, buf, &mut self.bounce).is_err() {
                    return SysResult::Ret(err(errno::EFAULT));
                }
                self.charge_kcopy(i, n as u64);
                self.pipes[id].write(&self.bounce);
                self.wake_all(|k| &mut k.pipes[id].read_waiters, BlockReason::PipeRead(id), i);
                SysResult::Ret(n as u64)
            }
            KObject::Sock(id) => {
                if simtrace::enabled() {
                    let now = self.cpus[i].cpu.cycles;
                    simtrace::instant(simtrace::Track::Cpu(i), now, "sock_write", "net");
                }
                let c = self.sys.sock;
                self.charge(i, TimeCat::Kernel, c);
                let peer = self.socks[id].peer;
                if peer == usize::MAX || self.socks[peer].closed {
                    return SysResult::Ret(err(errno::EPIPE));
                }
                let room = self.socks[peer].capacity - self.socks[peer].rx.len();
                if room == 0 {
                    self.socks[peer].send_waiters.push(tid);
                    return SysResult::Block(BlockReason::SockSend(peer));
                }
                let n = room.min(len);
                self.bounce.clear();
                self.bounce.resize(n, 0);
                if self.mem.kread(pt, buf, &mut self.bounce).is_err() {
                    return SysResult::Ret(err(errno::EFAULT));
                }
                self.charge_kcopy(i, n as u64);
                self.socks[peer].rx.extend(&self.bounce);
                self.wake_all(|k| &mut k.socks[peer].recv_waiters, BlockReason::SockRecv(peer), i);
                SysResult::Ret(n as u64)
            }
            _ => SysResult::Ret(err(errno::EBADF)),
        }
    }

    fn sys_close(&mut self, i: usize, args: [u64; 6]) -> SysResult {
        let c = self.sys.trivial;
        self.charge(i, TimeCat::Kernel, c);
        let pid = self.current_pid(i);
        let obj = match self.procs.get_mut(&pid).and_then(|p| p.take_fd(args[0] as u32)) {
            Some(o) => o,
            None => return SysResult::Ret(err(errno::EBADF)),
        };
        match obj {
            KObject::PipeRead(id) => {
                self.pipes[id].readers -= 1;
                self.wake_all(|k| &mut k.pipes[id].write_waiters, BlockReason::PipeWrite(id), i);
            }
            KObject::PipeWrite(id) => {
                self.pipes[id].writers -= 1;
                self.wake_all(|k| &mut k.pipes[id].read_waiters, BlockReason::PipeRead(id), i);
            }
            KObject::Sock(id) => {
                self.socks[id].closed = true;
                // Wake the peer's blocked receivers (they will observe EOF)
                // and any senders parked on our now-closed receive buffer
                // (they will observe EPIPE on restart).
                let peer = self.socks[id].peer;
                if peer != usize::MAX {
                    self.wake_all(
                        |k| &mut k.socks[peer].recv_waiters,
                        BlockReason::SockRecv(peer),
                        i,
                    );
                }
                self.wake_all(|k| &mut k.socks[id].send_waiters, BlockReason::SockSend(id), i);
            }
            KObject::Listener(id) => {
                self.listeners[id].closed = true;
                self.named.retain(|_, v| *v != id);
            }
            _ => {}
        }
        SysResult::Ret(0)
    }

    fn futex_key(&self, pt: PageTableId, addr: u64) -> Option<u64> {
        let pte = self.mem.table(pt).lookup(addr)?;
        Some(pte.frame.0 * PAGE_SIZE + (addr & (PAGE_SIZE - 1)))
    }

    fn sys_futex_wait(&mut self, i: usize, tid: Tid, args: [u64; 6]) -> SysResult {
        if simtrace::enabled() {
            let now = self.cpus[i].cpu.cycles;
            simtrace::counter("futex_waits", 1);
            simtrace::instant(simtrace::Track::Cpu(i), now, "futex_wait", "futex");
        }
        let c = self.sys.futex_wait;
        self.charge(i, TimeCat::Kernel, c);
        let pt = self.user_pt(i);
        let (addr, expected) = (args[0], args[1]);
        let Ok(val) = self.mem.kread_u64(pt, addr) else {
            return SysResult::Ret(err(errno::EFAULT));
        };
        if val != expected {
            return SysResult::Ret(err(errno::EAGAIN));
        }
        let Some(key) = self.futex_key(pt, addr) else {
            return SysResult::Ret(err(errno::EFAULT));
        };
        // Fault injection: a spurious wakeup — the wait returns `-EINTR`
        // without ever blocking (POSIX permits this). Returning *instead of*
        // blocking keeps the waiter list duplicate-free; well-formed waiters
        // re-check the futex word and re-wait.
        if simfault::armed() {
            let now = self.cpus[i].cpu.cycles;
            if simfault::should(simfault::Site::SpuriousWake, now) {
                return SysResult::Ret(err(errno::EINTR));
            }
        }
        self.futexes.entry(key).or_default().push(tid);
        SysResult::Block(BlockReason::Futex(key))
    }

    fn sys_futex_wake(&mut self, i: usize, args: [u64; 6]) -> SysResult {
        if simtrace::enabled() {
            let now = self.cpus[i].cpu.cycles;
            simtrace::counter("futex_wakes", 1);
            simtrace::instant(simtrace::Track::Cpu(i), now, "futex_wake", "futex");
        }
        let c = self.sys.futex_wake;
        self.charge(i, TimeCat::Kernel, c);
        let pt = self.user_pt(i);
        let (addr, n) = (args[0], args[1] as usize);
        let Some(key) = self.futex_key(pt, addr) else {
            return SysResult::Ret(err(errno::EFAULT));
        };
        // Drain until `n` threads actually woke: stale entries (threads
        // killed or unwound out of the wait) are discarded without
        // consuming a wake slot, so a live waiter can never miss its
        // wakeup to a dead one.
        let mut woken = 0;
        while woken < n as u64 {
            let next = match self.futexes.get_mut(&key) {
                Some(w) if !w.is_empty() => w.remove(0),
                _ => break,
            };
            if self.wake_if_blocked(next, BlockReason::Futex(key), i) {
                woken += 1;
            }
        }
        SysResult::Ret(woken)
    }

    /// Host-side futex wake (no syscall, no cycle charge): wakes up to `n`
    /// threads parked on the word at `addr` under `pt`. The dIPC layer uses
    /// it to release waiters parked on an async ring whose endpoint process
    /// died — the wake must happen while the ring pages are still mapped,
    /// or the physical futex key can no longer be derived.
    pub fn host_futex_wake(&mut self, pt: PageTableId, addr: u64, n: usize) -> u64 {
        self.host_futex_wake_at(pt, addr, n, 0)
    }

    /// [`host_futex_wake`](Self::host_futex_wake) with a virtual-time floor:
    /// woken threads resume no earlier than cycle `at`. Host-side producers
    /// injecting work "at" a chosen point on the simulated timeline need
    /// this — a plain wake resumes the waiter from CPU 0's local clock,
    /// which can lag the injection time by many slices (idle CPUs only
    /// advance when dispatched), making the consumer observe data from its
    /// local past and producing negative end-to-end latencies.
    pub fn host_futex_wake_at(&mut self, pt: PageTableId, addr: u64, n: usize, at: u64) -> u64 {
        let Some(key) = self.futex_key(pt, addr) else { return 0 };
        let mut woken = 0u64;
        while woken < n as u64 {
            let next = match self.futexes.get_mut(&key) {
                Some(w) if !w.is_empty() => w.remove(0),
                _ => break,
            };
            // The floor goes in before the wake queues the thread (the run
            // queue caches its earliest `ready_at`); the wake itself only
            // ever raises `ready_at`, so the order does not change the value.
            match self.threads.get_mut(&next) {
                Some(t) if t.state == ThreadState::Blocked(BlockReason::Futex(key)) => {
                    t.ready_at = t.ready_at.max(at);
                    self.wake_from_cpu(next, 0);
                    woken += 1;
                }
                _ => {}
            }
        }
        woken
    }

    /// Wakes `tid` only if it is blocked for exactly `reason` (stale waiter
    /// entries are skipped). Returns true if woken.
    fn wake_if_blocked(&mut self, tid: Tid, reason: BlockReason, from: usize) -> bool {
        match self.threads.get(&tid) {
            Some(t) if t.state == ThreadState::Blocked(reason) => {
                self.wake_from_cpu(tid, from);
                true
            }
            _ => false,
        }
    }

    /// Wakes every thread parked on a waiter list for `reason`, emptying
    /// the list. Waking only enqueues, never parks, so the drained `Vec`
    /// goes back to its (still empty) list and keeps its capacity.
    fn wake_all(
        &mut self,
        list: impl Fn(&mut Kernel) -> &mut Vec<Tid>,
        reason: BlockReason,
        from: usize,
    ) {
        let mut waiters = std::mem::take(list(self));
        for &w in &waiters {
            self.wake_if_blocked(w, reason, from);
        }
        waiters.clear();
        *list(self) = waiters;
    }

    fn read_user_string(&self, i: usize, ptr: u64, len: u64) -> Option<String> {
        if len > 4096 {
            return None;
        }
        let mut buf = vec![0u8; len as usize];
        self.mem.kread(self.user_pt(i), ptr, &mut buf).ok()?;
        String::from_utf8(buf).ok()
    }

    fn sys_sock_listen(&mut self, i: usize, args: [u64; 6]) -> SysResult {
        let c = self.sys.sock_handshake;
        self.charge(i, TimeCat::Kernel, c);
        let Some(name) = self.read_user_string(i, args[0], args[1]) else {
            return SysResult::Ret(err(errno::EFAULT));
        };
        self.bind_listener_common(i, &name)
    }

    /// Shared listener-creation path (also exposed to the host API).
    fn bind_listener_common(&mut self, i: usize, name: &str) -> SysResult {
        if self.named.contains_key(name) {
            return SysResult::Ret(err(errno::EINVAL));
        }
        self.listeners.push(Listener {
            name: name.to_string(),
            backlog: VecDeque::new(),
            accept_waiters: Vec::new(),
            closed: false,
        });
        let id = self.listeners.len() - 1;
        self.named.insert(name.to_string(), id);
        // Wake connectors parked on this name.
        if let Some(waiters) = self.pending_connects.remove(name) {
            for w in waiters {
                if let Some(t) = self.threads.get(&w) {
                    if matches!(t.state, ThreadState::Blocked(BlockReason::Connect(_))) {
                        self.wake_from_cpu(w, i);
                    }
                }
            }
        }
        let pid = self.current_pid(i);
        let fd = self.procs.get_mut(&pid).expect("exists").add_fd(KObject::Listener(id));
        SysResult::Ret(fd.0 as u64)
    }

    fn sys_sock_connect(&mut self, i: usize, tid: Tid, args: [u64; 6]) -> SysResult {
        let c = self.sys.sock_handshake;
        self.charge(i, TimeCat::Kernel, c);
        let Some(name) = self.read_user_string(i, args[0], args[1]) else {
            return SysResult::Ret(err(errno::EFAULT));
        };
        let Some(&lid) = self.named.get(&name) else {
            // Block until someone binds the name (simplifies start-up races
            // in multi-process harnesses).
            self.pending_connects.entry(name).or_default().push(tid);
            return SysResult::Block(BlockReason::Connect(usize::MAX));
        };
        // Create the connected pair.
        self.socks.push(Sock::new());
        self.socks.push(Sock::new());
        let client = self.socks.len() - 2;
        let server = self.socks.len() - 1;
        self.socks[client].peer = server;
        self.socks[server].peer = client;
        self.listeners[lid].backlog.push_back(server);
        self.wake_all(|k| &mut k.listeners[lid].accept_waiters, BlockReason::Accept(lid), i);
        let pid = self.current_pid(i);
        let fd = self.procs.get_mut(&pid).expect("exists").add_fd(KObject::Sock(client));
        SysResult::Ret(fd.0 as u64)
    }

    fn sys_sock_accept(&mut self, i: usize, tid: Tid, args: [u64; 6]) -> SysResult {
        let c = self.sys.sock_handshake;
        self.charge(i, TimeCat::Kernel, c);
        let pid = self.current_pid(i);
        let Some(&KObject::Listener(lid)) = self.procs[&pid].fd(args[0] as u32) else {
            return SysResult::Ret(err(errno::EBADF));
        };
        match self.listeners[lid].backlog.pop_front() {
            Some(server_end) => {
                let fd =
                    self.procs.get_mut(&pid).expect("exists").add_fd(KObject::Sock(server_end));
                SysResult::Ret(fd.0 as u64)
            }
            None => {
                self.listeners[lid].accept_waiters.push(tid);
                SysResult::Block(BlockReason::Accept(lid))
            }
        }
    }

    fn sys_file_open(&mut self, i: usize, args: [u64; 6]) -> SysResult {
        let c = self.sys.file;
        self.charge(i, TimeCat::Kernel, c);
        let Some(name) = self.read_user_string(i, args[0], args[1]) else {
            return SysResult::Ret(err(errno::EFAULT));
        };
        let id = match self.files.iter().position(|f| f.name == name) {
            Some(id) => id,
            None => {
                self.files.push(VFile { name, data: Vec::new(), storage: Storage::Tmpfs });
                self.files.len() - 1
            }
        };
        let pid = self.current_pid(i);
        let fd = self.procs.get_mut(&pid).expect("exists").add_fd(KObject::File { id, pos: 0 });
        SysResult::Ret(fd.0 as u64)
    }

    fn sys_file_rw(&mut self, i: usize, tid: Tid, args: [u64; 6], write: bool) -> SysResult {
        let (fdnum, buf, len) = (args[0] as u32, args[1], args[2] as usize);
        let pid = self.current_pid(i);
        let Some(&KObject::File { id, pos }) = self.procs[&pid].fd(fdnum) else {
            return SysResult::Ret(err(errno::EBADF));
        };
        let c = self.sys.file;
        self.charge(i, TimeCat::Kernel, c);
        let storage = self.files[id].storage;
        match storage {
            Storage::Tmpfs => {
                let lat = self.cost.cycles_from_ns(self.sys.tmpfs_ns as f64);
                self.charge(i, TimeCat::Kernel, lat);
            }
            Storage::Disk => {
                // First pass queues the IO on the (serialized) disk and
                // blocks; the restart (with wake_value set) performs the
                // transfer.
                if self.threads[&tid].wake_value == 0 {
                    let now = self.cpus[i].cpu.cycles;
                    let start = self.disk_busy_until.max(now);
                    let when = start + self.cost.cycles_from_ns(self.sys.disk_ns as f64);
                    self.disk_busy_until = when;
                    self.events.push(when, Event::Wake { tid, value: 1 });
                    return SysResult::Block(BlockReason::Io);
                }
                self.threads.get_mut(&tid).expect("exists").wake_value = 0;
            }
        }
        let pt = self.user_pt(i);
        let n = if write {
            let mut data = vec![0u8; len];
            if self.mem.kread(pt, buf, &mut data).is_err() {
                return SysResult::Ret(err(errno::EFAULT));
            }
            let file = &mut self.files[id];
            let end = pos as usize + len;
            if file.data.len() < end {
                file.data.resize(end, 0);
            }
            file.data[pos as usize..end].copy_from_slice(&data);
            len
        } else {
            let file = &self.files[id];
            let avail = file.data.len().saturating_sub(pos as usize);
            let n = avail.min(len);
            let data = file.data[pos as usize..pos as usize + n].to_vec();
            if self.mem.kwrite(pt, buf, &data).is_err() {
                return SysResult::Ret(err(errno::EFAULT));
            }
            n
        };
        self.charge_kcopy(i, n as u64);
        // Advance the cursor.
        if let Some(KObject::File { pos, .. }) = self
            .procs
            .get_mut(&pid)
            .and_then(|p| p.fds.get_mut(fdnum as usize))
            .and_then(|o| o.as_mut())
        {
            *pos += n as u64;
        }
        SysResult::Ret(n as u64)
    }

    /// Preferred CPU of a thread (affinity, else last CPU).
    fn thread_cpu(&self, tid: Tid) -> usize {
        let t = &self.threads[&tid];
        t.affinity.unwrap_or(t.last_cpu)
    }

    /// L4-style synchronous call: direct switch to the server thread with
    /// the message in registers (no marshalling, no run-queue round trip).
    fn sys_l4_call(&mut self, i: usize, tid: Tid, args: [u64; 6]) -> SysResult {
        let c = self.sys.l4_path;
        self.charge(i, TimeCat::Kernel, c);
        let dst = Tid(args[0]);
        match self.threads.get(&dst) {
            None => return SysResult::Ret(err(errno::ESRCH)),
            Some(t) if matches!(t.state, ThreadState::Dead) => {
                return SysResult::Ret(err(errno::ESRCH))
            }
            _ => {}
        }
        // Queue ourselves on the server and block for the reply. The
        // message stays in our saved registers (a1–a4); the server reads it
        // from there ("passing data inlined in registers", §2.2).
        self.threads.get_mut(&dst).expect("exists").l4_queue.push_back(tid);
        let server_waiting =
            matches!(self.threads[&dst].state, ThreadState::Blocked(BlockReason::L4Wait));
        let t = self.threads.get_mut(&tid).expect("exists");
        t.pending_syscall = None; // the reply delivers the result directly
        self.deschedule(i, ThreadState::Blocked(BlockReason::L4Reply(dst)));
        if server_waiting {
            if self.thread_cpu(dst) == i {
                // Same-CPU fast path: hand the CPU to the server.
                self.direct_switch(i, dst);
            } else {
                self.wake_from_cpu(dst, i);
            }
        }
        SysResult::Descheduled
    }

    fn sys_l4_reply_wait(&mut self, i: usize, tid: Tid, args: [u64; 6]) -> SysResult {
        let c = self.sys.l4_path;
        self.charge(i, TimeCat::Kernel, c);
        let caller = Tid(args[0]);
        // Reply phase (skip when caller == 0).
        let mut replied_to = None;
        if caller.0 != 0 {
            let reply_ok = matches!(
                self.threads.get(&caller).map(|t| t.state),
                Some(ThreadState::Blocked(BlockReason::L4Reply(d))) if d == tid
            );
            if reply_ok {
                let t = self.threads.get_mut(&caller).expect("exists");
                t.ctx.regs[reg::A0 as usize] = args[1];
                t.ctx.regs[reg::A1 as usize] = args[2];
                t.ctx.regs[reg::A2 as usize] = args[3];
                t.ctx.regs[reg::A3 as usize] = args[4];
                replied_to = Some(caller);
            }
        }
        // Wait phase.
        match self.threads.get_mut(&tid).expect("exists").l4_queue.pop_front() {
            Some(next_caller) => {
                if let Some(c) = replied_to {
                    self.wake_from_cpu(c, i);
                }
                // Deliver the pending call message from the caller's saved
                // context into our live registers.
                let msg = {
                    let ct = &self.threads[&next_caller];
                    [
                        ct.ctx.regs[reg::A1 as usize],
                        ct.ctx.regs[reg::A2 as usize],
                        ct.ctx.regs[reg::A3 as usize],
                        ct.ctx.regs[reg::A4 as usize],
                    ]
                };
                let cpu = &mut self.cpus[i].cpu;
                cpu.set_reg(reg::A1, msg[0]);
                cpu.set_reg(reg::A2, msg[1]);
                cpu.set_reg(reg::A3, msg[2]);
                cpu.set_reg(reg::A4, msg[3]);
                SysResult::Ret(next_caller.0)
            }
            None => {
                // Block waiting for the next call; restart as a pure wait.
                let t = self.threads.get_mut(&tid).expect("exists");
                t.pending_syscall = Some((nr::L4_REPLY_WAIT, [0, 0, 0, 0, 0, 0]));
                self.deschedule(i, ThreadState::Blocked(BlockReason::L4Wait));
                // Direct switch back to the caller we just replied to, if it
                // belongs on this CPU (the L4 switchback fast path).
                if let Some(c) = replied_to {
                    if self.thread_cpu(c) == i {
                        self.threads.get_mut(&c).expect("exists").state = ThreadState::Runnable;
                        self.direct_switch(i, c);
                    } else {
                        self.wake_from_cpu(c, i);
                    }
                }
                SysResult::Descheduled
            }
        }
    }

    /// L4 fast path: install `tid` directly on CPU `i` without a scheduler
    /// pass (the caller has already been descheduled).
    fn direct_switch(&mut self, i: usize, tid: Tid) {
        debug_assert!(self.cpus[i].current.is_none());
        if simtrace::enabled() {
            let now = self.cpus[i].cpu.cycles;
            simtrace::counter("direct_switches", 1);
            simtrace::instant(
                simtrace::Track::Cpu(i),
                now,
                format!("direct_switch tid{}", tid.0),
                "sched",
            );
        }
        // Remove from whichever runqueue holds it (it may have been made
        // runnable by an earlier wake).
        self.dequeue(tid);
        let c = self.sys.ctx_restore;
        self.charge(i, TimeCat::Sched, c);
        self.load_thread(i, tid);
        let t = self.threads.get_mut(&tid).expect("exists");
        t.state = ThreadState::Running(i);
        t.ready_at = 0;
        self.cpus[i].current = Some(tid);
        self.cpus[i].quantum_start = self.cpus[i].cpu.cycles;
    }

    fn sys_send_fd(&mut self, i: usize, args: [u64; 6]) -> SysResult {
        let c = self.sys.sock;
        self.charge(i, TimeCat::Kernel, c);
        let pid = self.current_pid(i);
        let Some(&KObject::Sock(id)) = self.procs[&pid].fd(args[0] as u32) else {
            return SysResult::Ret(err(errno::EBADF));
        };
        let Some(obj) = self.procs[&pid].fd(args[1] as u32).cloned() else {
            return SysResult::Ret(err(errno::EBADF));
        };
        let peer = self.socks[id].peer;
        if peer == usize::MAX || self.socks[peer].closed {
            return SysResult::Ret(err(errno::EPIPE));
        }
        self.socks[peer].fd_queue.push_back(obj);
        self.wake_all(|k| &mut k.socks[peer].recv_waiters, BlockReason::SockRecv(peer), i);
        SysResult::Ret(0)
    }

    fn sys_recv_fd(&mut self, i: usize, tid: Tid, args: [u64; 6]) -> SysResult {
        let c = self.sys.sock;
        self.charge(i, TimeCat::Kernel, c);
        let pid = self.current_pid(i);
        let Some(&KObject::Sock(id)) = self.procs[&pid].fd(args[0] as u32) else {
            return SysResult::Ret(err(errno::EBADF));
        };
        match self.socks[id].fd_queue.pop_front() {
            Some(obj) => {
                let fd = self.procs.get_mut(&pid).expect("exists").add_fd(obj);
                SysResult::Ret(fd.0 as u64)
            }
            None => {
                let peer = self.socks[id].peer;
                if peer == usize::MAX || self.socks[peer].closed {
                    return SysResult::Ret(err(errno::ENOTCONN));
                }
                self.socks[id].recv_waiters.push(tid);
                SysResult::Block(BlockReason::SockRecv(id))
            }
        }
    }
}
