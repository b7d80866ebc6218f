//! Processes and threads.

use cdvm::Cpu;
use codoms::cap::{Capability, CAP_REGS};
use codoms::dcs::Dcs;
use simmem::vas::BlockId;
use simmem::{DomainTag, PageTableId, ProcLayout};

use crate::object::KObject;
use crate::table::DenseId;

/// Process identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Pid(pub u64);

/// Global thread identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Tid(pub u64);

impl DenseId for Pid {
    #[inline]
    fn slot(self) -> usize {
        usize::try_from(self.0).unwrap_or(usize::MAX)
    }
}

impl DenseId for Tid {
    #[inline]
    fn slot(self) -> usize {
        usize::try_from(self.0).unwrap_or(usize::MAX)
    }
}

/// Why a thread is blocked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockReason {
    /// futex_wait on a (frame, offset) key.
    Futex(u64),
    /// Blocked reading an empty pipe.
    PipeRead(usize),
    /// Blocked writing a full pipe.
    PipeWrite(usize),
    /// Blocked in accept on a listener.
    Accept(usize),
    /// Blocked in connect waiting for accept.
    Connect(usize),
    /// Blocked receiving on a socket.
    SockRecv(usize),
    /// Blocked sending on a socket (peer buffer full).
    SockSend(usize),
    /// Waiting for storage IO.
    Io,
    /// Sleeping until a timer event.
    Sleep,
    /// L4-style IPC: waiting for the callee's reply.
    L4Reply(Tid),
    /// L4-style IPC: server waiting for a call.
    L4Wait,
    /// Blocked by an embedding layer (dIPC time-outs etc.).
    External(u32),
}

/// Thread scheduling state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadState {
    /// Currently executing on the given CPU.
    Running(usize),
    /// On a run queue.
    Runnable,
    /// Blocked for the given reason.
    Blocked(BlockReason),
    /// Exited.
    Dead,
}

/// Saved architectural context of a descheduled thread.
#[derive(Clone, Debug)]
pub struct ThreadCtx {
    /// General-purpose registers.
    pub regs: [u64; 32],
    /// Program counter.
    pub pc: u64,
    /// Capability registers.
    pub caps: [Option<Capability>; CAP_REGS],
    /// DCS register state.
    pub dcs: Dcs,
    /// Current CODOMs domain (the PC's page tag at save time).
    pub cur_dom: DomainTag,
    /// Conventional kernel mode flag.
    pub kernel_mode: bool,
    /// Active page table.
    pub active_pt: PageTableId,
}

impl ThreadCtx {
    /// A zeroed context starting at `pc`.
    pub fn at(pc: u64, pt: PageTableId, dom: DomainTag) -> ThreadCtx {
        ThreadCtx {
            regs: [0; 32],
            pc,
            caps: [None; CAP_REGS],
            dcs: Dcs::new(0, 0),
            cur_dom: dom,
            kernel_mode: false,
            active_pt: pt,
        }
    }

    /// Captures a CPU's state, in place.
    pub fn save(&mut self, cpu: &Cpu) {
        self.regs = cpu.regs;
        self.pc = cpu.pc;
        self.caps = cpu.caps;
        self.dcs = cpu.dcs;
        self.cur_dom = cpu.cur_dom;
        self.kernel_mode = cpu.kernel_mode;
        self.active_pt = cpu.active_pt;
    }

    /// Restores into a CPU.
    pub fn restore(&self, cpu: &mut Cpu) {
        cpu.regs = self.regs;
        cpu.pc = self.pc;
        cpu.caps = self.caps;
        cpu.dcs = self.dcs;
        cpu.cur_dom = self.cur_dom;
        cpu.kernel_mode = self.kernel_mode;
        cpu.active_pt = self.active_pt;
    }
}

/// A kernel thread.
#[derive(Debug)]
pub struct Thread {
    /// Global id.
    pub tid: Tid,
    /// Home process (the process that created it; a dIPC thread may be
    /// *executing* in another process, tracked via the per-CPU area).
    pub home: Pid,
    /// Scheduler state.
    pub state: ThreadState,
    /// Saved context (valid when not Running).
    pub ctx: ThreadCtx,
    /// Pinned CPU, if any.
    pub affinity: Option<usize>,
    /// CPU the thread last ran on (wake locality).
    pub last_cpu: usize,
    /// Earliest cycle at which the thread may run (causality fence for
    /// cross-CPU wakes).
    pub ready_at: u64,
    /// A syscall to re-dispatch when next scheduled (restart-style blocking
    /// syscalls).
    pub pending_syscall: Option<(u64, [u64; 6])>,
    /// Result delivered by a waker (storage IO, timer).
    pub wake_value: u64,
    /// The process the thread is currently *executing in* (differs from
    /// `home` while inside a dIPC cross-process call; mirrors the per-CPU
    /// current-process slot while descheduled).
    pub cur_pid: Pid,
    /// Pending L4-style callers queued on this (server) thread.
    pub l4_queue: std::collections::VecDeque<Tid>,
    /// Address of this thread's KCS region start (kernel-shared domain).
    pub kcs_base: u64,
    /// Address one past the KCS region.
    pub kcs_limit: u64,
    /// Saved KCS top (mirrored to the per-CPU area while running).
    pub kcs_top: u64,
    /// Address of this thread's 32-entry process-tracking cache array.
    pub proc_cache: u64,
    /// Exit code (valid when Dead).
    pub exit_code: u64,
    /// Total cycles of CPU time consumed.
    pub cpu_time: u64,
}

/// A process.
#[derive(Debug)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Human-readable name (for traces and harness output).
    pub name: String,
    /// Page table (the shared global table for dIPC-enabled processes,
    /// §6.1.3; a private one otherwise).
    pub pt: PageTableId,
    /// True if the process participates in the global address space.
    pub dipc_enabled: bool,
    /// The process's default CODOMs domain tag.
    pub default_domain: DomainTag,
    /// Conventional private layout (non-dIPC processes).
    pub layout: ProcLayout,
    /// Reserved global VAS blocks (dIPC processes).
    pub blocks: Vec<BlockId>,
    /// Private-heap bump cursor (non-dIPC processes).
    pub heap_next: u64,
    /// File descriptor table.
    pub fds: Vec<Option<KObject>>,
    /// Threads belonging to this process.
    pub threads: Vec<Tid>,
    /// Number of stacks handed out (stack slot allocator).
    pub stacks_alloc: u64,
    /// Process is alive.
    pub alive: bool,
    /// Accumulated CPU cycles charged to this process.
    pub cpu_time: u64,
}

impl Process {
    /// Installs `obj` in the lowest free fd slot.
    pub fn add_fd(&mut self, obj: KObject) -> crate::object::Fd {
        for (i, slot) in self.fds.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(obj);
                return crate::object::Fd(i as u32);
            }
        }
        self.fds.push(Some(obj));
        crate::object::Fd((self.fds.len() - 1) as u32)
    }

    /// Looks up an fd.
    pub fn fd(&self, fd: u32) -> Option<&KObject> {
        self.fds.get(fd as usize).and_then(|o| o.as_ref())
    }

    /// Removes an fd, returning its object.
    pub fn take_fd(&mut self, fd: u32) -> Option<KObject> {
        self.fds.get_mut(fd as usize).and_then(|o| o.take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc0() -> Process {
        Process {
            pid: Pid(1),
            name: "p".into(),
            pt: PageTableId(0),
            dipc_enabled: false,
            default_domain: DomainTag(1),
            layout: ProcLayout::default(),
            blocks: Vec::new(),
            heap_next: 0,
            fds: Vec::new(),
            threads: Vec::new(),
            stacks_alloc: 0,
            alive: true,
            cpu_time: 0,
        }
    }

    #[test]
    fn fd_table_reuses_slots() {
        let mut p = proc0();
        let a = p.add_fd(KObject::Sock(1));
        let b = p.add_fd(KObject::Sock(2));
        assert_eq!((a.0, b.0), (0, 1));
        assert_eq!(p.take_fd(0), Some(KObject::Sock(1)));
        let c = p.add_fd(KObject::Sock(3));
        assert_eq!(c.0, 0, "freed slot is reused");
        assert_eq!(p.fd(1), Some(&KObject::Sock(2)));
        assert_eq!(p.fd(9), None);
    }

    #[test]
    fn ctx_save_restore_roundtrip() {
        let mut cpu = Cpu::new(0);
        cpu.pc = 0x1234;
        cpu.regs[5] = 99;
        cpu.cur_dom = DomainTag(7);
        let mut ctx = ThreadCtx::at(0, cpu.active_pt, DomainTag::KERNEL);
        ctx.save(&cpu);
        let mut cpu2 = Cpu::new(1);
        ctx.restore(&mut cpu2);
        assert_eq!(cpu2.pc, 0x1234);
        assert_eq!(cpu2.regs[5], 99);
        assert_eq!(cpu2.cur_dom, DomainTag(7));
    }
}
