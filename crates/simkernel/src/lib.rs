//! A simulated multi-CPU OS kernel for the dIPC reproduction.
//!
//! This crate plays the role of the paper's modified Linux 3.9: it provides
//! processes, threads, a per-CPU scheduler, futexes, pipes, UNIX-style named
//! sockets, shared memory, files with storage latency models, and IPIs — all
//! driven by a discrete-event simulation over [`cdvm`] CPUs. Per-CPU time is
//! attributed to the seven categories of Figure 2 (user code, syscall
//! entry/exit microcode, dispatch trampoline, kernel code, scheduling and
//! context switch, page-table switch, idle/IO wait), which is how the
//! benchmark harnesses regenerate the paper's breakdown figures.
//!
//! The kernel is deliberately *extensible from the outside*: unknown
//! syscalls and user faults are returned to the embedder ([`KStep`]), which
//! is how the `dipc` crate layers the paper's contribution on top without
//! the kernel knowing about it (mirroring the 9 K-line kernel patch of
//! §6.1).

pub mod accounting;
pub mod checker;
pub mod costs;
pub mod event;
pub mod kernel;
pub mod object;
pub mod percpu;
pub mod process;
pub mod sched;
pub mod syscall;
pub mod table;

pub use accounting::{TimeBreakdown, TimeCat};
pub use costs::SysCosts;
pub use event::{Event, EventQueue};
pub use kernel::{KStep, Kernel, KernelConfig, WakePolicy};
pub use object::{Fd, KObject};
pub use process::{BlockReason, Pid, Process, Thread, ThreadCtx, ThreadState, Tid};
pub use syscall::nr as sysno;
pub use table::{DenseId, DenseTable};
