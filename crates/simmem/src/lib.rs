//! Simulated memory subsystem for the dIPC/CODOMs reproduction.
//!
//! This crate provides the memory substrate every other layer builds on:
//!
//! * [`phys`] — sparse simulated physical memory (4 KiB frames).
//! * [`page`] — page-size constants, page flags and CODOMs per-page metadata
//!   (domain tag, privileged-capability bit, capability-storage bit).
//! * [`pagetable`] — per-address-space page tables mapping virtual pages to
//!   physical frames plus CODOMs metadata.
//! * [`tlb`] — a small set-associative TLB model used for cost accounting of
//!   page-table switches.
//! * [`vas`] — the global virtual address space allocator used by dIPC to map
//!   all dIPC-enabled processes into one shared page table (1 GiB block
//!   reservations with per-block suballocation), plus a conventional
//!   per-process layout helper for non-dIPC processes.
//! * [`mem`] — the [`mem::Memory`] façade combining physical memory and a set
//!   of page tables, which the VM and kernel use for all accesses. It fronts
//!   the page tables with a host-side translation cache (a pure host-speed
//!   optimisation, invisible to the simulation).
//! * [`idmap`] — [`IdMap`], the `HashMap` with a fixed integer hasher under
//!   the page tables and the kernel's thread, process and futex tables.
//! * [`fastpath`] — the process-wide engine switch (`CDVM_NO_FASTPATH`):
//!   the fast engine with its host-side caches here and in `cdvm`, or the
//!   cache-free reference interpreter.
//!
//! The design follows the paper's §6.1.3: dIPC-enabled processes share a
//! single page table within a global virtual address space, while regular
//! processes keep private page tables.

pub mod fastpath;
pub mod idmap;
pub mod mem;
pub mod page;
pub mod pagetable;
pub mod phys;
pub mod tlb;
pub mod vas;

pub use fastpath::{fastpath_enabled, set_fastpath};
pub use idmap::IdMap;
pub use mem::{MemFault, Memory};
pub use page::{DomainTag, PageFlags, PAGE_SHIFT, PAGE_SIZE};
pub use pagetable::{PageTable, PageTableId, Pte};
pub use phys::{FrameId, PhysMem};
pub use tlb::{Tlb, TlbConfig, TlbStats};
pub use vas::{BlockId, GlobalVas, ProcLayout, VasError};
