//! The CODOMs virtual machine (cdvm).
//!
//! A 64-bit RISC-style machine that executes instruction streams out of
//! simulated memory ([`simmem::Memory`]) under the CODOMs protection model
//! ([`codoms`]), with a calibrated cycle cost model. The dIPC paper evaluated
//! on real x86-64 hardware *emulating* CODOMs semantics (§7.1); we invert
//! that substitution: a simulated machine that *enforces* CODOMs semantics
//! and charges costs calibrated against the paper's measured anchors
//! (function call ≈ 2 ns, null system call ≈ 34 ns, etc.).
//!
//! Module map:
//! * [`isa`] — the instruction set and its fixed 8-byte binary encoding.
//! * [`asm`] — an assembler with labels and load-time relocations (dIPC's
//!   run-time proxy generation patches immediates exactly the way §6.1.1
//!   describes: "adjusts the template's values via symbol relocation").
//! * [`disasm`] — a disassembler for debugging and golden tests.
//! * [`cost`] — the cycle/event cost model and the Table 3 machine config.
//! * [`cpu`] — the executor: per-CPU architectural state (GPRs, capability
//!   registers, DCS bounds, APL cache, TLBs) and the fetch/check/execute
//!   loop.
//! * [`icache`] — the host-side per-page decoded-instruction cache behind
//!   the fetch fast path (disable with `CDVM_NO_FASTPATH=1`).
//! * [`blocks`] — the superblock cache: straight-line instruction runs
//!   validated once per entry and dispatched block-to-block with batched
//!   cost accounting (disable with `CDVM_NO_BLOCKS=1`). Block edges also
//!   carry pre-validated cross-domain crossing descriptors
//!   (disable with `CDVM_NO_XBLOCKS=1`).
//! * [`threaded`] — direct-threaded dispatch for the pure ALU prefix of a
//!   block: pre-resolved handler pointers instead of a `match` per
//!   instruction (disable with `CDVM_NO_THREADED=1`).
//! * [`dcache`] — the per-CPU memory-operand translation cache: repeated
//!   same-page loads/stores skip the full page walk and CODOMs data check
//!   (shares the `CDVM_NO_XBLOCKS=1` kill switch).

pub mod asm;
pub mod blocks;
pub mod cost;
pub mod cpu;
pub mod dcache;
pub mod disasm;
pub mod icache;
pub mod isa;
pub mod stats;
pub mod threaded;

pub use asm::{Asm, Reloc, RelocKind};
pub use blocks::{BlockCache, BlockStats};
pub use cost::{CostModel, MachineConfig};
pub use cpu::{Cpu, Fault, FaultKind, RunExit, StepEvent};
pub use icache::InstrCache;
pub use isa::{reg, CapReg, Instr, Reg, INSTR_BYTES};
pub use stats::{ExecStats, HostCacheStats, InstrClass, TraceRing};
