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
//!   registers, DCS bounds, APL cache, TLBs) and the two engines behind
//!   `Cpu::run`. The *reference* is `Cpu::step` in a loop: every fetch is
//!   translated, checked and decoded from scratch, with no host cache of
//!   any kind. The *fast* engine (the default) is the three modules below;
//!   `CDVM_NO_FASTPATH=1` selects the reference instead, and the two are
//!   differentially tested byte-identical.
//! * [`blocks`] — the superblock cache: instruction runs decoded once,
//!   validated once per entry and dispatched block-to-block with batched
//!   cost accounting, deadline-exact. Block edges also carry pre-validated
//!   cross-domain crossing descriptors.
//! * [`threaded`] — direct-threaded dispatch for the pure instructions of
//!   a block: pre-resolved handler pointers instead of a `match` per
//!   instruction.
//! * [`dcache`] — the per-CPU memory-operand translation cache: repeated
//!   same-page loads/stores skip the full page walk and CODOMs data check.

pub mod asm;
pub mod blocks;
pub mod cost;
pub mod cpu;
pub mod dcache;
pub mod disasm;
pub mod isa;
pub mod stats;
pub mod threaded;

pub use asm::{Asm, Reloc, RelocKind};
pub use blocks::{BlockCache, BlockStats};
pub use cost::{CostModel, MachineConfig};
pub use cpu::{Cpu, Fault, FaultKind, RunExit, StepEvent};
pub use isa::{reg, CapReg, Instr, Reg, INSTR_BYTES};
pub use stats::{ExecStats, HostCacheStats, InstrClass, TraceRing};
