//! dIPC — direct inter-process communication on the CODOMs architecture.
//!
//! This crate is the paper's contribution (§§3, 5, 6): an OS extension that
//! maps dIPC-enabled processes into a shared global address space and lets a
//! thread in one process call a function in another process through a
//! runtime-generated *trusted proxy* — a regular synchronous function call
//! with no kernel involvement on the fast path, no marshalling, and
//! user-defined isolation policies.
//!
//! Layering:
//! * [`api`] — handle types, entry signatures, and isolation properties
//!   (Table 2 and §5.2.3).
//! * [`proxy`] — the proxy template assembler, template cache and
//!   relocation-based instantiation (§6.1.1) plus the fast process/stack
//!   switching paths (§6.1.2).
//! * [`stubs`] — the caller/callee stub generator: the untrusted user-level
//!   half of the isolation properties the optional compiler pass would emit
//!   (§5.3.1).
//! * [`system`] — [`system::System`]: the dIPC OS extension wrapping
//!   [`simkernel::Kernel`]; implements the Table 2 operations, the
//!   track-resolve cold path, KCS fault unwinding (§5.2.1), and the dIPC
//!   syscalls.
//! * [`dsl`] — the "annotation" layer: declarative process descriptions
//!   (domains, entries, imports, permissions) compiled into loadable images
//!   with auto-generated stubs, plus the loader and entry resolution
//!   (§5.3, §6.2).
//!
//! # Example
//!
//! Two processes; `web` calls `query` in `db` through a runtime-generated
//! proxy:
//!
//! ```
//! use cdvm::isa::reg::*;
//! use cdvm::{Asm, Instr};
//! use dipc::{AppSpec, IsoProps, Signature, World};
//!
//! let mut w = World::new(simkernel::KernelConfig::default());
//! w.build(
//!     AppSpec::new("db", |a| {
//!         a.label("query");
//!         a.push(Instr::Addi { rd: A0, rs1: A0, imm: 1 });
//!         a.ret();
//!     })
//!     .export("query", Signature::regs(1, 1), IsoProps::LOW),
//! );
//! w.build(
//!     AppSpec::new("web", |a| {
//!         a.label("main");
//!         a.li(A0, 41);
//!         a.jal(RA, "call_db_query");
//!         a.push(Instr::Halt);
//!     })
//!     .import("db", "query", Signature::regs(1, 1), IsoProps::LOW),
//! );
//! w.link(); // entry_register / entry_request / grant_create + GOT patch
//! let tid = w.spawn("web", "main", &[]);
//! w.sys.run_to_completion();
//! assert_eq!(w.sys.k.threads[&tid].exit_code, 42);
//! ```

pub mod api;
pub mod channel;
pub mod dsl;
pub mod image;
pub mod proxy;
pub mod stubs;
pub mod system;

pub use api::{DipcError, EntryDesc, Handle, HandlePerm, IsoProps, Signature};
pub use channel::{ChanRec, Channel, RingRef};
pub use dsl::{AppSpec, BuiltApp, DomainSpec, EntrySpec, ImportSpec, World};
pub use image::{DipcImage, ImageError};
pub use proxy::{ProxySpec, TemplateKey};
pub use system::{dsys, SysStep, System, DIPC_ERR_FAULT, DIPC_ERR_TIMEDOUT};
