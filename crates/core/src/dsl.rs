//! The "compiler pass + application loader" layer (§5.3, §6.2).
//!
//! The paper annotates C sources with `dom`, `entry`, `perm`, `iso_caller`
//! and `iso_callee`, and a source-to-source pass emits stubs and extra
//! binary sections that the loader uses to auto-configure domains and
//! resolve entry points. Our equivalent is declarative: an [`AppSpec`]
//! names a process's exports (entry points with callee-side policies) and
//! imports (calls into other processes with caller-side policies and
//! liveness sets); [`World::build`] assembles the user code together with
//! auto-generated callee stubs and caller call-shims (GOT-indirect), and
//! [`World::link`] performs entry resolution — `entry_register` /
//! `entry_request` / `grant_create` — and patches the GOT.
//!
//! Entry resolution in the paper flows over UNIX named sockets on first
//! call (steps A–B of Figure 3); we resolve eagerly at link time through
//! the same handle-passing machinery ([`crate::System::pass_handle`] models
//! SCM_RIGHTS), which exercises the identical dIPC object path minus the
//! lazy trigger.

use std::collections::HashMap;

use cdvm::isa::{reg, Reg};
use cdvm::{Asm, Instr};
use simkernel::kernel::Loaded;
use simkernel::{Pid, Tid};
use simmem::PageFlags;

use crate::api::{EntryDesc, Handle, IsoProps, Signature};
use crate::stubs;
use crate::system::System;

/// An exported entry point (the `entry` + `iso_callee` annotations).
#[derive(Clone, Debug, PartialEq)]
pub struct EntrySpec {
    /// Label of the implementing function in the app's code.
    pub name: String,
    /// Signature.
    pub sig: Signature,
    /// Callee-side isolation policy.
    pub policy: IsoProps,
}

/// An imported entry point (caller stub request: `iso_caller` + liveness).
#[derive(Clone, Debug, PartialEq)]
pub struct ImportSpec {
    /// Exporting process name.
    pub process: String,
    /// Entry name in the exporting process.
    pub entry: String,
    /// Expected signature (must match the export — P4).
    pub sig: Signature,
    /// Caller-side isolation policy.
    pub policy: IsoProps,
    /// Callee-saved registers live across the call (liveness info for the
    /// stub generator; worst case = all of [`reg::CALLEE_SAVED`]).
    pub live: Vec<Reg>,
}

/// Additional domains inside a process (the `dom` annotation). The DSL
/// keeps code in the default domain; extra domains are data pools.
#[derive(Clone, Debug, PartialEq)]
pub struct DomainSpec {
    /// Name for later lookup.
    pub name: String,
    /// Bytes of memory to allocate in the domain.
    pub size: u64,
}

/// A declarative process description.
pub struct AppSpec {
    /// Process name (doubles as the "named socket" path for resolution).
    pub name: String,
    /// Emits the application code (functions referenced by exports, and
    /// calls to `call_<process>_<entry>` shims for imports).
    pub build: Box<dyn Fn(&mut Asm)>,
    /// Exports.
    pub exports: Vec<EntrySpec>,
    /// Imports.
    pub imports: Vec<ImportSpec>,
    /// Extra data domains.
    pub domains: Vec<DomainSpec>,
    /// Named data regions in the default domain; code references them via
    /// `li_sym(reg, "$data_<name>")`.
    pub data: Vec<(String, u64)>,
}

impl AppSpec {
    /// A process with no exports/imports.
    pub fn new(name: &str, build: impl Fn(&mut Asm) + 'static) -> AppSpec {
        AppSpec {
            name: name.to_string(),
            build: Box::new(build),
            exports: Vec::new(),
            imports: Vec::new(),
            domains: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Adds an export.
    pub fn export(mut self, name: &str, sig: Signature, policy: IsoProps) -> AppSpec {
        self.exports.push(EntrySpec { name: name.to_string(), sig, policy });
        self
    }

    /// Adds an import with the worst-case liveness set.
    pub fn import(
        mut self,
        process: &str,
        entry: &str,
        sig: Signature,
        policy: IsoProps,
    ) -> AppSpec {
        self.imports.push(ImportSpec {
            process: process.to_string(),
            entry: entry.to_string(),
            sig,
            policy,
            live: reg::CALLEE_SAVED.to_vec(),
        });
        self
    }

    /// Adds an import with explicit liveness.
    pub fn import_live(
        mut self,
        process: &str,
        entry: &str,
        sig: Signature,
        policy: IsoProps,
        live: &[Reg],
    ) -> AppSpec {
        self.imports.push(ImportSpec {
            process: process.to_string(),
            entry: entry.to_string(),
            sig,
            policy,
            live: live.to_vec(),
        });
        self
    }

    /// Adds a data domain.
    pub fn domain(mut self, name: &str, size: u64) -> AppSpec {
        self.domains.push(DomainSpec { name: name.to_string(), size });
        self
    }

    /// Adds a named data region in the default domain, referenced from code
    /// as `$data_<name>`.
    pub fn data(mut self, name: &str, size: u64) -> AppSpec {
        self.data.push((name.to_string(), size));
        self
    }
}

/// A loaded dIPC process.
pub struct BuiltApp {
    /// Kernel process id.
    pub pid: Pid,
    /// Load image (label → absolute address).
    pub img: Loaded,
    /// GOT base (one 8-byte slot per import, in import order).
    pub got: u64,
    /// Owner handle on the default domain.
    pub dom: Handle,
    /// Entry handle per export name.
    pub export_handles: HashMap<String, Handle>,
    /// Extra domains: name → (owner handle, base address, size).
    pub data_domains: HashMap<String, (Handle, u64, u64)>,
    /// Named default-domain data regions: name → base address.
    pub data: HashMap<String, u64>,
    imports: Vec<ImportSpec>,
}

impl BuiltApp {
    /// Absolute address of a label in the app's code.
    pub fn addr(&self, label: &str) -> u64 {
        self.img.addr(label)
    }
}

/// A collection of dIPC processes being wired together.
pub struct World {
    /// The dIPC system.
    pub sys: System,
    /// Built apps by name.
    pub apps: HashMap<String, BuiltApp>,
}

impl World {
    /// Creates a world over a fresh system.
    pub fn new(cfg: simkernel::KernelConfig) -> World {
        World { sys: System::new(cfg), apps: HashMap::new() }
    }

    /// Assembles a spec into its final instruction stream: user code, then
    /// auto-generated callee stubs, then import call shims (the "compiler"
    /// half of §5.3). Returns the program and the stub label per export.
    pub fn assemble(spec: &AppSpec) -> (cdvm::asm::Program, HashMap<String, String>) {
        let mut a = Asm::new();
        (spec.build)(&mut a);
        let mut stub_labels = HashMap::new();
        for e in &spec.exports {
            let label = stubs::emit_callee_stub(&mut a, &e.name, e.sig, e.policy);
            stub_labels.insert(e.name.clone(), label);
        }
        for (i, imp) in spec.imports.iter().enumerate() {
            a.align(8);
            a.label(&format!("call_{}_{}", imp.process, imp.entry));
            // Preserve ra across the inner proxy call.
            a.push(Instr::Addi { rd: reg::SP, rs1: reg::SP, imm: -8 });
            a.push(Instr::St { rs1: reg::SP, rs2: reg::RA, imm: 0 });
            // Load the proxy address from the GOT.
            a.li_sym(reg::T6, &format!("$got_{i}"));
            a.push(Instr::Ld { rd: reg::T6, rs1: reg::T6, imm: 0 });
            stubs::emit_caller_stub(&mut a, imp.sig, imp.policy, &imp.live);
            a.push(Instr::Ld { rd: reg::RA, rs1: reg::SP, imm: 0 });
            a.push(Instr::Addi { rd: reg::SP, rs1: reg::SP, imm: 8 });
            a.ret();
        }
        (a.finish(), stub_labels)
    }

    /// Builds and loads one process from a spec (the loader, phase 1):
    /// assembles user code + auto-generated stubs, allocates the GOT,
    /// loads everything into the process's default domain, and registers
    /// the exports.
    pub fn build(&mut self, spec: AppSpec) {
        let (prog, stub_labels) = World::assemble(&spec);
        self.load_assembled(
            &spec.name,
            prog,
            stub_labels,
            &spec.exports,
            &spec.imports,
            &spec.domains,
            &spec.data,
        );
    }

    /// The loader half: installs an already-assembled program (from
    /// [`World::assemble`] or a deserialized [`crate::image::DipcImage`])
    /// as a dIPC process.
    #[allow(clippy::too_many_arguments)]
    pub fn load_assembled(
        &mut self,
        name: &str,
        prog: cdvm::asm::Program,
        stub_labels: HashMap<String, String>,
        exports: &[EntrySpec],
        imports: &[ImportSpec],
        domains: &[DomainSpec],
        data_decls: &[(String, u64)],
    ) {
        let pid = self.sys.k.create_process(name, true);

        // GOT.
        let got = self.sys.k.alloc_mem(pid, 8 * imports.len().max(1) as u64, PageFlags::RW);
        let mut externs = HashMap::new();
        for i in 0..imports.len() {
            externs.insert(format!("$got_{i}"), got + i as u64 * 8);
        }
        // Named data regions.
        let mut data = HashMap::new();
        for (dname, size) in data_decls {
            let base = self.sys.k.alloc_mem(pid, *size, PageFlags::RW);
            externs.insert(format!("$data_{dname}"), base);
            data.insert(dname.clone(), base);
        }
        let img = self.sys.k.load_program(pid, &prog, &externs);

        // Register exports (one entry handle per export; the paper allows
        // arrays, our benches register singletons for simple resolution).
        let dom = self.sys.dom_default(pid);
        let mut export_handles = HashMap::new();
        for e in exports {
            let stub_addr = img.addr(&stub_labels[&e.name]);
            let desc = EntryDesc { address: stub_addr, signature: e.sig, policy: e.policy };
            let h = self
                .sys
                .entry_register(pid, dom, vec![desc])
                .expect("export registration is well-formed by construction");
            export_handles.insert(e.name.clone(), h);
        }

        // Extra data domains.
        let mut data_domains = HashMap::new();
        for d in domains {
            let h = self.sys.dom_create(pid);
            let base = self
                .sys
                .dom_mmap(pid, h, d.size, PageFlags::RW)
                .expect("fresh owner handle can mmap");
            data_domains.insert(d.name.clone(), (h, base, d.size));
        }

        self.apps.insert(
            name.to_string(),
            BuiltApp {
                pid,
                img,
                got,
                dom,
                export_handles,
                data_domains,
                data,
                imports: imports.to_vec(),
            },
        );
    }

    /// Entry resolution (the loader, phase 2): for every import, pass the
    /// exporter's entry handle to the importer, request proxies, grant the
    /// importer Call permission on the proxy domain, and patch the GOT.
    pub fn link(&mut self) {
        let names: Vec<String> = self.apps.keys().cloned().collect();
        for name in names {
            let n = self.apps[&name].imports.len();
            for i in 0..n {
                self.link_one(&name, i);
            }
        }
    }

    /// Resolves a single import of app `name` (GOT slot `idx`): passes the
    /// exporter's entry handle, requests a fresh proxy, grants Call on the
    /// proxy domain, and patches that one GOT slot. This is also the
    /// *relink* path: after an exporter is killed and reloaded under the
    /// same name, relinking the slot points the importer at the fresh
    /// instance while any other (stale) proxy keeps failing with
    /// `DIPC_ERR_FAULT`.
    pub fn link_one(&mut self, name: &str, idx: usize) {
        let (pid, dom, got, imp) = {
            let app = &self.apps[name];
            (app.pid, app.dom, app.got, app.imports[idx].clone())
        };
        let exporter = self
            .apps
            .get(&imp.process)
            .unwrap_or_else(|| panic!("import from unknown process {}", imp.process));
        let export_pid = exporter.pid;
        let eh = *exporter
            .export_handles
            .get(&imp.entry)
            .unwrap_or_else(|| panic!("unknown entry {}:{}", imp.process, imp.entry));
        // Handle delegation (SCM_RIGHTS over the named socket).
        let eh = self
            .sys
            .pass_handle(export_pid, pid, eh)
            .expect("entry handle passes between live processes");
        let req = EntryDesc { address: 0, signature: imp.sig, policy: imp.policy };
        let (proxy_dom, addrs) = self
            .sys
            .entry_request(pid, eh, vec![req])
            .expect("signatures were checked against the export");
        self.sys.grant_create(pid, dom, proxy_dom).expect("importer owns its default domain");
        self.sys
            .k
            .mem
            .kwrite_u64(simmem::Memory::GLOBAL_PT, got + idx as u64 * 8, addrs[0])
            .expect("GOT is mapped");
    }

    /// Spawns a thread in app `name` at `label`.
    pub fn spawn(&mut self, name: &str, label: &str, args: &[u64]) -> Tid {
        let app = &self.apps[name];
        let entry = app.img.addr(label);
        self.sys.k.spawn_thread(app.pid, entry, args)
    }

    /// Convenience accessor.
    pub fn app(&self, name: &str) -> &BuiltApp {
        &self.apps[name]
    }
}
