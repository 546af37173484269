//! Assembling complete microcode suites and building ready-to-run machines.
//!
//! A Dorado boots with one microstore image holding the resident emulator
//! plus every device task's microcode (§5.1).  [`SuiteBuilder`] collects
//! the selected modules, places them (with the trap handler at microstore
//! address 0, where unknown opcodes dispatch), and [`Suite`] wires the
//! result into a [`Dorado`].

use dorado_asm::{AsmError, Assembler, Inst, MicroProgram, PlacedProgram};
use dorado_core::{BuildError, Dorado, DoradoBuilder};

use crate::{bitblt, devices, layout, mesa};

/// Which microcode modules a suite contains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Modules {
    /// The Mesa emulator.
    pub mesa: bool,
    /// The Lisp emulator.
    pub lisp: bool,
    /// The BCPL emulator.
    pub bcpl: bool,
    /// The Smalltalk emulator.
    pub smalltalk: bool,
    /// BitBlt.
    pub bitblt: bool,
    /// Disk read service loop.
    pub disk_read: bool,
    /// Disk write service loop.
    pub disk_write: bool,
    /// Display fast-I/O refresh loop.
    pub display: bool,
    /// Grain-3 display loop (the §6.2.1 ablation).
    pub display_grain3: bool,
    /// Fast-I/O sink loop for synthetic devices.
    pub fastio_sink: bool,
    /// Slow-I/O sink loop for synthetic devices.
    pub slow_sink: bool,
    /// Network receive loop.
    pub network: bool,
    /// Cluster workload programs (echo server, request generators).
    pub cluster: bool,
    /// Workstation scenario loops: framed display, keyboard, mouse, idle.
    pub scenario: bool,
}

/// Builder for a complete microcode suite.
///
/// # Examples
///
/// ```
/// use dorado_emu::SuiteBuilder;
///
/// let suite = SuiteBuilder::new().with_mesa().assemble()?;
/// let placed = suite.placed();
/// assert!(placed.address_of("mesa:boot").is_some());
/// # Ok::<(), dorado_asm::AsmError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct SuiteBuilder {
    modules: Modules,
}

impl SuiteBuilder {
    /// An empty suite (just the trap handler).
    pub fn new() -> Self {
        SuiteBuilder::default()
    }

    /// Enables every module.
    pub fn everything() -> Self {
        SuiteBuilder {
            modules: Modules {
                mesa: true,
                lisp: true,
                bcpl: true,
                smalltalk: true,
                bitblt: true,
                disk_read: true,
                disk_write: true,
                display: true,
                display_grain3: true,
                fastio_sink: true,
                slow_sink: true,
                network: true,
                cluster: true,
                scenario: true,
            },
        }
    }

    /// Adds the Mesa emulator.
    #[must_use]
    pub fn with_mesa(mut self) -> Self {
        self.modules.mesa = true;
        self
    }

    /// Adds the Lisp emulator.
    #[must_use]
    pub fn with_lisp(mut self) -> Self {
        self.modules.lisp = true;
        self
    }

    /// Adds the BCPL emulator.
    #[must_use]
    pub fn with_bcpl(mut self) -> Self {
        self.modules.bcpl = true;
        self
    }

    /// Adds the Smalltalk emulator.
    #[must_use]
    pub fn with_smalltalk(mut self) -> Self {
        self.modules.smalltalk = true;
        self
    }

    /// Adds BitBlt.
    #[must_use]
    pub fn with_bitblt(mut self) -> Self {
        self.modules.bitblt = true;
        self
    }

    /// Adds the disk service loops (read and write).
    #[must_use]
    pub fn with_disk(mut self) -> Self {
        self.modules.disk_read = true;
        self.modules.disk_write = true;
        self
    }

    /// Adds the display fast-I/O loop.
    #[must_use]
    pub fn with_display(mut self) -> Self {
        self.modules.display = true;
        self
    }

    /// Adds the grain-3 display loop.
    #[must_use]
    pub fn with_display_grain3(mut self) -> Self {
        self.modules.display_grain3 = true;
        self
    }

    /// Adds the synthetic-device sinks (fast and slow).
    #[must_use]
    pub fn with_synth_sinks(mut self) -> Self {
        self.modules.fastio_sink = true;
        self.modules.slow_sink = true;
        self
    }

    /// Adds the network receive loop.
    #[must_use]
    pub fn with_network(mut self) -> Self {
        self.modules.network = true;
        self
    }

    /// Adds the cluster workload programs (echo server and clients).
    #[must_use]
    pub fn with_cluster(mut self) -> Self {
        self.modules.cluster = true;
        self
    }

    /// Adds the workstation scenario loops (framed display with field
    /// wrap, keyboard, mouse, and the scripted-run idle loop).
    #[must_use]
    pub fn with_scenario(mut self) -> Self {
        self.modules.scenario = true;
        self
    }

    /// Assembles and places the suite.
    ///
    /// # Errors
    ///
    /// Propagates placement failures.
    pub fn assemble(self) -> Result<Suite, AsmError> {
        let (modules, program) = self.program();
        Ok(Suite {
            modules,
            placed: program.place()?,
        })
    }

    /// Emits the suite as a symbolic [`MicroProgram`] without placing
    /// it — the entry point for external rewriters (`dorado-uopt`)
    /// that transform the listing before placement.
    pub fn program(self) -> (Modules, MicroProgram) {
        let mut a = Assembler::new();
        // Microstore address 0: the trap for undefined opcodes (the IFU's
        // default decode entry) — halt so tests notice immediately.
        a.label("trap");
        a.emit(Inst::new().ff_halt().goto_("trap"));
        let m = self.modules;
        if m.mesa {
            mesa::emit_microcode(&mut a);
        }
        if m.lisp {
            crate::lisp::emit_microcode(&mut a);
        }
        if m.bcpl {
            crate::bcpl::emit_microcode(&mut a);
        }
        if m.smalltalk {
            crate::smalltalk::emit_microcode(&mut a);
        }
        if m.bitblt {
            bitblt::emit_microcode(&mut a);
        }
        if m.disk_read {
            devices::emit_disk_read(&mut a);
        }
        if m.disk_write {
            devices::emit_disk_write(&mut a);
        }
        if m.display {
            devices::emit_display_fastio(&mut a);
        }
        if m.display_grain3 {
            devices::emit_display_fastio_grain3(&mut a);
        }
        if m.fastio_sink {
            devices::emit_fastio_sink(&mut a);
        }
        if m.slow_sink {
            devices::emit_slow_sink(&mut a);
        }
        if m.network {
            devices::emit_network_rx(&mut a);
        }
        if m.cluster {
            crate::cluster::emit_microcode(&mut a);
        }
        if m.scenario {
            devices::emit_display_framed(&mut a);
            devices::emit_keyboard_rx(&mut a);
            devices::emit_mouse_rx(&mut a);
            devices::emit_scenario_idle(&mut a);
        }
        (m, a.program())
    }
}

/// A placed microcode suite, ready to wire into machines.
#[derive(Debug, Clone)]
pub struct Suite {
    modules: Modules,
    placed: PlacedProgram,
}

impl Suite {
    /// Wraps an externally-placed image (e.g. one rewritten by
    /// `dorado-uopt` from [`SuiteBuilder::program`]) in a suite.
    pub fn from_parts(modules: Modules, placed: PlacedProgram) -> Self {
        Suite { modules, placed }
    }

    /// The placed microstore image.
    pub fn placed(&self) -> &PlacedProgram {
        &self.placed
    }

    /// Which modules are present.
    pub fn modules(&self) -> &Modules {
        &self.modules
    }

    /// Starts a [`DoradoBuilder`] preloaded with this suite's microcode.
    pub fn machine(&self) -> DoradoBuilder {
        DoradoBuilder::new().microcode(self.placed.clone())
    }
}

/// Builds a ready-to-run Mesa machine: suite with the Mesa emulator, the
/// IFU decode table installed, the runtime initialized, and `bytes` loaded
/// at the code base.
///
/// # Errors
///
/// Propagates placement and build failures.
///
/// # Examples
///
/// ```
/// use dorado_emu::{mesa::MesaAsm, suite::build_mesa};
///
/// let mut p = MesaAsm::new();
/// p.lib(20);
/// p.lib(22);
/// p.add();
/// p.halt();
/// let mut m = build_mesa(&p.assemble().unwrap())?;
/// assert!(m.run(10_000).halted());
/// assert_eq!(dorado_emu::mesa::tos(&m), 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn build_mesa(bytes: &[u8]) -> Result<Dorado, SuiteError> {
    build_mesa_with(bytes, |b| b)
}

/// Like [`build_mesa`], letting the caller adjust the machine builder
/// (memory configuration, clock, extra devices).
///
/// # Errors
///
/// Propagates placement and build failures.
pub fn build_mesa_with(
    bytes: &[u8],
    customize: impl FnOnce(DoradoBuilder) -> DoradoBuilder,
) -> Result<Dorado, SuiteError> {
    let suite = SuiteBuilder::new().with_mesa().assemble()?;
    build_mesa_on_with(&suite, bytes, customize)
}

/// Like [`build_mesa`], on a caller-supplied suite (which must contain
/// the Mesa emulator) — the entry point for running programs on an
/// optimized or otherwise externally-placed image.
///
/// # Errors
///
/// Propagates build failures.
pub fn build_mesa_on(suite: &Suite, bytes: &[u8]) -> Result<Dorado, SuiteError> {
    build_mesa_on_with(suite, bytes, |b| b)
}

/// Like [`build_mesa_on`], letting the caller adjust the machine builder.
///
/// # Errors
///
/// Propagates build failures.
pub fn build_mesa_on_with(
    suite: &Suite,
    bytes: &[u8],
    customize: impl FnOnce(DoradoBuilder) -> DoradoBuilder,
) -> Result<Dorado, SuiteError> {
    let builder = customize(suite.machine().task_entry(layout::TASK_EMU, "mesa:boot"));
    let mut m = builder.build()?;
    mesa::configure_ifu(&mut m);
    mesa::init_runtime(&mut m);
    mesa::load_program(&mut m, bytes);
    Ok(m)
}

/// Builds a ready-to-run Lisp machine.
///
/// # Errors
///
/// Propagates placement and build failures.
pub fn build_lisp(bytes: &[u8]) -> Result<Dorado, SuiteError> {
    let suite = SuiteBuilder::new().with_lisp().assemble()?;
    build_lisp_on(&suite, bytes)
}

/// Like [`build_lisp`], on a caller-supplied suite (which must contain
/// the Lisp emulator).
///
/// # Errors
///
/// Propagates build failures.
pub fn build_lisp_on(suite: &Suite, bytes: &[u8]) -> Result<Dorado, SuiteError> {
    let mut m = suite
        .machine()
        .task_entry(layout::TASK_EMU, "lisp:boot")
        .build()?;
    crate::lisp::configure_ifu(&mut m);
    crate::lisp::init_runtime(&mut m);
    crate::lisp::load_program(&mut m, bytes);
    Ok(m)
}

/// Builds a ready-to-run BCPL machine.
///
/// # Errors
///
/// Propagates placement and build failures.
pub fn build_bcpl(bytes: &[u8]) -> Result<Dorado, SuiteError> {
    let suite = SuiteBuilder::new().with_bcpl().assemble()?;
    build_bcpl_on(&suite, bytes)
}

/// Like [`build_bcpl`], on a caller-supplied suite (which must contain
/// the BCPL emulator).
///
/// # Errors
///
/// Propagates build failures.
pub fn build_bcpl_on(suite: &Suite, bytes: &[u8]) -> Result<Dorado, SuiteError> {
    let mut m = suite
        .machine()
        .task_entry(layout::TASK_EMU, "bcpl:boot")
        .build()?;
    crate::bcpl::configure_ifu(&mut m);
    crate::bcpl::init_runtime(&mut m);
    crate::bcpl::load_program(&mut m, bytes);
    Ok(m)
}

/// Builds a ready-to-run Smalltalk machine.
///
/// # Errors
///
/// Propagates placement and build failures.
pub fn build_smalltalk(bytes: &[u8]) -> Result<Dorado, SuiteError> {
    let suite = SuiteBuilder::new().with_smalltalk().assemble()?;
    build_smalltalk_on(&suite, bytes)
}

/// Like [`build_smalltalk`], on a caller-supplied suite (which must
/// contain the Smalltalk emulator).
///
/// # Errors
///
/// Propagates build failures.
pub fn build_smalltalk_on(suite: &Suite, bytes: &[u8]) -> Result<Dorado, SuiteError> {
    let mut m = suite
        .machine()
        .task_entry(layout::TASK_EMU, "st:boot")
        .build()?;
    crate::smalltalk::configure_ifu(&mut m);
    crate::smalltalk::init_runtime(&mut m);
    crate::mesa::load_program(&mut m, bytes);
    Ok(m)
}

/// Errors from suite construction.
#[derive(Debug)]
#[non_exhaustive]
pub enum SuiteError {
    /// Microcode assembly or placement failed.
    Asm(AsmError),
    /// Machine construction failed.
    Build(BuildError),
}

impl std::fmt::Display for SuiteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuiteError::Asm(e) => write!(f, "microcode assembly: {e}"),
            SuiteError::Build(e) => write!(f, "machine build: {e}"),
        }
    }
}

impl std::error::Error for SuiteError {}

impl From<AsmError> for SuiteError {
    fn from(e: AsmError) -> Self {
        SuiteError::Asm(e)
    }
}

impl From<BuildError> for SuiteError {
    fn from(e: BuildError) -> Self {
        SuiteError::Build(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesa_suite_assembles() {
        let suite = SuiteBuilder::new().with_mesa().assemble().unwrap();
        assert!(suite.placed().address_of("trap").is_some());
        assert_eq!(
            suite.placed().address_of("trap").unwrap().raw(),
            0,
            "trap must sit at microstore address 0 (the default decode entry)"
        );
        assert!(suite.modules().mesa);
    }

    #[test]
    fn full_suite_fits_the_microstore() {
        let suite = SuiteBuilder::everything().assemble().unwrap();
        let stats = suite.placed().stats();
        assert!(stats.used() < 4096, "suite must fit: {stats:?}");
        assert!(stats.utilization() > 0.8, "{stats:?}");
    }

    #[test]
    fn full_suite_passes_structural_verification() {
        let suite = SuiteBuilder::everything().assemble().unwrap();
        let violations = dorado_asm::verify::verify(suite.placed());
        assert!(violations.is_empty(), "{violations:#?}");
    }
}
