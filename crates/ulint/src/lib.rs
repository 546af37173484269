#![forbid(unsafe_code)]
//! `dorado-ulint`: a static analyzer for Dorado microcode.
//!
//! The Dorado paper's hazards — Hold stalls (§3.2), the late branch
//! window (§3.1), the 64-word emulator stack (§6.3.3), the overloaded
//! FF field (§5.5) and the shared small registers across tasks (§6.2)
//! — are all *timing* properties the assembler cannot check word by
//! word.  This crate checks them statically: it builds a control-flow
//! graph over a placed microstore image ([`Cfg`]), runs a small
//! abstract-interpretation framework over it ([`analysis`]), and
//! reports findings as clippy-style diagnostics anchored to microstore
//! addresses ([`Diagnostic`]).
//!
//! The pass set ([`passes::all_passes`]):
//!
//! | pass | finds |
//! |------|-------|
//! | `ff-conflict` | structural placement violations plus decode-level FF double-claims |
//! | `hold-hazard` | definite/possible Hold sites, bypassed RAW pairs, fetch-less MEMDATA reads |
//! | `branch-window` | latched-flag branches whose flags a relay or callee clobbers |
//! | `stack-depth` | unbounded or >64-word emulator stack excursions |
//! | `task-safety` | shared COUNT/Q/SHIFTCTL/STACKPTR values live across task switches |
//! | `dead-code` | unreachable words and never-taken CNT=0 branch arms |
//! | `wasted-slot` | branch-window relays and hold-shadow no-ops (informational census) |
//!
//! Each image is analysed once, by [`analyze`]: the CFG, the root facts
//! (emulator-reached, I/O-reached and fetch-started, one flag byte per
//! word), the hold sites and the wasted-slot census, in one
//! [`Analyses`].  Everything else reads them from there.  The
//! diagnostic pipeline is a thin rendering of those facts: [`lint`] is
//! `analyze` followed by every pass over [`Analyses::ctx`].  The
//! slot-fill [`LintSession`] takes an `Analyses` over by value and keeps
//! it current under one-word patches, and `dorado-uopt` reads the same
//! facts as its dependence and safety oracle.
//!
//! The hold and stack site sets mirror the simulator's own checks, so
//! they are *validated differentially*: running a workload and mapping
//! every observed Hold or stack-error event back to a predicted site
//! must never miss (EXPERIMENTS.md E18).
//!
//! # Examples
//!
//! ```
//! use dorado_asm::{Assembler, Inst};
//!
//! let mut a = Assembler::new();
//! a.label("boot");
//! a.emit(Inst::new().goto_("boot"));
//! let placed = a.place().unwrap();
//! let report = dorado_ulint::lint(&placed);
//! assert_eq!(report.errors(), 0);
//! ```

pub mod analysis;
pub mod bytecode;
pub mod cfg;
pub mod diag;
pub mod differential;
pub mod passes;
pub mod session;

use std::time::Duration;

use dorado_asm::{PlacedProgram, SlotUse};
use dorado_base::MicroAddr;

use crate::analysis::Domain;
use crate::cfg::Node;

pub use cfg::Cfg;
pub use diag::{Diagnostic, Severity};
pub use passes::hold::{hold_sites, HoldSites};
pub use passes::stack_depth::stack_sites;
pub use passes::wasted_slot::{WasteKind, WastedSlot};
pub use passes::{all_passes, Pass, PassCtx};
pub use session::{LintSession, SessionWork};

/// Label prefixes that mark I/O-task microcode entries; all other
/// labels are emulator-task code (the label conventions are set by the
/// device modules in `dorado-emu`).
pub const IO_PREFIXES: &[&str] = &[
    "disk:", "diskw:", "disp:", "disp3:", "dispw:", "synthf:", "synths:", "net:", "eserv:",
    "clic:", "clid:", "kbd:", "mouse:",
];

/// Which labelled entries belong to which task class.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// Emulator-task entry labels and addresses.
    pub emu_roots: Vec<(String, MicroAddr)>,
    /// I/O-task entry labels and addresses.
    pub io_roots: Vec<(String, MicroAddr)>,
}

impl LintConfig {
    /// Classifies every label in `placed` by the [`IO_PREFIXES`]
    /// convention.  An occupied, unlabelled word 0 is an emulator root
    /// named `<word 0>`: tasks power up with TPC = 0, so the boot word is
    /// an entry even when nothing labels it.
    pub fn infer(placed: &PlacedProgram) -> Self {
        let mut config = LintConfig::default();
        for (label, addr) in placed.labels() {
            let dest = if IO_PREFIXES.iter().any(|p| label.starts_with(p)) {
                &mut config.io_roots
            } else {
                &mut config.emu_roots
            };
            dest.push((label.to_string(), addr));
        }
        let boot = MicroAddr::new(0);
        if matches!(placed.uses().first(), Some(SlotUse::Inst(_)))
            && !placed.labels().any(|(_, addr)| addr == boot)
        {
            config.emu_roots.push(("<word 0>".to_string(), boot));
        }
        config.emu_roots.sort();
        config.io_roots.sort();
        config
    }

    /// Emulator-task root addresses.
    pub fn emu_addrs(&self) -> Vec<MicroAddr> {
        self.emu_roots.iter().map(|&(_, a)| a).collect()
    }

    /// Every root with its [`RootFlags`] entry flag, emulator roots
    /// first.
    pub(crate) fn root_seeds(&self) -> Vec<(MicroAddr, u8)> {
        let emu = self.emu_roots.iter().map(|&(_, a)| (a, EMU));
        emu.chain(self.io_roots.iter().map(|&(_, a)| (a, IO)))
            .collect()
    }
}

/// The result of linting one placed image.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Every finding, in pass order then address order.
    pub diags: Vec<Diagnostic>,
    /// Wall-clock time spent in each pass.
    pub timings: Vec<(&'static str, Duration)>,
}

impl LintReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity == severity).count()
    }
}

/// Root-fact flags, one byte per reached word: reached from an
/// emulator root, reached from an I/O root, and a fetch may have
/// started on some path to the word.
pub(crate) const EMU: u8 = 1;
pub(crate) const IO: u8 = 2;
pub(crate) const FETCH: u8 = 4;

/// The root facts as one join-only domain (the seeds carry the entry
/// flags, so [`Domain::entry`] is unused).
pub(crate) struct RootFlags;

impl Domain for RootFlags {
    type Value = u8;
    fn entry(&self) -> u8 {
        0
    }
    fn join(&self, a: &u8, b: &u8) -> u8 {
        a | b
    }
    fn transfer(&self, node: &Node, v: &u8) -> u8 {
        if node.word.asel().is_ok_and(|a| a.is_fetch()) {
            v | FETCH
        } else {
            *v
        }
    }
}

/// The analyzer's computed facts over one placed image: the CFG, the
/// root facts, the hold sites and the wasted-slot census.  Every
/// consumer reads them from here: the lint renders them
/// ([`Analyses::lint`]), the slot-fill [`LintSession`] takes them over
/// and keeps them up to date, and `dorado-uopt` uses them as its
/// dependence and safety oracle.
#[derive(Debug)]
pub struct Analyses {
    /// The root classification the facts were computed under.
    pub config: LintConfig,
    /// The control-flow graph over the placed image.
    pub cfg: Cfg,
    /// The root facts, dense by raw address: `None` where no root
    /// reaches the word, else its [`RootFlags`].
    pub(crate) facts: Vec<Option<u8>>,
    /// Statically predicted Hold sites, per cause.
    pub hold: HoldSites,
    /// The wasted-slot census (relays, hold-shadow no-ops).
    pub wasted: Vec<WastedSlot>,
}

impl Analyses {
    /// A [`PassCtx`] over these facts, for running individual passes.
    pub fn ctx<'a>(&'a self, placed: &'a PlacedProgram) -> PassCtx<'a> {
        PassCtx { placed, an: self }
    }

    /// Renders every pass's findings over these facts; `placed` is the
    /// image they were computed from.
    pub fn lint(&self, placed: &PlacedProgram) -> LintReport {
        let ctx = self.ctx(placed);
        let mut report = LintReport::default();
        for pass in all_passes() {
            let start = std::time::Instant::now();
            report.diags.extend(pass.run(&ctx));
            report.timings.push((pass.name(), start.elapsed()));
        }
        report
    }

    fn flags(&self, a: MicroAddr) -> u8 {
        self.facts[a.raw() as usize].unwrap_or(0)
    }

    /// Whether some root reaches `a`.
    pub fn reached(&self, a: MicroAddr) -> bool {
        self.facts[a.raw() as usize].is_some()
    }

    /// Whether an emulator-task root reaches `a`.
    pub fn emu_reached(&self, a: MicroAddr) -> bool {
        self.flags(a) & EMU != 0
    }

    /// Whether an I/O-task root reaches `a`.
    pub fn io_reached(&self, a: MicroAddr) -> bool {
        self.flags(a) & IO != 0
    }

    /// Whether some root-to-`a` path starts a fetch before `a`
    /// executes.  A MEMDATA consumer where this is false is what the
    /// hold-hazard pass warns about; a rewriter placing a copy of such a
    /// consumer must check it first.
    pub fn fetched(&self, a: MicroAddr) -> bool {
        self.flags(a) & FETCH != 0
    }
}

/// Analyzes `placed` with roots inferred from its labels.
pub fn analyze(placed: &PlacedProgram) -> Analyses {
    analyze_with_config(placed, LintConfig::infer(placed))
}

/// Analyzes `placed` under an explicit root classification: builds the
/// CFG and solves the root facts once, then derives the hold sites and
/// the wasted-slot census.
pub fn analyze_with_config(placed: &PlacedProgram, config: LintConfig) -> Analyses {
    let cfg = Cfg::build(placed);
    let facts = analysis::solve(&cfg, &RootFlags, &config.root_seeds());
    let hold = hold_sites(&cfg);
    let wasted = passes::wasted_slot::wasted_slots(placed, &cfg, &facts);
    Analyses {
        config,
        cfg,
        facts,
        hold,
        wasted,
    }
}

/// Lints `placed` with roots inferred from its labels.
pub fn lint(placed: &PlacedProgram) -> LintReport {
    lint_with_config(placed, &LintConfig::infer(placed))
}

/// Lints `placed` with an explicit root classification: one analysis,
/// rendered by every pass.
pub fn lint_with_config(placed: &PlacedProgram, config: &LintConfig) -> LintReport {
    analyze_with_config(placed, config.clone()).lint(placed)
}
