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

pub use cfg::Cfg;
pub use diag::{Diagnostic, Severity};
pub use passes::hold::{fetch_started, hold_sites, HoldSites};
pub use passes::stack_depth::stack_sites;
pub use passes::wasted_slot::{wasted_slots, WasteKind, WastedSlot};
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

/// The analyzer's computed facts over one placed image, packaged as a
/// reusable query API: the CFG, per-task reachability, hold sites,
/// fetch-started inputs, and the wasted-slot census.  This is what a
/// *transformation* layer (`dorado-uopt`) consumes as its dependence and
/// safety oracle; the diagnostic pipeline ([`lint`]) is a thin rendering
/// of the same facts.
#[derive(Debug)]
pub struct Analyses {
    /// The root classification the facts were computed under.
    pub config: LintConfig,
    /// The control-flow graph over the placed image.
    pub cfg: Cfg,
    /// Words reachable from emulator-task roots (dense, by raw address).
    pub emu_reach: Vec<bool>,
    /// Words reachable from I/O-task roots.
    pub io_reach: Vec<bool>,
    /// Statically predicted Hold sites, per cause.
    pub hold: HoldSites,
    /// Per-word input of the "a fetch may have started" analysis
    /// (dense, by raw address): `true` iff some root-to-word path
    /// starts a fetch before the word executes.
    pub fetch_started: Vec<bool>,
    /// The wasted-slot census (relays, hold-shadow no-ops).
    pub wasted: Vec<WastedSlot>,
}

impl Analyses {
    /// A [`PassCtx`] over these facts, for running individual passes or
    /// the [`wasted_slots`] query without recomputing the CFG and
    /// reachability.
    pub fn ctx<'a>(&'a self, placed: &'a PlacedProgram) -> PassCtx<'a> {
        PassCtx {
            placed,
            cfg: &self.cfg,
            config: &self.config,
            emu_reach: &self.emu_reach,
            io_reach: &self.io_reach,
            fetch_started: &self.fetch_started,
        }
    }
}

/// The root-driven facts every pass shares: emulator and I/O
/// reachability and the fetch-started inputs from all roots.
struct RootFacts {
    emu_reach: Vec<bool>,
    io_reach: Vec<bool>,
    fetch_started: Vec<bool>,
}

impl RootFacts {
    fn compute(cfg: &Cfg, config: &LintConfig) -> Self {
        let emu: Vec<MicroAddr> = config.emu_roots.iter().map(|&(_, a)| a).collect();
        let io: Vec<MicroAddr> = config.io_roots.iter().map(|&(_, a)| a).collect();
        let all_roots: Vec<MicroAddr> = emu.iter().chain(io.iter()).copied().collect();
        RootFacts {
            emu_reach: cfg.reach(&emu),
            io_reach: cfg.reach(&io),
            fetch_started: passes::hold::fetch_started(cfg, &all_roots),
        }
    }

    fn ctx<'a>(
        &'a self,
        placed: &'a PlacedProgram,
        cfg: &'a Cfg,
        config: &'a LintConfig,
    ) -> PassCtx<'a> {
        PassCtx {
            placed,
            cfg,
            config,
            emu_reach: &self.emu_reach,
            io_reach: &self.io_reach,
            fetch_started: &self.fetch_started,
        }
    }
}

/// Analyzes `placed` with roots inferred from its labels.
pub fn analyze(placed: &PlacedProgram) -> Analyses {
    analyze_with_config(placed, LintConfig::infer(placed))
}

/// Analyzes `placed` under an explicit root classification.
pub fn analyze_with_config(placed: &PlacedProgram, config: LintConfig) -> Analyses {
    let cfg = Cfg::build(placed);
    let facts = RootFacts::compute(&cfg, &config);
    let hold = hold_sites(&cfg);
    let wasted = wasted_slots(&facts.ctx(placed, &cfg, &config));
    let RootFacts {
        emu_reach,
        io_reach,
        fetch_started,
    } = facts;
    Analyses {
        config,
        cfg,
        emu_reach,
        io_reach,
        hold,
        fetch_started,
        wasted,
    }
}

/// Lints `placed` with roots inferred from its labels.
pub fn lint(placed: &PlacedProgram) -> LintReport {
    lint_with_config(placed, &LintConfig::infer(placed))
}

/// Lints `placed` with an explicit root classification: builds the CFG
/// and the shared root facts once and renders every pass's findings
/// over them.
pub fn lint_with_config(placed: &PlacedProgram, config: &LintConfig) -> LintReport {
    let cfg = Cfg::build(placed);
    let facts = RootFacts::compute(&cfg, config);
    let ctx = facts.ctx(placed, &cfg, config);
    let mut report = LintReport::default();
    for pass in all_passes() {
        let start = std::time::Instant::now();
        report.diags.extend(pass.run(&ctx));
        report.timings.push((pass.name(), start.elapsed()));
    }
    report
}
