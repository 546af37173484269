#![forbid(unsafe_code)]
//! `dorado-uopt`: an analysis-driven optimizer for Dorado microcode.
//!
//! The optimizer sits between code generation and the placer: it
//! consumes a symbolic [`MicroProgram`], uses `dorado-ulint`'s CFG and
//! abstract-interpretation results ([`dorado_ulint::analyze`]) as its
//! dependence and safety oracle, rewrites the listing, and re-places.
//! Each image state is analysed once: the input placement (the gate's
//! baseline, the census and the scheduler's facts), the scheduled
//! placement ([`schedule`]'s result, taken over by the slot-fill
//! session) and the final image (the gate and the after-census).
//! Two transformations (DESIGN.md §7e):
//!
//! | pass | reclaims |
//! |------|----------|
//! | [`sched`]   | stall cycles, by moving independent work into memory-start shadows |
//! | [`slotfill`] | branch-window relay cycles, by copying the target into the relay |
//!
//! Soundness is delegated, not argued per call site: every optimized
//! image must come out of `ulint` with **no more errors or warnings
//! than the input** — compile → optimize → lint is a hard pipeline
//! invariant, enforced by [`optimize`] itself ([`OptError::Regression`]).
//! The rewrites preserve each instruction's [`Inst`] value (including
//! the `comment` span channel), so caret diagnostics and annotated
//! listings stay accurate across rewrites.
//!
//! # Examples
//!
//! ```
//! use dorado_asm::{Assembler, Inst};
//!
//! let mut a = Assembler::new();
//! a.label("boot");
//! a.emit(Inst::new().goto_("boot"));
//! let opt = dorado_uopt::optimize(&a.program()).unwrap();
//! assert_eq!(opt.report.rewrites(), 0);
//! ```

pub mod deps;
pub mod sched;
pub mod slotfill;

use std::collections::BTreeMap;
use std::fmt;

use dorado_asm::verify::verify_ok;
use dorado_asm::{AsmError, FfOp, FfSlot, Inst, Item, MicroProgram, PlacedProgram};
use dorado_base::MicroAddr;
use dorado_ulint::passes::wasted_slot::WasteKind;
use dorado_ulint::{analyze, Analyses};

/// Why the optimizer declined an opportunity (the wasted-slot census
/// remainder is explained in these terms).
pub type Refusals = BTreeMap<&'static str, usize>;

/// Machine-readable account of what the optimizer did to one program.
#[derive(Debug, Clone, Default)]
pub struct OptReport {
    /// Basic-block runs examined by the scheduler.
    pub runs_considered: usize,
    /// Runs whose order changed.
    pub runs_scheduled: usize,
    /// Instructions that moved within their run.
    pub insts_moved: usize,
    /// Relay words replaced by copies of their targets.
    pub relays_filled: usize,
    /// Fill candidates that reached the lint comparison (a deterministic
    /// measure of the slot filler's validation work).
    pub fill_trials: usize,
    /// Opportunities declined, by reason.
    pub refusals: Refusals,
    /// Microstore footprint (words) before optimization.
    pub words_before: usize,
    /// Microstore footprint (words) after optimization.
    pub words_after: usize,
    /// Wasted-slot census before: (branch-window relays, shadow no-ops).
    pub wasted_before: (usize, usize),
    /// Wasted-slot census after.
    pub wasted_after: (usize, usize),
    /// Final-image annotations: (address, what happened here).
    pub notes: Vec<(MicroAddr, String)>,
    /// Symbolic notes keyed by instruction index, mapped into `notes`
    /// once the final placement is known.
    sym_notes: Vec<(usize, String)>,
}

impl OptReport {
    /// Total rewrites across all passes; zero means the optimized image
    /// is byte-identical to plain placement.
    pub fn rewrites(&self) -> usize {
        self.insts_moved + self.relays_filled
    }

    /// Records a declined opportunity.
    pub fn refuse(&mut self, why: &'static str) {
        *self.refusals.entry(why).or_default() += 1;
    }

    /// Records a note against instruction index `i` of the final listing.
    pub(crate) fn sym_note(&mut self, i: usize, text: impl Into<String>) {
        self.sym_notes.push((i, text.into()));
    }

    fn resolve_notes(&mut self, placed: &PlacedProgram) {
        for (i, text) in std::mem::take(&mut self.sym_notes) {
            if let Some(addr) = placed.inst_addr(i) {
                self.notes.push((addr, text));
            }
        }
        self.notes.sort_by_key(|&(a, _)| a);
    }

    /// Renders the report as a JSON object (no external dependencies).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let mut field = |k: &str, v: String| {
            if s.len() > 1 {
                s.push(',');
            }
            s.push_str(&format!("\"{k}\":{v}"));
        };
        field("runs_considered", self.runs_considered.to_string());
        field("runs_scheduled", self.runs_scheduled.to_string());
        field("insts_moved", self.insts_moved.to_string());
        field("relays_filled", self.relays_filled.to_string());
        field("fill_trials", self.fill_trials.to_string());
        field("words_before", self.words_before.to_string());
        field("words_after", self.words_after.to_string());
        field(
            "wasted_before",
            format!("[{},{}]", self.wasted_before.0, self.wasted_before.1),
        );
        field(
            "wasted_after",
            format!("[{},{}]", self.wasted_after.0, self.wasted_after.1),
        );
        let refusals = self
            .refusals
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(",");
        field("refusals", format!("{{{refusals}}}"));
        s.push('}');
        s
    }
}

impl fmt::Display for OptReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "uopt: {} rewrites ({} moved in {}/{} runs, {} relays filled of {} trials)",
            self.rewrites(),
            self.insts_moved,
            self.runs_scheduled,
            self.runs_considered,
            self.relays_filled,
            self.fill_trials,
        )?;
        writeln!(
            f,
            "      words {} -> {}; wasted slots (relays, shadow no-ops) \
             ({}, {}) -> ({}, {})",
            self.words_before,
            self.words_after,
            self.wasted_before.0,
            self.wasted_before.1,
            self.wasted_after.0,
            self.wasted_after.1,
        )?;
        for (why, n) in &self.refusals {
            writeln!(f, "      declined {n}: {why}")?;
        }
        Ok(())
    }
}

/// An optimized program: the rewritten listing, its placement, and the
/// account of what changed.
#[derive(Debug)]
pub struct Optimized {
    /// The rewritten symbolic listing.
    pub program: MicroProgram,
    /// Its placement (with relays filled in place).
    pub placed: PlacedProgram,
    /// What the passes did.
    pub report: OptReport,
}

impl Optimized {
    /// The rewrite annotations in [`dorado_asm::disasm::disassemble_annotated`]
    /// form: the passes' notes, plus every surviving instruction's
    /// source comment at its *final* address — the span channel
    /// ([`Inst::comment`]) rides through every rewrite, so a moved or
    /// copied word still names the source line it came from.
    pub fn annotations(&self) -> Vec<(MicroAddr, String)> {
        let mut out = self.report.notes.clone();
        let mut k = 0usize;
        for item in self.program.items() {
            if let Item::Inst(inst) = item {
                if let Some(c) = &inst.comment {
                    if let Some(addr) = self.placed.inst_addr(k) {
                        out.push((addr, format!("src: {c}")));
                    }
                }
                k += 1;
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        out
    }

    /// An annotated listing of the optimized image, with each rewritten
    /// word flagged.
    pub fn listing(&self) -> String {
        dorado_asm::disasm::disassemble_annotated(&self.placed, &self.annotations())
    }
}

/// Optimizer failure.
#[derive(Debug)]
pub enum OptError {
    /// Assembly or placement of a rewritten listing failed.
    Asm(AsmError),
    /// The optimized image lints worse than the input — the pipeline
    /// invariant (optimize must stay ulint-clean) was violated, so the
    /// result was discarded.
    Regression {
        /// Error count before / after.
        errors: (usize, usize),
        /// Warning count before / after.
        warnings: (usize, usize),
        /// Rendered error/warning findings on the optimized image.
        details: Vec<String>,
    },
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::Asm(e) => write!(f, "placement of optimized program failed: {e}"),
            OptError::Regression {
                errors,
                warnings,
                details,
            } => {
                write!(
                    f,
                    "optimized image lints worse than input: errors {} -> {}, warnings {} -> {}",
                    errors.0, errors.1, warnings.0, warnings.1
                )?;
                for d in details {
                    write!(f, "\n{d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for OptError {}

impl From<AsmError> for OptError {
    fn from(e: AsmError) -> Self {
        OptError::Asm(e)
    }
}

fn census(an: &Analyses) -> (usize, usize) {
    let relays = an
        .wasted
        .iter()
        .filter(|w| matches!(w.kind, WasteKind::BranchWindow { .. }))
        .count();
    (relays, an.wasted.len() - relays)
}

/// The refusal recorded, once by scheduling and once by slot filling,
/// for a program that reprograms the ALUFM mapping.
const ALUFM_REMAPPED: &str = "alufm-remapped: static carry test unsound";

/// Whether the program reprograms the ALUFM mapping anywhere: when it
/// does, the static carry-chain test (`ALUOP` index against the default
/// mapping) is unsound, so reordering and relay filling are disabled.
fn remaps_alufm(items: &[Item]) -> bool {
    items.iter().any(|item| {
        matches!(
            item,
            Item::Inst(Inst {
                ff: FfSlot::Op(FfOp::LoadAluFm(_)),
                ..
            })
        )
    })
}

/// The state slot filling starts from (see [`schedule`]).
#[derive(Debug)]
pub struct Scheduled {
    /// The scheduled symbolic listing.
    pub program: MicroProgram,
    /// Its placement, relays unfilled.
    pub placed: PlacedProgram,
    /// The analysis of `placed`.
    pub an: Analyses,
    /// What scheduling did, and the input's footprint and census.
    pub report: OptReport,
    /// The input placement's lint `(errors, warnings)`: the gate's bound.
    baseline: (usize, usize),
    /// Whether the input reprograms the ALUFM mapping, which disables
    /// slot filling as well as scheduling.
    remapped: bool,
}

/// Places and analyzes `program`, schedules the listing into Hold
/// shadows, and re-places and analyzes the result.  [`optimize`] fills
/// relays from here.
///
/// # Errors
///
/// Returns [`OptError::Asm`] when the program or its scheduled listing
/// fails placement.
pub fn schedule(program: &MicroProgram) -> Result<Scheduled, OptError> {
    let mut items: Vec<Item> = program.items().to_vec();
    let mut report = OptReport::default();
    let remapped = remaps_alufm(&items);
    let baseline = {
        let placed = program.place()?;
        let an = analyze(&placed);
        let lint = an.lint(&placed);
        report.words_before = placed.stats().footprint();
        report.wasted_before = census(&an);
        if remapped {
            report.refuse(ALUFM_REMAPPED);
        } else {
            sched::schedule(&mut items, &placed, &an, &mut report);
        }
        (lint.errors(), lint.warnings())
    };
    let program: MicroProgram = items.into_iter().collect();
    let placed = program.place()?;
    let an = analyze(&placed);
    Ok(Scheduled {
        program,
        placed,
        an,
        report,
        baseline,
        remapped,
    })
}

/// Optimizes `program`: schedules it ([`schedule`]), fills
/// branch-window relays, and enforces the lint invariant on a fresh
/// analysis of the final image.
///
/// # Errors
///
/// Returns [`OptError::Asm`] when a rewritten listing fails placement
/// or structural verification, and [`OptError::Regression`] when the
/// optimized image lints worse than the input.
pub fn optimize(program: &MicroProgram) -> Result<Optimized, OptError> {
    let Scheduled {
        program,
        mut placed,
        an,
        mut report,
        baseline,
        remapped,
    } = schedule(program)?;
    if remapped {
        report.refuse(ALUFM_REMAPPED);
        drop(an);
    } else {
        slotfill::fill(&mut placed, &program, an, &mut report);
    }

    verify_ok(&placed)?;
    let an = analyze(&placed);
    let lint = an.lint(&placed);
    if lint.errors() > baseline.0 || lint.warnings() > baseline.1 {
        let details = (lint.diags.iter())
            .filter(|d| d.severity != dorado_ulint::Severity::Info)
            .map(|d| d.render(&placed))
            .collect();
        return Err(OptError::Regression {
            errors: (baseline.0, lint.errors()),
            warnings: (baseline.1, lint.warnings()),
            details,
        });
    }

    report.words_after = placed.stats().footprint();
    report.wasted_after = census(&an);
    report.resolve_notes(&placed);

    Ok(Optimized {
        program,
        placed,
        report,
    })
}
