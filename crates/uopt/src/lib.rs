#![forbid(unsafe_code)]
//! `dorado-uopt`: an analysis-driven optimizer for Dorado microcode.
//!
//! The optimizer sits between code generation and the placer: it
//! consumes a symbolic [`MicroProgram`], uses `dorado-ulint`'s CFG and
//! abstract-interpretation results ([`dorado_ulint::analyze`]) as its
//! dependence and safety oracle, rewrites the listing, and re-places.
//! Four transformations (DESIGN.md §7e):
//!
//! | pass | reclaims |
//! |------|----------|
//! | [`deadarm`] | never-taken CNT branch arms and the words they strand |
//! | [`sched`]   | stall cycles, by moving independent work into memory-start shadows |
//! | [`hints`]   | relay words, by pair-aligning hot branch pairs before placement |
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

pub mod deadarm;
pub mod deps;
pub mod hints;
pub mod sched;
pub mod slotfill;

use std::collections::BTreeMap;
use std::fmt;

use dorado_asm::placer::place_with_hints;
use dorado_asm::verify::verify_ok;
use dorado_asm::{
    AsmError, FfOp, FfSlot, Inst, Item, MicroProgram, PlacedProgram, PlacementHints, SlotUse,
};
use dorado_base::MicroAddr;
use dorado_ulint::passes::wasted_slot::WasteKind;
use dorado_ulint::{analyze_with_config, lint_with_config, Analyses, LintConfig, IO_PREFIXES};

/// Which labels count as control-flow roots for reachability and
/// dead-code deletion.
#[derive(Debug, Clone, Default)]
pub enum RootPolicy {
    /// Every label is a root (the `ulint` convention): anything labelled
    /// may be entered by a task, the IFU dispatch, or a saved TPC, so
    /// only unlabelled stranded words are ever deleted.  This is the
    /// safe default for full suites.
    #[default]
    AllLabels,
    /// Only the named entry labels are roots; everything unreachable
    /// from them is deletable.  For closed programs whose entries are
    /// known exactly (tests, single-task kernels).
    Entries(Vec<String>),
}

/// Optimizer configuration: which passes run and under which roots.
#[derive(Debug, Clone, Default)]
pub struct OptConfig {
    /// Root policy for reachability (deletion) and task classification.
    pub roots: RootPolicy,
    /// Resolve proven-dead CNT branch arms and delete stranded code.
    pub no_dead_arms: bool,
    /// Reorder within basic blocks to hide memory-start latency.
    pub no_schedule: bool,
    /// Feed branch-pair alignment hints back into the placer.
    pub no_hints: bool,
    /// Fill branch-window relay words with copies of their targets.
    pub no_slot_fill: bool,
}

/// Why the optimizer declined an opportunity (the wasted-slot census
/// remainder is explained in these terms).
pub type Refusals = BTreeMap<&'static str, usize>;

/// Machine-readable account of what the optimizer did to one program.
#[derive(Debug, Clone, Default)]
pub struct OptReport {
    /// CNT branches rewritten to unconditional transfers.
    pub dead_arms_resolved: usize,
    /// Unreachable instructions deleted from the listing.
    pub insts_deleted: usize,
    /// Basic-block runs examined by the scheduler.
    pub runs_considered: usize,
    /// Runs whose order changed.
    pub runs_scheduled: usize,
    /// Instructions that moved within their run.
    pub insts_moved: usize,
    /// Pair-alignment hints offered to the placer.
    pub hints_tried: usize,
    /// Whether the hinted placement won and was kept.
    pub hints_accepted: bool,
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
        self.dead_arms_resolved
            + self.insts_deleted
            + self.insts_moved
            + self.relays_filled
            + usize::from(self.hints_accepted)
    }

    /// Records a declined opportunity.
    pub fn refuse(&mut self, why: &'static str) {
        *self.refusals.entry(why).or_default() += 1;
    }

    /// Records a note against instruction index `i` of the final listing.
    pub(crate) fn sym_note(&mut self, i: usize, text: impl Into<String>) {
        self.sym_notes.push((i, text.into()));
    }

    /// Remaps symbolic notes across a deletion (`old2new[i]` is the new
    /// index of old instruction `i`, `None` if deleted).
    pub(crate) fn remap_sym_notes(&mut self, old2new: &[Option<usize>]) {
        self.sym_notes.retain_mut(|(i, _)| match old2new.get(*i) {
            Some(Some(j)) => {
                *i = *j;
                true
            }
            _ => false,
        });
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
        field("dead_arms_resolved", self.dead_arms_resolved.to_string());
        field("insts_deleted", self.insts_deleted.to_string());
        field("runs_considered", self.runs_considered.to_string());
        field("runs_scheduled", self.runs_scheduled.to_string());
        field("insts_moved", self.insts_moved.to_string());
        field("hints_tried", self.hints_tried.to_string());
        field("hints_accepted", self.hints_accepted.to_string());
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
            "uopt: {} rewrites ({} dead arms, {} deleted, {} moved in {}/{} runs, \
             {} relays filled of {} trials, hints {})",
            self.rewrites(),
            self.dead_arms_resolved,
            self.insts_deleted,
            self.insts_moved,
            self.runs_scheduled,
            self.runs_considered,
            self.relays_filled,
            self.fill_trials,
            if self.hints_accepted {
                "accepted"
            } else {
                "declined"
            },
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

/// Builds the lint root classification for `placed` under `policy` —
/// the roots every analysis and lint of the optimizer runs under.
pub fn root_config(placed: &PlacedProgram, policy: &RootPolicy) -> LintConfig {
    let mut config = match policy {
        RootPolicy::AllLabels => LintConfig::infer(placed),
        RootPolicy::Entries(names) => {
            let mut config = LintConfig::default();
            for name in names {
                let Some(addr) = placed.address_of(name) else {
                    continue;
                };
                if IO_PREFIXES.iter().any(|p| name.starts_with(p)) {
                    config.io_roots.push((name.clone(), addr));
                } else {
                    config.emu_roots.push((name.clone(), addr));
                }
            }
            config.emu_roots.sort();
            config.io_roots.sort();
            config
        }
    };
    // Tasks power up with TPC = 0, so an occupied microstore word 0 is
    // an entry even when nothing labels it — standalone images rely on
    // that convention.  Suites label word 0 (`trap`), so this is a
    // no-op for them.
    let boot = MicroAddr::new(0);
    if matches!(placed.uses().first(), Some(SlotUse::Inst(_)))
        && !config.emu_roots.iter().any(|(_, addr)| *addr == boot)
    {
        config.emu_roots.push(("<word 0>".to_string(), boot));
        config.emu_roots.sort();
    }
    config
}

fn census(an: &Analyses) -> (usize, usize) {
    let relays = an
        .wasted
        .iter()
        .filter(|w| matches!(w.kind, WasteKind::BranchWindow { .. }))
        .count();
    (relays, an.wasted.len() - relays)
}

fn program_of(items: Vec<Item>) -> MicroProgram {
    items.into_iter().collect()
}

fn analyze_under(placed: &PlacedProgram, policy: &RootPolicy) -> Analyses {
    analyze_with_config(placed, root_config(placed, policy))
}

/// Whether the program reprograms the ALUFM mapping anywhere: when it
/// does, the static carry-chain test (`ALUOP` index against the default
/// mapping) is unsound, so reordering and relay filling are disabled.
pub(crate) fn remaps_alufm(items: &[Item]) -> bool {
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

/// Optimizes `program` under the default configuration (all passes,
/// every label a root).
///
/// # Errors
///
/// See [`optimize_with`].
pub fn optimize(program: &MicroProgram) -> Result<Optimized, OptError> {
    optimize_with(program, &OptConfig::default())
}

/// Optimizes `program` under `config`: trial-places, analyzes with
/// `ulint`, rewrites the listing (dead arms, deletion, scheduling),
/// re-places with pair hints, fills branch-window relays, and enforces
/// the lint invariant.
///
/// # Errors
///
/// Returns [`OptError::Asm`] when a rewritten listing fails placement
/// or structural verification, and [`OptError::Regression`] when the
/// optimized image lints worse than the input.
pub fn optimize_with(program: &MicroProgram, config: &OptConfig) -> Result<Optimized, OptError> {
    let baseline = program.place()?;
    let baseline_lint = lint_with_config(&baseline, &root_config(&baseline, &config.roots));
    let an0 = analyze_under(&baseline, &config.roots);

    let mut report = OptReport {
        words_before: baseline.stats().footprint(),
        wasted_before: census(&an0),
        ..OptReport::default()
    };

    let mut items: Vec<Item> = program.items().to_vec();
    let alufm_remapped = remaps_alufm(&items);

    if !config.no_dead_arms {
        deadarm::resolve(&mut items, &baseline, &an0, &mut report);
        let placed = program_of(items.clone()).place()?;
        let an = analyze_under(&placed, &config.roots);
        deadarm::sweep(&mut items, &placed, &an, &mut report);
    }

    if !config.no_schedule {
        if alufm_remapped {
            report.refuse("alufm-remapped: static carry test unsound");
        } else {
            let placed = program_of(items.clone()).place()?;
            let an = analyze_under(&placed, &config.roots);
            sched::schedule(&mut items, &placed, &an, &mut report);
        }
    }

    let optimized = program_of(items);
    let mut placed = optimized.place()?;

    if !config.no_hints {
        match hints::collect(&optimized) {
            hints if hints.pair_align.is_empty() => {}
            hints => {
                report.hints_tried = hints.pair_align.len();
                apply_hints(&optimized, &hints, &mut placed, &mut report);
            }
        }
    }

    if !config.no_slot_fill {
        if alufm_remapped {
            report.refuse("alufm-remapped: static carry test unsound");
        } else {
            let an = analyze_under(&placed, &config.roots);
            slotfill::fill(&mut placed, &optimized, &an, &mut report);
        }
    }

    verify_ok(&placed)?;
    let final_lint = lint_with_config(&placed, &root_config(&placed, &config.roots));
    if final_lint.errors() > baseline_lint.errors()
        || final_lint.warnings() > baseline_lint.warnings()
    {
        let details = final_lint
            .diags
            .iter()
            .filter(|d| d.severity != dorado_ulint::Severity::Info)
            .map(|d| d.render(&placed))
            .collect();
        return Err(OptError::Regression {
            errors: (baseline_lint.errors(), final_lint.errors()),
            warnings: (baseline_lint.warnings(), final_lint.warnings()),
            details,
        });
    }

    let an_final = analyze_under(&placed, &config.roots);
    report.words_after = placed.stats().footprint();
    report.wasted_after = census(&an_final);
    report.resolve_notes(&placed);

    Ok(Optimized {
        program: optimized,
        placed,
        report,
    })
}

/// Tries the hinted placement; keeps it only when it is strictly better
/// (lexicographically on footprint, then relay count).
fn apply_hints(
    program: &MicroProgram,
    hints: &PlacementHints,
    placed: &mut PlacedProgram,
    report: &mut OptReport,
) {
    match place_with_hints(program, hints) {
        Ok(cand) => {
            let old = (placed.stats().footprint(), placed.stats().relays);
            let new = (cand.stats().footprint(), cand.stats().relays);
            if new < old {
                *placed = cand;
                report.hints_accepted = true;
            } else {
                report.refuse("pair hint did not shrink the placement");
            }
        }
        Err(_) => report.refuse("hinted placement failed"),
    }
}

/// Item position of each instruction index in `items`.
pub(crate) fn inst_positions(items: &[Item]) -> Vec<usize> {
    items
        .iter()
        .enumerate()
        .filter_map(|(p, item)| matches!(item, Item::Inst(_)).then_some(p))
        .collect()
}
