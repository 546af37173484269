//! The `toolchain` workload: microcode through emit → place → lint →
//! optimize, with no simulation at all.
//!
//! A pass is four rounds and one seeded near-full synthetic microstore
//! (`asm::synth::random_program`), placed after the first round.  Each
//! round runs the nine suites the `ulint` and `uopt` binaries check and
//! three seeded `dorado-lang` programs (compile, then the bytecode lint).
//! One synthetic store costs about as much as the four rounds, so a pass
//! holds one.  `asm`, `ulint`, `uopt` and `lang` do all the work, so this
//! workload is the one a simulator-side change should leave alone.
//!
//! Checks: every suite places, lints with no errors and optimizes;
//! every synthetic store places and optimizes (random microcode may
//! carry lint errors); every program compiles with no bytecode errors.

use dorado_asm::synth::{random_program, SynthProfile};
use dorado_asm::MicroProgram;
use dorado_emu::SuiteBuilder;
use dorado_ulint::Severity;

use crate::programs::ProgramSpec;
use crate::{pass_rng, Ledger, Passes, Tracer, Workload};

/// The suites of the `ulint` and `uopt` binaries.
pub const SUITES: [&str; 9] = [
    "mesa",
    "smalltalk",
    "lisp",
    "bcpl",
    "bitblt",
    "cluster",
    "devices",
    "scenario",
    "everything",
];

/// Instructions per synthetic microstore.
pub const SYNTH_INSTS: usize = 3_400;
/// `dorado-lang` programs per round.  With three, a pass's op-time p50
/// and p90 fall on the first of a group of equal suites, not on the
/// boundary between two groups of very different cost.
pub const LANG_PER_ROUND: usize = 3;
/// Units per round.
pub const ROUND_UNITS: usize = SUITES.len() + LANG_PER_ROUND;
/// Rounds per pass.
pub const ROUNDS: usize = 4;
/// Units per pass: the rounds plus one synthetic microstore.
pub const PASS_UNITS: usize = ROUNDS * ROUND_UNITS + 1;

/// One unit of toolchain work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unit {
    /// A suite of the microcode generators.
    Suite(&'static str),
    /// A synthetic microstore, by generator seed.
    Synth(u64),
    /// A `dorado-lang` program's source.
    Lang(String),
}

/// The seeded units of pass `pass`, `n` ops laid out as described in
/// the module docs.
pub fn units(seed: u64, pass: usize, n: usize) -> Vec<Unit> {
    let mut rng = pass_rng(seed, 0x746f_6f6c, pass);
    (0..n)
        .map(|i| {
            let k = i % PASS_UNITS;
            if k == ROUND_UNITS {
                return Unit::Synth(rng.next_u64());
            }
            match (k - usize::from(k > ROUND_UNITS)) % ROUND_UNITS {
                j if j < SUITES.len() => Unit::Suite(SUITES[j]),
                j => Unit::Lang(ProgramSpec::generate(&mut rng, j).source()),
            }
        })
        .collect()
}

fn suite_builder(name: &str) -> SuiteBuilder {
    match name {
        "mesa" => SuiteBuilder::new().with_mesa(),
        "smalltalk" => SuiteBuilder::new().with_smalltalk(),
        "lisp" => SuiteBuilder::new().with_lisp(),
        "bcpl" => SuiteBuilder::new().with_bcpl(),
        "bitblt" => SuiteBuilder::new().with_mesa().with_bitblt(),
        "cluster" => SuiteBuilder::new().with_mesa().with_cluster(),
        "devices" => SuiteBuilder::new()
            .with_mesa()
            .with_disk()
            .with_display()
            .with_network(),
        "scenario" => SuiteBuilder::new().with_scenario().with_bitblt(),
        _ => SuiteBuilder::everything(),
    }
}

/// Places, lints and optimizes `program`; returns whether it placed and
/// optimized, and its lint error count.
fn pipeline(program: &MicroProgram, tr: &mut Tracer, ledger: &mut Ledger) -> Option<usize> {
    let placed = tr.span("asm.place", |_| program.place()).ok()?;
    let stats = placed.stats();
    ledger.add("asm.words_placed", stats.used() as f64);
    ledger.add("asm.footprint", stats.footprint() as f64);
    let lint = tr.span("ulint.lint", |_| dorado_ulint::lint(&placed));
    ledger.add("ulint.diagnostics", lint.diags.len() as f64);
    let opt = tr
        .span("uopt.optimize", |_| dorado_uopt::optimize(program))
        .ok()?;
    ledger.add("uopt.rewrites", opt.report.rewrites() as f64);
    let saved = opt
        .report
        .words_before
        .saturating_sub(opt.report.words_after);
    ledger.add("uopt.words_saved", saved as f64);
    Some(lint.errors())
}

/// The workload state: the current pass's units.
pub struct Toolchain {
    units: Passes<Unit>,
}

impl Toolchain {
    /// Generates the first pass's units.
    pub fn setup(seed: u64, pass_len: usize, _tr: &mut Tracer) -> Self {
        Toolchain {
            units: Passes::new(seed, pass_len, units),
        }
    }
}

impl Workload for Toolchain {
    fn pass_len(&self) -> usize {
        self.units.len()
    }

    fn run_op(&mut self, i: usize, tr: &mut Tracer, ledger: &mut Ledger) -> bool {
        match self.units.get(i) {
            Unit::Suite(name) => {
                let (_, program) = tr.span("emu.emit", |_| suite_builder(name).program());
                pipeline(&program, tr, ledger) == Some(0)
            }
            Unit::Synth(seed) => {
                let program = tr.span("asm.synth", |_| {
                    random_program(*seed, SYNTH_INSTS, &SynthProfile::default())
                });
                pipeline(&program, tr, ledger).is_some()
            }
            Unit::Lang(source) => {
                ledger.add("lang.compiles", 1.0);
                let Ok(bytes) = tr.span("lang.compile", |_| dorado_lang::compile(source)) else {
                    return false;
                };
                let diags = tr.span("ulint.lint_bytecode", |_| {
                    dorado_ulint::bytecode::lint_bytecode(&bytes)
                });
                ledger.add("ulint.diagnostics", diags.len() as f64);
                !diags.iter().any(|d| d.severity == Severity::Error)
            }
        }
    }
}
