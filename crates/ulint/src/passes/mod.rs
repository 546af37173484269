//! The lint passes and the context they share.

use dorado_asm::{ControlOp, FfOp, Microword, PlacedProgram};

use crate::diag::{Diagnostic, Severity};
use crate::Analyses;

pub mod branch_window;
pub mod dead_code;
pub mod ff_conflict;
pub mod hold;
pub mod stack_depth;
pub mod task_safety;
pub mod wasted_slot;

/// Everything a pass gets to look at: one image and its analysis.
pub struct PassCtx<'a> {
    /// The placed image.
    pub placed: &'a PlacedProgram,
    /// The facts computed over it.
    pub an: &'a Analyses,
}

/// Error and warning counts: all a count-only lint
/// ([`crate::LintSession`]) keeps of a set of findings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Tally {
    /// Error-severity findings.
    pub(crate) errors: usize,
    /// Warning-severity findings.
    pub(crate) warnings: usize,
}

impl Tally {
    /// The counts of `diags`.
    pub(crate) fn of<'d>(diags: impl IntoIterator<Item = &'d Diagnostic>) -> Tally {
        let mut t = Tally::default();
        for d in diags {
            match d.severity {
                Severity::Error => t.errors += 1,
                Severity::Warning => t.warnings += 1,
                Severity::Info => {}
            }
        }
        t
    }
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, o: Tally) {
        self.errors += o.errors;
        self.warnings += o.warnings;
    }
}

impl std::ops::SubAssign for Tally {
    fn sub_assign(&mut self, o: Tally) {
        self.errors -= o.errors;
        self.warnings -= o.warnings;
    }
}

/// One analysis pass.
pub trait Pass {
    /// The pass name used in diagnostics and `DORADO_ULINT_ALLOW`.
    fn name(&self) -> &'static str;
    /// Runs the pass and returns its findings.
    fn run(&self, ctx: &PassCtx<'_>) -> Vec<Diagnostic>;
}

/// All passes, in reporting order.
pub fn all_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(ff_conflict::FfConflict),
        Box::new(hold::HoldHazard),
        Box::new(branch_window::BranchWindow),
        Box::new(stack_depth::StackDepth),
        Box::new(task_safety::TaskSafety),
        Box::new(dead_code::DeadCode),
        Box::new(wasted_slot::WastedSlotPass),
    ]
}

/// The FF field of `word` as the function the machine will execute, or
/// `None` when FF is claimed as a constant or a page number instead
/// (mirrors the decode rule in `dorado-core`).
pub fn ff_function(word: Microword) -> Option<FfOp> {
    let bsel = word.bsel().ok()?;
    let control = word.control().ok()?;
    if bsel.is_constant() || control.uses_ff_page() {
        return None;
    }
    FfOp::decode(word.ff()).ok()
}

/// Whether `word` is a conditional branch on a latched ALU flag
/// (ALU=0, ALU<0, Carry, Overflow, R odd) — the conditions that read
/// the *previous* instruction's branch-condition register.  The live
/// tests (CNT=0, IOAtten, StkErr) are excluded.
pub fn flag_branch(word: Microword) -> Option<dorado_asm::Cond> {
    use dorado_asm::Cond;
    match word.control() {
        Ok(ControlOp::CondGoto { cond, .. }) => match cond {
            Cond::Zero | Cond::Neg | Cond::Carry | Cond::Overflow | Cond::ROdd => Some(cond),
            Cond::CntZero | Cond::IoAtten | Cond::StackError => None,
        },
        _ => None,
    }
}

/// Whether `word` is an emulator stack operation (BLOCK set; on task 0
/// the RADDR field encodes a stack-pointer delta, §6.3.3).
pub fn is_stack_op(word: Microword) -> bool {
    word.block()
}
