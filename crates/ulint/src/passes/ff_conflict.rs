//! FF-field conflict analysis (§5.5): the FF catchall field is a
//! constant source, a page number, or a function, and one word can only
//! mean one of those.  The structural placement checks
//! (`dorado_asm::verify`) are folded in here as the first layer; on top
//! of them this pass catches the semantic double-claims the structural
//! pass cannot see:
//!
//! * `IFULOADPC` together with `IFUJUMP` — the machine's decoder
//!   rejects the combination at runtime (the PC would be loaded and
//!   dispatched in one cycle); statically it encodes fine.
//! * A `DISPATCH8` word: its FF carries the table's page number, but
//!   the decoder *also* executes FF as a function.  If the page number
//!   happens to decode to a state-writing function the dispatch
//!   silently clobbers machine state; if it decodes to a register read
//!   it overrides the ALU result being written back.

use dorado_asm::verify::{verify, verify_word};
use dorado_asm::{ControlOp, FfOp, PlacedProgram};

use crate::cfg::Node;
use crate::diag::{Diagnostic, Severity};

use super::{ff_function, Pass, PassCtx, Tally};

/// Whether executing `op` as an FF function writes machine state.
fn writes_state(op: FfOp) -> bool {
    !matches!(
        op,
        FfOp::Nop
            | FfOp::ReadRBase
            | FfOp::ReadStackPtr
            | FfOp::ReadCount
            | FfOp::ReadShiftCtl
            | FfOp::ReadLink
            | FfOp::ReadQ
            | FfOp::ReadMemBase
            | FfOp::ReadIoAddress
            | FfOp::ReadBase
            | FfOp::ReadTpc
            | FfOp::IfuReadPc
            | FfOp::ShOut
            | FfOp::ShOutZ
            | FfOp::ShOutM
    )
}

/// The ff-conflict pass (structural verification plus decode-conflict
/// generalizations).
pub struct FfConflict;

const NAME: &str = "ff-conflict";

impl Pass for FfConflict {
    fn name(&self) -> &'static str {
        NAME
    }

    fn run(&self, ctx: &PassCtx<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        // Layer 1: the structural placement checks, deduplicated.
        let mut seen = Vec::new();
        for v in verify(ctx.placed) {
            let key = (v.at, v.what.clone());
            if seen.contains(&key) {
                continue;
            }
            out.push(Diagnostic::new(NAME, Severity::Error, v.at, v.what.clone()));
            seen.push(key);
        }
        // Layer 2: decode-level double-claims.
        for node in ctx.an.cfg.iter() {
            decode_conflicts(node, &mut out);
        }
        out
    }
}

/// The pass's error and warning counts at `node` alone: its distinct
/// structural violations and its decode-level double-claims.  Both
/// depend only on the word and on which words are used.
pub(crate) fn word_tally(placed: &PlacedProgram, node: &Node) -> Tally {
    let mut violations = Vec::new();
    verify_word(placed, node.addr, &mut violations);
    let mut whats: Vec<&str> = violations.iter().map(|v| v.what.as_str()).collect();
    whats.sort_unstable();
    whats.dedup();
    let mut decode = Vec::new();
    decode_conflicts(node, &mut decode);
    let mut tally = Tally::of(&decode);
    tally.errors += whats.len();
    tally
}

/// Appends the decode-level double-claims of `node` to `out`.
fn decode_conflicts(node: &Node, out: &mut Vec<Diagnostic>) {
    let control = node.word.control();
    if ff_function(node.word) == Some(FfOp::IfuLoadPc) && matches!(control, Ok(ControlOp::IfuJump))
    {
        out.push(
            Diagnostic::new(
                NAME,
                Severity::Error,
                node.addr,
                "FF function IFULOADPC conflicts with IFUJUMP in the same word",
            )
            .note("the decoder rejects loading and dispatching the PC in one cycle"),
        );
    }
    if matches!(control, Ok(ControlOp::Dispatch8 { .. })) {
        if let Ok(op) = FfOp::decode(node.word.ff()) {
            let loads = node
                .word
                .load_control()
                .is_ok_and(|l| l.loads_t() || l.loads_rm());
            if writes_state(op) {
                out.push(
                    Diagnostic::new(
                        NAME,
                        Severity::Error,
                        node.addr,
                        format!(
                            "DISPATCH8 table page doubles as FF function {op:?}, which writes machine state"
                        ),
                    )
                    .note("move the dispatch table to a page whose number decodes to a harmless function"),
                );
            } else if op.drives_result() && loads {
                out.push(Diagnostic::new(
                    NAME,
                    Severity::Warning,
                    node.addr,
                    format!(
                        "DISPATCH8 table page doubles as FF function {op:?}, overriding the value written back"
                    ),
                ));
            }
        }
    }
}
