//! Branch-window analysis (§3.1, §5.5): conditional branches on latched
//! ALU flags read the branch-condition register committed by the
//! *immediately preceding* instruction.  The NEXTPC scheme injects the
//! condition late, so the flags a branch tests are exactly those of its
//! dynamic predecessor — and two static patterns silently break that:
//!
//! * A placer-inserted **relay** between the flag-setting instruction
//!   and the branch.  Relays are synthesized cross-page escapes the
//!   programmer never wrote; like every executed word they run the ALU
//!   (an ADD of whatever A/B select) and commit fresh flags,
//!   clobbering the condition.  Error.
//! * A **call** immediately before the branch: the flags at the branch
//!   come from the callee's RETURN word, not from the instruction the
//!   programmer wrote before the call.  Warning (it can be intentional
//!   when the subroutine computes the condition).
//!
//! Live conditions (CNT=0, IOAtten, StkErr) are exempt — they read
//! machine state at branch time, not the latched flags.

use dorado_asm::ControlOp;

use crate::cfg::{Cfg, Node};
use crate::diag::{Diagnostic, Severity};

use super::{flag_branch, Pass, PassCtx};

/// Whether the `prev → node` edge is a call's *return continuation*
/// (LINK ← THISPC+1) rather than the edge into the callee itself.  Flags
/// at the callee entry come from the CALL word the programmer wrote;
/// only the continuation sees the callee's RETURN flags.
fn is_continuation(prev: &Node, node: &Node) -> bool {
    let continuation = dorado_base::MicroAddr::new(prev.addr.raw().wrapping_add(1));
    let callee = prev
        .word
        .control()
        .ok()
        .and_then(|c| c.static_next(prev.addr, prev.word.ff()));
    node.addr == continuation && Some(node.addr) != callee
}

/// The branch-window pass.
pub struct BranchWindow;

const NAME: &str = "branch-window";

impl Pass for BranchWindow {
    fn name(&self) -> &'static str {
        NAME
    }

    fn run(&self, ctx: &PassCtx<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for node in ctx.an.cfg.iter() {
            findings(&ctx.an.cfg, node, &mut out);
        }
        out
    }
}

/// Appends the pass's findings at `node` to `out`: one per predecessor
/// that clobbers the flags a latched-flag branch at `node` tests.  They
/// depend only on `node`'s word and its predecessors' words.
pub(crate) fn findings(cfg: &Cfg, node: &Node, out: &mut Vec<Diagnostic>) {
    let Some(cond) = flag_branch(node.word) else {
        return;
    };
    for &p in &node.preds {
        let Some(prev) = cfg.node(p) else { continue };
        if prev.relay {
            out.push(
                Diagnostic::new(
                    NAME,
                    Severity::Error,
                    node.addr,
                    format!("branch on {cond} tests flags clobbered by a placer relay at {p}"),
                )
                .note(
                    "the relay word runs the ALU and commits fresh flags; \
                     keep the flag-setting instruction and the branch on one page",
                ),
            );
        } else if prev.word.control().is_ok_and(ControlOp::is_call) && is_continuation(prev, node) {
            out.push(
                Diagnostic::new(
                    NAME,
                    Severity::Warning,
                    node.addr,
                    format!(
                        "branch on {cond} follows the call at {p}: the flags come from \
                         the callee's RETURN word, not the caller"
                    ),
                )
                .note(
                    "intentional only if the subroutine's last instruction computes the condition",
                ),
            );
        }
    }
}
