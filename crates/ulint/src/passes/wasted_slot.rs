//! Wasted-slot census: microstore words that execute without doing
//! useful work — the §7 placement costs an optimizer can try to win
//! back.
//!
//! Two kinds are counted:
//!
//! * **branch-window relays** — placer-inserted words (duplicated
//!   branch-pair arms, cross-page escapes with a busy FF) that burn one
//!   store word *and* one executed cycle purely re-aiming `NEXTPC`.
//!   Branch-slot filling can replace many of them with a copy of the
//!   target instruction.
//! * **hold-shadow no-ops** — reachable words whose data path is idle
//!   (no register sink, no stack op, no FF side effect) sitting directly
//!   in the shadow of a memory-start: the cycle the fetch latency could
//!   have hidden is spent doing nothing.  Scheduling can sometimes move
//!   independent work into the shadow.
//!
//! Everything here is informational — wasted words are a cost, not a
//! bug — but the census doubles as the optimizer's opportunity list:
//! `dorado-uopt` reports how much of it each pass reclaimed and why the
//! remainder stays.

use dorado_asm::cfg::Cfg;
use dorado_asm::{FfOp, LoadControl, Microword, PlacedProgram, SlotUse};
use dorado_base::MicroAddr;

use crate::diag::{Diagnostic, Severity};

use super::{ff_function, flag_branch, Pass, PassCtx};

/// Why a word is counted as wasted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WasteKind {
    /// A placer relay: the word only re-aims control at the named label.
    BranchWindow {
        /// The relay's target label.
        target: String,
    },
    /// A data-path-idle word in the cycle shadow of a memory start.
    HoldShadowNop,
}

/// One wasted word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WastedSlot {
    /// The word's address.
    pub at: MicroAddr,
    /// Why it is wasted.
    pub kind: WasteKind,
}

/// Whether `word`'s data path does nothing observable: no register sink,
/// no stack operation, and no FF side effect.  (The ALU still runs and
/// commits flags every cycle, so callers must separately check that no
/// successor is a latched-flag branch before calling the word useless.)
fn datapath_idle(word: Microword) -> bool {
    let load = word.load_control().unwrap_or(LoadControl::None);
    if load.loads_t() || load.loads_rm() || word.block() {
        return false;
    }
    match ff_function(word) {
        // FF decodes to an executable function: only a true no-op is idle.
        Some(op) => op == FfOp::Nop,
        // FF is claimed as a constant or a page number — data, not effect.
        None => true,
    }
}

/// Computes the wasted-slot census of `placed` from its CFG and root
/// facts (`Some` where a root reaches the word): the
/// [`crate::Analyses::wasted`] the diagnostic pass renders and
/// `dorado-uopt` accounts its opportunities against.
pub(crate) fn wasted_slots(
    placed: &PlacedProgram,
    cfg: &Cfg,
    facts: &[Option<u8>],
) -> Vec<WastedSlot> {
    let mut out = Vec::new();
    for (raw, slot) in placed.uses().iter().enumerate() {
        let at = MicroAddr::new(raw as u16);
        match slot {
            SlotUse::Relay(target) => {
                out.push(WastedSlot {
                    at,
                    kind: WasteKind::BranchWindow {
                        target: target.clone(),
                    },
                });
            }
            SlotUse::Inst(_) => {
                if facts[raw].is_none() {
                    continue; // dead-code pass territory
                }
                let Some(node) = cfg.node(at) else {
                    continue;
                };
                if !datapath_idle(node.word) {
                    continue;
                }
                // The idle ALU still commits flags: a latched-flag branch
                // successor means the word is doing the comparison.
                let feeds_flags = (node.succs.iter())
                    .any(|&s| cfg.node(s).is_some_and(|n| flag_branch(n.word).is_some()));
                if feeds_flags {
                    continue;
                }
                let shadowed = node.preds.iter().any(|&p| {
                    cfg.node(p).is_some_and(|n| {
                        n.word.asel().is_ok_and(dorado_asm::ASel::starts_memory_ref)
                    })
                });
                if shadowed {
                    out.push(WastedSlot {
                        at,
                        kind: WasteKind::HoldShadowNop,
                    });
                }
            }
            SlotUse::Empty | SlotUse::Waste => {}
        }
    }
    out
}

/// The wasted-slot pass.
pub struct WastedSlotPass;

impl Pass for WastedSlotPass {
    fn name(&self) -> &'static str {
        "wasted-slot"
    }

    fn run(&self, ctx: &PassCtx<'_>) -> Vec<Diagnostic> {
        (ctx.an.wasted.iter())
            .map(|w| match &w.kind {
                WasteKind::BranchWindow { target } => Diagnostic::new(
                    self.name(),
                    Severity::Info,
                    w.at,
                    format!("wasted slot: relay to `{target}` spends a word and a cycle re-aiming control"),
                )
                .note("branch-slot filling can replace a relay with a copy of its target"),
                WasteKind::HoldShadowNop => Diagnostic::new(
                    self.name(),
                    Severity::Info,
                    w.at,
                    "wasted slot: data-path-idle word in a memory-start shadow",
                )
                .note("the fetch latency could hide a useful instruction here"),
            })
            .collect()
    }
}
