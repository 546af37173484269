//! Stack-depth interval analysis (§6.3.3): prove that no path through
//! the emulator-task microcode can push or pop the 64-word hardware
//! stack out of range.
//!
//! Depths are tracked *relative to entry* as an interval, joined at
//! merges and widened on loops.  Two defects are reported:
//!
//! * a loop whose net stack delta is nonzero — the depth drifts without
//!   bound and must eventually trip the stack-error checker (Error);
//! * a finite excursion wider than the 64-word stack — no entry depth
//!   can keep every path in range (Error).
//!
//! The overall excursion is reported as one Info line for the
//! differential validator and the listings.
//!
//! Stack operations execute only on the emulator task (BLOCK on an I/O
//! task is a yield), so the analysis runs over the emulator region.

use dorado_base::MicroAddr;

use crate::analysis::{Domain, Fixpoint};
use crate::cfg::{Cfg, Node};
use crate::diag::{Diagnostic, Severity};
use crate::Analyses;

use super::{is_stack_op, Pass, PassCtx};

/// Widening sentinels: beyond any real depth.
const MIN: i32 = i32::MIN / 2;
const MAX: i32 = i32::MAX / 2;

/// A depth interval relative to the entry depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Depth {
    /// Least possible relative depth.
    pub lo: i32,
    /// Greatest possible relative depth.
    pub hi: i32,
}

pub(crate) struct DepthDomain;

/// Precise re-joins per node before [`DepthDomain`] widens.
pub(crate) const WIDEN_AFTER: usize = 8;

impl Domain for DepthDomain {
    type Value = Depth;
    fn entry(&self) -> Depth {
        Depth { lo: 0, hi: 0 }
    }
    fn join(&self, a: &Depth, b: &Depth) -> Depth {
        Depth {
            lo: a.lo.min(b.lo),
            hi: a.hi.max(b.hi),
        }
    }
    fn transfer(&self, node: &Node, v: &Depth) -> Depth {
        if is_stack_op(node.word) {
            let d = i32::from(node.word.stack_delta());
            Depth {
                lo: v.lo.saturating_add(d).max(MIN),
                hi: v.hi.saturating_add(d).min(MAX),
            }
        } else {
            *v
        }
    }
    fn widen(&self, old: &Depth, new: &Depth) -> Depth {
        Depth {
            lo: if new.lo < old.lo { MIN } else { old.lo },
            hi: if new.hi > old.hi { MAX } else { old.hi },
        }
    }
}

/// The nodes on some cycle through `at`: reachable from `at` and able
/// to reach it back (via the predecessor edges).
fn cycle_through(cfg: &Cfg, at: MicroAddr) -> Vec<MicroAddr> {
    let fwd = cfg.reach(&[at]);
    let mut back = vec![false; fwd.len()];
    let mut work = vec![at];
    back[at.raw() as usize] = true;
    while let Some(a) = work.pop() {
        let Some(node) = cfg.node(a) else { continue };
        for &p in &node.preds {
            if !back[p.raw() as usize] {
                back[p.raw() as usize] = true;
                work.push(p);
            }
        }
    }
    cfg.iter()
        .map(|n| n.addr)
        .filter(|a| fwd[a.raw() as usize] && back[a.raw() as usize])
        .collect()
}

/// Emulator-reachable stack operations that move the pointer — the
/// static site set every dynamic stack-error event must map into.
pub fn stack_sites(an: &Analyses) -> Vec<MicroAddr> {
    (an.cfg.iter())
        .filter(|n| an.emu_reached(n.addr))
        .filter(|n| is_stack_op(n.word) && n.word.stack_delta() != 0)
        .map(|n| n.addr)
        .collect()
}

/// What the depth states say about the emulator stack: the first stack
/// operation (in address order) whose interval widened, and the span of
/// every finite excursion.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Excursion {
    pub(crate) drift: Option<MicroAddr>,
    span: Depth,
}

/// The [`Excursion`] of the stack operations among `nodes` (in address
/// order) under `states`; other nodes are skipped.
pub(crate) fn excursion<'n>(
    states: &Fixpoint<Depth>,
    nodes: impl Iterator<Item = &'n Node>,
) -> Excursion {
    let mut ex = Excursion {
        drift: None,
        span: Depth { lo: 0, hi: 0 },
    };
    for node in nodes {
        if !is_stack_op(node.word) {
            continue;
        }
        let Some(input) = states.input(node.addr) else {
            continue;
        };
        let after = DepthDomain.transfer(node, input);
        if (after.lo <= MIN || after.hi >= MAX) && ex.drift.is_none() {
            ex.drift = Some(node.addr);
        }
        ex.span.lo = ex.span.lo.min(after.lo.max(MIN + 1));
        ex.span.hi = ex.span.hi.max(after.hi.min(MAX - 1));
    }
    ex
}

/// Whether some cycle through `at` holds a conditional branch, i.e. the
/// loop can exit.
pub(crate) fn has_exit(cfg: &Cfg, at: MicroAddr) -> bool {
    cycle_through(cfg, at).iter().any(|&a| {
        cfg.node(a)
            .is_some_and(|n| matches!(n.word.control(), Ok(dorado_asm::ControlOp::CondGoto { .. })))
    })
}

/// Appends the findings for `ex` to `out`, anchoring a span finding at
/// the emulator `root`; `exits` answers [`has_exit`] for the drift
/// site, if there is one.
pub(crate) fn findings(
    ex: &Excursion,
    root: MicroAddr,
    exits: impl FnOnce(MicroAddr) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    let Excursion { drift, span } = *ex;
    if let Some(at) = drift {
        // The interval widened: every circuit of some loop through this
        // stack op moves STACKPTR.  If the loop has a conditional exit
        // the depth is bounded by the (statically unknown) trip count —
        // report for the listings; a loop with no conditional exit must
        // overflow.  Report once, at the first such site.
        if exits(at) {
            out.push(Diagnostic::new(
                NAME,
                Severity::Info,
                at,
                "stack depth in this loop is bounded only by its iteration count \
                 (net push/pop per circuit is nonzero)",
            ));
        } else {
            out.push(
                Diagnostic::new(
                    NAME,
                    Severity::Error,
                    at,
                    "stack depth drifts without bound around a loop (net push/pop is nonzero)",
                )
                .note("every circuit of the loop moves STACKPTR; the 64-word stack must overflow"),
            );
        }
    } else if span.hi - span.lo > 63 {
        out.push(Diagnostic::new(
            NAME,
            Severity::Error,
            root,
            format!(
                "stack excursion [{:+}, {:+}] spans more than the 64-word stack",
                span.lo, span.hi
            ),
        ));
    } else if span.lo != 0 || span.hi != 0 {
        out.push(Diagnostic::new(
            NAME,
            Severity::Info,
            root,
            format!(
                "emulator stack excursion [{:+}, {:+}] words relative to entry",
                span.lo, span.hi
            ),
        ));
    }
}

const NAME: &str = "stack-depth";

/// The stack-depth pass.
pub struct StackDepth;

impl Pass for StackDepth {
    fn name(&self) -> &'static str {
        NAME
    }

    fn run(&self, ctx: &PassCtx<'_>) -> Vec<Diagnostic> {
        let cfg = &ctx.an.cfg;
        let mut out = Vec::new();
        let roots = ctx.an.config.emu_addrs();
        if roots.is_empty() {
            return out;
        }
        let mut states = Fixpoint::default();
        states.solve(cfg, &roots, &DepthDomain, WIDEN_AFTER);
        let ex = excursion(&states, cfg.iter());
        findings(&ex, roots[0], |at| has_exit(cfg, at), &mut out);
        out
    }
}
