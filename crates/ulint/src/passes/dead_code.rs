//! Dead-code analysis: microstore words no task can ever reach, and
//! conditional-branch arms that can never be taken.
//!
//! Reachability comes from the CFG closure over every labelled entry
//! (emulator and I/O).  Dead *arms* are found for CNT=0 branches by a
//! COUNT interval analysis: `CNT←n` pins the interval, `CNT-1` shifts
//! it while it stays above zero (the decrement wraps at zero, which
//! drops to ⊤), joins widen.  The condition is tested *after* the same
//! word's FF executes (§6.3.3: `CNT-1` with a CNT=0 branch tests the
//! decremented value), so the check uses the post-transfer interval.
//!
//! The interval is only sound while no other task writes COUNT (it is a
//! shared register): the analysis is gated off for emulator-region
//! branches when any I/O handler writes COUNT, and vice versa — the
//! task-safety pass reports that situation itself.

use dorado_asm::{Cond, ControlOp, FfOp, Microword};

use crate::analysis::{fixpoint, Domain};
use crate::cfg::Node;
use crate::diag::{Diagnostic, Severity};

use super::{ff_function, Pass, PassCtx};

/// Whether `word` writes COUNT.
fn writes_count(word: Microword) -> bool {
    matches!(
        ff_function(word),
        Some(FfOp::LoadCount | FfOp::LoadCountImm(_) | FfOp::DecCount)
    )
}

/// COUNT as an interval; `None` is ⊤ (unknown).
struct CountInterval;

impl Domain for CountInterval {
    type Value = Option<(u16, u16)>;
    fn entry(&self) -> Self::Value {
        None
    }
    fn join(&self, a: &Self::Value, b: &Self::Value) -> Self::Value {
        match (a, b) {
            (Some((al, ah)), Some((bl, bh))) => Some(((*al).min(*bl), (*ah).max(*bh))),
            _ => None,
        }
    }
    fn transfer(&self, node: &Node, v: &Self::Value) -> Self::Value {
        match ff_function(node.word) {
            Some(FfOp::LoadCountImm(n)) => Some((n.into(), n.into())),
            Some(FfOp::LoadCount) => None,
            Some(FfOp::DecCount) => v.and_then(|(l, h)| {
                // COUNT wraps at zero; only a strictly positive interval
                // shifts down intact.
                if l > 0 {
                    Some((l - 1, h - 1))
                } else {
                    None
                }
            }),
            _ => *v,
        }
    }
    fn widen(&self, _old: &Self::Value, _new: &Self::Value) -> Self::Value {
        None
    }
}

/// Which arm of a CNT=0 conditional branch can never be taken.
enum CntArm {
    /// COUNT is provably 0 at the branch: the CNT≠0 (false) arm is dead,
    /// the branch always goes to its true target.
    AlwaysZero,
    /// COUNT is provably nonzero at the branch: the CNT=0 (true) arm is
    /// dead, the branch always falls to its false target.
    NeverZero,
}

/// One proven-dead branch arm: the branch address, which arm is dead,
/// and the COUNT interval that proves it (tested *after* the word's own
/// FF executes, per §6.3.3).
struct CntArmFact {
    /// Address of the CNT=0 conditional branch.
    at: dorado_base::MicroAddr,
    /// Which arm is dead.
    arm: CntArm,
    /// The post-FF COUNT interval at the branch.
    interval: (u16, u16),
}

/// Computes the dead CNT branch arms over `ctx`.  The interval analysis
/// is gated off wherever COUNT is shared across task classes (the
/// task-safety pass reports that situation itself).
fn cnt_dead_arms(ctx: &PassCtx<'_>) -> Vec<CntArmFact> {
    let mut out = Vec::new();
    let emu_writes = ctx
        .cfg
        .iter()
        .any(|n| ctx.emu_reach[n.addr.raw() as usize] && writes_count(n.word));
    let io_writes = ctx
        .cfg
        .iter()
        .any(|n| ctx.io_reach[n.addr.raw() as usize] && writes_count(n.word));
    let mut roots = ctx.emu_roots();
    roots.extend(ctx.io_roots());
    let counts = fixpoint(ctx.cfg, &roots, &CountInterval, 4);
    for node in ctx.cfg.iter() {
        let Ok(ControlOp::CondGoto {
            cond: Cond::CntZero,
            ..
        }) = node.word.control()
        else {
            continue;
        };
        let i = node.addr.raw() as usize;
        if (ctx.emu_reach[i] && io_writes) || (ctx.io_reach[i] && emu_writes) {
            continue;
        }
        let Some(input) = counts.input(node.addr) else {
            continue;
        };
        let Some((lo, hi)) = CountInterval.transfer(node, input) else {
            continue;
        };
        if lo == 0 && hi == 0 {
            out.push(CntArmFact {
                at: node.addr,
                arm: CntArm::AlwaysZero,
                interval: (lo, hi),
            });
        } else if lo > 0 {
            out.push(CntArmFact {
                at: node.addr,
                arm: CntArm::NeverZero,
                interval: (lo, hi),
            });
        }
    }
    out
}

/// The dead-code pass.
pub struct DeadCode;

impl Pass for DeadCode {
    fn name(&self) -> &'static str {
        "dead-code"
    }

    fn run(&self, ctx: &PassCtx<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for node in ctx.cfg.iter() {
            let i = node.addr.raw() as usize;
            if !ctx.emu_reach[i] && !ctx.io_reach[i] {
                out.push(Diagnostic::new(
                    self.name(),
                    Severity::Warning,
                    node.addr,
                    "word is unreachable from every task entry",
                ));
            }
        }
        // CNT=0 dead arms, gated on COUNT being single-task.
        for fact in cnt_dead_arms(ctx) {
            let (lo, hi) = fact.interval;
            let message = match fact.arm {
                CntArm::AlwaysZero => {
                    "the CNT≠0 arm of this branch is never taken: COUNT is always 0 here"
                        .to_string()
                }
                CntArm::NeverZero => format!(
                    "the CNT=0 arm of this branch is never taken: COUNT is always in \
                     [{lo}, {hi}] here"
                ),
            };
            out.push(
                Diagnostic::new(self.name(), Severity::Warning, fact.at, message)
                    .note("the branch condition tests COUNT after this word's FF executes"),
            );
        }
        out
    }
}
