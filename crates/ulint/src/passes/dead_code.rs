//! Dead-code analysis: microstore words no task can ever reach, and
//! conditional-branch arms that can never be taken.
//!
//! Reachability comes from the CFG closure over every labelled entry
//! (emulator and I/O).  Dead *arms* are found for CNT=0 branches by a
//! COUNT interval analysis: `CNT←n` pins the interval, `CNT-1` shifts
//! it while it stays above zero (the decrement wraps at zero, which
//! drops to ⊤), joins take the hull.  The 5-bit immediates keep every
//! interval inside [0, 31], so the lattice has height at most 33 and
//! needs no widening.  The condition is tested *after* the same
//! word's FF executes (§6.3.3: `CNT-1` with a CNT=0 branch tests the
//! decremented value), so the check uses the post-transfer interval.
//!
//! The interval is only sound while no other task writes COUNT (it is a
//! shared register): the analysis is gated off for emulator-region
//! branches when any I/O handler writes COUNT, and vice versa — the
//! task-safety pass reports that situation itself.

use dorado_asm::{Cond, ControlOp, FfOp, Microword};
use dorado_base::MicroAddr;

use crate::analysis::{self, Domain};
use crate::cfg::Node;
use crate::diag::{Diagnostic, Severity};
use crate::LintConfig;

use super::{ff_function, Pass, PassCtx};

/// Whether `word` writes COUNT.
pub(crate) fn writes_count(word: Microword) -> bool {
    matches!(
        ff_function(word),
        Some(FfOp::LoadCount | FfOp::LoadCountImm(_) | FfOp::DecCount)
    )
}

/// COUNT as an interval; `None` is ⊤ (unknown).
pub(crate) type Count = Option<(u16, u16)>;

/// The [`Count`] domain.
pub(crate) struct CountInterval;

impl Domain for CountInterval {
    type Value = Count;
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
}

/// Every root with the COUNT entry interval.
pub(crate) fn count_seeds(config: &LintConfig) -> Vec<(MicroAddr, Count)> {
    (config.root_seeds().into_iter())
        .map(|(a, _)| (a, CountInterval.entry()))
        .collect()
}

/// Whether `word` is a CNT=0 conditional branch.
pub(crate) fn is_cnt_branch(word: Microword) -> bool {
    matches!(
        word.control(),
        Ok(ControlOp::CondGoto {
            cond: Cond::CntZero,
            ..
        })
    )
}

/// Whether the COUNT interval is unsound at a word the emulator
/// (`emu`) or an I/O task (`io`) reaches, because another task class
/// writes COUNT too (the task-safety pass reports that itself).
pub(crate) fn count_shared(emu: bool, io: bool, emu_writes: bool, io_writes: bool) -> bool {
    (emu && io_writes) || (io && emu_writes)
}

/// The unreachable-word warning at `node`, if no task `reached` it.
pub(crate) fn unreachable(node: &Node, reached: bool) -> Option<Diagnostic> {
    (!reached).then(|| {
        Diagnostic::new(
            NAME,
            Severity::Warning,
            node.addr,
            "word is unreachable from every task entry",
        )
    })
}

/// The dead-arm warning at the CNT=0 branch `node` whose COUNT input
/// is `input`, if one arm can never be taken.  The condition tests COUNT
/// *after* the word's own FF executes (§6.3.3), so the check uses the
/// post-transfer interval.
pub(crate) fn dead_arm(node: &Node, input: Option<&Count>) -> Option<Diagnostic> {
    let (lo, hi) = CountInterval.transfer(node, input?)?;
    let message = if lo == 0 && hi == 0 {
        "the CNT≠0 arm of this branch is never taken: COUNT is always 0 here".to_string()
    } else if lo > 0 {
        format!("the CNT=0 arm of this branch is never taken: COUNT is always in [{lo}, {hi}] here")
    } else {
        return None;
    };
    Some(
        Diagnostic::new(NAME, Severity::Warning, node.addr, message)
            .note("the branch condition tests COUNT after this word's FF executes"),
    )
}

const NAME: &str = "dead-code";

/// The dead-code pass.
pub struct DeadCode;

impl Pass for DeadCode {
    fn name(&self) -> &'static str {
        NAME
    }

    fn run(&self, ctx: &PassCtx<'_>) -> Vec<Diagnostic> {
        let (an, cfg) = (ctx.an, &ctx.an.cfg);
        let mut out = Vec::new();
        for node in cfg.iter() {
            out.extend(unreachable(node, an.reached(node.addr)));
        }
        // CNT=0 dead arms, gated on COUNT being single-task.
        let emu_writes = (cfg.iter()).any(|n| an.emu_reached(n.addr) && writes_count(n.word));
        let io_writes = (cfg.iter()).any(|n| an.io_reached(n.addr) && writes_count(n.word));
        let counts = analysis::solve(cfg, &CountInterval, &count_seeds(&an.config));
        for node in cfg.iter() {
            let a = node.addr;
            if is_cnt_branch(node.word)
                && !count_shared(an.emu_reached(a), an.io_reached(a), emu_writes, io_writes)
            {
                out.extend(dead_arm(node, counts[a.raw() as usize].as_ref()));
            }
        }
        out
    }
}
