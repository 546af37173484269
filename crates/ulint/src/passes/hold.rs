//! Hold-hazard analysis (§3.2, §4.2): find every word that can stall
//! the processor by touching a resource that may not be ready, and
//! classify each site.
//!
//! The site set mirrors the simulator's `check_hold` exactly, so it is
//! sound by construction: any Hold the machine raises dynamically must
//! land on a statically listed site (the differential validator in
//! EXPERIMENTS.md E18 asserts this).
//!
//! Classification:
//! * **definite** — the word consumes MEMDATA and an immediate
//!   predecessor starts the fetch; the cache cannot answer in zero
//!   cycles, so Hold *will* occur on that path.
//! * **possible** — the stall depends on dynamic state (pipe busy,
//!   cache miss, IFU buffer empty).
//! * **bypassed** — a same-cycle RAW hazard on T/RM/Q that the bypass
//!   network (§4.2) hides; no Hold, reported for visibility.
//!
//! One genuine defect is reported: a word that consumes MEMDATA when no
//! path from any root has started a fetch — the read returns stale or
//! undefined data (Warning).

use dorado_asm::{ASel, BSel, FfOp, LoadControl, Microword};
use dorado_base::{HoldCause, MicroAddr, MICROSTORE_SIZE};

use crate::cfg::{Cfg, Node};
use crate::diag::{Diagnostic, Severity};

use super::{ff_function, Pass, PassCtx};

/// The statically predicted hold sites, per cause.
#[derive(Debug, Clone)]
pub struct HoldSites {
    /// `by_cause[cause.index()]` lists every word where that cause can
    /// raise Hold.
    pub by_cause: [Vec<MicroAddr>; HoldCause::COUNT],
    /// The same sets as a dense bitmap: bit `cause.index()` of
    /// `causes[raw]` is set iff the word at `raw` is listed for `cause`.
    causes: Vec<u8>,
}

impl HoldSites {
    /// Whether `addr` is a predicted site for `cause`.
    pub fn predicts(&self, cause: HoldCause, addr: MicroAddr) -> bool {
        self.causes[addr.raw() as usize] & (1 << cause.index()) != 0
    }
}

/// Whether `word` can raise Hold for `cause`, mirroring `check_hold`.
pub fn can_hold(word: Microword, cause: HoldCause) -> bool {
    let Ok(asel) = word.asel() else { return false };
    let Ok(bsel) = word.bsel() else { return false };
    let ff = ff_function(word);
    match cause {
        HoldCause::MemData => bsel == BSel::MemData || ff == Some(FfOp::ShOutM),
        HoldCause::IfuOperand => asel.uses_ifudata(),
        HoldCause::MemPipe => asel.is_fetch(),
        HoldCause::MemStorage => {
            asel.starts_memory_ref() || matches!(ff, Some(FfOp::IoFetch16 | FfOp::IoStore16))
        }
        HoldCause::IfuDispatch => {
            matches!(word.control(), Ok(dorado_asm::ControlOp::IfuJump))
        }
    }
}

/// Computes the full static site set over the CFG.
pub fn hold_sites(cfg: &Cfg) -> HoldSites {
    let mut by_cause: [Vec<MicroAddr>; HoldCause::COUNT] = Default::default();
    let mut causes = vec![0u8; MICROSTORE_SIZE];
    for node in cfg.iter() {
        for cause in HoldCause::ALL {
            if can_hold(node.word, cause) {
                by_cause[cause.index()].push(node.addr);
                causes[node.addr.raw() as usize] |= 1 << cause.index();
            }
        }
    }
    HoldSites { by_cause, causes }
}

/// Does `next` read a value `prev` loads in the same cycle window — the
/// §4.2 bypass cases (T, RM same address, Q)?  Mirrors the assembler's
/// `hazard` predicate at the placed-word level.
fn bypassed_pair(prev: Microword, next: Microword) -> Option<&'static str> {
    let prev_load = prev.load_control().unwrap_or(LoadControl::None);
    let (Ok(next_asel), Ok(next_bsel)) = (next.asel(), next.bsel()) else {
        return None;
    };
    let next_ff = ff_function(next);
    let next_shifts = matches!(next_ff, Some(FfOp::ShOut | FfOp::ShOutZ | FfOp::ShOutM));
    if prev_load.loads_t() && (next_asel.reads_t() || next_bsel == BSel::T || next_shifts) {
        return Some("T");
    }
    if prev_load.loads_rm()
        && !prev.block()
        && !next.block()
        && next.raddr() == prev.raddr()
        && (next_asel.reads_rm() || next_bsel == BSel::Rm || next_shifts)
    {
        return Some("RM");
    }
    let prev_writes_q = matches!(
        ff_function(prev),
        Some(FfOp::LoadQ | FfOp::MulStep | FfOp::DivStep)
    );
    if prev_writes_q
        && (next_bsel == BSel::Q
            || matches!(next_ff, Some(FfOp::ReadQ | FfOp::MulStep | FfOp::DivStep)))
    {
        return Some("Q");
    }
    None
}

/// Whether a predecessor of `node` starts a fetch: a MEMDATA read
/// there holds in the very next cycle.
fn adjacent_fetch(cfg: &Cfg, node: &Node) -> bool {
    node.preds.iter().any(|&p| {
        cfg.node(p)
            .is_some_and(|n| n.word.asel().is_ok_and(ASel::is_fetch))
    })
}

/// The pass's one warning, at `node` if it applies: a reachable
/// (`reached`) MEMDATA read that no adjacent fetch precedes and that no
/// root-to-word path starts a fetch before (`fetched` is false).
pub(crate) fn fetchless_read(
    cfg: &Cfg,
    node: &Node,
    reached: bool,
    fetched: bool,
) -> Option<Diagnostic> {
    if !can_hold(node.word, HoldCause::MemData) || !reached || fetched || adjacent_fetch(cfg, node)
    {
        return None;
    }
    Some(
        Diagnostic::new(
            NAME,
            Severity::Warning,
            node.addr,
            "reads MEMDATA but no path from any task entry starts a fetch first",
        )
        .note("the read returns whatever the last memory reference left behind"),
    )
}

const NAME: &str = "hold-hazard";

/// The hold-hazard pass.
pub struct HoldHazard;

impl Pass for HoldHazard {
    fn name(&self) -> &'static str {
        NAME
    }

    fn run(&self, ctx: &PassCtx<'_>) -> Vec<Diagnostic> {
        let (an, cfg) = (ctx.an, &ctx.an.cfg);
        let mut out = Vec::new();
        for node in cfg.iter() {
            // MEMDATA consumers: a genuine defect when no fetch can
            // precede them, else definite after an adjacent fetch and
            // possible otherwise.
            if an.hold.predicts(HoldCause::MemData, node.addr) {
                let (reached, fetched) = (an.reached(node.addr), an.fetched(node.addr));
                let finding = fetchless_read(cfg, node, reached, fetched);
                out.push(finding.unwrap_or_else(|| {
                    let what = if adjacent_fetch(cfg, node) {
                        "definite Hold: consumes MEMDATA in the cycle after the fetch starts"
                    } else {
                        "possible Hold: consumes MEMDATA (stalls until the fetch completes)"
                    };
                    Diagnostic::new(NAME, Severity::Info, node.addr, what)
                }));
            }
            if an.hold.predicts(HoldCause::IfuOperand, node.addr) {
                out.push(Diagnostic::new(
                    NAME,
                    Severity::Info,
                    node.addr,
                    "possible Hold: reads IFU operand bytes (stalls while the buffer is empty)",
                ));
            }
            if an.hold.predicts(HoldCause::IfuDispatch, node.addr) {
                out.push(Diagnostic::new(
                    NAME,
                    Severity::Info,
                    node.addr,
                    "possible Hold: IFUJUMP (stalls until an opcode is decoded)",
                ));
            }
            if an.hold.predicts(HoldCause::MemPipe, node.addr) {
                out.push(Diagnostic::new(
                    NAME,
                    Severity::Info,
                    node.addr,
                    "possible Hold: starts a fetch (stalls while the memory pipe is busy)",
                ));
            } else if an.hold.predicts(HoldCause::MemStorage, node.addr) {
                out.push(Diagnostic::new(
                    NAME,
                    Severity::Info,
                    node.addr,
                    "possible Hold: memory reference (stalls while storage is busy)",
                ));
            }
            // Bypassed same-cycle RAW hazards: no Hold, by §4.2.
            for &p in &node.preds {
                let Some(prev) = cfg.node(p) else {
                    continue;
                };
                if let Some(what) = bypassed_pair(prev.word, node.word) {
                    out.push(
                        Diagnostic::new(
                            NAME,
                            Severity::Info,
                            node.addr,
                            format!("bypassed: reads {what} loaded by {p} in the previous cycle"),
                        )
                        .note("the bypass network forwards the value; no Hold occurs"),
                    );
                }
            }
        }
        out
    }
}
