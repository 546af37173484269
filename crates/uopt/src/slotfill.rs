//! Branch-slot filling: replace placer relay words — which spend a
//! store word *and* an executed cycle purely re-aiming NEXTPC — with a
//! copy of the instruction they jump to, re-aimed at that
//! instruction's own destination.  The copy executes the identical
//! data path one cycle earlier and transfers control to the same final
//! address, so the architectural effect of the path is unchanged: the
//! machine state the destination observes (registers, memory order,
//! latched flags, saved carry — all committed by the same word
//! content) is identical, only the relay's wasted cycle disappears.
//!
//! Refusal table (each case recorded in the [`OptReport`]):
//!
//! * **calls** — `LINK` captures the address after the *call word*;
//!   copying it into the relay would return into the relay's page;
//! * **latched-flag branches** — the branch would read flags committed
//!   by the relay's predecessor instead of the original path (ulint's
//!   branch-window pass reports the uncopied case as an error anyway);
//! * **live-condition branches off-page** — the pair base is an
//!   offset in the branch's own page;
//! * **saved-carry consumers** — the copy would chain on the carry of
//!   a different predecessor;
//! * **MEMDATA consumers on a fetch-less path** — a copy reached only
//!   via a path that never starts a fetch turns an imprecise-but-quiet
//!   read into a pinpointed fetch-less read, and the hold-hazard lint
//!   rightly warns; the fill is declined instead;
//! * **cross-page targets with a busy FF** — no encoding re-aims the
//!   copy without clobbering its function or constant;
//! * **fills that lint worse** — each surviving candidate is patched
//!   into the image and re-counted on one [`LintSession`] (reverted if
//!   refused), because a fill also *removes* the relay→target edge: a
//!   target whose only fetch-started path ran through the relay is left
//!   stranded as a labelled root with no fetch preceding its MEMDATA
//!   read.  Trial validation keeps every accepted state no worse than
//!   the last, so the pipeline's final lint gate holds by construction.
//!
//! Return, IFUJUMP, and dispatch words are position-independent (LINK,
//! the IFU, and the FF byte supply absolute addresses), so they copy
//! verbatim.

use dorado_asm::placer::reroute;
use dorado_asm::{
    Cond, ControlOp, FfSlot, Inst, Item, MicroProgram, Microword, PlacedProgram, SlotUse,
};
use dorado_base::MicroAddr;
use dorado_ulint::{Analyses, LintSession, SessionWork};

use crate::deps::{consumes_carry, consumes_memdata};
use crate::OptReport;

/// A relay word of the unfilled placement.
#[derive(Debug, Clone)]
pub struct Relay {
    /// Its address.
    pub at: MicroAddr,
    /// The label it re-aims control at.
    pub target: String,
    /// [`Analyses::fetched`] at the relay, before any fill.
    pub fetched: bool,
}

/// The relays of `placed` in address order, with the fetch facts of
/// `an`, its analysis.
pub fn relays(placed: &PlacedProgram, an: &Analyses) -> Vec<Relay> {
    (placed.uses().iter().enumerate())
        .filter_map(|(raw, slot)| match slot {
            SlotUse::Relay(target) => {
                let at = MicroAddr::new(raw as u16);
                Some(Relay {
                    at,
                    target: target.clone(),
                    fetched: an.fetched(at),
                })
            }
            _ => None,
        })
        .collect()
}

/// Fills every safe relay in `placed` (the placement of `program`),
/// taking over `an`, its analysis, as the validation session's starting
/// state, and recording fills and refusals in `report`.  Returns the
/// session's work counters.
pub fn fill(
    placed: &mut PlacedProgram,
    program: &MicroProgram,
    an: Analyses,
    report: &mut OptReport,
) -> SessionWork {
    let insts = listing(program);
    let relays = relays(placed, &an);
    let mut session = LintSession::new(placed, an);
    let mut current = session.counts();
    for relay in relays {
        let (word, i) = match candidate(session.placed(), &insts, &relay) {
            Ok(found) => found,
            Err(why) => {
                report.refuse(why);
                continue;
            }
        };
        // Trial-validate: the fill also severs the relay→target edge,
        // which can strand the (still labelled) target without the
        // fetch-started path that kept it quiet.
        report.fill_trials += 1;
        session.fill_relay(relay.at, word, i);
        let counts = session.counts();
        if counts.0 <= current.0 && counts.1 <= current.1 {
            current = counts;
            note_fill(report, relay.at, &relay.target);
        } else {
            session.revert();
            report.refuse("fill would strand the target from the paths that kept it lint-clean");
        }
    }
    session.work()
}

/// The instructions of `program`, by listing index.
pub fn listing(program: &MicroProgram) -> Vec<&Inst> {
    program
        .items()
        .iter()
        .filter_map(|item| match item {
            Item::Inst(inst) => Some(inst),
            _ => None,
        })
        .collect()
}

/// The word that would fill `relay` and the listing index it copies,
/// or the refusal-table reason it cannot.  `insts` is the [`listing`]
/// `placed` was placed from.
///
/// # Errors
///
/// Returns the reason recorded in [`OptReport::refusals`].
pub fn candidate(
    placed: &PlacedProgram,
    insts: &[&Inst],
    relay: &Relay,
) -> Result<(Microword, usize), &'static str> {
    let at = relay.at;
    let dest = placed
        .address_of(&relay.target)
        .ok_or("relay target label is unplaced")?;
    let SlotUse::Inst(i) = placed.uses()[dest.raw() as usize] else {
        return Err("relay target is not an instruction word");
    };
    let word = placed.word(dest);
    let control = word
        .control()
        .map_err(|_| "relay target control does not decode")?;
    let inst = *insts.get(i).ok_or("relay target index out of range")?;
    if consumes_carry(inst) {
        return Err("relay target chains on the saved carry");
    }
    if consumes_memdata(inst) && !relay.fetched {
        return Err("relay target reads MEMDATA and no fetch precedes the relay");
    }
    let word = match control {
        ControlOp::Call { .. } | ControlOp::CallLong { .. } => {
            return Err("relay target is a call (LINK captures the wrong address)");
        }
        // Position-independent: copy verbatim.
        ControlOp::Return
        | ControlOp::IfuJump
        | ControlOp::Dispatch8 { .. }
        | ControlOp::Dispatch256 => word,
        ControlOp::CondGoto { cond, .. } => {
            let latched = matches!(
                cond,
                Cond::Zero | Cond::Neg | Cond::Carry | Cond::Overflow | Cond::ROdd
            );
            if latched {
                return Err("relay target branches on latched flags");
            }
            if dest.page() != at.page() {
                return Err("relay target branch pair is on another page");
            }
            word
        }
        ControlOp::Goto { .. } | ControlOp::GotoLong { .. } => {
            let next = control
                .static_next(dest, word.ff())
                .ok_or("relay target has no static successor")?;
            // The FF byte is reclaimable when the instruction never
            // claimed it, or when it already held a page number.
            let ff_free = matches!(inst.ff, FfSlot::Free) || control.uses_ff_page();
            let (new_control, flow_ff) = reroute(at, next, ff_free, false)
                .ok_or("cross-page target and the FF byte is busy")?;
            let new_ff = if new_control.uses_ff_page() {
                flow_ff
            } else if control.uses_ff_page() {
                0x00 // the old page byte would decode as a function
            } else {
                word.ff()
            };
            word.with_control(new_control).with_ff(new_ff)
        }
    };
    Ok((word, i))
}

fn note_fill(report: &mut OptReport, at: MicroAddr, target: &str) {
    report.relays_filled += 1;
    report.notes.push((
        at,
        format!("uopt slotfill: relay filled with a copy of `{target}`"),
    ));
}
