//! Independent structural verification of placed microcode.
//!
//! The placer is trusted nowhere: this module re-checks a
//! [`PlacedProgram`] against the hardware's rules, word by word, with no
//! reference to how placement was computed:
//!
//! * every used word decodes;
//! * every static successor (goto/call/fall-through) lands on a used word;
//! * in-page transfers really are in-page; long transfers carry a page in
//!   FF that is not simultaneously claimed by a constant or function;
//! * conditional branches address an even/odd pair inside their own page,
//!   and both pair words are used;
//! * dispatch instructions point at aligned, fully-populated tables.
//!
//! [`verify`] is used by the property tests and is handy when writing new
//! microcode generators.

use crate::error::AsmError;
use crate::fields::BSel;
use crate::flow::ControlOp;
use crate::placer::{PlacedProgram, SlotUse};
use dorado_base::MicroAddr;

/// A structural violation found in a placed image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The offending word.
    pub at: MicroAddr,
    /// What is wrong.
    pub what: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.at, self.what)
    }
}

fn used(placed: &PlacedProgram, addr: MicroAddr) -> bool {
    !matches!(
        placed.uses()[addr.raw() as usize],
        SlotUse::Empty | SlotUse::Waste
    )
}

/// Checks every used word of `placed`; returns all violations found.
pub fn verify(placed: &PlacedProgram) -> Vec<Violation> {
    let mut out = Vec::new();
    for i in 0..placed.uses().len() {
        verify_word(placed, MicroAddr::new(i as u16), &mut out);
    }
    out
}

/// Checks the word at `at` alone, appending its violations to `out`
/// (none for an unused word).  What it finds depends only on that word
/// and on which words of `placed` are used, so a caller that patches
/// one word in place can re-check just that word.
pub fn verify_word(placed: &PlacedProgram, at: MicroAddr, out: &mut Vec<Violation>) {
    if !used(placed, at) {
        return;
    }
    let word = placed.word(at);
    let control = match word.control() {
        Ok(c) => c,
        Err(e) => {
            out.push(Violation {
                at,
                what: format!("undecodable NextControl: {e}"),
            });
            return;
        }
    };
    let ff_is_const = match word.bsel() {
        Ok(b) => b.is_constant(),
        Err(_) => false,
    };
    // FF sharing: a long transfer's page must not collide with a
    // constant byte.
    if control.uses_ff_page() && ff_is_const {
        out.push(Violation {
            at,
            what: "FF used as both page and constant".into(),
        });
    }
    // When FF carries neither a page nor a constant, it must decode as
    // a function.
    if !control.uses_ff_page() && !ff_is_const {
        if let Err(e) = crate::ff::FfOp::decode(word.ff()) {
            out.push(Violation {
                at,
                what: format!("undecodable FF function: {e}"),
            });
        }
    }
    match control {
        ControlOp::Goto { offset } | ControlOp::Call { offset } => {
            let dest = at.with_offset(offset.into());
            if !used(placed, dest) {
                out.push(Violation {
                    at,
                    what: format!("in-page transfer to unused word {dest}"),
                });
            }
        }
        ControlOp::GotoLong { offset } | ControlOp::CallLong { offset } => {
            let dest = MicroAddr::from_parts(word.ff().into(), offset.into());
            if !used(placed, dest) {
                out.push(Violation {
                    at,
                    what: format!("long transfer to unused word {dest}"),
                });
            }
        }
        ControlOp::CondGoto { pair, .. } => {
            let base = at.with_offset(u16::from(pair) * 2);
            debug_assert_eq!(base.page(), at.page());
            if !base.page_offset().is_multiple_of(2) {
                out.push(Violation {
                    at,
                    what: "branch pair base is odd".into(),
                });
            }
            for k in 0..2u16 {
                let d = MicroAddr::new(base.raw() + k);
                if !used(placed, d) {
                    out.push(Violation {
                        at,
                        what: format!("branch pair word {d} unused"),
                    });
                }
            }
        }
        ControlOp::Dispatch8 { base_hi } => {
            let base = MicroAddr::from_parts(word.ff().into(), if base_hi { 8 } else { 0 });
            for k in 0..8u16 {
                let d = MicroAddr::new(base.raw() + k);
                if !used(placed, d) {
                    out.push(Violation {
                        at,
                        what: format!("dispatch-8 entry {d} unused"),
                    });
                }
            }
        }
        ControlOp::Dispatch256 => {
            let base = u16::from(word.ff() & 0xf) * 256;
            for k in 0..256u16 {
                let d = MicroAddr::new(base + k);
                if !used(placed, d) {
                    out.push(Violation {
                        at,
                        what: format!("dispatch-256 entry {d} unused"),
                    });
                    break; // one report per table is enough
                }
            }
        }
        ControlOp::Return | ControlOp::IfuJump => {}
    }
    // Constants must reconstruct.
    if ff_is_const {
        let b = word.bsel().expect("checked");
        if b != BSel::Rm && crate::constants::const_value(b, word.ff()).is_none() {
            out.push(Violation {
                at,
                what: "constant BSelect without a constant value".into(),
            });
        }
    }
}

/// Convenience: verify and convert the violations into an error.
///
/// # Errors
///
/// Returns [`AsmError::Verification`] carrying *every* violation found,
/// rendered and deduplicated (a corrupt dispatch table would otherwise
/// repeat one complaint per entry).
pub fn verify_ok(placed: &PlacedProgram) -> Result<(), AsmError> {
    let mut rendered: Vec<String> = Vec::new();
    for v in verify(placed) {
        let line = format!("{v}");
        if !rendered.contains(&line) {
            rendered.push(line);
        }
    }
    if rendered.is_empty() {
        Ok(())
    } else {
        Err(AsmError::Verification(rendered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{AluOp, Cond};
    use crate::inst::Inst;
    use crate::program::Assembler;

    fn nop() -> Inst {
        Inst::new()
    }

    #[test]
    fn clean_program_verifies() {
        let mut a = Assembler::new();
        a.emit(nop().ff(crate::ff::FfOp::LoadCountImm(3)).goto_("top"));
        a.pair_align();
        a.label("top");
        a.emit(nop().alu(AluOp::INC_A).load_t().goto_("body"));
        a.label("exit");
        a.emit(nop().ff_halt().goto_("exit"));
        a.label("body");
        a.emit(
            nop()
                .ff(crate::ff::FfOp::DecCount)
                .branch(Cond::CntZero, "exit", "top"),
        );
        let placed = a.place().unwrap();
        assert_eq!(verify(&placed), vec![]);
        assert!(verify_ok(&placed).is_ok());
    }

    #[test]
    fn synthetic_programs_verify() {
        use crate::synth::{random_program, SynthProfile};
        for seed in 1..20 {
            let p = random_program(seed, 400, &SynthProfile::default());
            let placed = p.place().unwrap();
            let violations = verify(&placed);
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        }
    }

    #[test]
    fn corrupted_goto_is_caught() {
        let mut a = Assembler::new();
        a.label("x");
        a.emit(nop().ff_halt().goto_("x"));
        let mut placed = a.place().unwrap();
        assert!(verify(&placed).is_empty());
        // Point the goto into an unused slot.
        let bad = placed
            .word(MicroAddr::new(0))
            .with_control(crate::flow::ControlOp::Goto { offset: 9 });
        placed.set_word(MicroAddr::new(0), bad);
        let violations = verify(&placed);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].what.contains("unused word"));
        assert!(verify_ok(&placed).is_err());
    }

    #[test]
    fn ff_collision_is_caught() {
        let mut a = Assembler::new();
        a.label("x");
        a.emit(nop().ff_halt().goto_("x"));
        let mut placed = a.place().unwrap();
        // A long goto whose FF simultaneously feeds a constant BSelect.
        let bad = crate::microword::Microword::default()
            .with_bsel(crate::fields::BSel::ConstLo0)
            .with_ff(0x07)
            .with_control(crate::flow::ControlOp::GotoLong { offset: 0 });
        placed.set_word(MicroAddr::new(0), bad);
        let violations = verify(&placed);
        assert!(
            violations
                .iter()
                .any(|v| v.what.contains("page and constant")),
            "{violations:?}"
        );
    }

    #[test]
    fn verify_ok_reports_all_violations() {
        let mut a = Assembler::new();
        a.label("x");
        a.emit(nop().goto_("y"));
        a.label("y");
        a.emit(nop().ff_halt().goto_("y"));
        let mut placed = a.place().unwrap();
        assert!(verify(&placed).is_empty());
        // Two independent corruptions: a goto into an unused slot and an
        // FF page/constant collision at a second word.
        let bad0 = placed
            .word(MicroAddr::new(0))
            .with_control(crate::flow::ControlOp::Goto { offset: 9 });
        placed.set_word(MicroAddr::new(0), bad0);
        let bad1 = crate::microword::Microword::default()
            .with_bsel(crate::fields::BSel::ConstLo0)
            .with_ff(0x07)
            .with_control(crate::flow::ControlOp::GotoLong { offset: 9 });
        placed.set_word(MicroAddr::new(1), bad1);
        let err = verify_ok(&placed).unwrap_err();
        let AsmError::Verification(lines) = &err else {
            panic!("expected Verification, got {err:?}");
        };
        assert!(lines.len() >= 2, "{lines:?}");
        // Deduplication: rendering the same violation twice collapses.
        let mut seen = lines.clone();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), lines.len(), "duplicates in {lines:?}");
        assert!(format!("{err}").contains("verification failed"));
    }
}
