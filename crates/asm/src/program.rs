//! Symbolic microprograms and the [`Assembler`] front end.
//!
//! Microcode in this workspace is written in Rust, against the chainable
//! [`Inst`] builder, and collected by an [`Assembler`] (playing the role of
//! the Dorado microassembler written by Peter Deutsch and Ed Fiala, see the
//! paper's acknowledgements).  The result is a [`MicroProgram`], which the
//! [placer](crate::placer) turns into a concrete 4096-word microstore image.

use std::collections::HashSet;

use crate::error::AsmError;
use crate::ff::FfOp;
use crate::flow::Flow;
use crate::inst::Inst;
use crate::placer::{place, PlacedProgram};

/// One element of a symbolic program: an instruction or a placer directive.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A microinstruction.
    Inst(Inst),
    /// Attach a label to the next instruction.
    Label(String),
    /// Round the next instruction's address up to an even offset, so that it
    /// and its successor form a conditional-branch pair (§5.5).
    PairAlign,
    /// Round the next instruction's address up to an 8-aligned offset (a
    /// dispatch-8 table base, §6.2.3).
    Align8,
    /// Round the next instruction's address up to a 256-aligned address (a
    /// dispatch-256 table base, §6.2.3).
    Align256,
    /// Start a new page (primarily for tests and placement experiments).
    PageBreak,
}

/// A complete symbolic microprogram, ready for placement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MicroProgram {
    items: Vec<Item>,
}

impl MicroProgram {
    /// The items in listing order.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// The number of instructions (directives and labels excluded).
    pub fn len(&self) -> usize {
        self.items
            .iter()
            .filter(|i| matches!(i, Item::Inst(_)))
            .count()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Places the program into a microstore image.
    ///
    /// # Errors
    ///
    /// Returns an [`AsmError`] when a label is undefined or duplicated, the
    /// store overflows, or a structural constraint cannot be met.
    pub fn place(&self) -> Result<PlacedProgram, AsmError> {
        place(self)
    }

    /// Inserts no-op padding after every instruction whose loaded result is
    /// read by the immediately following instruction, producing microcode
    /// that is correct on a machine *without* the data-bypassing hardware of
    /// §5.6 (the Model-0 ablation, experiment E9).
    ///
    /// Only straight-line (`Flow::Next`) adjacencies are padded; microcode
    /// that branches into a hazard is the microcoder's own lookout, exactly
    /// as it was on the Model 0 ("The result was a number of subtle bugs and
    /// a significant loss of performance").
    pub fn pad_for_no_bypass(&self) -> MicroProgram {
        let mut out = Vec::with_capacity(self.items.len());
        let mut prev_inst: Option<&Inst> = None;
        for item in &self.items {
            if let Item::Inst(inst) = item {
                if let Some(prev) = prev_inst {
                    if matches!(prev.flow, Flow::Next) && hazard(prev, inst) {
                        out.push(Item::Inst(Inst::new().note("no-bypass pad (Model 0)")));
                    }
                }
                prev_inst = Some(inst);
            }
            out.push(item.clone());
        }
        MicroProgram { items: out }
    }
}

/// Whether `next` reads a result that `prev` is still writing back — the
/// one-instruction hazard that bypassing (§5.6, Figure 4) hides.
fn hazard(prev: &Inst, next: &Inst) -> bool {
    let prev_loads_t = prev.load.loads_t();
    let prev_loads_rm = prev.load.loads_rm();
    let prev_loads_q = prev.ff_op() == Some(FfOp::LoadQ);

    // Shift microoperations read both halves of the shifter input (RM, T).
    let next_shifts = matches!(
        next.ff_op(),
        Some(FfOp::ShOut) | Some(FfOp::ShOutZ) | Some(FfOp::ShOutM)
    );

    let next_reads_t = next.asel.reads_t() || next.bsel == crate::fields::BSel::T || next_shifts;
    // Conservative on RM: the low 4 address bits must match (RBASE is
    // dynamic, so equality of the full address cannot be decided here).
    let next_reads_same_rm =
        (next.asel.reads_rm() || next.bsel == crate::fields::BSel::Rm || next_shifts)
            && next.raddr == prev.raddr
            && next.block == prev.block; // stack ops only alias stack ops
    let next_reads_q = next.bsel == crate::fields::BSel::Q
        || next.ff_op() == Some(FfOp::ReadQ)
        || matches!(next.ff_op(), Some(FfOp::MulStep) | Some(FfOp::DivStep));

    (prev_loads_t && next_reads_t)
        || (prev_loads_rm && next_reads_same_rm)
        || (prev_loads_q && next_reads_q)
}

/// The microassembler front end: collects labels, directives, and
/// instructions into a [`MicroProgram`].
///
/// # Examples
///
/// ```
/// use dorado_asm::{Assembler, AluOp, Inst};
///
/// let mut a = Assembler::new();
/// a.label("entry");
/// a.emit(Inst::new().alu(AluOp::INC_A).load_t());
/// a.emit(Inst::new().ff_halt().goto_("entry"));
/// let placed = a.place()?;
/// assert!(placed.address_of("entry").is_some());
/// # Ok::<(), dorado_asm::AsmError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Assembler {
    items: Vec<Item>,
    defined: HashSet<String>,
}

impl Assembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Assembler::default()
    }

    /// Attaches a label to the next emitted instruction.
    ///
    /// # Panics
    ///
    /// Panics if the label was already defined (an authoring error).
    pub fn label(&mut self, name: impl Into<String>) {
        let name = name.into();
        assert!(
            self.defined.insert(name.clone()),
            "duplicate label `{name}`"
        );
        self.items.push(Item::Label(name));
    }

    /// Emits one instruction.
    pub fn emit(&mut self, inst: Inst) {
        self.items.push(Item::Inst(inst));
    }

    /// Requests that the next two instructions form an even/odd
    /// conditional-branch pair.
    pub fn pair_align(&mut self) {
        self.items.push(Item::PairAlign);
    }

    /// Requests 8-alignment for the next instruction (dispatch-8 table).
    pub fn align8(&mut self) {
        self.items.push(Item::Align8);
    }

    /// Requests 256-alignment for the next instruction (dispatch-256 table).
    pub fn align256(&mut self) {
        self.items.push(Item::Align256);
    }

    /// Forces the next instruction onto a fresh page.
    pub fn page_break(&mut self) {
        self.items.push(Item::PageBreak);
    }

    /// Emits `T ← value` for an arbitrary 16-bit constant, using one
    /// instruction when `value` is in byte form and two otherwise (§5.9).
    /// Returns the number of instructions emitted.
    pub fn load_t_const(&mut self, value: u16) -> usize {
        use crate::constants::{const_bsel, two_part};
        use crate::fields::AluOp;
        if const_bsel(value).is_some() {
            self.emit(Inst::new().const16(value).alu(AluOp::B).load_t());
            1
        } else {
            let [(b1, f1), (b2, f2)] = two_part(value);
            self.emit(Inst::new().const_byte(b1, f1).alu(AluOp::B).load_t());
            self.emit(
                Inst::new()
                    .const_byte(b2, f2)
                    .a(crate::fields::ASel::T)
                    .alu(AluOp::OR)
                    .load_t(),
            );
            2
        }
    }

    /// The number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.items
            .iter()
            .filter(|i| matches!(i, Item::Inst(_)))
            .count()
    }

    /// Whether no instructions have been emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finishes assembly, yielding the symbolic program.
    pub fn program(self) -> MicroProgram {
        MicroProgram { items: self.items }
    }

    /// Convenience: finish and place in one step.
    ///
    /// # Errors
    ///
    /// See [`MicroProgram::place`].
    pub fn place(self) -> Result<PlacedProgram, AsmError> {
        self.program().place()
    }
}

/// Builds a `MicroProgram` directly from items (for tests and generators).
impl FromIterator<Item> for MicroProgram {
    fn from_iter<I: IntoIterator<Item = Item>>(iter: I) -> Self {
        MicroProgram {
            items: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{ASel, AluOp, BSel};

    #[test]
    fn assembler_counts_instructions() {
        let mut a = Assembler::new();
        assert!(a.is_empty());
        a.label("x");
        a.emit(Inst::new());
        a.pair_align();
        a.emit(Inst::new());
        assert_eq!(a.len(), 2);
        let p = a.program();
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate label")]
    fn duplicate_labels_panic() {
        let mut a = Assembler::new();
        a.label("x");
        a.label("x");
    }

    #[test]
    fn load_t_const_costs() {
        let mut a = Assembler::new();
        assert_eq!(a.load_t_const(0x0042), 1);
        assert_eq!(a.load_t_const(0x1234), 2);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn pad_detects_t_hazard() {
        let mut a = Assembler::new();
        a.emit(Inst::new().alu(AluOp::INC_A).load_t()); // writes T
        a.emit(Inst::new().a(ASel::T).alu(AluOp::A)); // reads T next cycle
        let p = a.program();
        assert_eq!(p.len(), 2);
        let padded = p.pad_for_no_bypass();
        assert_eq!(padded.len(), 3);
    }

    #[test]
    fn pad_detects_rm_hazard_same_address_only() {
        let mut a = Assembler::new();
        a.emit(Inst::new().rm(3).alu(AluOp::INC_A).load_rm());
        a.emit(Inst::new().rm(4).alu(AluOp::A)); // different register: safe
        a.emit(Inst::new().rm(4).alu(AluOp::INC_A).load_rm());
        a.emit(Inst::new().rm(4).alu(AluOp::A)); // same register: hazard
        let padded = a.program().pad_for_no_bypass();
        assert_eq!(padded.len(), 5);
    }

    #[test]
    fn pad_detects_q_hazard() {
        let mut a = Assembler::new();
        a.emit(Inst::new().b(BSel::T).ff(FfOp::LoadQ));
        a.emit(Inst::new().b(BSel::Q).alu(AluOp::B).load_t());
        let padded = a.program().pad_for_no_bypass();
        assert_eq!(padded.len(), 3);
    }

    #[test]
    fn pad_ignores_non_adjacent_flow() {
        let mut a = Assembler::new();
        a.label("top");
        a.emit(Inst::new().alu(AluOp::INC_A).load_t().goto_("top"));
        a.emit(Inst::new().a(ASel::T)); // not reached by fall-through
        let padded = a.program().pad_for_no_bypass();
        assert_eq!(padded.len(), 2);
    }

    #[test]
    fn shift_ops_read_both_inputs() {
        let mut a = Assembler::new();
        a.emit(Inst::new().rm(0).alu(AluOp::ADD).load_t());
        a.emit(Inst::new().rm(1).ff(FfOp::ShOut).load_t()); // reads T via shifter
        let padded = a.program().pad_for_no_bypass();
        assert_eq!(padded.len(), 3);
    }
}
