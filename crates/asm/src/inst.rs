//! Symbolic microinstructions and the chainable builder used to write
//! microcode in Rust.
//!
//! An [`Inst`] is the pre-placement form of one microinstruction: fields are
//! fully specified, but control flow refers to labels and the FF byte may be
//! claimed by a constant, a function, or (after placement) a page number.
//! The builder enforces, at construction time, the structural rules the
//! paper describes — above all the single-FF-use rule of §5.5.

use crate::constants::const_bsel;
use crate::ff::FfOp;
use crate::fields::{ASel, AluOp, BSel, Cond, LoadControl};
use crate::flow::Flow;
use dorado_base::Word;

/// How an instruction's FF field is committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FfSlot {
    /// FF is free: the placer may use it for a cross-page transfer.
    #[default]
    Free,
    /// FF encodes a function.
    Op(FfOp),
    /// FF is the byte of a byte-form constant (BSelect names the form).
    Const(u8),
}

impl FfSlot {
    /// A description for conflict diagnostics.
    fn describe(self) -> String {
        match self {
            FfSlot::Free => "free".into(),
            FfSlot::Op(op) => format!("function {op}"),
            FfSlot::Const(b) => format!("constant byte {b:#04x}"),
        }
    }
}

/// A symbolic microinstruction.
///
/// Build one with the chainable methods and hand it to
/// [`Assembler::emit`](crate::Assembler::emit):
///
/// ```
/// use dorado_asm::{ASel, AluOp, BSel, Inst};
///
/// // T ← RM[3] + 7, and start a fetch at base[MEMBASE] + RM[3]:
/// let i = Inst::new()
///     .rm(3)
///     .a(ASel::FetchR)
///     .const16(7)
///     .alu(AluOp::ADD)
///     .load_t();
/// assert!(i.starts_fetch());
/// ```
///
/// # Panics
///
/// The builder methods panic on structurally invalid combinations (two uses
/// of FF, two stack specifications, out-of-range fields).  These are
/// assembly-time programming errors, reported as early as possible.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Inst {
    /// Low 4 bits of the RM address (high bits from RBASE), or the stack
    /// pointer delta for a stack op.
    pub raddr: u8,
    /// A-bus source / memory reference start.
    pub asel: ASel,
    /// B-bus source.
    pub bsel: BSel,
    /// ALUFM index.
    pub aluop: AluOp,
    /// Result loading.
    pub load: LoadControl,
    /// The Block bit: block (I/O task) or stack op (task 0).
    pub block: bool,
    /// FF usage.
    pub ff: FfSlot,
    /// Symbolic control flow.
    pub flow: Flow,
    /// Optional source annotation carried into traces and disassembly.
    pub comment: Option<String>,
}

impl Inst {
    /// A fresh instruction: `RESULT ← RM[0] + RM-sourced B`?  No — all
    /// fields default to benign values: A and B from RM\[RBASE‖0\], ALU op 0
    /// (ADD), no load, no block, FF free, flow `Next`.
    pub fn new() -> Self {
        Inst::default()
    }

    fn claim_ff(mut self, slot: FfSlot) -> Self {
        match self.ff {
            FfSlot::Free => {
                self.ff = slot;
                self
            }
            prior => panic!(
                "FF field conflict: {} vs {} (§5.5: only one FF-specified \
                 operation per cycle)",
                prior.describe(),
                slot.describe()
            ),
        }
    }

    /// Addresses RM register `RBASE‖n` (low 4 bits `n`).
    ///
    /// # Panics
    ///
    /// Panics if `n >= 16` or a stack op was already specified.
    #[must_use]
    pub fn rm(mut self, n: u8) -> Self {
        assert!(n < 16, "RAddress {n} out of range (high bits from RBASE)");
        assert!(
            !self.block,
            "rm() conflicts with an earlier stack()/block()"
        );
        self.raddr = n;
        self
    }

    /// Specifies a stack operation (task 0 only): the stack replaces RM and
    /// `delta` (−8..=7) adjusts STACKPTR (§6.3.3).  Reads see the current
    /// top; writes go to the adjusted position.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is out of range or RM addressing was already
    /// specified.
    #[must_use]
    pub fn stack(mut self, delta: i8) -> Self {
        assert!(
            (-8..=7).contains(&delta),
            "stack delta {delta} out of range"
        );
        assert!(!self.block, "stack()/block() specified twice");
        assert!(
            self.raddr == 0,
            "stack() conflicts with an earlier rm() (stack replaces RM)"
        );
        self.block = true;
        self.raddr = (delta as u8) & 0xf;
        self
    }

    /// Sets the Block bit for an I/O task: relinquish the processor after
    /// this instruction (§5.2).
    ///
    /// # Panics
    ///
    /// Panics if a stack op or block was already specified.
    #[must_use]
    pub fn io_block(mut self) -> Self {
        assert!(!self.block, "stack()/block() specified twice");
        self.block = true;
        self
    }

    /// Selects the A-bus source (and memory-reference start).
    #[must_use]
    pub fn a(mut self, asel: ASel) -> Self {
        self.asel = asel;
        self
    }

    /// Selects the B-bus source.
    ///
    /// # Panics
    ///
    /// Panics if `bsel` is a constant form — use [`Inst::const16`] or
    /// [`Inst::const_byte`] so the FF byte is claimed consistently.
    #[must_use]
    pub fn b(mut self, bsel: BSel) -> Self {
        assert!(
            !bsel.is_constant(),
            "use const16()/const_byte() for constant BSelect forms"
        );
        self.bsel = bsel;
        self
    }

    /// Puts a 16-bit byte-form constant on B (§5.9): claims FF.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not in byte form (call
    /// [`synthesis_cost`](crate::synthesis_cost) first, or emit two
    /// instructions), or if FF is already claimed.
    #[must_use]
    pub fn const16(mut self, value: Word) -> Self {
        let (bsel, byte) = const_bsel(value).unwrap_or_else(|| {
            panic!(
                "constant {value:#06x} is not in byte form; assemble it in \
                 two instructions (§5.9)"
            )
        });
        self.bsel = bsel;
        self.claim_ff(FfSlot::Const(byte))
    }

    /// Puts an explicit (BSelect, FF) constant pair on B.
    ///
    /// # Panics
    ///
    /// Panics if `bsel` is not a constant form, or FF is already claimed.
    #[must_use]
    pub fn const_byte(mut self, bsel: BSel, byte: u8) -> Self {
        assert!(bsel.is_constant(), "{bsel:?} is not a constant BSelect");
        self.bsel = bsel;
        self.claim_ff(FfSlot::Const(byte))
    }

    /// Selects the ALU operation (ALUFM index).
    #[must_use]
    pub fn alu(mut self, op: AluOp) -> Self {
        self.aluop = op;
        self
    }

    /// Loads T from RESULT.
    #[must_use]
    pub fn load_t(mut self) -> Self {
        self.load = match self.load {
            LoadControl::None | LoadControl::T => LoadControl::T,
            LoadControl::Rm | LoadControl::Both => LoadControl::Both,
        };
        self
    }

    /// Loads RM (or the stack) from RESULT.
    #[must_use]
    pub fn load_rm(mut self) -> Self {
        self.load = match self.load {
            LoadControl::None | LoadControl::Rm => LoadControl::Rm,
            LoadControl::T | LoadControl::Both => LoadControl::Both,
        };
        self
    }

    /// Invokes an FF function (§5.5): claims FF.
    ///
    /// # Panics
    ///
    /// Panics if FF is already claimed.
    #[must_use]
    pub fn ff(self, op: FfOp) -> Self {
        self.claim_ff(FfSlot::Op(op))
    }

    // --- FF conveniences -------------------------------------------------

    /// FF: COUNT ← COUNT − 1 (tested with [`Cond::CntZero`]).
    #[must_use]
    pub fn ff_dec_count(self) -> Self {
        self.ff(FfOp::DecCount)
    }

    /// FF: halt the simulation.
    #[must_use]
    pub fn ff_halt(self) -> Self {
        self.ff(FfOp::Halt)
    }

    /// FF: slow I/O input (RESULT ← device word).
    #[must_use]
    pub fn ff_input(self) -> Self {
        self.ff(FfOp::IoInput)
    }

    // --- control flow ----------------------------------------------------

    fn set_flow(mut self, flow: Flow) -> Self {
        assert!(
            matches!(self.flow, Flow::Next),
            "control flow specified twice: {:?} then {:?}",
            self.flow,
            flow
        );
        self.flow = flow;
        self
    }

    /// Continue at `label`.
    #[must_use]
    pub fn goto_(self, label: impl Into<String>) -> Self {
        self.set_flow(Flow::Goto(label.into()))
    }

    /// Call the subroutine at `label` (LINK ← return address).
    #[must_use]
    pub fn call(self, label: impl Into<String>) -> Self {
        self.set_flow(Flow::Call(label.into()))
    }

    /// Return via LINK.
    #[must_use]
    pub fn ret(self) -> Self {
        self.set_flow(Flow::Return)
    }

    /// Finish the macroinstruction: the IFU supplies the successor (§5.8).
    #[must_use]
    pub fn ifu_jump(self) -> Self {
        self.set_flow(Flow::IfuJump)
    }

    /// Conditional branch: to `when_true` if `cond` holds, else
    /// `when_false`.  The placer puts `when_false` at an even address and
    /// `when_true` at the next odd address (§5.5).
    #[must_use]
    pub fn branch(
        self,
        cond: Cond,
        when_true: impl Into<String>,
        when_false: impl Into<String>,
    ) -> Self {
        self.set_flow(Flow::Branch {
            cond,
            when_true: when_true.into(),
            when_false: when_false.into(),
        })
    }

    /// Eight-way dispatch on B into the table at `label`.
    #[must_use]
    pub fn dispatch8(self, label: impl Into<String>) -> Self {
        self.set_flow(Flow::Dispatch8(label.into()))
    }

    /// 256-way dispatch on B into the table at `label`.
    #[must_use]
    pub fn dispatch256(self, label: impl Into<String>) -> Self {
        self.set_flow(Flow::Dispatch256(label.into()))
    }

    /// Attaches a source comment (shown in disassembly and traces).
    #[must_use]
    pub fn note(mut self, text: impl Into<String>) -> Self {
        self.comment = Some(text.into());
        self
    }

    // --- queries ----------------------------------------------------------

    /// Whether this instruction starts a memory fetch.
    pub fn starts_fetch(&self) -> bool {
        self.asel.is_fetch()
    }

    /// Whether this instruction starts a memory store.
    pub fn starts_store(&self) -> bool {
        self.asel.is_store()
    }

    /// Whether this instruction is a task-0 stack operation.
    pub fn is_stack_op(&self) -> bool {
        // Task context decides; symbolically, block + any RM use is a stack
        // op for the emulator and a Block for I/O tasks.
        self.block
    }

    /// The FF function, if one is specified.
    pub fn ff_op(&self) -> Option<FfOp> {
        match self.ff {
            FfSlot::Op(op) => Some(op),
            _ => None,
        }
    }

    /// Whether the FF field is still free for the placer (for long jumps).
    pub fn ff_free(&self) -> bool {
        matches!(self.ff, FfSlot::Free)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes() {
        let i = Inst::new()
            .rm(7)
            .a(ASel::FetchR)
            .b(BSel::T)
            .alu(AluOp::SUB)
            .load_t()
            .load_rm()
            .goto_("next");
        assert_eq!(i.raddr, 7);
        assert_eq!(i.load, LoadControl::Both);
        assert!(i.starts_fetch());
        assert!(!i.starts_store());
        assert_eq!(i.flow, Flow::Goto("next".into()));
    }

    #[test]
    fn const16_picks_form() {
        let i = Inst::new().const16(0xff07);
        assert_eq!(i.bsel, BSel::ConstLo1);
        assert_eq!(i.ff, FfSlot::Const(7));
        assert!(!i.ff_free());
    }

    #[test]
    #[should_panic(expected = "byte form")]
    fn const16_rejects_general() {
        let _ = Inst::new().const16(0x1234);
    }

    #[test]
    #[should_panic(expected = "FF field conflict")]
    fn ff_conflict_constant_then_op() {
        let _ = Inst::new().const16(7).ff_dec_count();
    }

    #[test]
    #[should_panic(expected = "FF field conflict")]
    fn ff_conflict_two_ops() {
        let _ = Inst::new().ff(FfOp::ReadQ).ff(FfOp::LoadCount);
    }

    #[test]
    #[should_panic(expected = "control flow specified twice")]
    fn flow_conflict() {
        let _ = Inst::new().ret().goto_("x");
    }

    #[test]
    #[should_panic(expected = "constant BSelect")]
    fn b_rejects_constant_forms() {
        let _ = Inst::new().b(BSel::ConstLo0);
    }

    #[test]
    fn stack_encodes_delta() {
        let i = Inst::new().stack(-1);
        assert!(i.block);
        assert_eq!(i.raddr, 0xf);
        let i = Inst::new().stack(1);
        assert_eq!(i.raddr, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn stack_rejects_big_delta() {
        let _ = Inst::new().stack(8);
    }

    #[test]
    #[should_panic(expected = "conflicts")]
    fn stack_conflicts_with_rm() {
        let _ = Inst::new().rm(3).stack(1);
    }

    #[test]
    fn io_block_sets_bit() {
        let i = Inst::new().io_block();
        assert!(i.block);
        assert!(i.is_stack_op()); // same bit; task context disambiguates
    }

    #[test]
    fn ff_op_query() {
        assert_eq!(Inst::new().ff_dec_count().ff_op(), Some(FfOp::DecCount));
        assert_eq!(Inst::new().ff_op(), None);
        assert!(Inst::new().ff_free());
    }
}
