//! A Mesa-style byte-code emulator (§7).
//!
//! Mesa compiled to compact byte codes; the Dorado interpreted them with
//! "only one or two microinstructions" for loads and stores, "five to ten"
//! for field and array operations, and "about 50" for a function call.
//! This module reproduces that cost structure with a small stack-machine
//! ISA:
//!
//! * the evaluation stack lives in the hardware stack (§6.3.3), so pushes
//!   and pops are free side effects of other work;
//! * local variables are addressed through the `LOCAL` memory base
//!   register, so `LL n` is *fetch via IFU operand* + *push MEMDATA* — two
//!   microinstructions — and `SL n` is a single store-from-stack;
//! * calls allocate activation records from a free list and transfer
//!   arguments from the evaluation stack (the XFER of Mesa).
//!
//! Byte programs are produced by the host-side [`MesaAsm`].

use std::collections::HashMap;

use dorado_asm::{ASel, AluOp, Assembler, BSel, Cond, FfOp, Inst, ShiftCtl};
use dorado_base::Word;
use dorado_core::Dorado;
use dorado_ifu::{DecodeEntry, OperandKind};

use crate::layout::*;

/// The Mesa-style opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Op {
    /// Push a byte immediate.
    Lib = 0x01,
    /// Push a word immediate.
    Liw = 0x02,
    /// Push local *n*.
    Ll = 0x10,
    /// Pop into local *n*.
    Sl = 0x11,
    /// Push global *n*.
    Lg = 0x12,
    /// Pop into global *n*.
    Sg = 0x13,
    /// Pop b, pop a, push a+b.
    Add = 0x20,
    /// Pop b, pop a, push a−b.
    Sub = 0x21,
    /// Bitwise AND.
    And = 0x22,
    /// Bitwise OR.
    Or = 0x23,
    /// Bitwise XOR.
    Xor = 0x24,
    /// Two's-complement negate the top of stack.
    Neg = 0x26,
    /// Increment the top of stack.
    Inc = 0x27,
    /// Unconditional jump (signed byte displacement).
    Jb = 0x30,
    /// Pop; jump if zero.
    Jzb = 0x31,
    /// Pop; jump if nonzero.
    Jnzb = 0x32,
    /// Read field: pop address, push extracted field (SHIFTCTL operand).
    Rf = 0x40,
    /// Write field: pop value, pop address, read-modify-write.
    Wf = 0x41,
    /// Array read: pop index, pop base, push `MEM[base+index]`.
    ARead = 0x42,
    /// Array write: pop value, pop index, pop base.
    AWrite = 0x43,
    /// Shift TOS by a raw SHIFTCTL operand.
    Shift = 0x44,
    /// Call: byte operand = argument count, word operand = target.
    Call = 0x50,
    /// Return.
    Ret = 0x51,
    /// Duplicate the top of stack.
    Dup = 0x60,
    /// Discard the top of stack.
    Drop = 0x61,
    /// Multiply: pop two, push high then low.
    Mul = 0x70,
    /// Divide: pop divisor, pop dividend; push remainder then quotient.
    Div = 0x71,
    /// Stop the machine.
    Halt = 0xfe,
}

fn nop() -> Inst {
    Inst::new()
}

/// Emits the Mesa emulator microcode into `a`.  Labels are prefixed
/// `mesa:`; the boot entry is `mesa:boot`.
pub fn emit_microcode(a: &mut Assembler) {
    // Boot: select the locals base register and dispatch the first opcode.
    a.label("mesa:boot");
    a.emit(nop().ff(FfOp::LoadMemBaseImm(BR_LOCAL)));
    a.emit(nop().ifu_jump());

    // LIB / LIW: push the immediate operand — one microinstruction.
    a.label("mesa:lib");
    a.emit(
        nop()
            .a(ASel::IfuData)
            .alu(AluOp::A)
            .stack(1)
            .load_rm()
            .ifu_jump(),
    );

    // LL n: fetch via the IFU operand (locals base), push MEMDATA.
    a.label("mesa:ll");
    a.emit(nop().a(ASel::FetchIfu));
    a.emit(
        nop()
            .b(BSel::MemData)
            .alu(AluOp::B)
            .stack(1)
            .load_rm()
            .ifu_jump(),
    );

    // SL n: store the popped top of stack at the operand address — one
    // microinstruction ("a load or store ... one or two", §7).
    a.label("mesa:sl");
    a.emit(nop().a(ASel::StoreIfu).b(BSel::Rm).stack(-1).ifu_jump());

    // LG / SG: identical to LL/SL — the IFU selects the global base
    // register at dispatch (§6.3.3), so no base-switching instructions.
    a.label("mesa:lg");
    a.emit(nop().a(ASel::FetchIfu));
    a.emit(
        nop()
            .b(BSel::MemData)
            .alu(AluOp::B)
            .stack(1)
            .load_rm()
            .ifu_jump(),
    );
    a.label("mesa:sg");
    a.emit(nop().a(ASel::StoreIfu).b(BSel::Rm).stack(-1).ifu_jump());

    // Binary operators: pop b into T, then combine with the new TOS in
    // place — two microinstructions.
    for (label, alu) in [
        ("mesa:add", AluOp::ADD),
        ("mesa:sub", AluOp::SUB),
        ("mesa:and", AluOp::AND),
        ("mesa:or", AluOp::OR),
        ("mesa:xor", AluOp::XOR),
    ] {
        a.label(label);
        a.emit(nop().stack(-1).alu(AluOp::A).load_t());
        a.emit(nop().stack(0).b(BSel::T).alu(alu).load_rm().ifu_jump());
    }

    // NEG / INC operate on the stack top in place.
    a.label("mesa:neg");
    a.emit(nop().stack(0).alu(AluOp::NOT_A).load_rm());
    a.emit(nop().stack(0).alu(AluOp::INC_A).load_rm().ifu_jump());
    a.label("mesa:inc");
    a.emit(nop().stack(0).alu(AluOp::INC_A).load_rm().ifu_jump());

    // DUP / DROP.
    a.label("mesa:dup");
    a.emit(nop().stack(1).alu(AluOp::A).load_rm().ifu_jump());
    a.label("mesa:drop");
    a.emit(nop().stack(-1).ifu_jump());

    // JB: target = IFUPC + signed displacement.
    a.label("mesa:jb");
    a.emit(nop().rm(R_TMP).ff(FfOp::IfuReadPc).load_rm());
    a.label("mesa:jtake");
    a.emit(
        nop()
            .rm(R_TMP)
            .a(ASel::IfuData)
            .b(BSel::Rm)
            .alu(AluOp::ADD)
            .load_rm(),
    );
    a.emit(nop().rm(R_TMP).b(BSel::Rm).ff(FfOp::IfuLoadPc));
    a.emit(nop().ifu_jump());

    // JZB / JNZB: pop the condition; flags must be set by the instruction
    // immediately before the branch (§5.5).
    a.label("mesa:jzb");
    a.emit(nop().rm(R_TMP).ff(FfOp::IfuReadPc).load_rm());
    a.emit(nop().stack(-1).alu(AluOp::A).load_t());
    a.emit(nop().branch(Cond::Zero, "mesa:jz.t", "mesa:jz.nt"));
    a.label("mesa:jz.nt");
    a.emit(nop().ifu_jump());
    a.label("mesa:jz.t");
    a.emit(nop().goto_("mesa:jtake"));

    a.label("mesa:jnzb");
    a.emit(nop().rm(R_TMP).ff(FfOp::IfuReadPc).load_rm());
    a.emit(nop().stack(-1).alu(AluOp::A).load_t());
    a.emit(nop().branch(Cond::Zero, "mesa:jnz.nt", "mesa:jnz.t"));
    a.label("mesa:jnz.t");
    a.emit(nop().goto_("mesa:jtake"));
    a.label("mesa:jnz.nt");
    a.emit(nop().ifu_jump());

    // RF: pop address, fetch, extract the operand-described field.
    a.label("mesa:rf");
    a.emit(nop().stack(-1).alu(AluOp::A).load_t());
    a.emit(nop().a(ASel::FetchT)); // membase = DATA, selected at dispatch
    a.emit(nop().rm(R_CTL).a(ASel::IfuData).alu(AluOp::A).load_rm());
    a.emit(nop().rm(R_CTL).b(BSel::Rm).ff(FfOp::LoadShiftCtl));
    a.emit(
        nop()
            .rm(R_VAL)
            .b(BSel::MemData)
            .alu(AluOp::B)
            .load_t()
            .load_rm(),
    );
    a.emit(nop().rm(R_VAL).ff(FfOp::ShOutZ).load_t());
    a.emit(nop().a(ASel::T).alu(AluOp::A).stack(1).load_rm().ifu_jump());

    // WF: pop value and address, read-modify-write the field.
    a.label("mesa:wf");
    a.emit(nop().stack(-1).alu(AluOp::A).load_t());
    a.emit(nop().b(BSel::T).ff(FfOp::LoadQ));
    a.emit(nop().stack(-1).alu(AluOp::A).load_t());
    a.emit(nop().rm(R_ADDR).a(ASel::T).alu(AluOp::A).load_rm());
    a.emit(nop().rm(R_ADDR).a(ASel::FetchR)); // membase = DATA at dispatch
    a.emit(nop().rm(R_CTL).a(ASel::IfuData).alu(AluOp::A).load_rm());
    a.emit(nop().rm(R_CTL).b(BSel::Rm).ff(FfOp::LoadShiftCtl));
    a.emit(nop().rm(R_VAL).b(BSel::Q).alu(AluOp::B).load_t().load_rm());
    a.emit(nop().rm(R_VAL).ff(FfOp::ShOutM).load_t());
    a.emit(nop().rm(R_ADDR).a(ASel::StoreR).b(BSel::T).ifu_jump());

    // AREAD: pop index, replace base (new TOS) with MEM[base+index].
    a.label("mesa:aread");
    a.emit(nop().stack(-1).alu(AluOp::A).load_t());
    a.emit(nop().stack(0).b(BSel::T).alu(AluOp::ADD).load_t());
    a.emit(nop().a(ASel::FetchT)); // membase = DATA at dispatch
    a.emit(
        nop()
            .stack(0)
            .b(BSel::MemData)
            .alu(AluOp::B)
            .load_rm()
            .ifu_jump(),
    );

    // AWRITE: pop value, index, base; store value.
    a.label("mesa:awrite");
    a.emit(nop().stack(-1).alu(AluOp::A).load_t());
    a.emit(nop().b(BSel::T).ff(FfOp::LoadQ));
    a.emit(nop().stack(-1).alu(AluOp::A).load_t());
    a.emit(nop().stack(-1).b(BSel::T).alu(AluOp::ADD).load_t());
    a.emit(nop().rm(R_ADDR).a(ASel::T).alu(AluOp::A).load_rm());
    a.emit(nop().rm(R_ADDR).a(ASel::StoreR).b(BSel::Q).ifu_jump());

    // SHIFT: raw SHIFTCTL operand applied to TOS.
    a.label("mesa:shift");
    a.emit(nop().rm(R_CTL).a(ASel::IfuData).alu(AluOp::A).load_rm());
    a.emit(nop().rm(R_CTL).b(BSel::Rm).ff(FfOp::LoadShiftCtl));
    a.emit(nop().stack(-1).alu(AluOp::A).load_t());
    a.emit(nop().rm(R_VAL).a(ASel::T).alu(AluOp::A).load_rm());
    a.emit(nop().rm(R_VAL).ff(FfOp::ShOutZ).load_t());
    a.emit(nop().a(ASel::T).alu(AluOp::A).stack(1).load_rm().ifu_jump());

    // MUL: 16 multiply steps through Q (§6.3.3).
    a.label("mesa:mul");
    a.emit(nop().stack(-1).alu(AluOp::A).load_t());
    a.emit(nop().b(BSel::T).ff(FfOp::LoadQ));
    a.emit(nop().stack(-1).alu(AluOp::A).load_t());
    a.emit(nop().rm(R_MPD).a(ASel::T).alu(AluOp::A).load_rm());
    a.emit(nop().alu(AluOp::ZERO).load_t().ff(FfOp::LoadCountImm(16)));
    a.pair_align();
    a.label("mesa:mul.top");
    a.emit(
        nop()
            .rm(R_MPD)
            .a(ASel::T)
            .b(BSel::Rm)
            .ff(FfOp::MulStep)
            .load_t()
            .goto_("mesa:mul.step"),
    );
    a.label("mesa:mul.done");
    a.emit(
        nop()
            .a(ASel::T)
            .alu(AluOp::A)
            .stack(1)
            .load_rm()
            .goto_("mesa:mul.fin"),
    );
    a.label("mesa:mul.step");
    a.emit(
        nop()
            .ff(FfOp::DecCount)
            .branch(Cond::CntZero, "mesa:mul.done", "mesa:mul.top"),
    );
    a.label("mesa:mul.fin");
    a.emit(nop().b(BSel::Q).alu(AluOp::B).stack(1).load_rm().ifu_jump());

    // DIV: 16 restoring divide steps.
    a.label("mesa:div");
    a.emit(nop().stack(-1).alu(AluOp::A).load_t());
    a.emit(nop().rm(R_MPD).a(ASel::T).alu(AluOp::A).load_rm());
    a.emit(nop().stack(-1).alu(AluOp::A).load_t());
    a.emit(nop().b(BSel::T).ff(FfOp::LoadQ));
    a.emit(nop().alu(AluOp::ZERO).load_t().ff(FfOp::LoadCountImm(16)));
    a.pair_align();
    a.label("mesa:div.top");
    a.emit(
        nop()
            .rm(R_MPD)
            .a(ASel::T)
            .b(BSel::Rm)
            .ff(FfOp::DivStep)
            .load_t()
            .goto_("mesa:div.step"),
    );
    a.label("mesa:div.done");
    a.emit(
        nop()
            .a(ASel::T)
            .alu(AluOp::A)
            .stack(1)
            .load_rm()
            .goto_("mesa:div.fin"),
    );
    a.label("mesa:div.step");
    a.emit(
        nop()
            .ff(FfOp::DecCount)
            .branch(Cond::CntZero, "mesa:div.done", "mesa:div.top"),
    );
    a.label("mesa:div.fin");
    a.emit(nop().b(BSel::Q).alu(AluOp::B).stack(1).load_rm().ifu_jump());

    // CALL: the XFER.  Allocate a frame from the free list, save the
    // caller's L and return PC, move the arguments, activate.
    a.label("mesa:call");
    a.emit(nop().rm(R_NARGS).a(ASel::IfuData).alu(AluOp::A).load_rm());
    a.emit(nop().rm(R_TGT).a(ASel::IfuData).alu(AluOp::A).load_rm());
    a.emit(nop().ff(FfOp::ReadBase).load_t()); // T ← L (locals base selected)
    a.emit(nop().b(BSel::T).ff(FfOp::LoadQ)); // Q ← old L
    a.emit(
        nop()
            .rm(R_AV)
            .alu(AluOp::A)
            .load_t()
            .ff(FfOp::LoadMemBaseImm(BR_DATA)),
    );
    a.emit(nop().a(ASel::FetchT)); // fetch F[0] = next free frame
    a.emit(nop().rm(R_FP).a(ASel::T).alu(AluOp::A).load_rm());
    a.emit(nop().rm(R_AV).b(BSel::MemData).alu(AluOp::B).load_rm());
    a.emit(
        nop()
            .rm(R_FP)
            .a(ASel::StoreR)
            .b(BSel::Q)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(nop().ff(FfOp::IfuReadPc).load_t()); // T ← return byte PC
    a.emit(
        nop()
            .rm(R_FP)
            .a(ASel::StoreR)
            .b(BSel::T)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(nop().rm(R_NARGS).alu(AluOp::A).load_t());
    a.emit(nop().rm(R_FP).b(BSel::T).alu(AluOp::ADD).load_rm());
    a.emit(nop().rm(R_FP).alu(AluOp::DEC_A).load_rm()); // FP = F+1+nargs
    a.emit(nop().rm(R_NARGS).b(BSel::Rm).ff(FfOp::LoadCount));
    a.emit(nop().branch(Cond::CntZero, "mesa:call.done", "mesa:call.top"));
    a.pair_align();
    a.label("mesa:call.top");
    a.emit(
        nop()
            .stack(-1)
            .alu(AluOp::A)
            .load_t()
            .goto_("mesa:call.store"),
    );
    a.label("mesa:call.done");
    a.emit(
        nop()
            .rm(R_FP)
            .alu(AluOp::INC_A)
            .load_t()
            .goto_("mesa:call.setl"),
    );
    a.label("mesa:call.store");
    a.emit(
        nop()
            .rm(R_FP)
            .a(ASel::StoreR)
            .b(BSel::T)
            .alu(AluOp::DEC_A)
            .load_rm(),
    );
    a.emit(
        nop()
            .ff(FfOp::DecCount)
            .branch(Cond::CntZero, "mesa:call.done", "mesa:call.top"),
    );
    a.label("mesa:call.setl");
    a.emit(nop().ff(FfOp::LoadMemBaseImm(BR_LOCAL)));
    a.emit(nop().b(BSel::T).ff(FfOp::LoadBase)); // L ← F+2
    a.emit(nop().rm(R_TGT).b(BSel::Rm).ff(FfOp::IfuLoadPc));
    a.emit(nop().ifu_jump());

    // RET: free the frame, restore L and the return PC.
    a.label("mesa:ret");
    a.emit(nop().ff(FfOp::ReadBase).load_t()); // T ← L
    a.emit(nop().a(ASel::T).const16(2).alu(AluOp::SUB).load_t()); // T ← F
    a.emit(nop().rm(R_FP).a(ASel::T).alu(AluOp::A).load_rm());
    a.emit(
        nop()
            .rm(R_FP)
            .a(ASel::FetchR)
            .ff(FfOp::LoadMemBaseImm(BR_DATA)),
    );
    a.emit(nop().rm(R_FP).alu(AluOp::INC_A).load_rm());
    a.emit(nop().b(BSel::MemData).ff(FfOp::LoadQ)); // Q ← saved L
    a.emit(nop().rm(R_FP).a(ASel::FetchR)); // fetch F[1] = return PC
    a.emit(nop().rm(R_FP).alu(AluOp::DEC_A).load_rm());
    a.emit(nop().rm(R_AV).alu(AluOp::A).load_t()); // T ← free head
    a.emit(nop().rm(R_FP).a(ASel::StoreR).b(BSel::T)); // F[0] ← old head
    a.emit(nop().rm(R_FP).alu(AluOp::A).load_t());
    a.emit(nop().rm(R_AV).a(ASel::T).alu(AluOp::A).load_rm()); // head ← F
    a.emit(nop().ff(FfOp::LoadMemBaseImm(BR_LOCAL)));
    a.emit(nop().b(BSel::Q).ff(FfOp::LoadBase)); // L ← saved L
    a.emit(nop().b(BSel::MemData).alu(AluOp::B).load_t()); // T ← return PC
    a.emit(nop().b(BSel::T).ff(FfOp::IfuLoadPc));
    a.emit(nop().ifu_jump());

    // HALT.
    a.label("mesa:halt");
    a.emit(nop().ff_halt().goto_("mesa:halt"));
}

/// All opcodes, with their decode-table shape (entry label, operands,
/// MEMBASE loaded at dispatch per §6.3.3).
pub fn opcode_table() -> Vec<(Op, &'static str, Vec<OperandKind>, Option<u8>)> {
    use OperandKind::*;
    vec![
        (Op::Lib, "mesa:lib", vec![Byte], None),
        (Op::Liw, "mesa:lib", vec![WordPair], None),
        (Op::Ll, "mesa:ll", vec![Byte], Some(BR_LOCAL)),
        (Op::Sl, "mesa:sl", vec![Byte], Some(BR_LOCAL)),
        (Op::Lg, "mesa:lg", vec![Byte], Some(BR_GLOBAL)),
        (Op::Sg, "mesa:sg", vec![Byte], Some(BR_GLOBAL)),
        (Op::Add, "mesa:add", vec![], None),
        (Op::Sub, "mesa:sub", vec![], None),
        (Op::And, "mesa:and", vec![], None),
        (Op::Or, "mesa:or", vec![], None),
        (Op::Xor, "mesa:xor", vec![], None),
        (Op::Neg, "mesa:neg", vec![], None),
        (Op::Inc, "mesa:inc", vec![], None),
        (Op::Jb, "mesa:jb", vec![SignedByte], None),
        (Op::Jzb, "mesa:jzb", vec![SignedByte], None),
        (Op::Jnzb, "mesa:jnzb", vec![SignedByte], None),
        (Op::Rf, "mesa:rf", vec![WordPair], Some(BR_DATA)),
        (Op::Wf, "mesa:wf", vec![WordPair], Some(BR_DATA)),
        (Op::ARead, "mesa:aread", vec![], Some(BR_DATA)),
        (Op::AWrite, "mesa:awrite", vec![], Some(BR_DATA)),
        (Op::Shift, "mesa:shift", vec![WordPair], None),
        (Op::Call, "mesa:call", vec![Byte, WordPair], Some(BR_LOCAL)),
        (Op::Ret, "mesa:ret", vec![], Some(BR_LOCAL)),
        (Op::Dup, "mesa:dup", vec![], None),
        (Op::Drop, "mesa:drop", vec![], None),
        (Op::Mul, "mesa:mul", vec![], None),
        (Op::Div, "mesa:div", vec![], None),
        (Op::Halt, "mesa:halt", vec![], None),
    ]
}

/// Installs the Mesa decode table into the machine's IFU.
///
/// # Panics
///
/// Panics if the Mesa microcode was not part of the placed image.
pub fn configure_ifu(m: &mut Dorado) {
    for (op, label, operands, membase) in opcode_table() {
        let entry = m
            .label(label)
            .unwrap_or_else(|| panic!("missing microcode label {label}"));
        let mut e = DecodeEntry::new(entry);
        for k in operands {
            e = e.with_operand(k);
        }
        if let Some(mb) = membase {
            e = e.with_membase(mb);
        }
        m.ifu_mut().set_decode_entry(op as u8, e);
    }
}

/// Initializes the Mesa runtime: base registers, the frame free list, and
/// the IFU code base.  Call once before running a program.
pub fn init_runtime(m: &mut Dorado) {
    use dorado_base::{BaseRegId, VirtAddr};
    // Base registers.
    m.memory_mut().set_base_reg(BaseRegId::new(BR_DATA), 0);
    m.memory_mut()
        .set_base_reg(BaseRegId::new(BR_LOCAL), FRAME_POOL + 2);
    m.memory_mut()
        .set_base_reg(BaseRegId::new(BR_GLOBAL), GLOBAL_FRAME);
    // Frame free list: frames 1.. chained through word 0.
    for i in 1..FRAME_COUNT {
        let frame = FRAME_POOL + i * FRAME_WORDS;
        let next = if i + 1 < FRAME_COUNT {
            frame + FRAME_WORDS
        } else {
            0
        };
        m.memory_mut()
            .write_virt(VirtAddr::new(frame), next as Word);
    }
    m.set_rm(R_AV as usize, (FRAME_POOL + FRAME_WORDS) as Word);
    // Evaluation stack: stack 0, empty.
    m.datapath_mut().set_stackptr(0);
    // Code segment.
    m.ifu_mut().set_code_base(CODE_BASE);
}

/// Loads an assembled byte program at the code base.
pub fn load_program(m: &mut Dorado, bytes: &[u8]) {
    use dorado_base::VirtAddr;
    for (i, pair) in bytes.chunks(2).enumerate() {
        let hi = Word::from(pair[0]);
        let lo = Word::from(*pair.get(1).unwrap_or(&0));
        m.memory_mut()
            .write_virt(VirtAddr::new(CODE_BASE.0 + i as u32), (hi << 8) | lo);
    }
    m.ifu_mut().set_code_base(CODE_BASE);
}

/// The emulator's top-of-stack, as seen from the host (for tests): the
/// word most recently pushed to hardware stack 0.
pub fn tos(m: &Dorado) -> Word {
    m.datapath().stack_read()
}

/// The emulator's evaluation-stack depth.
pub fn stack_depth(m: &Dorado) -> usize {
    usize::from(m.datapath().stackptr() & 0x3f)
}

/// How a fixup patches the byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fix {
    /// Signed byte displacement relative to the following instruction.
    RelByte,
    /// Absolute 16-bit byte address (big-endian).
    AbsWord,
}

/// Host-side assembler for Mesa byte programs.
///
/// # Examples
///
/// ```
/// use dorado_emu::mesa::MesaAsm;
///
/// let mut p = MesaAsm::new();
/// p.lib(2);
/// p.lib(3);
/// p.add();
/// p.halt();
/// let bytes = p.assemble()?;
/// assert_eq!(bytes, vec![0x01, 2, 0x01, 3, 0x20, 0xfe]);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct MesaAsm {
    bytes: Vec<u8>,
    labels: HashMap<String, usize>,
    fixups: Vec<(usize, String, Fix)>,
    marks: Vec<(usize, (usize, usize))>,
}

impl MesaAsm {
    /// A fresh, empty program.
    pub fn new() -> Self {
        MesaAsm::default()
    }

    /// Defines a label at the current position.
    ///
    /// # Panics
    ///
    /// Panics on duplicate labels.
    pub fn label(&mut self, name: impl Into<String>) {
        let name = name.into();
        let prev = self.labels.insert(name.clone(), self.bytes.len());
        assert!(prev.is_none(), "duplicate label `{name}`");
    }

    /// The current byte offset (also the label value a `label()` here
    /// would get).
    pub fn here(&self) -> usize {
        self.bytes.len()
    }

    /// Records that the bytes emitted from here on come from the source
    /// range `start..end` (byte offsets into whatever text the caller
    /// compiled).  The map is returned by [`MesaAsm::assemble_with_map`]
    /// so analyzers can point bytecode diagnostics back at source.
    pub fn mark(&mut self, start: usize, end: usize) {
        self.marks.push((self.bytes.len(), (start, end)));
    }

    fn op(&mut self, op: Op) {
        self.bytes.push(op as u8);
    }

    /// Push a byte immediate.
    pub fn lib(&mut self, n: u8) {
        self.op(Op::Lib);
        self.bytes.push(n);
    }

    /// Push a word immediate.
    pub fn liw(&mut self, w: Word) {
        self.op(Op::Liw);
        self.bytes.push((w >> 8) as u8);
        self.bytes.push(w as u8);
    }

    /// Push local `n`.
    pub fn ll(&mut self, n: u8) {
        self.op(Op::Ll);
        self.bytes.push(n);
    }

    /// Pop into local `n`.
    pub fn sl(&mut self, n: u8) {
        self.op(Op::Sl);
        self.bytes.push(n);
    }

    /// Push global `n`.
    pub fn lg(&mut self, n: u8) {
        self.op(Op::Lg);
        self.bytes.push(n);
    }

    /// Pop into global `n`.
    pub fn sg(&mut self, n: u8) {
        self.op(Op::Sg);
        self.bytes.push(n);
    }

    /// Add.
    pub fn add(&mut self) {
        self.op(Op::Add);
    }

    /// Subtract (NOS − TOS).
    pub fn sub(&mut self) {
        self.op(Op::Sub);
    }

    /// Bitwise AND.
    pub fn and(&mut self) {
        self.op(Op::And);
    }

    /// Bitwise OR.
    pub fn or(&mut self) {
        self.op(Op::Or);
    }

    /// Bitwise XOR.
    pub fn xor(&mut self) {
        self.op(Op::Xor);
    }

    /// Negate TOS.
    pub fn neg(&mut self) {
        self.op(Op::Neg);
    }

    /// Increment TOS.
    pub fn inc(&mut self) {
        self.op(Op::Inc);
    }

    /// Duplicate TOS.
    pub fn dup(&mut self) {
        self.op(Op::Dup);
    }

    /// Drop TOS.
    pub fn drop_top(&mut self) {
        self.op(Op::Drop);
    }

    fn jump_op(&mut self, op: Op, target: impl Into<String>) {
        self.op(op);
        self.fixups
            .push((self.bytes.len(), target.into(), Fix::RelByte));
        self.bytes.push(0);
    }

    /// Unconditional jump.
    pub fn jb(&mut self, target: impl Into<String>) {
        self.jump_op(Op::Jb, target);
    }

    /// Pop; jump if zero.
    pub fn jzb(&mut self, target: impl Into<String>) {
        self.jump_op(Op::Jzb, target);
    }

    /// Pop; jump if nonzero.
    pub fn jnzb(&mut self, target: impl Into<String>) {
        self.jump_op(Op::Jnzb, target);
    }

    /// Read the `size`-bit field at bit `pos` of the word TOS points to.
    pub fn rf(&mut self, pos: u8, size: u8) {
        self.op(Op::Rf);
        let ctl = ShiftCtl::field_extract(pos, size).raw();
        self.bytes.push((ctl >> 8) as u8);
        self.bytes.push(ctl as u8);
    }

    /// Write the `size`-bit field at bit `pos` (value at TOS, address NOS).
    pub fn wf(&mut self, pos: u8, size: u8) {
        self.op(Op::Wf);
        let ctl = ShiftCtl::field_insert(pos, size).raw();
        self.bytes.push((ctl >> 8) as u8);
        self.bytes.push(ctl as u8);
    }

    /// Array read.
    pub fn aread(&mut self) {
        self.op(Op::ARead);
    }

    /// Array write.
    pub fn awrite(&mut self) {
        self.op(Op::AWrite);
    }

    /// Shift TOS with an explicit control word.
    pub fn shift(&mut self, ctl: ShiftCtl) {
        self.op(Op::Shift);
        let raw = ctl.raw();
        self.bytes.push((raw >> 8) as u8);
        self.bytes.push(raw as u8);
    }

    /// Call the procedure at `target` with `nargs` stacked arguments.
    pub fn call(&mut self, target: impl Into<String>, nargs: u8) {
        self.op(Op::Call);
        self.bytes.push(nargs);
        self.fixups
            .push((self.bytes.len(), target.into(), Fix::AbsWord));
        self.bytes.push(0);
        self.bytes.push(0);
    }

    /// Return from the current procedure.
    pub fn ret(&mut self) {
        self.op(Op::Ret);
    }

    /// Multiply.
    pub fn mul(&mut self) {
        self.op(Op::Mul);
    }

    /// Divide.
    pub fn div(&mut self) {
        self.op(Op::Div);
    }

    /// Halt the machine.
    pub fn halt(&mut self) {
        self.op(Op::Halt);
    }

    /// Resolves fixups and returns the byte program.
    ///
    /// # Errors
    ///
    /// Returns a message naming any undefined label or out-of-range
    /// displacement.
    pub fn assemble(self) -> Result<Vec<u8>, String> {
        self.assemble_with_map().map(|(bytes, _)| bytes)
    }

    /// Like [`MesaAsm::assemble`], but also returns the source map: for
    /// each [`MesaAsm::mark`] call, the byte offset it applies from and
    /// the `(start, end)` source range.  Offsets are non-decreasing; a
    /// mark covers the bytes up to the next mark (or the program end).
    ///
    /// # Errors
    ///
    /// Returns a message naming any undefined label or out-of-range
    /// displacement.
    #[allow(clippy::type_complexity)]
    pub fn assemble_with_map(mut self) -> Result<(Vec<u8>, Vec<(usize, (usize, usize))>), String> {
        for (at, label, fix) in std::mem::take(&mut self.fixups) {
            let target = *self
                .labels
                .get(&label)
                .ok_or_else(|| format!("undefined label `{label}`"))?
                as i64;
            match fix {
                Fix::RelByte => {
                    let disp = target - (at as i64 + 1);
                    if !(-128..=127).contains(&disp) {
                        return Err(format!("jump to `{label}` out of byte range ({disp})"));
                    }
                    self.bytes[at] = disp as i8 as u8;
                }
                Fix::AbsWord => {
                    let abs = u16::try_from(target)
                        .map_err(|_| format!("label `{label}` out of range"))?;
                    self.bytes[at] = (abs >> 8) as u8;
                    self.bytes[at + 1] = abs as u8;
                }
            }
        }
        Ok((self.bytes, self.marks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asm_emits_expected_bytes() {
        let mut p = MesaAsm::new();
        p.liw(0x1234);
        p.ll(3);
        p.sub();
        p.halt();
        let b = p.assemble().unwrap();
        assert_eq!(b, vec![0x02, 0x12, 0x34, 0x10, 3, 0x21, 0xfe]);
    }

    #[test]
    fn jumps_resolve_backwards_and_forwards() {
        let mut p = MesaAsm::new();
        p.label("top");
        p.lib(1); // 2 bytes
        p.jnzb("end"); // at 2: operand at 3, next at 4; end at 6 -> disp 2
        p.jb("top"); // at 4: operand at 5, next at 6; top at 0 -> disp -6
        p.label("end");
        p.halt();
        let b = p.assemble().unwrap();
        assert_eq!(b[3], 2);
        assert_eq!(b[5] as i8, -6);
    }

    #[test]
    fn undefined_label_errors() {
        let mut p = MesaAsm::new();
        p.jb("nowhere");
        assert!(p.assemble().is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_labels_panic() {
        let mut p = MesaAsm::new();
        p.label("x");
        p.label("x");
    }

    #[test]
    fn microcode_assembles_and_places() {
        let mut a = Assembler::new();
        a.label("trap");
        a.emit(nop().ff_halt().goto_("trap"));
        emit_microcode(&mut a);
        let placed = a.place().expect("mesa microcode must place");
        for (_, label, _, _) in opcode_table() {
            assert!(placed.address_of(label).is_some(), "{label}");
        }
        // The whole emulator is a few hundred words at most.
        assert!(placed.words_used() < 512, "{}", placed.words_used());
    }
}
