//! A BCPL-style byte-code emulator — the Alto-compatible layer (§2, §7).
//!
//! BCPL is the cheapest of the four instruction sets: a word-oriented
//! stack machine with a flat variable vector and link-on-stack calls.  The
//! paper groups its costs with Mesa's ("only one or two microinstructions
//! in Mesa (or BCPL)"); calls are far cheaper than Mesa's XFER because
//! there is no frame allocation at all.
//!
//! The evaluation stack is the hardware stack; variables live in a vector
//! addressed through the `GLOBAL` base register.

use std::collections::HashMap;

use dorado_asm::{ASel, AluOp, Assembler, BSel, Cond, FfOp, Inst};
use dorado_base::Word;
use dorado_core::Dorado;
use dorado_ifu::{DecodeEntry, OperandKind};

use crate::layout::*;

/// The BCPL opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Op {
    /// Push a byte literal.
    Lit = 0x01,
    /// Push a word literal.
    LitW = 0x02,
    /// Push vector cell *n*.
    Lv = 0x10,
    /// Pop into vector cell *n*.
    Sv = 0x11,
    /// Add.
    Add = 0x20,
    /// Subtract.
    Sub = 0x21,
    /// Unconditional jump.
    Jmp = 0x30,
    /// Pop; jump if nonzero.
    Jnz = 0x31,
    /// Call (word target); the return PC is pushed on the stack.
    Call = 0x50,
    /// Return: pop the return PC.
    Ret = 0x51,
    /// Stop the machine.
    Halt = 0xfe,
}

fn nop() -> Inst {
    Inst::new()
}

/// Emits the BCPL emulator microcode; boot entry `bcpl:boot`.
pub fn emit_microcode(a: &mut Assembler) {
    a.label("bcpl:boot");
    a.emit(nop().ff(FfOp::LoadMemBaseImm(BR_GLOBAL)));
    a.emit(nop().ifu_jump());

    // LIT / LITW: push the operand — one microinstruction.
    a.label("bcpl:lit");
    a.emit(
        nop()
            .a(ASel::IfuData)
            .alu(AluOp::A)
            .stack(1)
            .load_rm()
            .ifu_jump(),
    );

    // LV n: fetch vector cell, push — two microinstructions.
    a.label("bcpl:lv");
    a.emit(nop().a(ASel::FetchIfu));
    a.emit(
        nop()
            .b(BSel::MemData)
            .alu(AluOp::B)
            .stack(1)
            .load_rm()
            .ifu_jump(),
    );

    // SV n: store the popped top at the operand cell — one microinstruction.
    a.label("bcpl:sv");
    a.emit(nop().a(ASel::StoreIfu).b(BSel::Rm).stack(-1).ifu_jump());

    // ADD / SUB: pop, combine in place.
    a.label("bcpl:addop");
    a.emit(nop().stack(-1).alu(AluOp::A).load_t());
    a.emit(
        nop()
            .stack(0)
            .b(BSel::T)
            .alu(AluOp::ADD)
            .load_rm()
            .ifu_jump(),
    );
    a.label("bcpl:subop");
    a.emit(nop().stack(-1).alu(AluOp::A).load_t());
    a.emit(
        nop()
            .stack(0)
            .b(BSel::T)
            .alu(AluOp::SUB)
            .load_rm()
            .ifu_jump(),
    );

    // JMP / JNZ.
    a.label("bcpl:jmp");
    a.emit(nop().rm(R_TMP).ff(FfOp::IfuReadPc).load_rm());
    a.label("bcpl:jtake");
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

    a.label("bcpl:jnz");
    a.emit(nop().rm(R_TMP).ff(FfOp::IfuReadPc).load_rm());
    a.emit(nop().stack(-1).alu(AluOp::A).load_t());
    a.emit(nop().branch(Cond::Zero, "bcpl:jnz.nt", "bcpl:jnz.t"));
    a.label("bcpl:jnz.t");
    a.emit(nop().goto_("bcpl:jtake"));
    a.label("bcpl:jnz.nt");
    a.emit(nop().ifu_jump());

    // CALL: push the return PC, jump — no frame (BCPL's cheap linkage).
    a.label("bcpl:call");
    a.emit(nop().rm(R_TGT).a(ASel::IfuData).alu(AluOp::A).load_rm());
    a.emit(nop().ff(FfOp::IfuReadPc).load_t());
    a.emit(nop().a(ASel::T).alu(AluOp::A).stack(1).load_rm());
    a.emit(nop().rm(R_TGT).b(BSel::Rm).ff(FfOp::IfuLoadPc));
    a.emit(nop().ifu_jump());

    // RET: pop the return PC.
    a.label("bcpl:ret");
    a.emit(nop().stack(-1).alu(AluOp::A).load_t());
    a.emit(nop().b(BSel::T).ff(FfOp::IfuLoadPc));
    a.emit(nop().ifu_jump());

    a.label("bcpl:halt");
    a.emit(nop().ff_halt().goto_("bcpl:halt"));
}

/// Opcode table for the IFU.
pub fn opcode_table() -> Vec<(Op, &'static str, Vec<OperandKind>, Option<u8>)> {
    use OperandKind::*;
    vec![
        (Op::Lit, "bcpl:lit", vec![Byte], None),
        (Op::LitW, "bcpl:lit", vec![WordPair], None),
        (Op::Lv, "bcpl:lv", vec![Byte], Some(BR_GLOBAL)),
        (Op::Sv, "bcpl:sv", vec![Byte], Some(BR_GLOBAL)),
        (Op::Add, "bcpl:addop", vec![], None),
        (Op::Sub, "bcpl:subop", vec![], None),
        (Op::Jmp, "bcpl:jmp", vec![SignedByte], None),
        (Op::Jnz, "bcpl:jnz", vec![SignedByte], None),
        (Op::Call, "bcpl:call", vec![WordPair], None),
        (Op::Ret, "bcpl:ret", vec![], None),
        (Op::Halt, "bcpl:halt", vec![], None),
    ]
}

/// Installs the BCPL decode table.
///
/// # Panics
///
/// Panics if the BCPL microcode is absent from the image.
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

/// Initializes the BCPL runtime: the vector lives at the global frame.
pub fn init_runtime(m: &mut Dorado) {
    use dorado_base::BaseRegId;
    m.memory_mut()
        .set_base_reg(BaseRegId::new(BR_GLOBAL), GLOBAL_FRAME);
    m.datapath_mut().set_stackptr(0);
    m.ifu_mut().set_code_base(CODE_BASE);
}

/// Loads a byte program at the code base.
pub fn load_program(m: &mut Dorado, bytes: &[u8]) {
    crate::mesa::load_program(m, bytes);
}

/// The top of the evaluation stack.
pub fn tos(m: &Dorado) -> Word {
    m.datapath().stack_read()
}

/// Host-side assembler for BCPL byte programs.
#[derive(Debug, Clone, Default)]
pub struct BcplAsm {
    bytes: Vec<u8>,
    labels: HashMap<String, usize>,
    fixups: Vec<(usize, String, bool)>,
}

impl BcplAsm {
    /// A fresh program.
    pub fn new() -> Self {
        BcplAsm::default()
    }

    /// Defines a label.
    ///
    /// # Panics
    ///
    /// Panics on duplicates.
    pub fn label(&mut self, name: impl Into<String>) {
        let name = name.into();
        assert!(
            self.labels.insert(name.clone(), self.bytes.len()).is_none(),
            "duplicate label `{name}`"
        );
    }

    /// Push a byte literal.
    pub fn lit(&mut self, n: u8) {
        self.bytes.push(Op::Lit as u8);
        self.bytes.push(n);
    }

    /// Push vector cell `n`.
    pub fn lv(&mut self, n: u8) {
        self.bytes.push(Op::Lv as u8);
        self.bytes.push(n);
    }

    /// Pop into vector cell `n`.
    pub fn sv(&mut self, n: u8) {
        self.bytes.push(Op::Sv as u8);
        self.bytes.push(n);
    }

    /// Add.
    pub fn add(&mut self) {
        self.bytes.push(Op::Add as u8);
    }

    /// Subtract.
    pub fn sub(&mut self) {
        self.bytes.push(Op::Sub as u8);
    }

    /// Jump.
    pub fn jmp(&mut self, target: impl Into<String>) {
        self.bytes.push(Op::Jmp as u8);
        self.fixups.push((self.bytes.len(), target.into(), false));
        self.bytes.push(0);
    }

    /// Pop; jump if nonzero.
    pub fn jnz(&mut self, target: impl Into<String>) {
        self.bytes.push(Op::Jnz as u8);
        self.fixups.push((self.bytes.len(), target.into(), false));
        self.bytes.push(0);
    }

    /// Call.
    pub fn call(&mut self, target: impl Into<String>) {
        self.bytes.push(Op::Call as u8);
        self.fixups.push((self.bytes.len(), target.into(), true));
        self.bytes.push(0);
        self.bytes.push(0);
    }

    /// Return.
    pub fn ret(&mut self) {
        self.bytes.push(Op::Ret as u8);
    }

    /// Halt.
    pub fn halt(&mut self) {
        self.bytes.push(Op::Halt as u8);
    }

    /// Resolves fixups and returns the program.
    ///
    /// # Errors
    ///
    /// Names undefined labels and out-of-range displacements.
    pub fn assemble(mut self) -> Result<Vec<u8>, String> {
        for (at, label, abs) in std::mem::take(&mut self.fixups) {
            let target = *self
                .labels
                .get(&label)
                .ok_or_else(|| format!("undefined label `{label}`"))?
                as i64;
            if abs {
                let v = u16::try_from(target).map_err(|_| "label out of range".to_string())?;
                self.bytes[at] = (v >> 8) as u8;
                self.bytes[at + 1] = v as u8;
            } else {
                let disp = target - (at as i64 + 1);
                if !(-128..=127).contains(&disp) {
                    return Err(format!("jump to `{label}` out of range"));
                }
                self.bytes[at] = disp as i8 as u8;
            }
        }
        Ok(self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microcode_places() {
        let mut a = Assembler::new();
        a.label("trap");
        a.emit(nop().ff_halt().goto_("trap"));
        emit_microcode(&mut a);
        let placed = a.place().expect("bcpl places");
        for (_, label, _, _) in opcode_table() {
            assert!(placed.address_of(label).is_some(), "{label}");
        }
        assert!(placed.words_used() < 64, "BCPL stays lean");
    }

    #[test]
    fn asm_bytes() {
        let mut p = BcplAsm::new();
        p.lit(9);
        p.sv(2);
        p.halt();
        assert_eq!(p.assemble().unwrap(), vec![0x01, 9, 0x11, 2, 0xfe]);
    }
}
