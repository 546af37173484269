//! A Smalltalk-76-style byte-code emulator (§7).
//!
//! The defining cost of Smalltalk is the *message send*: the receiver's
//! class is fetched, a method cache is probed, and on a miss the class's
//! method dictionary is searched linearly and the cache refilled — all in
//! microcode, exactly the structure Ingalls describes for Smalltalk-76.
//!
//! Object layout: `[class, field0, field1, ...]` (word addresses).  Class
//! layout: `[dictionary]`; dictionary: `[count, (selector, target)×count]`.
//! The method cache has [`MCACHE_ENTRIES`] four-word entries
//! `[class, selector, target, spare]` hashed by `(class + selector) mod
//! entries`.
//!
//! Calls use BCPL-style link-on-stack activation (Smalltalk-76 contexts
//! are simplified away); the receiver pointer is kept in an RM register
//! for `PUSHINST`.

use std::collections::HashMap;

use dorado_asm::{ASel, AluOp, Assembler, BSel, Cond, FfOp, Inst};
use dorado_base::{VirtAddr, Word};
use dorado_core::Dorado;
use dorado_ifu::{DecodeEntry, OperandKind};

use crate::layout::*;

/// Word address of the method cache.
pub const MCACHE: u32 = 0x0400;
/// Entries in the method cache (each 4 words).
pub const MCACHE_ENTRIES: u32 = 64;
/// RM register holding the current receiver pointer.
pub const R_RCVR: u8 = 14;

/// The Smalltalk opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Op {
    /// Push a byte literal (SmallInteger).
    PushFix = 0x01,
    /// Push global variable *n*.
    PushVar = 0x10,
    /// Pop into global variable *n*.
    SetVar = 0x11,
    /// Push receiver field *n*.
    PushInst = 0x20,
    /// Add (SmallIntegers, unboxed).
    Add = 0x21,
    /// Send: byte selector, byte argument count.  The receiver sits
    /// `nargs` below the stack top.
    Send = 0x50,
    /// Return from a method (result on top, return PC under it).
    MRet = 0x51,
    /// Stop the machine.
    Halt = 0xfe,
}

fn nop() -> Inst {
    Inst::new()
}

/// Emits the Smalltalk emulator microcode; boot entry `st:boot`.
pub fn emit_microcode(a: &mut Assembler) {
    a.label("st:boot");
    a.emit(nop().ff(FfOp::LoadMemBaseImm(BR_DATA)));
    a.emit(nop().ifu_jump());

    // doesNotUnderstand: halt so tests notice.
    a.label("st:dnu");
    a.emit(nop().ff_halt().goto_("st:dnu"));

    // PUSHFIX.
    a.label("st:pushfix");
    a.emit(
        nop()
            .a(ASel::IfuData)
            .alu(AluOp::A)
            .stack(1)
            .load_rm()
            .ifu_jump(),
    );

    // PUSHVAR / SETVAR through the global vector (the IFU selects the
    // base register at dispatch, §6.3.3).
    a.label("st:pushvar");
    a.emit(nop().a(ASel::FetchIfu));
    a.emit(
        nop()
            .b(BSel::MemData)
            .alu(AluOp::B)
            .stack(1)
            .load_rm()
            .ifu_jump(),
    );
    a.label("st:setvar");
    a.emit(nop().a(ASel::StoreIfu).b(BSel::Rm).stack(-1).ifu_jump());

    // PUSHINST n: field n of the current receiver.
    a.label("st:pushinst");
    a.emit(nop().a(ASel::IfuData).alu(AluOp::A).load_t());
    a.emit(nop().rm(R_RCVR).b(BSel::T).alu(AluOp::ADD).load_t());
    a.emit(nop().a(ASel::T).alu(AluOp::INC_A).load_t()); // skip class word
    a.emit(nop().a(ASel::FetchT));
    a.emit(
        nop()
            .b(BSel::MemData)
            .alu(AluOp::B)
            .stack(1)
            .load_rm()
            .ifu_jump(),
    );

    // ADD.
    a.label("st:add");
    a.emit(nop().stack(-1).alu(AluOp::A).load_t());
    a.emit(
        nop()
            .stack(0)
            .b(BSel::T)
            .alu(AluOp::ADD)
            .load_rm()
            .ifu_jump(),
    );

    // SEND sel, nargs.
    a.label("st:send");
    a.emit(nop().rm(R_TGT).a(ASel::IfuData).alu(AluOp::A).load_rm()); // selector
    a.emit(nop().rm(R_NARGS).a(ASel::IfuData).alu(AluOp::A).load_rm());
    // Peek the receiver: STACKPTR is dipped by nargs and restored.
    a.emit(nop().ff(FfOp::ReadStackPtr).load_t());
    a.emit(nop().b(BSel::T).ff(FfOp::LoadQ)); // Q ← saved pointer
    a.emit(nop().rm(R_NARGS).b(BSel::Rm).alu(AluOp::B).load_t()); // T ← nargs
    a.emit(nop().rm(R_VAL).a(ASel::T).alu(AluOp::A).load_rm()); // RM[VAL] ← nargs
    a.emit(nop().ff(FfOp::ReadStackPtr).load_t()); // T ← pointer again
    a.emit(
        nop()
            .rm(R_VAL)
            .a(ASel::T)
            .b(BSel::Rm)
            .alu(AluOp::SUB)
            .load_t(),
    ); // ptr − nargs
    a.emit(nop().b(BSel::T).ff(FfOp::LoadStackPtr));
    a.emit(nop().stack(0).alu(AluOp::A).load_t()); // T ← receiver ptr
    a.emit(nop().b(BSel::Q).ff(FfOp::LoadStackPtr)); // restore pointer
    a.emit(nop().rm(R_RCVR).a(ASel::T).alu(AluOp::A).load_rm());
    // Class: receiver[0].
    a.emit(nop().a(ASel::FetchT));
    a.emit(nop().b(BSel::MemData).alu(AluOp::B).load_t());
    a.emit(nop().rm(R_CTL).a(ASel::T).alu(AluOp::A).load_rm()); // class
                                                                // Hash: (class + selector) & (entries−1), ×4, + MCACHE.
    a.emit(
        nop()
            .rm(R_TGT)
            .a(ASel::T)
            .b(BSel::Rm)
            .alu(AluOp::ADD)
            .load_t(),
    ); // class + sel
    a.emit(
        nop()
            .a(ASel::T)
            .const16((MCACHE_ENTRIES - 1) as Word)
            .alu(AluOp::AND)
            .load_t(),
    );
    a.emit(nop().a(ASel::T).b(BSel::T).alu(AluOp::ADD).load_t()); // ×2
    a.emit(nop().a(ASel::T).b(BSel::T).alu(AluOp::ADD).load_t()); // ×4
    a.emit(
        nop()
            .a(ASel::T)
            .const16(MCACHE as Word)
            .alu(AluOp::ADD)
            .load_t(),
    );
    a.emit(nop().rm(R_ADDR).a(ASel::T).alu(AluOp::A).load_rm());
    // Probe: cache.class == class and cache.selector == selector?
    a.emit(nop().rm(R_ADDR).a(ASel::FetchR).alu(AluOp::INC_A).load_rm());
    a.emit(nop().rm(R_ADDR).a(ASel::FetchR).alu(AluOp::INC_A).load_rm());
    a.emit(nop().rm(R_CTL).b(BSel::MemData).alu(AluOp::XOR).load_t()); // class diff
    a.emit(nop().branch(Cond::Zero, "st:send.c2", "st:send.miss.r"));
    a.label("st:send.miss.r");
    // Drain the still-pending selector fetch before the dictionary walk.
    a.emit(nop().b(BSel::MemData).alu(AluOp::B).goto_("st:send.miss"));
    a.label("st:send.c2");
    a.emit(nop().rm(R_TGT).b(BSel::MemData).alu(AluOp::XOR).load_t()); // sel diff
    a.emit(nop().branch(Cond::Zero, "st:send.hit", "st:send.miss2.r"));
    a.label("st:send.miss2.r");
    a.emit(nop().goto_("st:send.miss"));
    // Hit: target = cache[2]; activate.
    a.label("st:send.hit");
    a.emit(nop().rm(R_ADDR).a(ASel::FetchR));
    a.emit(nop().b(BSel::MemData).alu(AluOp::B).load_t());
    a.label("st:activate");
    a.emit(nop().rm(R_MPD).a(ASel::T).alu(AluOp::A).load_rm()); // target
    a.emit(nop().ff(FfOp::IfuReadPc).load_t());
    a.emit(nop().a(ASel::T).alu(AluOp::A).stack(1).load_rm()); // push return PC
    a.emit(nop().rm(R_NARGS).alu(AluOp::A).load_t());
    a.emit(nop().a(ASel::T).alu(AluOp::A).stack(1).load_rm()); // push nargs
    a.emit(nop().rm(R_MPD).b(BSel::Rm).ff(FfOp::IfuLoadPc));
    a.emit(nop().ifu_jump());
    // Miss: walk the class's method dictionary, refill the cache.
    a.label("st:send.miss");
    a.emit(nop().rm(R_CTL).a(ASel::FetchR)); // class[0] = dictionary
    a.emit(nop().b(BSel::MemData).alu(AluOp::B).load_t());
    a.emit(nop().rm(R_VAL).a(ASel::T).alu(AluOp::A).load_rm()); // dict ptr
    a.emit(nop().rm(R_VAL).a(ASel::FetchR).alu(AluOp::INC_A).load_rm()); // count
    a.emit(nop().b(BSel::MemData).ff(FfOp::LoadCount));
    a.emit(nop().branch(Cond::CntZero, "st:dnu.r", "st:send.scan"));
    a.label("st:dnu.r");
    a.emit(nop().goto_("st:dnu"));
    a.pair_align();
    a.label("st:send.scan");
    a.emit(
        nop()
            .rm(R_VAL)
            .a(ASel::FetchR)
            .alu(AluOp::INC_A)
            .load_rm()
            .goto_("st:send.cmp"),
    );
    a.label("st:send.notfound");
    a.emit(nop().goto_("st:dnu"));
    a.label("st:send.cmp");
    a.emit(nop().rm(R_VAL).a(ASel::FetchR).alu(AluOp::INC_A).load_rm()); // fetch target too
    a.emit(nop().rm(R_TGT).b(BSel::MemData).alu(AluOp::XOR).load_t()); // selector diff
    a.emit(nop().branch(Cond::Zero, "st:send.found", "st:send.next"));
    a.label("st:send.next");
    a.emit(nop().b(BSel::MemData).alu(AluOp::B).load_t()); // discard target
    a.emit(
        nop()
            .ff(FfOp::DecCount)
            .branch(Cond::CntZero, "st:send.notfound", "st:send.scan"),
    );
    a.label("st:send.found");
    a.emit(nop().b(BSel::MemData).alu(AluOp::B).load_t()); // T ← target
                                                           // Refill the cache entry: [class, selector, target].
    a.emit(nop().rm(R_ADDR).const16(2).alu(AluOp::SUB).load_rm()); // back to entry base
    a.emit(nop().rm(R_CTL).b(BSel::Rm).ff(FfOp::LoadQ));
    a.emit(
        nop()
            .rm(R_ADDR)
            .a(ASel::StoreR)
            .b(BSel::Q)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(nop().rm(R_TGT).b(BSel::Rm).ff(FfOp::LoadQ));
    a.emit(
        nop()
            .rm(R_ADDR)
            .a(ASel::StoreR)
            .b(BSel::Q)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(nop().rm(R_ADDR).a(ASel::StoreR).b(BSel::T));
    a.emit(nop().goto_("st:activate"));

    // MRet: stack is [rcvr, args..., retPC, nargs, result]; the send's
    // whole activation — receiver and arguments included — is replaced by
    // the result, as a real Smalltalk return does.
    a.label("st:mret");
    a.emit(nop().stack(-1).alu(AluOp::A).load_t()); // result
    a.emit(nop().b(BSel::T).ff(FfOp::LoadQ));
    a.emit(nop().stack(-1).alu(AluOp::INC_A).load_t()); // T ← nargs + 1
    a.emit(nop().b(BSel::T).ff(FfOp::LoadCount));
    a.emit(nop().stack(-1).alu(AluOp::A).load_t()); // return PC
    a.emit(nop().b(BSel::T).ff(FfOp::IfuLoadPc));
    a.pair_align();
    a.label("st:mret.pop");
    a.emit(nop().stack(-1).goto_("st:mret.dec")); // drop one arg/receiver
    a.label("st:mret.fin");
    a.emit(nop().b(BSel::Q).alu(AluOp::B).stack(1).load_rm()); // push result
    a.emit(nop().ifu_jump());
    a.label("st:mret.dec");
    a.emit(
        nop()
            .ff(FfOp::DecCount)
            .branch(Cond::CntZero, "st:mret.fin", "st:mret.pop"),
    );

    a.label("st:halt");
    a.emit(nop().ff_halt().goto_("st:halt"));
}

/// Opcode table for the IFU.
pub fn opcode_table() -> Vec<(Op, &'static str, Vec<OperandKind>, Option<u8>)> {
    use OperandKind::*;
    vec![
        (Op::PushFix, "st:pushfix", vec![Byte], None),
        (Op::PushVar, "st:pushvar", vec![Byte], Some(BR_GLOBAL)),
        (Op::SetVar, "st:setvar", vec![Byte], Some(BR_GLOBAL)),
        (Op::PushInst, "st:pushinst", vec![Byte], Some(BR_DATA)),
        (Op::Add, "st:add", vec![], None),
        (Op::Send, "st:send", vec![Byte, Byte], Some(BR_DATA)),
        (Op::MRet, "st:mret", vec![], None),
        (Op::Halt, "st:halt", vec![], None),
    ]
}

/// Installs the Smalltalk decode table.
///
/// # Panics
///
/// Panics if the Smalltalk microcode is absent from the image.
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

/// Initializes the Smalltalk runtime: empty method cache, global vector.
pub fn init_runtime(m: &mut Dorado) {
    use dorado_base::BaseRegId;
    m.memory_mut()
        .set_base_reg(BaseRegId::new(BR_GLOBAL), GLOBAL_FRAME);
    clear_method_cache(m);
    m.datapath_mut().set_stackptr(0);
    m.ifu_mut().set_code_base(CODE_BASE);
}

/// Invalidates every method-cache entry.
pub fn clear_method_cache(m: &mut Dorado) {
    for i in 0..MCACHE_ENTRIES * 4 {
        m.memory_mut().write_virt(VirtAddr::new(MCACHE + i), 0xffff);
    }
}

/// Builds a class whose dictionary maps `methods` selectors to byte-code
/// targets, at `class_addr` (dictionary immediately after the class word).
pub fn define_class(m: &mut Dorado, class_addr: u32, methods: &[(Word, Word)]) {
    let dict = class_addr + 1;
    m.memory_mut()
        .write_virt(VirtAddr::new(class_addr), dict as Word);
    m.memory_mut()
        .write_virt(VirtAddr::new(dict), methods.len() as Word);
    for (i, (sel, target)) in methods.iter().enumerate() {
        m.memory_mut()
            .write_virt(VirtAddr::new(dict + 1 + 2 * i as u32), *sel);
        m.memory_mut()
            .write_virt(VirtAddr::new(dict + 2 + 2 * i as u32), *target);
    }
}

/// Creates an object of `class_addr` with the given fields at `addr`.
pub fn define_object(m: &mut Dorado, addr: u32, class_addr: u32, fields: &[Word]) {
    m.memory_mut()
        .write_virt(VirtAddr::new(addr), class_addr as Word);
    for (i, f) in fields.iter().enumerate() {
        m.memory_mut()
            .write_virt(VirtAddr::new(addr + 1 + i as u32), *f);
    }
}

/// The top of the evaluation stack.
pub fn tos(m: &Dorado) -> Word {
    m.datapath().stack_read()
}

/// Host-side assembler for Smalltalk byte programs.
#[derive(Debug, Clone, Default)]
pub struct StAsm {
    bytes: Vec<u8>,
    labels: HashMap<String, usize>,
}

impl StAsm {
    /// A fresh program.
    pub fn new() -> Self {
        StAsm::default()
    }

    /// Defines a label (method entry), returning its byte address.
    ///
    /// # Panics
    ///
    /// Panics on duplicates.
    pub fn label(&mut self, name: impl Into<String>) -> Word {
        let name = name.into();
        let at = self.bytes.len();
        assert!(self.labels.insert(name, at).is_none(), "duplicate label");
        at as Word
    }

    /// A label's byte address (must already be defined).
    ///
    /// # Panics
    ///
    /// Panics if undefined.
    pub fn address_of(&self, name: &str) -> Word {
        self.labels[name] as Word
    }

    /// Push a SmallInteger literal.
    pub fn push_fix(&mut self, n: u8) {
        self.bytes.push(Op::PushFix as u8);
        self.bytes.push(n);
    }

    /// Push global `n`.
    pub fn push_var(&mut self, n: u8) {
        self.bytes.push(Op::PushVar as u8);
        self.bytes.push(n);
    }

    /// Pop into global `n`.
    pub fn set_var(&mut self, n: u8) {
        self.bytes.push(Op::SetVar as u8);
        self.bytes.push(n);
    }

    /// Push receiver field `n`.
    pub fn push_inst(&mut self, n: u8) {
        self.bytes.push(Op::PushInst as u8);
        self.bytes.push(n);
    }

    /// Add.
    pub fn add(&mut self) {
        self.bytes.push(Op::Add as u8);
    }

    /// Send `selector` to the receiver `nargs` deep.
    pub fn send(&mut self, selector: u8, nargs: u8) {
        self.bytes.push(Op::Send as u8);
        self.bytes.push(selector);
        self.bytes.push(nargs);
    }

    /// Return from a method.
    pub fn mret(&mut self) {
        self.bytes.push(Op::MRet as u8);
    }

    /// Halt.
    pub fn halt(&mut self) {
        self.bytes.push(Op::Halt as u8);
    }

    /// The assembled bytes (no fixups: sends use numeric selectors).
    pub fn assemble(self) -> Vec<u8> {
        self.bytes
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
        let placed = a.place().expect("smalltalk places");
        for (_, label, _, _) in opcode_table() {
            assert!(placed.address_of(label).is_some(), "{label}");
        }
    }
}
