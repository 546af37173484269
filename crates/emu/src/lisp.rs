//! An Interlisp-style byte-code emulator (§7).
//!
//! "Lisp deals with 32 bit items and keeps its stack in memory, so two
//! loads and two stores are done in a basic data transfer operation ...
//! complex operations take ... ten to twenty \[microinstructions\] in Lisp.
//! Note that Lisp does runtime checking of parameters ... Function calls
//! take ... 200 \[microinstructions\] for Lisp."
//!
//! Items are two 16-bit words: the *high* word carries a 4-bit tag in bits
//! 15–12 plus high data bits, the *low* word the low 16 data bits:
//!
//! | Tag | Meaning |
//! |-----|---------|
//! | 0   | FIXNUM |
//! | 1   | NIL |
//! | 2   | CONS (low word = cell address; cell = car.hi, car.lo, cdr.hi, cdr.lo) |
//! | 3   | SYMBOL |
//!
//! The evaluation stack grows upward from [`LISP_STACK`]; frames are
//! bump-allocated in the frame region; the cons heap grows from
//! [`LISP_HEAP`].  Operand pops type-check the tag and divert to
//! `lisp:tagerr` (which halts) on mismatch — the run-time checking the
//! paper charges Lisp for.

use std::collections::HashMap;

use dorado_asm::{ASel, AluOp, Assembler, BSel, Cond, FfOp, Inst};
use dorado_base::{VirtAddr, Word};
use dorado_core::Dorado;
use dorado_ifu::{DecodeEntry, OperandKind};

use crate::layout::*;

/// Tag values (high-word bits 15–12).
pub mod tag {
    /// Fixnum.
    pub const FIXNUM: u16 = 0;
    /// NIL.
    pub const NIL: u16 = 1;
    /// Cons cell pointer.
    pub const CONS: u16 = 2;
    /// Symbol.
    pub const SYMBOL: u16 = 3;
}

/// RM register holding the current frame's argument base.
pub const R_LFP: u8 = 12;
/// RM register holding the frame-stack bump pointer.
pub const R_LFS: u8 = 13;

/// Words per Lisp activation record (header 3 + items).
pub const LISP_FRAME_WORDS: u32 = 16;

/// The Lisp opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Op {
    /// Push a fixnum (word operand).
    PushFix = 0x01,
    /// Push NIL.
    PushNil = 0x02,
    /// Push argument/local *n* (operand pre-scaled to 2n by the assembler).
    LGet = 0x10,
    /// Pop into argument/local *n*.
    LSet = 0x11,
    /// Pop two fixnums, push their sum (with tag checks).
    Add = 0x20,
    /// Pop two fixnums, push their difference.
    Sub = 0x21,
    /// Pop cdr then car, push a fresh cons.
    Cons = 0x30,
    /// Pop a cons, push its car.
    Car = 0x31,
    /// Pop a cons, push its cdr.
    Cdr = 0x32,
    /// Pop; jump if NIL (signed byte displacement).
    JNil = 0x40,
    /// Unconditional jump.
    Jmp = 0x41,
    /// Call: byte nargs + word target.
    Call = 0x50,
    /// Return (value on the eval stack).
    Ret = 0x51,
    /// Stop the machine.
    Halt = 0xfe,
}

fn nop() -> Inst {
    Inst::new()
}

/// Pops the top item's two words: after these four instructions the low
/// word arrives on MEMDATA first, then the high word.
fn emit_pop_fetches(a: &mut Assembler) {
    a.emit(nop().rm(R_LSP).alu(AluOp::DEC_A).load_rm());
    a.emit(nop().rm(R_LSP).a(ASel::FetchR)); // low word
    a.emit(nop().rm(R_LSP).alu(AluOp::DEC_A).load_rm());
    a.emit(nop().rm(R_LSP).a(ASel::FetchR)); // high word
}

/// Tag check on T (a high word): diverts to `lisp:tagerr` unless the tag
/// equals `expect`; the unique continuation label `ok` is emitted inline.
/// Clobbers T.
fn emit_tag_check(a: &mut Assembler, expect: u16, ok: &str) {
    a.emit(nop().a(ASel::T).const16(0xf000).alu(AluOp::AND).load_t());
    a.emit(nop().a(ASel::T).const16(expect << 12).alu(AluOp::XOR));
    a.emit(nop().branch(Cond::Zero, ok, "lisp:tagerr"));
    a.label(ok.to_string());
}

/// Emits the Lisp emulator microcode; boot entry `lisp:boot`.
pub fn emit_microcode(a: &mut Assembler) {
    a.label("lisp:boot");
    a.emit(nop().ff(FfOp::LoadMemBaseImm(BR_DATA)));
    a.emit(nop().ifu_jump());

    // Run-time type error: halt here so tests notice the PC.
    a.label("lisp:tagerr");
    a.emit(nop().ff_halt().goto_("lisp:tagerr"));

    // PUSHFIX w: store the tag word (0) and the operand.
    a.label("lisp:pushfix");
    a.emit(
        nop()
            .rm(R_LSP)
            .a(ASel::StoreR)
            .const16(0)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(nop().a(ASel::IfuData).alu(AluOp::A).load_t());
    a.emit(
        nop()
            .rm(R_LSP)
            .a(ASel::StoreR)
            .b(BSel::T)
            .alu(AluOp::INC_A)
            .load_rm()
            .ifu_jump(),
    );

    // PUSHNIL.
    a.label("lisp:pushnil");
    a.emit(
        nop()
            .rm(R_LSP)
            .a(ASel::StoreR)
            .const16(tag::NIL << 12)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(
        nop()
            .rm(R_LSP)
            .a(ASel::StoreR)
            .const16(0)
            .alu(AluOp::INC_A)
            .load_rm()
            .ifu_jump(),
    );

    // LGET 2n: two loads and two stores — the paper's basic Lisp transfer.
    a.label("lisp:lget");
    a.emit(nop().a(ASel::IfuData).alu(AluOp::A).load_t());
    a.emit(nop().rm(R_LFP).b(BSel::T).alu(AluOp::ADD).load_t());
    a.emit(nop().a(ASel::FetchT)); // item.hi
    a.emit(nop().a(ASel::T).alu(AluOp::INC_A).load_t());
    a.emit(nop().a(ASel::FetchT)); // item.lo
    a.emit(
        nop()
            .rm(R_LSP)
            .a(ASel::StoreR)
            .b(BSel::MemData)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(
        nop()
            .rm(R_LSP)
            .a(ASel::StoreR)
            .b(BSel::MemData)
            .alu(AluOp::INC_A)
            .load_rm()
            .ifu_jump(),
    );

    // LSET 2n: pop into the slot.
    a.label("lisp:lset");
    a.emit(nop().a(ASel::IfuData).alu(AluOp::A).load_t());
    a.emit(nop().rm(R_LFP).b(BSel::T).alu(AluOp::ADD).load_t());
    a.emit(nop().rm(R_ADDR).a(ASel::T).alu(AluOp::INC_A).load_rm()); // lo slot
    emit_pop_fetches(a); // delivers lo, then hi
    a.emit(
        nop()
            .rm(R_ADDR)
            .a(ASel::StoreR)
            .b(BSel::MemData)
            .alu(AluOp::DEC_A)
            .load_rm(),
    );
    a.emit(nop().rm(R_ADDR).a(ASel::StoreR).b(BSel::MemData).ifu_jump());

    // ADD / SUB with tag checks on both operands; the low-half and
    // high-half operations are adjacent so the saved carry chains (§6.3.3).
    for (name, lo_op, hi_op) in [
        ("add", AluOp::ADD, AluOp::ADD_CARRY),
        ("sub", AluOp::SUB, AluOp::SUB_BORROW),
    ] {
        a.label(format!("lisp:{name}"));
        emit_pop_fetches(a); // b
        a.emit(nop().b(BSel::MemData).alu(AluOp::B).load_t()); // b.lo
        a.emit(nop().rm(R_VAL).a(ASel::T).alu(AluOp::A).load_rm());
        a.emit(nop().b(BSel::MemData).alu(AluOp::B).load_t()); // b.hi
        a.emit(nop().b(BSel::T).ff(FfOp::LoadQ)); // Q ← b.hi
        emit_tag_check(a, tag::FIXNUM, &format!("lisp:{name}.okb"));
        emit_pop_fetches(a); // a
        a.emit(nop().b(BSel::MemData).alu(AluOp::B).load_t()); // a.lo
        a.emit(nop().rm(R_CTL).a(ASel::T).alu(AluOp::A).load_rm());
        a.emit(nop().b(BSel::MemData).alu(AluOp::B).load_t()); // a.hi
        a.emit(nop().rm(R_ADDR).a(ASel::T).alu(AluOp::A).load_rm());
        emit_tag_check(a, tag::FIXNUM, &format!("lisp:{name}.oka"));
        // T ← b.lo, then a.lo ∘ b.lo, then immediately the high halves
        // with the saved carry/borrow (no intervening flag clobber).
        a.emit(nop().rm(R_VAL).b(BSel::Rm).alu(AluOp::B).load_t()); // T ← b.lo
        a.emit(nop().rm(R_CTL).b(BSel::T).alu(lo_op).load_t()); // low result
        a.emit(nop().rm(R_ADDR).b(BSel::Q).alu(hi_op).load_rm()); // high result
                                                                  // Push: high word then low word.
        a.emit(nop().rm(R_ADDR).b(BSel::Rm).ff(FfOp::LoadQ));
        a.emit(
            nop()
                .rm(R_LSP)
                .a(ASel::StoreR)
                .b(BSel::Q)
                .alu(AluOp::INC_A)
                .load_rm(),
        );
        a.emit(
            nop()
                .rm(R_LSP)
                .a(ASel::StoreR)
                .b(BSel::T)
                .alu(AluOp::INC_A)
                .load_rm()
                .ifu_jump(),
        );
    }

    // CONS: pop cdr, pop car, build a cell, push the pointer.
    a.label("lisp:cons");
    emit_pop_fetches(a); // cdr
    a.emit(nop().b(BSel::MemData).alu(AluOp::B).load_t()); // cdr.lo
    a.emit(nop().rm(R_VAL).a(ASel::T).alu(AluOp::A).load_rm());
    a.emit(nop().b(BSel::MemData).alu(AluOp::B).load_t()); // cdr.hi
    a.emit(nop().rm(R_MPD).a(ASel::T).alu(AluOp::A).load_rm());
    emit_pop_fetches(a); // car
    a.emit(nop().b(BSel::MemData).alu(AluOp::B).load_t()); // car.lo
    a.emit(nop().rm(R_CTL).a(ASel::T).alu(AluOp::A).load_rm());
    a.emit(nop().b(BSel::MemData).alu(AluOp::B).load_t()); // car.hi in T
                                                           // Cell: heap[0]=car.hi, [1]=car.lo, [2]=cdr.hi, [3]=cdr.lo.
    a.emit(
        nop()
            .rm(R_HEAP)
            .a(ASel::StoreR)
            .b(BSel::T)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(nop().rm(R_CTL).b(BSel::Rm).ff(FfOp::LoadQ));
    a.emit(
        nop()
            .rm(R_HEAP)
            .a(ASel::StoreR)
            .b(BSel::Q)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(nop().rm(R_MPD).b(BSel::Rm).ff(FfOp::LoadQ));
    a.emit(
        nop()
            .rm(R_HEAP)
            .a(ASel::StoreR)
            .b(BSel::Q)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(nop().rm(R_VAL).b(BSel::Rm).ff(FfOp::LoadQ));
    a.emit(
        nop()
            .rm(R_HEAP)
            .a(ASel::StoreR)
            .b(BSel::Q)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    // Push the CONS item: tag word, then the cell address (heap − 4).
    a.emit(
        nop()
            .rm(R_LSP)
            .a(ASel::StoreR)
            .const16(tag::CONS << 12)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(nop().rm(R_HEAP).const16(4).alu(AluOp::SUB).load_t());
    a.emit(
        nop()
            .rm(R_LSP)
            .a(ASel::StoreR)
            .b(BSel::T)
            .alu(AluOp::INC_A)
            .load_rm()
            .ifu_jump(),
    );

    // CAR / CDR: pop a cons pointer (checked), fetch the half-cell, push.
    for (name, offset) in [("car", 0u16), ("cdr", 2u16)] {
        a.label(format!("lisp:{name}"));
        emit_pop_fetches(a);
        a.emit(nop().b(BSel::MemData).alu(AluOp::B).load_t()); // ptr.lo
        a.emit(nop().rm(R_VAL).a(ASel::T).alu(AluOp::A).load_rm());
        a.emit(nop().b(BSel::MemData).alu(AluOp::B).load_t()); // ptr.hi
        emit_tag_check(a, tag::CONS, &format!("lisp:{name}.ok"));
        a.emit(nop().rm(R_VAL).const16(offset).alu(AluOp::ADD).load_t());
        a.emit(nop().a(ASel::FetchT)); // half.hi
        a.emit(nop().a(ASel::T).alu(AluOp::INC_A).load_t());
        a.emit(nop().a(ASel::FetchT)); // half.lo
        a.emit(
            nop()
                .rm(R_LSP)
                .a(ASel::StoreR)
                .b(BSel::MemData)
                .alu(AluOp::INC_A)
                .load_rm(),
        );
        a.emit(
            nop()
                .rm(R_LSP)
                .a(ASel::StoreR)
                .b(BSel::MemData)
                .alu(AluOp::INC_A)
                .load_rm()
                .ifu_jump(),
        );
    }

    // JNIL: pop an item; jump when its tag is NIL.
    a.label("lisp:jnil");
    a.emit(nop().rm(R_TMP).ff(FfOp::IfuReadPc).load_rm());
    a.emit(nop().rm(R_LSP).alu(AluOp::DEC_A).load_rm());
    a.emit(nop().rm(R_LSP).alu(AluOp::DEC_A).load_rm());
    a.emit(nop().rm(R_LSP).a(ASel::FetchR)); // high word
    a.emit(nop().b(BSel::MemData).alu(AluOp::B).load_t());
    a.emit(nop().a(ASel::T).const16(0xf000).alu(AluOp::AND).load_t());
    a.emit(nop().a(ASel::T).const16(tag::NIL << 12).alu(AluOp::XOR));
    a.emit(nop().branch(Cond::Zero, "lisp:jnil.t", "lisp:jnil.nt"));
    a.label("lisp:jnil.nt");
    a.emit(nop().ifu_jump());
    a.label("lisp:jnil.t");
    a.emit(nop().goto_("lisp:jtake"));

    // JMP.
    a.label("lisp:jmp");
    a.emit(nop().rm(R_TMP).ff(FfOp::IfuReadPc).load_rm());
    a.label("lisp:jtake");
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

    // CALL nargs, target: bump-allocate a frame, save state, move the
    // argument items (two words each — the 32-bit transfer cost), NIL-fill
    // two locals, activate.
    a.label("lisp:call");
    a.emit(nop().rm(R_NARGS).a(ASel::IfuData).alu(AluOp::A).load_rm());
    a.emit(nop().rm(R_TGT).a(ASel::IfuData).alu(AluOp::A).load_rm());
    // F = LFS; LFS += frame size.
    a.emit(nop().rm(R_LFS).alu(AluOp::A).load_t());
    a.emit(nop().rm(R_FP).a(ASel::T).alu(AluOp::A).load_rm());
    a.emit(
        nop()
            .rm(R_LFS)
            .const16(LISP_FRAME_WORDS as Word)
            .alu(AluOp::ADD)
            .load_rm(),
    );
    // F[0] ← old LFP; F[1] ← return PC; F[2] ← nargs.
    a.emit(nop().rm(R_LFP).b(BSel::Rm).ff(FfOp::LoadQ));
    a.emit(
        nop()
            .rm(R_FP)
            .a(ASel::StoreR)
            .b(BSel::Q)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(nop().ff(FfOp::IfuReadPc).load_t());
    a.emit(
        nop()
            .rm(R_FP)
            .a(ASel::StoreR)
            .b(BSel::T)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(nop().rm(R_NARGS).b(BSel::Rm).ff(FfOp::LoadQ));
    a.emit(
        nop()
            .rm(R_FP)
            .a(ASel::StoreR)
            .b(BSel::Q)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    // New LFP = F+3 (the argument base); FP then walks to the top item's
    // high-word slot: FP = F+3 + 2·nargs − 2.
    a.emit(nop().rm(R_FP).alu(AluOp::A).load_t());
    a.emit(nop().rm(R_LFP).a(ASel::T).alu(AluOp::A).load_rm());
    a.emit(nop().rm(R_NARGS).alu(AluOp::A).load_t());
    a.emit(nop().a(ASel::T).b(BSel::T).alu(AluOp::ADD).load_t()); // 2·nargs
    a.emit(nop().rm(R_FP).b(BSel::T).alu(AluOp::ADD).load_rm());
    a.emit(nop().rm(R_FP).const16(2).alu(AluOp::SUB).load_rm());
    a.emit(nop().rm(R_NARGS).b(BSel::Rm).ff(FfOp::LoadCount));
    a.emit(nop().branch(Cond::CntZero, "lisp:call.done", "lisp:call.top"));
    a.pair_align();
    a.label("lisp:call.top");
    a.emit(
        nop()
            .rm(R_LSP)
            .alu(AluOp::DEC_A)
            .load_rm()
            .goto_("lisp:call.mv"),
    );
    a.label("lisp:call.done");
    a.emit(nop().goto_("lisp:call.fin"));
    a.label("lisp:call.mv");
    a.emit(nop().rm(R_LSP).a(ASel::FetchR)); // item.lo
    a.emit(nop().rm(R_LSP).alu(AluOp::DEC_A).load_rm());
    a.emit(nop().rm(R_LSP).a(ASel::FetchR)); // item.hi
    a.emit(nop().rm(R_FP).alu(AluOp::INC_A).load_t()); // T = lo slot
    a.emit(nop().rm(R_ADDR).a(ASel::T).alu(AluOp::A).load_rm());
    a.emit(
        nop()
            .rm(R_ADDR)
            .a(ASel::StoreR)
            .b(BSel::MemData)
            .alu(AluOp::DEC_A)
            .load_rm(),
    );
    a.emit(nop().rm(R_ADDR).a(ASel::StoreR).b(BSel::MemData)); // high word
    a.emit(nop().rm(R_FP).const16(2).alu(AluOp::SUB).load_rm());
    a.emit(
        nop()
            .ff(FfOp::DecCount)
            .branch(Cond::CntZero, "lisp:call.done", "lisp:call.top"),
    );
    a.label("lisp:call.fin");
    // NIL-fill four local item slots above the arguments (Interlisp's
    // interpreter hygiene), then record a deep-binding entry per argument
    // slot — the costs that make Lisp calls several times Mesa's (§7).
    a.emit(nop().rm(R_NARGS).alu(AluOp::A).load_t());
    a.emit(nop().a(ASel::T).b(BSel::T).alu(AluOp::ADD).load_t());
    a.emit(nop().rm(R_LFP).b(BSel::T).alu(AluOp::ADD).load_t());
    a.emit(nop().rm(R_ADDR).a(ASel::T).alu(AluOp::A).load_rm());
    for _ in 0..4 {
        a.emit(
            nop()
                .rm(R_ADDR)
                .a(ASel::StoreR)
                .const16(tag::NIL << 12)
                .alu(AluOp::INC_A)
                .load_rm(),
        );
        a.emit(
            nop()
                .rm(R_ADDR)
                .a(ASel::StoreR)
                .const16(0)
                .alu(AluOp::INC_A)
                .load_rm(),
        );
    }
    // Deep-binding records: one (frame, slot) pair pushed onto the
    // binding list per argument.
    a.emit(nop().rm(R_NARGS).b(BSel::Rm).ff(FfOp::LoadCount));
    a.emit(nop().branch(Cond::CntZero, "lisp:call.go", "lisp:call.bind"));
    a.pair_align();
    a.label("lisp:call.bind");
    a.emit(
        nop()
            .rm(R_LFP)
            .b(BSel::Rm)
            .ff(FfOp::LoadQ)
            .goto_("lisp:call.bind2"),
    );
    a.label("lisp:call.go");
    a.emit(
        nop()
            .rm(R_TGT)
            .b(BSel::Rm)
            .ff(FfOp::IfuLoadPc)
            .goto_("lisp:call.go2"),
    );
    a.label("lisp:call.bind2");
    a.emit(
        nop()
            .rm(R_LFS)
            .a(ASel::StoreR)
            .b(BSel::Q)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(nop().ff(FfOp::ReadCount).load_t());
    a.emit(
        nop()
            .rm(R_LFS)
            .a(ASel::StoreR)
            .b(BSel::T)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(
        nop()
            .ff(FfOp::DecCount)
            .branch(Cond::CntZero, "lisp:call.go", "lisp:call.bind"),
    );
    a.label("lisp:call.go2");
    a.emit(nop().ifu_jump());

    // RET: tear the frame down, restore LFP and the return PC.
    a.label("lisp:ret");
    a.emit(nop().rm(R_LFP).const16(3).alu(AluOp::SUB).load_t()); // T = F
    a.emit(nop().rm(R_FP).a(ASel::T).alu(AluOp::A).load_rm());
    a.emit(nop().rm(R_FP).a(ASel::FetchR)); // old LFP
    a.emit(nop().rm(R_FP).alu(AluOp::INC_A).load_rm());
    a.emit(nop().rm(R_FP).a(ASel::FetchR)); // return PC
    a.emit(nop().b(BSel::MemData).ff(FfOp::LoadQ)); // Q ← old LFP
    a.emit(nop().rm(R_LFP).b(BSel::Q).alu(AluOp::B).load_rm());
    // LFS ← F (free the frame).
    a.emit(nop().rm(R_FP).alu(AluOp::DEC_A).load_t());
    a.emit(nop().rm(R_LFS).a(ASel::T).alu(AluOp::A).load_rm());
    a.emit(nop().b(BSel::MemData).alu(AluOp::B).load_t()); // return PC
    a.emit(nop().b(BSel::T).ff(FfOp::IfuLoadPc));
    a.emit(nop().ifu_jump());

    // HALT.
    a.label("lisp:halt");
    a.emit(nop().ff_halt().goto_("lisp:halt"));
}

/// Opcode table for the IFU.
pub fn opcode_table() -> Vec<(Op, &'static str, Vec<OperandKind>, Option<u8>)> {
    use OperandKind::*;
    vec![
        (Op::PushFix, "lisp:pushfix", vec![WordPair], Some(BR_DATA)),
        (Op::PushNil, "lisp:pushnil", vec![], Some(BR_DATA)),
        (Op::LGet, "lisp:lget", vec![Byte], Some(BR_DATA)),
        (Op::LSet, "lisp:lset", vec![Byte], Some(BR_DATA)),
        (Op::Add, "lisp:add", vec![], Some(BR_DATA)),
        (Op::Sub, "lisp:sub", vec![], Some(BR_DATA)),
        (Op::Cons, "lisp:cons", vec![], Some(BR_DATA)),
        (Op::Car, "lisp:car", vec![], Some(BR_DATA)),
        (Op::Cdr, "lisp:cdr", vec![], Some(BR_DATA)),
        (Op::JNil, "lisp:jnil", vec![SignedByte], Some(BR_DATA)),
        (Op::Jmp, "lisp:jmp", vec![SignedByte], None),
        (Op::Call, "lisp:call", vec![Byte, WordPair], Some(BR_DATA)),
        (Op::Ret, "lisp:ret", vec![], Some(BR_DATA)),
        (Op::Halt, "lisp:halt", vec![], None),
    ]
}

/// Installs the Lisp decode table.
///
/// # Panics
///
/// Panics if the Lisp microcode is absent from the image.
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

/// Initializes the Lisp runtime pointers and code base.
pub fn init_runtime(m: &mut Dorado) {
    m.set_rm(R_LSP as usize, LISP_STACK as Word);
    m.set_rm(R_HEAP as usize, LISP_HEAP as Word);
    m.set_rm(R_LFP as usize, (FRAME_POOL + 3) as Word);
    m.set_rm(R_LFS as usize, (FRAME_POOL + LISP_FRAME_WORDS) as Word);
    m.ifu_mut().set_code_base(CODE_BASE);
}

/// Loads a byte program at the code base (shared convention with Mesa).
pub fn load_program(m: &mut Dorado, bytes: &[u8]) {
    crate::mesa::load_program(m, bytes);
}

/// The item on top of the evaluation stack, as (tag, low word).
pub fn tos(m: &Dorado) -> (u16, Word) {
    let lsp = u32::from(m.rm(R_LSP as usize));
    let hi = m.memory().read_virt(VirtAddr::new(lsp - 2));
    let lo = m.memory().read_virt(VirtAddr::new(lsp - 1));
    (hi >> 12, lo)
}

/// Evaluation-stack depth in items.
pub fn stack_depth(m: &Dorado) -> u32 {
    (u32::from(m.rm(R_LSP as usize)) - LISP_STACK) / 2
}

/// Host-side assembler for Lisp byte programs.
#[derive(Debug, Clone, Default)]
pub struct LispAsm {
    bytes: Vec<u8>,
    labels: HashMap<String, usize>,
    fixups: Vec<(usize, String, bool)>, // true = absolute word
}

impl LispAsm {
    /// A fresh program.
    pub fn new() -> Self {
        LispAsm::default()
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

    /// Push a fixnum.
    pub fn push_fix(&mut self, w: Word) {
        self.bytes.push(Op::PushFix as u8);
        self.bytes.push((w >> 8) as u8);
        self.bytes.push(w as u8);
    }

    /// Push NIL.
    pub fn push_nil(&mut self) {
        self.bytes.push(Op::PushNil as u8);
    }

    /// Push argument/local `n`.
    pub fn lget(&mut self, n: u8) {
        self.bytes.push(Op::LGet as u8);
        self.bytes.push(n * 2);
    }

    /// Pop into argument/local `n`.
    pub fn lset(&mut self, n: u8) {
        self.bytes.push(Op::LSet as u8);
        self.bytes.push(n * 2);
    }

    /// Add.
    pub fn add(&mut self) {
        self.bytes.push(Op::Add as u8);
    }

    /// Subtract (NOS − TOS).
    pub fn sub(&mut self) {
        self.bytes.push(Op::Sub as u8);
    }

    /// Cons (pops cdr then car).
    pub fn cons(&mut self) {
        self.bytes.push(Op::Cons as u8);
    }

    /// Car.
    pub fn car(&mut self) {
        self.bytes.push(Op::Car as u8);
    }

    /// Cdr.
    pub fn cdr(&mut self) {
        self.bytes.push(Op::Cdr as u8);
    }

    /// Pop; jump if NIL.
    pub fn jnil(&mut self, target: impl Into<String>) {
        self.bytes.push(Op::JNil as u8);
        self.fixups.push((self.bytes.len(), target.into(), false));
        self.bytes.push(0);
    }

    /// Unconditional jump.
    pub fn jmp(&mut self, target: impl Into<String>) {
        self.bytes.push(Op::Jmp as u8);
        self.fixups.push((self.bytes.len(), target.into(), false));
        self.bytes.push(0);
    }

    /// Call with `nargs` stacked items.
    pub fn call(&mut self, target: impl Into<String>, nargs: u8) {
        self.bytes.push(Op::Call as u8);
        self.bytes.push(nargs);
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

    /// Resolves fixups and returns the byte program.
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
        let placed = a.place().expect("lisp places");
        for (_, label, _, _) in opcode_table() {
            assert!(placed.address_of(label).is_some(), "{label}");
        }
    }

    #[test]
    fn asm_layout() {
        let mut p = LispAsm::new();
        p.push_fix(0x1234);
        p.lget(3);
        p.add();
        p.halt();
        let b = p.assemble().unwrap();
        assert_eq!(b, vec![0x01, 0x12, 0x34, 0x10, 6, 0x20, 0xfe]);
    }

    #[test]
    fn undefined_label() {
        let mut p = LispAsm::new();
        p.jmp("missing");
        assert!(p.assemble().is_err());
    }
}
