//! The Dorado microinstruction format, microassembler, and instruction placer.
//!
//! This crate defines everything about Dorado microcode *as data*: the 34-bit
//! microinstruction word and its eight fields (§6.3.1 of the paper), the
//! `NEXTPC` control encoding (§5.5), the FF catchall function catalog, the
//! byte-form constant scheme (§5.9), ALU and shifter semantics, a symbolic
//! assembler with labels and structured control flow, and the **placer** that
//! assigns symbolic instructions to concrete microstore addresses under the
//! paper's constraints:
//!
//! * a `Goto` carries only a 4-bit in-page offset; crossing pages needs the
//!   FF field ("FF can also serve ... as part of a microstore address"),
//! * a conditional branch names one of eight in-page *pairs*; "the assembler
//!   must place each false branch target at an even address, and the
//!   corresponding true branch target at the next higher odd address",
//! * dispatch tables need 8- or 256-alignment.
//!
//! §7 reports that automatic placement used 99.9 % of an essentially full
//! microstore; the placer reports the statistics needed to reproduce that
//! experiment.
//!
//! # Examples
//!
//! Assemble a counted loop and place it:
//!
//! ```
//! use dorado_asm::{Assembler, AluOp, Cond, Inst};
//!
//! let mut a = Assembler::new();
//! a.pair_align();
//! a.label("top");
//! a.emit(Inst::new().ff_dec_count().goto_("body")); // even pair slot
//! a.label("exit");
//! a.emit(Inst::new().ff_halt().goto_("exit")); // odd pair slot
//! a.label("body");
//! a.emit(Inst::new().alu(AluOp::INC_A).load_t().branch(Cond::CntZero, "exit", "top"));
//! let placed = a.place()?;
//! assert!(placed.words_used() >= 3);
//! # Ok::<(), dorado_asm::AsmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alu;
pub mod cfg;
pub mod constants;
pub mod disasm;
pub mod error;
pub mod ff;
pub mod fields;
pub mod flow;
pub mod inst;
pub mod microword;
pub mod placer;
pub mod program;
pub mod shifter;
pub mod synth;
pub mod verify;

pub use alu::{alu_eval, default_alufm, AluFunction, AluOutput};
pub use constants::{const_bsel, const_value, synthesis_cost};
pub use error::AsmError;
pub use ff::FfOp;
pub use fields::{ASel, AluOp, BSel, Cond, LoadControl};
pub use flow::{ControlOp, Flow};
pub use inst::{FfSlot, Inst};
pub use microword::Microword;
pub use placer::{PlacedProgram, PlacementStats, SlotUse};
pub use program::{Assembler, Item, MicroProgram};
pub use shifter::{shifter_output, MaskMode, ShiftCtl};
