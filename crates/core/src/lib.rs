//! The Dorado processor: control section, data section, and the complete
//! machine (processor + memory + IFU + devices).
//!
//! This crate implements §5 and §6 of the paper at the microcycle level:
//!
//! * the **instruction pipeline** (Figure 2): one microinstruction issues
//!   per cycle, completing over three, with **data bypassing** (§5.6) —
//!   and a Model-0 mode without it, for the E9 ablation;
//! * the **task arbitration pipeline** (Figure 3, §6.2.1): WAKEUP/READY
//!   latching, priority encoding, BESTNEXTTASK/BESTNEXTPC, the NEXT bus
//!   broadcast, and the resulting two-cycle grain of processor allocation;
//! * **task-specific state** (§5.3): TPC, LINK, T, IOADDRESS, and the
//!   branch-condition register, all addressed by task number;
//! * **`Hold`** (§5.7): a held instruction becomes "no operation, jump to
//!   self" while the clocks — and task switching — keep running;
//! * the **data section** (§6.3): RM, the four hardware stacks with
//!   over/underflow checking, COUNT, Q, SHIFTCTL, RBASE, MEMBASE, ALUFM,
//!   the ALU, and the 32-bit barrel shifter/masker;
//! * **NEXTPC computation** (§5.5, §6.2.2) with the late branch-condition
//!   OR, LINK-exchanging calls and returns, dispatches, and IFU jumps.
//!
//! # Examples
//!
//! Build a machine that adds two constants and halts:
//!
//! ```
//! use dorado_asm::{Assembler, AluOp, Inst};
//! use dorado_core::DoradoBuilder;
//!
//! let mut a = Assembler::new();
//! a.label("go");
//! a.emit(Inst::new().const16(2).alu(AluOp::B).load_t());
//! a.emit(Inst::new().a(dorado_asm::ASel::T).const16(3).alu(AluOp::ADD).load_t());
//! a.emit(Inst::new().ff_halt().goto_("go"));
//! let placed = a.place()?;
//!
//! let mut m = DoradoBuilder::new().microcode(placed).build()?;
//! let outcome = m.run(1000);
//! assert!(outcome.halted());
//! assert_eq!(m.t(dorado_base::TaskId::EMULATOR), 5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod console;
pub mod control;
pub mod datapath;
pub mod decoded;
pub mod machine;
pub mod trace;

pub use console::Console;
pub use control::{ControlSection, TaskingMode};
pub use datapath::{CondFlags, DataSection};
pub use decoded::DecodedInst;
pub use machine::{BuildError, Dorado, DoradoBuilder, ExecMode, HoldCause, RunOutcome, StepEvent};
pub use trace::{CacheOutcome, TraceEvent, Tracer};
