//! # dorado — the Xerox Dorado processor, reproduced in simulation
//!
//! This facade crate re-exports the whole workspace reproducing Lampson &
//! Pier, *A Processor for a High-Performance Personal Computer* (1980/81):
//! a microcycle-level model of the 16-task, 60 ns, microprogrammed Dorado,
//! together with its memory system, instruction fetch unit, I/O
//! controllers, byte-code emulators, BitBlt, and microassembler.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`base`] | `dorado-base` | words, addresses, tasks, clock, statistics |
//! | [`asm`]  | `dorado-asm`  | the 34-bit microinstruction, assembler, placer |
//! | [`mem`]  | `dorado-mem`  | cache, storage, base registers, `Hold`, fast I/O |
//! | [`ifu`]  | `dorado-ifu`  | byte-code prefetch, decode, dispatch |
//! | [`io`]   | `dorado-io`   | device controllers and wakeup lines |
//! | [`core`] | `dorado-core` | the processor and the complete machine |
//! | [`emu`]  | `dorado-emu`  | Mesa/Lisp/BCPL/Smalltalk microcode, BitBlt |
//! | [`cluster`] | `dorado-cluster` | Ethernet fabric, epoch-parallel executor, RPC workloads |
//! | [`lang`] | `dorado-lang` | a Mesa-like source language compiling to the byte codes |
//! | [`ulint`] | `dorado-ulint` | microcode static analyzer with simulator-validated hazard lints |
//! | [`uopt`] | `dorado-uopt` | analysis-driven microcode optimizer gated by `ulint` |
//!
//! # Example
//!
//! Run a Mesa byte program on the full machine:
//!
//! ```
//! use dorado::emu::{mesa, suite::build_mesa};
//!
//! let mut program = mesa::MesaAsm::new();
//! program.lib(6);
//! program.lib(7);
//! program.mul();
//! program.halt();
//!
//! let mut machine = build_mesa(&program.assemble().unwrap())?;
//! assert!(machine.run(100_000).halted());
//! assert_eq!(mesa::tos(&machine), 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `README.md` for the tour, `DESIGN.md` for the modeling decisions,
//! and `EXPERIMENTS.md` for the paper-vs-measured tables.

#![forbid(unsafe_code)]

pub use dorado_asm as asm;
pub use dorado_base as base;
pub use dorado_cluster as cluster;
pub use dorado_core as core;
pub use dorado_emu as emu;
pub use dorado_ifu as ifu;
pub use dorado_io as io;
pub use dorado_lang as lang;
pub use dorado_mem as mem;
pub use dorado_ulint as ulint;
pub use dorado_uopt as uopt;
