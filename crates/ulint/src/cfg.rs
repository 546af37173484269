//! The control-flow graph over a placed microprogram.
//!
//! The graph itself lives in [`dorado_asm::cfg`], next to the placed
//! program it is built from.  This module re-exports it so every `ulint`
//! pass and downstream user reaches it through the analyzer crate.

pub use dorado_asm::cfg::{successors, Cfg, Node};
