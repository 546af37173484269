//! `NEXTPC` control: the 8-bit `NextControl` field (§5.5, §6.2.2) and the
//! symbolic control-flow forms the assembler accepts.
//!
//! "The alternative, used in the Dorado, is to divide the microstore into
//! pages, use a few bits to specify a next address within the current page,
//! and have a type field which can specify branches and returns, transfers
//! to another page, or whatever."
//!
//! Concrete encoding (8 bits, with 16-word pages):
//!
//! | Bits         | Type |
//! |--------------|------|
//! | `0000 oooo`  | [`ControlOp::Goto`]: next = current page, offset *o* |
//! | `0001 oooo`  | [`ControlOp::GotoLong`]: page from FF, offset *o* |
//! | `0010 oooo`  | [`ControlOp::Call`]: like Goto; LINK ← THISPC+1 |
//! | `0011 oooo`  | [`ControlOp::CallLong`]: page from FF; LINK ← THISPC+1 |
//! | `01cc cppp`  | [`ControlOp::CondGoto`]: false → pair *p* (offset 2p) in current page, true → offset 2p+1 |
//! | `1000 0000`  | [`ControlOp::Return`]: next = LINK; LINK ← THISPC+1 |
//! | `1000 0001`  | [`ControlOp::IfuJump`]: next supplied by the IFU |
//! | `1000 001b`  | [`ControlOp::Dispatch8`]: next = current page, offset 8·b + (B AND 7) |
//! | `1000 0100`  | [`ControlOp::Dispatch256`]: next = (FF AND 0xF)·256 + (B AND 0xFF) |
//!
//! The conditional branch ORs the condition into the low bit of NEXTPC
//! "about half way into the instruction fetch cycle" with no extra delay;
//! the cost is the placement constraint on target pairs.

use crate::error::AsmError;
use crate::fields::Cond;
use dorado_base::{MicroAddr, PAGE_SIZE};

/// A decoded `NextControl` field: how NEXTPC is computed (§6.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControlOp {
    /// Unconditional transfer within the current page.
    Goto {
        /// Target offset within the current page.
        offset: u8,
    },
    /// Unconditional transfer to another page; FF holds the page number
    /// ("FF can also serve ... as part of a microstore address", §5.5).
    GotoLong {
        /// Target offset within the FF-named page.
        offset: u8,
    },
    /// Subroutine call within the current page; LINK ← THISPC+1 (§6.2.3).
    Call {
        /// Target offset within the current page.
        offset: u8,
    },
    /// Subroutine call to another page (page from FF); LINK ← THISPC+1.
    CallLong {
        /// Target offset within the FF-named page.
        offset: u8,
    },
    /// Conditional branch to an even/odd pair in the current page: NEXTPC =
    /// offset `2·pair`, with the condition ORed into the low bit (§5.5).
    CondGoto {
        /// The branch condition.
        cond: Cond,
        /// The pair index (0–7): false target at offset `2·pair`.
        pair: u8,
    },
    /// Return: NEXTPC ← LINK; LINK ← THISPC+1 (the exchange makes LINK-based
    /// coroutines possible, §6.2.3).
    Return,
    /// The current macroinstruction is finished: NEXTPC is supplied by the
    /// IFU's decode of the next opcode (§5.8).
    IfuJump,
    /// Eight-way dispatch on B: NEXTPC = current page, offset `8·base_hi +
    /// (B AND 7)` (§6.2.3).
    Dispatch8 {
        /// Whether the table is the upper half (offset 8) of the page.
        base_hi: bool,
    },
    /// 256-way dispatch on B: NEXTPC = `(FF AND 0xF)·256 + (B AND 0xFF)`
    /// (§6.2.3).
    Dispatch256,
}

impl ControlOp {
    /// Encodes into the 8-bit `NextControl` field.
    pub fn encode(self) -> u8 {
        match self {
            ControlOp::Goto { offset } => {
                debug_assert!((offset as usize) < PAGE_SIZE);
                offset & 0xf
            }
            ControlOp::GotoLong { offset } => 0x10 | (offset & 0xf),
            ControlOp::Call { offset } => 0x20 | (offset & 0xf),
            ControlOp::CallLong { offset } => 0x30 | (offset & 0xf),
            ControlOp::CondGoto { cond, pair } => {
                debug_assert!(pair < 8);
                0x40 | (cond.raw() << 3) | (pair & 7)
            }
            ControlOp::Return => 0x80,
            ControlOp::IfuJump => 0x81,
            ControlOp::Dispatch8 { base_hi } => 0x82 | u8::from(base_hi),
            ControlOp::Dispatch256 => 0x84,
        }
    }

    /// Decodes the 8-bit `NextControl` field.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::ReservedEncoding`] for undefined encodings.
    pub fn decode(raw: u8) -> Result<Self, AsmError> {
        Ok(match raw {
            0x00..=0x0f => ControlOp::Goto { offset: raw & 0xf },
            0x10..=0x1f => ControlOp::GotoLong { offset: raw & 0xf },
            0x20..=0x2f => ControlOp::Call { offset: raw & 0xf },
            0x30..=0x3f => ControlOp::CallLong { offset: raw & 0xf },
            0x40..=0x7f => ControlOp::CondGoto {
                cond: Cond::decode((raw >> 3) & 7).expect("3 bits"),
                pair: raw & 7,
            },
            0x80 => ControlOp::Return,
            0x81 => ControlOp::IfuJump,
            0x82 => ControlOp::Dispatch8 { base_hi: false },
            0x83 => ControlOp::Dispatch8 { base_hi: true },
            0x84 => ControlOp::Dispatch256,
            _ => {
                return Err(AsmError::ReservedEncoding {
                    field: "NextControl",
                    value: raw.into(),
                })
            }
        })
    }

    /// Whether this control type consumes the FF field for a page number.
    pub fn uses_ff_page(self) -> bool {
        matches!(
            self,
            ControlOp::GotoLong { .. } | ControlOp::CallLong { .. } | ControlOp::Dispatch256
        )
    }

    /// Whether this is a call (loads LINK with the return address).
    pub fn is_call(self) -> bool {
        matches!(self, ControlOp::Call { .. } | ControlOp::CallLong { .. })
    }

    /// Computes NEXTPC before any condition OR, given the current
    /// instruction's address and the FF byte.
    ///
    /// Returns `None` for [`ControlOp::Return`], [`ControlOp::IfuJump`],
    /// [`ControlOp::Dispatch8`] and [`ControlOp::Dispatch256`], whose
    /// successors depend on processor state (LINK, the IFU, or the B bus).
    pub fn static_next(self, at: MicroAddr, ff: u8) -> Option<MicroAddr> {
        match self {
            ControlOp::Goto { offset } | ControlOp::Call { offset } => {
                Some(at.with_offset(offset.into()))
            }
            ControlOp::GotoLong { offset } | ControlOp::CallLong { offset } => {
                Some(MicroAddr::from_parts(ff.into(), offset.into()))
            }
            ControlOp::CondGoto { pair, .. } => Some(at.with_offset(u16::from(pair) * 2)),
            _ => None,
        }
    }
}

impl std::fmt::Display for ControlOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlOp::Goto { offset } => write!(f, "goto .{offset:02o}"),
            ControlOp::GotoLong { offset } => write!(f, "goto FF.{offset:02o}"),
            ControlOp::Call { offset } => write!(f, "call .{offset:02o}"),
            ControlOp::CallLong { offset } => write!(f, "call FF.{offset:02o}"),
            ControlOp::CondGoto { cond, pair } => write!(f, "if {cond} → pair {pair}"),
            ControlOp::Return => f.write_str("return"),
            ControlOp::IfuJump => f.write_str("ifujump"),
            ControlOp::Dispatch8 { base_hi } => {
                write!(f, "disp8 @{}", if *base_hi { 8 } else { 0 })
            }
            ControlOp::Dispatch256 => f.write_str("disp256"),
        }
    }
}

/// Symbolic control flow, as written in assembler source.  The placer turns
/// these into concrete [`ControlOp`]s (inserting long forms and relay
/// instructions where targets land on other pages).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum Flow {
    /// Continue with the next instruction in the listing.  (The hardware
    /// has no fall-through: the placer encodes this as a `Goto` to wherever
    /// the next instruction lands.)
    #[default]
    Next,
    /// Unconditional transfer to a label.
    Goto(String),
    /// Subroutine call to a label.
    Call(String),
    /// Return via LINK.
    Return,
    /// Finish the macroinstruction; the IFU supplies the next address.
    IfuJump,
    /// Conditional branch: `when_false` is placed at an even offset,
    /// `when_true` at the following odd offset, in this instruction's page.
    Branch {
        /// The condition tested.
        cond: Cond,
        /// Label taken when the condition holds.
        when_true: String,
        /// Label taken when the condition does not hold.
        when_false: String,
    },
    /// Eight-way dispatch on B into the 8-aligned table at the label.
    Dispatch8(String),
    /// 256-way dispatch on B into the 256-aligned table at the label.
    Dispatch256(String),
}

impl Flow {
    /// The labels this flow references.
    pub fn labels(&self) -> Vec<&str> {
        match self {
            Flow::Next | Flow::Return | Flow::IfuJump => vec![],
            Flow::Goto(l) | Flow::Call(l) | Flow::Dispatch8(l) | Flow::Dispatch256(l) => {
                vec![l]
            }
            Flow::Branch {
                when_true,
                when_false,
                ..
            } => vec![when_false, when_true],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_ops() -> Vec<ControlOp> {
        let mut v = vec![
            ControlOp::Return,
            ControlOp::IfuJump,
            ControlOp::Dispatch8 { base_hi: false },
            ControlOp::Dispatch8 { base_hi: true },
            ControlOp::Dispatch256,
        ];
        for offset in [0u8, 7, 15] {
            v.push(ControlOp::Goto { offset });
            v.push(ControlOp::GotoLong { offset });
            v.push(ControlOp::Call { offset });
            v.push(ControlOp::CallLong { offset });
        }
        for cond in Cond::all() {
            for pair in [0u8, 3, 7] {
                v.push(ControlOp::CondGoto { cond, pair });
            }
        }
        v
    }

    #[test]
    fn encode_decode_roundtrip() {
        for op in all_ops() {
            assert_eq!(ControlOp::decode(op.encode()).unwrap(), op);
        }
    }

    #[test]
    fn encodings_unique() {
        let ops = all_ops();
        for (i, a) in ops.iter().enumerate() {
            for b in &ops[i + 1..] {
                assert_ne!(a.encode(), b.encode(), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn reserved_encodings_fail() {
        for raw in [0x85u8, 0x90, 0xa0, 0xff] {
            assert!(ControlOp::decode(raw).is_err(), "{raw:#04x}");
        }
    }

    #[test]
    fn sequencing_uses_8_bits() {
        // E10: the paper's point is that paged NEXTPC costs 8 bits instead
        // of the ~16 a full next-address would need (12-bit store + type).
        // All control ops must fit one byte:
        for op in all_ops() {
            let _byte: u8 = op.encode(); // type-checked 8-bit encoding
        }
    }

    #[test]
    fn static_next_computation() {
        let at = MicroAddr::from_parts(5, 9);
        assert_eq!(
            ControlOp::Goto { offset: 3 }.static_next(at, 0),
            Some(MicroAddr::from_parts(5, 3))
        );
        assert_eq!(
            ControlOp::GotoLong { offset: 3 }.static_next(at, 77),
            Some(MicroAddr::from_parts(77, 3))
        );
        assert_eq!(
            ControlOp::CondGoto {
                cond: Cond::Zero,
                pair: 6
            }
            .static_next(at, 0),
            Some(MicroAddr::from_parts(5, 12))
        );
        assert_eq!(ControlOp::Return.static_next(at, 0), None);
        assert_eq!(ControlOp::IfuJump.static_next(at, 0), None);
    }

    #[test]
    fn ff_page_classification() {
        assert!(ControlOp::GotoLong { offset: 0 }.uses_ff_page());
        assert!(ControlOp::CallLong { offset: 0 }.uses_ff_page());
        assert!(ControlOp::Dispatch256.uses_ff_page());
        assert!(!ControlOp::Goto { offset: 0 }.uses_ff_page());
        assert!(!ControlOp::Return.uses_ff_page());
    }

    #[test]
    fn flow_labels() {
        assert!(Flow::Next.labels().is_empty());
        assert_eq!(Flow::Goto("x".into()).labels(), vec!["x"]);
        let b = Flow::Branch {
            cond: Cond::Carry,
            when_true: "t".into(),
            when_false: "f".into(),
        };
        assert_eq!(b.labels(), vec!["f", "t"]);
    }

    #[test]
    fn display_nonempty() {
        for op in all_ops() {
            assert!(!format!("{op}").is_empty());
        }
    }
}
