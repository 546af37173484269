//! Microword disassembly, for traces, debugging, and the microprogram
//! debugger role that Ed Fiala's tools played on the real machine.

use crate::fields::{ASel, BSel, LoadControl};
use crate::flow::ControlOp;
use crate::microword::Microword;
use crate::placer::{PlacedProgram, SlotUse};
use dorado_base::MicroAddr;

/// Renders one microword as a human-readable line.
///
/// Fields that decode to reserved encodings are rendered as `?(value)`
/// rather than failing, since the debugger must cope with garbage words.
///
/// # Examples
///
/// ```
/// use dorado_asm::{disasm::disassemble, AluOp, BSel, Inst, Microword};
/// use dorado_base::MicroAddr;
///
/// let w = Microword::default().with_aluop(AluOp::SUB);
/// let line = disassemble(MicroAddr::new(0), w);
/// assert!(line.contains("aluop1"));
/// ```
pub fn disassemble(at: MicroAddr, word: Microword) -> String {
    let mut parts: Vec<String> = Vec::new();

    // Destination(s).
    let load = word.load_control();
    match load {
        Ok(LoadControl::None) => {}
        Ok(LoadControl::T) => parts.push("T←".into()),
        Ok(LoadControl::Rm) => parts.push(format!("RM[{:x}]←", word.raddr())),
        Ok(LoadControl::Both) => parts.push(format!("T,RM[{:x}]←", word.raddr())),
        Err(_) => parts.push(format!("?load({})", (word.raw() >> 20) & 7)),
    }

    // ALU expression.
    let a_str = match word.asel() {
        Ok(ASel::Rm) => format!("RM[{:x}]", word.raddr()),
        Ok(ASel::T) => "T".into(),
        Ok(ASel::IfuData) => "IFUDATA".into(),
        Ok(ASel::FetchIfu) => "Fetch[IFUDATA]".into(),
        Ok(ASel::FetchR) => format!("Fetch[RM[{:x}]]", word.raddr()),
        Ok(ASel::StoreR) => format!("Store[RM[{:x}]]", word.raddr()),
        Ok(ASel::FetchT) => "Fetch[T]".into(),
        Ok(ASel::StoreIfu) => "Store[IFUDATA]".into(),
        Err(_) => "?A".into(),
    };
    let b_str = match word.bsel() {
        Ok(BSel::Rm) => format!("RM[{:x}]", word.raddr()),
        Ok(BSel::T) => "T".into(),
        Ok(BSel::Q) => "Q".into(),
        Ok(BSel::MemData) => "MEMDATA".into(),
        Ok(b @ (BSel::ConstLo0 | BSel::ConstLo1 | BSel::ConstHi0 | BSel::ConstHi1)) => {
            match crate::constants::const_value(b, word.ff()) {
                Some(v) => format!("{v:#06x}"),
                None => "?const".into(),
            }
        }
        Err(_) => "?B".into(),
    };
    parts.push(format!("{a_str} {} {b_str}", word.aluop()));

    // Block / stack.
    if word.block() {
        parts.push(format!("BLOCK/STK{:+}", word.stack_delta()));
    }

    // FF, unless consumed by a constant or page.
    let ff_is_const = word.bsel().map(|b| b.is_constant()).unwrap_or(false);
    let ff_is_page = word.control().map(|c| c.uses_ff_page()).unwrap_or(false);
    if !ff_is_const && !ff_is_page && word.ff() != 0 {
        match crate::ff::FfOp::decode(word.ff()) {
            Ok(op) => parts.push(op.mnemonic()),
            Err(_) => parts.push(format!("?ff({:#04x})", word.ff())),
        }
    }

    // Control.
    match word.control() {
        Ok(ControlOp::Goto { offset }) if u16::from(offset) == at.page_offset() + 1 => {}
        Ok(c) => {
            if c.uses_ff_page() {
                parts.push(format!("{c} [page {:#04x}]", word.ff()));
            } else {
                parts.push(format!("{c}"));
            }
        }
        Err(_) => parts.push(format!("?next({:#04x})", word.next_control_raw())),
    }

    format!("{at}: {}", parts.join(", "))
}

/// Renders a full listing of `placed` — labels, instructions, relays
/// and padding — interleaving `annotations` (address-keyed comment
/// lines, e.g. lint diagnostics) beneath the words they refer to.
///
/// # Examples
///
/// ```
/// use dorado_asm::{disasm::disassemble_annotated, Assembler, Inst};
/// use dorado_base::MicroAddr;
///
/// let mut a = Assembler::new();
/// a.label("spin");
/// a.emit(Inst::new().goto_("spin"));
/// let placed = a.place().unwrap();
/// let at = placed.address_of("spin").unwrap();
/// let listing = disassemble_annotated(&placed, &[(at, "busy loop".into())]);
/// assert!(listing.contains("spin:"));
/// assert!(listing.contains("; ^ busy loop"));
/// ```
pub fn disassemble_annotated(
    placed: &PlacedProgram,
    annotations: &[(MicroAddr, String)],
) -> String {
    let mut labels: Vec<(MicroAddr, &str)> = placed.labels().map(|(n, a)| (a, n)).collect();
    labels.sort();
    let mut out = String::new();
    for (i, slot) in placed.uses().iter().enumerate() {
        let addr = MicroAddr::new(i as u16);
        match slot {
            SlotUse::Empty => continue,
            SlotUse::Waste => out.push_str(&format!("{addr}:  ; (padding)\n")),
            SlotUse::Relay(target) => {
                out.push_str(&disassemble(addr, placed.word(addr)));
                out.push_str(&format!("  ; relay -> {target}\n"));
            }
            SlotUse::Inst(_) => {
                for (_, label) in labels.iter().filter(|(a, _)| *a == addr) {
                    out.push_str(&format!("{label}:\n"));
                }
                out.push_str(&disassemble(addr, placed.word(addr)));
                out.push('\n');
            }
        }
        for (_, note) in annotations.iter().filter(|(a, _)| *a == addr) {
            out.push_str(&format!("        ; ^ {note}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{AluOp, Cond};
    use crate::flow::ControlOp;

    #[test]
    fn renders_loads_and_alu() {
        let w = Microword::default()
            .with_raddr(3)
            .with_aluop(AluOp::ADD)
            .with_load_control(LoadControl::Both)
            .with_asel(ASel::T)
            .with_bsel(BSel::Q);
        let s = disassemble(MicroAddr::new(0), w);
        assert!(s.contains("T,RM[3]←"), "{s}");
        assert!(s.contains("T aluop0 Q"), "{s}");
    }

    #[test]
    fn renders_constants() {
        let w = Microword::default().with_bsel(BSel::ConstLo1).with_ff(0x42);
        let s = disassemble(MicroAddr::new(0), w);
        assert!(s.contains("0xff42"), "{s}");
    }

    #[test]
    fn renders_branches_and_pages() {
        let w = Microword::default().with_control(ControlOp::CondGoto {
            cond: Cond::Carry,
            pair: 3,
        });
        let s = disassemble(MicroAddr::new(0), w);
        assert!(s.contains("Carry"), "{s}");
        let w = Microword::default()
            .with_control(ControlOp::GotoLong { offset: 5 })
            .with_ff(0x21);
        let s = disassemble(MicroAddr::new(0), w);
        assert!(s.contains("page 0x21"), "{s}");
    }

    #[test]
    fn elides_plain_fallthrough() {
        let w = Microword::default().with_control(ControlOp::Goto { offset: 1 });
        let s = disassemble(MicroAddr::new(0), w);
        assert!(!s.contains("goto"), "{s}");
    }

    #[test]
    fn tolerates_garbage() {
        let w = Microword::from_raw(0x3_ffff_ffff).unwrap();
        let s = disassemble(MicroAddr::new(4095), w);
        assert!(!s.is_empty());
    }

    #[test]
    fn annotated_listing_interleaves_notes() {
        use crate::program::Assembler;
        use crate::Inst;

        let mut a = Assembler::new();
        a.label("top");
        a.emit(Inst::new().goto_("next"));
        a.label("next");
        a.emit(Inst::new().ff_halt().goto_("next"));
        let placed = a.place().unwrap();
        let top = placed.address_of("top").unwrap();
        let next = placed.address_of("next").unwrap();
        let listing = disassemble_annotated(
            &placed,
            &[(next, "spins forever".into()), (top, "entry".into())],
        );
        let top_line = listing.find("; ^ entry").unwrap();
        let next_line = listing.find("; ^ spins forever").unwrap();
        assert!(top_line < next_line, "{listing}");
        assert!(listing.contains("top:"), "{listing}");
        assert!(listing.contains("next:"), "{listing}");
    }
}
