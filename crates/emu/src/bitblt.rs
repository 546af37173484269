//! BitBlt: the bit-boundary block transfer (§7).
//!
//! "A special operation called BitBlt ... makes it easier to create and
//! update bitmaps ... BitBlt makes extensive use of the shifting/masking
//! capability of the processor ... The Dorado's BitBlt can move display
//! objects around in memory at 34 megabits/sec for simple operations like
//! erasing or scrolling a screen.  More complex operations, where the
//! result is a function of the source object, the destination object and a
//! filter, run at 24 megabits/sec."
//!
//! Four entry points are provided, from cheapest to dearest:
//!
//! | Entry | Operation | Microinstructions/word |
//! |---|---|---|
//! | `bitblt:fill`  | dst ← constant | 2 |
//! | `bitblt:copy`  | dst ← src (word aligned) | 4 |
//! | `bitblt:scopy` | dst ← src shifted by 0–15 bits | 7 |
//! | `bitblt:merge` | dst ← (src shifted) XOR dst AND filter | 12 |
//! | `bitblt:fillmask` | read-modify-write one word/row under SHIFTCTL masks | 4 |
//!
//! `fillmask` is the *edge* case of a bit-boundary blit: a rectangle
//! whose left or right boundary falls inside a word must preserve the
//! destination bits outside the field.  The masker's MEMDATA fill mode
//! does the read-modify-write in one pass through the shifter.  The
//! host-side planner [`plan_fill_bits`] decomposes an arbitrary
//! bit-aligned rectangle into (left edge, whole-word interior, right
//! edge) steps, and [`fill_rect_bits`] drives them on a machine.
//!
//! Scrolling a screen is `scopy`; the paper's "complex" case is `merge`.
//! The microcode runs as task-0 code with its parameter block preloaded in
//! the RM window under [`RB_BITBLT`]; it halts when the last row is done.
//!
//! Parameter registers (RM window [`RB_BITBLT`], displacement from base
//! register 0 = flat data space):
//!
//! | Reg | Meaning |
//! |---|---|
//! | 0 | source pointer (word address) |
//! | 1 | destination pointer |
//! | 2 | width in words |
//! | 3 | height in scan lines |
//! | 4 | source pitch − width (gap to next line) |
//! | 5 | destination pitch − width |
//! | 6 | (scratch: previous source word) |
//! | 7 | SHIFTCTL value for `scopy`/`merge` |
//! | 8 | fill value (`fill`) / merged-source scratch (`merge`) |
//! | 9 | filter word (`merge`) |

use dorado_asm::{ASel, AluOp, Assembler, BSel, Cond, FfOp, Inst, ShiftCtl};
use dorado_base::{VirtAddr, Word};
use dorado_core::Dorado;

use crate::layout::RB_BITBLT;

fn nop() -> Inst {
    Inst::new()
}

/// Parameters for one BitBlt invocation, mirrored into the RM window by
/// [`load_params`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitBltParams {
    /// Source pointer (word address).
    pub src: Word,
    /// Destination pointer (word address).
    pub dst: Word,
    /// Width in words (must be ≥ 1).
    pub width: Word,
    /// Height in scan lines (must be ≥ 1).
    pub height: Word,
    /// Source bitmap pitch in words (≥ width).
    pub src_pitch: Word,
    /// Destination bitmap pitch in words (≥ width).
    pub dst_pitch: Word,
    /// Left-shift in bits for `scopy`/`merge` (0–15).
    pub shift: u8,
    /// Fill value for `fill`.
    pub fill: Word,
    /// Filter word for `merge`.
    pub filter: Word,
}

impl Default for BitBltParams {
    fn default() -> Self {
        BitBltParams {
            src: 0,
            dst: 0,
            width: 1,
            height: 1,
            src_pitch: 1,
            dst_pitch: 1,
            shift: 0,
            fill: 0,
            filter: 0xffff,
        }
    }
}

/// Which BitBlt entry point an invocation will use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlitKind {
    /// `bitblt:fill`.
    Fill,
    /// `bitblt:copy`.
    Copy,
    /// `bitblt:scopy`.
    ShiftedCopy,
    /// `bitblt:merge`.
    Merge,
}

impl BlitKind {
    /// The microcode entry label.
    pub fn entry(self) -> &'static str {
        match self {
            BlitKind::Fill => "bitblt:fill",
            BlitKind::Copy => "bitblt:copy",
            BlitKind::ShiftedCopy => "bitblt:scopy",
            BlitKind::Merge => "bitblt:merge",
        }
    }

    /// Whether the entry consumes one extra source word per row (the
    /// shifter's pairing window).
    fn shifted(self) -> bool {
        matches!(self, BlitKind::ShiftedCopy | BlitKind::Merge)
    }
}

/// Writes the parameter block into the machine's RM window.
///
/// # Panics
///
/// Panics on degenerate geometry (zero width/height, pitch < width, or a
/// shifted blit whose pitch cannot cover the extra pairing word).
pub fn load_params(m: &mut Dorado, p: &BitBltParams, kind: BlitKind) {
    assert!(p.width >= 1 && p.height >= 1, "degenerate BitBlt geometry");
    assert!(
        p.src_pitch >= p.width && p.dst_pitch >= p.width,
        "pitch must cover the width"
    );
    assert!(p.shift < 16, "shift out of range");
    let src_gap = if kind.shifted() {
        // Shifted rows consume width+1 source words (the pairing window).
        assert!(p.src_pitch > p.width, "shifted blit needs pitch > width");
        p.src_pitch - p.width - 1
    } else {
        p.src_pitch - p.width
    };
    let base = usize::from(RB_BITBLT) << 4;
    m.set_rm(base, p.src);
    m.set_rm(base + 1, p.dst);
    m.set_rm(base + 2, p.width);
    m.set_rm(base + 3, p.height);
    m.set_rm(base + 4, src_gap);
    m.set_rm(base + 5, p.dst_pitch - p.width);
    m.set_rm(base + 7, ShiftCtl::left_cycle(p.shift).raw());
    m.set_rm(base + 8, p.fill);
    m.set_rm(base + 9, p.filter);
}

/// Common entry prologue: select the BitBlt RM window and halt label.
fn emit_entry(a: &mut Assembler, entry: &str) {
    a.label(entry.to_string());
    a.emit(nop().const16(RB_BITBLT.into()).alu(AluOp::B).load_t());
    a.emit(nop().b(BSel::T).ff(FfOp::LoadRBase));
}

/// Shared row-advance epilogue: `src += srcgap; dst += dstgap; height -= 1`,
/// looping to `row` or falling to `done` (the caller supplies suffix `sfx`
/// to keep labels unique per entry point).
fn emit_row_advance(a: &mut Assembler, sfx: &str, row: &str) {
    a.label(format!("bitblt:adv{sfx}"));
    a.emit(nop().rm(4).alu(AluOp::A).load_t());
    a.emit(nop().rm(0).b(BSel::T).alu(AluOp::ADD).load_rm());
    a.emit(nop().rm(5).alu(AluOp::A).load_t());
    a.emit(nop().rm(1).b(BSel::T).alu(AluOp::ADD).load_rm());
    a.emit(nop().rm(3).alu(AluOp::DEC_A).load_rm());
    a.emit(nop().branch(Cond::Zero, format!("bitblt:done{sfx}"), row));
    a.label(format!("bitblt:done{sfx}"));
    a.emit(nop().ff_halt().goto_(format!("bitblt:done{sfx}")));
}

/// Emits all four BitBlt entry points.
pub fn emit_microcode(a: &mut Assembler) {
    // --- fill: dst ← constant, 2 instructions per word ------------------
    emit_entry(a, "bitblt:fill");
    a.label("bitblt:fill.row");
    a.emit(nop().rm(8).alu(AluOp::A).load_t()); // T ← fill value (the row
                                                // advance clobbers T, so reload per row)
    a.emit(nop().rm(2).b(BSel::Rm).ff(FfOp::LoadCount));
    a.pair_align();
    a.label("bitblt:fill.w");
    a.emit(
        nop()
            .rm(1)
            .a(ASel::StoreR)
            .b(BSel::T)
            .alu(AluOp::INC_A)
            .load_rm()
            .goto_("bitblt:fill.dec"),
    );
    a.label("bitblt:fill.nx");
    a.emit(nop().goto_("bitblt:advF"));
    a.label("bitblt:fill.dec");
    a.emit(
        nop()
            .ff(FfOp::DecCount)
            .branch(Cond::CntZero, "bitblt:fill.nx", "bitblt:fill.w"),
    );
    emit_row_advance(a, "F", "bitblt:fill.row");

    // --- copy: word-aligned dst ← src, 4 instructions per word ----------
    emit_entry(a, "bitblt:copy");
    a.label("bitblt:copy.row");
    a.emit(nop().rm(2).b(BSel::Rm).ff(FfOp::LoadCount));
    a.pair_align();
    a.label("bitblt:copy.w");
    a.emit(
        nop()
            .rm(0)
            .a(ASel::FetchR)
            .alu(AluOp::INC_A)
            .load_rm()
            .goto_("bitblt:copy.st"),
    );
    a.label("bitblt:copy.nx");
    a.emit(nop().goto_("bitblt:advC"));
    a.label("bitblt:copy.st");
    a.emit(nop().b(BSel::MemData).alu(AluOp::B).load_t());
    a.emit(
        nop()
            .rm(1)
            .a(ASel::StoreR)
            .b(BSel::T)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(
        nop()
            .ff(FfOp::DecCount)
            .branch(Cond::CntZero, "bitblt:copy.nx", "bitblt:copy.w"),
    );
    emit_row_advance(a, "C", "bitblt:copy.row");

    // --- scopy: shifted copy (scrolling), 7 instructions per word -------
    emit_entry(a, "bitblt:scopy");
    a.emit(nop().rm(7).b(BSel::Rm).ff(FfOp::LoadShiftCtl));
    a.label("bitblt:scopy.row");
    a.emit(nop().rm(2).b(BSel::Rm).ff(FfOp::LoadCount));
    // Row prologue: prime T with the word before the window.
    a.emit(nop().rm(0).a(ASel::FetchR).alu(AluOp::INC_A).load_rm());
    a.emit(nop().b(BSel::MemData).alu(AluOp::B).load_t());
    a.pair_align();
    a.label("bitblt:scopy.w");
    a.emit(
        nop()
            .rm(0)
            .a(ASel::FetchR)
            .alu(AluOp::INC_A)
            .load_rm()
            .goto_("bitblt:scopy.sv"),
    );
    a.label("bitblt:scopy.nx");
    a.emit(nop().goto_("bitblt:advS"));
    a.label("bitblt:scopy.sv");
    a.emit(nop().rm(6).a(ASel::T).alu(AluOp::A).load_rm()); // prev ← T
    a.emit(nop().b(BSel::MemData).alu(AluOp::B).load_t()); // T ← cur
    a.emit(nop().rm(6).ff(FfOp::ShOut).load_t()); // T ← merged(prev,cur)
    a.emit(
        nop()
            .rm(1)
            .a(ASel::StoreR)
            .b(BSel::T)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(nop().b(BSel::MemData).alu(AluOp::B).load_t()); // T ← cur again
    a.emit(
        nop()
            .ff(FfOp::DecCount)
            .branch(Cond::CntZero, "bitblt:scopy.nx", "bitblt:scopy.w"),
    );
    emit_row_advance(a, "S", "bitblt:scopy.row");

    // --- merge: dst ← (shifted src XOR dst) AND filter, ~12/word --------
    emit_entry(a, "bitblt:merge");
    a.emit(nop().rm(7).b(BSel::Rm).ff(FfOp::LoadShiftCtl));
    a.label("bitblt:merge.row");
    a.emit(nop().rm(2).b(BSel::Rm).ff(FfOp::LoadCount));
    a.emit(nop().rm(0).a(ASel::FetchR).alu(AluOp::INC_A).load_rm());
    a.emit(nop().b(BSel::MemData).alu(AluOp::B).load_t());
    a.pair_align();
    a.label("bitblt:merge.w");
    a.emit(
        nop()
            .rm(0)
            .a(ASel::FetchR)
            .alu(AluOp::INC_A)
            .load_rm()
            .goto_("bitblt:merge.sv"),
    );
    a.label("bitblt:merge.nx");
    a.emit(nop().goto_("bitblt:advM"));
    a.label("bitblt:merge.sv");
    a.emit(nop().rm(6).a(ASel::T).alu(AluOp::A).load_rm()); // prev ← T
    a.emit(nop().b(BSel::MemData).alu(AluOp::B).load_t()); // T ← cur src
    a.emit(nop().rm(10).a(ASel::T).alu(AluOp::A).load_rm()); // raw ← cur
    a.emit(nop().rm(6).ff(FfOp::ShOut).load_t()); // T ← aligned src
    a.emit(nop().rm(8).a(ASel::T).alu(AluOp::A).load_rm()); // merged ← T
    a.emit(nop().rm(1).a(ASel::FetchR)); // fetch dst word
    a.emit(nop().b(BSel::MemData).alu(AluOp::B).load_t()); // T ← dst
    a.emit(nop().rm(8).b(BSel::T).alu(AluOp::XOR).load_t()); // T ← src⊕dst
    a.emit(nop().rm(9).b(BSel::T).alu(AluOp::AND).load_t()); // T ← ∧filter
    a.emit(
        nop()
            .rm(1)
            .a(ASel::StoreR)
            .b(BSel::T)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(nop().rm(10).alu(AluOp::A).load_t()); // T ← raw src (for prev)
    a.emit(
        nop()
            .ff(FfOp::DecCount)
            .branch(Cond::CntZero, "bitblt:merge.nx", "bitblt:merge.w"),
    );
    emit_row_advance(a, "M", "bitblt:merge.row");

    // --- fillmask: masked read-modify-write, one word per row ------------
    // SHIFTCTL (reg 7) holds a field-insert control; reg 8 the justified
    // pattern bits; the masked-out positions refill from MEMDATA, so the
    // destination bits outside the field are preserved.
    emit_entry(a, "bitblt:fillmask");
    a.emit(nop().rm(7).b(BSel::Rm).ff(FfOp::LoadShiftCtl));
    a.pair_align();
    a.label("bitblt:fmask.row");
    a.emit(nop().rm(1).a(ASel::FetchR)); // fetch the destination word
    a.emit(nop().rm(8).alu(AluOp::A).load_t()); // R = T = justified bits
    a.emit(nop().rm(8).ff(FfOp::ShOutM).load_t()); // T ← field ∪ MEMDATA
    a.emit(
        nop()
            .rm(1)
            .a(ASel::StoreR)
            .b(BSel::T)
            .alu(AluOp::INC_A)
            .load_rm(),
    );
    a.emit(nop().rm(5).alu(AluOp::A).load_t()); // T ← row gap
    a.emit(nop().rm(1).b(BSel::T).alu(AluOp::ADD).load_rm());
    a.emit(nop().rm(3).alu(AluOp::DEC_A).load_rm());
    a.emit(nop().branch(Cond::Zero, "bitblt:fmask.done", "bitblt:fmask.row"));
    a.label("bitblt:fmask.done");
    a.emit(nop().ff_halt().goto_("bitblt:fmask.done"));
}

/// Loads parameters for `bitblt:fillmask`: a one-word-wide column of
/// `height` rows starting at word `dst`, advancing `pitch` words per row,
/// writing `pattern`'s bits `[pos, pos+size)` (LSB-0) into each word and
/// preserving the rest.
///
/// # Panics
///
/// Panics on degenerate geometry or a field that does not fit a word.
pub fn load_fillmask(
    m: &mut Dorado,
    dst: Word,
    height: Word,
    pitch: Word,
    pattern: Word,
    pos: u8,
    size: u8,
) {
    assert!(height >= 1 && pitch >= 1, "degenerate masked fill");
    assert!(
        size >= 1 && u32::from(pos) + u32::from(size) <= 16,
        "field does not fit a word"
    );
    let base = usize::from(RB_BITBLT) << 4;
    m.set_rm(base + 1, dst);
    m.set_rm(base + 3, height);
    m.set_rm(base + 5, pitch - 1);
    m.set_rm(base + 7, ShiftCtl::field_insert(pos, size).raw());
    m.set_rm(base + 8, pattern >> pos);
}

// --- bit-aligned rectangles --------------------------------------------------

/// A rectangle in *bit* coordinates over a bitmap.  `x` counts bits from
/// the left edge of the scanline in display order: bit 0 is the most
/// significant bit of the scanline's first word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitRect {
    /// Word address of the bitmap origin.
    pub base: Word,
    /// Scanline pitch in words.
    pub pitch: Word,
    /// Left edge in bits from the scanline start.
    pub x: u16,
    /// Top edge in scanlines.
    pub y: u16,
    /// Width in bits (0 plans an empty fill).
    pub w: u16,
    /// Height in scanlines (0 plans an empty fill).
    pub h: u16,
}

/// One step of a planned bit-aligned fill.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FillStep {
    /// Whole interior words via `bitblt:fill`.
    Words(BitBltParams),
    /// A masked edge column via `bitblt:fillmask`.
    Edge {
        /// Word address of the top of the column.
        dst: Word,
        /// Column height in rows.
        height: Word,
        /// Row pitch in words.
        pitch: Word,
        /// LSB-0 position of the written field.
        pos: u8,
        /// Field width in bits.
        size: u8,
    },
}

/// Decomposes a bit-aligned rectangle fill into at most three steps:
/// left masked edge, whole-word interior, right masked edge.  A
/// rectangle inside a single word becomes one `Edge` step; a zero-width
/// or zero-height rectangle plans no steps at all (an empty fill is a
/// no-op, the convention every raster API caller expects).
///
/// # Panics
///
/// Panics on a rectangle that overruns its pitch.
pub fn plan_fill_bits(r: &BitRect) -> Vec<FillStep> {
    if r.w == 0 || r.h == 0 {
        return Vec::new();
    }
    assert!(
        u32::from(r.x) + u32::from(r.w) <= u32::from(r.pitch) * 16,
        "rectangle overruns the scanline"
    );
    let row0 = r.base + r.y * r.pitch;
    let x1 = r.x + r.w; // exclusive right edge in bits
    let first_word = r.x / 16;
    let last_word = (x1 - 1) / 16;
    let mut steps = Vec::new();

    // Display bit d (0 = MSB) maps to LSB position 15 - d, so a display
    // range [d0, d1) is the LSB field at pos = 16 - d1, size = d1 - d0.
    let edge = |word: u16, d0: u16, d1: u16| FillStep::Edge {
        dst: row0 + word,
        height: r.h,
        pitch: r.pitch,
        pos: (16 - d1) as u8,
        size: (d1 - d0) as u8,
    };

    if first_word == last_word {
        steps.push(edge(first_word, r.x % 16, x1 - first_word * 16));
        return steps;
    }
    let mut interior_first = first_word;
    if !r.x.is_multiple_of(16) {
        steps.push(edge(first_word, r.x % 16, 16));
        interior_first += 1;
    }
    let mut interior_last = last_word; // inclusive
    if !x1.is_multiple_of(16) {
        steps.push(edge(last_word, 0, x1 % 16));
        interior_last -= 1;
    }
    if interior_first <= interior_last {
        steps.push(FillStep::Words(BitBltParams {
            src: 0,
            dst: row0 + interior_first,
            width: interior_last - interior_first + 1,
            height: r.h,
            src_pitch: r.pitch,
            dst_pitch: r.pitch,
            ..BitBltParams::default()
        }));
    }
    steps
}

/// Fills a bit-aligned rectangle with `pattern` (a word-grid-aligned
/// 16-bit pattern) by running the planned steps on the machine.  The
/// microcode image must contain the BitBlt suite.
///
/// # Panics
///
/// Panics if the BitBlt entries are missing from the image or a step
/// fails to halt.
pub fn fill_rect_bits(m: &mut Dorado, r: &BitRect, pattern: Word) {
    for step in plan_fill_bits(r) {
        match step {
            FillStep::Words(p) => {
                let p = BitBltParams { fill: pattern, ..p };
                load_params(m, &p, BlitKind::Fill);
                m.restart_at("bitblt:fill").expect("bitblt:fill in image");
            }
            FillStep::Edge {
                dst,
                height,
                pitch,
                pos,
                size,
            } => {
                load_fillmask(m, dst, height, pitch, pattern, pos, size);
                m.restart_at("bitblt:fillmask")
                    .expect("bitblt:fillmask in image");
            }
        }
        let out = m.run(5_000_000);
        assert!(out.halted(), "fill step did not halt: {out:?}");
    }
}

/// Reference bit-aligned fill: what [`fill_rect_bits`] must produce.
pub fn reference_fill_bits(mem: &mut [Word], r: &BitRect, pattern: Word) {
    for row in 0..r.h {
        for c in r.x..r.x + r.w {
            let word = usize::from(r.base + (r.y + row) * r.pitch + c / 16);
            let lsb = 15 - (c % 16);
            let bit = (pattern >> lsb) & 1;
            mem[word] = (mem[word] & !(1 << lsb)) | (bit << lsb);
        }
    }
}

// --- host-side reference rasterizer ----------------------------------------

/// Reference fill: what `bitblt:fill` must produce.
pub fn reference_fill(mem: &mut [Word], p: &BitBltParams) {
    for row in 0..p.height {
        for col in 0..p.width {
            let d = p.dst as usize + row as usize * p.dst_pitch as usize + col as usize;
            mem[d] = p.fill;
        }
    }
}

/// Reference word-aligned copy.
pub fn reference_copy(mem: &mut [Word], p: &BitBltParams) {
    for row in 0..p.height {
        for col in 0..p.width {
            let s = p.src as usize + row as usize * p.src_pitch as usize + col as usize;
            let d = p.dst as usize + row as usize * p.dst_pitch as usize + col as usize;
            mem[d] = mem[s];
        }
    }
}

/// The shifted source word for column `col` of a row: the microcode's
/// window starts one word *before* `src`, pairing (w[-1], w[0]) for the
/// first output.
fn shifted_src(mem: &[Word], p: &BitBltParams, row: Word, col: Word) -> Word {
    let base = p.src as usize + row as usize * p.src_pitch as usize + col as usize;
    let prev = mem[base];
    let cur = mem[base + 1];
    let v = (u32::from(prev) << 16) | u32::from(cur);
    (v.rotate_left(u32::from(p.shift)) >> 16) as Word
}

/// Reference shifted copy (`bitblt:scopy`).
pub fn reference_scopy(mem: &mut [Word], p: &BitBltParams) {
    for row in 0..p.height {
        let words: Vec<Word> = (0..p.width)
            .map(|col| shifted_src(mem, p, row, col))
            .collect();
        for (col, w) in words.into_iter().enumerate() {
            let d = p.dst as usize + row as usize * p.dst_pitch as usize + col;
            mem[d] = w;
        }
    }
}

/// Reference merge (`bitblt:merge`): dst ← (shifted src ⊕ dst) ∧ filter.
pub fn reference_merge(mem: &mut [Word], p: &BitBltParams) {
    for row in 0..p.height {
        let words: Vec<Word> = (0..p.width)
            .map(|col| shifted_src(mem, p, row, col))
            .collect();
        for (col, s) in words.into_iter().enumerate() {
            let d = p.dst as usize + row as usize * p.dst_pitch as usize + col;
            mem[d] = (s ^ mem[d]) & p.filter;
        }
    }
}

/// Copies a region of machine memory into a host vector (for verification).
pub fn read_region(m: &Dorado, start: u32, words: usize) -> Vec<Word> {
    (0..words)
        .map(|i| m.memory().read_virt(VirtAddr::new(start + i as u32)))
        .collect()
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
        let placed = a.place().expect("bitblt places");
        for e in [
            "bitblt:fill",
            "bitblt:copy",
            "bitblt:scopy",
            "bitblt:merge",
            "bitblt:fillmask",
        ] {
            assert!(placed.address_of(e).is_some(), "{e}");
        }
    }

    #[test]
    fn reference_fill_and_copy() {
        let mut mem = vec![0u16; 256];
        for (i, w) in mem.iter_mut().enumerate() {
            *w = i as Word;
        }
        let p = BitBltParams {
            src: 0,
            dst: 128,
            width: 4,
            height: 3,
            src_pitch: 8,
            dst_pitch: 8,
            ..BitBltParams::default()
        };
        reference_copy(&mut mem, &p);
        assert_eq!(mem[128], 0);
        assert_eq!(mem[131], 3);
        assert_eq!(mem[136], 8); // second row from src row 1
        let p2 = BitBltParams { fill: 0xbeef, ..p };
        reference_fill(&mut mem, &p2);
        assert_eq!(mem[128], 0xbeef);
        assert_eq!(mem[131 + 8], 0xbeef);
        assert_ne!(mem[132], 0xbeef, "outside width untouched");
    }

    #[test]
    fn reference_shift_semantics() {
        let mut mem = vec![0u16; 64];
        mem[8] = 0x00ff; // prev
        mem[9] = 0xf00f; // cur
        let p = BitBltParams {
            src: 8,
            dst: 32,
            width: 1,
            height: 1,
            src_pitch: 2,
            dst_pitch: 1,
            shift: 4,
            ..BitBltParams::default()
        };
        reference_scopy(&mut mem, &p);
        // (0x00ff:0xf00f) rotated left 4, high 16 bits = 0x0fff.
        assert_eq!(mem[32], 0x0fff);
    }

    #[test]
    fn plan_single_word_rect_is_one_edge() {
        let r = BitRect {
            base: 0,
            pitch: 4,
            x: 3,
            y: 0,
            w: 7,
            h: 2,
        };
        let steps = plan_fill_bits(&r);
        assert_eq!(
            steps,
            vec![FillStep::Edge {
                dst: 0,
                height: 2,
                pitch: 4,
                pos: 6,
                size: 7
            }]
        );
    }

    #[test]
    fn plan_spanning_rect_has_edges_and_interior() {
        // Bits 5..53 over a 4-word pitch: left edge (11 bits), interior
        // words 1-2, right edge (5 bits).
        let r = BitRect {
            base: 0x100,
            pitch: 4,
            x: 5,
            y: 1,
            w: 48,
            h: 3,
        };
        let steps = plan_fill_bits(&r);
        assert_eq!(steps.len(), 3);
        assert_eq!(
            steps[0],
            FillStep::Edge {
                dst: 0x104,
                height: 3,
                pitch: 4,
                pos: 0,
                size: 11
            }
        );
        assert_eq!(
            steps[1],
            FillStep::Edge {
                dst: 0x107,
                height: 3,
                pitch: 4,
                pos: 11,
                size: 5
            }
        );
        match &steps[2] {
            FillStep::Words(p) => {
                assert_eq!(p.dst, 0x105);
                assert_eq!(p.width, 2);
                assert_eq!(p.height, 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn plan_aligned_rect_is_pure_words() {
        let r = BitRect {
            base: 0,
            pitch: 8,
            x: 16,
            y: 0,
            w: 64,
            h: 2,
        };
        let steps = plan_fill_bits(&r);
        assert_eq!(steps.len(), 1);
        match &steps[0] {
            FillStep::Words(p) => {
                assert_eq!(p.dst, 1);
                assert_eq!(p.width, 4);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reference_fill_bits_preserves_outside() {
        let mut mem = vec![0xffffu16; 16];
        let r = BitRect {
            base: 0,
            pitch: 4,
            x: 4,
            y: 0,
            w: 8,
            h: 1,
        };
        reference_fill_bits(&mut mem, &r, 0x0000);
        // Display bits 4..12 cleared: MSB nibble and low nibble kept.
        assert_eq!(mem[0], 0xf00f);
        assert_eq!(mem[1], 0xffff);
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn plan_rejects_overrun() {
        plan_fill_bits(&BitRect {
            base: 0,
            pitch: 2,
            x: 30,
            y: 0,
            w: 4,
            h: 1,
        });
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn load_params_validates() {
        // Can't build a Dorado here cheaply; validate via the assertion
        // path by calling through a minimal machine.
        let mut a = Assembler::new();
        a.label("x");
        a.emit(nop().ff_halt().goto_("x"));
        let mut m = dorado_core::DoradoBuilder::new()
            .microcode(a.place().unwrap())
            .build()
            .unwrap();
        load_params(
            &mut m,
            &BitBltParams {
                width: 0,
                ..BitBltParams::default()
            },
            BlitKind::Copy,
        );
    }
}
