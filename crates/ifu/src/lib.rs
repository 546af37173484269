//! The instruction fetch unit (IFU).
//!
//! "An instruction fetch unit in the Dorado fetches such a stream [of byte
//! codes], decodes them as instructions and operands, and provides the
//! necessary control and data information to the processor" (§3; the full
//! unit is the subject of a companion paper).  The processor paper depends
//! on three behaviours, all modeled here:
//!
//! * **dispatch**: "any microinstruction can specify [that it is] the last
//!   of a macroinstruction, in which case the successor address is supplied
//!   by the IFU" (§5.8) — [`Ifu::dispatch`];
//! * **operand delivery**: "IFUDATA has an operand of the current
//!   macroinstruction; as each operand is used, the IFU provides the next
//!   one" (§6.3.2) — [`Ifu::ifudata`];
//! * **holds**: when the IFU has not finished decoding (e.g. after a macro
//!   jump or a cache miss on its private port), the consuming
//!   microinstruction is held.
//!
//! The prefetcher owns a dedicated cache port on the
//! [`MemorySystem`] ("independent busses
//! communicate with the memory, IFU, and I/O systems", §4) and keeps a small
//! byte buffer ahead of the macro program counter.
//!
//! # Examples
//!
//! ```
//! use dorado_base::{MicroAddr, VirtAddr};
//! use dorado_ifu::{DecodeEntry, Ifu, OperandKind};
//! use dorado_mem::{MemConfig, MemorySystem};
//!
//! let mut mem = MemorySystem::new(MemConfig::default());
//! let mut ifu = Ifu::new();
//! // Opcode 0x01 takes one byte operand and enters microcode at 0o100.
//! ifu.set_decode_entry(
//!     0x01,
//!     DecodeEntry::new(MicroAddr::new(0o100)).with_operand(OperandKind::Byte),
//! );
//! // Code: opcode 0x01, operand 0x2a (packed big-endian into words).
//! mem.write_virt(VirtAddr::new(0), 0x012a);
//! ifu.jump(0);
//! while ifu.dispatch_peek().is_none() {
//!     ifu.tick(&mut mem);
//!     mem.tick();
//! }
//! let (entry, _membase) = ifu.dispatch().unwrap();
//! assert_eq!(entry, MicroAddr::new(0o100));
//! assert_eq!(ifu.ifudata(), Some(0x2a));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;

use dorado_base::snap::{Reader, SnapError, Snapshot, Writer};
use dorado_base::{MicroAddr, VirtAddr, Word};
use dorado_mem::MemorySystem;

/// How one macroinstruction operand is assembled from the byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperandKind {
    /// One byte, zero-extended to 16 bits.
    Byte,
    /// One byte, sign-extended to 16 bits.
    SignedByte,
    /// Two bytes, big-endian, as one 16-bit word.
    WordPair,
}

impl OperandKind {
    /// How many instruction-stream bytes this operand consumes.
    pub fn bytes(self) -> usize {
        match self {
            OperandKind::Byte | OperandKind::SignedByte => 1,
            OperandKind::WordPair => 2,
        }
    }
}

/// One entry of the IFU's 256-entry decode table: where the opcode's
/// microcode starts and what operands follow it in the byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeEntry {
    entry: MicroAddr,
    operands: Vec<OperandKind>,
    membase: Option<u8>,
}

impl DecodeEntry {
    /// An entry dispatching to `entry` with no operands.
    pub fn new(entry: MicroAddr) -> Self {
        DecodeEntry {
            entry,
            operands: Vec::new(),
            membase: None,
        }
    }

    /// Selects the memory base register loaded at dispatch ("MEMBASE ...
    /// can also be loaded from the IFU at the start of a macroinstruction",
    /// §6.3.3) — how the emulators address locals, globals, and the flat
    /// data space without base-switching instructions.
    #[must_use]
    pub fn with_membase(mut self, membase: u8) -> Self {
        self.membase = Some(membase & 0x1f);
        self
    }

    /// The base register this opcode selects at dispatch, if any.
    pub fn membase(&self) -> Option<u8> {
        self.membase
    }

    /// Adds an operand (at most two are allowed, as on the real IFU).
    ///
    /// # Panics
    ///
    /// Panics if the entry already has two operands.
    #[must_use]
    pub fn with_operand(mut self, kind: OperandKind) -> Self {
        assert!(self.operands.len() < 2, "at most two operands per opcode");
        self.operands.push(kind);
        self
    }

    /// The microcode entry address.
    pub fn entry(&self) -> MicroAddr {
        self.entry
    }

    /// The operand descriptors.
    pub fn operands(&self) -> &[OperandKind] {
        &self.operands
    }

    /// Total instruction length in bytes (opcode + operands).
    pub fn length(&self) -> usize {
        1 + self.operands.iter().map(|o| o.bytes()).sum::<usize>()
    }
}

impl Default for DecodeEntry {
    /// An undefined opcode: dispatches to microstore address 0 (where the
    /// emulator's breakpoint/trap microcode conventionally lives).
    fn default() -> Self {
        DecodeEntry::new(MicroAddr::new(0))
    }
}

/// IFU statistics: the shared [`IfuActivity`] registry block
/// (dispatches, branch outcomes, prefetch-buffer fullness).
pub use dorado_base::IfuActivity as IfuCounters;

/// The instruction fetch unit.
#[derive(Debug, Clone)]
pub struct Ifu {
    /// Word address of the start of the code segment.
    code_base: VirtAddr,
    /// Macro PC as a byte offset from `code_base`.
    pc: u32,
    /// Prefetched bytes, front = next opcode byte.
    buffer: VecDeque<u8>,
    /// Byte offset of the next byte the prefetcher will request (its
    /// containing word is fetched; an odd offset skips the high byte).
    fetch_byte: u32,
    /// Words fetched but to be discarded (issued before a jump).
    discard: u32,
    /// Operands of the current (dispatched) macroinstruction.
    operands: VecDeque<Word>,
    table: Vec<DecodeEntry>,
    counters: IfuCounters,
    buffer_cap: usize,
}

impl Default for Ifu {
    fn default() -> Self {
        Self::new()
    }
}

impl Ifu {
    /// Creates an IFU with an empty buffer and a default decode table.
    pub fn new() -> Self {
        Ifu {
            code_base: VirtAddr::new(0),
            pc: 0,
            buffer: VecDeque::new(),
            fetch_byte: 0,
            discard: 0,
            operands: VecDeque::new(),
            table: vec![DecodeEntry::default(); 256],
            counters: IfuCounters::default(),
            buffer_cap: 6,
        }
    }

    /// Sets the word address of the code segment; resets the PC to 0.
    pub fn set_code_base(&mut self, base: VirtAddr) {
        self.code_base = base;
        self.jump(0);
    }

    /// The code segment base.
    pub fn code_base(&self) -> VirtAddr {
        self.code_base
    }

    /// The macro program counter (byte offset from the code base).
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Installs a decode-table entry for `opcode`.
    pub fn set_decode_entry(&mut self, opcode: u8, entry: DecodeEntry) {
        self.table[usize::from(opcode)] = entry;
    }

    /// Reads the decode-table entry for `opcode`.
    pub fn decode_entry(&self, opcode: u8) -> &DecodeEntry {
        &self.table[usize::from(opcode)]
    }

    /// Statistics.
    pub fn counters(&self) -> &IfuCounters {
        &self.counters
    }

    /// Macro jump: PC ← `byte_addr`; the buffer refills from the new
    /// location (the `IfuLoadPc` FF operation).
    pub fn jump(&mut self, byte_addr: u32) {
        self.pc = byte_addr;
        self.fetch_byte = byte_addr;
        self.buffer.clear();
        self.operands.clear();
        self.counters.jumps += 1;
        // One word fetch may be in flight; its data is stale now.
        self.discard = 1;
    }

    /// Advances the prefetch engine one microcycle.  Call once per machine
    /// cycle, before the processor's instruction executes.
    pub fn tick(&mut self, mem: &mut MemorySystem) {
        // Buffer-fullness accounting: mean occupancy and the fraction of
        // ticks on which the prefetcher was saturated (no room for a word).
        self.counters.ticks += 1;
        self.counters.buffer_bytes_accum += self.buffer.len() as u64;
        if self.buffer.len() + 2 > self.buffer_cap {
            self.counters.buffer_full_cycles += 1;
            // Saturated with nothing in flight and nothing to discard:
            // the rest of the tick is provably a no-op.
            if self.discard == 0 && !mem.ifu_fetch_outstanding() {
                return;
            }
        }
        // Collect arrived data.
        if let Some(word) = mem.ifu_data() {
            if self.discard > 0 {
                self.discard -= 1;
            } else {
                let hi = (word >> 8) as u8;
                let lo = (word & 0xff) as u8;
                // The refill point may be mid-word after an odd jump.
                if self.fetch_byte % 2 == 1 {
                    self.buffer.push_back(lo);
                } else {
                    self.buffer.push_back(hi);
                    self.buffer.push_back(lo);
                }
                // Round up to the next word boundary.
                self.fetch_byte = (self.fetch_byte / 2 + 1) * 2;
                self.counters.fetches += 1;
            }
        }
        if self.discard > 0 && !mem.ifu_fetch_outstanding() {
            // The stale in-flight fetch never existed (port was idle at
            // jump time); nothing to discard after all.
            self.discard = 0;
        }
        // Issue the next prefetch if there is room and the port is free.
        if self.discard == 0
            && !mem.ifu_fetch_outstanding()
            && self.buffer.len() + 2 <= self.buffer_cap
        {
            let word_addr = self.code_base.0 + self.fetch_byte / 2;
            let _ = mem.ifu_start_fetch(VirtAddr::new(word_addr));
        }
    }

    /// Whether a dispatch would succeed, and with which entry (does not
    /// consume anything).
    pub fn dispatch_peek(&self) -> Option<MicroAddr> {
        let &op = self.buffer.front()?;
        let entry = &self.table[usize::from(op)];
        if self.buffer.len() >= entry.length() {
            Some(entry.entry())
        } else {
            None
        }
    }

    /// Dispatches the next macroinstruction: consumes the opcode and its
    /// operand bytes, making the operands available via [`Ifu::ifudata`],
    /// and returns the microcode entry address plus the entry's MEMBASE
    /// selection.  `None` means the IFU is not ready and the `IFUJump`
    /// microinstruction must be held (§5.7).
    pub fn dispatch(&mut self) -> Option<(MicroAddr, Option<u8>)> {
        let &op = self.buffer.front()?;
        let entry = self.table[usize::from(op)].clone();
        if self.buffer.len() < entry.length() {
            return None;
        }
        self.buffer.pop_front();
        self.operands.clear();
        for kind in entry.operands() {
            let word = match kind {
                OperandKind::Byte => Word::from(self.buffer.pop_front().expect("checked")),
                OperandKind::SignedByte => {
                    let b = self.buffer.pop_front().expect("checked");
                    b as i8 as i16 as Word
                }
                OperandKind::WordPair => {
                    let hi = self.buffer.pop_front().expect("checked");
                    let lo = self.buffer.pop_front().expect("checked");
                    (Word::from(hi) << 8) | Word::from(lo)
                }
            };
            self.operands.push_back(word);
        }
        self.pc += entry.length() as u32;
        self.counters.dispatches += 1;
        Some((entry.entry(), entry.membase()))
    }

    /// Supplies the next operand of the current macroinstruction, or `None`
    /// (hold) if none remains unconsumed.
    pub fn ifudata(&mut self) -> Option<Word> {
        self.operands.pop_front()
    }

    /// Peeks the next operand without consuming it (the processor's hold
    /// check).
    pub fn peek_operand(&self) -> Option<Word> {
        self.operands.front().copied()
    }

    /// Operands not yet consumed for the current macroinstruction.
    pub fn operands_remaining(&self) -> usize {
        self.operands.len()
    }
}

impl Snapshot for Ifu {
    fn save(&self, w: &mut Writer) {
        w.tag(b"IFU ");
        w.u32(self.code_base.0);
        w.u32(self.pc);
        w.byte_seq(self.buffer.iter().copied());
        w.u32(self.fetch_byte);
        w.u32(self.discard);
        w.word_seq(self.operands.iter().copied());
        self.counters.save(w);
    }

    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        r.tag(b"IFU ")?;
        // The decode table is configuration, not dynamic state; it stays
        // with the live object.
        self.code_base = VirtAddr::new(r.u32()?);
        self.pc = r.u32()?;
        self.buffer = r.byte_seq()?.into();
        self.fetch_byte = r.u32()?;
        self.discard = r.u32()?;
        self.operands = r.word_seq()?.into();
        self.counters.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dorado_mem::MemConfig;

    fn setup(code: &[u8]) -> (MemorySystem, Ifu) {
        let mut mem = MemorySystem::new(MemConfig::default());
        for (i, pair) in code.chunks(2).enumerate() {
            let hi = pair[0] as Word;
            let lo = *pair.get(1).unwrap_or(&0) as Word;
            mem.write_virt(VirtAddr::new(i as u32), (hi << 8) | lo);
        }
        let ifu = Ifu::new();
        (mem, ifu)
    }

    fn run_to_dispatch(mem: &mut MemorySystem, ifu: &mut Ifu) -> MicroAddr {
        for _ in 0..1000 {
            if let Some((e, _)) = ifu.dispatch() {
                return e;
            }
            ifu.tick(mem);
            mem.tick();
        }
        panic!("IFU never became ready");
    }

    #[test]
    fn dispatch_simple_opcode() {
        let (mut mem, mut ifu) = setup(&[0x05, 0x05]);
        ifu.set_decode_entry(0x05, DecodeEntry::new(MicroAddr::new(0o777)));
        ifu.jump(0);
        let e = run_to_dispatch(&mut mem, &mut ifu);
        assert_eq!(e, MicroAddr::new(0o777));
        assert_eq!(ifu.pc(), 1);
        assert_eq!(ifu.counters().dispatches, 1);
    }

    #[test]
    fn operands_are_delivered_in_order() {
        let (mut mem, mut ifu) = setup(&[0x10, 0xff, 0x22, 0x00]);
        ifu.set_decode_entry(
            0x10,
            DecodeEntry::new(MicroAddr::new(8))
                .with_operand(OperandKind::SignedByte)
                .with_operand(OperandKind::Byte),
        );
        ifu.jump(0);
        let _ = run_to_dispatch(&mut mem, &mut ifu);
        assert_eq!(ifu.operands_remaining(), 2);
        assert_eq!(ifu.ifudata(), Some(0xffff)); // sign-extended 0xff
        assert_eq!(ifu.ifudata(), Some(0x22));
        assert_eq!(ifu.ifudata(), None);
        assert_eq!(ifu.pc(), 3);
    }

    #[test]
    fn word_pair_operand() {
        let (mut mem, mut ifu) = setup(&[0x11, 0x12, 0x34, 0x00]);
        ifu.set_decode_entry(
            0x11,
            DecodeEntry::new(MicroAddr::new(16)).with_operand(OperandKind::WordPair),
        );
        ifu.jump(0);
        let _ = run_to_dispatch(&mut mem, &mut ifu);
        assert_eq!(ifu.ifudata(), Some(0x1234));
    }

    #[test]
    fn not_ready_right_after_jump() {
        let (mut mem, mut ifu) = setup(&[0x05]);
        ifu.set_decode_entry(0x05, DecodeEntry::new(MicroAddr::new(1)));
        ifu.jump(0);
        assert!(ifu.dispatch().is_none(), "buffer is empty after a jump");
        let mut waited = 0u64;
        while ifu.dispatch_peek().is_none() {
            ifu.tick(&mut mem);
            mem.tick();
            waited += 1;
            assert!(waited < 100);
        }
        // Cold cache: at least the miss penalty must have elapsed.
        assert!(waited >= MemConfig::default().miss_penalty);
    }

    #[test]
    fn jump_to_odd_byte_address() {
        // Code: [pad, opcode 0x07] in word 0, operand in word 1.
        let (mut mem, mut ifu) = setup(&[0x00, 0x07, 0x09, 0x00]);
        ifu.set_decode_entry(
            0x07,
            DecodeEntry::new(MicroAddr::new(32)).with_operand(OperandKind::Byte),
        );
        ifu.jump(1);
        let e = run_to_dispatch(&mut mem, &mut ifu);
        assert_eq!(e, MicroAddr::new(32));
        assert_eq!(ifu.ifudata(), Some(0x09));
        assert_eq!(ifu.pc(), 3);
    }

    #[test]
    fn sequential_dispatches_advance_pc() {
        let (mut mem, mut ifu) = setup(&[0x01, 0x02, 0x01, 0x02]);
        ifu.set_decode_entry(0x01, DecodeEntry::new(MicroAddr::new(4)));
        ifu.set_decode_entry(0x02, DecodeEntry::new(MicroAddr::new(6)));
        ifu.jump(0);
        assert_eq!(run_to_dispatch(&mut mem, &mut ifu), MicroAddr::new(4));
        assert_eq!(run_to_dispatch(&mut mem, &mut ifu), MicroAddr::new(6));
        assert_eq!(run_to_dispatch(&mut mem, &mut ifu), MicroAddr::new(4));
        assert_eq!(ifu.pc(), 3);
    }

    #[test]
    fn jump_discards_stale_prefetch() {
        let (mut mem, mut ifu) = setup(&[0x01, 0x01, 0x02, 0x02]);
        ifu.set_decode_entry(0x01, DecodeEntry::new(MicroAddr::new(4)));
        ifu.set_decode_entry(0x02, DecodeEntry::new(MicroAddr::new(6)));
        ifu.jump(0);
        // Let a fetch get in flight, then jump elsewhere before it lands.
        ifu.tick(&mut mem);
        ifu.jump(2);
        let e = run_to_dispatch(&mut mem, &mut ifu);
        assert_eq!(e, MicroAddr::new(6), "must not decode stale bytes");
    }

    #[test]
    fn code_base_offsets_fetches() {
        let mut mem = MemorySystem::new(MemConfig::default());
        mem.write_virt(VirtAddr::new(0x100), 0x0900);
        let mut ifu = Ifu::new();
        ifu.set_decode_entry(0x09, DecodeEntry::new(MicroAddr::new(40)));
        ifu.set_code_base(VirtAddr::new(0x100));
        assert_eq!(ifu.code_base(), VirtAddr::new(0x100));
        let e = run_to_dispatch(&mut mem, &mut ifu);
        assert_eq!(e, MicroAddr::new(40));
    }

    #[test]
    fn default_entry_traps_to_zero() {
        let (mut mem, mut ifu) = setup(&[0xee, 0x00]);
        ifu.jump(0);
        let e = run_to_dispatch(&mut mem, &mut ifu);
        assert_eq!(e, MicroAddr::new(0));
    }

    #[test]
    fn buffer_fullness_is_accounted() {
        let (mut mem, mut ifu) = setup(&[0x05, 0x05, 0x05, 0x05, 0x05, 0x05]);
        ifu.set_decode_entry(0x05, DecodeEntry::new(MicroAddr::new(1)));
        ifu.jump(0);
        // Run without dispatching: the buffer fills to capacity and stays
        // there, so the tail of the window must be all-full ticks.
        for _ in 0..200 {
            ifu.tick(&mut mem);
            mem.tick();
        }
        let c = ifu.counters();
        assert_eq!(c.ticks, 200);
        assert!(c.buffer_full_cycles > 0, "buffer must saturate: {c:?}");
        assert!(c.buffer_bytes_accum > 0);
        assert!(c.mean_buffer_bytes() > 0.0);
        assert!(c.buffer_full_fraction() > 0.5, "{}", c.buffer_full_fraction());
        assert_eq!(c.jumps, 1);
    }

    #[test]
    fn snapshot_mid_prefetch_resumes_identically() {
        use dorado_base::snap::{restore_image, save_image};
        let (mut mem, mut ifu) = setup(&[0x10, 0xff, 0x22, 0x05, 0x05, 0x00]);
        ifu.set_decode_entry(
            0x10,
            DecodeEntry::new(MicroAddr::new(8))
                .with_operand(OperandKind::SignedByte)
                .with_operand(OperandKind::Byte),
        );
        ifu.set_decode_entry(0x05, DecodeEntry::new(MicroAddr::new(1)));
        ifu.jump(0);
        // Stop mid-prefetch, with bytes buffered and possibly a fetch in
        // flight on the memory side.
        for _ in 0..3 {
            ifu.tick(&mut mem);
            mem.tick();
        }
        let ifu_img = save_image(&ifu);
        let mem_img = save_image(&mem);

        // The restored IFU keeps its own (live) decode table.
        let mut ifu2 = Ifu::new();
        ifu2.set_decode_entry(
            0x10,
            DecodeEntry::new(MicroAddr::new(8))
                .with_operand(OperandKind::SignedByte)
                .with_operand(OperandKind::Byte),
        );
        ifu2.set_decode_entry(0x05, DecodeEntry::new(MicroAddr::new(1)));
        restore_image(&mut ifu2, &ifu_img).unwrap();
        let mut mem2 = MemorySystem::new(MemConfig::default());
        restore_image(&mut mem2, &mem_img).unwrap();

        assert_eq!(run_to_dispatch(&mut mem, &mut ifu), MicroAddr::new(8));
        assert_eq!(run_to_dispatch(&mut mem2, &mut ifu2), MicroAddr::new(8));
        assert_eq!(ifu.ifudata(), ifu2.ifudata());
        assert_eq!(ifu.ifudata(), ifu2.ifudata());
        assert_eq!(ifu.pc(), ifu2.pc());
        assert_eq!(run_to_dispatch(&mut mem, &mut ifu), MicroAddr::new(1));
        assert_eq!(run_to_dispatch(&mut mem2, &mut ifu2), MicroAddr::new(1));
        assert_eq!(save_image(&ifu), save_image(&ifu2));
    }

    #[test]
    #[should_panic(expected = "two operands")]
    fn at_most_two_operands() {
        let _ = DecodeEntry::new(MicroAddr::new(0))
            .with_operand(OperandKind::Byte)
            .with_operand(OperandKind::Byte)
            .with_operand(OperandKind::Byte);
    }
}
