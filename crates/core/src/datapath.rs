//! The data section (§6.3): registers, stacks, and condition flags.
//!
//! "Not all registers are task specific" (§5.3): RM, the stack memory,
//! COUNT, Q, SHIFTCTL, and ALUFM are shared; T, IOADDRESS, RBASE, MEMBASE,
//! and the branch-condition flags are task specific (TPC and LINK live in
//! the [control section](crate::control)).  RBASE and MEMBASE must be task
//! specific for the §6.2.1 two-instruction service loops to work: a device
//! task addresses its own RM region and buffer base with no save/restore.

use dorado_asm::{default_alufm, AluFunction, ShiftCtl};
use dorado_base::snap::{Io, SnapError, Snapshot};
use dorado_base::{BaseRegId, TaskId, Word, NUM_TASKS, RM_SIZE, STACK_SIZE};

/// Branch-condition flags computed from a task's most recent ALU operation
/// (the task-specific branch-condition register of §5.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CondFlags {
    /// The result was zero.
    pub zero: bool,
    /// The result was negative (bit 15).
    pub neg: bool,
    /// Carry out (no-borrow for subtraction).
    pub carry: bool,
    /// Signed overflow.
    pub overflow: bool,
    /// The result was odd (bit 0).
    pub odd: bool,
}

impl CondFlags {
    /// Flags for a 16-bit result with explicit carry/overflow.
    pub fn from_result(result: Word, carry: bool, overflow: bool) -> Self {
        CondFlags {
            zero: result == 0,
            neg: result & 0x8000 != 0,
            carry,
            overflow,
            odd: result & 1 != 0,
        }
    }
}

/// The data section state.
#[derive(Debug, Clone)]
pub struct DataSection {
    /// The 256 general registers (§6.3.3).
    pub rm: [Word; RM_SIZE],
    /// The 256-word stack memory: four 64-word stacks (§6.3.3).
    pub stack: [Word; STACK_SIZE],
    /// STACKPTR: 2 bits of stack select, 6 bits of position.
    stackptr: u8,
    /// Sticky stack over/underflow flag (§6.3.3).
    pub stack_error: bool,
    /// Task-specific working register T.
    pub t: [Word; NUM_TASKS],
    /// The COUNT register (shared; "normally used only by task 0", §5.3).
    pub count: Word,
    /// The Q register for multiply/divide (shared).
    pub q: Word,
    /// SHIFTCTL (shared).
    pub shiftctl: ShiftCtl,
    /// RBASE: high 4 bits of the RM address (task specific).
    rbase: [u8; NUM_TASKS],
    /// MEMBASE: selects one of 32 memory base registers (task specific).
    membase: [BaseRegId; NUM_TASKS],
    /// ALUFM: maps ALUOp to an ALU function (§6.3.3).
    pub alufm: [AluFunction; 16],
    /// Task-specific IOADDRESS registers (§6.3.3).
    pub ioaddress: [Word; NUM_TASKS],
    /// Task-specific branch-condition flags.
    pub flags: [CondFlags; NUM_TASKS],
}

impl Default for DataSection {
    fn default() -> Self {
        Self::new()
    }
}

impl DataSection {
    /// A zeroed data section with the default ALUFM mapping.
    pub fn new() -> Self {
        DataSection {
            rm: [0; RM_SIZE],
            stack: [0; STACK_SIZE],
            stackptr: 0,
            stack_error: false,
            t: [0; NUM_TASKS],
            count: 0,
            q: 0,
            shiftctl: ShiftCtl::default(),
            rbase: [0; NUM_TASKS],
            membase: [BaseRegId::new(0); NUM_TASKS],
            alufm: default_alufm(),
            ioaddress: [0; NUM_TASKS],
            flags: [CondFlags::default(); NUM_TASKS],
        }
    }

    /// The full 8-bit RM address formed from the task's RBASE and a 4-bit
    /// RAddress ("Four come from the RAddress field ... and the other four
    /// are supplied from RBASE", §6.3.3).
    pub fn rm_address(&self, task: TaskId, raddr: u8) -> usize {
        usize::from(self.rbase[task.index()]) << 4 | usize::from(raddr & 0xf)
    }

    /// The task's RBASE.
    pub fn rbase(&self, task: TaskId) -> u8 {
        self.rbase[task.index()]
    }

    /// Sets the task's RBASE (low 4 bits).
    pub fn set_rbase(&mut self, task: TaskId, value: u8) {
        self.rbase[task.index()] = value & 0xf;
    }

    /// The task's MEMBASE.
    pub fn membase(&self, task: TaskId) -> BaseRegId {
        self.membase[task.index()]
    }

    /// Sets the task's MEMBASE (low 5 bits).
    pub fn set_membase(&mut self, task: TaskId, value: u8) {
        self.membase[task.index()] = BaseRegId::new(value);
    }

    /// STACKPTR: 2 bits of stack select and 6 bits of position.
    pub fn stackptr(&self) -> u8 {
        self.stackptr
    }

    /// Sets STACKPTR.
    pub fn set_stackptr(&mut self, value: u8) {
        self.stackptr = value;
    }

    /// The current top-of-stack address.
    pub fn stack_address(&self) -> usize {
        usize::from(self.stackptr)
    }

    /// Reads the word STACKPTR addresses.
    pub fn stack_read(&self) -> Word {
        self.stack[self.stack_address()]
    }

    /// The stack address `delta` away from STACKPTR, staying within the
    /// selected 64-word stack; sets the sticky error flag on over/underflow
    /// ("with independent underflow and overflow checking", §6.3.3).
    pub fn stack_adjusted(&mut self, delta: i8) -> usize {
        let select = self.stackptr & 0xc0;
        let pos = i16::from(self.stackptr & 0x3f) + i16::from(delta);
        if !(0..64).contains(&pos) {
            self.stack_error = true;
        }
        usize::from(select | (pos.rem_euclid(64) as u8))
    }

    /// Applies a stack-pointer adjustment, returning the *write* address
    /// (the adjusted position; reads use the pre-adjust position, §6.3.3).
    pub fn stack_bump(&mut self, delta: i8) -> usize {
        let addr = self.stack_adjusted(delta);
        self.stackptr = addr as u8;
        addr
    }
}

impl Snapshot for CondFlags {
    /// The five flags packed into the low bits of one byte.
    fn walk(&mut self, io: &mut Io<'_>) -> Result<(), SnapError> {
        let flags = [
            &mut self.zero,
            &mut self.neg,
            &mut self.carry,
            &mut self.overflow,
            &mut self.odd,
        ];
        let mut bits = 0u8;
        for (i, f) in flags.iter().enumerate() {
            bits |= u8::from(**f) << i;
        }
        io.u8(&mut bits)?;
        io.check(bits & !0x1f == 0, "cond flags")?;
        for (i, f) in flags.into_iter().enumerate() {
            *f = bits & (1 << i) != 0;
        }
        Ok(())
    }
}

impl Snapshot for DataSection {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<(), SnapError> {
        io.tag(b"DATA")?;
        io.words(&mut self.rm)?;
        io.words(&mut self.stack)?;
        io.u8(&mut self.stackptr)?;
        io.bool(&mut self.stack_error)?;
        io.words(&mut self.t)?;
        io.u16(&mut self.count)?;
        io.u16(&mut self.q)?;
        let mut shiftctl = self.shiftctl.raw();
        io.u16(&mut shiftctl)?;
        self.shiftctl = ShiftCtl::from_raw(shiftctl);
        self.rbase.iter_mut().try_for_each(|rb| io.u8(rb))?;
        for mb in &mut self.membase {
            let mut raw = mb.index() as u8;
            io.u8(&mut raw)?;
            *mb = BaseRegId::new(raw);
        }
        for f in &mut self.alufm {
            let mut raw = f.raw();
            io.u8(&mut raw)?;
            *f = AluFunction::decode(raw).map_err(|_| SnapError::Invalid {
                what: "alufm entry",
            })?;
        }
        io.words(&mut self.ioaddress)?;
        self.flags.iter_mut().try_for_each(|f| f.walk(io))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rm_addressing_uses_rbase() {
        let mut d = DataSection::new();
        let t0 = TaskId::EMULATOR;
        let t9 = TaskId::new(9);
        assert_eq!(d.rm_address(t0, 0x5), 0x05);
        d.set_rbase(t0, 0x3);
        assert_eq!(d.rm_address(t0, 0x5), 0x35);
        // Another task's RBASE is independent (§6.2.1 service loops).
        assert_eq!(d.rm_address(t9, 0x5), 0x05);
        d.set_rbase(t0, 0x13); // only 4 bits kept
        assert_eq!(d.rbase(t0), 0x3);
    }

    #[test]
    fn stack_push_pop() {
        let mut d = DataSection::new();
        d.set_stackptr(0);
        // Push: write at ptr+1.
        let w = d.stack_bump(1);
        assert_eq!(w, 1);
        d.stack[w] = 42;
        assert_eq!(d.stackptr(), 1);
        assert_eq!(d.stack_read(), 42);
        // Pop: read at ptr, then decrement.
        let r = d.stack_read();
        assert_eq!(r, 42);
        d.stack_bump(-1);
        assert_eq!(d.stackptr(), 0);
        assert!(!d.stack_error);
    }

    #[test]
    fn stack_overflow_is_sticky_and_stays_in_stack() {
        let mut d = DataSection::new();
        d.set_stackptr(0x3f); // top of stack 0
        let w = d.stack_bump(1);
        assert!(d.stack_error);
        assert_eq!(w, 0, "wraps within stack 0, not into stack 1");
        // Underflow too.
        let mut d = DataSection::new();
        d.set_stackptr(0x40); // bottom of stack 1
        let w = d.stack_bump(-1);
        assert!(d.stack_error);
        assert_eq!(w, 0x7f, "wraps within stack 1");
    }

    #[test]
    fn four_independent_stacks() {
        let mut d = DataSection::new();
        for s in 0..4u8 {
            d.set_stackptr(s << 6);
            let w = d.stack_bump(1);
            d.stack[w] = Word::from(s) + 100;
        }
        for s in 0..4u8 {
            d.set_stackptr((s << 6) | 1);
            assert_eq!(d.stack_read(), Word::from(s) + 100);
        }
    }

    #[test]
    fn cond_flags_from_result() {
        let f = CondFlags::from_result(0, true, false);
        assert!(f.zero && f.carry && !f.neg && !f.odd);
        let f = CondFlags::from_result(0x8001, false, true);
        assert!(!f.zero && f.neg && f.odd && f.overflow);
    }

    #[test]
    fn membase_masks_to_5_bits() {
        let mut d = DataSection::new();
        d.set_membase(TaskId::EMULATOR, 0x25);
        assert_eq!(d.membase(TaskId::EMULATOR).index(), 5);
        assert_eq!(d.membase(TaskId::new(3)).index(), 0);
    }
}
