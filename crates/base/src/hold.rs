//! The Hold mechanism's cause taxonomy (§5.7).
//!
//! When an interlock would be violated, the Dorado converts the current
//! microinstruction into "no operation, jump to self" — a *hold* — rather
//! than stalling the clock.  Every hold has a cause, and §7 reports holds
//! broken down by cause ("holds cost the emulator about 8% of its cycles").
//! The cause lives in `dorado-base` so the memory system, the IFU, the
//! machine stepper, the tracer, and the metrics registry all speak the same
//! vocabulary.

/// Why an instruction was held (§5.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HoldCause {
    /// A new reference was started while the task's previous fetch was in
    /// flight.
    MemPipe,
    /// A storage cycle was needed (miss or fast I/O) while the RAMs were
    /// mid-cycle.
    MemStorage,
    /// MEMDATA was used before delivery.
    MemData,
    /// IFUDATA was used with no operand available.
    IfuOperand,
    /// IFUJump before the IFU finished decoding the next opcode.
    IfuDispatch,
}

impl HoldCause {
    /// Number of distinct hold causes.
    pub const COUNT: usize = 5;

    /// Every cause, in `index()` order.
    pub const ALL: [HoldCause; HoldCause::COUNT] = [
        HoldCause::MemPipe,
        HoldCause::MemStorage,
        HoldCause::MemData,
        HoldCause::IfuOperand,
        HoldCause::IfuDispatch,
    ];

    /// A dense index in `0..COUNT`, for counter arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            HoldCause::MemPipe => 0,
            HoldCause::MemStorage => 1,
            HoldCause::MemData => 2,
            HoldCause::IfuOperand => 3,
            HoldCause::IfuDispatch => 4,
        }
    }

    /// A short stable name, used in trace exports and reports.
    pub fn name(self) -> &'static str {
        match self {
            HoldCause::MemPipe => "mem-pipe",
            HoldCause::MemStorage => "mem-storage",
            HoldCause::MemData => "mem-data",
            HoldCause::IfuOperand => "ifu-operand",
            HoldCause::IfuDispatch => "ifu-dispatch",
        }
    }
}

impl std::fmt::Display for HoldCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_match_all() {
        for (i, cause) in HoldCause::ALL.iter().enumerate() {
            assert_eq!(cause.index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<_> = HoldCause::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), HoldCause::COUNT);
    }
}
