//! Fundamental types shared by every crate in the Dorado reproduction.
//!
//! The Dorado (Lampson & Pier, *A Processor for a High-Performance Personal
//! Computer*) is a 16-bit, microprogrammed, 16-task machine with a fully
//! synchronous clock.  This crate defines the vocabulary the rest of the
//! workspace speaks: machine words, addresses, task identifiers, the clock
//! configuration, and the statistics counters used by every experiment.
//!
//! # Examples
//!
//! ```
//! use dorado_base::{ClockConfig, Cycles, TaskId};
//!
//! let clock = ClockConfig::multiwire(); // the production 60 ns machine
//! let cycles = Cycles(8);
//! // 16 words of 16 bits per 8-cycle storage cycle = the paper's 530 Mbit/s.
//! let mbps = clock.mbits_per_sec(16 * 16, cycles);
//! assert!(mbps > 500.0 && mbps < 540.0);
//! assert_eq!(TaskId::EMULATOR.index(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod check;
pub mod clock;
pub mod crc;
pub mod hold;
pub mod metrics;
pub mod report;
pub mod snap;
pub mod stats;
pub mod task;

pub use clock::{ClockConfig, Cycles};
pub use hold::HoldCause;
pub use metrics::{
    CacheStats, FabricPortStats, FabricStats, IfuActivity, PortCounters, Requester, StorageStats,
};
pub use report::{ClusterReport, LatencyStats, Report, WorkloadSummary};
pub use snap::{SnapError, Snapshot};
pub use stats::Stats;
pub use task::TaskId;

/// A Dorado machine word: 16 bits.
///
/// The paper (§4): "Most data paths are sixteen bits wide."  We use the
/// native `u16` rather than a newtype so that ALU and shifter code reads
/// like the arithmetic it performs.
pub type Word = u16;

/// Number of microcode tasks (priority levels) in the processor (§5.1).
pub const NUM_TASKS: usize = 16;

/// Number of general-purpose `RM` registers (§6.3.3).
pub const RM_SIZE: usize = 256;

/// Number of words in the hardware stack memory (§6.3.3): four 64-word stacks.
pub const STACK_SIZE: usize = 256;

/// Number of memory base registers (§6.3.3, `MEMBASE`): 32.
pub const NUM_BASE_REGISTERS: usize = 32;

/// Words per storage transfer block ("munch"): 16 (§5.8, fast I/O).
pub const MUNCH_WORDS: usize = 16;

/// A 28-bit virtual address (§6.3.2: 16-bit displacement + 28-bit base).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u32);

impl VirtAddr {
    /// Mask for the 28 significant bits.
    pub const MASK: u32 = (1 << 28) - 1;

    /// Creates a virtual address, wrapping into the 28-bit space.
    ///
    /// ```
    /// # use dorado_base::VirtAddr;
    /// assert_eq!(VirtAddr::new(VirtAddr::MASK + 1), VirtAddr::new(0));
    /// ```
    #[inline]
    pub fn new(raw: u32) -> Self {
        VirtAddr(raw & Self::MASK)
    }

    /// Adds a 16-bit displacement, wrapping within the 28-bit space.
    #[inline]
    pub fn offset(self, displacement: Word) -> Self {
        VirtAddr::new(self.0.wrapping_add(u32::from(displacement)))
    }

    /// The word offset of this address within its munch.
    #[inline]
    pub fn munch_offset(self) -> usize {
        (self.0 as usize) % MUNCH_WORDS
    }

    /// The address of the first word of the munch containing this address.
    #[inline]
    pub fn munch_base(self) -> VirtAddr {
        VirtAddr(self.0 & !(MUNCH_WORDS as u32 - 1))
    }
}

impl std::fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{:07o}", self.0)
    }
}

impl std::fmt::LowerHex for VirtAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A real (physical) storage word address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RealAddr(pub u32);

impl RealAddr {
    /// The address of the first word of the munch containing this address.
    #[inline]
    pub fn munch_base(self) -> RealAddr {
        RealAddr(self.0 & !(MUNCH_WORDS as u32 - 1))
    }

    /// The word offset of this address within its munch.
    #[inline]
    pub fn munch_offset(self) -> usize {
        (self.0 as usize) % MUNCH_WORDS
    }
}

impl std::fmt::Display for RealAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "@{:07o}", self.0)
    }
}

/// One of the 32 base registers used for virtual address formation (§6.3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BaseRegId(u8);

impl BaseRegId {
    /// Creates a base register id, keeping only the low 5 bits (as the
    /// 5-bit `MEMBASE` register would).
    #[inline]
    pub fn new(raw: u8) -> Self {
        BaseRegId(raw & 0x1f)
    }

    /// The register index, in `0..32`.
    #[inline]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl std::fmt::Display for BaseRegId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "base[{}]", self.0)
    }
}

/// An address in the 4096-word microinstruction memory `IM` (§6.2.2).
///
/// The microstore is paged for the `NEXTPC` scheme (§5.5): the high 8 bits
/// select one of 256 pages, the low 4 bits one of 16 words within the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MicroAddr(u16);

/// Number of words in the microstore.
pub const MICROSTORE_SIZE: usize = 4096;

/// Number of instructions in one microstore page (§5.5: the microstore is
/// divided into pages small enough that "a few bits specify a next address
/// within the current page").
pub const PAGE_SIZE: usize = 16;

/// Number of microstore pages.
pub const NUM_PAGES: usize = MICROSTORE_SIZE / PAGE_SIZE;

impl MicroAddr {
    /// Creates a microstore address, wrapping into the 12-bit space.
    #[inline]
    pub fn new(raw: u16) -> Self {
        MicroAddr(raw & (MICROSTORE_SIZE as u16 - 1))
    }

    /// Builds an address from a page number and an in-page offset.
    ///
    /// # Panics
    ///
    /// Panics if `page >= 256` or `offset >= 16`.
    #[inline]
    pub fn from_parts(page: u16, offset: u16) -> Self {
        assert!((page as usize) < NUM_PAGES, "page {page} out of range");
        assert!(
            (offset as usize) < PAGE_SIZE,
            "offset {offset} out of range"
        );
        MicroAddr(page * PAGE_SIZE as u16 + offset)
    }

    /// The raw 12-bit address.
    #[inline]
    pub fn raw(self) -> u16 {
        self.0
    }

    /// The page number (high 8 bits).
    #[inline]
    pub fn page(self) -> u16 {
        self.0 / PAGE_SIZE as u16
    }

    /// The offset within the page (low 4 bits).
    #[inline]
    pub fn page_offset(self) -> u16 {
        self.0 % PAGE_SIZE as u16
    }

    /// Replaces the in-page offset, staying on the same page.
    #[inline]
    pub fn with_offset(self, offset: u16) -> Self {
        MicroAddr::from_parts(self.page(), offset)
    }

    /// ORs a branch condition into the low bit (§5.5: "allowing one of eight
    /// branch conditions to modify the low order bit of NEXTPC").
    #[inline]
    pub fn or_low_bit(self, condition: bool) -> Self {
        MicroAddr(self.0 | u16::from(condition))
    }

    /// The next sequential address, wrapping within the microstore.
    #[inline]
    pub fn succ(self) -> Self {
        MicroAddr::new(self.0.wrapping_add(1))
    }
}

impl std::fmt::Display for MicroAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:03o}.{:02o}", self.page(), self.page_offset())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virt_addr_wraps_to_28_bits() {
        assert_eq!(VirtAddr::new(0x1000_0000).0, 0);
        assert_eq!(VirtAddr::new(0x0fff_ffff).0, 0x0fff_ffff);
    }

    #[test]
    fn virt_addr_offset_wraps() {
        let a = VirtAddr::new(VirtAddr::MASK);
        assert_eq!(a.offset(1), VirtAddr::new(0));
        let b = VirtAddr::new(100);
        assert_eq!(b.offset(16), VirtAddr::new(116));
    }

    #[test]
    fn munch_geometry() {
        let a = VirtAddr::new(0x123);
        assert_eq!(a.munch_offset(), 3);
        assert_eq!(a.munch_base(), VirtAddr::new(0x120));
        let r = RealAddr(0x47);
        assert_eq!(r.munch_offset(), 7);
        assert_eq!(r.munch_base(), RealAddr(0x40));
    }

    #[test]
    fn base_reg_id_masks_to_5_bits() {
        assert_eq!(BaseRegId::new(37).index(), 5);
        assert_eq!(BaseRegId::new(31).index(), 31);
    }

    #[test]
    fn micro_addr_pages() {
        let a = MicroAddr::from_parts(3, 13);
        assert_eq!(a.raw(), 3 * 16 + 13);
        assert_eq!(a.page(), 3);
        assert_eq!(a.page_offset(), 13);
        assert_eq!(a.with_offset(0).raw(), 3 * 16);
    }

    #[test]
    fn micro_addr_branch_or() {
        let even = MicroAddr::new(0o100);
        assert_eq!(even.or_low_bit(false), even);
        assert_eq!(even.or_low_bit(true).raw(), 0o101);
        // An odd address stays odd whether or not the condition holds:
        let odd = MicroAddr::new(0o101);
        assert_eq!(odd.or_low_bit(false), odd);
        assert_eq!(odd.or_low_bit(true), odd);
    }

    #[test]
    fn micro_addr_succ_wraps() {
        assert_eq!(MicroAddr::new(4095).succ(), MicroAddr::new(0));
    }

    #[test]
    #[should_panic(expected = "page")]
    fn micro_addr_from_parts_validates_page() {
        let _ = MicroAddr::from_parts(256, 0);
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert!(!format!("{}", VirtAddr::new(0)).is_empty());
        assert!(!format!("{}", RealAddr(0)).is_empty());
        assert!(!format!("{}", MicroAddr::new(0)).is_empty());
        assert!(!format!("{}", BaseRegId::new(0)).is_empty());
    }
}
