//! The fully synchronous clock system (§6.1) and bandwidth arithmetic.
//!
//! The Dorado has "a clock tick every 30 nanoseconds.  A cycle consists of
//! two successive clock ticks", i.e. a 60 ns microcycle on the production
//! (multiwire) machine and 50 ns on the stitchwelded prototypes (§2, §6.4).
//! The simulator counts cycles; `ClockConfig` converts counts to wall time
//! and bandwidths so that each experiment can report the paper's units.

/// A count of microcycles.
///
/// # Examples
///
/// ```
/// use dorado_base::Cycles;
/// let a = Cycles(3) + Cycles(4);
/// assert_eq!(a, Cycles(7));
/// assert_eq!(a.0, 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl std::ops::Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl std::fmt::Display for Cycles {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

/// Clock configuration: the length of one microcycle.
///
/// # Examples
///
/// ```
/// use dorado_base::ClockConfig;
/// let prod = ClockConfig::multiwire();
/// assert_eq!(prod.cycle_ns(), 60.0);
/// let proto = ClockConfig::stitchweld();
/// assert_eq!(proto.cycle_ns(), 50.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockConfig {
    cycle_ns: f64,
}

impl ClockConfig {
    /// The production machine: 60 ns microcycle (§1, §6.4).
    pub fn multiwire() -> Self {
        ClockConfig { cycle_ns: 60.0 }
    }

    /// The stitchwelded prototype: 50 ns microcycle (§6.4).
    pub fn stitchweld() -> Self {
        ClockConfig { cycle_ns: 50.0 }
    }

    /// A clock with an arbitrary cycle time in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `cycle_ns` is not strictly positive and finite.
    pub fn with_cycle_ns(cycle_ns: f64) -> Self {
        assert!(
            cycle_ns.is_finite() && cycle_ns > 0.0,
            "cycle time must be positive and finite, got {cycle_ns}"
        );
        ClockConfig { cycle_ns }
    }

    /// The microcycle length in nanoseconds.
    #[inline]
    pub fn cycle_ns(&self) -> f64 {
        self.cycle_ns
    }

    /// The clock tick length (half a cycle, §6.1) in nanoseconds.
    #[inline]
    pub fn tick_ns(&self) -> f64 {
        self.cycle_ns / 2.0
    }

    /// Converts a cycle count to nanoseconds of simulated time.
    #[inline]
    pub fn to_ns(&self, cycles: Cycles) -> f64 {
        cycles.0 as f64 * self.cycle_ns
    }

    /// Converts a cycle count to seconds of simulated time.
    #[inline]
    pub fn to_seconds(&self, cycles: Cycles) -> f64 {
        self.to_ns(cycles) * 1e-9
    }

    /// Bandwidth, in megabits per second, of transferring `bits` bits in
    /// `cycles` cycles.  This is the unit §7 uses for every I/O claim.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn mbits_per_sec(&self, bits: u64, cycles: Cycles) -> f64 {
        assert!(cycles.0 > 0, "bandwidth over zero cycles is undefined");
        (bits as f64) / (self.to_ns(cycles) * 1e-9) / 1e6
    }
}

impl Default for ClockConfig {
    fn default() -> Self {
        Self::multiwire()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_arithmetic() {
        let mut c = Cycles(10);
        c += Cycles(5);
        assert_eq!(c, Cycles(15));
        assert_eq!(c - Cycles(5), Cycles(10));
        assert_eq!(Cycles(3).saturating_sub(Cycles(10)), Cycles::ZERO);
    }

    #[test]
    fn paper_io_bus_bandwidth() {
        // §5.8: "The data bus can transfer a word per cycle, or 265
        // megabits/second".  16 bits / 60 ns = 266.7 Mbit/s.
        let clock = ClockConfig::multiwire();
        let mbps = clock.mbits_per_sec(16, Cycles(1));
        assert!((mbps - 266.7).abs() < 1.0, "got {mbps}");
    }

    #[test]
    fn paper_memory_bandwidth() {
        // §6.2.1: 16-word munch per 8-cycle storage cycle = 530 Mbit/s.
        let clock = ClockConfig::multiwire();
        let mbps = clock.mbits_per_sec(16 * 16, Cycles(8));
        assert!((mbps - 533.3).abs() < 1.0, "got {mbps}");
    }

    #[test]
    fn stitchweld_is_about_15_percent_faster() {
        let s = ClockConfig::stitchweld();
        let m = ClockConfig::multiwire();
        let speedup = m.cycle_ns() / s.cycle_ns();
        assert!((speedup - 1.2).abs() < 1e-9);
        // Equivalently the multiwire machine is ~17% slower per cycle; the
        // paper rounds the slowdown to "about 15%".
        let slowdown = (m.cycle_ns() - s.cycle_ns()) / m.cycle_ns();
        assert!((slowdown - 0.1667).abs() < 0.01);
    }

    #[test]
    fn tick_is_half_cycle() {
        assert_eq!(ClockConfig::multiwire().tick_ns(), 30.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_cycle() {
        let _ = ClockConfig::with_cycle_ns(0.0);
    }

    #[test]
    #[should_panic(expected = "zero cycles")]
    fn bandwidth_rejects_zero_cycles() {
        let _ = ClockConfig::multiwire().mbits_per_sec(16, Cycles(0));
    }

    #[test]
    fn seconds_conversion() {
        let clock = ClockConfig::multiwire();
        // 1e9 cycles at 60ns = 60 seconds.
        assert!((clock.to_seconds(Cycles(1_000_000_000)) - 60.0).abs() < 1e-9);
    }
}
