//! The disk controller: a ~10 Mbit/s device served over the slow I/O
//! system (§7: "the microcode for the disk takes three cycles to transfer
//! two words each way; thus the 10 megabit/sec disk consumes 5% of the
//! processor").

use crate::{Device, RatePacer};
use dorado_base::snap::{Io, SnapError, Snapshot};
use dorado_base::{ClockConfig, TaskId, Word};
use std::collections::VecDeque;

/// What the drive is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Idle,
    /// Reading `remaining` words from the platter into the FIFO.
    Reading {
        remaining: usize,
    },
    /// Writing `remaining` words from the FIFO to the platter.
    Writing {
        remaining: usize,
    },
}

/// Registers (relative to the controller's IOADDRESS base):
/// 0 = data, 1 = status (FIFO occupancy).
#[derive(Debug)]
pub struct DiskController {
    task: TaskId,
    pacer: RatePacer,
    mode: Mode,
    fifo: VecDeque<Word>,
    fifo_depth: usize,
    platter: Vec<Word>,
    head: usize,
    /// Words (read) or FIFO slots (write) promised to in-flight service.
    committed: usize,
    /// Words lost because the FIFO overflowed (microcode was too slow).
    pub overruns: u64,
    /// Cycles the medium stalled because the FIFO was empty on a write.
    pub underruns: u64,
}

impl DiskController {
    /// The default data rate in Mbit/s.
    pub const DEFAULT_MBPS: f64 = 10.0;

    /// Creates a disk wired to `task` with the default 10 Mbit/s medium on
    /// the default (multiwire, 60 ns) clock.
    pub fn new(task: TaskId) -> Self {
        Self::with_clock(task, Self::DEFAULT_MBPS, &ClockConfig::default())
    }

    /// Creates a disk with an explicit media rate and cycle time.
    pub fn with_rate(task: TaskId, mbps: f64, cycle_ns: f64) -> Self {
        Self::with_clock(task, mbps, &ClockConfig::with_cycle_ns(cycle_ns))
    }

    /// Creates a disk whose media rate is paced against `clock`.
    pub fn with_clock(task: TaskId, mbps: f64, clock: &ClockConfig) -> Self {
        DiskController {
            task,
            pacer: RatePacer::for_clock(mbps, clock),
            mode: Mode::Idle,
            fifo: VecDeque::new(),
            fifo_depth: 16,
            platter: vec![0; 64 * 1024],
            head: 0,
            committed: 0,
            overruns: 0,
            underruns: 0,
        }
    }

    /// The platter contents (for loading test data).
    pub fn platter_mut(&mut self) -> &mut Vec<Word> {
        &mut self.platter
    }

    /// The platter contents.
    pub fn platter(&self) -> &[Word] {
        &self.platter
    }

    /// Seeks the head to word `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is past the platter end.
    pub fn seek(&mut self, pos: usize) {
        assert!(pos <= self.platter.len(), "seek past platter end");
        self.head = pos;
    }

    /// Begins a read transfer of `words` words from the head position.
    pub fn start_read(&mut self, words: usize) {
        self.mode = Mode::Reading { remaining: words };
        self.committed = 0;
    }

    /// Begins a write transfer of `words` words at the head position.
    pub fn start_write(&mut self, words: usize) {
        self.mode = Mode::Writing { remaining: words };
        self.committed = 0;
    }

    /// Whether a transfer is still in progress (medium side).
    pub fn busy(&self) -> bool {
        !matches!(self.mode, Mode::Idle) || !self.fifo.is_empty()
    }
}

impl Device for DiskController {
    fn name(&self) -> &str {
        "disk"
    }

    fn task(&self) -> TaskId {
        self.task
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn wakeup(&self) -> bool {
        match self.mode {
            // Service unit is a word pair (§7); also drain a trailing odd
            // word once the medium is done.
            Mode::Reading { remaining } => {
                self.fifo.len() >= self.committed + 2
                    || (remaining == 0 && self.fifo.len() > self.committed)
            }
            Mode::Writing { remaining } => {
                // Two slots of slack beyond the pair: the task-switch
                // pipeline is two cycles deep (§6.2.1), so one extra pair
                // can land after the wakeup drops.
                remaining >= 2 && self.fifo_depth - self.fifo.len() >= self.committed + 4
            }
            Mode::Idle => false,
        }
    }

    fn observe_next(&mut self) {
        if self.wakeup() {
            self.committed += 2;
        }
    }

    fn tick(&mut self) {
        // A completed read drains to Idle as soon as the FIFO empties,
        // independent of the media rate.
        if matches!(self.mode, Mode::Reading { remaining: 0 }) && self.fifo.is_empty() {
            self.mode = Mode::Idle;
        }
        let events = self.pacer.step();
        for _ in 0..events {
            match self.mode {
                Mode::Idle => {}
                Mode::Reading { remaining } => {
                    if remaining == 0 {
                        if self.fifo.is_empty() {
                            self.mode = Mode::Idle;
                        }
                    } else if self.fifo.len() >= self.fifo_depth {
                        self.overruns += 1;
                        self.head = (self.head + 1) % self.platter.len();
                        self.mode = Mode::Reading {
                            remaining: remaining - 1,
                        };
                    } else {
                        self.fifo.push_back(self.platter[self.head]);
                        self.head = (self.head + 1) % self.platter.len();
                        self.mode = Mode::Reading {
                            remaining: remaining - 1,
                        };
                    }
                }
                Mode::Writing { remaining } => {
                    if remaining == 0 {
                        self.mode = Mode::Idle;
                    } else {
                        match self.fifo.pop_front() {
                            Some(w) => {
                                self.platter[self.head] = w;
                                self.head = (self.head + 1) % self.platter.len();
                                self.mode = Mode::Writing {
                                    remaining: remaining - 1,
                                };
                            }
                            None => self.underruns += 1,
                        }
                    }
                }
            }
        }
    }

    fn input(&mut self, reg: Word) -> Word {
        match reg {
            0 => {
                self.committed = self.committed.saturating_sub(1);
                self.fifo.pop_front().unwrap_or(0)
            }
            _ => self.fifo.len() as Word,
        }
    }

    fn output(&mut self, reg: Word, word: Word) {
        if reg == 0 && self.fifo.len() < self.fifo_depth {
            self.committed = self.committed.saturating_sub(1);
            self.fifo.push_back(word);
        }
    }

    fn attention(&self) -> bool {
        matches!(self.mode, Mode::Idle) && self.fifo.is_empty()
    }

    fn rx_overruns(&self) -> u64 {
        self.overruns
    }

    fn next_due(&self, now: u64) -> Option<u64> {
        // A completed read with a drained FIFO collapses to Idle on the
        // very next tick, independent of the media rate.
        if matches!(self.mode, Mode::Reading { remaining: 0 }) && self.fifo.is_empty() {
            return Some(now);
        }
        match self.mode {
            // Idle ticks and no-op events only advance the pacer phase,
            // which skip() reconstructs; likewise a completed read still
            // waiting on the microcode to drain the FIFO.
            Mode::Idle | Mode::Reading { remaining: 0 } => None,
            _ => self.pacer.cycles_until_event().map(|k| now + k - 1),
        }
    }

    fn skip(&mut self, cycles: u64) {
        // The medium spins regardless of mode: quiescent ticks still
        // advance the pacer phase.
        self.pacer = self.pacer.advanced(cycles);
    }
}

impl Snapshot for DiskController {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<(), SnapError> {
        io.tag(b"DISK")?;
        io.config(&self.task.number(), "disk task", Io::u8)?;
        self.pacer.walk(io)?;
        // The mode is a kind byte, then the remaining count unless idle.
        let (mut kind, mut remaining) = match self.mode {
            Mode::Idle => (0u8, 0),
            Mode::Reading { remaining } => (1, remaining),
            Mode::Writing { remaining } => (2, remaining),
        };
        io.u8(&mut kind)?;
        io.check(kind <= 2, "disk mode")?;
        if kind != 0 {
            io.usize(&mut remaining)?;
        }
        self.mode = match kind {
            0 => Mode::Idle,
            1 => Mode::Reading { remaining },
            _ => Mode::Writing { remaining },
        };
        io.word_seq(&mut self.fifo)?;
        io.word_seq(&mut self.platter)?;
        io.usize(&mut self.head)?;
        io.check(self.head < self.platter.len(), "disk head")?;
        io.usize(&mut self.committed)?;
        io.u64(&mut self.overruns)?;
        io.u64(&mut self.underruns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> DiskController {
        DiskController::new(TaskId::new(11))
    }

    #[test]
    fn read_produces_words_at_rate() {
        let mut d = disk();
        for (i, w) in d.platter_mut().iter_mut().take(8).enumerate() {
            *w = 100 + i as Word;
        }
        d.start_read(8);
        assert!(!d.wakeup());
        // 10 Mbit/s = 3 words per 80 cycles: after 80 cycles, 3 words.
        for _ in 0..80 {
            d.tick();
        }
        assert!(d.wakeup());
        assert_eq!(d.input(0), 100);
        assert_eq!(d.input(0), 101);
        // Status register reports occupancy.
        assert_eq!(d.input(1), 1);
    }

    #[test]
    fn trailing_odd_word_still_wakes() {
        let mut d = disk();
        d.start_read(1);
        for _ in 0..200 {
            d.tick();
        }
        assert!(d.wakeup());
        let _ = d.input(0);
        assert!(!d.wakeup());
        d.tick();
        assert!(!d.busy());
        assert!(d.attention());
    }

    #[test]
    fn write_consumes_fifo() {
        let mut d = disk();
        d.seek(16);
        d.start_write(4);
        assert!(d.wakeup()); // room for a pair
        for w in [1u16, 2, 3, 4] {
            d.output(0, w);
        }
        for _ in 0..400 {
            d.tick();
        }
        assert_eq!(&d.platter()[16..20], &[1, 2, 3, 4]);
        assert!(!d.busy());
        assert_eq!(d.underruns, 0);
    }

    #[test]
    fn overrun_counts_lost_words() {
        let mut d = disk();
        d.start_read(64); // never serviced
        for _ in 0..64 * 30 {
            d.tick();
        }
        assert!(d.overruns > 0);
    }

    #[test]
    fn underrun_counts_starved_cycles() {
        let mut d = disk();
        d.start_write(4); // no data ever provided
        for _ in 0..400 {
            d.tick();
        }
        assert!(d.underruns > 0);
        assert!(d.busy());
    }

    #[test]
    #[should_panic(expected = "seek past")]
    fn seek_bounds() {
        disk().seek(usize::MAX);
    }
}
