//! A synthetic device with a configurable data rate, for utilization
//! sweeps (processor share vs device bandwidth, experiments E3/E4/E7).

use crate::{Device, RatePacer};
use dorado_base::snap::{Io, SnapError, Snapshot};
use dorado_base::{ClockConfig, TaskId, Word, MUNCH_WORDS};
use std::collections::VecDeque;

/// Which I/O path the synthetic device exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynthPath {
    /// Words over the slow I/O bus, `words_per_service` per wakeup.
    Slow,
    /// Munches over the fast I/O path, one munch per wakeup.
    Fast,
}

/// A source device producing data at a fixed rate; its task's microcode
/// must drain it into memory.  Registers: 0 = data, 1 = status.
#[derive(Debug)]
pub struct RateDevice {
    task: TaskId,
    pacer: RatePacer,
    path: SynthPath,
    fifo: VecDeque<Word>,
    depth_words: usize,
    /// Minimum words available before requesting service (slow path).
    words_per_service: usize,
    next_value: Word,
    /// Words already promised to an in-flight service (dropped from the
    /// wakeup calculation once the task's number appears on NEXT, §6.2.1).
    committed: usize,
    /// Total words generated.
    pub generated: u64,
    /// Words dropped to FIFO overflow (service too slow).
    pub overruns: u64,
    /// Whether the device is running.
    active: bool,
}

impl RateDevice {
    /// Creates a source at `mbps` megabits/second on the given path.
    pub fn new(task: TaskId, mbps: f64, cycle_ns: f64, path: SynthPath) -> Self {
        Self::with_clock(task, mbps, &ClockConfig::with_cycle_ns(cycle_ns), path)
    }

    /// Creates a source whose rate is paced against `clock`.
    pub fn with_clock(task: TaskId, mbps: f64, clock: &ClockConfig, path: SynthPath) -> Self {
        RateDevice {
            task,
            pacer: RatePacer::for_clock(mbps, clock),
            path,
            fifo: VecDeque::new(),
            depth_words: 8 * MUNCH_WORDS,
            words_per_service: 2,
            next_value: 1,
            committed: 0,
            generated: 0,
            overruns: 0,
            active: false,
        }
    }

    /// Sets how many words each slow-path service call handles.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the FIFO depth.
    pub fn set_words_per_service(&mut self, n: usize) {
        assert!(n > 0 && n <= self.depth_words);
        self.words_per_service = n;
    }

    /// Starts the data flow.
    pub fn start(&mut self) {
        self.active = true;
    }

    /// Stops the data flow.
    pub fn stop(&mut self) {
        self.active = false;
    }
}

impl Device for RateDevice {
    fn name(&self) -> &str {
        "rate-device"
    }

    fn task(&self) -> TaskId {
        self.task
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn wakeup(&self) -> bool {
        match self.path {
            SynthPath::Slow => self.fifo.len() >= self.committed + self.words_per_service,
            SynthPath::Fast => self.fifo.len() >= self.committed + MUNCH_WORDS,
        }
    }

    fn observe_next(&mut self) {
        // One service unit is committed per NEXT observation while
        // requesting ("it then removes the request, unless it needs more
        // than one unit of service", §5.2).
        if self.wakeup() {
            self.committed += match self.path {
                SynthPath::Slow => self.words_per_service,
                SynthPath::Fast => MUNCH_WORDS,
            };
        }
    }

    fn tick(&mut self) {
        if !self.active {
            return;
        }
        for _ in 0..self.pacer.step() {
            self.generated += 1;
            if self.fifo.len() >= self.depth_words {
                self.overruns += 1;
            } else {
                self.fifo.push_back(self.next_value);
                self.next_value = self.next_value.wrapping_add(1);
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

    fn output(&mut self, _reg: Word, _word: Word) {}

    fn supply_munch(&mut self) -> [Word; MUNCH_WORDS] {
        self.committed = self.committed.saturating_sub(MUNCH_WORDS);
        let mut munch = [0; MUNCH_WORDS];
        for slot in &mut munch {
            *slot = self.fifo.pop_front().unwrap_or(0);
        }
        munch
    }

    fn rx_overruns(&self) -> u64 {
        self.overruns
    }

    fn next_due(&self, now: u64) -> Option<u64> {
        // A stopped source's tick is a pure no-op (the pacer does not even
        // step); a running one only changes state when a word is generated.
        if !self.active {
            return None;
        }
        self.pacer.cycles_until_event().map(|k| now + k - 1)
    }

    fn skip(&mut self, cycles: u64) {
        if self.active {
            self.pacer = self.pacer.advanced(cycles);
        }
    }
}

impl Snapshot for RateDevice {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<(), SnapError> {
        io.tag(b"SYNT")?;
        io.config(&self.task.number(), "rate-device task", Io::u8)?;
        self.pacer.walk(io)?;
        io.word_seq(&mut self.fifo)?;
        io.usize(&mut self.words_per_service)?;
        io.u16(&mut self.next_value)?;
        io.usize(&mut self.committed)?;
        io.u64(&mut self.generated)?;
        io.u64(&mut self.overruns)?;
        io.bool(&mut self.active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_at_rate() {
        let mut d = RateDevice::new(TaskId::new(10), 16.0, 60.0, SynthPath::Slow);
        d.start();
        // 16 Mbit/s at 60 ns = 0.06 words/cycle: 5000 cycles → 300 words.
        for _ in 0..5000 {
            d.tick();
        }
        assert_eq!(d.generated, 300);
        assert!(d.overruns > 0, "unserviced 128-word FIFO must overflow");
    }

    #[test]
    fn slow_wakeup_threshold() {
        let mut d = RateDevice::new(TaskId::new(10), 100.0, 60.0, SynthPath::Slow);
        d.set_words_per_service(4);
        d.start();
        while !d.wakeup() {
            d.tick();
        }
        assert!(d.input(1) >= 4);
        let first = d.input(0);
        assert_eq!(first, 1, "values count from 1");
    }

    #[test]
    fn fast_path_supplies_munches() {
        let mut d = RateDevice::new(TaskId::new(10), 300.0, 60.0, SynthPath::Fast);
        d.start();
        while !d.wakeup() {
            d.tick();
        }
        let m = d.supply_munch();
        assert_eq!(m[0], 1);
        assert_eq!(m[15], 16);
    }

    #[test]
    fn stopped_device_is_quiet() {
        let mut d = RateDevice::new(TaskId::new(10), 100.0, 60.0, SynthPath::Slow);
        for _ in 0..100 {
            d.tick();
        }
        assert_eq!(d.generated, 0);
        assert!(!d.wakeup());
        d.start();
        d.stop();
        for _ in 0..100 {
            d.tick();
        }
        assert_eq!(d.generated, 0);
    }

    #[test]
    #[should_panic]
    fn words_per_service_bounds() {
        let mut d = RateDevice::new(TaskId::new(10), 1.0, 60.0, SynthPath::Slow);
        d.set_words_per_service(0);
    }
}
