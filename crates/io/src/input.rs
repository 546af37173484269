//! Keyboard and mouse on the slow-I/O path.
//!
//! The Dorado's user-input devices are low-bandwidth slow-I/O clients
//! (§4.2): a keypress or mouse delta arrives as a single word, raises the
//! device's wakeup, and a two-instruction microcode handler reads it over
//! the IOB with `Input` and stores it into a memory ring.  For
//! reproducible workstation scenarios the device replays a
//! **cycle-stamped event script**: each `(cycle, word)` pair enters the
//! device FIFO on exactly that cycle of device time, in every scheduling
//! mode, so an interactive session is a pure function of its script.
//!
//! Service latency (delivery to microcode `Input` read) is tracked per
//! event — the number EXPERIMENTS.md E19 reports against the §4 claim
//! that slow I/O comfortably absorbs human-speed devices.

use crate::Device;
use dorado_base::snap::{Io, SnapError, Snapshot};
use dorado_base::{TaskId, Word};
use std::collections::VecDeque;

/// Device FIFO depth; a real interface chip has a few words of buffering.
const FIFO_WORDS: usize = 16;

/// Which human-input device this is (fixes the device name).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InputKind {
    Keyboard,
    Mouse,
}

/// A scripted keyboard or mouse on the slow-I/O bus.
///
/// Registers: 0 = data (pops the oldest event word), 1 = FIFO occupancy,
/// 2 = total events delivered (low 16 bits).
#[derive(Debug)]
pub struct InputDevice {
    kind: InputKind,
    task: TaskId,
    /// Device-time clock: counts ticks (and skipped cycles) since attach.
    clock: u64,
    /// The remaining script, stamp-ordered.
    script: VecDeque<(u64, Word)>,
    /// Delivered events awaiting microcode service: (word, delivery cycle).
    fifo: VecDeque<(Word, u64)>,
    /// FIFO words promised to in-flight slow-I/O service.
    committed: usize,
    /// Events that have entered the FIFO.
    pub delivered: u64,
    /// Events the microcode has read.
    pub serviced: u64,
    /// Events dropped on FIFO overflow.
    pub dropped: u64,
    /// Sum of (service cycle - delivery cycle) over serviced events.
    pub latency_total: u64,
    /// Worst-case service latency in cycles.
    pub latency_max: u64,
}

impl InputDevice {
    /// A keyboard wired to `task`.
    pub fn keyboard(task: TaskId) -> Self {
        Self::new(InputKind::Keyboard, task)
    }

    /// A mouse wired to `task`.
    pub fn mouse(task: TaskId) -> Self {
        Self::new(InputKind::Mouse, task)
    }

    fn new(kind: InputKind, task: TaskId) -> Self {
        InputDevice {
            kind,
            task,
            clock: 0,
            script: VecDeque::new(),
            fifo: VecDeque::new(),
            committed: 0,
            delivered: 0,
            serviced: 0,
            dropped: 0,
            latency_total: 0,
            latency_max: 0,
        }
    }

    /// Schedule an event word for delivery at device cycle `at`.
    ///
    /// # Panics
    /// Panics if `at` precedes the last scheduled stamp (scripts must be
    /// stamp-ordered so delivery order is well defined).
    pub fn schedule(&mut self, at: u64, word: Word) {
        if let Some(&(last, _)) = self.script.back() {
            assert!(at >= last, "input script stamps must be non-decreasing");
        }
        self.script.push_back((at, word));
    }

    /// Schedule a whole script of `(cycle, word)` events.
    pub fn schedule_all(&mut self, events: impl IntoIterator<Item = (u64, Word)>) {
        for (at, w) in events {
            self.schedule(at, w);
        }
    }

    /// Events still waiting in the script.
    pub fn pending(&self) -> usize {
        self.script.len()
    }

    /// Move script events whose stamp has arrived into the FIFO.
    fn deliver_due(&mut self) {
        while let Some(&(at, w)) = self.script.front() {
            if at > self.clock {
                break;
            }
            self.script.pop_front();
            if self.fifo.len() < FIFO_WORDS {
                self.fifo.push_back((w, self.clock));
                self.delivered += 1;
            } else {
                self.dropped += 1;
            }
        }
    }
}

impl Device for InputDevice {
    fn name(&self) -> &str {
        match self.kind {
            InputKind::Keyboard => "keyboard",
            InputKind::Mouse => "mouse",
        }
    }

    fn task(&self) -> TaskId {
        self.task
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn wakeup(&self) -> bool {
        self.fifo.len() > self.committed
    }

    fn observe_next(&mut self) {
        if self.fifo.len() > self.committed {
            self.committed += 1;
        }
    }

    fn tick(&mut self) {
        self.clock += 1;
        self.deliver_due();
    }

    fn input(&mut self, reg: Word) -> Word {
        match reg {
            1 => self.fifo.len() as Word,
            2 => self.delivered as Word,
            _ => match self.fifo.pop_front() {
                Some((w, at)) => {
                    self.committed = self.committed.saturating_sub(1);
                    self.serviced += 1;
                    let latency = self.clock.saturating_sub(at);
                    self.latency_total += latency;
                    self.latency_max = self.latency_max.max(latency);
                    w
                }
                None => 0,
            },
        }
    }

    fn output(&mut self, _reg: Word, _word: Word) {}

    fn attention(&self) -> bool {
        !self.fifo.is_empty()
    }

    fn next_due(&self, now: u64) -> Option<u64> {
        // Quiescent until the next scripted stamp: FIFO contents are
        // frozen observables, and an empty script means the device never
        // changes state again on its own.  The event stamped `at` enters
        // the FIFO on the tick that advances the clock to `at` (or the
        // first tick, for stamps already in the past).
        let &(at, _) = self.script.front()?;
        Some(now.max((at.max(self.clock + 1)) - 1))
    }

    fn skip(&mut self, cycles: u64) {
        self.clock += cycles;
    }
}

impl Snapshot for InputDevice {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<(), SnapError> {
        io.tag(b"INPT")?;
        let kind = match self.kind {
            InputKind::Keyboard => 0u8,
            InputKind::Mouse => 1,
        };
        io.config(&kind, "input device kind", Io::u8)?;
        io.config(&self.task.number(), "input device task", Io::u8)?;
        io.u64(&mut self.clock)?;
        io.seq(&mut self.script, |io, (at, word)| {
            io.u64(at)?;
            io.u16(word)
        })?;
        io.seq(&mut self.fifo, |io, (word, at)| {
            io.u16(word)?;
            io.u64(at)
        })?;
        io.check(self.fifo.len() <= FIFO_WORDS, "input FIFO depth")?;
        io.usize(&mut self.committed)?;
        [
            &mut self.delivered,
            &mut self.serviced,
            &mut self.dropped,
            &mut self.latency_total,
            &mut self.latency_max,
        ]
        .into_iter()
        .try_for_each(|v| io.u64(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dorado_base::snap::{restore_image, save_image};

    #[test]
    fn events_deliver_on_their_stamped_cycle() {
        let mut k = InputDevice::keyboard(TaskId::new(9));
        k.schedule(3, 0x41);
        k.schedule(3, 0x42);
        k.schedule(10, 0x43);
        for t in 1..=12u64 {
            k.tick();
            let expect = match t {
                0..=2 => 0,
                3..=9 => 2,
                _ => 3,
            };
            assert_eq!(k.delivered, expect, "delivered at clock {t}");
        }
        assert!(k.wakeup());
        assert_eq!(k.input(1), 3);
    }

    #[test]
    fn service_records_latency() {
        let mut k = InputDevice::keyboard(TaskId::new(9));
        k.schedule(5, 0x2A);
        for _ in 0..9 {
            k.tick();
        }
        assert_eq!(k.input(0), 0x2A);
        assert_eq!(k.serviced, 1);
        assert_eq!(k.latency_max, 4, "delivered at 5, serviced at clock 9");
        assert_eq!(k.latency_total, 4);
    }

    #[test]
    fn overflow_drops_and_counts() {
        let mut k = InputDevice::keyboard(TaskId::new(9));
        for i in 0..(FIFO_WORDS as u64 + 3) {
            k.schedule(1, i as Word);
        }
        k.tick();
        assert_eq!(k.delivered, FIFO_WORDS as u64);
        assert_eq!(k.dropped, 3);
        assert_eq!(k.rx_overruns(), 0, "input drops are not rx overruns");
    }

    #[test]
    fn due_cycle_matches_naive_delivery_edge() {
        // The scheduled mode must wake exactly when a naive tick loop
        // would first expose the event.
        let mut naive = InputDevice::mouse(TaskId::new(8));
        naive.schedule(40, 7);
        let mut t = 0u64;
        while !naive.wakeup() {
            naive.tick();
            t += 1;
        }
        let mut sched = InputDevice::mouse(TaskId::new(8));
        sched.schedule(40, 7);
        let due = sched.next_due(0).unwrap();
        sched.skip(due);
        sched.tick();
        assert!(sched.wakeup());
        assert_eq!(due + 1, t, "wakeup rises on the same tick in both modes");
        assert_eq!(save_image(&mut sched), save_image(&mut naive));
    }

    #[test]
    fn quiescent_when_script_is_exhausted() {
        let mut k = InputDevice::keyboard(TaskId::new(9));
        assert_eq!(k.next_due(17), None);
        k.schedule(2, 1);
        assert_eq!(k.next_due(0), Some(1));
        for _ in 0..4 {
            k.tick();
        }
        assert_eq!(k.next_due(4), None, "FIFO contents are frozen observables");
    }

    #[test]
    fn snapshot_round_trips_mid_script() {
        let mut k = InputDevice::keyboard(TaskId::new(9));
        k.schedule_all([(2, 10), (8, 11), (90, 12)]);
        for _ in 0..5 {
            k.tick();
        }
        assert_eq!(k.input(0), 10);
        let img = save_image(&mut k);
        let mut back = InputDevice::keyboard(TaskId::new(9));
        restore_image(&mut back, &img).unwrap();
        assert_eq!(save_image(&mut back), img);
        // Identical future behaviour.
        for _ in 0..90 {
            k.tick();
            back.tick();
        }
        assert_eq!(k.input(0), back.input(0));
        assert_eq!(save_image(&mut k), save_image(&mut back));
    }

    #[test]
    fn skipped_clock_is_mode_independent() {
        let mut naive = InputDevice::mouse(TaskId::new(8));
        let mut sched = InputDevice::mouse(TaskId::new(8));
        for _ in 0..123 {
            naive.tick();
        }
        // Scheduled mode never ticked the idle device; the I/O system
        // folds the window in with a skip before any save.
        sched.skip(123);
        assert_eq!(save_image(&mut sched), save_image(&mut naive));
    }

    #[test]
    fn script_stamps_must_be_ordered() {
        let mut k = InputDevice::keyboard(TaskId::new(9));
        k.schedule(10, 1);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            k.schedule(5, 2);
        }));
        assert!(err.is_err());
    }
}
