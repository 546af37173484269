//! The display controller (§7, Figure 8).
//!
//! "The Dorado supports raster scan displays which are refreshed from a full
//! bitmap in main storage."  The controller consumes bitmap words at the
//! monitor's dot rate from a munch FIFO kept full by fast-I/O microcode
//! ("the fast I/O microcode for the display takes only two instructions to
//! transfer a 16 word block of data from memory to the device").  Control
//! functions (start/stop, mode) arrive over the slow I/O bus — the
//! dual-path structure of Figure 8.
//!
//! With a [`Framebuffer`] attached the controller becomes a full monitor
//! model: drained words paint a fixed-geometry raster, and completing a
//! field enters **vertical retrace** — painting pauses (blanking), the
//! attention line rises so the fast-I/O microcode can branch off its
//! munch loop (`IOAtten`, §4.2's attention path), rewind its bitmap
//! pointer, and acknowledge the field via `IONotify`.  The ack flushes
//! the FIFO (bits fetched past the field boundary were never displayed)
//! and resumes scanning.  Without a framebuffer the controller behaves
//! exactly as before: a pure bandwidth sink.

use crate::{Device, Framebuffer, RatePacer};
use dorado_base::snap::{Io, SnapError, Snapshot};
use dorado_base::{ClockConfig, TaskId, Word, MUNCH_WORDS};
use std::collections::VecDeque;

/// Registers: 0 = control (1 = start refresh, 0 = stop), 1 = status.
#[derive(Debug)]
pub struct DisplayController {
    task: TaskId,
    pacer: RatePacer,
    fifo: VecDeque<Word>,
    fifo_depth_munches: usize,
    active: bool,
    /// FIFO slots promised to in-flight fast-I/O service.
    committed: usize,
    /// Words actually painted (drained at the dot rate).
    pub painted: u64,
    /// Words the monitor needed but the FIFO could not supply.
    pub underruns: u64,
    /// The most recently painted words, kept for verification (bounded).
    screen: Vec<Word>,
    screen_limit: usize,
    /// The monitor raster, when one is attached.
    fb: Option<Framebuffer>,
    /// In vertical retrace: a field just completed and the microcode has
    /// not yet acknowledged it.  Only ever true with a framebuffer.
    retrace: bool,
    /// Remaining blanking paint events after a field acknowledge: the
    /// beam is still flying back, giving the microcode time to refill
    /// the FIFO before the first visible word of the new field.
    blank: u64,
}

impl DisplayController {
    /// The default dot rate in Mbit/s (a modest monitor; §3 quotes device
    /// bandwidths of 20–400 Mbit/s).
    pub const DEFAULT_MBPS: f64 = 100.0;

    /// Creates a display wired to `task` at the default dot rate on the
    /// default (multiwire, 60 ns) clock.
    pub fn new(task: TaskId) -> Self {
        Self::with_clock(task, Self::DEFAULT_MBPS, &ClockConfig::default())
    }

    /// Creates a display with an explicit dot rate and cycle time.
    pub fn with_rate(task: TaskId, mbps: f64, cycle_ns: f64) -> Self {
        Self::with_clock(task, mbps, &ClockConfig::with_cycle_ns(cycle_ns))
    }

    /// Creates a display whose dot rate is paced against `clock`.
    pub fn with_clock(task: TaskId, mbps: f64, clock: &ClockConfig) -> Self {
        DisplayController {
            task,
            pacer: RatePacer::for_clock(mbps, clock),
            fifo: VecDeque::new(),
            fifo_depth_munches: 4,
            active: false,
            committed: 0,
            painted: 0,
            underruns: 0,
            screen: Vec::new(),
            screen_limit: 1 << 16,
            fb: None,
            retrace: false,
            blank: 0,
        }
    }

    /// Paint events granted as post-retrace blanking: vertical flyback
    /// takes a few percent of the field time, which is exactly the head
    /// start the fast-I/O microcode needs to refill the flushed FIFO
    /// before the first visible word (two munches at the dot rate).
    pub const BLANK_EVENTS: u64 = 2 * MUNCH_WORDS as u64;

    /// Whether refresh is running.
    pub fn active(&self) -> bool {
        self.active
    }

    /// Starts refresh (equivalent to slow-I/O control register write).
    pub fn start(&mut self) {
        self.active = true;
    }

    /// Stops refresh.
    pub fn stop(&mut self) {
        self.active = false;
    }

    /// The captured screen words (bounded; oldest first).
    pub fn screen(&self) -> &[Word] {
        &self.screen
    }

    /// Attach a monitor raster; drained words paint it from its current
    /// scan position onward.
    pub fn set_framebuffer(&mut self, fb: Framebuffer) {
        self.fb = Some(fb);
    }

    /// The attached raster, if any.
    pub fn framebuffer(&self) -> Option<&Framebuffer> {
        self.fb.as_ref()
    }

    /// Whether the monitor is in vertical retrace (field complete,
    /// awaiting the microcode's acknowledge).
    pub fn in_retrace(&self) -> bool {
        self.retrace
    }

    /// Whether the dot-rate pacer runs: the *single* gate used by tick
    /// and skip alike.  A stopped display freezes the pacer in both
    /// scheduling modes, so a stopped display's state round-trips exactly
    /// like a running one's.
    fn pacer_runs(&self) -> bool {
        self.active
    }

    /// Whether a whole munch of FIFO space is free and unpromised.
    fn fifo_space(&self) -> bool {
        self.fifo.len() + self.committed + 2 * MUNCH_WORDS <= self.fifo_depth_munches * MUNCH_WORDS
    }

    /// The microcode's field acknowledge (delivered over `IONotify`):
    /// leave retrace, discard bits fetched past the field boundary, and
    /// resume scanning the new field.
    fn field_ack(&mut self) {
        self.retrace = false;
        self.fifo.clear();
        self.committed = 0;
        self.blank = Self::BLANK_EVENTS;
    }

    /// One dot-clock paint event.  During retrace the monitor is blanking:
    /// the event is a pure no-op (no FIFO drain, no underrun).  Just after
    /// an acknowledge the beam is still flying back: those events burn the
    /// blanking allowance instead of painting.
    fn paint_event(&mut self) {
        if self.retrace {
            return;
        }
        if self.blank > 0 {
            self.blank -= 1;
            return;
        }
        match self.fifo.pop_front() {
            Some(w) => {
                self.painted += 1;
                if self.screen.len() < self.screen_limit {
                    self.screen.push(w);
                }
                if let Some(fb) = &mut self.fb {
                    if fb.push(w) {
                        self.retrace = true;
                    }
                }
            }
            None => {
                self.underruns += 1;
                if let Some(fb) = &mut self.fb {
                    if fb.advance() {
                        self.retrace = true;
                    }
                }
            }
        }
    }
}

impl Device for DisplayController {
    fn name(&self) -> &str {
        "display"
    }

    fn task(&self) -> TaskId {
        self.task
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn wakeup(&self) -> bool {
        // Wake the fast-I/O task whenever a whole munch of FIFO space is
        // free (and not already promised) and refresh is running.  One
        // extra munch of headroom absorbs the ghost prefetch a preempted
        // two-instruction service can trigger on resume (§6.2.1's minimum
        // grain rule).  Retrace also wakes the task: it must reach its
        // IOAtten branch to service the field boundary.
        self.active && (self.fifo_space() || self.retrace)
    }

    fn observe_next(&mut self) {
        // Only a space wakeup promises FIFO slots; a retrace wakeup
        // carries no data transfer.
        if self.active && self.fifo_space() {
            self.committed += MUNCH_WORDS;
        }
    }

    fn notify(&mut self) {
        // IONotify doubles as the field acknowledge: during retrace it
        // resumes scanning; otherwise it keeps the legacy meaning (a NEXT
        // observation).
        if self.retrace {
            self.field_ack();
        } else {
            self.observe_next();
        }
    }

    fn tick(&mut self) {
        if !self.pacer_runs() {
            return;
        }
        for _ in 0..self.pacer.step() {
            self.paint_event();
        }
    }

    fn input(&mut self, reg: Word) -> Word {
        match reg {
            1 => self.fifo.len() as Word,
            _ => u16::from(self.active),
        }
    }

    fn output(&mut self, reg: Word, word: Word) {
        if reg == 0 {
            self.active = word != 0;
        }
    }

    fn accept_munch(&mut self, munch: &[Word; MUNCH_WORDS]) {
        self.committed = self.committed.saturating_sub(MUNCH_WORDS);
        for &w in munch {
            self.fifo.push_back(w);
        }
    }

    fn attention(&self) -> bool {
        // The IOAtten line is the field-boundary signal: the munch loop
        // branches off to its rewind stanza when it sees it.
        self.retrace
    }

    fn next_due(&self, now: u64) -> Option<u64> {
        // A stopped display's tick is a pure no-op (it does not even step
        // the pacer).  During retrace the pacer free-runs but every event
        // is a blanking no-op, so the device is quiescent until the
        // microcode's acknowledge arrives (an external access).  Only a
        // running, scanning display changes state — at its next paint
        // event.
        if !self.active || self.retrace {
            return None;
        }
        self.pacer.cycles_until_event().map(|k| now + k - 1)
    }

    fn skip(&mut self, cycles: u64) {
        if self.pacer_runs() {
            self.pacer = self.pacer.advanced(cycles);
        }
    }
}

impl Snapshot for DisplayController {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<(), SnapError> {
        io.tag(b"DISP")?;
        io.config(&self.task.number(), "display task", Io::u8)?;
        self.pacer.walk(io)?;
        io.word_seq(&mut self.fifo)?;
        io.bool(&mut self.active)?;
        io.usize(&mut self.committed)?;
        io.u64(&mut self.painted)?;
        io.u64(&mut self.underruns)?;
        io.word_seq(&mut self.screen)?;
        io.bool(&mut self.retrace)?;
        io.u64(&mut self.blank)?;
        io.option(
            &mut self.fb,
            || Framebuffer::new(1, 1),
            |io, fb| fb.walk(io),
        )?;
        io.check(
            !self.retrace || self.fb.is_some(),
            "display retrace without framebuffer",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dorado_base::snap::{restore_image, save_image};

    fn display() -> DisplayController {
        DisplayController::with_rate(TaskId::new(14), 100.0, 60.0)
    }

    fn monitor() -> DisplayController {
        let mut d = display();
        d.set_framebuffer(Framebuffer::new(2, 2));
        d
    }

    #[test]
    fn wakeup_tracks_fifo_space() {
        let mut d = display();
        assert!(!d.wakeup(), "inactive display must not wake its task");
        d.start();
        assert!(d.wakeup());
        for _ in 0..4 {
            d.accept_munch(&[7; MUNCH_WORDS]);
        }
        assert!(!d.wakeup(), "full FIFO");
    }

    #[test]
    fn painting_drains_fifo_at_rate() {
        let mut d = display();
        d.start();
        d.accept_munch(&[42; MUNCH_WORDS]);
        // 100 Mbit/s at 60 ns = 0.375 words/cycle: 16 words in ~43 cycles.
        for _ in 0..43 {
            d.tick();
        }
        assert_eq!(d.painted, 16);
        assert_eq!(d.underruns, 0);
        assert!(d.screen().iter().all(|&w| w == 42));
    }

    #[test]
    fn starvation_counts_underruns() {
        let mut d = display();
        d.start();
        for _ in 0..100 {
            d.tick();
        }
        assert!(d.underruns > 0);
        assert_eq!(d.painted, 0);
    }

    #[test]
    fn slow_io_control_path() {
        let mut d = display();
        d.output(0, 1);
        assert!(d.active());
        assert_eq!(d.input(0), 1);
        d.accept_munch(&[1; MUNCH_WORDS]);
        assert_eq!(d.input(1), MUNCH_WORDS as Word);
        d.output(0, 0);
        assert!(!d.active());
    }

    #[test]
    fn field_completion_enters_retrace_and_raises_attention() {
        let mut d = monitor();
        d.start();
        d.accept_munch(&[0xBEEF; MUNCH_WORDS]);
        let mut ticks = 0;
        while !d.in_retrace() {
            d.tick();
            ticks += 1;
            assert!(ticks < 1_000, "field never completed");
        }
        assert!(d.attention());
        assert_eq!(d.framebuffer().unwrap().fields(), 1);
        assert_eq!(d.painted, 4, "2x2 raster is 4 words");
        // Blanking: paint events are no-ops, no underruns accrue.
        let before = d.underruns;
        for _ in 0..100 {
            d.tick();
        }
        assert_eq!(d.underruns, before);
        assert_eq!(d.next_due(0), None, "retrace is quiescent");
        assert!(d.wakeup(), "retrace must wake the task for the ack");
    }

    #[test]
    fn notify_acknowledges_the_field_and_flushes_stale_bits() {
        let mut d = monitor();
        d.start();
        d.accept_munch(&[3; MUNCH_WORDS]);
        while !d.in_retrace() {
            d.tick();
        }
        assert_eq!(d.input(1), 12, "stale post-field bits linger in the FIFO");
        d.notify();
        assert!(!d.in_retrace());
        assert!(!d.attention());
        assert_eq!(d.input(1), 0, "ack flushed the stale bits");
        assert!(d.next_due(0).is_some(), "scanning resumes");
    }

    #[test]
    fn ack_grants_a_blanking_lead_before_painting_resumes() {
        let mut d = monitor();
        d.start();
        d.accept_munch(&[3; MUNCH_WORDS]);
        while !d.in_retrace() {
            d.tick();
        }
        d.notify();
        // The flyback allowance: the next BLANK_EVENTS paint events
        // neither paint nor underrun, even with an empty FIFO.
        let (painted, underruns) = (d.painted, d.underruns);
        for _ in 0..DisplayController::BLANK_EVENTS {
            d.paint_event();
        }
        assert_eq!((d.painted, d.underruns), (painted, underruns));
        d.paint_event();
        assert_eq!(d.underruns, underruns + 1, "allowance exhausted");
    }

    #[test]
    fn retrace_survives_snapshot_round_trip() {
        let mut d = monitor();
        d.start();
        d.accept_munch(&[9; MUNCH_WORDS]);
        while !d.in_retrace() {
            d.tick();
        }
        let img = save_image(&mut d);
        let mut back = monitor();
        restore_image(&mut back, &img).unwrap();
        assert!(back.in_retrace());
        assert_eq!(
            back.framebuffer().unwrap().hashes(),
            d.framebuffer().unwrap().hashes()
        );
        assert_eq!(save_image(&mut back), img);
    }

    #[test]
    fn stopped_display_snapshot_matches_running_gating() {
        // A display stopped mid-field must freeze its pacer identically in
        // tick and skip: the image of a stopped display that skipped a
        // quiescent window equals the image after naive ticking over the
        // same window.
        let mut a = monitor();
        let mut b = monitor();
        for d in [&mut a, &mut b] {
            d.start();
            d.accept_munch(&[5; MUNCH_WORDS]);
            for _ in 0..7 {
                d.tick();
            }
            d.stop();
        }
        // `a` sits idle (scheduled mode: the window is skipped); `b` is
        // naively ticked.
        a.skip(500);
        for _ in 0..500 {
            b.tick();
        }
        assert_eq!(save_image(&mut a), save_image(&mut b));
    }
}
