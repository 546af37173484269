//! Device controllers and the I/O interconnect (§5.8, §7).
//!
//! The Dorado "shares the processor among all the I/O devices and the
//! emulator" (§4): a device controller is mostly *microcode* plus a little
//! hardware.  This crate models the hardware halves: each [`Device`] raises
//! wakeup requests for its task, exchanges words over the slow I/O busses
//! (`IOADDRESS`/`IODATA`, one word per cycle = 265 Mbit/s), and exchanges
//! 16-word munches over the fast I/O path (530 Mbit/s, cache-bypassing).
//! The microcode halves live in `dorado-emu`.
//!
//! Included controllers:
//!
//! * [`DiskController`] — the ~10 Mbit/s removable disk of §7;
//! * [`DisplayController`] — a raster display refreshed over fast I/O
//!   (Figure 8's dual-path controller);
//! * [`NetworkController`] — a ~3 Mbit/s experimental-Ethernet-style link;
//! * [`RateDevice`] — a synthetic device with a configurable data rate, for
//!   the utilization sweeps in the benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disk;
pub mod display;
pub mod framebuffer;
pub mod input;
pub mod network;
pub mod synth;

pub use disk::DiskController;
pub use display::DisplayController;
pub use framebuffer::Framebuffer;
pub use input::InputDevice;
pub use network::NetworkController;
pub use synth::RateDevice;

use dorado_base::snap::{Reader, SnapError, Snapshot, Writer};
use dorado_base::task::TaskSet;
use dorado_base::{ClockConfig, TaskId, Word, MUNCH_WORDS};

/// A device controller's hardware half.
///
/// The trait is object-safe; controllers are boxed into an [`IoSystem`].
/// Default method bodies let simple devices ignore the fast I/O path.
/// Controllers are plain data and must be [`Send`] so whole machines can
/// move onto worker threads (the cluster executor runs one machine per
/// thread).
pub trait Device: std::fmt::Debug + std::any::Any + Send {
    /// A short name for traces.
    fn name(&self) -> &str;

    /// The microcode task this controller is wired to wake (§5.1).
    fn task(&self) -> TaskId;

    /// Whether the controller is requesting a wakeup this cycle.  "A
    /// controller will continue to request a wakeup until notified by the
    /// processor that it is about to receive service" (§5.2).
    fn wakeup(&self) -> bool;

    /// Called when the controller's task number appears on the NEXT bus —
    /// the notification that service is imminent (§6.2.1).
    fn observe_next(&mut self) {}

    /// Called for an explicit `IoNotify` FF operation (the grain-3
    /// ablation's software wakeup removal); defaults to the same behaviour
    /// as the NEXT-bus broadcast.
    fn notify(&mut self) {
        self.observe_next();
    }

    /// Upcast for concrete-type access from benches and tests.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Advances the device's internal clock by one microcycle.
    fn tick(&mut self);

    /// The earliest cycle `>= now` at which this device next needs a real
    /// [`Device::tick`], or `None` if it is quiescent until some external
    /// call (slow/fast I/O, NEXT broadcast, host access) changes its state.
    ///
    /// This is the event-horizon scheduling hint: the device promises that
    /// ticking it anywhere before the returned cycle would change nothing
    /// observable — wakeup line, attention line, counters, FIFO contents —
    /// beyond what [`Device::skip`] reconstructs.  The default, `Some(now)`,
    /// requests a tick every cycle (exactly the naive behaviour), so
    /// devices opt in to being skipped.
    fn next_due(&self, now: u64) -> Option<u64> {
        Some(now)
    }

    /// Fast-forwards the device over `cycles` quiescent microcycles the
    /// scheduler skipped.  Called before the next real [`Device::tick`] and
    /// before any externally visible access, so free-running internal state
    /// (a [`RatePacer`] phase) stays bit-identical to a device that was
    /// ticked every cycle.  Devices keeping the default [`Device::next_due`]
    /// are never skipped and may keep the default no-op.
    fn skip(&mut self, cycles: u64) {
        let _ = cycles;
    }

    /// Slow I/O input: the device drives IODATA (processor `Input`).
    /// `reg` is the device-relative register number from IOADDRESS.
    fn input(&mut self, reg: Word) -> Word;

    /// Slow I/O output: the device accepts a word from IODATA (`Output`).
    fn output(&mut self, reg: Word, word: Word);

    /// The device's attention line (the `IoAtten` branch condition).
    fn attention(&self) -> bool {
        false
    }

    /// Fast I/O: the device accepts a munch moved from storage
    /// (`IOFetch16`).
    fn accept_munch(&mut self, munch: &[Word; MUNCH_WORDS]) {
        let _ = munch;
    }

    /// Fast I/O: the device supplies a munch to be moved to storage
    /// (`IOStore16`).
    fn supply_munch(&mut self) -> [Word; MUNCH_WORDS] {
        [0; MUNCH_WORDS]
    }

    /// Words this device dropped because its rx FIFO overflowed while the
    /// service task fell behind the line rate.  Devices without a paced
    /// receive path report zero.
    fn rx_overruns(&self) -> u64 {
        0
    }

    /// Whether the device holds fully committed outbound work a host-side
    /// fabric has yet to drain (a network controller's transmitted-packet
    /// transcript).  This is a *frozen-read* probe: cluster executors call
    /// it through [`IoSystem::device_by_name`] every epoch, so it must be
    /// exact without a sync and must not disturb scheduler state — the
    /// whole point is that an idle machine's controller stays skippable
    /// instead of being forced awake by an unconditional mutable lookup.
    fn tx_pending(&self) -> bool {
        false
    }

    /// Serializes the device's dynamic state into a snapshot (the
    /// object-safe face of [`Snapshot::save`]).  `pending` is the number of
    /// quiescent cycles the scheduler has skipped but not yet folded in via
    /// [`Device::skip`]; devices with free-running state must serialize it
    /// *projected forward* by `pending` cycles so an image taken under the
    /// event-horizon scheduler is byte-identical to one taken under naive
    /// per-cycle ticking.  Stateless devices may keep the default no-op,
    /// paired with the default [`Device::snapshot_restore`].
    fn snapshot_save(&self, w: &mut Writer, pending: u64) {
        let _ = (w, pending);
    }

    /// Restores the device's dynamic state from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] if the image is malformed or was taken from
    /// a device with different configuration.
    fn snapshot_restore(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        let _ = r;
        Ok(())
    }
}

/// The I/O interconnect: device registry, IOADDRESS decoding, and wakeup
/// collection, with an event-horizon scheduler that only ticks devices at
/// their [`Device::next_due`] cycles.
///
/// The scheduler is architecturally invisible.  Its correctness rests on
/// two invariants: (1) a quiescent device's observable state — wakeup line,
/// attention line, counters, FIFOs — is frozen until its due cycle or an
/// external access, so the cached copies served meanwhile are exact; and
/// (2) `now` never passes a stored due cycle, because a cycle is skipped
/// only when it is earlier than the minimum due over all devices.
#[derive(Debug, Default)]
pub struct IoSystem {
    devices: Vec<Attached>,
    /// The task seen on NEXT last cycle: devices observe only the rising
    /// edge of their grant (one wakeup removal per activation, §6.2.1),
    /// not every cycle of a multi-instruction service.
    last_next: Option<TaskId>,
    /// The interconnect's cycle counter: how many [`IoSystem::tick`] calls
    /// have completed.
    now: u64,
    /// The earliest due cycle over all devices (`u64::MAX` when everything
    /// is quiescent) — the event horizon the tick fast path compares
    /// against.
    min_due: u64,
    /// Cached union of the asserted wakeup lines, maintained by every path
    /// that can change one (tick, NEXT broadcast, external access).
    wakeups: TaskSet,
    /// Naive reference mode: tick every device every cycle, ignoring
    /// `next_due` hints.  For equivalence tests and baseline benchmarks.
    always_tick: bool,
    /// Last IOADDRESS decode hit, since slow-IO loops poll one device.
    last_decode: usize,
}

#[derive(Debug)]
struct Attached {
    base: Word,
    regs: Word,
    /// Cache of `device.task()`, so NEXT broadcasts don't virtual-dispatch
    /// into every device.
    task: TaskId,
    /// The device has processed every cycle before this one (via real
    /// ticks or [`Device::skip`]).  Always `<= IoSystem::now`.
    synced_at: u64,
    /// Next cycle needing a real tick; `u64::MAX` = quiescent until an
    /// external access.
    due: u64,
    /// Cache of `device.wakeup()`, exact while the device is quiescent.
    wake: bool,
    device: Box<dyn Device>,
}

impl IoSystem {
    /// Creates an empty interconnect.
    pub fn new() -> Self {
        IoSystem::default()
    }

    /// Attaches a device claiming IOADDRESS values `base .. base + regs`.
    ///
    /// # Panics
    ///
    /// Panics if the address range overlaps an attached device, `regs` is
    /// zero, or the range wraps.
    pub fn attach(&mut self, device: Box<dyn Device>, base: Word, regs: Word) {
        assert!(regs > 0, "device must claim at least one register");
        assert!(base.checked_add(regs - 1).is_some(), "address range wraps");
        for a in &self.devices {
            let overlap = base < a.base + a.regs && a.base < base + regs;
            assert!(
                !overlap,
                "IOADDRESS range {base}..{} overlaps {}",
                base + regs,
                a.device.name()
            );
        }
        let task = device.task();
        let due = Self::due_of(device.as_ref(), self.now);
        let wake = device.wakeup();
        self.devices.push(Attached {
            base,
            regs,
            task,
            synced_at: self.now,
            due,
            wake,
            device,
        });
        self.rebuild_summary();
    }

    /// Switches between the event-horizon scheduler (default) and naive
    /// always-tick mode, which ticks every device every microcycle and
    /// ignores [`Device::next_due`] hints.  The scheduler is required to be
    /// architecturally invisible, so this exists as the reference side of
    /// the equivalence tests and the `e17_sim_throughput` baseline.
    pub fn set_always_tick(&mut self, on: bool) {
        self.always_tick = on;
        if !on {
            // Re-entering scheduled mode: the dues were not maintained
            // while every device was being ticked, so recompute them all.
            for i in 0..self.devices.len() {
                let a = &mut self.devices[i];
                a.due = Self::due_of(a.device.as_ref(), self.now);
                a.wake = a.device.wakeup();
            }
            self.rebuild_summary();
        }
    }

    fn due_of(device: &dyn Device, now: u64) -> u64 {
        device.next_due(now).map_or(u64::MAX, |d| d.max(now))
    }

    /// Folds skipped quiescent cycles into device `i` so its internal state
    /// matches a naively ticked device's, before an external access.
    fn sync_device(&mut self, i: usize) {
        let a = &mut self.devices[i];
        if a.synced_at < self.now {
            a.device.skip(self.now - a.synced_at);
            a.synced_at = self.now;
        }
    }

    /// Recomputes device `i`'s cached due cycle and wakeup line after an
    /// external access may have changed its state.
    fn refresh_device(&mut self, i: usize) {
        let a = &mut self.devices[i];
        a.due = Self::due_of(a.device.as_ref(), self.now);
        a.wake = a.device.wakeup();
        self.rebuild_summary();
    }

    fn rebuild_summary(&mut self) {
        let mut min_due = u64::MAX;
        let mut wakeups = TaskSet::EMPTY;
        for a in &self.devices {
            min_due = min_due.min(a.due);
            if a.wake {
                wakeups.insert(a.task);
            }
        }
        self.min_due = min_due;
        self.wakeups = wakeups;
    }

    /// Number of attached devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether no devices are attached.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Advances all devices one microcycle.
    ///
    /// Hot path: while every device's due cycle lies in the future, the
    /// whole call is one compare against the event horizon.  Skipped
    /// cycles are folded back in by [`Device::skip`] before a device's
    /// next real tick, so observable state stays bit-identical to ticking
    /// every device every cycle.
    pub fn tick(&mut self) {
        let now = self.now;
        self.now = now + 1;
        if self.always_tick {
            // Naive reference mode: tick everything, keep the wakeup cache
            // fresh, and leave the (unused) due bookkeeping alone so the
            // reference loop costs what the pre-scheduler loop cost.  The
            // dues are recomputed wholesale if the scheduler is re-enabled
            // (see `set_always_tick`).
            let mut wakeups = TaskSet::EMPTY;
            for a in &mut self.devices {
                a.device.tick();
                a.synced_at = now + 1;
                a.wake = a.device.wakeup();
                if a.wake {
                    wakeups.insert(a.task);
                }
            }
            self.wakeups = wakeups;
            return;
        }
        if now < self.min_due {
            return;
        }
        let mut min_due = u64::MAX;
        let mut wakeups = TaskSet::EMPTY;
        for a in &mut self.devices {
            if a.due <= now {
                if a.synced_at < now {
                    a.device.skip(now - a.synced_at);
                }
                a.device.tick();
                a.synced_at = now + 1;
                a.due = Self::due_of(a.device.as_ref(), now + 1);
                a.wake = a.device.wakeup();
            }
            min_due = min_due.min(a.due);
            if a.wake {
                wakeups.insert(a.task);
            }
        }
        self.min_due = min_due;
        self.wakeups = wakeups;
    }

    /// The wakeup requests currently asserted, as a task set (the WAKEUP
    /// register's inputs, §6.2.1).  Served from the cache: a device's
    /// wakeup line only changes on a real tick or an external access, and
    /// both refresh it.
    pub fn wakeups(&self) -> TaskSet {
        self.wakeups
    }

    /// Whether naive always-tick mode is on (see
    /// [`IoSystem::set_always_tick`]).
    pub fn always_tick(&self) -> bool {
        self.always_tick
    }

    /// Forgets the one-entry IOADDRESS decode hint.  The hint is only a
    /// cache (every decode still range-checks), but fast paths built on
    /// top of the decoder invalidate it defensively whenever machine state
    /// is replaced wholesale (snapshot restore, control-store writes).
    pub fn reset_decode_cache(&mut self) {
        self.last_decode = 0;
    }

    /// Broadcasts the NEXT bus: devices whose task is *newly* granted see
    /// the notification and may drop their wakeup (§6.2.1: "the earliest
    /// the wakeup can be removed is t0 of the task's first instruction").
    pub fn observe_next(&mut self, next: TaskId) {
        if self.last_next != Some(next) {
            let mut touched = false;
            for i in 0..self.devices.len() {
                if self.devices[i].task == next {
                    self.sync_device(i);
                    let a = &mut self.devices[i];
                    a.device.observe_next();
                    a.due = Self::due_of(a.device.as_ref(), self.now);
                    a.wake = a.device.wakeup();
                    touched = true;
                }
            }
            if touched {
                self.rebuild_summary();
            }
        }
        self.last_next = Some(next);
    }

    /// IOADDRESS decode with a one-entry cache: slow-IO service loops poll
    /// one device's register block repeatedly, so the common case is a
    /// single range check instead of a scan over every attachment.
    fn decode_index(&mut self, ioaddr: Word) -> Option<usize> {
        if let Some(a) = self.devices.get(self.last_decode) {
            if ioaddr >= a.base && ioaddr < a.base + a.regs {
                return Some(self.last_decode);
            }
        }
        let i = self
            .devices
            .iter()
            .position(|a| ioaddr >= a.base && ioaddr < a.base + a.regs)?;
        self.last_decode = i;
        Some(i)
    }

    /// Slow I/O input from the device at `ioaddr`; an unclaimed address
    /// reads as zero (open bus).
    pub fn input(&mut self, ioaddr: Word) -> Word {
        match self.decode_index(ioaddr) {
            Some(i) => {
                self.sync_device(i);
                let a = &mut self.devices[i];
                let word = a.device.input(ioaddr - a.base);
                self.refresh_device(i);
                word
            }
            None => 0,
        }
    }

    /// Slow I/O output to the device at `ioaddr`; unclaimed addresses
    /// swallow the word.
    pub fn output(&mut self, ioaddr: Word, word: Word) {
        if let Some(i) = self.decode_index(ioaddr) {
            self.sync_device(i);
            let a = &mut self.devices[i];
            a.device.output(ioaddr - a.base, word);
            self.refresh_device(i);
        }
    }

    /// Explicit wakeup-served notification to the device at `ioaddr`
    /// (the `IoNotify` FF operation).
    pub fn notify(&mut self, ioaddr: Word) {
        if let Some(i) = self.decode_index(ioaddr) {
            self.sync_device(i);
            self.devices[i].device.notify();
            self.refresh_device(i);
        }
    }

    /// The attention line of the device at `ioaddr`.  Read-only, and a
    /// quiescent device's attention line is frozen (part of the
    /// [`Device::next_due`] contract), so the cached state is exact.
    pub fn attention(&mut self, ioaddr: Word) -> bool {
        match self.decode_index(ioaddr) {
            Some(i) => self.devices[i].device.attention(),
            None => false,
        }
    }

    /// Fast I/O delivery of a munch to the device at `ioaddr`.
    pub fn accept_munch(&mut self, ioaddr: Word, munch: &[Word; MUNCH_WORDS]) {
        if let Some(i) = self.decode_index(ioaddr) {
            self.sync_device(i);
            self.devices[i].device.accept_munch(munch);
            self.refresh_device(i);
        }
    }

    /// Fast I/O collection of a munch from the device at `ioaddr`.
    pub fn supply_munch(&mut self, ioaddr: Word) -> [Word; MUNCH_WORDS] {
        match self.decode_index(ioaddr) {
            Some(i) => {
                self.sync_device(i);
                let munch = self.devices[i].device.supply_munch();
                self.refresh_device(i);
                munch
            }
            None => [0; MUNCH_WORDS],
        }
    }

    /// Total rx-FIFO overrun words across every attached device — the
    /// machine-wide `io_overruns` counter in `Stats`.  Overrun counters
    /// only move on real ticks, so no sync is needed.
    pub fn rx_overruns(&self) -> u64 {
        self.devices.iter().map(|a| a.device.rx_overruns()).sum()
    }

    /// Borrows an attached device by name, for test assertions.  The
    /// device may be mid-quiescent-window; everything observable is frozen
    /// then, so reads are exact.
    pub fn device_by_name(&self, name: &str) -> Option<&dyn Device> {
        self.devices
            .iter()
            .find(|a| a.device.name() == name)
            .map(|a| a.device.as_ref())
    }

    /// Mutably borrows an attached device by name.  The borrow is opaque
    /// to the scheduler (hosts use it to inject packets, start transfers,
    /// flip device modes), so the device is synced first and its due cycle
    /// pulled forward to now — the next [`IoSystem::tick`] gives it a real
    /// tick and re-evaluates the hint against the mutated state.
    pub fn device_by_name_mut(&mut self, name: &str) -> Option<&mut Box<dyn Device>> {
        let i = self.devices.iter().position(|a| a.device.name() == name)?;
        self.sync_device(i);
        self.devices[i].due = self.now;
        self.min_due = self.min_due.min(self.now);
        Some(&mut self.devices[i].device)
    }
}

/// A fixed-point rate accumulator: delivers `num` events per `den` cycles,
/// spread as evenly as integer arithmetic allows.  Used by every controller
/// to model its media data rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RatePacer {
    num: u64,
    den: u64,
    acc: u64,
}

impl RatePacer {
    /// A pacer delivering `num` events every `den` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn new(num: u64, den: u64) -> Self {
        assert!(den > 0, "rate denominator must be positive");
        RatePacer { num, den, acc: 0 }
    }

    /// A pacer for a data rate in megabits/second of 16-bit words, given
    /// the machine cycle time in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics unless both arguments are positive.
    pub fn words_for_mbps(mbps: f64, cycle_ns: f64) -> Self {
        assert!(mbps > 0.0 && cycle_ns > 0.0);
        // words per cycle = mbps · 1e6 bit/s ÷ 16 bit · cycle_ns · 1e-9 s.
        // Scale to integers with a parts-per-billion denominator.
        let num = (mbps * 1e6 / 16.0 * cycle_ns).round() as u64;
        RatePacer::new(num, 1_000_000_000)
    }

    /// A pacer for a data rate in megabits/second of 16-bit words, taking
    /// the cycle time from a [`ClockConfig`] — the one place the clock and
    /// the line-rate math meet.
    pub fn for_clock(mbps: f64, clock: &ClockConfig) -> Self {
        Self::words_for_mbps(mbps, clock.cycle_ns())
    }

    /// Advances one cycle; returns how many events fire this cycle.
    pub fn step(&mut self) -> u64 {
        self.acc += self.num;
        let events = self.acc / self.den;
        self.acc %= self.den;
        events
    }

    /// How many further [`RatePacer::step`] calls until one fires an
    /// event, counting that call itself (so the result is at least 1), or
    /// `None` for a zero-rate pacer that never fires.
    pub fn cycles_until_event(&self) -> Option<u64> {
        if self.num == 0 {
            return None;
        }
        // The k-th step fires once acc + k·num reaches den.  Devices paced
        // near (or above) one event per cycle ask every tick, so the
        // single-cycle answer avoids the division.
        let gap = self.den - self.acc;
        if self.num >= gap {
            return Some(1);
        }
        Some(gap.div_ceil(self.num))
    }

    /// The pacer as it would stand after `cycles` individual
    /// [`RatePacer::step`] calls.  Stepping leaves `acc` at
    /// `(acc + cycles·num) mod den` whether or not events fired along the
    /// way, so the closed form is exact and the scheduler can fast-forward
    /// a pacer across a quiescent window in O(1).
    #[must_use]
    pub fn advanced(&self, cycles: u64) -> RatePacer {
        let acc = ((u128::from(self.acc) + u128::from(cycles) * u128::from(self.num))
            % u128::from(self.den)) as u64;
        RatePacer { acc, ..*self }
    }

    /// Events per cycle as a float (for reporting).
    pub fn rate(&self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

impl Snapshot for RatePacer {
    fn save(&self, w: &mut Writer) {
        w.u64(self.num);
        w.u64(self.den);
        w.u64(self.acc);
    }

    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        // num/den are configuration; only the accumulator phase is dynamic.
        if r.u64()? != self.num || r.u64()? != self.den {
            return Err(SnapError::Mismatch { what: "pacer rate" });
        }
        self.acc = r.u64()?;
        Ok(())
    }
}

impl Snapshot for IoSystem {
    fn save(&self, w: &mut Writer) {
        w.tag(b"IOSY");
        match self.last_next {
            Some(t) => {
                w.bool(true);
                w.u8(t.number());
            }
            None => w.bool(false),
        }
        w.u64(self.now);
        w.len(self.devices.len());
        for a in &self.devices {
            w.byte_seq(a.device.name().bytes());
            // Serialize free-running state projected over the cycles the
            // scheduler skipped but has not yet folded in: images must not
            // depend on the scheduling mode.
            a.device.snapshot_save(w, self.now - a.synced_at);
        }
    }

    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        r.tag(b"IOSY")?;
        self.last_next = if r.bool()? {
            Some(TaskId::new(r.u8()?))
        } else {
            None
        };
        self.now = r.u64()?;
        if r.len()? != self.devices.len() {
            return Err(SnapError::Mismatch {
                what: "device count",
            });
        }
        for a in &mut self.devices {
            if r.byte_seq()? != a.device.name().as_bytes() {
                return Err(SnapError::Mismatch {
                    what: "device order",
                });
            }
            a.device.snapshot_restore(r)?;
            // Scheduler bookkeeping is derived, not serialized: a restored
            // device is fully synced, and its due cycle is recomputed from
            // the restored state.
            a.synced_at = self.now;
            a.due = Self::due_of(a.device.as_ref(), self.now);
            a.wake = a.device.wakeup();
        }
        // The decode hint indexes the pre-restore access pattern; drop it
        // so no fast path can act on it against the restored state.
        self.last_decode = 0;
        self.rebuild_summary();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Echo {
        task: TaskId,
        last: Word,
        wake: bool,
    }

    impl Device for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn task(&self) -> TaskId {
            self.task
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn wakeup(&self) -> bool {
            self.wake
        }
        fn observe_next(&mut self) {
            self.wake = false;
        }
        fn tick(&mut self) {}
        fn input(&mut self, reg: Word) -> Word {
            self.last.wrapping_add(reg)
        }
        fn output(&mut self, _reg: Word, word: Word) {
            self.last = word;
        }
    }

    fn echo(task: u8) -> Box<Echo> {
        Box::new(Echo {
            task: TaskId::new(task),
            last: 0,
            wake: true,
        })
    }

    #[test]
    fn attach_and_decode() {
        let mut io = IoSystem::new();
        assert!(io.is_empty());
        io.attach(echo(9), 0x10, 4);
        assert_eq!(io.len(), 1);
        io.output(0x12, 0xabc);
        assert_eq!(io.input(0x12), 0xabc + 2);
        // Unclaimed addresses are open-bus.
        assert_eq!(io.input(0x50), 0);
        io.output(0x50, 1); // swallowed
        assert!(!io.attention(0x10));
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_ranges_rejected() {
        let mut io = IoSystem::new();
        io.attach(echo(9), 0x10, 4);
        io.attach(echo(10), 0x12, 1);
    }

    #[test]
    fn wakeups_collect_and_clear_on_next() {
        let mut io = IoSystem::new();
        io.attach(echo(9), 0x10, 1);
        io.attach(echo(12), 0x20, 1);
        let w = io.wakeups();
        assert!(w.contains(TaskId::new(9)) && w.contains(TaskId::new(12)));
        io.observe_next(TaskId::new(9));
        let w = io.wakeups();
        assert!(!w.contains(TaskId::new(9)));
        assert!(w.contains(TaskId::new(12)));
    }

    #[test]
    fn device_lookup_by_name() {
        let mut io = IoSystem::new();
        io.attach(echo(9), 0x10, 1);
        assert!(io.device_by_name("echo").is_some());
        assert!(io.device_by_name("ghost").is_none());
        assert!(io.device_by_name_mut("echo").is_some());
    }

    #[test]
    fn pacer_average_rate() {
        let mut p = RatePacer::new(3, 80); // the 10 Mbit/s disk: 3 words/80 cycles
        let total: u64 = (0..8000).map(|_| p.step()).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn overruns_sum_across_devices() {
        let mut io = IoSystem::new();
        io.attach(echo(9), 0x10, 1);
        assert_eq!(io.rx_overruns(), 0);
        let mut n = NetworkController::new(TaskId::new(13));
        n.overruns = 7;
        io.attach(Box::new(n), 0x30, 4);
        assert_eq!(io.rx_overruns(), 7);
    }

    #[test]
    fn io_system_snapshot_round_trips_attached_devices() {
        use dorado_base::snap::{restore_image, save_image};
        let build = || {
            let mut io = IoSystem::new();
            io.attach(Box::new(NetworkController::new(TaskId::new(13))), 0x30, 4);
            io.attach(Box::new(DiskController::new(TaskId::new(11))), 0x10, 2);
            io
        };
        let mut a = build();
        if let Some(n) = a.device_by_name_mut("network") {
            n.as_any_mut()
                .downcast_mut::<NetworkController>()
                .unwrap()
                .inject_packet(vec![5, 6, 7]);
        }
        for _ in 0..500 {
            a.tick();
        }
        a.observe_next(TaskId::new(13));
        let img = save_image(&a);

        let mut b = build();
        restore_image(&mut b, &img).unwrap();
        assert_eq!(save_image(&b), img);
        assert_eq!(a.wakeups(), b.wakeups());
        for _ in 0..100 {
            a.tick();
            b.tick();
        }
        assert_eq!(a.input(0x30), b.input(0x30));
        assert_eq!(save_image(&a), save_image(&b));

        // Device-order mismatch is rejected.
        let mut wrong = IoSystem::new();
        wrong.attach(Box::new(DiskController::new(TaskId::new(11))), 0x10, 2);
        wrong.attach(Box::new(NetworkController::new(TaskId::new(13))), 0x30, 4);
        assert_eq!(
            restore_image(&mut wrong, &img).unwrap_err(),
            SnapError::Mismatch {
                what: "device order"
            }
        );
    }

    #[test]
    fn pacer_from_mbps() {
        // 10 Mbit/s at 60 ns: 0.0375 words/cycle.
        let p = RatePacer::words_for_mbps(10.0, 60.0);
        assert!((p.rate() - 0.0375).abs() < 1e-9);
        // 265 Mbit/s ≈ one word per cycle.
        let p = RatePacer::words_for_mbps(265.0, 60.0);
        assert!((p.rate() - 1.0).abs() < 0.01);
    }

    #[test]
    fn pacer_spreads_events() {
        let mut p = RatePacer::new(1, 3);
        let pattern: Vec<u64> = (0..9).map(|_| p.step()).collect();
        assert_eq!(pattern.iter().sum::<u64>(), 3);
        assert!(pattern.iter().all(|&e| e <= 1));
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn pacer_rejects_zero_den() {
        let _ = RatePacer::new(1, 0);
    }

    #[test]
    fn pacer_projection_matches_stepping() {
        let mut naive = RatePacer::new(37, 1000);
        for k in 0..500u64 {
            assert_eq!(
                RatePacer::new(37, 1000).advanced(k),
                naive,
                "closed-form advance equals {k} individual steps"
            );
            let mut probe = naive;
            let due = probe.cycles_until_event().unwrap();
            for i in 1..=due {
                let fired = probe.step() > 0;
                assert_eq!(fired, i == due, "event fires exactly on the predicted step");
            }
            naive.step();
        }
        assert_eq!(RatePacer::new(0, 5).cycles_until_event(), None);
    }

    /// A device with a self-scheduling period: fires an event every
    /// `period` cycles and tells the scheduler so.  `ticks` counts real
    /// ticks, so the test can prove skipping happened while the observable
    /// event count stays exact.
    #[derive(Debug)]
    struct Horizon {
        task: TaskId,
        period: u64,
        clock: u64,
        ticks: u64,
        events: u64,
    }

    impl Device for Horizon {
        fn name(&self) -> &str {
            "horizon"
        }
        fn task(&self) -> TaskId {
            self.task
        }
        fn wakeup(&self) -> bool {
            false
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn tick(&mut self) {
            self.clock += 1;
            self.ticks += 1;
            if self.clock.is_multiple_of(self.period) {
                self.events += 1;
            }
        }
        fn next_due(&self, now: u64) -> Option<u64> {
            // The tick at cycle t advances the clock to t+1; the event
            // lands on the last cycle of each period.
            Some(now + (self.period - 1 - now % self.period))
        }
        fn skip(&mut self, cycles: u64) {
            self.clock += cycles;
        }
        fn input(&mut self, _reg: Word) -> Word {
            self.events as Word
        }
        fn output(&mut self, _reg: Word, _word: Word) {}
    }

    #[test]
    fn scheduler_skips_quiescent_cycles_without_losing_events() {
        let horizon = || {
            Box::new(Horizon {
                task: TaskId::new(9),
                period: 50,
                clock: 0,
                ticks: 0,
                events: 0,
            })
        };
        let mut scheduled = IoSystem::new();
        scheduled.attach(horizon(), 0x10, 1);
        let mut naive = IoSystem::new();
        naive.attach(horizon(), 0x10, 1);
        naive.set_always_tick(true);
        for _ in 0..500 {
            scheduled.tick();
            naive.tick();
        }
        assert_eq!(scheduled.input(0x10), 10, "10 events in 500 cycles");
        assert_eq!(naive.input(0x10), 10);
        let ticks = |io: &mut IoSystem| {
            io.device_by_name_mut("horizon")
                .unwrap()
                .as_any_mut()
                .downcast_mut::<Horizon>()
                .unwrap()
                .ticks
        };
        assert_eq!(ticks(&mut naive), 500, "reference mode ticks every cycle");
        assert_eq!(ticks(&mut scheduled), 10, "scheduler ticks only at due cycles");
    }
}
