//! Machine-wide statistics counters.
//!
//! Every experiment in the paper's §7 is a ratio of these counters: cycles
//! executed per task (processor shares), cache hits and misses, storage
//! cycles, words moved over the slow and fast I/O paths, and macro-
//! instructions dispatched by the IFU.

use crate::clock::{ClockConfig, Cycles};
use crate::hold::HoldCause;
use crate::metrics::{CacheStats, IfuActivity, StorageStats};
use crate::snap::{Io, SnapError, Snapshot};
use crate::task::TaskId;
use crate::NUM_TASKS;

/// Counters accumulated while a [`Dorado`] machine runs.
///
/// All counters are cumulative from machine reset.  The flat fields are
/// machine-wide totals kept for quick inspection; the structured fields
/// (`held_by`, `cache`, `storage`, `ifu`) carry the per-cause, per-task,
/// per-requester breakdowns the paper's §7 tables are built from — see
/// [`crate::report::Report`].
///
/// [`Dorado`]: https://docs.rs/dorado-core
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Total microcycles elapsed.
    pub cycles: u64,
    /// Cycles in which each task's microinstruction completed (not held).
    pub executed: [u64; NUM_TASKS],
    /// Cycles in which each task's microinstruction was held (§5.7).
    pub held: [u64; NUM_TASKS],
    /// Held cycles broken down by task and by [`HoldCause`]:
    /// `held_by[task][cause.index()]`.
    pub held_by: [[u64; HoldCause::COUNT]; NUM_TASKS],
    /// Number of task switches (NEXT task differed from THISTASK).
    pub task_switches: u64,
    /// Cache references started by the processor.
    pub cache_refs: u64,
    /// Cache references that hit.
    pub cache_hits: u64,
    /// Storage references (cache misses, write-backs, fast I/O munches).
    pub storage_refs: u64,
    /// 16-word munches moved over the fast I/O path (§5.8).
    pub fast_io_munches: u64,
    /// Words moved over the slow I/O (IODATA) bus, either direction.
    pub slow_io_words: u64,
    /// Macroinstructions dispatched by the IFU (IFUJump taken).
    pub macro_instructions: u64,
    /// Cache references made by the IFU for byte-stream prefetch.
    pub ifu_fetches: u64,
    /// Words dropped by slow-I/O device rx FIFOs because the service task
    /// fell behind the line rate (e.g. the Ethernet controller's overruns).
    pub io_overruns: u64,
    /// Cache traffic split by requester (processor / IFU / fast I/O).
    pub cache: CacheStats,
    /// Storage-pipeline traffic and occupancy.
    pub storage: StorageStats,
    /// IFU dispatch, branch-outcome, and buffer-fullness activity.
    pub ifu: IfuActivity,
}

impl Stats {
    /// Creates a zeroed counter block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total microinstructions executed across all tasks.
    pub fn instructions(&self) -> u64 {
        self.executed.iter().sum()
    }

    /// Total held cycles across all tasks.
    pub fn held_cycles(&self) -> u64 {
        self.held.iter().sum()
    }

    /// Microinstructions executed by one task.
    pub fn executed_by(&self, task: TaskId) -> u64 {
        self.executed[task.index()]
    }

    /// The fraction of all elapsed cycles in which `task`'s instructions
    /// completed — the "processor share" unit of §7 ("the 10 megabit/sec
    /// disk consumes 5% of the processor").
    ///
    /// Returns 0 when no cycles have elapsed.
    pub fn processor_share(&self, task: TaskId) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.executed[task.index()] as f64 / self.cycles as f64
        }
    }

    /// Cache hit rate over processor references, in `[0, 1]`; 0 if there
    /// were no references.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_refs == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_refs as f64
        }
    }

    /// Held cycles of one task attributed to one cause.
    pub fn holds_by(&self, task: TaskId, cause: HoldCause) -> u64 {
        self.held_by[task.index()][cause.index()]
    }

    /// Held cycles across all tasks attributed to one cause.
    pub fn holds_for(&self, cause: HoldCause) -> u64 {
        self.held_by.iter().map(|row| row[cause.index()]).sum()
    }

    /// Elapsed simulated time for a given clock.
    pub fn elapsed(&self, clock: &ClockConfig) -> f64 {
        clock.to_seconds(Cycles(self.cycles))
    }

    /// Difference between two snapshots (`self` later than `earlier`).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any counter in `earlier` exceeds `self`'s.
    pub fn since(&self, earlier: &Stats) -> Stats {
        let mut d = self.clone();
        d.cycles -= earlier.cycles;
        for i in 0..NUM_TASKS {
            d.executed[i] -= earlier.executed[i];
            d.held[i] -= earlier.held[i];
            for c in 0..HoldCause::COUNT {
                d.held_by[i][c] -= earlier.held_by[i][c];
            }
        }
        d.task_switches -= earlier.task_switches;
        d.cache_refs -= earlier.cache_refs;
        d.cache_hits -= earlier.cache_hits;
        d.storage_refs -= earlier.storage_refs;
        d.fast_io_munches -= earlier.fast_io_munches;
        d.slow_io_words -= earlier.slow_io_words;
        d.macro_instructions -= earlier.macro_instructions;
        d.ifu_fetches -= earlier.ifu_fetches;
        d.io_overruns -= earlier.io_overruns;
        d.cache = self.cache.since(&earlier.cache);
        d.storage = self.storage.since(&earlier.storage);
        d.ifu = self.ifu.since(&earlier.ifu);
        d
    }
}

impl Snapshot for Stats {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<(), SnapError> {
        io.tag(b"STAT")?;
        io.u64(&mut self.cycles)?;
        let per_task = self.executed.iter_mut().chain(&mut self.held);
        let flat = per_task.chain(self.held_by.as_flattened_mut());
        flat.chain([
            &mut self.task_switches,
            &mut self.cache_refs,
            &mut self.cache_hits,
            &mut self.storage_refs,
            &mut self.fast_io_munches,
            &mut self.slow_io_words,
            &mut self.macro_instructions,
            &mut self.ifu_fetches,
            &mut self.io_overruns,
        ])
        .try_for_each(|v| io.u64(v))?;
        self.cache.walk(io)?;
        self.storage.walk(io)?;
        self.ifu.walk(io)
    }
}

impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "cycles={} instrs={} held={} switches={}",
            self.cycles,
            self.instructions(),
            self.held_cycles(),
            self.task_switches
        )?;
        writeln!(
            f,
            "cache: {}/{} hits ({:.1}%), storage refs={}, fast munches={}, slow words={}",
            self.cache_hits,
            self.cache_refs,
            100.0 * self.cache_hit_rate(),
            self.storage_refs,
            self.fast_io_munches,
            self.slow_io_words
        )?;
        if self.io_overruns > 0 {
            writeln!(f, "io overruns={}", self.io_overruns)?;
        }
        write!(f, "macroinstructions={}", self.macro_instructions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processor_share_basics() {
        let mut s = Stats::new();
        assert_eq!(s.processor_share(TaskId::EMULATOR), 0.0);
        s.cycles = 100;
        s.executed[0] = 75;
        s.executed[11] = 5;
        assert!((s.processor_share(TaskId::EMULATOR) - 0.75).abs() < 1e-12);
        assert!((s.processor_share(TaskId::new(11)) - 0.05).abs() < 1e-12);
        assert_eq!(s.instructions(), 80);
    }

    #[test]
    fn hit_rate() {
        let mut s = Stats::new();
        assert_eq!(s.cache_hit_rate(), 0.0);
        s.cache_refs = 200;
        s.cache_hits = 190;
        assert!((s.cache_hit_rate() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn since_subtracts() {
        let mut a = Stats::new();
        a.cycles = 10;
        a.executed[0] = 8;
        a.cache_refs = 4;
        a.io_overruns = 1;
        let mut b = a.clone();
        b.cycles = 25;
        b.executed[0] = 20;
        b.cache_refs = 9;
        b.io_overruns = 4;
        let d = b.since(&a);
        assert_eq!(d.cycles, 15);
        assert_eq!(d.executed[0], 12);
        assert_eq!(d.cache_refs, 5);
        assert_eq!(d.io_overruns, 3);
    }

    #[test]
    fn overruns_appear_in_display() {
        let mut s = Stats::new();
        assert!(!format!("{s}").contains("overruns"));
        s.io_overruns = 2;
        assert!(format!("{s}").contains("io overruns=2"));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Stats::new()).is_empty());
    }

    #[test]
    fn hold_breakdown_accessors() {
        let mut s = Stats::new();
        s.held_by[0][HoldCause::MemData.index()] = 7;
        s.held_by[11][HoldCause::MemData.index()] = 2;
        s.held_by[0][HoldCause::IfuDispatch.index()] = 3;
        assert_eq!(s.holds_by(TaskId::EMULATOR, HoldCause::MemData), 7);
        assert_eq!(s.holds_for(HoldCause::MemData), 9);
        assert_eq!(s.holds_for(HoldCause::IfuDispatch), 3);
        assert_eq!(s.holds_for(HoldCause::MemPipe), 0);
    }

    #[test]
    fn snapshot_round_trip_is_field_exact() {
        use crate::snap::{restore_image, save_image};
        let mut a = Stats::new();
        a.cycles = 0x0123_4567_89ab;
        for i in 0..NUM_TASKS {
            a.executed[i] = (i as u64) * 3 + 1;
            a.held[i] = (i as u64) * 7;
            for c in 0..HoldCause::COUNT {
                a.held_by[i][c] = (i * 16 + c) as u64;
            }
        }
        a.task_switches = 11;
        a.cache_refs = 12;
        a.cache_hits = 13;
        a.storage_refs = 14;
        a.fast_io_munches = 15;
        a.slow_io_words = 16;
        a.macro_instructions = 17;
        a.ifu_fetches = 18;
        a.io_overruns = 19;
        a.cache.processor.refs = 20;
        a.cache.ifu.hits = 21;
        a.cache.fast_io.refs = 22;
        a.storage.busy_cycles = 23;
        a.ifu.buffer_bytes_accum = 24;
        let mut b = Stats::new();
        restore_image(&mut b, &save_image(&mut a)).unwrap();
        assert_eq!(a, b);
        assert_eq!(save_image(&mut a), save_image(&mut b));
    }

    #[test]
    fn since_subtracts_structured_counters() {
        let mut a = Stats::new();
        a.cycles = 10;
        a.held_by[0][0] = 2;
        a.cache.processor.refs = 4;
        a.storage.busy_cycles = 8;
        a.ifu.dispatches = 1;
        let mut b = a.clone();
        b.cycles = 30;
        b.held_by[0][0] = 6;
        b.cache.processor.refs = 10;
        b.storage.busy_cycles = 20;
        b.ifu.dispatches = 5;
        let d = b.since(&a);
        assert_eq!(d.held_by[0][0], 4);
        assert_eq!(d.cache.processor.refs, 6);
        assert_eq!(d.storage.busy_cycles, 12);
        assert_eq!(d.ifu.dispatches, 4);
    }
}
