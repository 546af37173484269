//! The repository benchmark: four seeded workloads that drive the
//! Dorado workspace through its crates' public functions, check every
//! output, and report end-to-end and per-layer metrics.
//!
//! * [`workstation`] — interactive sessions on the §4 machine (display,
//!   disk, network, keyboard, mouse): `io` carries much of the host time;
//! * [`programs`] — seeded `dorado-lang` programs on a device-free Mesa
//!   machine: `core`, `ifu` and `mem` do all the work, `io` is bypassed;
//! * [`cluster`] — 64 machines under open-loop request load on the pool
//!   executor: the `cluster` executor and fabric are on the path;
//! * [`toolchain`] — emit, place, lint and optimize microcode with no
//!   simulation at all: `asm`, `ulint`, `uopt` and `lang` do the work.
//!
//! Each workload's inputs are a pure function of the seed.  Work is cut
//! into *passes* of a fixed number of ops; pass `k` draws fresh inputs
//! from the seed and `k`, with the same mix of work in every pass.  The
//! deterministic metrics are counted over the first pass.  The timed
//! phase runs passes until the requested seconds have elapsed; each
//! host-time metric is taken within a pass and summarised over all of
//! them.  A traced run replays the first pass with a span around every
//! public call; the per-layer metrics come from that replay (see
//! [`protocol`]).

#![forbid(unsafe_code)]

pub mod cluster;
pub mod programs;
pub mod protocol;
pub mod toolchain;
pub mod trace;
pub mod workstation;

use std::collections::BTreeMap;

use dorado_base::{HoldCause, Stats, TaskId};

pub use protocol::{run, run_sized, Options, Outcome};
pub use trace::Tracer;

/// Default seed of the benchmark runs (`selfcheck.sh` holds seed 7 back
/// for checking a claim on inputs not used while a change was written).
pub const DEFAULT_SEED: u64 = 1;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Interactive workstation sessions.
    Workstation,
    /// Compiled programs on a device-free machine.
    Programs,
    /// A 64-machine cluster under open-loop load.
    Cluster,
    /// The microcode toolchain.
    Toolchain,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 4] = [
        Kind::Workstation,
        Kind::Programs,
        Kind::Cluster,
        Kind::Toolchain,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Workstation => "workstation",
            Kind::Programs => "programs",
            Kind::Cluster => "cluster",
            Kind::Toolchain => "toolchain",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Ops in one pass at the benchmark's size.
    pub fn default_pass_len(self) -> usize {
        match self {
            Kind::Workstation => workstation::PASS_SESSIONS,
            Kind::Programs => programs::PASS_PROGRAMS,
            Kind::Cluster => cluster::PASS_EPOCHS,
            Kind::Toolchain => toolchain::PASS_UNITS,
        }
    }

    /// A printable rendering of the inputs `seed` generates for the first
    /// pass of `pass_len` ops: equal renderings mean equal inputs.
    pub fn inputs(self, seed: u64, pass_len: usize) -> String {
        match self {
            Kind::Workstation => format!("{:?}", workstation::sessions(seed, 0, pass_len)),
            Kind::Programs => format!("{:?}", programs::specs(seed, 0, pass_len)),
            Kind::Cluster => format!("{:?}", cluster::periods(seed)),
            Kind::Toolchain => format!("{:?}", toolchain::units(seed, 0, pass_len)),
        }
    }
}

/// Deterministic counters summed over the ops of one pass, keyed by
/// metric name.  Simulated counts only: no host time goes in here.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    /// Adds `v` to counter `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_default() += v;
    }

    /// Raises counter `key` to at least `v`.
    pub fn max(&mut self, key: &'static str, v: f64) {
        let e = self.0.entry(key).or_default();
        *e = e.max(v);
    }

    /// Counter `key`, 0 if never touched.
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }
}

const HOLD_KEYS: [&str; HoldCause::COUNT] = [
    "core.held.mem_pipe",
    "core.held.mem_storage",
    "core.held.mem_data",
    "core.held.ifu_operand",
    "core.held.ifu_dispatch",
];

/// Adds one machine's statistics to the ledger.
pub fn add_stats(l: &mut Ledger, s: &Stats) {
    l.add("core.cycles", s.cycles as f64);
    l.add("core.instructions", s.instructions() as f64);
    l.add("core.held_cycles", s.held_cycles() as f64);
    l.add("core.task_switches", s.task_switches as f64);
    l.add("core.emu_executed", s.executed_by(TaskId::EMULATOR) as f64);
    for cause in HoldCause::ALL {
        l.add(HOLD_KEYS[cause.index()], s.holds_for(cause) as f64);
    }
    l.add("mem.cache_refs", s.cache_refs as f64);
    l.add("mem.cache_hits", s.cache_hits as f64);
    l.add("mem.ifu_refs", s.cache.ifu.refs as f64);
    l.add("mem.fast_io_refs", s.cache.fast_io.refs as f64);
    l.add("mem.storage_refs", s.storage_refs as f64);
    l.add("mem.storage_busy_cycles", s.storage.busy_cycles as f64);
    l.add("ifu.macro_instructions", s.macro_instructions as f64);
    l.add("ifu.dispatches", s.ifu.dispatches as f64);
    l.add("ifu.fetches", s.ifu.fetches as f64);
    l.add("io.slow_io_words", s.slow_io_words as f64);
    l.add("io.fast_io_munches", s.fast_io_munches as f64);
    l.add("io.overruns", s.io_overruns as f64);
}

/// One workload, set up for one seed.
pub trait Workload {
    /// Ops in one pass.
    fn pass_len(&self) -> usize;

    /// Runs op `i` (counted from the first timed op), adds its simulated
    /// counters to `ledger`, and returns whether its output was correct.
    fn run_op(&mut self, i: usize, tr: &mut Tracer, ledger: &mut Ledger) -> bool;

    /// Called at the end of every pass (and once after the warm-up op,
    /// with a ledger that is thrown away).
    fn end_pass(&mut self, _ledger: &mut Ledger) {}

    /// Prepares the traced replay of the first pass.  Returns the host
    /// nanoseconds of an untraced run of the replay's own path when that
    /// path differs from the untraced pass's.
    fn start_replay(&mut self, _tr: &mut Tracer) -> Option<u64> {
        None
    }

    /// Checks, beyond the ledgers, that the replay reproduced the
    /// untraced pass.
    ///
    /// # Errors
    ///
    /// Describes the first difference.
    fn check_replay(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Ends the run.  Returns `(attempted, failed)` when the workload
    /// counts correctness in its own unit instead of ops.
    fn close(&mut self) -> Option<(u64, u64)> {
        None
    }

    /// Workload-specific metrics, by name, from the first pass and the
    /// trace.
    fn extra_metrics(&self, _tr: &Tracer) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// The generator of pass `pass` of a workload: `salt` keeps workloads
/// apart, so one seed gives every workload its own inputs.
pub(crate) fn pass_rng(seed: u64, salt: u64, pass: usize) -> dorado_base::check::Rng {
    dorado_base::check::Rng::new(seed ^ salt ^ (pass as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The inputs of the pass an op belongs to.  Pass `k` is generated from
/// the seed and `k` when its first op runs, so every pass runs fresh
/// inputs and op `i` is the same in every run with the same seed.
pub(crate) struct Passes<T> {
    seed: u64,
    len: usize,
    pass: usize,
    inputs: Vec<T>,
    generate: fn(u64, usize, usize) -> Vec<T>,
}

impl<T> Passes<T> {
    /// Pass 0 of `len` inputs; `generate(seed, pass, len)` makes a pass.
    pub(crate) fn new(seed: u64, len: usize, generate: fn(u64, usize, usize) -> Vec<T>) -> Self {
        Passes {
            seed,
            len,
            pass: 0,
            inputs: generate(seed, 0, len),
            generate,
        }
    }

    /// Inputs per pass.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The input of op `i`.
    pub(crate) fn get(&mut self, i: usize) -> &T {
        let pass = i / self.len;
        if pass != self.pass {
            self.inputs = (self.generate)(self.seed, pass, self.len);
            self.pass = pass;
        }
        &self.inputs[i % self.len]
    }
}
