//! The run protocol every workload shares.
//!
//! **Untraced run** (the end-to-end numbers):
//!
//! 1. Set-up, repeated [`SETUP_REPEATS`] times: generate the seeded
//!    inputs, assemble suites and build machines, run one warm-up op.
//!    `setup_s` is the median; the last set-up is kept.
//! 2. The timed phase: whole passes, until `seconds` have elapsed (at
//!    least one).  Every op's output is checked.  `ops_per_s` and
//!    `op_ms_p50`/`op_ms_p90` are taken within each pass and reported at
//!    the fastest quartile over passes; `peak_heap_mb` is the heap's
//!    high-water mark at the end of the first pass.
//! 3. The deterministic metrics are counted over the first pass.
//!
//! **Traced run** (the per-layer numbers): one set-up with spans, one
//! untraced pass, then the same pass again with a span around every
//! public call.  The two passes must produce identical counters.
//! `bench.trace_overhead` is the traced pass's host time over the
//! untraced one's.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::trace::SETUP_OP;
use crate::{cluster, programs, toolchain, workstation, Kind, Ledger, Tracer, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// The input seed.
    pub seed: u64,
    /// Seconds of timed work (whole passes, at least one).
    pub seconds: f64,
    /// Run the traced replay instead of the timed phase.
    pub trace: bool,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Units whose output was checked.
    pub attempted: u64,
    /// Units whose output was wrong.
    pub failed: u64,
    /// The end-to-end metrics (untraced run) or the per-layer metrics
    /// (traced run), in [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<Metric>,
    /// The deterministic metrics of the first pass.
    pub deterministic: Vec<Metric>,
    /// Further host numbers of the untraced run, printed but not gated.
    pub info: Vec<Metric>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Whether every checked output was right.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// `(name, unit, better)` of every end-to-end metric.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("peak_heap_mb", "MB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric.
pub const PER_LAYER: [(&str, &str, &str); 61] = [
    ("bench.trace_overhead", "ratio", "lower"),
    ("bench.self_ms", "ms/op", "lower"),
    ("emu.self_ms", "ms/op", "lower"),
    ("core.self_ms", "ms/op", "lower"),
    ("lang.self_ms", "ms/op", "lower"),
    ("asm.self_ms", "ms/op", "lower"),
    ("ulint.self_ms", "ms/op", "lower"),
    ("uopt.self_ms", "ms/op", "lower"),
    ("cluster.self_ms", "ms/op", "lower"),
    ("sim_mcps", "Mcycles/s", "higher"),
    ("sim_cycles_per_op", "cycles", "lower"),
    ("macro_cpi", "cycles/instr", "lower"),
    ("fail_ratio", "ratio", "lower"),
    ("req_lat_us_p50", "us", "lower"),
    ("req_lat_us_p99", "us", "lower"),
    ("goodput_krps", "krps", "higher"),
    ("core.run_ns_per_cycle", "ns", "lower"),
    ("core.instructions", "count/op", "lower"),
    ("core.held_cycles", "count/op", "lower"),
    ("core.task_switches", "count/op", "lower"),
    ("core.emu_share", "ratio", "higher"),
    ("core.held.mem_pipe", "count/op", "lower"),
    ("core.held.mem_storage", "count/op", "lower"),
    ("core.held.mem_data", "count/op", "lower"),
    ("core.held.ifu_operand", "count/op", "lower"),
    ("core.held.ifu_dispatch", "count/op", "lower"),
    ("mem.cache_refs", "count/op", "lower"),
    ("mem.cache_hit_ratio", "ratio", "higher"),
    ("mem.ifu_refs", "count/op", "lower"),
    ("mem.fast_io_refs", "count/op", "lower"),
    ("mem.storage_refs", "count/op", "lower"),
    ("mem.storage_busy_cycles", "count/op", "lower"),
    ("ifu.macro_instructions", "count/op", "lower"),
    ("ifu.dispatches", "count/op", "lower"),
    ("ifu.fetches", "count/op", "lower"),
    ("io.slow_io_words", "count/op", "higher"),
    ("io.fast_io_munches", "count/op", "higher"),
    ("io.overruns", "count/op", "lower"),
    ("io.fields", "count/op", "higher"),
    ("io.painted_words", "count/op", "higher"),
    ("io.underruns", "count/op", "lower"),
    ("io.input_events", "count/op", "higher"),
    ("io.input_latency_max_cycles", "cycles", "lower"),
    ("cluster.quantum_ms", "ms", "lower"),
    ("cluster.quantum_imbalance", "ratio", "lower"),
    ("cluster.send_us", "us", "lower"),
    ("cluster.collect_us", "us", "lower"),
    ("cluster.pool_speedup", "ratio", "higher"),
    ("cluster.build_ms", "ms", "lower"),
    ("cluster.packets", "count/op", "higher"),
    ("cluster.drops", "count/op", "lower"),
    ("emu.suite_assemble_ms", "ms", "lower"),
    ("emu.emit_ms", "ms/op", "lower"),
    ("asm.place_ms", "ms/op", "lower"),
    ("asm.words_placed", "count/op", "lower"),
    ("asm.utilization", "ratio", "higher"),
    ("ulint.lint_ms", "ms/op", "lower"),
    ("ulint.diagnostics", "count/op", "lower"),
    ("uopt.optimize_ms", "ms/op", "lower"),
    ("uopt.rewrites", "count/op", "higher"),
    ("uopt.words_saved", "count/op", "higher"),
];

/// Runs one workload at the benchmark's size.  `peak_heap` reports the
/// process's peak heap bytes so far (0 where it is not measured).
///
/// # Errors
///
/// Returns a description when a traced replay does not reproduce the
/// untraced run.
pub fn run(opts: &Options, peak_heap: &dyn Fn() -> u64) -> Result<Outcome, String> {
    run_sized(opts, opts.kind.default_pass_len(), peak_heap)
}

/// [`run`] with `pass_len` ops per pass.
///
/// # Errors
///
/// See [`run`].
pub fn run_sized(
    opts: &Options,
    pass_len: usize,
    peak_heap: &dyn Fn() -> u64,
) -> Result<Outcome, String> {
    match opts.kind {
        Kind::Workstation => measure(opts, pass_len, peak_heap, workstation::Workstation::setup),
        Kind::Programs => measure(opts, pass_len, peak_heap, programs::Programs::setup),
        Kind::Cluster => measure(opts, pass_len, peak_heap, cluster::Cluster::setup),
        Kind::Toolchain => measure(opts, pass_len, peak_heap, toolchain::Toolchain::setup),
    }
}

type Setup<W> = fn(u64, usize, &mut Tracer) -> W;

fn measure<W: Workload>(
    opts: &Options,
    pass_len: usize,
    peak_heap: &dyn Fn() -> u64,
    setup: Setup<W>,
) -> Result<Outcome, String> {
    if opts.trace {
        traced(opts, pass_len, setup)
    } else {
        Ok(untraced(opts, pass_len, peak_heap, setup))
    }
}

/// Runs op `i` inside its `bench.op` span.
fn op<W: Workload>(w: &mut W, i: usize, tr: &mut Tracer, ledger: &mut Ledger) -> bool {
    tr.set_op(i as u64);
    tr.span("bench.op", |tr| w.run_op(i, tr, ledger))
}

/// Set-up plus the warm-up op.
fn set_up<W: Workload>(seed: u64, pass_len: usize, tr: &mut Tracer, setup: Setup<W>) -> W {
    let mut w = setup(seed, pass_len, tr);
    w.run_op(0, &mut Tracer::disabled(), &mut Ledger::default());
    w.end_pass(&mut Ledger::default());
    w
}

fn untraced<W: Workload>(
    opts: &Options,
    pass_len: usize,
    peak_heap: &dyn Fn() -> u64,
    setup: Setup<W>,
) -> Outcome {
    let mut off = Tracer::disabled();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(set_up(opts.seed, pass_len, &mut off, setup));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut w = kept.expect("at least one set-up");
    let n = w.pass_len();

    // Per pass: ops per second and the op-time percentiles.  Interference
    // from other tenants of the host only ever adds time, and it comes in
    // bursts of seconds that can cover most of a run, so each host metric
    // is taken within a pass and reported at the quartile of passes it
    // disturbed least: the fastest quarter.
    let (mut rates, mut p50s, mut p90s) = (Vec::new(), Vec::new(), Vec::new());
    let mut op_ns: Vec<u64> = Vec::with_capacity(n);
    let mut first: Option<Ledger> = None;
    let (mut attempted, mut failed, mut cycles, mut busy_ns, mut peak) =
        (0u64, 0u64, 0.0, 0u64, 0u64);
    let start = Instant::now();
    let mut i = 0;
    while first.is_none() || start.elapsed().as_secs_f64() < opts.seconds {
        let mut ledger = Ledger::default();
        op_ns.clear();
        let pass_start = Instant::now();
        for _ in 0..n {
            let t = Instant::now();
            let ok = op(&mut w, i, &mut off, &mut ledger);
            op_ns.push(nanos(t));
            attempted += 1;
            failed += u64::from(!ok);
            i += 1;
        }
        rates.push(n as f64 / pass_start.elapsed().as_secs_f64());
        busy_ns += op_ns.iter().sum::<u64>();
        p50s.push(percentile(&mut op_ns, 0.50) / 1e6);
        p90s.push(percentile(&mut op_ns, 0.90) / 1e6);
        w.end_pass(&mut ledger);
        cycles += ledger.get("core.cycles");
        if first.is_none() {
            peak = peak_heap();
            first = Some(ledger);
        }
    }
    if let Some((a, f)) = w.close() {
        attempted = a;
        failed += f;
    }
    let first = first.expect("at least one pass");
    let passes = rates.len();
    let metrics = vec![
        metric("setup_s", quantile(setup_s, 0.5), "s"),
        metric("ops_per_s", quantile(rates, 0.75), "1/s"),
        metric("op_ms_p50", quantile(p50s, 0.25), "ms"),
        metric("op_ms_p90", quantile(p90s, 0.25), "ms"),
        metric("peak_heap_mb", peak as f64 / f64::from(1u32 << 20), "MB"),
    ];
    let info = vec![
        metric("sim_mcps", ratio(cycles * 1e3, busy_ns as f64), "Mcycles/s"),
        metric("passes", passes as f64, "count"),
        metric("ops", (passes * n) as f64, "count"),
    ];
    let extras = w.extra_metrics(&off);
    Outcome {
        attempted,
        failed,
        metrics,
        deterministic: deterministic(&first, n, attempted, failed, &extras),
        info,
        tracer: None,
    }
}

fn traced<W: Workload>(
    opts: &Options,
    pass_len: usize,
    setup: Setup<W>,
) -> Result<Outcome, String> {
    let mut tr = Tracer::enabled();
    let mut w = set_up(opts.seed, pass_len, &mut tr, setup);
    let n = w.pass_len();
    let (mut attempted, mut failed) = (0u64, 0u64);

    let mut off = Tracer::disabled();
    let mut untraced = Ledger::default();
    let start = Instant::now();
    for i in 0..n {
        failed += u64::from(!op(&mut w, i, &mut off, &mut untraced));
        attempted += 1;
    }
    let untraced_ns = nanos(start);
    w.end_pass(&mut untraced);

    let baseline_ns = w.start_replay(&mut tr).unwrap_or(untraced_ns);
    let mut replayed = Ledger::default();
    let start = Instant::now();
    for i in 0..n {
        failed += u64::from(!op(&mut w, i, &mut tr, &mut replayed));
        attempted += 1;
    }
    let traced_ns = nanos(start);
    w.end_pass(&mut replayed);
    if replayed != untraced {
        return Err("the traced replay's counters differ from the untraced pass's".into());
    }
    w.check_replay()?;
    if let Some((a, f)) = w.close() {
        attempted = a;
        failed += f;
    }

    let extras = w.extra_metrics(&tr);
    let deterministic = deterministic(&replayed, n, attempted, failed, &extras);
    let mut values: BTreeMap<&str, f64> = deterministic.iter().map(|m| (m.name, m.value)).collect();
    values.extend(extras.iter().copied());
    let per_op_ms = |ns: u64| ns as f64 / n as f64 / 1e6;
    let in_ops = |op: u64| op != SETUP_OP;
    let self_ns = tr.self_ns_by_layer(in_ops);
    for (name, _, _) in PER_LAYER {
        if let Some(layer) = name.strip_suffix(".self_ms") {
            values.insert(name, per_op_ms(self_ns.get(layer).copied().unwrap_or(0)));
        }
    }
    let total = |name: &str| tr.total_ns(name, in_ops);
    values.insert(
        "bench.trace_overhead",
        ratio(traced_ns as f64, baseline_ns as f64),
    );
    values.insert(
        "sim_mcps",
        ratio(untraced.get("core.cycles") * 1e3, untraced_ns as f64),
    );
    values.insert(
        "core.run_ns_per_cycle",
        ratio(
            (total("core.run") + total("core.run_quantum")) as f64,
            replayed.get("core.run_cycles"),
        ),
    );
    values.insert(
        "emu.suite_assemble_ms",
        tr.total_ns("emu.assemble", |op| op == SETUP_OP) as f64 / 1e6,
    );
    values.insert("emu.emit_ms", per_op_ms(total("emu.emit")));
    values.insert("asm.place_ms", per_op_ms(total("asm.place")));
    values.insert(
        "ulint.lint_ms",
        per_op_ms(total("ulint.lint") + total("ulint.lint_bytecode")),
    );
    values.insert("uopt.optimize_ms", per_op_ms(total("uopt.optimize")));
    values.insert(
        "lang.compile_us",
        ratio(
            total("lang.compile") as f64 / 1e3,
            replayed.get("lang.compiles"),
        ),
    );
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| metric(name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        deterministic,
        info: Vec::new(),
        tracer: Some(tr),
    })
}

/// Workload metrics that are simulated results rather than host times.
const DETERMINISTIC_EXTRAS: [&str; 3] = ["req_lat_us_p50", "req_lat_us_p99", "goodput_krps"];

/// The metrics counted over one pass of `n` ops: identical for a given
/// seed on every host and every run, so a change that only speeds up the
/// simulator must leave all of them unchanged.
fn deterministic(
    l: &Ledger,
    n: usize,
    attempted: u64,
    failed: u64,
    extras: &[(&'static str, f64)],
) -> Vec<Metric> {
    let per_op = |key: &str| l.get(key) / n as f64;
    let mut values: Vec<(&'static str, f64)> = vec![
        ("sim_cycles_per_op", per_op("core.cycles")),
        (
            "macro_cpi",
            ratio(l.get("core.cycles"), l.get("ifu.macro_instructions")),
        ),
        ("fail_ratio", ratio(failed as f64, attempted as f64)),
        (
            "core.emu_share",
            ratio(l.get("core.emu_executed"), l.get("core.cycles")),
        ),
        (
            "mem.cache_hit_ratio",
            ratio(l.get("mem.cache_hits"), l.get("mem.cache_refs")),
        ),
        (
            "io.input_latency_max_cycles",
            l.get("io.input_latency_max_cycles"),
        ),
        (
            "asm.utilization",
            ratio(l.get("asm.words_placed"), l.get("asm.footprint")),
        ),
    ];
    for (name, unit, _) in PER_LAYER {
        if unit == "count/op" {
            values.push((name, per_op(name)));
        }
    }
    values.extend(
        extras
            .iter()
            .filter(|(name, _)| DETERMINISTIC_EXTRAS.contains(name)),
    );
    values
        .into_iter()
        .map(|(name, value)| {
            let unit = PER_LAYER.iter().find(|m| m.0 == name).map_or("", |m| m.1);
            metric(name, value, unit)
        })
        .collect()
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// `num / den`, 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank percentile `p` in `[0, 1]`, 0 for no values.
fn percentile(xs: &mut [u64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable();
    let rank = ((p * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1] as f64
}

/// Quantile `q` in `[0, 1]` of `xs` by linear interpolation (0.5 is the
/// median), 0 for no values.
pub fn quantile(mut xs: Vec<f64>, q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let at = q * (xs.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (at - lo as f64)
}
