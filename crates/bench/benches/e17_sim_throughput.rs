//! E17: raw simulator throughput (host Mcycles/s), with and without the
//! event-horizon I/O scheduler.
//!
//! Two workloads bracket the design space:
//!
//! * **workstation** — the §4 single-machine scenario (Mesa fib(15) plus
//!   display/disk/network device tasks).  Device-heavy: the disk and
//!   display pace real events, so the scheduler's win comes from skipping
//!   the cycles *between* events.
//! * **cluster8** — eight machines on the deterministic Ethernet running
//!   the closed-loop RPC workload, sequential executor (low noise).
//!   Network-idle-heavy: machines spend long stretches with empty FIFOs.
//!
//! Each workload runs two ways: `always_tick` (the naive reference —
//! every device ticked every cycle, exactly the pre-scheduler simulator)
//! and `scheduled` (the event-horizon default).  Both modes are asserted
//! to produce the same architectural results before any number is
//! reported.
//!
//! ```sh
//! cargo bench -p dorado-bench --bench e17_sim_throughput               # full
//! cargo bench -p dorado-bench --bench e17_sim_throughput -- --quick   # ci-sized
//! cargo bench ... -- --json BENCH_PERF.json     # write machine-readable results
//! cargo bench ... -- --check BENCH_PERF.json    # fail if >25% below committed
//! ```
//!
//! The `--check` gate compares the scheduled-vs-naive speedup ratios
//! against the committed `BENCH_PERF.json` and fails on a >25%
//! regression.  Set `DORADO_E17_NO_GATE=1` to skip the gate (slow or
//! shared hardware).

use std::time::Instant;

use dorado_bench::{json_number, workstation_machine};
use dorado_cluster::{ClusterConfig, ClusterSim, Exec};
use dorado_emu::mesa;

/// One measured configuration of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Naive reference: every device ticked every cycle.
    Naive,
    /// Event-horizon scheduled interpreter (the default).
    Scheduled,
}

impl Mode {
    const ALL: [Mode; 2] = [Mode::Naive, Mode::Scheduled];
}

const WINDOW: u16 = 3;
const PAYLOAD: u16 = 2;
const EPOCH_CYCLES: u64 = 2_000;

struct Sized {
    workstation_cycles: u64,
    cluster_epochs: u64,
    samples: usize,
}

const FULL: Sized = Sized {
    workstation_cycles: 2_000_000,
    cluster_epochs: 150,
    samples: 9,
};
const QUICK: Sized = Sized {
    workstation_cycles: 400_000,
    cluster_epochs: 40,
    samples: 3,
};

/// Runs the workstation workload once; returns (simulated cycles, seconds,
/// fib result) so the modes can be cross-checked.
fn run_workstation(budget: u64, mode: Mode) -> (u64, f64, dorado_base::Word) {
    let mut m = workstation_machine();
    m.io_mut().set_always_tick(mode == Mode::Naive);
    let t = Instant::now();
    m.run(budget);
    let secs = t.elapsed().as_secs_f64();
    (m.cycles(), secs, mesa::tos(&m))
}

/// Runs the 8-machine cluster sequentially; returns (aggregate simulated
/// machine-cycles, seconds, completed responses).
fn run_cluster(epochs: u64, mode: Mode) -> (u64, f64, u64) {
    let mut cfg = ClusterConfig::pairs(8, WINDOW, PAYLOAD);
    cfg.epoch_cycles = EPOCH_CYCLES;
    let mut sim = ClusterSim::build(&cfg).expect("cluster builds");
    for m in &mut sim.machines {
        m.io_mut().set_always_tick(mode == Mode::Naive);
    }
    let t = Instant::now();
    sim.run(epochs, Exec::Sequential);
    let secs = t.elapsed().as_secs_f64();
    let cycles: u64 = sim.machines.iter().map(dorado_core::Dorado::cycles).sum();
    (cycles, secs, sim.responses())
}

/// Best-of-N Mcycles/s for every mode of one workload, sampled
/// *interleaved* (naive, scheduled, naive, ...) so a sustained slow
/// window on a shared host hits both sides rather than biasing the ratio.
/// Asserts every sample reproduces the same architectural result and that
/// both modes agree on it.
fn measure_modes<C: PartialEq + std::fmt::Debug>(
    samples: usize,
    mut run: impl FnMut(Mode) -> (u64, f64, C),
) -> ([f64; 2], C) {
    let mut best = [0.0f64; 2];
    let (mut cycles0, mut check0) = (None, None);
    for _ in 0..samples.max(1) {
        for (slot, mode) in Mode::ALL.into_iter().enumerate() {
            let (cycles, secs, check) = run(mode);
            if let (Some(c0), Some(k0)) = (&cycles0, &check0) {
                assert_eq!(*c0, cycles, "simulated cycle count must be deterministic");
                assert_eq!(
                    k0, &check,
                    "execution modes must be architecturally invisible (same result everywhere)"
                );
            } else {
                cycles0 = Some(cycles);
                check0 = Some(check);
            }
            best[slot] = best[slot].max(cycles as f64 / secs.max(1e-9) / 1e6);
        }
    }
    (best, check0.expect("at least one sample"))
}

fn main() {
    let mut quick = false;
    let mut json_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--json" => json_path = Some(args.next().expect("--json needs a path")),
            s if s.starts_with("--json=") => json_path = Some(s["--json=".len()..].to_string()),
            "--check" => check_path = Some(args.next().expect("--check needs a path")),
            s if s.starts_with("--check=") => check_path = Some(s["--check=".len()..].to_string()),
            "--bench" => {} // cargo bench passes this through
            other => panic!("unknown argument `{other}`"),
        }
    }
    let size = if quick { QUICK } else { FULL };

    println!(
        "E17 | workstation {} cycles, cluster 8 machines x {} epochs x {EPOCH_CYCLES} cycles, best of {} sample(s){}",
        size.workstation_cycles,
        size.cluster_epochs,
        size.samples,
        if quick { " (quick)" } else { "" },
    );

    let ([ws_naive, ws_sched], fib) = measure_modes(size.samples, |mode| {
        run_workstation(size.workstation_cycles, mode)
    });
    let ws_speedup = ws_sched / ws_naive.max(1e-9);
    println!(
        "E17 | workstation: always_tick {ws_naive:.2} Mcycles/s, scheduled {ws_sched:.2} Mcycles/s, speedup x{ws_speedup:.2} (fib(15) = {fib})"
    );

    let ([cl_naive, cl_sched], responses) =
        measure_modes(size.samples, |mode| run_cluster(size.cluster_epochs, mode));
    let cl_speedup = cl_sched / cl_naive.max(1e-9);
    println!(
        "E17 | cluster8: always_tick {cl_naive:.2} Mcycles/s, scheduled {cl_sched:.2} Mcycles/s, speedup x{cl_speedup:.2} ({responses} responses)"
    );

    if let Some(path) = &json_path {
        let json = format!(
            "{{\n  \"schema\": \"dorado-e17-v3\",\n  \"quick\": {quick},\n  \"workstation_always_tick_mcps\": {ws_naive:.3},\n  \"workstation_scheduled_mcps\": {ws_sched:.3},\n  \"workstation_speedup\": {ws_speedup:.3},\n  \"cluster8_always_tick_mcps\": {cl_naive:.3},\n  \"cluster8_scheduled_mcps\": {cl_sched:.3},\n  \"cluster8_speedup\": {cl_speedup:.3}\n}}\n"
        );
        std::fs::write(path, json).expect("write results json");
        println!("E17 | wrote {path}");
    }

    if let Some(path) = &check_path {
        let committed =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("--check {path}: {e}"));
        // Absolute Mcycles/s is not comparable across hosts (or even across
        // invocations on a noisy shared runner — we have measured ±2×), so
        // the hard gate is on the *in-process* scheduled-vs-naive speedup
        // ratios, which cancel host speed.  Absolute throughput is still
        // printed against the committed numbers for the log.
        if std::env::var("DORADO_E17_NO_GATE").is_ok_and(|v| v == "1") {
            println!("E17 | gate skipped (DORADO_E17_NO_GATE=1)");
            return;
        }
        let mut failed = false;
        for (key, measured, abs_key, abs) in [
            (
                "workstation_speedup",
                ws_speedup,
                "workstation_scheduled_mcps",
                ws_sched,
            ),
            (
                "cluster8_speedup",
                cl_speedup,
                "cluster8_scheduled_mcps",
                cl_sched,
            ),
        ] {
            let baseline = json_number(&committed, key)
                .unwrap_or_else(|| panic!("--check {path}: missing key {key}"));
            let floor = baseline * 0.75;
            let verdict = if measured < floor { "FAIL" } else { "ok" };
            println!(
                "E17 | gate {key}: measured x{measured:.2} vs committed x{baseline:.2} (floor x{floor:.2}) {verdict}"
            );
            failed |= measured < floor;
            if let Some(abs_base) = json_number(&committed, abs_key) {
                println!(
                    "E17 | info {abs_key}: measured {abs:.2} vs committed {abs_base:.2} (host-dependent, not gated)"
                );
            }
        }
        if failed {
            eprintln!(
                "E17 | a scheduler speedup ratio regressed >25% vs {path}; rerun the full bench and recommit, or set DORADO_E17_NO_GATE=1"
            );
            std::process::exit(1);
        }
        println!("E17 | gate passed");
    }
}
