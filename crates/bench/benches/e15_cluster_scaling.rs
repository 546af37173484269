//! E15 (§2): many Dorados on one Ethernet — now to fleet scale.  Sweeps
//! cluster size over 1→256 machines running the closed-loop RPC workload
//! and reports, per size:
//!
//! * aggregate completed requests per second of *simulated* time (the
//!   throughput scaling claim: client/server pairs scale linearly), and
//! * wall-clock epochs/s under all three executors — sequential oracle,
//!   legacy thread-per-machine, and the work-stealing pool — on identical
//!   work (bit-identical schedules make this a pure execution-strategy
//!   comparison).  The pool-vs-threads ratio at 256 machines is the E15
//!   scaling claim: one OS thread per simulated machine stops scaling the
//!   moment machines outnumber cores.
//!
//! E21 rides on the same binary: an open-loop saturation sweep (8
//! servers + 8 burst generators, offered load stepped by shrinking the
//! firing period) reporting offered load vs. goodput vs. drops vs.
//! p50/p99/p999 round-trip latency — the serving-stack SLO view.
//!
//! ```sh
//! cargo bench -p dorado-bench --bench e15_cluster_scaling               # full
//! cargo bench -p dorado-bench --bench e15_cluster_scaling -- --quick   # ci-sized
//! cargo bench ... -- --json BENCH_CLUSTER.json   # write machine-readable results
//! cargo bench ... -- --check BENCH_CLUSTER.json  # fail if pool speedup regressed
//! ```
//!
//! The `--check` gate compares the in-process pool-vs-threads wall-clock
//! ratio at 256 machines (host-speed cancels) against the committed
//! `BENCH_CLUSTER.json` and fails on a >25% regression.  Set
//! `DORADO_E21_NO_GATE=1` to skip (slow or shared hardware).

use std::time::Instant;

use dorado_bench::json_number;
use dorado_cluster::{ClusterConfig, ClusterSim, Exec};

const WINDOW: u16 = 3;
const PAYLOAD: u16 = 2;
const EPOCH_CYCLES: u64 = 2_000;
const SIZES: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];
const SAT_MACHINES: usize = 16;
const SAT_BURST: u16 = 4;
const SAT_PERIODS: [u16; 5] = [400, 150, 60, 25, 10];

/// Epochs per scaling point, scaled down with cluster size so the sweep
/// stays CI-sized while every point still moves real traffic.
fn epochs_for(machines: usize, quick: bool) -> u64 {
    let budget = if quick { 400 } else { 1_200 };
    let (lo, hi) = if quick { (10, 40) } else { (30, 150) };
    (budget / machines as u64).clamp(lo, hi)
}

fn build(machines: usize) -> ClusterSim {
    let mut cfg = ClusterConfig::pairs(machines, WINDOW, PAYLOAD);
    cfg.epoch_cycles = EPOCH_CYCLES;
    ClusterSim::build(&cfg).expect("cluster builds")
}

/// Runs one (size, executor) point; returns (sim, wall-clock epochs/s).
fn run(machines: usize, epochs: u64, exec: Exec) -> (ClusterSim, f64) {
    let mut sim = build(machines);
    let t = Instant::now();
    sim.run(epochs, exec);
    (sim, epochs as f64 / t.elapsed().as_secs_f64().max(1e-9))
}

/// One saturation point: open-loop generators at `period`, pool executor.
fn run_saturation(period: u16, quick: bool) -> ClusterSim {
    let mut cfg = ClusterConfig::open_loop(SAT_MACHINES, period, SAT_BURST, PAYLOAD);
    cfg.epoch_cycles = EPOCH_CYCLES;
    let mut sim = ClusterSim::build(&cfg).expect("cluster builds");
    sim.run(if quick { 50 } else { 150 }, Exec::Pool(0));
    sim
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

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "E15 | scaling 1->256 machines, {EPOCH_CYCLES}-cycle epochs, closed-loop window {WINDOW}, \
         payload {PAYLOAD} words, {cores} core(s) available{}",
        if quick { " (quick)" } else { "" },
    );
    if cores == 1 {
        println!(
            "E15 | single-core host: the pool degenerates to ~sequential; \
             thread-per-machine still pays per-machine spawn + barrier convoys"
        );
    }

    let mut json = format!(
        "{{\n  \"schema\": \"dorado-e15-v3\",\n  \"quick\": {quick},\n  \"cores\": {cores}"
    );
    let mut speedup_256 = None;
    for machines in SIZES {
        let epochs = epochs_for(machines, quick);
        let (seq, seq_eps) = run(machines, epochs, Exec::Sequential);
        let (pool, pool_eps) = run(machines, epochs, Exec::Pool(0));
        let (threads, threads_eps) = run(machines, epochs, Exec::Threads);
        assert_eq!(
            seq.responses(),
            pool.responses(),
            "pool run must match sequential at {machines} machines"
        );
        assert_eq!(
            seq.responses(),
            threads.responses(),
            "threads run must match sequential at {machines} machines"
        );
        let w = seq.workload_summary();
        let pool_vs_threads = pool_eps / threads_eps.max(1e-9);
        println!(
            "E15 | {machines:>3} machine(s) x {epochs} epoch(s): {:.0} req/s simulated \
             ({} responses), p50 {} p99 {} cycles; epochs/s seq {seq_eps:.1} pool {pool_eps:.1} \
             threads {threads_eps:.1} (pool x{pool_vs_threads:.2} vs threads)",
            w.goodput_rps, w.responses, w.latency.p50, w.latency.p99,
        );
        json.push_str(&format!(
            ",\n  \"scaling_{machines}_req_s\": {:.1},\n  \"scaling_{machines}_seq_eps\": {seq_eps:.2},\n  \"scaling_{machines}_pool_eps\": {pool_eps:.2},\n  \"scaling_{machines}_threads_eps\": {threads_eps:.2}",
            w.goodput_rps,
        ));
        if machines == 256 {
            speedup_256 = Some(pool_vs_threads);
        }
    }
    let speedup_256 = speedup_256.expect("256 is in SIZES");
    println!("E15 | 256 machines: pool executor x{speedup_256:.2} over thread-per-machine");
    json.push_str(&format!(
        ",\n  \"pool_vs_threads_speedup_256\": {speedup_256:.3}"
    ));

    println!(
        "E21 | saturation: {SAT_MACHINES} machines (8 servers + 8 open-loop generators, \
         burst {SAT_BURST}), firing period swept {SAT_PERIODS:?}"
    );
    for period in SAT_PERIODS {
        let sim = run_saturation(period, quick);
        let w = sim.workload_summary();
        println!(
            "E21 | period {period:>3}: offered {:.0} req/s, goodput {:.0} req/s, {} drop(s), \
             latency p50 {} p99 {} p999 {} max {} cycles",
            w.offered_rps, w.goodput_rps, w.drops,
            w.latency.p50, w.latency.p99, w.latency.p999, w.latency.max,
        );
        json.push_str(&format!(
            ",\n  \"sat_{period}_offered_rps\": {:.1},\n  \"sat_{period}_goodput_rps\": {:.1},\n  \"sat_{period}_drops\": {},\n  \"sat_{period}_p50\": {},\n  \"sat_{period}_p99\": {},\n  \"sat_{period}_p999\": {}",
            w.offered_rps, w.goodput_rps, w.drops,
            w.latency.p50, w.latency.p99, w.latency.p999,
        ));
    }
    json.push_str("\n}\n");

    if let Some(path) = &json_path {
        std::fs::write(path, &json).expect("write results json");
        println!("E15 | wrote {path}");
    }

    if let Some(path) = &check_path {
        let committed =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("--check {path}: {e}"));
        // Absolute epochs/s is host-dependent; the gate is the in-process
        // pool-vs-threads wall-clock ratio at 256 machines, which cancels
        // host speed.
        if std::env::var("DORADO_E21_NO_GATE").is_ok_and(|v| v == "1") {
            println!("E21 | gate pool_vs_threads_speedup_256 skipped (DORADO_E21_NO_GATE=1)");
            return;
        }
        let baseline = json_number(&committed, "pool_vs_threads_speedup_256")
            .unwrap_or_else(|| panic!("--check {path}: missing key pool_vs_threads_speedup_256"));
        let floor = baseline * 0.75;
        let verdict = if speedup_256 < floor { "FAIL" } else { "ok" };
        println!(
            "E21 | gate pool_vs_threads_speedup_256: measured x{speedup_256:.2} vs committed \
             x{baseline:.2} (floor x{floor:.2}) {verdict}"
        );
        if speedup_256 < floor {
            eprintln!(
                "E21 | pool speedup regressed >25% vs {path}; rerun the full bench and \
                 recommit, or set DORADO_E21_NO_GATE=1"
            );
            std::process::exit(1);
        }
        println!("E21 | gate passed");
    }
}
