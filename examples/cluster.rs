//! A cluster of Dorados on one Ethernet fabric: client/server pairs run
//! the RPC microcode on the work-stealing pool executor, and the run ends
//! with the cluster-wide report — per-machine task utilization, fabric
//! bandwidth, and the request-latency SLO summary.
//!
//! ```sh
//! cargo run --release --example cluster
//! cargo run --release --example cluster -- --machines=256 --pool=0 --epochs=50
//! cargo run --release --example cluster -- --machines=16 --open-loop --period=40 --burst=4
//! cargo run --release --example cluster -- --machines=32 --pool=4 --verify
//! ```
//!
//! `--pool=0` (the default executor) sizes the pool to the host's cores;
//! `--sequential` runs every machine on the calling thread;
//! `--verify` replays the run sequentially and exits nonzero unless the
//! report and the full checkpoint image are bit-identical.

use dorado::cluster::{ClusterConfig, ClusterSim, Exec};

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} needs a number, got `{value}`"))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut machines = 4usize;
    let mut epochs = 200u64;
    let mut epoch_cycles = 2_000u64;
    let mut window = 3u16;
    let mut payload = 2u16;
    let mut open_loop = false;
    let mut period = 50u16;
    let mut burst = 1u16;
    let mut exec = Exec::Pool(0);
    let mut verify = false;
    for arg in std::env::args().skip(1) {
        match arg.split_once('=') {
            Some(("--machines", v)) => machines = parse("--machines", v)?,
            Some(("--epochs", v)) => epochs = parse("--epochs", v)?,
            Some(("--epoch-cycles", v)) => epoch_cycles = parse("--epoch-cycles", v)?,
            Some(("--window", v)) => window = parse("--window", v)?,
            Some(("--payload", v)) => payload = parse("--payload", v)?,
            Some(("--period", v)) => period = parse("--period", v)?,
            Some(("--burst", v)) => burst = parse("--burst", v)?,
            Some(("--pool", v)) => exec = Exec::Pool(parse("--pool", v)?),
            None if arg == "--open-loop" => open_loop = true,
            None if arg == "--sequential" => exec = Exec::Sequential,
            None if arg == "--verify" => verify = true,
            _ => return Err(format!("unknown argument `{arg}`").into()),
        }
    }

    let mut cfg = if open_loop {
        ClusterConfig::open_loop(machines, period, burst, payload)
    } else {
        ClusterConfig::pairs(machines, window, payload)
    };
    cfg.epoch_cycles = epoch_cycles;
    let load = if open_loop {
        format!("open-loop period {period} x burst {burst}")
    } else {
        format!("closed-loop window {window}")
    };
    let exec_name = match exec {
        Exec::Sequential => "sequential".to_string(),
        Exec::Pool(n) => format!("pool({})", Exec::pool_workers(n, machines)),
    };
    println!(
        "cluster: {machines} machine(s), {epochs} epoch(s) x {epoch_cycles} cycles, \
         {load}, payload {payload} word(s), {exec_name} execution\n"
    );
    let mut sim = ClusterSim::build(&cfg)?;
    let wall = std::time::Instant::now();
    sim.run(epochs, exec);
    let wall = wall.elapsed();

    println!("{}", sim.report());
    println!(
        "wall clock: {:.1} ms for {} simulated cycles per machine \
         ({:.0} epochs/s)",
        wall.as_secs_f64() * 1e3,
        sim.cycles(),
        epochs as f64 / wall.as_secs_f64().max(1e-9)
    );

    if verify {
        let mut oracle = ClusterSim::build(&cfg)?;
        oracle.run(epochs, Exec::Sequential);
        let reports_match = sim.report() == oracle.report();
        let state_matches = sim.save_checkpoint() == oracle.save_checkpoint();
        println!(
            "\nverify vs sequential oracle: report identical: {reports_match}; \
             full dynamic state identical: {state_matches}"
        );
        if !(reports_match && state_matches) {
            return Err(format!("{exec_name} diverged from the sequential oracle").into());
        }
    }
    Ok(())
}
