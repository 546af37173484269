//! The `cluster` workload: 64 machines on one fabric, 32 echo servers
//! and 32 open-loop clients, run epoch by epoch on the work-stealing pool
//! executor, as the `cluster` example runs them.
//!
//! Each client fires a burst of 4 two-word requests every 600–1000
//! generator iterations, the seed dealing out the periods.  That offers
//! roughly three quarters of the load at which the servers saturate, so
//! queues stay bounded and request latency means something.  An op is
//! one 2000-cycle epoch.  Correctness is counted per request: a request
//! still unanswered [`DRAIN_EPOCHS`] epochs after the timed phase ends
//! counts as failed.  A round trip takes 3–4 epochs at this load, so the
//! drain allows about twice that.
//!
//! The timed run uses the pool executor with one worker ([`EXEC`]): on a
//! shared two-core host the wall time of a two-worker pool swings by a
//! third from run to run, because a worker whose core is taken away
//! stalls every barrier.  The traced run measures the pool at one worker
//! per core against the sequential path as `cluster.pool_speedup`.
//!
//! The traced replay cannot put spans inside the pool executor, so it
//! drives another cluster built from the same seed through the public
//! calls the sequential executor makes — `run_quantum` on every machine,
//! then the send and the collect phase — and must reproduce the pool
//! run's request latencies and every machine's statistics exactly.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Instant;

use dorado_base::check::Rng;
use dorado_base::{LatencyStats, Stats, Word};
use dorado_cluster::{ClusterConfig, ClusterSim, Exec, Fabric};
use dorado_core::Dorado;
use dorado_emu::suite::Suite;
use dorado_emu::SuiteBuilder;
use dorado_io::{Device, NetworkController};

use crate::trace::SETUP_OP;
use crate::{add_stats, Ledger, Tracer, Workload};

/// Machines in the cluster: even ports serve, odd ports are clients.
pub const MACHINES: usize = 64;
/// Microcycles per epoch.
pub const EPOCH_CYCLES: u64 = 2_000;
/// Requests per client firing.
pub const BURST: Word = 4;
/// Payload words per request.
pub const PAYLOAD: Word = 2;
/// Range of the clients' firing periods, in generator iterations.
pub const PERIODS: std::ops::RangeInclusive<u64> = 600..=1000;
/// Epochs per pass.
pub const PASS_EPOCHS: usize = 100;
/// Epochs a request may stay unanswered after the timed phase ends.
pub const DRAIN_EPOCHS: u64 = 8;
/// The executor of the timed run.
pub const EXEC: Exec = Exec::Pool(1);

/// The clients' firing periods, in port order: [`PERIODS`] in even
/// steps, dealt to the clients in a seeded order, so every seed offers
/// the same total load.
pub fn periods(seed: u64) -> Vec<Word> {
    let clients = MACHINES / 2;
    let (lo, hi) = (*PERIODS.start(), *PERIODS.end());
    let mut periods: Vec<Word> = (0..clients as u64)
        .map(|k| (lo + k * (hi - lo) / (clients as u64 - 1)) as Word)
        .collect();
    let mut rng = Rng::new(seed ^ 0x636c_7573);
    for i in (1..clients).rev() {
        periods.swap(i, rng.below(i as u64 + 1) as usize);
    }
    periods
}

/// The cluster configuration for `seed`.
pub fn config(seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::open_loop(MACHINES, 0, BURST, PAYLOAD);
    let mut periods = periods(seed).into_iter();
    for spec in &mut cfg.specs {
        if let dorado_cluster::Role::OpenClient { period, .. } = &mut spec.role {
            *period = periods.next().expect("one period per client");
        }
    }
    cfg.epoch_cycles = EPOCH_CYCLES;
    cfg
}

fn net(m: &mut Dorado) -> &mut NetworkController {
    m.device_mut::<NetworkController>("network")
        .expect("cluster machines carry a network controller")
}

/// A cluster driven one epoch at a time through public calls, in the
/// order the sequential executor makes them.
struct Manual {
    sim: ClusterSim,
    now: u64,
}

impl Manual {
    fn epoch(&mut self, tr: &mut Tracer) {
        let now = self.now + EPOCH_CYCLES;
        self.now = now;
        let ClusterSim {
            machines, fabric, ..
        } = &mut self.sim;
        for m in machines.iter_mut() {
            tr.span("core.run_quantum", |_| m.run_quantum(EPOCH_CYCLES));
        }
        tr.span("cluster.send", |_| send_phase(machines, fabric, now));
        tr.span("cluster.collect", |_| collect_phase(machines, fabric, now));
    }
}

fn send_phase(machines: &mut [Dorado], fabric: &Fabric, now: u64) {
    for (port, m) in machines.iter_mut().enumerate() {
        // Checked through the immutable registry, as the executors do: a
        // mutable device lookup wakes the controller.
        let pending = m
            .io()
            .device_by_name("network")
            .is_some_and(Device::tx_pending);
        if pending {
            for (stamp, pkt) in net(m).drain_transmitted_stamped() {
                fabric.send_stamped(port, pkt, now, stamp);
            }
        }
    }
}

fn collect_phase(machines: &mut [Dorado], fabric: &Fabric, now: u64) {
    for (port, m) in machines.iter_mut().enumerate() {
        let packets = fabric.collect_for_port(port, now);
        if !packets.is_empty() {
            let controller = net(m);
            for pkt in packets {
                controller.inject_packet(pkt);
            }
        }
    }
}

/// Request-level results of the first pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Summary {
    p50_us: f64,
    p99_us: f64,
    goodput_krps: f64,
}

fn summary(sim: &ClusterSim, cycle_ns: f64) -> Summary {
    let lat = LatencyStats::from_cycles(sim.request_latencies());
    let secs = sim.cycles() as f64 * cycle_ns * 1e-9;
    Summary {
        p50_us: lat.p50 as f64 * cycle_ns / 1e3,
        p99_us: lat.p99 as f64 * cycle_ns / 1e3,
        goodput_krps: lat.samples as f64 / secs / 1e3,
    }
}

/// Host nanoseconds `f` takes.
fn timed(f: impl FnOnce()) -> u64 {
    let start = Instant::now();
    f();
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The workload state: the timed cluster and, during a traced run, the
/// clusters that replay its first pass.
pub struct Cluster {
    cfg: ClusterConfig,
    suite: Suite,
    pass_len: usize,
    pool: ClusterSim,
    replay: Option<Manual>,
    sequential: Option<Manual>,
    parallel: Option<ClusterSim>,
    pool_speedup: f64,
    baseline: Vec<Stats>,
    fabric_baseline: (u64, u64),
    passes_ended: u32,
    pass1: Summary,
}

impl Cluster {
    /// Builds the seeded cluster.
    ///
    /// # Panics
    ///
    /// Panics if the cluster suite fails to assemble or a machine fails
    /// to build.
    pub fn setup(seed: u64, pass_len: usize, tr: &mut Tracer) -> Self {
        let cfg = config(seed);
        let suite = tr.span("emu.assemble", |_| {
            SuiteBuilder::new()
                .with_cluster()
                .assemble()
                .expect("cluster suite assembles")
        });
        let pool = tr.span("cluster.build", |_| {
            ClusterSim::build_with(&cfg, &suite).expect("cluster builds")
        });
        Cluster {
            cfg,
            suite,
            pass_len,
            pool,
            replay: None,
            sequential: None,
            parallel: None,
            pool_speedup: 0.0,
            baseline: Vec::new(),
            fabric_baseline: (0, 0),
            passes_ended: 0,
            pass1: Summary::default(),
        }
    }

    fn active(&self) -> &ClusterSim {
        self.replay.as_ref().map_or(&self.pool, |r| &r.sim)
    }

    fn set_baseline(&mut self) {
        let sim = self.active();
        let fabric = sim.fabric.stats();
        let baseline = sim.machines.iter().map(Dorado::stats).collect();
        self.fabric_baseline = (fabric.rx_packets(), fabric.drops());
        self.baseline = baseline;
    }

    /// Another cluster from the same seed, past the warm-up epoch the
    /// timed cluster ran during set-up.
    fn rebuild(&self) -> ClusterSim {
        ClusterSim::build_with(&self.cfg, &self.suite).expect("cluster builds")
    }

    fn manual(&self) -> Manual {
        let mut manual = Manual {
            sim: self.rebuild(),
            now: 0,
        };
        manual.epoch(&mut Tracer::disabled());
        manual
    }
}

/// Describes the first difference between two clusters' observable
/// results.
fn compare(a: &ClusterSim, b: &ClusterSim) -> Result<(), String> {
    if a.request_latencies() != b.request_latencies() {
        return Err("request latencies differ".into());
    }
    if a.fabric.stats() != b.fabric.stats() {
        return Err("fabric statistics differ".into());
    }
    match a
        .machines
        .iter()
        .zip(&b.machines)
        .position(|(x, y)| x.stats() != y.stats())
    {
        Some(port) => Err(format!("machine {port} statistics differ")),
        None => Ok(()),
    }
}

impl Workload for Cluster {
    fn pass_len(&self) -> usize {
        self.pass_len
    }

    fn run_op(&mut self, _i: usize, tr: &mut Tracer, _ledger: &mut Ledger) -> bool {
        match &mut self.replay {
            Some(manual) => manual.epoch(tr),
            None => self.pool.run(1, EXEC),
        }
        true
    }

    fn end_pass(&mut self, ledger: &mut Ledger) {
        let sim = self.active();
        for (m, base) in sim.machines.iter().zip(&self.baseline) {
            let d = m.stats().since(base);
            add_stats(ledger, &d);
            ledger.add("core.run_cycles", d.cycles as f64);
        }
        let fabric = sim.fabric.stats();
        ledger.add(
            "cluster.packets",
            (fabric.rx_packets() - self.fabric_baseline.0) as f64,
        );
        ledger.add(
            "cluster.drops",
            (fabric.drops() - self.fabric_baseline.1) as f64,
        );
        self.passes_ended += 1;
        // The first call follows the warm-up epoch; the second ends the
        // first pass.
        if self.passes_ended == 2 {
            self.pass1 = summary(&self.pool, self.cfg.fabric.clock.cycle_ns());
        }
        self.set_baseline();
    }

    fn start_replay(&mut self, _tr: &mut Tracer) -> Option<u64> {
        let n = self.pass_len;
        let mut sequential = self.manual();
        let mut off = Tracer::disabled();
        let sequential_ns = timed(|| (0..n).for_each(|_| sequential.epoch(&mut off)));
        let mut parallel = self.rebuild();
        parallel.run(1, Exec::Pool(0));
        let parallel_ns = timed(|| (0..n).for_each(|_| parallel.run(1, Exec::Pool(0))));
        self.pool_speedup = sequential_ns as f64 / parallel_ns as f64;
        self.sequential = Some(sequential);
        self.parallel = Some(parallel);
        self.replay = Some(self.manual());
        self.set_baseline();
        Some(sequential_ns)
    }

    fn check_replay(&mut self) -> Result<(), String> {
        let runs = [
            ("traced", self.replay.as_ref().map(|r| &r.sim)),
            (
                "untraced sequential",
                self.sequential.as_ref().map(|r| &r.sim),
            ),
            ("one-worker-per-core pool", self.parallel.as_ref()),
        ];
        for (what, run) in runs {
            if let Some(run) = run {
                compare(&self.pool, run)
                    .map_err(|e| format!("{what} replay diverged from the timed run: {e}"))?;
            }
        }
        Ok(())
    }

    fn close(&mut self) -> Option<(u64, u64)> {
        let end = self.pool.cycles();
        self.pool.run(DRAIN_EPOCHS, EXEC);
        let (mut attempted, mut failed) = (0, 0);
        for (port, role) in self.pool.roles().iter().enumerate() {
            if !role.is_client() {
                continue;
            }
            let mut pending: HashMap<Word, VecDeque<u64>> = HashMap::new();
            for tx in self
                .pool
                .fabric
                .tx_log(port)
                .into_iter()
                .filter(|tx| tx.cycle <= end)
            {
                pending.entry(tx.seq).or_default().push_back(tx.cycle);
                attempted += 1;
            }
            for rx in self.pool.fabric.rx_log(port) {
                if let Some(sent) = pending.get_mut(&rx.seq) {
                    if sent.front().is_some_and(|&t| t <= rx.cycle) {
                        sent.pop_front();
                    }
                }
            }
            failed += pending.values().map(|q| q.len() as u64).sum::<u64>();
        }
        Some((attempted, failed))
    }

    fn extra_metrics(&self, tr: &Tracer) -> Vec<(&'static str, f64)> {
        // Per epoch: run-phase total and max over machines, machine
        // count, send and collect time.
        let mut epochs: BTreeMap<u64, [f64; 5]> = BTreeMap::new();
        for s in tr.spans().iter().filter(|s| s.op != SETUP_OP) {
            let e = epochs.entry(s.op).or_default();
            let ns = s.ns() as f64;
            match s.name {
                "core.run_quantum" => {
                    e[0] += ns;
                    e[1] = e[1].max(ns);
                    e[2] += 1.0;
                }
                "cluster.send" => e[3] += ns,
                "cluster.collect" => e[4] += ns,
                _ => {}
            }
        }
        let median_of = |f: &dyn Fn(&[f64; 5]) -> f64| {
            crate::protocol::quantile(epochs.values().filter(|e| e[2] > 0.0).map(f).collect(), 0.5)
        };
        vec![
            ("req_lat_us_p50", self.pass1.p50_us),
            ("req_lat_us_p99", self.pass1.p99_us),
            ("goodput_krps", self.pass1.goodput_krps),
            ("cluster.quantum_ms", median_of(&|e| e[0] / 1e6)),
            (
                "cluster.quantum_imbalance",
                median_of(&|e| e[1] / (e[0] / e[2])),
            ),
            ("cluster.send_us", median_of(&|e| e[3] / 1e3)),
            ("cluster.collect_us", median_of(&|e| e[4] / 1e3)),
            ("cluster.pool_speedup", self.pool_speedup),
            (
                "cluster.build_ms",
                tr.total_ns("cluster.build", |op| op == SETUP_OP) as f64 / 1e6,
            ),
        ]
    }
}
