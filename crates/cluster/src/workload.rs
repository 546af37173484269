//! The workload driver: builds a cluster of Dorados running the RPC
//! microcode of [`dorado_emu::cluster`] and measures it.
//!
//! Every machine boots the same microstore image (the cluster suite
//! module) and differs only in its task entry points and preset RM
//! registers — the way real Dorados differed only in their boot microcode
//! arguments.  Roles:
//!
//! * [`Role::EchoServer`] — the network task answers every request;
//! * [`Role::ClosedClient`] — keeps `window` requests outstanding
//!   (closed-loop load: send on every response);
//! * [`Role::OpenClient`] — fires a deterministic burst of requests every
//!   `period` emulator-loop iterations, regardless of responses
//!   (open-loop load: offered rate is set by the generator, so servers
//!   can be driven past saturation).
//!
//! Throughput comes from the microcode's own RM counters, latency from
//! the fabric's per-port packet logs (tx stamps are sub-epoch: the
//! controller stamps each packet with its machine's local cycle at
//! end-of-packet), and utilization/bandwidth plus the p50/p99/p999 SLO
//! summary from the [`ClusterReport`] assembled by [`ClusterSim::report`].

use std::collections::{HashMap, VecDeque};

use dorado_base::snap::{self, Io, SnapError, Snapshot};
use dorado_base::{ClusterReport, LatencyStats, Word, WorkloadSummary};
use dorado_core::Dorado;
use dorado_emu::cluster as ucode;
use dorado_emu::layout::{IOA_NET, TASK_EMU, TASK_NET};
use dorado_emu::suite::{Suite, SuiteError};
use dorado_emu::SuiteBuilder;
use dorado_io::NetworkController;

use crate::exec::{self, EpochConfig, Exec, Mangle};
use crate::fabric::{Fabric, FabricConfig};

/// What one machine in the cluster does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Echo every inbound packet with source and destination swapped.
    EchoServer,
    /// Keep `window` requests outstanding against machine `target`.
    ClosedClient {
        /// Port index of the machine to send to (may be this machine).
        target: usize,
        /// Outstanding requests.
        window: Word,
        /// Payload words per request beyond the three header words.
        payload: Word,
    },
    /// Send a burst of requests to `target` every `period` generator
    /// iterations, regardless of responses.
    OpenClient {
        /// Port index of the machine to send to.
        target: usize,
        /// Generator loop iterations between firings (≥ 1 sensible).
        period: Word,
        /// Requests sent back-to-back per firing (≥ 1; 0 sends nothing).
        burst: Word,
        /// Payload words per request.
        payload: Word,
    },
}

impl Role {
    /// Whether this machine counts toward client-side response totals.
    pub fn is_client(&self) -> bool {
        !matches!(self, Role::EchoServer)
    }
}

/// One machine's specification.
#[derive(Debug, Clone)]
pub struct MachineSpec {
    /// Display label for reports.
    pub label: String,
    /// What the machine runs.
    pub role: Role,
}

/// A whole cluster's specification.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The machines, in port order.
    pub specs: Vec<MachineSpec>,
    /// The fabric between them (also supplies the common clock and the
    /// controllers' line rate).
    pub fabric: FabricConfig,
    /// Microcycles per executor epoch.
    pub epoch_cycles: u64,
}

impl ClusterConfig {
    /// The standard scaling topology for `machines` machines: client/
    /// server pairs (even ports serve, odd ports run closed-loop clients
    /// against their even neighbour).  A single machine runs a closed
    /// loop against itself through the fabric — the degenerate pair.
    pub fn pairs(machines: usize, window: Word, payload: Word) -> Self {
        assert!(machines > 0, "a cluster needs at least one machine");
        let specs = (0..machines)
            .map(|i| {
                let role = if machines > 1 && i % 2 == 0 {
                    Role::EchoServer
                } else {
                    Role::ClosedClient {
                        target: if machines == 1 { 0 } else { i - 1 },
                        window,
                        payload,
                    }
                };
                MachineSpec {
                    label: match role {
                        Role::EchoServer => format!("m{i} server"),
                        _ => format!("m{i} client"),
                    },
                    role,
                }
            })
            .collect();
        ClusterConfig {
            specs,
            fabric: FabricConfig::default(),
            epoch_cycles: 2_000,
        }
    }

    /// The open-loop saturation topology: like [`ClusterConfig::pairs`],
    /// but odd ports run open-loop generators firing a `burst` of
    /// requests every `period` iterations at their even neighbour —
    /// offered load is set by the generator, not by responses, so the
    /// servers can be driven past saturation.  A single machine fires at
    /// itself through the fabric.
    pub fn open_loop(machines: usize, period: Word, burst: Word, payload: Word) -> Self {
        let mut cfg = ClusterConfig::pairs(machines, 0, payload);
        for (i, spec) in cfg.specs.iter_mut().enumerate() {
            if spec.role.is_client() {
                spec.role = Role::OpenClient {
                    target: if machines == 1 { 0 } else { i - 1 },
                    period,
                    burst,
                    payload,
                };
            }
        }
        cfg
    }
}

/// Fabric address of port `port` (word 0 of packets sent to it).
pub fn port_address(port: usize) -> Word {
    0x100 + port as Word
}

/// A built cluster: machines, fabric, and the running clock.
#[derive(Debug)]
pub struct ClusterSim {
    labels: Vec<String>,
    roles: Vec<Role>,
    /// The machines, in port order.
    pub machines: Vec<Dorado>,
    /// The fabric connecting them.
    pub fabric: Fabric,
    epoch_cycles: u64,
    cycles: u64,
    clock: dorado_base::ClockConfig,
}

impl ClusterSim {
    /// Assembles the cluster microcode once and builds every machine.
    ///
    /// # Errors
    ///
    /// Propagates microcode placement and machine build failures.
    ///
    /// # Panics
    ///
    /// Panics if a client targets a port outside the cluster.
    pub fn build(cfg: &ClusterConfig) -> Result<Self, SuiteError> {
        let suite = SuiteBuilder::new().with_cluster().assemble()?;
        Self::build_with(cfg, &suite)
    }

    /// [`ClusterSim::build`] on a caller-supplied suite (which must
    /// contain the cluster modules) — for running the workloads on an
    /// optimized or otherwise externally-placed image.
    ///
    /// # Errors
    ///
    /// Propagates machine build failures.
    ///
    /// # Panics
    ///
    /// Panics if a client targets a port outside the cluster.
    pub fn build_with(cfg: &ClusterConfig, suite: &Suite) -> Result<Self, SuiteError> {
        let addresses: Vec<Word> = (0..cfg.specs.len()).map(port_address).collect();
        let fabric = Fabric::new(&cfg.fabric, addresses);
        let mut machines = Vec::with_capacity(cfg.specs.len());
        for (port, spec) in cfg.specs.iter().enumerate() {
            let net = NetworkController::with_clock(TASK_NET, cfg.fabric.mbps, &cfg.fabric.clock);
            let builder = suite
                .machine()
                .clock(cfg.fabric.clock)
                .device(Box::new(net), IOA_NET, 4)
                .wire_ioaddress(TASK_NET, IOA_NET);
            let builder = match spec.role {
                Role::EchoServer => builder
                    .task_entry(TASK_EMU, "clu:idle")
                    .task_entry(TASK_NET, "eserv:init"),
                Role::ClosedClient { .. } => builder
                    .task_entry(TASK_EMU, "clib:init")
                    .task_entry(TASK_NET, "clic:init"),
                Role::OpenClient { .. } => builder
                    .task_entry(TASK_EMU, "clio:init")
                    .task_entry(TASK_NET, "clid:init"),
            };
            let mut m = builder.build()?;
            let me = port_address(port);
            match spec.role {
                Role::EchoServer => {}
                Role::ClosedClient {
                    target,
                    window,
                    payload,
                } => {
                    assert!(target < cfg.specs.len(), "client target out of range");
                    let srv = port_address(target);
                    ucode::preset_emu_client(&mut m, srv, me, 0, payload, window);
                    // The network task continues the sequence where the
                    // emulator's priming window left off.
                    ucode::preset_net_client(&mut m, srv, me, window, payload);
                }
                Role::OpenClient {
                    target,
                    period,
                    burst,
                    payload,
                } => {
                    assert!(target < cfg.specs.len(), "client target out of range");
                    let srv = port_address(target);
                    ucode::preset_open_client(&mut m, srv, me, 0, payload, period, burst);
                    ucode::preset_net_client(&mut m, srv, me, 0, payload);
                }
            }
            machines.push(m);
        }
        Ok(ClusterSim {
            labels: cfg.specs.iter().map(|s| s.label.clone()).collect(),
            roles: cfg.specs.iter().map(|s| s.role).collect(),
            machines,
            fabric,
            epoch_cycles: cfg.epoch_cycles,
            cycles: 0,
            clock: cfg.fabric.clock,
        })
    }

    /// Runs `epochs` more epochs under the chosen executor — both
    /// strategies produce bit-identical results (see [`Exec`]).
    pub fn run(&mut self, epochs: u64, exec: Exec) {
        let cfg = self.epoch_config(epochs);
        self.cycles = exec::run(
            &mut self.machines,
            &mut self.fabric,
            cfg,
            self.cycles,
            exec,
            None,
        );
    }

    /// Like [`ClusterSim::run`], applying a fault injector to every
    /// outbound packet in the send phase — see [`Mangle`]; both
    /// strategies call the hook serially in `(boundary, port)` order, so
    /// a seeded mangler produces the same fault schedule under either.
    pub fn run_mangled(&mut self, epochs: u64, exec: Exec, mangle: Mangle<'_>) {
        let cfg = self.epoch_config(epochs);
        self.cycles = exec::run(
            &mut self.machines,
            &mut self.fabric,
            cfg,
            self.cycles,
            exec,
            Some(mangle),
        );
    }

    fn epoch_config(&self, epochs: u64) -> EpochConfig {
        EpochConfig {
            epoch_cycles: self.epoch_cycles,
            epochs,
        }
    }

    /// Common simulated time elapsed, in microcycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The machines' roles, in port order.
    pub fn roles(&self) -> &[Role] {
        &self.roles
    }

    /// The network-task counter of machine `port`: packets served (server)
    /// or responses received (client).
    pub fn net_count(&self, port: usize) -> Word {
        ucode::net_count(&self.machines[port])
    }

    /// Responses received across all client machines.
    pub fn responses(&self) -> u64 {
        self.roles
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_client())
            .map(|(i, _)| u64::from(self.net_count(i)))
            .sum()
    }

    /// Packets served across all server machines.
    pub fn served(&self) -> u64 {
        self.roles
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_client())
            .map(|(i, _)| u64::from(self.net_count(i)))
            .sum()
    }

    /// Request packets client ports offered to the fabric.
    pub fn requests(&self) -> u64 {
        let stats = self.fabric.stats();
        self.roles
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_client())
            .map(|(i, _)| stats.ports[i].tx_packets)
            .sum()
    }

    /// Per-request round-trip latencies in microcycles, one entry per
    /// matched request/response on every client port.  Requests are
    /// matched to responses by the packet sequence word: per port, each
    /// inbound response (in arrival order) consumes the oldest
    /// still-unmatched request carrying the same sequence number.  Linear
    /// in the log sizes.
    pub fn request_latencies(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for (port, role) in self.roles.iter().enumerate() {
            if !role.is_client() {
                continue;
            }
            let mut pending: HashMap<Word, VecDeque<u64>> = HashMap::new();
            for tx in self.fabric.tx_log(port) {
                pending.entry(tx.seq).or_default().push_back(tx.cycle);
            }
            for rx in self.fabric.rx_log(port) {
                if let Some(sent) = pending.get_mut(&rx.seq) {
                    if sent.front().is_some_and(|&t| t <= rx.cycle) {
                        out.push(rx.cycle - sent.pop_front().expect("front checked"));
                    }
                }
            }
        }
        out
    }

    /// The traffic-model summary: offered load, goodput, drops, and the
    /// round-trip latency distribution — the block
    /// [`ClusterSim::report`] attaches to its [`ClusterReport`].
    pub fn workload_summary(&self) -> WorkloadSummary {
        let secs = self.clock.to_seconds(dorado_base::Cycles(self.cycles));
        let per_sec = |n: u64| if secs == 0.0 { 0.0 } else { n as f64 / secs };
        let requests = self.requests();
        let responses = self.responses();
        WorkloadSummary {
            requests,
            responses,
            drops: self.fabric.stats().drops(),
            offered_rps: per_sec(requests),
            goodput_rps: per_sec(responses),
            latency: LatencyStats::from_cycles(self.request_latencies()),
        }
    }

    /// Aggregate completed requests per second of *simulated* time.
    pub fn requests_per_sec(&self) -> f64 {
        let secs = self.clock.to_seconds(dorado_base::Cycles(self.cycles));
        if secs == 0.0 {
            return 0.0;
        }
        self.responses() as f64 / secs
    }

    /// Serializes the whole cluster's dynamic state — the clock value,
    /// every machine, and the fabric (in-flight packets, counters, logs) —
    /// into one checkpoint image.  Configuration (microcode, labels,
    /// roles, epoch length) is not captured; restore into a cluster built
    /// from the same [`ClusterConfig`].
    pub fn save_checkpoint(&mut self) -> Vec<u8> {
        snap::save_image(self)
    }

    /// Restores a checkpoint produced by [`ClusterSim::save_checkpoint`]
    /// into this cluster, in place.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] if the image is corrupt or was taken from a
    /// cluster with a different shape (machine count, fabric addresses,
    /// device wiring).
    pub fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        snap::restore_image(self, bytes)
    }

    /// The cluster-wide report: per-machine task utilization, fabric
    /// bandwidth and drops, and the request-level SLO summary.
    pub fn report(&self) -> ClusterReport {
        let machines = self
            .labels
            .iter()
            .zip(&self.machines)
            .map(|(label, m)| (label.clone(), m.stats()))
            .collect();
        ClusterReport::new(self.clock, self.cycles, machines, self.fabric.stats())
            .with_workload(self.workload_summary())
    }
}

impl Snapshot for ClusterSim {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<(), SnapError> {
        io.tag(b"CLUS")?;
        io.u64(&mut self.cycles)?;
        io.config(&self.machines.len(), "machine count", Io::usize)?;
        self.machines.iter_mut().try_for_each(|m| m.walk(io))?;
        self.fabric.walk(io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_topology_shapes() {
        let one = ClusterConfig::pairs(1, 4, 2);
        assert!(matches!(
            one.specs[0].role,
            Role::ClosedClient { target: 0, .. }
        ));
        let four = ClusterConfig::pairs(4, 4, 2);
        assert_eq!(four.specs.len(), 4);
        assert!(matches!(four.specs[0].role, Role::EchoServer));
        assert!(matches!(
            four.specs[3].role,
            Role::ClosedClient { target: 2, .. }
        ));
    }

    #[test]
    fn closed_loop_pair_completes_requests() {
        let mut sim = ClusterSim::build(&ClusterConfig::pairs(2, 2, 1)).unwrap();
        sim.run(120, Exec::Sequential);
        assert!(
            sim.served() > 0,
            "server answered nothing: {}",
            sim.report()
        );
        assert!(sim.responses() > 0, "client saw no responses");
        let lat = sim.request_latencies();
        assert!(!lat.is_empty());
        // A round trip cannot beat two fabric flight times of the 5-word
        // request (2 × (2 + 5) × 89 cycles), epoch-quantized upward.
        assert!(lat.iter().all(|&l| l >= 2 * 7 * 89), "{lat:?}");
        assert_eq!(sim.report().fabric().drops(), 0);
    }

    #[test]
    fn self_loop_single_machine() {
        let mut sim = ClusterSim::build(&ClusterConfig::pairs(1, 2, 1)).unwrap();
        sim.run(120, Exec::Sequential);
        // With no echo server the fabric itself loops requests back; the
        // client still counts them as responses.
        assert!(sim.responses() > 0);
        assert!(sim.requests_per_sec() > 0.0);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let cfg = ClusterConfig::pairs(2, 2, 1);
        let mut sim = ClusterSim::build(&cfg).unwrap();
        sim.run(40, Exec::Sequential);
        let cp = sim.save_checkpoint();
        sim.run(40, Exec::Sequential);
        let straight_report = sim.report();
        let straight_image = sim.save_checkpoint();

        sim.restore_checkpoint(&cp).unwrap();
        sim.run(40, Exec::Sequential);
        assert_eq!(sim.report(), straight_report);
        assert_eq!(sim.save_checkpoint(), straight_image);

        // A fresh cluster of the same shape accepts the checkpoint too.
        let mut fresh = ClusterSim::build(&cfg).unwrap();
        fresh.restore_checkpoint(&cp).unwrap();
        fresh.run(40, Exec::Sequential);
        assert_eq!(fresh.save_checkpoint(), straight_image);
    }

    #[test]
    fn checkpoint_rejects_wrong_shape() {
        let mut sim = ClusterSim::build(&ClusterConfig::pairs(2, 2, 1)).unwrap();
        let cp = sim.save_checkpoint();
        let mut other = ClusterSim::build(&ClusterConfig::pairs(4, 2, 1)).unwrap();
        assert!(matches!(
            other.restore_checkpoint(&cp),
            Err(SnapError::Mismatch {
                what: "machine count"
            })
        ));
    }

    #[test]
    fn open_loop_client_sends_at_period() {
        let mut cfg = ClusterConfig::pairs(2, 0, 0);
        cfg.specs[1].role = Role::OpenClient {
            target: 0,
            period: 50,
            burst: 1,
            payload: 1,
        };
        let mut sim = ClusterSim::build(&cfg).unwrap();
        sim.run(120, Exec::Sequential);
        let sent = u64::from(ucode::emu_count(&sim.machines[1]));
        assert!(sent > 0, "generator never fired");
        assert!(sim.responses() > 0, "no responses drained");
        assert!(sim.responses() <= sent, "responses cannot exceed requests");
    }

    #[test]
    fn bursts_multiply_offered_load() {
        let sent_with_burst = |burst| {
            let mut sim = ClusterSim::build(&ClusterConfig::open_loop(2, 50, burst, 1)).unwrap();
            sim.run(120, Exec::Sequential);
            u64::from(ucode::emu_count(&sim.machines[1]))
        };
        let (one, four) = (sent_with_burst(1), sent_with_burst(4));
        assert!(one > 0, "generator never fired");
        assert!(
            four >= 3 * one,
            "burst 4 should offer several times burst 1's load: {four} vs {one}"
        );
    }

    #[test]
    fn workload_summary_counts_and_latencies() {
        let mut sim = ClusterSim::build(&ClusterConfig::open_loop(2, 50, 2, 1)).unwrap();
        sim.run(150, Exec::Sequential);
        let w = sim.workload_summary();
        assert!(w.requests > 0, "no requests offered");
        assert!(w.responses > 0, "no responses completed");
        assert!(w.responses <= w.requests);
        assert!(w.offered_rps >= w.goodput_rps);
        assert!(w.latency.samples > 0, "no request/response pairs matched");
        assert!(w.latency.p50 <= w.latency.p99);
        assert!(w.latency.p99 <= w.latency.p999);
        assert!(w.latency.p999 <= w.latency.max);
        // Tx stamps are sub-epoch: a round trip can never beat two fabric
        // flight times of the 5-word request.
        assert!(w.latency.p50 >= 2 * 7 * 89);
        let report = sim.report();
        assert_eq!(report.workload(), Some(&w));
        let text = format!("{report}");
        assert!(text.contains("workload"), "{text}");
        assert!(text.contains("p999"), "{text}");
    }
}
