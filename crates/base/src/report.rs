//! The §7 measurement report: the paper's tables, rendered from counters.
//!
//! Every quantitative claim in §7 — "the 10 megabit/sec disk consumes 5%
//! of the processor", "holds cost the emulator about 8%", the 530 Mbit/s
//! storage ceiling — is a ratio of [`Stats`] counters scaled by the
//! [`ClockConfig`].  [`Report`] owns that arithmetic, so experiments and
//! benches assert against named quantities instead of re-deriving them.
//!
//! # Examples
//!
//! ```
//! use dorado_base::{ClockConfig, Report, Stats, TaskId};
//!
//! let mut s = Stats::new();
//! s.cycles = 1000;
//! s.executed[0] = 750;
//! s.held[0] = 80;
//! let r = Report::new(s, ClockConfig::multiwire());
//! assert!((r.utilization(TaskId::EMULATOR) - 0.75).abs() < 1e-12);
//! assert!((r.hold_fraction(TaskId::EMULATOR) - 80.0 / 830.0).abs() < 1e-12);
//! ```

use crate::clock::{ClockConfig, Cycles};
use crate::hold::HoldCause;
use crate::metrics::{FabricStats, Requester};
use crate::stats::Stats;
use crate::task::TaskId;
use crate::{Word, MUNCH_WORDS, NUM_TASKS};

/// A measurement window: a counter snapshot plus the clock that converts
/// cycle counts into the paper's wall-clock units.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    stats: Stats,
    clock: ClockConfig,
}

impl Report {
    /// Builds a report over a counter snapshot.
    pub fn new(stats: Stats, clock: ClockConfig) -> Self {
        Report { stats, clock }
    }

    /// Builds a report over the difference of two snapshots (`later`
    /// taken after `earlier`), measuring just that window.
    pub fn between(earlier: &Stats, later: &Stats, clock: ClockConfig) -> Self {
        Report::new(later.since(earlier), clock)
    }

    /// The underlying counters.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The clock used for bandwidth and time conversions.
    pub fn clock(&self) -> &ClockConfig {
        &self.clock
    }

    /// Total elapsed microcycles in the window.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Elapsed simulated time in seconds.
    pub fn elapsed_seconds(&self) -> f64 {
        self.clock.to_seconds(Cycles(self.stats.cycles))
    }

    // --- task utilization (§7: processor shares) ------------------------

    /// Microinstructions one task completed.
    pub fn executed(&self, task: TaskId) -> u64 {
        self.stats.executed[task.index()]
    }

    /// The fraction of all elapsed cycles in which `task`'s instructions
    /// completed — §7's "processor share" unit.
    pub fn utilization(&self, task: TaskId) -> f64 {
        self.fraction(self.stats.executed[task.index()])
    }

    /// Cycles one task spent held (all causes).
    pub fn held(&self, task: TaskId) -> u64 {
        self.stats.held[task.index()]
    }

    /// The fraction of all elapsed cycles `task` spent held.
    pub fn held_share(&self, task: TaskId) -> f64 {
        self.fraction(self.stats.held[task.index()])
    }

    /// The fraction of elapsed cycles in which *some* task completed an
    /// instruction (1 − holds/cycles; the machine never truly idles — the
    /// emulator always requests, §5.1).
    pub fn busy_fraction(&self) -> f64 {
        self.fraction(self.stats.instructions())
    }

    // --- hold breakdown (§5.7, §7) --------------------------------------

    /// Held cycles across all tasks.
    pub fn holds_total(&self) -> u64 {
        self.stats.held_cycles()
    }

    /// Held cycles across all tasks attributed to one cause.
    pub fn holds_for(&self, cause: HoldCause) -> u64 {
        self.stats.holds_for(cause)
    }

    /// Held cycles of one task attributed to one cause.
    pub fn holds_by(&self, task: TaskId, cause: HoldCause) -> u64 {
        self.stats.holds_by(task, cause)
    }

    /// Holds as a fraction of one task's owned cycles (held + executed) —
    /// the unit of §7's "holds cost the emulator about 8% of its cycles".
    pub fn hold_fraction(&self, task: TaskId) -> f64 {
        let i = task.index();
        let owned = self.stats.executed[i] + self.stats.held[i];
        if owned == 0 {
            0.0
        } else {
            self.stats.held[i] as f64 / owned as f64
        }
    }

    /// Holds across all tasks as a fraction of all elapsed cycles.
    pub fn hold_share(&self) -> f64 {
        self.fraction(self.stats.held_cycles())
    }

    // --- cache and storage (§7) -----------------------------------------

    /// Cache hit rate of one requester's port, in `[0, 1]`.
    pub fn cache_hit_rate(&self, requester: Requester) -> f64 {
        self.stats.cache.port(requester).hit_rate()
    }

    /// Cache hit rate over every port combined.
    pub fn overall_cache_hit_rate(&self) -> f64 {
        self.stats.cache.total().hit_rate()
    }

    /// Fraction of elapsed cycles the storage RAMs were mid-cycle — how
    /// close the machine ran to §7's "full storage bandwidth".
    pub fn storage_occupancy(&self) -> f64 {
        self.stats.storage.occupancy(self.stats.cycles)
    }

    // --- bandwidth (§5.8, §6.2.1, §7) -----------------------------------

    /// Delivered slow-I/O (IODATA bus) bandwidth in Mbit/s.
    pub fn slow_io_mbps(&self) -> f64 {
        self.mbps(self.stats.slow_io_words * Word::BITS as u64)
    }

    /// Delivered fast-I/O bandwidth in Mbit/s (one munch = 16 words).
    pub fn fast_io_mbps(&self) -> f64 {
        self.mbps(self.stats.fast_io_munches * (MUNCH_WORDS * Word::BITS as usize) as u64)
    }

    /// Total storage-pipeline bandwidth in Mbit/s (fills, write-backs, and
    /// fast I/O all move munches).
    pub fn storage_mbps(&self) -> f64 {
        self.mbps(self.stats.storage.words_moved() * Word::BITS as u64)
    }

    /// Bandwidth of an arbitrary payload moved during this window, in
    /// Mbit/s — for workload-defined figures such as BitBlt's bits moved.
    pub fn workload_mbps(&self, bits: u64) -> f64 {
        self.mbps(bits)
    }

    /// Words dropped by slow-I/O device rx FIFOs because their service
    /// task fell behind the line rate.
    pub fn io_overruns(&self) -> u64 {
        self.stats.io_overruns
    }

    /// Slow-I/O words moved per macroinstruction dispatched; 0 with no
    /// dispatches.
    pub fn slow_io_words_per_instruction(&self) -> f64 {
        if self.stats.macro_instructions == 0 {
            0.0
        } else {
            self.stats.slow_io_words as f64 / self.stats.macro_instructions as f64
        }
    }

    // --- emulation (§7: microinstructions per macroinstruction) ---------

    /// Mean microinstructions executed per macroinstruction dispatched;
    /// 0 with no dispatches.
    pub fn micro_per_macro(&self) -> f64 {
        if self.stats.macro_instructions == 0 {
            0.0
        } else {
            self.stats.instructions() as f64 / self.stats.macro_instructions as f64
        }
    }

    fn fraction(&self, count: u64) -> f64 {
        if self.stats.cycles == 0 {
            0.0
        } else {
            count as f64 / self.stats.cycles as f64
        }
    }

    fn mbps(&self, bits: u64) -> f64 {
        if self.stats.cycles == 0 {
            0.0
        } else {
            self.clock.mbits_per_sec(bits, Cycles(self.stats.cycles))
        }
    }
}

impl std::fmt::Display for Report {
    /// Renders the §7 tables: task utilization, hold breakdown by cause,
    /// cache hit rates by requester, and bandwidths.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = &self.stats;
        writeln!(
            f,
            "== report: {} cycles ({:.3} ms at {} ns) ==",
            s.cycles,
            self.elapsed_seconds() * 1e3,
            self.clock.cycle_ns()
        )?;

        // A percentage is undefined (not zero) when its denominator is
        // empty: a zero-cycle window, or a ratio over zero events.  Render
        // those cells as `--` rather than a misleading 0.0.
        let pct = |defined: bool, v: f64| -> String {
            if defined {
                format!("{:>5.1}", 100.0 * v)
            } else {
                format!("{:>5}", "--")
            }
        };
        let window = s.cycles > 0;

        writeln!(f, "-- task utilization --")?;
        writeln!(f, "task  executed      held   util%  hold%")?;
        for i in 0..NUM_TASKS {
            if s.executed[i] == 0 && s.held[i] == 0 {
                continue;
            }
            let task = TaskId::new(i as u8);
            writeln!(
                f,
                "{i:>4}  {:>8}  {:>8}  {}  {}",
                s.executed[i],
                s.held[i],
                pct(window, self.utilization(task)),
                pct(window, self.held_share(task)),
            )?;
        }
        writeln!(
            f,
            "      busy {}% of cycles, {} task switches",
            pct(window, self.busy_fraction()).trim_start(),
            s.task_switches
        )?;

        writeln!(f, "-- hold breakdown --")?;
        for cause in HoldCause::ALL {
            let n = self.holds_for(cause);
            if n > 0 {
                writeln!(
                    f,
                    "{:>12}: {n} ({:.2}% of cycles)",
                    cause.name(),
                    100.0 * self.fraction(n)
                )?;
            }
        }
        if self.holds_total() == 0 {
            writeln!(f, "       (none)")?;
        }

        writeln!(f, "-- cache --")?;
        for r in Requester::ALL {
            let p = s.cache.port(r);
            if p.refs > 0 {
                writeln!(
                    f,
                    "{:>10}: {}/{} hits ({:.1}%)",
                    r.name(),
                    p.hits,
                    p.refs,
                    100.0 * p.hit_rate()
                )?;
            }
        }

        writeln!(f, "-- storage & bandwidth --")?;
        writeln!(
            f,
            "storage: {} refs ({} fills, {} writebacks, {} fast), occupancy {:.1}%",
            s.storage.refs,
            s.storage.fills,
            s.storage.writebacks,
            s.storage.fast_fetches + s.storage.fast_stores,
            100.0 * self.storage_occupancy()
        )?;
        writeln!(
            f,
            "slow I/O {:.1} Mbit/s, fast I/O {:.1} Mbit/s, storage {:.1} Mbit/s",
            self.slow_io_mbps(),
            self.fast_io_mbps(),
            self.storage_mbps()
        )?;
        if s.io_overruns > 0 {
            writeln!(f, "io rx overruns: {} word(s) dropped", s.io_overruns)?;
        }
        let micro_per_macro = if s.macro_instructions > 0 {
            format!("{:.1}", self.micro_per_macro())
        } else {
            "--".into()
        };
        let taken = if s.ifu.dispatches > 0 {
            format!("{:.1}%", 100.0 * s.ifu.taken_branch_fraction())
        } else {
            "--".into()
        };
        write!(
            f,
            "ifu: {} dispatches, {} micro/macro, taken-branch {}, buffer mean {:.1} B",
            s.ifu.dispatches,
            micro_per_macro,
            taken,
            s.ifu.mean_buffer_bytes()
        )
    }
}

/// Request-latency distribution in microcycles, summarized at the usual
/// SLO points.  Built once from the full sample set; percentiles use the
/// nearest-rank method on the sorted samples, so every figure is an
/// actually-observed latency.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencyStats {
    /// Matched request/response pairs the distribution covers.
    pub samples: u64,
    /// Mean latency in microcycles.
    pub mean: f64,
    /// Median (50th percentile) in microcycles.
    pub p50: u64,
    /// 99th percentile in microcycles.
    pub p99: u64,
    /// 99.9th percentile in microcycles.
    pub p999: u64,
    /// Worst observed latency in microcycles.
    pub max: u64,
}

impl LatencyStats {
    /// Summarizes a sample set of per-request latencies (microcycles).
    /// An empty set yields the all-zero summary.
    pub fn from_cycles(mut samples: Vec<u64>) -> Self {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_unstable();
        let n = samples.len();
        let sum: u64 = samples.iter().sum();
        let rank = |num: usize, den: usize| samples[(num * n).div_ceil(den).max(1) - 1];
        LatencyStats {
            samples: n as u64,
            mean: sum as f64 / n as f64,
            p50: rank(50, 100),
            p99: rank(99, 100),
            p999: rank(999, 1000),
            max: samples[n - 1],
        }
    }
}

/// The traffic-model section of a cluster report: offered load, goodput,
/// drops, and the request-latency distribution — the serving-stack SLO
/// view on top of the §7 processor tables.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadSummary {
    /// Request packets client ports offered to the fabric.
    pub requests: u64,
    /// Responses the client machines' network tasks completed.
    pub responses: u64,
    /// Packets the fabric dropped (unroutable or queue-cap evictions).
    pub drops: u64,
    /// Offered load in requests per second of simulated time.
    pub offered_rps: f64,
    /// Goodput in completed responses per second of simulated time.
    pub goodput_rps: f64,
    /// Round-trip latency distribution over matched request/response
    /// pairs.
    pub latency: LatencyStats,
}

/// The cluster section of the report: one counter snapshot per machine
/// plus the fabric's per-port traffic, over a common simulated window.
///
/// Rendered, it extends the §7 tables with the multi-machine view the
/// paper's §2 Ethernet setting implies: per-machine task utilization and
/// the aggregate Mbit/s the fabric carried — plus, when the workload
/// layer attaches a [`WorkloadSummary`], the request-level SLO table.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    clock: ClockConfig,
    cycles: u64,
    machines: Vec<(String, Stats)>,
    fabric: FabricStats,
    workload: Option<WorkloadSummary>,
}

impl ClusterReport {
    /// Builds a cluster report over `cycles` of common simulated time.
    pub fn new(
        clock: ClockConfig,
        cycles: u64,
        machines: Vec<(String, Stats)>,
        fabric: FabricStats,
    ) -> Self {
        ClusterReport {
            clock,
            cycles,
            machines,
            fabric,
            workload: None,
        }
    }

    /// Attaches the traffic-model summary (builder style).
    #[must_use]
    pub fn with_workload(mut self, workload: WorkloadSummary) -> Self {
        self.workload = Some(workload);
        self
    }

    /// The traffic-model summary, when the workload layer attached one.
    pub fn workload(&self) -> Option<&WorkloadSummary> {
        self.workload.as_ref()
    }

    /// Labelled per-machine counter snapshots, in port order.
    pub fn machines(&self) -> &[(String, Stats)] {
        &self.machines
    }

    /// The fabric's per-port traffic counters.
    pub fn fabric(&self) -> &FabricStats {
        &self.fabric
    }

    /// Common simulated window length in microcycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Elapsed simulated time in seconds.
    pub fn elapsed_seconds(&self) -> f64 {
        self.clock.to_seconds(Cycles(self.cycles))
    }

    /// A per-machine [`Report`] for machine `index`.
    pub fn machine_report(&self, index: usize) -> Report {
        Report::new(self.machines[index].1.clone(), self.clock)
    }

    /// Aggregate bandwidth the fabric *delivered* (rx side), in Mbit/s of
    /// simulated time.
    pub fn fabric_rx_mbps(&self) -> f64 {
        self.mbps(self.fabric.rx_words() * Word::BITS as u64)
    }

    /// Aggregate bandwidth offered to the fabric (tx side), in Mbit/s.
    pub fn fabric_tx_mbps(&self) -> f64 {
        self.mbps(self.fabric.tx_words() * Word::BITS as u64)
    }

    /// Mean fraction of line-rate wire time the ports spent serializing
    /// transmitted words, in `[0, 1]`.
    pub fn fabric_utilization(&self) -> f64 {
        let ports = self.fabric.ports.len() as u64;
        if ports == 0 || self.cycles == 0 {
            return 0.0;
        }
        let busy = self.fabric.tx_words() * self.fabric.word_cycles;
        busy as f64 / (ports * self.cycles) as f64
    }

    fn mbps(&self, bits: u64) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.clock.mbits_per_sec(bits, Cycles(self.cycles))
        }
    }
}

impl std::fmt::Display for ClusterReport {
    /// Renders the cluster tables: per-machine task utilization and the
    /// fabric's per-port traffic with aggregate Mbit/s.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "== cluster: {} machine(s), {} cycles ({:.3} ms at {} ns) ==",
            self.machines.len(),
            self.cycles,
            self.elapsed_seconds() * 1e3,
            self.clock.cycle_ns()
        )?;
        writeln!(f, "-- per-machine task utilization --")?;
        for (label, s) in &self.machines {
            let mut shares = String::new();
            for i in 0..NUM_TASKS {
                if s.executed[i] > 0 {
                    shares.push_str(&format!(
                        " t{i} {:.1}%",
                        100.0 * s.processor_share(TaskId::new(i as u8))
                    ));
                }
            }
            let busy = if s.cycles == 0 {
                // A machine that owned no cycles in this window has no
                // defined utilization — render `--`, not 0.0.
                format!("{:>5}", "--")
            } else {
                format!("{:>5.1}", 100.0 * s.instructions() as f64 / s.cycles as f64)
            };
            write!(f, "{label:>8}  busy {busy}%{shares}")?;
            if s.io_overruns > 0 {
                write!(f, "  (overruns {})", s.io_overruns)?;
            }
            writeln!(f)?;
        }
        writeln!(
            f,
            "-- fabric ({} port(s), {} cycles/word) --",
            self.fabric.ports.len(),
            self.fabric.word_cycles
        )?;
        writeln!(f, "port   tx pkts    words   rx pkts    words  drops")?;
        for (i, p) in self.fabric.ports.iter().enumerate() {
            writeln!(
                f,
                "{i:>4}  {:>8} {:>8}  {:>8} {:>8}  {:>5}",
                p.tx_packets, p.tx_words, p.rx_packets, p.rx_words, p.drops
            )?;
        }
        write!(
            f,
            "fabric: {:.2} Mbit/s delivered ({:.2} offered), wire utilization {:.1}%, {} drop(s)",
            self.fabric_rx_mbps(),
            self.fabric_tx_mbps(),
            100.0 * self.fabric_utilization(),
            self.fabric.drops()
        )?;
        if let Some(w) = &self.workload {
            writeln!(f)?;
            writeln!(
                f,
                "-- workload: {} request(s) offered ({:.0}/s), {} response(s) ({:.0}/s goodput), {} drop(s) --",
                w.requests, w.offered_rps, w.responses, w.goodput_rps, w.drops
            )?;
            let us = |cycles: u64| self.clock.to_seconds(Cycles(cycles)) * 1e6;
            write!(
                f,
                "latency ({} sample(s)): p50 {} p99 {} p999 {} max {} cycles \
                 (p50 {:.1} us, p99 {:.1} us, p999 {:.1} us)",
                w.latency.samples,
                w.latency.p50,
                w.latency.p99,
                w.latency.p999,
                w.latency.max,
                us(w.latency.p50),
                us(w.latency.p99),
                us(w.latency.p999),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut s = Stats::new();
        s.cycles = 1000;
        s.executed[0] = 700;
        s.held[0] = 100;
        s.held_by[0][HoldCause::MemData.index()] = 60;
        s.held_by[0][HoldCause::IfuDispatch.index()] = 40;
        s.executed[11] = 50;
        s.task_switches = 20;
        s.slow_io_words = 100;
        s.fast_io_munches = 10;
        s.macro_instructions = 75;
        s.cache.processor.refs = 200;
        s.cache.processor.hits = 190;
        s.cache.ifu.refs = 50;
        s.cache.ifu.hits = 45;
        s.storage.refs = 15;
        s.storage.fills = 5;
        s.storage.fast_fetches = 10;
        s.storage.busy_cycles = 120;
        s.ifu.dispatches = 75;
        s.ifu.jumps = 15;
        s.ifu.ticks = 1000;
        s.ifu.buffer_bytes_accum = 4000;
        Report::new(s, ClockConfig::multiwire())
    }

    #[test]
    fn utilization_and_holds() {
        let r = sample();
        assert!((r.utilization(TaskId::EMULATOR) - 0.7).abs() < 1e-12);
        assert!((r.held_share(TaskId::EMULATOR) - 0.1).abs() < 1e-12);
        assert!((r.hold_fraction(TaskId::EMULATOR) - 0.125).abs() < 1e-12);
        assert_eq!(r.holds_total(), 100);
        assert_eq!(r.holds_for(HoldCause::MemData), 60);
        assert_eq!(r.holds_by(TaskId::EMULATOR, HoldCause::IfuDispatch), 40);
        assert!((r.busy_fraction() - 0.75).abs() < 1e-12);
        assert!((r.hold_share() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn cache_rates_by_requester() {
        let r = sample();
        assert!((r.cache_hit_rate(Requester::Processor) - 0.95).abs() < 1e-12);
        assert!((r.cache_hit_rate(Requester::Ifu) - 0.9).abs() < 1e-12);
        assert_eq!(r.cache_hit_rate(Requester::FastIo), 0.0);
        assert!((r.overall_cache_hit_rate() - 235.0 / 250.0).abs() < 1e-12);
    }

    #[test]
    fn bandwidths_scale_with_clock() {
        let r = sample();
        // 100 words * 16 bits over 1000 cycles * 60 ns = 1600 bits / 60 us.
        let want = 1600.0 / (1000.0 * 60.0 * 1e-9) / 1e12 * 1e6;
        assert!(
            (r.slow_io_mbps() - want).abs() < 1e-6,
            "{}",
            r.slow_io_mbps()
        );
        // One munch is 256 bits; 10 munches over the same window.
        assert!((r.fast_io_mbps() - 10.0 * 256.0 / 1600.0 * want).abs() < 1e-6);
        // 15 storage refs move 15 munches.
        assert!((r.storage_mbps() - 15.0 * 256.0 / 1600.0 * want).abs() < 1e-6);
        assert!((r.storage_occupancy() - 0.12).abs() < 1e-12);
        assert!((r.workload_mbps(1600) - want).abs() < 1e-6);
    }

    #[test]
    fn per_macro_ratios() {
        let r = sample();
        assert!((r.micro_per_macro() - 10.0).abs() < 1e-12);
        assert!((r.slow_io_words_per_instruction() - 100.0 / 75.0).abs() < 1e-12);
    }

    #[test]
    fn zero_window_is_all_zeroes() {
        let r = Report::new(Stats::new(), ClockConfig::multiwire());
        assert_eq!(r.utilization(TaskId::EMULATOR), 0.0);
        assert_eq!(r.slow_io_mbps(), 0.0);
        assert_eq!(r.storage_occupancy(), 0.0);
        assert_eq!(r.micro_per_macro(), 0.0);
        assert!(!format!("{r}").is_empty());
    }

    #[test]
    fn between_measures_a_window() {
        let mut early = Stats::new();
        early.cycles = 100;
        early.executed[0] = 90;
        let mut late = early.clone();
        late.cycles = 300;
        late.executed[0] = 190;
        let r = Report::between(&early, &late, ClockConfig::multiwire());
        assert_eq!(r.cycles(), 200);
        assert!((r.utilization(TaskId::EMULATOR) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_renders_tables() {
        let text = format!("{}", sample());
        assert!(text.contains("task utilization"));
        assert!(text.contains("hold breakdown"));
        assert!(text.contains("mem-data"));
        assert!(text.contains("processor"));
        assert!(text.contains("Mbit/s"));
    }

    #[test]
    fn display_renders_overruns_only_when_present() {
        let text = format!("{}", sample());
        assert!(!text.contains("overruns"));
        let mut s = sample().stats().clone();
        s.io_overruns = 3;
        let text = format!("{}", Report::new(s, ClockConfig::multiwire()));
        assert!(text.contains("io rx overruns: 3"));
    }

    fn cluster_sample() -> ClusterReport {
        let mut a = Stats::new();
        a.cycles = 1000;
        a.executed[0] = 600;
        a.executed[13] = 100;
        let mut b = Stats::new();
        b.cycles = 1000;
        b.executed[0] = 500;
        b.io_overruns = 2;
        let mut fabric = FabricStats::new(2, 89);
        fabric.ports[0].tx_packets = 4;
        fabric.ports[0].tx_words = 40;
        fabric.ports[1].rx_packets = 4;
        fabric.ports[1].rx_words = 40;
        fabric.ports[1].drops = 1;
        ClusterReport::new(
            ClockConfig::multiwire(),
            1000,
            vec![("m0".into(), a), ("m1".into(), b)],
            fabric,
        )
    }

    #[test]
    fn cluster_bandwidth_and_utilization() {
        let r = cluster_sample();
        // 40 words * 16 bits over 1000 cycles * 60 ns.
        let want = 640.0 / (1000.0 * 60.0 * 1e-9) / 1e6;
        assert!((r.fabric_rx_mbps() - want).abs() < 1e-6);
        assert!((r.fabric_tx_mbps() - want).abs() < 1e-6);
        // 40 words * 89 cycles of wire time over 2 ports * 1000 cycles.
        assert!((r.fabric_utilization() - 40.0 * 89.0 / 2000.0).abs() < 1e-12);
        assert_eq!(r.fabric().drops(), 1);
        assert_eq!(r.machines().len(), 2);
        assert!((r.machine_report(0).utilization(TaskId::EMULATOR) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn cluster_display_renders() {
        let text = format!("{}", cluster_sample());
        assert!(text.contains("cluster: 2 machine(s)"));
        assert!(text.contains("per-machine task utilization"));
        assert!(text.contains("t13 10.0%"));
        assert!(text.contains("overruns 2"));
        assert!(text.contains("Mbit/s delivered"));
        assert!(text.contains("1 drop(s)"));
    }

    #[test]
    fn zero_cycle_window_renders_dashes_not_percentages() {
        // A counter block with activity but a zero-cycle window (as a
        // hand-built diff or a degenerate measurement produces): every
        // cycle-denominated percentage is undefined and must render `--`.
        let mut s = Stats::new();
        s.executed[0] = 5;
        s.held[0] = 2;
        let text = format!("{}", Report::new(s, ClockConfig::multiwire()));
        assert!(text.contains("--"), "{text}");
        assert!(text.contains("busy --% of cycles"), "{text}");
        assert!(!text.contains("NaN"), "{text}");
        assert!(!text.contains("inf"), "{text}");
    }

    #[test]
    fn zero_dispatch_window_renders_dashes_for_ifu_ratios() {
        let mut s = Stats::new();
        s.cycles = 100;
        s.executed[0] = 90;
        let text = format!("{}", Report::new(s, ClockConfig::multiwire()));
        assert!(text.contains("-- micro/macro"), "{text}");
        assert!(text.contains("taken-branch --"), "{text}");
        // A window with dispatches still renders real numbers.
        let text = format!("{}", sample());
        assert!(text.contains("10.0 micro/macro"), "{text}");
        assert!(text.contains("taken-branch 20.0%"), "{text}");
    }

    #[test]
    fn cluster_zero_cycle_machine_renders_dashes() {
        let mut fabric = FabricStats::new(1, 89);
        fabric.ports[0].tx_packets = 1;
        let r = ClusterReport::new(
            ClockConfig::multiwire(),
            0,
            vec![("m0".into(), Stats::new())],
            fabric,
        );
        let text = format!("{r}");
        assert!(text.contains("busy    --%"), "{text}");
        assert!(!text.contains("NaN"), "{text}");
    }

    #[test]
    fn latency_percentiles_are_nearest_rank() {
        let l = LatencyStats::from_cycles((1..=1000).rev().collect());
        assert_eq!(l.samples, 1000);
        assert_eq!(l.p50, 500);
        assert_eq!(l.p99, 990);
        assert_eq!(l.p999, 999);
        assert_eq!(l.max, 1000);
        assert!((l.mean - 500.5).abs() < 1e-9);
        // Every percentile of a single sample is that sample.
        let one = LatencyStats::from_cycles(vec![42]);
        assert_eq!((one.p50, one.p99, one.p999, one.max), (42, 42, 42, 42));
        assert_eq!(LatencyStats::from_cycles(vec![]), LatencyStats::default());
    }

    #[test]
    fn cluster_display_renders_workload_when_attached() {
        let plain = format!("{}", cluster_sample());
        assert!(!plain.contains("workload"), "{plain}");
        let r = cluster_sample().with_workload(WorkloadSummary {
            requests: 10,
            responses: 9,
            drops: 1,
            offered_rps: 1000.0,
            goodput_rps: 900.0,
            latency: LatencyStats::from_cycles(vec![100, 200, 300]),
        });
        assert_eq!(r.workload().unwrap().responses, 9);
        let text = format!("{r}");
        assert!(text.contains("10 request(s) offered (1000/s)"), "{text}");
        assert!(text.contains("9 response(s) (900/s goodput)"), "{text}");
        assert!(text.contains("p50 200 p99 300 p999 300 max 300"), "{text}");
        assert!(text.contains("us"), "{text}");
    }

    #[test]
    fn cluster_zero_window_is_zero() {
        let r = ClusterReport::new(ClockConfig::multiwire(), 0, vec![], FabricStats::new(0, 89));
        assert_eq!(r.fabric_rx_mbps(), 0.0);
        assert_eq!(r.fabric_utilization(), 0.0);
        assert!(!format!("{r}").is_empty());
    }
}
