//! Structured counters for the observability layer.
//!
//! §7 of the paper reports its measurements as *ratios of counters* split
//! along axes the flat counter block cannot express: cache hits per
//! requester (the emulator's port vs the IFU's private port vs fast I/O),
//! holds per cause per task, storage-pipeline occupancy, and IFU buffer
//! fullness.  The types here are those axes; [`crate::Stats`] embeds them
//! and [`crate::report::Report`] turns them into the paper's tables.

/// Who started a cache reference.
///
/// §4: "independent busses communicate with the memory, IFU, and I/O
/// systems" — each bus is a distinct requester with its own locality, so
/// the hit rates differ and §7 quotes them separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Requester {
    /// An emulator or I/O task's fetch/store on the processor port.
    Processor,
    /// The IFU's byte-stream prefetch on its private port.
    Ifu,
    /// A fast-I/O munch transfer (§5.8), which bypasses the cache but must
    /// probe it for coherence.
    FastIo,
}

impl Requester {
    /// Number of distinct requesters.
    pub const COUNT: usize = 3;

    /// Every requester, in `index()` order.
    pub const ALL: [Requester; Requester::COUNT] =
        [Requester::Processor, Requester::Ifu, Requester::FastIo];

    /// A dense index in `0..COUNT`.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Requester::Processor => 0,
            Requester::Ifu => 1,
            Requester::FastIo => 2,
        }
    }

    /// A short stable name, used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Requester::Processor => "processor",
            Requester::Ifu => "ifu",
            Requester::FastIo => "fast-io",
        }
    }
}

impl std::fmt::Display for Requester {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Reference/hit counters for one cache port.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortCounters {
    /// References started on this port.
    pub refs: u64,
    /// References that hit in the cache.
    pub hits: u64,
}

impl PortCounters {
    /// References that missed.
    pub fn misses(&self) -> u64 {
        self.refs - self.hits
    }

    /// Hit rate in `[0, 1]`; 0 when there were no references.
    pub fn hit_rate(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.hits as f64 / self.refs as f64
        }
    }

    /// Counter-wise difference (`self` later than `earlier`).
    pub fn since(&self, earlier: &PortCounters) -> PortCounters {
        PortCounters {
            refs: self.refs - earlier.refs,
            hits: self.hits - earlier.hits,
        }
    }
}

/// Cache counters split by requester.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Processor-port references (task fetches and stores).
    pub processor: PortCounters,
    /// IFU-port references (byte-stream prefetch).
    pub ifu: PortCounters,
    /// Fast-I/O coherence probes that were satisfied from the cache
    /// (dirty-munch hits) vs. went to storage.
    pub fast_io: PortCounters,
}

impl CacheStats {
    /// The counters for one requester.
    pub fn port(&self, requester: Requester) -> &PortCounters {
        match requester {
            Requester::Processor => &self.processor,
            Requester::Ifu => &self.ifu,
            Requester::FastIo => &self.fast_io,
        }
    }

    /// Mutable counters for one requester.
    pub fn port_mut(&mut self, requester: Requester) -> &mut PortCounters {
        match requester {
            Requester::Processor => &mut self.processor,
            Requester::Ifu => &mut self.ifu,
            Requester::FastIo => &mut self.fast_io,
        }
    }

    /// All ports summed.
    pub fn total(&self) -> PortCounters {
        PortCounters {
            refs: self.processor.refs + self.ifu.refs + self.fast_io.refs,
            hits: self.processor.hits + self.ifu.hits + self.fast_io.hits,
        }
    }

    /// Counter-wise difference (`self` later than `earlier`).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            processor: self.processor.since(&earlier.processor),
            ifu: self.ifu.since(&earlier.ifu),
            fast_io: self.fast_io.since(&earlier.fast_io),
        }
    }
}

/// Storage (main-RAM) pipeline counters.
///
/// Every storage cycle moves one 16-word munch (§5.8); the pipeline is
/// `busy` for the RAM cycle time of each, and §7's 530 Mbit/s ceiling is
/// one munch per 8 cycles with the pipeline 100% occupied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Storage cycles started, of any kind.
    pub refs: u64,
    /// Miss fills into the cache.
    pub fills: u64,
    /// Dirty-victim write-backs.
    pub writebacks: u64,
    /// Fast-I/O munch reads (storage → device).
    pub fast_fetches: u64,
    /// Fast-I/O munch writes (device → storage).
    pub fast_stores: u64,
    /// Cycles during which the storage RAMs were mid-cycle (occupancy
    /// numerator; the denominator is total elapsed cycles).
    pub busy_cycles: u64,
}

impl StorageStats {
    /// Words moved to or from storage (each ref is one munch).
    pub fn words_moved(&self) -> u64 {
        self.refs * crate::MUNCH_WORDS as u64
    }

    /// Pipeline occupancy in `[0, 1]` over `cycles` elapsed cycles; 0 when
    /// no cycles have elapsed.
    pub fn occupancy(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / cycles as f64
        }
    }

    /// Counter-wise difference (`self` later than `earlier`).
    pub fn since(&self, earlier: &StorageStats) -> StorageStats {
        StorageStats {
            refs: self.refs - earlier.refs,
            fills: self.fills - earlier.fills,
            writebacks: self.writebacks - earlier.writebacks,
            fast_fetches: self.fast_fetches - earlier.fast_fetches,
            fast_stores: self.fast_stores - earlier.fast_stores,
            busy_cycles: self.busy_cycles - earlier.busy_cycles,
        }
    }
}

/// IFU activity: dispatch/branch outcomes and prefetch-buffer fullness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IfuActivity {
    /// Macroinstructions dispatched (IFUJump taken).
    pub dispatches: u64,
    /// Words fetched on the IFU's cache port.
    pub fetches: u64,
    /// Macro jumps taken (each discards the buffer and refills, §3).
    pub jumps: u64,
    /// Sum over ticks of the prefetch buffer's byte occupancy (mean
    /// fullness numerator).
    pub buffer_bytes_accum: u64,
    /// Ticks on which the buffer was too full to issue a word fetch.
    pub buffer_full_cycles: u64,
    /// Prefetcher ticks observed (fullness denominator).
    pub ticks: u64,
}

impl IfuActivity {
    /// Mean prefetch-buffer occupancy in bytes; 0 before any tick.
    pub fn mean_buffer_bytes(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.buffer_bytes_accum as f64 / self.ticks as f64
        }
    }

    /// Fraction of ticks with a full buffer (the prefetcher keeping ahead
    /// of the macro program), in `[0, 1]`.
    pub fn buffer_full_fraction(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.buffer_full_cycles as f64 / self.ticks as f64
        }
    }

    /// Fraction of dispatched macroinstructions that redirected the
    /// instruction stream (taken branches), in `[0, 1]`.
    pub fn taken_branch_fraction(&self) -> f64 {
        if self.dispatches == 0 {
            0.0
        } else {
            self.jumps as f64 / self.dispatches as f64
        }
    }

    /// Counter-wise difference (`self` later than `earlier`).
    pub fn since(&self, earlier: &IfuActivity) -> IfuActivity {
        IfuActivity {
            dispatches: self.dispatches - earlier.dispatches,
            fetches: self.fetches - earlier.fetches,
            jumps: self.jumps - earlier.jumps,
            buffer_bytes_accum: self.buffer_bytes_accum - earlier.buffer_bytes_accum,
            buffer_full_cycles: self.buffer_full_cycles - earlier.buffer_full_cycles,
            ticks: self.ticks - earlier.ticks,
        }
    }
}

/// Traffic counters for one fabric port (one machine's attachment point on
/// the cluster Ethernet model).
///
/// `tx_*` counts what the machine put on the wire, `rx_*` what the fabric
/// delivered to it, and `drops` the packets the fabric discarded at this
/// port — misaddressed packets are charged to the *source* port, output-
/// queue overflows to the *destination* port.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricPortStats {
    /// Packets transmitted into the fabric.
    pub tx_packets: u64,
    /// Words transmitted into the fabric.
    pub tx_words: u64,
    /// Packets delivered out of the fabric.
    pub rx_packets: u64,
    /// Words delivered out of the fabric.
    pub rx_words: u64,
    /// Packets dropped at this port (unroutable on tx, queue overflow on rx).
    pub drops: u64,
}

impl FabricPortStats {
    /// Counter-wise difference (`self` later than `earlier`).
    pub fn since(&self, earlier: &FabricPortStats) -> FabricPortStats {
        FabricPortStats {
            tx_packets: self.tx_packets - earlier.tx_packets,
            tx_words: self.tx_words - earlier.tx_words,
            rx_packets: self.rx_packets - earlier.rx_packets,
            rx_words: self.rx_words - earlier.rx_words,
            drops: self.drops - earlier.drops,
        }
    }
}

/// Per-port traffic counters for a cluster fabric, plus the line rate the
/// fabric serialized packets at (cycles per 16-bit word).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// One counter block per port, in port order.
    pub ports: Vec<FabricPortStats>,
    /// Line-rate serialization time of one word, in microcycles.
    pub word_cycles: u64,
}

impl FabricStats {
    /// A zeroed counter block for `ports` ports.
    pub fn new(ports: usize, word_cycles: u64) -> Self {
        FabricStats {
            ports: vec![FabricPortStats::default(); ports],
            word_cycles,
        }
    }

    /// Total packets transmitted into the fabric.
    pub fn tx_packets(&self) -> u64 {
        self.ports.iter().map(|p| p.tx_packets).sum()
    }

    /// Total words transmitted into the fabric.
    pub fn tx_words(&self) -> u64 {
        self.ports.iter().map(|p| p.tx_words).sum()
    }

    /// Total packets delivered by the fabric.
    pub fn rx_packets(&self) -> u64 {
        self.ports.iter().map(|p| p.rx_packets).sum()
    }

    /// Total words delivered by the fabric.
    pub fn rx_words(&self) -> u64 {
        self.ports.iter().map(|p| p.rx_words).sum()
    }

    /// Total packets dropped (all ports, both causes).
    pub fn drops(&self) -> u64 {
        self.ports.iter().map(|p| p.drops).sum()
    }
}

use crate::snap::{Io, SnapError, Snapshot};

impl Snapshot for PortCounters {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<(), SnapError> {
        [&mut self.refs, &mut self.hits]
            .into_iter()
            .try_for_each(|v| io.u64(v))
    }
}

impl Snapshot for CacheStats {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<(), SnapError> {
        self.processor.walk(io)?;
        self.ifu.walk(io)?;
        self.fast_io.walk(io)
    }
}

impl Snapshot for StorageStats {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<(), SnapError> {
        [
            &mut self.refs,
            &mut self.fills,
            &mut self.writebacks,
            &mut self.fast_fetches,
            &mut self.fast_stores,
            &mut self.busy_cycles,
        ]
        .into_iter()
        .try_for_each(|v| io.u64(v))
    }
}

impl Snapshot for IfuActivity {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<(), SnapError> {
        [
            &mut self.dispatches,
            &mut self.fetches,
            &mut self.jumps,
            &mut self.buffer_bytes_accum,
            &mut self.buffer_full_cycles,
            &mut self.ticks,
        ]
        .into_iter()
        .try_for_each(|v| io.u64(v))
    }
}

impl Snapshot for FabricPortStats {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<(), SnapError> {
        [
            &mut self.tx_packets,
            &mut self.tx_words,
            &mut self.rx_packets,
            &mut self.rx_words,
            &mut self.drops,
        ]
        .into_iter()
        .try_for_each(|v| io.u64(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requester_indices_match_all() {
        for (i, r) in Requester::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn port_hit_rate() {
        let p = PortCounters { refs: 0, hits: 0 };
        assert_eq!(p.hit_rate(), 0.0);
        let p = PortCounters { refs: 10, hits: 9 };
        assert!((p.hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(p.misses(), 1);
    }

    #[test]
    fn cache_total_sums_ports() {
        let mut c = CacheStats {
            processor: PortCounters { refs: 5, hits: 4 },
            ifu: PortCounters { refs: 3, hits: 3 },
            fast_io: PortCounters { refs: 2, hits: 0 },
        };
        assert_eq!(c.total(), PortCounters { refs: 10, hits: 7 });
        assert_eq!(c.port(Requester::Ifu).refs, 3);
        c.port_mut(Requester::FastIo).hits += 1;
        assert_eq!(c.fast_io.hits, 1);
    }

    #[test]
    fn storage_occupancy_and_words() {
        let s = StorageStats {
            refs: 4,
            busy_cycles: 32,
            ..Default::default()
        };
        assert_eq!(s.words_moved(), 64);
        assert!((s.occupancy(64) - 0.5).abs() < 1e-12);
        assert_eq!(s.occupancy(0), 0.0);
    }

    #[test]
    fn ifu_fullness_means() {
        let i = IfuActivity {
            dispatches: 10,
            jumps: 4,
            buffer_bytes_accum: 30,
            buffer_full_cycles: 5,
            ticks: 10,
            ..Default::default()
        };
        assert!((i.mean_buffer_bytes() - 3.0).abs() < 1e-12);
        assert!((i.buffer_full_fraction() - 0.5).abs() < 1e-12);
        assert!((i.taken_branch_fraction() - 0.4).abs() < 1e-12);
        assert_eq!(IfuActivity::default().mean_buffer_bytes(), 0.0);
    }

    #[test]
    fn since_subtracts_everywhere() {
        let a = StorageStats {
            refs: 2,
            fills: 1,
            writebacks: 1,
            fast_fetches: 0,
            fast_stores: 0,
            busy_cycles: 16,
        };
        let b = StorageStats {
            refs: 5,
            fills: 3,
            writebacks: 1,
            fast_fetches: 1,
            fast_stores: 0,
            busy_cycles: 40,
        };
        let d = b.since(&a);
        assert_eq!(d.refs, 3);
        assert_eq!(d.fills, 2);
        assert_eq!(d.busy_cycles, 24);
    }
}
