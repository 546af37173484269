//! The Ethernet fabric: a switch connecting Dorado network controllers.
//!
//! The paper's machines shared a 3 Mbit/s experimental Ethernet (§2).  The
//! fabric models the medium between [`NetworkController`]s as a store-and-
//! forward switch: a packet transmitted out of port *s* is routed by its
//! first word (the destination address) and becomes deliverable at the
//! destination port after a latency of `latency_words` plus the packet's
//! own serialization time, all expressed in line-rate *word times*.
//!
//! Determinism is the design constraint: callers may send from many
//! threads, so nothing observable may depend on send interleaving.
//! Deliveries are ordered by `(due cycle, source port, per-fabric
//! sequence)` — the sequence counter is atomic and only ever compared
//! between packets of the *same* source, where relative order is fixed by
//! the sender's FIFO — and the output-queue cap is enforced per
//! destination port at collect time, never at send time.
//!
//! Internally the switch is *sharded per port* so a worker pool can drive
//! it without a global lock: each destination port owns a shard (its
//! in-flight queue, delivery counters, and receive log) behind its own
//! mutex, and each source port owns its transmit counters and log the
//! same way.  [`Fabric::send`] and [`Fabric::collect_for_port`] therefore
//! take `&self`: sends touch one tx record and one destination shard,
//! collects touch exactly one shard, and two collects for different ports
//! never contend.  Deliveries destined to different ports are disjoint,
//! so collect order across ports is immaterial — the property the pool
//! executor's determinism contract rests on.
//!
//! [`NetworkController`]: dorado_io::NetworkController

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dorado_base::snap::{Io, SnapError, Snapshot};
use dorado_base::{ClockConfig, FabricPortStats, FabricStats, Word};

/// Fabric parameters.
#[derive(Debug, Clone, Copy)]
pub struct FabricConfig {
    /// Line rate in Mbit/s (3.0 = the experimental Ethernet).
    pub mbps: f64,
    /// The cycle time the word clock is derived from.
    pub clock: ClockConfig,
    /// Switch latency in word times, added to every packet's serialization.
    pub latency_words: u64,
    /// Maximum packets that may remain queued toward one destination port
    /// across an epoch boundary; the newest beyond this are dropped.
    pub port_queue_limit: usize,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            mbps: 3.0,
            clock: ClockConfig::default(),
            latency_words: 2,
            port_queue_limit: 32,
        }
    }
}

impl FabricConfig {
    /// Cycles per word time at this line rate and clock (at least 1).
    pub fn word_cycles(&self) -> u64 {
        // 16 bits/word ÷ (mbps·10⁶ bit/s) in ns, over the cycle time.
        let ns_per_word = 16.0 * 1000.0 / self.mbps;
        ((ns_per_word / self.clock.cycle_ns()).round() as u64).max(1)
    }
}

/// One packet either sent or delivered on a port, for latency matching.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PacketRecord {
    /// Cycle the packet was committed to the wire (tx log — the sender's
    /// completion stamp when the executor supplies one, else the epoch
    /// boundary) or delivered (rx log — always an epoch boundary).
    pub cycle: u64,
    /// The other end: destination address (tx) or source address (rx).
    pub peer: Word,
    /// The packet's third word (the workload's sequence number), 0 if the
    /// packet is shorter than three words.
    pub seq: Word,
    /// Packet length in words.
    pub len: usize,
}

#[derive(Debug, Clone, Default)]
struct Delivery {
    due: u64,
    src: usize,
    seq: u64,
    words: Vec<Word>,
}

/// The transmit side of one source port: counters and log.  Touched only
/// by whoever is sending on behalf of that port, under its own lock.
#[derive(Debug, Default)]
struct TxPort {
    packets: u64,
    words: u64,
    /// Unroutable packets, charged to this source.
    drops: u64,
    log: Vec<PacketRecord>,
}

/// The receive shard of one destination port: the in-flight queue plus
/// delivery counters and log.  A collect for port *p* touches shard *p*
/// and nothing else.
#[derive(Debug, Default)]
struct PortShard {
    in_flight: Vec<Delivery>,
    packets: u64,
    words: u64,
    /// Queue-cap overflow, charged to this destination.
    drops: u64,
    log: Vec<PacketRecord>,
}

/// The switch.  Ports are dense indices; each is bound to one fabric
/// address (the value clients put in packet word 0).
#[derive(Debug)]
pub struct Fabric {
    word_cycles: u64,
    latency_words: u64,
    port_queue_limit: usize,
    addresses: Vec<Word>,
    next_seq: AtomicU64,
    tx: Vec<Mutex<TxPort>>,
    shards: Vec<Mutex<PortShard>>,
}

impl Fabric {
    /// Creates a fabric with one port per entry of `addresses`.
    ///
    /// # Panics
    ///
    /// Panics if two ports share an address.
    pub fn new(config: &FabricConfig, addresses: Vec<Word>) -> Self {
        for (i, a) in addresses.iter().enumerate() {
            assert!(
                !addresses[..i].contains(a),
                "fabric address {a:#x} bound twice"
            );
        }
        let n = addresses.len();
        Fabric {
            word_cycles: config.word_cycles(),
            latency_words: config.latency_words,
            port_queue_limit: config.port_queue_limit,
            addresses,
            next_seq: AtomicU64::new(0),
            tx: (0..n).map(|_| Mutex::new(TxPort::default())).collect(),
            shards: (0..n).map(|_| Mutex::new(PortShard::default())).collect(),
        }
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.addresses.len()
    }

    /// Cycles per word time on the wire.
    pub fn word_cycles(&self) -> u64 {
        self.word_cycles
    }

    /// The fabric address bound to `port`.
    pub fn address(&self, port: usize) -> Word {
        self.addresses[port]
    }

    fn record(packet: &[Word], peer: Word, cycle: u64) -> PacketRecord {
        PacketRecord {
            cycle,
            peer,
            seq: packet.get(2).copied().unwrap_or(0),
            len: packet.len(),
        }
    }

    /// Accepts a packet transmitted out of `src` at boundary cycle `now`,
    /// logging it at `now`.  See [`Fabric::send_stamped`].
    pub fn send(&self, src: usize, packet: Vec<Word>, now: u64) {
        self.send_stamped(src, packet, now, now);
    }

    /// Accepts a packet transmitted out of `src` at boundary cycle `now`,
    /// logging the transmit at `tx_stamp` — the sender-side completion
    /// cycle a [`NetworkController`] stamps on each packet, which gives
    /// latency measurement sub-epoch resolution while flight time is still
    /// computed from the boundary (the delivery-determinism contract).
    /// Word 0 addresses the destination; a packet addressed to no port is
    /// dropped and the drop charged to the source.  An empty packet has no
    /// address and carries nothing: it is discarded uncounted.
    ///
    /// [`NetworkController`]: dorado_io::NetworkController
    pub fn send_stamped(&self, src: usize, packet: Vec<Word>, now: u64, tx_stamp: u64) {
        if packet.is_empty() {
            return;
        }
        let dst = self.addresses.iter().position(|&a| a == packet[0]);
        {
            let mut tx = self.tx[src].lock().expect("fabric tx lock");
            tx.packets += 1;
            tx.words += packet.len() as u64;
            tx.log.push(Self::record(&packet, packet[0], tx_stamp));
            if dst.is_none() {
                tx.drops += 1;
                return;
            }
        }
        let flight = (self.latency_words + packet.len() as u64) * self.word_cycles;
        let delivery = Delivery {
            due: now + flight,
            src,
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            words: packet,
        };
        let dst = dst.expect("checked above");
        self.shards[dst]
            .lock()
            .expect("fabric shard lock")
            .in_flight
            .push(delivery);
    }

    /// Extracts the packets due at `port` by cycle `now`, in deterministic
    /// `(due, src, seq)` order, and enforces the port's queue cap on
    /// whatever remains in flight toward it (newest dropped first —
    /// charged to the destination).  Touches only port `port`'s shard, so
    /// concurrent collects for distinct ports neither contend nor observe
    /// each other — the pool executor collects all ports in parallel.
    pub fn collect_for_port(&self, port: usize, now: u64) -> Vec<Vec<Word>> {
        let mut sh = self.shards[port].lock().expect("fabric shard lock");
        if sh.in_flight.is_empty() {
            return Vec::new();
        }
        let mut due: Vec<Delivery> = Vec::new();
        let mut i = 0;
        while i < sh.in_flight.len() {
            if sh.in_flight[i].due <= now {
                due.push(sh.in_flight.swap_remove(i));
            } else {
                i += 1;
            }
        }
        due.sort_by_key(|d| (d.due, d.src, d.seq));
        if sh.in_flight.len() > self.port_queue_limit {
            // Drop the newest (largest sort key) still-pending packets.
            sh.in_flight.sort_by_key(|d| (d.due, d.src, d.seq));
            while sh.in_flight.len() > self.port_queue_limit {
                sh.in_flight.pop();
                sh.drops += 1;
            }
        }
        due.into_iter()
            .map(|d| {
                sh.packets += 1;
                sh.words += d.words.len() as u64;
                sh.log.push(Self::record(
                    &d.words,
                    d.words.get(1).copied().unwrap_or(0),
                    now,
                ));
                d.words
            })
            .collect()
    }

    /// Whether any packet is in flight toward `port` (due or not).  A
    /// cheap probe the pool executor uses to skip idle ports entirely.
    pub fn port_pending(&self, port: usize) -> bool {
        !self.shards[port]
            .lock()
            .expect("fabric shard lock")
            .in_flight
            .is_empty()
    }

    /// Per-port counters plus the word clock, for the cluster report.
    pub fn stats(&self) -> FabricStats {
        let ports = (0..self.ports())
            .map(|p| {
                let tx = self.tx[p].lock().expect("fabric tx lock");
                let sh = self.shards[p].lock().expect("fabric shard lock");
                FabricPortStats {
                    tx_packets: tx.packets,
                    tx_words: tx.words,
                    rx_packets: sh.packets,
                    rx_words: sh.words,
                    drops: tx.drops + sh.drops,
                }
            })
            .collect();
        FabricStats {
            ports,
            word_cycles: self.word_cycles,
        }
    }

    /// Packets sent out of `port`, oldest first.  The tx cycle of each
    /// record is the sender's completion stamp when the executor supplied
    /// one (see [`Fabric::send_stamped`]).
    pub fn tx_log(&self, port: usize) -> Vec<PacketRecord> {
        self.tx[port].lock().expect("fabric tx lock").log.clone()
    }

    /// Packets delivered to `port`, oldest first.
    pub fn rx_log(&self, port: usize) -> Vec<PacketRecord> {
        self.shards[port]
            .lock()
            .expect("fabric shard lock")
            .log
            .clone()
    }
}

/// One port half's counters and packet log, as both halves store them.
fn walk_port(
    io: &mut Io<'_>,
    counters: [&mut u64; 3],
    log: &mut Vec<PacketRecord>,
) -> Result<(), SnapError> {
    counters.into_iter().try_for_each(|v| io.u64(v))?;
    io.seq(log, |io, r| {
        io.u64(&mut r.cycle)?;
        io.u16(&mut r.peer)?;
        io.u16(&mut r.seq)?;
        io.usize(&mut r.len)
    })
}

impl Snapshot for Fabric {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<(), SnapError> {
        io.tag(b"FABR")?;
        // Geometry (port addresses, and with them the port count) is
        // configuration; word_cycles/latency/queue-limit travel with it.
        io.config(&self.addresses, "fabric addresses", Io::word_seq)?;
        // In-flight deliveries across all shards, walked in global
        // sequence order so the image is independent of shard layout and
        // of the (sort-on-eviction) in-shard ordering.
        let mut flat: Vec<(usize, Delivery)> = Vec::new();
        for (dst, shard) in self.shards.iter_mut().enumerate() {
            let sh = shard.get_mut().expect("fabric shard lock");
            flat.extend(sh.in_flight.iter().map(|d| (dst, d.clone())));
        }
        flat.sort_by_key(|(_, d)| d.seq);
        io.seq(&mut flat, |io, (dst, d)| {
            io.u64(&mut d.due)?;
            io.usize(&mut d.src)?;
            io.u64(&mut d.seq)?;
            io.usize(dst)?;
            io.word_seq(&mut d.words)
        })?;
        let ports = self.addresses.len();
        for (dst, d) in &flat {
            io.check(d.src < ports && *dst < ports, "fabric port index")?;
            io.check(!d.words.is_empty(), "empty fabric packet")?;
        }
        if io.is_load() {
            for shard in &mut self.shards {
                shard
                    .get_mut()
                    .expect("fabric shard lock")
                    .in_flight
                    .clear();
            }
            for (dst, d) in flat {
                let sh = self.shards[dst].get_mut().expect("fabric shard lock");
                sh.in_flight.push(d);
            }
        }
        io.u64(self.next_seq.get_mut())?;
        for tx in &mut self.tx {
            let tx = tx.get_mut().expect("fabric tx lock");
            walk_port(
                io,
                [&mut tx.packets, &mut tx.words, &mut tx.drops],
                &mut tx.log,
            )?;
        }
        for shard in &mut self.shards {
            let sh = shard.get_mut().expect("fabric shard lock");
            walk_port(
                io,
                [&mut sh.packets, &mut sh.words, &mut sh.drops],
                &mut sh.log,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(n: usize) -> Fabric {
        let cfg = FabricConfig::default();
        Fabric::new(&cfg, (0..n).map(|i| 0x100 + i as Word).collect())
    }

    #[test]
    fn word_clock_from_rate_and_cycle() {
        // 3 Mbit/s at 60 ns: 16 bits take 5333 ns ≈ 89 cycles.
        assert_eq!(FabricConfig::default().word_cycles(), 89);
        let fast = FabricConfig {
            mbps: 3000.0,
            ..FabricConfig::default()
        };
        assert_eq!(fast.word_cycles(), 1, "clamped to one cycle per word");
    }

    #[test]
    fn routes_by_first_word_with_latency() {
        let f = fabric(2);
        f.send(0, vec![0x101, 0x100, 7, 42], 1000);
        let flight = (2 + 4) * 89;
        assert!(f.collect_for_port(1, 1000 + flight - 1).is_empty());
        assert!(f.port_pending(1));
        let got = f.collect_for_port(1, 1000 + flight);
        assert_eq!(got, vec![vec![0x101, 0x100, 7, 42]]);
        assert!(!f.port_pending(1));
        let s = f.stats();
        assert_eq!(s.tx_packets(), 1);
        assert_eq!(s.rx_words(), 4);
        assert_eq!(s.drops(), 0);
        assert_eq!(
            f.tx_log(0),
            vec![PacketRecord {
                cycle: 1000,
                peer: 0x101,
                seq: 7,
                len: 4
            }]
        );
        assert_eq!(f.rx_log(1).len(), 1);
        assert_eq!(f.rx_log(1)[0].peer, 0x100, "rx peer is the source address");
    }

    #[test]
    fn stamped_sends_log_the_completion_cycle() {
        let f = fabric(2);
        // Committed mid-epoch at 940, drained at the 1000 boundary: the tx
        // log keeps the completion stamp, flight time runs from the
        // boundary.
        f.send_stamped(0, vec![0x101, 0x100, 9], 1000, 940);
        assert_eq!(f.tx_log(0)[0].cycle, 940);
        let flight = (2 + 3) * 89;
        assert!(f.collect_for_port(1, 1000 + flight - 1).is_empty());
        let got = f.collect_for_port(1, 1000 + flight);
        assert_eq!(got.len(), 1);
        assert_eq!(f.rx_log(1)[0].cycle, 1000 + flight);
    }

    #[test]
    fn unroutable_charged_to_source() {
        let f = fabric(2);
        f.send(0, vec![0xdead, 0x100, 0], 0);
        let s = f.stats();
        assert_eq!(s.drops(), 1);
        assert_eq!(s.ports[0].drops, 1, "charged to the source port");
        assert_eq!(s.tx_packets(), 1, "tx counted even when dropped");
        assert_eq!(f.collect_for_port(1, u64::MAX), Vec::<Vec<Word>>::new());
    }

    #[test]
    fn deliveries_sorted_by_due_then_source() {
        let f = fabric(3);
        // Port 2 hears from both peers; the longer packet sent earlier
        // lands later.
        f.send(1, vec![0x102, 0x101, 1, 0, 0, 0, 0, 0], 0);
        f.send(0, vec![0x102, 0x100, 2], 0);
        let got = f.collect_for_port(2, u64::MAX);
        assert_eq!(got[0][1], 0x100, "short packet arrives first");
        assert_eq!(got[1][1], 0x101);
    }

    #[test]
    fn queue_cap_drops_newest_pending() {
        let cfg = FabricConfig {
            port_queue_limit: 2,
            ..FabricConfig::default()
        };
        let f = Fabric::new(&cfg, vec![0x100, 0x101]);
        for seq in 0..5 {
            f.send(0, vec![0x101, 0x100, seq], 0);
        }
        // Nothing due yet: the cap trims the backlog to 2, dropping the
        // 3 newest.
        assert!(f.collect_for_port(1, 0).is_empty());
        assert_eq!(f.stats().ports[1].drops, 3);
        let got = f.collect_for_port(1, u64::MAX);
        assert_eq!(got.len(), 2);
        assert_eq!((got[0][2], got[1][2]), (0, 1), "oldest survive");
    }

    #[test]
    fn snapshot_round_trips_across_shards() {
        use dorado_base::snap::{restore_image, save_image};
        let mut f = fabric(3);
        f.send(0, vec![0x101, 0x100, 1], 0);
        f.send(1, vec![0x102, 0x101, 2], 0);
        f.send(2, vec![0xdead, 0x102, 3], 0); // unroutable: tx drop
        let _ = f.collect_for_port(1, u64::MAX); // one delivered
        let img = save_image(&mut f);
        let mut g = fabric(3);
        restore_image(&mut g, &img).unwrap();
        assert_eq!(save_image(&mut g), img);
        assert_eq!(g.stats(), f.stats());
        // The still-in-flight packet survives into the restored fabric.
        assert_eq!(g.collect_for_port(2, u64::MAX).len(), 1);
    }

    #[test]
    fn empty_packets_are_discarded_uncounted() {
        use dorado_base::snap::save_image;
        let mut f = fabric(2);
        f.send(0, vec![0x101, 0x100, 1], 0);
        let before = save_image(&mut f);
        f.send_stamped(0, vec![], 10, 5);
        assert_eq!(save_image(&mut f), before);
        assert_eq!(f.stats().tx_packets(), 1);
    }

    #[test]
    fn restore_rejects_an_empty_in_flight_packet() {
        use dorado_base::snap::{restore_image, save_image};
        let mut f = fabric(2);
        f.shards[1].lock().unwrap().in_flight.push(Delivery {
            due: 0,
            src: 0,
            seq: 0,
            words: vec![],
        });
        let err = restore_image(&mut fabric(2), &save_image(&mut f)).unwrap_err();
        assert!(matches!(err, SnapError::Invalid { .. }), "{err:?}");
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn duplicate_addresses_rejected() {
        let cfg = FabricConfig::default();
        let _ = Fabric::new(&cfg, vec![0x100, 0x100]);
    }
}
