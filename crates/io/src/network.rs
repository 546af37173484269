//! The network controller: a ~3 Mbit/s experimental-Ethernet-style link of
//! the kind the Alto pioneered and the Dorado inherited (§2, §3).
//!
//! Receive: arriving packets trickle words into a FIFO at line rate; the
//! controller wakes its task per word and raises *attention* while a
//! complete packet is buffered.  Transmit: microcode pushes words; the
//! controller drains them at line rate and "puts them on the wire" — a
//! captured transcript that a cluster fabric can drain and deliver to a
//! peer controller.

use crate::{Device, RatePacer};
use dorado_base::snap::{Io, SnapError, Snapshot};
use dorado_base::{ClockConfig, TaskId, Word};
use std::collections::VecDeque;

/// Receive FIFO capacity in words; arrivals beyond this are dropped and
/// counted as overruns.
pub const RX_FIFO_WORDS: usize = 64;

/// Registers: 0 = data, 1 = status (rx FIFO occupancy), 2 = control
/// (writing any value ends the current transmit packet), 3 = length in
/// words of the first *complete* packet in the rx FIFO (0 if none).
#[derive(Debug)]
pub struct NetworkController {
    task: TaskId,
    pacer: RatePacer,
    /// Packets waiting to arrive (front = in progress).
    inbound: VecDeque<Vec<Word>>,
    /// Words of the in-progress inbound packet already delivered.
    rx_pos: usize,
    /// Words of the in-progress inbound packet that actually entered the
    /// FIFO (as opposed to being dropped to overrun).
    rx_accepted: usize,
    /// Received words, each flagged if it is the last word of its packet.
    rx_fifo: VecDeque<(Word, bool)>,
    /// Complete packets currently buffered (count of end flags in the FIFO).
    rx_boundaries: usize,
    /// Words promised to in-flight service.
    committed: usize,
    /// Words queued by microcode for transmit.
    tx_fifo: VecDeque<Word>,
    tx_current: Vec<Word>,
    /// Fully transmitted packets, each stamped with the controller-local
    /// cycle its end-of-packet control write committed it, until a fabric
    /// drains them.
    pub transmitted: Vec<(u64, Vec<Word>)>,
    /// Controller-local cycle counter: real ticks plus skipped quiescent
    /// cycles, so it tracks the machine clock exactly.  Stamps the
    /// transmit transcript for sub-epoch latency accounting.
    clock: u64,
    /// Words lost to rx FIFO overflow.
    pub overruns: u64,
    /// Packets lost *entirely* to overrun: every word was dropped, so no
    /// terminated word — and therefore no boundary — ever reached the FIFO.
    pub truncated_packets: u64,
    tx_packets: u64,
    tx_words: u64,
}

impl NetworkController {
    /// The default line rate in Mbit/s (the 3 Mbit/s experimental Ethernet).
    pub const DEFAULT_MBPS: f64 = 3.0;

    /// Creates a controller wired to `task` at the default line rate on
    /// the default (multiwire, 60 ns) clock.
    pub fn new(task: TaskId) -> Self {
        Self::with_clock(task, Self::DEFAULT_MBPS, &ClockConfig::default())
    }

    /// Creates a controller with an explicit line rate and cycle time.
    pub fn with_rate(task: TaskId, mbps: f64, cycle_ns: f64) -> Self {
        Self::with_clock(task, mbps, &ClockConfig::with_cycle_ns(cycle_ns))
    }

    /// Creates a controller whose line rate is paced against `clock` — a
    /// 50 ns stitchweld machine serves the same Mbit/s in more cycles.
    pub fn with_clock(task: TaskId, mbps: f64, clock: &ClockConfig) -> Self {
        NetworkController {
            task,
            pacer: RatePacer::for_clock(mbps, clock),
            inbound: VecDeque::new(),
            rx_pos: 0,
            rx_accepted: 0,
            rx_fifo: VecDeque::new(),
            rx_boundaries: 0,
            committed: 0,
            tx_fifo: VecDeque::new(),
            tx_current: Vec::new(),
            transmitted: Vec::new(),
            clock: 0,
            overruns: 0,
            truncated_packets: 0,
            tx_packets: 0,
            tx_words: 0,
        }
    }

    /// Queues a packet to arrive from the wire.  An empty packet carries
    /// nothing to receive and is discarded.
    pub fn inject_packet(&mut self, words: Vec<Word>) {
        if !words.is_empty() {
            self.inbound.push_back(words);
        }
    }

    /// Whether any receive work remains.
    pub fn rx_busy(&self) -> bool {
        !self.inbound.is_empty() || !self.rx_fifo.is_empty()
    }

    /// Takes the packets transmitted since the last drain, oldest first —
    /// the fabric-facing side of the wire.
    pub fn drain_transmitted(&mut self) -> Vec<Vec<Word>> {
        self.drain_transmitted_stamped()
            .into_iter()
            .map(|(_, words)| words)
            .collect()
    }

    /// [`NetworkController::drain_transmitted`], keeping each packet's
    /// completion stamp: the controller-local cycle at which the
    /// end-of-packet control write committed it to the wire transcript.
    /// Cluster executors feed the stamp into the fabric's transmit log so
    /// request latency is measured from packet completion, not from the
    /// epoch boundary the drain happens to land on.
    pub fn drain_transmitted_stamped(&mut self) -> Vec<(u64, Vec<Word>)> {
        std::mem::take(&mut self.transmitted)
    }

    /// Whether fully transmitted packets are waiting for a fabric drain.
    /// Exact without a device sync: the transcript only grows on an
    /// end-of-packet control write, which always syncs.
    pub fn has_transmitted(&self) -> bool {
        !self.transmitted.is_empty()
    }

    /// Packets fully transmitted since reset (survives draining).
    pub fn tx_packets(&self) -> u64 {
        self.tx_packets
    }

    /// Words fully transmitted since reset (survives draining).
    pub fn tx_words(&self) -> u64 {
        self.tx_words
    }
}

impl Device for NetworkController {
    fn name(&self) -> &str {
        "network"
    }

    fn task(&self) -> TaskId {
        self.task
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn wakeup(&self) -> bool {
        self.rx_fifo.len() > self.committed || self.rx_boundaries > 0
    }

    fn observe_next(&mut self) {
        if self.rx_fifo.len() > self.committed {
            self.committed += 1;
        }
    }

    fn tick(&mut self) {
        self.clock += 1;
        for _ in 0..self.pacer.step() {
            // Receive side: one word of the in-progress packet arrives.
            if let Some(pkt) = self.inbound.front() {
                let last = self.rx_pos + 1 == pkt.len();
                if self.rx_fifo.len() >= RX_FIFO_WORDS {
                    self.overruns += 1;
                    if last {
                        if self.rx_accepted > 0 {
                            // The truncated packet still ends: terminate it
                            // at its last word that did fit.  That word is
                            // the FIFO's back — this packet's words are the
                            // most recent pushes.
                            if let Some(back) = self.rx_fifo.back_mut() {
                                if !back.1 {
                                    back.1 = true;
                                    self.rx_boundaries += 1;
                                }
                            }
                        } else {
                            // Every word was dropped: no terminated word is
                            // in the FIFO to carry a boundary, so the packet
                            // would otherwise vanish without a trace.
                            self.truncated_packets += 1;
                        }
                    }
                } else {
                    self.rx_fifo.push_back((pkt[self.rx_pos], last));
                    self.rx_accepted += 1;
                    if last {
                        self.rx_boundaries += 1;
                    }
                }
                self.rx_pos += 1;
                if last {
                    self.inbound.pop_front();
                    self.rx_pos = 0;
                    self.rx_accepted = 0;
                }
            }
            // Transmit side.
            if let Some(w) = self.tx_fifo.pop_front() {
                self.tx_current.push(w);
            }
        }
    }

    fn input(&mut self, reg: Word) -> Word {
        match reg {
            0 => {
                self.committed = self.committed.saturating_sub(1);
                let (w, end) = self.rx_fifo.pop_front().unwrap_or((0, false));
                if end {
                    self.rx_boundaries -= 1;
                }
                w
            }
            3 => self
                .rx_fifo
                .iter()
                .position(|&(_, end)| end)
                .map_or(0, |p| (p + 1) as Word),
            _ => self.rx_fifo.len() as Word,
        }
    }

    fn output(&mut self, reg: Word, word: Word) {
        match reg {
            0 => self.tx_fifo.push_back(word),
            2 => {
                // End of packet: flush anything still in the tx FIFO, then
                // commit the packet to the wire transcript.
                while let Some(w) = self.tx_fifo.pop_front() {
                    self.tx_current.push(w);
                }
                if !self.tx_current.is_empty() {
                    self.tx_packets += 1;
                    self.tx_words += self.tx_current.len() as u64;
                    self.transmitted
                        .push((self.clock, std::mem::take(&mut self.tx_current)));
                }
            }
            _ => {}
        }
    }

    fn attention(&self) -> bool {
        self.rx_boundaries > 0
    }

    fn rx_overruns(&self) -> u64 {
        self.overruns
    }

    fn next_due(&self, now: u64) -> Option<u64> {
        // With nothing arriving and nothing queued to transmit, line-rate
        // events are no-ops; only the pacer phase advances, and skip()
        // reconstructs that.
        if self.inbound.is_empty() && self.tx_fifo.is_empty() {
            return None;
        }
        self.pacer.cycles_until_event().map(|k| now + k - 1)
    }

    fn skip(&mut self, cycles: u64) {
        self.pacer = self.pacer.advanced(cycles);
        self.clock += cycles;
    }

    fn tx_pending(&self) -> bool {
        self.has_transmitted()
    }
}

/// Walks one whole packet: packets are never empty.
fn packet(io: &mut Io<'_>, words: &mut Vec<Word>) -> Result<(), SnapError> {
    io.word_seq(words)?;
    io.check(!words.is_empty(), "empty network packet")
}

impl Snapshot for NetworkController {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<(), SnapError> {
        io.tag(b"NETC")?;
        io.config(&self.task.number(), "network task", Io::u8)?;
        self.pacer.walk(io)?;
        io.u64(&mut self.clock)?;
        io.seq(&mut self.inbound, packet)?;
        io.usize(&mut self.rx_pos)?;
        io.usize(&mut self.rx_accepted)?;
        // The receive cursor lies inside the in-progress (front) packet,
        // and only words it has passed can have entered the FIFO.
        let front_len = self.inbound.front().map_or(1, Vec::len);
        io.check(
            self.rx_pos < front_len && self.rx_accepted <= self.rx_pos,
            "network receive position",
        )?;
        io.seq(&mut self.rx_fifo, |io, (word, end)| {
            io.u16(word)?;
            io.bool(end)
        })?;
        io.usize(&mut self.rx_boundaries)?;
        io.usize(&mut self.committed)?;
        io.word_seq(&mut self.tx_fifo)?;
        io.word_seq(&mut self.tx_current)?;
        io.seq(&mut self.transmitted, |io, (at, pkt)| {
            io.u64(at)?;
            packet(io, pkt)
        })?;
        [
            &mut self.overruns,
            &mut self.truncated_packets,
            &mut self.tx_packets,
            &mut self.tx_words,
        ]
        .into_iter()
        .try_for_each(|v| io.u64(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> NetworkController {
        NetworkController::new(TaskId::new(13))
    }

    #[test]
    fn receive_delivers_packet_and_attention() {
        let mut n = net();
        n.inject_packet(vec![10, 20, 30]);
        assert!(!n.wakeup());
        // 3 Mbit/s = 0.01125 words/cycle: 3 words need ~267 cycles.
        for _ in 0..300 {
            n.tick();
        }
        assert!(n.wakeup());
        assert!(n.attention(), "end of packet raises attention");
        assert_eq!(n.input(1), 3);
        assert_eq!(n.input(3), 3, "first complete packet is 3 words");
        assert_eq!((n.input(0), n.input(0), n.input(0)), (10, 20, 30));
        assert!(!n.attention(), "drained packet clears attention");
        assert!(!n.rx_busy());
    }

    #[test]
    fn transmit_collects_packets() {
        let mut n = net();
        for w in [1u16, 2, 3] {
            n.output(0, w);
        }
        for _ in 0..400 {
            n.tick();
        }
        n.output(2, 0); // end of packet
        assert_eq!(n.transmitted, vec![(400, vec![1, 2, 3])]);
        assert!(n.has_transmitted());
        // Next packet accumulates separately.
        n.output(0, 9);
        n.output(2, 0);
        assert_eq!(n.transmitted.len(), 2);
        assert_eq!(n.transmitted[1], (400, vec![9]));
        assert_eq!(n.tx_packets(), 2);
        assert_eq!(n.tx_words(), 4);
    }

    #[test]
    fn drain_takes_packets_but_keeps_counters() {
        let mut n = net();
        n.output(0, 7);
        n.output(2, 0);
        assert_eq!(n.drain_transmitted(), vec![vec![7]]);
        assert!(n.drain_transmitted().is_empty());
        assert!(!n.has_transmitted());
        assert_eq!(n.tx_packets(), 1);
        assert_eq!(n.tx_words(), 1);
    }

    #[test]
    fn transmit_stamps_track_the_local_clock() {
        let mut n = net();
        n.output(0, 1);
        n.output(2, 0); // committed before any tick: stamp 0
        for _ in 0..123 {
            n.tick();
        }
        n.output(0, 2);
        n.output(2, 0);
        // A skipped quiescent window counts like real ticks.
        n.skip(77);
        n.output(0, 3);
        n.output(2, 0);
        let got = n.drain_transmitted_stamped();
        assert_eq!(got, vec![(0, vec![1]), (123, vec![2]), (200, vec![3])]);
    }

    #[test]
    fn overrun_when_unserviced() {
        let mut n = net();
        n.inject_packet(vec![0; 200]);
        for _ in 0..200 * 100 {
            n.tick();
        }
        assert!(n.overruns > 0);
        assert_eq!(n.rx_overruns(), n.overruns);
        // The truncated packet still terminates: attention is up and the
        // FIFO's last word carries the end flag.
        assert!(n.attention());
        assert_eq!(n.input(3), RX_FIFO_WORDS as Word);
        for _ in 0..RX_FIFO_WORDS {
            n.input(0);
        }
        assert!(!n.attention());
    }

    #[test]
    fn fully_truncated_packet_is_accounted() {
        let mut n = net();
        // The first packet alone overfills the FIFO; the second arrives
        // while the FIFO is still saturated, so *every* one of its words is
        // dropped — it must be counted, not silently vanish.
        n.inject_packet(vec![1; RX_FIFO_WORDS + 8]);
        n.inject_packet(vec![2; 4]);
        for _ in 0..(RX_FIFO_WORDS + 12) * 100 {
            n.tick();
        }
        assert!(n.inbound.is_empty(), "both packets fully arrived");
        assert_eq!(n.truncated_packets, 1, "second packet fully dropped");
        assert_eq!(
            n.overruns,
            8 + 4,
            "8 words of packet one, all 4 of packet two"
        );
        // Exactly one boundary: the first (truncated) packet's.
        assert_eq!(n.input(3), RX_FIFO_WORDS as Word);
        for _ in 0..RX_FIFO_WORDS {
            n.input(0);
        }
        assert!(!n.attention(), "no phantom boundary from the lost packet");
        assert_eq!(n.input(1), 0, "no words left over");
    }

    #[test]
    fn snapshot_round_trip_mid_receive() {
        use dorado_base::snap::{restore_image, save_image};
        let mut n = net();
        n.inject_packet(vec![10, 20, 30]);
        n.output(0, 7); // tx word pending
        for _ in 0..150 {
            n.tick(); // partway through the inbound packet
        }
        let img = save_image(&mut n);
        let mut m = net();
        restore_image(&mut m, &img).unwrap();
        assert_eq!(save_image(&mut m), img);
        for _ in 0..200 {
            n.tick();
            m.tick();
        }
        n.output(2, 0);
        m.output(2, 0);
        assert_eq!(n.transmitted, m.transmitted);
        assert_eq!((n.input(3), n.input(0)), (m.input(3), m.input(0)));
        assert_eq!(save_image(&mut n), save_image(&mut m));

        // A snapshot from a differently-wired controller is rejected.
        let mut other = NetworkController::new(TaskId::new(9));
        assert_eq!(
            restore_image(&mut other, &img).unwrap_err(),
            SnapError::Mismatch {
                what: "network task"
            }
        );
    }

    #[test]
    fn restore_rejects_empty_packets_and_stray_receive_positions() {
        use dorado_base::snap::{restore_image, save_image};
        let invalid = |n: &mut NetworkController| restore_image(&mut net(), &save_image(n));
        let mut n = net();
        n.inbound.push_back(vec![]);
        assert!(matches!(invalid(&mut n), Err(SnapError::Invalid { .. })));

        let mut n = net();
        n.transmitted.push((0, vec![]));
        assert!(matches!(invalid(&mut n), Err(SnapError::Invalid { .. })));

        for (inbound, rx_pos, rx_accepted) in [(None, 1, 0), (Some(3), 3, 0), (Some(3), 1, 2)] {
            let mut n = net();
            n.inbound.extend(inbound.map(|len| vec![7; len]));
            n.rx_pos = rx_pos;
            n.rx_accepted = rx_accepted;
            assert!(
                matches!(invalid(&mut n), Err(SnapError::Invalid { .. })),
                "inbound {inbound:?} rx_pos {rx_pos} rx_accepted {rx_accepted}"
            );
        }
    }

    #[test]
    fn attention_distinguishes_buffered_packets() {
        let mut n = NetworkController::with_rate(TaskId::new(13), 300.0, 60.0);
        n.inject_packet(vec![1, 2]);
        n.inject_packet(vec![3]);
        for _ in 0..40 {
            n.tick();
        }
        // Both packets are in the FIFO; reg 3 sees only the first.
        assert_eq!(n.input(1), 3);
        assert_eq!(n.input(3), 2);
        assert!(n.attention());
        n.input(0);
        n.input(0);
        assert!(n.attention(), "second packet keeps attention up");
        assert_eq!(n.input(3), 1);
        n.input(0);
        assert!(!n.attention());
    }

    #[test]
    fn stitchweld_clock_paces_more_cycles_per_word() {
        let mut fast =
            NetworkController::with_clock(TaskId::new(13), 3.0, &ClockConfig::stitchweld());
        let mut slow = net();
        fast.inject_packet(vec![1]);
        slow.inject_packet(vec![1]);
        let arrival = |n: &mut NetworkController| {
            let mut cycles = 0u64;
            while !n.attention() {
                n.tick();
                cycles += 1;
                assert!(cycles < 10_000);
            }
            cycles
        };
        // Same Mbit/s, shorter cycle: the 50 ns machine needs *more* cycles
        // per word than the 60 ns machine.
        assert!(arrival(&mut fast) > arrival(&mut slow));
    }

    #[test]
    fn empty_packets_are_discarded() {
        use dorado_base::snap::save_image;
        let mut n = net();
        n.inject_packet(vec![4, 5]);
        let before = save_image(&mut n);
        n.inject_packet(vec![]);
        assert_eq!(save_image(&mut n), before);
        assert_eq!(n.inbound.len(), 1);
    }
}
