//! Cross-wiring two bare `NetworkController`s through the fabric: a
//! packet transmitted by one arrives at the other word-for-word, trickles
//! in at line rate, and raises end-of-packet attention on the peer.

use dorado_base::{TaskId, Word};
use dorado_cluster::{Fabric, FabricConfig};
use dorado_io::{Device, NetworkController};

fn task() -> TaskId {
    TaskId::new(13)
}

#[test]
fn packet_crosses_fabric_word_for_word_at_line_rate() {
    let cfg = FabricConfig::default(); // 3 Mbit/s, 60 ns → 89 cycles/word
    let word_cycles = cfg.word_cycles();
    assert_eq!(word_cycles, 89);
    let fabric = Fabric::new(&cfg, vec![0x100, 0x101]);
    let mut a = NetworkController::new(task());
    let mut b = NetworkController::new(task());

    // A transmits a 5-word packet addressed to B.
    let packet: Vec<Word> = vec![0x101, 0x100, 7, 0xdead, 0xbeef];
    for &w in &packet {
        a.output(0, w);
    }
    a.output(2, 0); // end of packet
    let mut now = 0u64;
    for sent in a.drain_transmitted() {
        fabric.send(0, sent, now);
    }

    // The fabric holds it for (latency + length) word times.
    let flight = (cfg.latency_words + packet.len() as u64) * word_cycles;
    assert!(fabric.collect_for_port(1, now + flight - 1).is_empty());
    now += flight;
    let delivered = fabric.collect_for_port(1, now);
    assert_eq!(delivered, vec![packet.clone()], "word-for-word delivery");
    for p in delivered {
        b.inject_packet(p);
    }

    // B's FIFO fills at line rate: one word per 89-cycle word time, and
    // attention rises only once the last word has landed.
    let mut arrivals = Vec::new();
    for cycle in 1..=(packet.len() as u64 * word_cycles) + 1 {
        let before = b.input(1);
        b.tick();
        if b.input(1) > before {
            arrivals.push(cycle);
        }
        if (b.input(1) as usize) < packet.len() {
            assert!(!b.attention(), "attention before end of packet");
        }
    }
    assert_eq!(arrivals.len(), packet.len());
    for pair in arrivals.windows(2) {
        assert_eq!(pair[1] - pair[0], word_cycles, "line-rate spacing");
    }
    assert!(b.attention(), "end of packet raises attention on the peer");
    assert!(b.wakeup());

    // The service task would now read the packet back out intact.
    assert_eq!(b.input(3) as usize, packet.len());
    let got: Vec<Word> = packet.iter().map(|_| b.input(0)).collect();
    assert_eq!(got, packet);
    assert!(!b.attention(), "drained packet clears attention");

    // And the fabric accounted for the traffic on both ports.
    let s = fabric.stats();
    assert_eq!(s.ports[0].tx_packets, 1);
    assert_eq!(s.ports[0].tx_words, 5);
    assert_eq!(s.ports[1].rx_packets, 1);
    assert_eq!(s.ports[1].rx_words, 5);
    assert_eq!(s.drops(), 0);
}

#[test]
fn cross_wired_pair_ping_pong() {
    let cfg = FabricConfig::default();
    let fabric = Fabric::new(&cfg, vec![0x100, 0x101]);
    let mut nets = [
        NetworkController::new(task()),
        NetworkController::new(task()),
    ];

    // A host-level echo: whatever lands at a port is sent back swapped.
    nets[0].output(0, 0x101);
    nets[0].output(0, 0x100);
    nets[0].output(0, 1);
    nets[0].output(2, 0);
    let mut now = 0;
    let mut hops = 0;
    for _ in 0..6 {
        for (port, net) in nets.iter_mut().enumerate() {
            for pkt in net.drain_transmitted() {
                fabric.send(port, pkt, now);
            }
        }
        now += 1_000;
        for (port, net) in nets.iter_mut().enumerate() {
            for pkt in fabric.collect_for_port(port, now) {
                hops += 1;
                let mut echo = pkt.clone();
                echo.swap(0, 1);
                for w in echo {
                    net.output(0, w);
                }
                net.output(2, 0);
            }
        }
    }
    assert!(hops >= 4, "packet kept crossing the fabric: {hops} hops");
    let s = fabric.stats();
    assert_eq!(s.tx_packets(), s.rx_packets(), "nothing lost in flight");
    assert!(s.ports[0].rx_packets > 0 && s.ports[1].rx_packets > 0);
}
