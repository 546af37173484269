//! Property tests over the CFG builder, driven by the in-repo
//! `dorado_base::check` harness: for randomly synthesized programs, the
//! graph's node set is exactly the `SlotUse`-used words, and the edge
//! relation is internally consistent.

use dorado_asm::placer::SlotUse;
use dorado_asm::synth::{random_program, SynthProfile};
use dorado_base::check::{check, Rng};
use dorado_base::{MicroAddr, MICROSTORE_SIZE};
use dorado_ulint::Cfg;

/// The CFG has a node for a word iff the placer marked that slot used
/// (an instruction or a relay — padding and empty slots carry none),
/// and relay-ness matches the slot kind.
#[test]
fn cfg_covers_exactly_the_used_words() {
    check("cfg_covers_exactly_the_used_words", 48, |rng: &mut Rng| {
        let seed = rng.next_u64();
        let placed = random_program(seed, 200, &SynthProfile::default())
            .place()
            .expect("synthesized programs place");
        let cfg = Cfg::build(&placed);
        let uses = placed.uses();
        let mut used_words = 0usize;
        for (i, slot) in uses.iter().enumerate() {
            let addr = MicroAddr::new(i as u16);
            match (slot, cfg.node(addr)) {
                (SlotUse::Empty | SlotUse::Waste, None) => {}
                (SlotUse::Empty | SlotUse::Waste, Some(_)) => {
                    panic!("seed {seed}: node at unused slot {addr}")
                }
                (SlotUse::Inst(_) | SlotUse::Relay(_), None) => {
                    panic!("seed {seed}: used slot {addr} has no node")
                }
                (slot, Some(node)) => {
                    used_words += 1;
                    assert_eq!(node.addr, addr, "seed {seed}");
                    assert_eq!(
                        node.relay,
                        matches!(slot, SlotUse::Relay(_)),
                        "seed {seed}: relay flag wrong at {addr}"
                    );
                    assert_eq!(
                        node.word.raw(),
                        placed.word(addr).raw(),
                        "seed {seed}: word mismatch at {addr}"
                    );
                }
            }
        }
        assert_eq!(cfg.len(), used_words, "seed {seed}");
    });
}

/// Edges stay inside the node set and the predecessor relation is the
/// exact inverse of the successor relation.
#[test]
fn cfg_edges_are_consistent() {
    check("cfg_edges_are_consistent", 48, |rng: &mut Rng| {
        let seed = rng.next_u64();
        let placed = random_program(seed, 160, &SynthProfile::default())
            .place()
            .expect("synthesized programs place");
        let cfg = Cfg::build(&placed);
        for node in cfg.iter() {
            for &s in &node.succs {
                let succ = cfg.node(s).unwrap_or_else(|| {
                    panic!("seed {seed}: edge {} -> {s} leaves the graph", node.addr)
                });
                assert!(
                    succ.preds.contains(&node.addr),
                    "seed {seed}: {} -> {s} missing inverse pred edge",
                    node.addr
                );
            }
            for &p in &node.preds {
                let pred = cfg.node(p).unwrap_or_else(|| {
                    panic!("seed {seed}: pred {p} of {} not in graph", node.addr)
                });
                assert!(
                    pred.succs.contains(&node.addr),
                    "seed {seed}: pred edge {p} -> {} has no forward edge",
                    node.addr
                );
            }
        }
        // Reachability from every label never escapes the node set and
        // is monotone in the root set.
        let labels: Vec<MicroAddr> = placed.labels().map(|(_, a)| a).collect();
        let all = cfg.reach(&labels);
        for (i, reached) in all.iter().enumerate() {
            if *reached {
                assert!(
                    cfg.node(MicroAddr::new(i as u16)).is_some(),
                    "seed {seed}: reached an address with no node"
                );
            }
        }
        if let Some((&first, _)) = labels.split_first() {
            let one = cfg.reach(&[first]);
            for i in 0..MICROSTORE_SIZE {
                assert!(
                    !one[i] || all[i],
                    "seed {seed}: single-root reach escapes the full-root reach at {i}"
                );
            }
        }
    });
}

/// Rewriting any used word in place with `Cfg::replace` — here with a
/// copy of another used word, so every control kind lands at every
/// kind of address, self-loops included — gives exactly the graph
/// `Cfg::build` makes of the patched image, and replacing the old word
/// back restores the original graph exactly.
#[test]
fn cfg_replace_equals_rebuild() {
    check("cfg_replace_equals_rebuild", 48, |rng: &mut Rng| {
        let seed = rng.next_u64();
        let mut placed = random_program(seed, 160, &SynthProfile::default())
            .place()
            .expect("synthesized programs place");
        let original = Cfg::build(&placed);
        let used: Vec<MicroAddr> = original.iter().map(|n| n.addr).collect();
        let mut cfg = original.clone();
        let image = placed.clone();
        for _ in 0..8 {
            let at = *rng.choose(&used);
            let word = placed.word(*rng.choose(&used));
            let relay = matches!(placed.uses()[at.raw() as usize], SlotUse::Relay(_));
            let old = placed.word(at);
            placed.set_word(at, word);
            cfg.replace(at, word, relay);
            assert!(
                cfg == Cfg::build(&placed),
                "seed {seed}: replace at {at} differs from a rebuild"
            );
            placed.set_word(at, old);
            cfg.replace(at, old, relay);
        }
        assert!(placed == image, "seed {seed}");
        assert!(
            cfg == original,
            "seed {seed}: replacing back did not restore the graph"
        );
    });
}
