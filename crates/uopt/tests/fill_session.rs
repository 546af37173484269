//! Differential test of the slot filler's count-only lint session
//! against the full lint.
//!
//! The walk below visits the relays in the filler's order, asks
//! [`candidate`] for each fill exactly as [`dorado_uopt::slotfill::fill`]
//! does, and applies the same accept/refuse rule.  For every candidate
//! that reaches the lint comparison it checks that
//!
//! * the session's `(errors, warnings)` after the patch equal
//!   `lint_with_config` on a freshly cloned and filled image;
//! * the patched image equals that fresh image, and the patched CFG
//!   equals `Cfg::build` of it (successors as lists, predecessors as
//!   sets);
//! * a revert restores the image and the CFG exactly.
//!
//! The walk must end on the image the filler produces, after the same
//! number of trials and refusals, so it covers every candidate the
//! filler tries.  The scheduled image it starts from must itself pass
//! structural verification and lint no worse than the input.

use dorado_asm::cfg::Cfg;
use dorado_asm::synth::{random_program, SynthProfile};
use dorado_asm::verify::verify_ok;
use dorado_asm::MicroProgram;
use dorado_base::check::{check, Rng};
use dorado_base::{MicroAddr, MICROSTORE_SIZE};
use dorado_emu::SuiteBuilder;
use dorado_ulint::{analyze, lint, lint_with_config, LintSession};
use dorado_uopt::slotfill::{candidate, fill, listing, relays};
use dorado_uopt::{schedule, OptReport, Scheduled};

/// The refusal reason the lint comparison records.
const STRANDED: &str = "fill would strand the target from the paths that kept it lint-clean";

/// Whether two CFGs have the same nodes, words, relay flags and
/// successor lists, and the same predecessor sets.
fn same_graph(a: &Cfg, b: &Cfg) -> Result<(), String> {
    for raw in 0..MICROSTORE_SIZE {
        let at = MicroAddr::new(raw as u16);
        match (a.node(at), b.node(at)) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                if (x.word, x.relay, &x.succs) != (y.word, y.relay, &y.succs) {
                    return Err(format!("node {at}: {x:?} vs {y:?}"));
                }
                let (mut px, mut py) = (x.preds.clone(), y.preds.clone());
                px.sort_unstable();
                py.sort_unstable();
                if px != py {
                    return Err(format!("preds of {at}: {:?} vs {:?}", x.preds, y.preds));
                }
            }
            (x, y) => return Err(format!("node {at}: {x:?} vs {y:?}")),
        }
    }
    Ok(())
}

/// Walks every fill candidate of `program`; returns (trials, refusals).
fn differential(name: &str, input: &MicroProgram) -> (usize, usize) {
    let bound = lint(&input.place().unwrap_or_else(|e| panic!("{name}: {e}")));
    // The optimizer's image just before slot filling, and what the
    // filler itself makes of it.
    let Scheduled {
        program,
        mut placed,
        an,
        ..
    } = schedule(input).unwrap_or_else(|e| panic!("{name}: {e}"));
    verify_ok(&placed).unwrap_or_else(|e| panic!("{name}: scheduled image: {e}"));
    let scheduled = an.lint(&placed);
    assert!(
        scheduled.errors() <= bound.errors() && scheduled.warnings() <= bound.warnings(),
        "{name}: scheduled image lints worse than the input: {:?} -> {:?}",
        (bound.errors(), bound.warnings()),
        (scheduled.errors(), scheduled.warnings()),
    );
    let config = an.config.clone();
    let mut filled = placed.clone();
    let mut report = OptReport::default();
    let filler_an = analyze(&filled);
    fill(&mut filled, &program, filler_an, &mut report);
    let insts = listing(&program);
    let relays = relays(&placed, &an);

    let mut session = LintSession::new(&mut placed, an);
    let mut current = session.counts();
    let full = lint_with_config(session.placed(), &config);
    assert_eq!(
        current,
        (full.errors(), full.warnings()),
        "{name}: unpatched counts"
    );
    let (mut trials, mut refused) = (0, 0);
    for relay in relays {
        let Ok((word, i)) = candidate(session.placed(), &insts, &relay) else {
            continue;
        };
        let at = relay.at;
        trials += 1;
        let before = session.placed().clone();
        let before_cfg = session.cfg().clone();
        let mut fresh = before.clone();
        fresh.fill_relay(at, word, i);

        session.fill_relay(at, word, i);
        assert!(
            session.placed() == &fresh,
            "{name} {at}: patched image differs"
        );
        if let Err(e) = same_graph(session.cfg(), &Cfg::build(&fresh)) {
            panic!("{name} {at}: patched CFG differs from a rebuild: {e}");
        }
        let counts = session.counts();
        let lint = lint_with_config(&fresh, &config);
        assert_eq!(
            counts,
            (lint.errors(), lint.warnings()),
            "{name} {at}: session counts differ from the full lint"
        );

        session.revert();
        assert!(
            session.placed() == &before,
            "{name} {at}: revert left the image changed"
        );
        assert!(
            session.cfg() == &before_cfg,
            "{name} {at}: revert left the CFG changed"
        );
        if counts.0 <= current.0 && counts.1 <= current.1 {
            current = counts;
            session.fill_relay(at, word, i);
        } else {
            refused += 1;
        }
    }
    assert!(
        session.placed() == &filled,
        "{name}: the walk ended on a different image than the filler"
    );
    assert_eq!(trials, report.fill_trials, "{name}: trial count");
    let reported = report.refusals.get(STRANDED).copied().unwrap_or(0);
    assert_eq!(refused, reported, "{name}: refusal count");
    (trials, refused)
}

#[test]
fn session_matches_full_lint_on_every_suite() {
    let suites = [
        ("mesa", SuiteBuilder::new().with_mesa()),
        ("smalltalk", SuiteBuilder::new().with_smalltalk()),
        ("lisp", SuiteBuilder::new().with_lisp()),
        ("bcpl", SuiteBuilder::new().with_bcpl()),
        ("bitblt", SuiteBuilder::new().with_mesa().with_bitblt()),
        ("cluster", SuiteBuilder::new().with_mesa().with_cluster()),
        (
            "devices",
            SuiteBuilder::new()
                .with_mesa()
                .with_disk()
                .with_display()
                .with_network(),
        ),
        (
            "scenario",
            SuiteBuilder::new().with_scenario().with_bitblt(),
        ),
        ("everything", SuiteBuilder::everything()),
    ];
    let mut refused = Vec::new();
    for (name, builder) in suites {
        let (_, program) = builder.program();
        let (trials, r) = differential(name, &program);
        assert!(
            trials > 0,
            "{name}: no fill candidate reached the lint comparison"
        );
        if r > 0 {
            refused.push((name, r));
        }
    }
    // The lint comparison refuses two fills in smalltalk and two in
    // everything; the walk must have seen and checked all four.
    assert_eq!(refused, [("smalltalk", 2), ("everything", 2)]);
}

/// One seeded synthetic store of 200–3,400 instructions.
fn random_store(rng: &mut Rng) {
    let n = rng.range(200, 3_401) as usize;
    let seed = rng.next_u64();
    let program = random_program(seed, n, &SynthProfile::default());
    differential(&format!("random_program({seed:#x}, {n})"), &program);
}

// Fifty stores in all, split in two so the halves run in parallel.
#[test]
fn session_matches_full_lint_on_random_stores_a() {
    check(
        "session_matches_full_lint_on_random_stores_a",
        25,
        random_store,
    );
}

#[test]
fn session_matches_full_lint_on_random_stores_b() {
    check(
        "session_matches_full_lint_on_random_stores_b",
        25,
        random_store,
    );
}
