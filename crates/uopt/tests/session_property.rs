//! The incremental lint session under random patch sequences, and its
//! work counters.
//!
//! [`fill_session.rs`](fill_session.rs) follows the slot filler's own
//! walk, which reverts only a handful of fills.  Here the relays of
//! seeded synthetic stores and of the generator suites are patched in a
//! random order, and a coin decides whether each patch is kept or
//! reverted.  A patch is the filler's candidate word, the target's word
//! copied verbatim (which can leave a transfer aimed at an unused
//! word), or a random word.  After every patch and every revert the
//! session's counts must equal a full `lint_with_config` of the image.
//! A seeded subset of the emulator labels is moved into the I/O roots,
//! so the per-handler staleness re-solve and the task-safety regions run
//! on random graphs too (synthetic stores carry no I/O labels of their
//! own), and another is dropped from the roots, so patches change
//! reachability.

use dorado_asm::synth::{random_program, SynthProfile};
use dorado_asm::verify::verify_ok;
use dorado_asm::{MicroProgram, Microword, SlotUse};
use dorado_base::check::{check, Rng};
use dorado_emu::SuiteBuilder;
use dorado_ulint::{
    analyze_with_config, lint, lint_with_config, LintConfig, LintSession, SessionWork,
};
use dorado_uopt::slotfill::{candidate, fill, listing, relays};
use dorado_uopt::{schedule, OptReport, Scheduled};

/// `LintConfig::infer`, with each emulator label moved into the I/O
/// roots with probability 1/8 and dropped from the roots with
/// probability 1/4, so that a patch can also change which words are
/// reachable.
fn random_config(rng: &mut Rng, placed: &dorado_asm::PlacedProgram) -> LintConfig {
    let mut config = LintConfig::infer(placed);
    for root in std::mem::take(&mut config.emu_roots) {
        match rng.below(8) {
            0 => config.io_roots.push(root),
            1 | 2 => {}
            _ => config.emu_roots.push(root),
        }
    }
    config.io_roots.sort();
    config
}

fn assert_counts(session: &LintSession<'_>, config: &LintConfig, what: &str) {
    let full = lint_with_config(session.placed(), config);
    assert_eq!(
        session.counts(),
        (full.errors(), full.warnings()),
        "{what}: session counts differ from the full lint"
    );
}

/// A seeded synthetic store of 200–1,200 instructions (two cases in
/// three), or one of the generator suites, whose stack code makes the
/// stack-depth interval widen.
fn random_program_or_suite(rng: &mut Rng) -> (String, MicroProgram) {
    if rng.below(3) != 0 {
        let n = rng.range(200, 1_201) as usize;
        let seed = rng.next_u64();
        let program = random_program(seed, n, &SynthProfile::default());
        return (format!("random_program({seed:#x}, {n})"), program);
    }
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
    let k = rng.below(suites.len() as u64) as usize;
    let (name, builder) = suites.into_iter().nth(k).expect("in range");
    (name.to_string(), builder.program().1)
}

/// Patches the relays of one seeded image in a random order, keeping or
/// reverting each, and checks the counts after every step.
fn random_walk(rng: &mut Rng) {
    let (name, program) = random_program_or_suite(rng);
    let mut placed = program.place().expect("stores and suites place");
    let config = random_config(rng, &placed);
    let an = analyze_with_config(&placed, config.clone());
    let insts = listing(&program);
    let mut relays = relays(&placed, &an);
    for i in (1..relays.len()).rev() {
        relays.swap(i, rng.below(i as u64 + 1) as usize);
    }
    relays.truncate(60);

    let mut session = LintSession::new(&mut placed, an);
    assert_counts(&session, &config, &format!("{name}: unpatched"));
    for relay in relays {
        let at = relay.at;
        let patch = match candidate(session.placed(), &insts, &relay) {
            Ok(found) if rng.below(4) != 0 => Some(found),
            // The target's word verbatim: right for position-independent
            // words, a transfer into the relay's page for the rest.
            _ => session.placed().address_of(&relay.target).and_then(|dest| {
                match session.placed().uses()[dest.raw() as usize] {
                    SlotUse::Inst(i) => Some((session.placed().word(dest), i)),
                    _ => None,
                }
            }),
        };
        let Some((word, i)) = patch else { continue };
        // Now and then a word with one bit flipped, or any 34-bit word
        // at all: stack operations, COUNT loads, dispatches and
        // undecodable fields move every pass's findings.
        let word = match rng.below(6) {
            0 => Microword::from_raw(rng.next_u64() >> 30).expect("34 bits"),
            1 => Microword::from_raw(word.raw() ^ (1 << rng.below(34))).expect("34 bits"),
            _ => word,
        };
        let before = session.placed().clone();
        session.fill_relay(at, word, i);
        assert_counts(&session, &config, &format!("{name}: fill at {at}"));
        if rng.below(2) == 0 {
            session.revert();
            assert!(
                session.placed() == &before,
                "{name}: revert at {at} left the image changed"
            );
            assert_counts(&session, &config, &format!("{name}: revert at {at}"));
        }
    }
}

#[test]
fn session_counts_match_full_lint_under_random_fills_and_reverts() {
    check(
        "session_counts_match_full_lint_under_random_fills_and_reverts",
        12,
        random_walk,
    );
}

/// The slot filler's session work on `input`, with its trial count
/// and the CFG size of the image it fills.  The scheduled image must
/// pass structural verification and lint no worse than the input.
fn fill_work(input: &MicroProgram) -> (SessionWork, usize, usize) {
    let bound = lint(&input.place().expect("places"));
    let Scheduled {
        program,
        mut placed,
        an,
        ..
    } = schedule(input).expect("optimizes");
    verify_ok(&placed).expect("scheduled image verifies");
    let scheduled = an.lint(&placed);
    assert!(
        scheduled.errors() <= bound.errors() && scheduled.warnings() <= bound.warnings(),
        "scheduled image lints worse than the input"
    );
    let words = an.cfg.len();
    let mut report = OptReport::default();
    let work = fill(&mut placed, &program, an, &mut report);
    (work, report.fill_trials, words)
}

#[test]
fn session_work_is_pinned() {
    let (_, everything) = SuiteBuilder::everything().program();
    let synth = random_program(1, 3_400, &SynthProfile::default());
    for (name, program, expected) in [
        (
            "everything",
            everything,
            SessionWork {
                patches: 50,
                region_words: 958,
                full_resolves: 42,
            },
        ),
        (
            "synthetic seed 1",
            synth,
            SessionWork {
                patches: 215,
                region_words: 113_959,
                full_resolves: 215,
            },
        ),
    ] {
        let (work, trials, words) = fill_work(&program);
        assert_eq!(work, expected, "{name}: session work");
        assert_eq!(work.patches, trials, "{name}: one patch per trial");
        assert!(
            3 * work.region_words < trials * words,
            "{name}: {} words re-solved over {trials} trials of a {words}-word CFG",
            work.region_words
        );
    }
}
