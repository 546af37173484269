//! Golden optimizer output: the optimized image, slot uses, report and
//! notes of every generator suite and of eight seeded near-full
//! synthetic microstores, pinned against `tests/golden/optimized.txt`.
//!
//! Any change to what the optimizer emits — a different accept/refuse
//! decision, a moved word, a reworded note — shows up here as a digest
//! mismatch.  Speedups to the optimizer's validation machinery must
//! leave this file untouched.  On a mismatch the test prints the
//! complete actual fixture so the difference can be reviewed line by
//! line.

use dorado_asm::synth::{random_program, SynthProfile};
use dorado_asm::{MicroProgram, SlotUse};
use dorado_base::crc::Crc64;
use dorado_emu::SuiteBuilder;
use dorado_uopt::optimize;

const FIXTURE: &str = include_str!("golden/optimized.txt");

/// Synthetic-store seeds.  The generator ORs its seed with 1, so only
/// odd seeds give distinct stores.
const SYNTH_SEEDS: [u64; 8] = [1, 3, 5, 7, 9, 11, 13, 15];
/// Instructions per synthetic store (a near-full microstore).
const SYNTH_INSTS: usize = 3_400;

fn suites() -> Vec<(&'static str, SuiteBuilder)> {
    vec![
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
    ]
}

/// One fixture line: CRC64s of the image words, the slot uses and the
/// notes, then the report's JSON.
fn digest_line(name: &str, program: &MicroProgram) -> String {
    let opt = optimize(program).unwrap_or_else(|e| panic!("{name}: optimize failed: {e}"));
    let mut words = Crc64::new();
    for w in opt.placed.words() {
        words.update(&w.raw().to_le_bytes());
    }
    let mut uses = Crc64::new();
    for slot in opt.placed.uses() {
        match slot {
            SlotUse::Empty => uses.update(&[0]),
            SlotUse::Waste => uses.update(&[1]),
            SlotUse::Inst(i) => {
                uses.update(&[2]);
                uses.update(&(*i as u64).to_le_bytes());
            }
            SlotUse::Relay(target) => {
                uses.update(&[3]);
                uses.update(target.as_bytes());
                uses.update(&[0]);
            }
        }
    }
    let mut notes = Crc64::new();
    for (at, text) in &opt.report.notes {
        notes.update(&at.raw().to_le_bytes());
        notes.update(text.as_bytes());
        notes.update(&[0]);
    }
    format!(
        "{name} words={:016x} uses={:016x} notes={:016x} n_notes={} report={}",
        words.finish(),
        uses.finish(),
        notes.finish(),
        opt.report.notes.len(),
        opt.report.to_json()
    )
}

#[test]
fn optimizer_output_matches_the_golden_fixture() {
    let mut actual = Vec::new();
    for (name, builder) in suites() {
        let (_, program) = builder.program();
        actual.push(digest_line(name, &program));
    }
    for seed in SYNTH_SEEDS {
        let program = random_program(seed, SYNTH_INSTS, &SynthProfile::default());
        actual.push(digest_line(&format!("synth-{seed}"), &program));
    }
    let expected: Vec<&str> = FIXTURE.lines().filter(|l| !l.is_empty()).collect();
    let mismatched: Vec<usize> = (0..actual.len().max(expected.len()))
        .filter(|&i| actual.get(i).map(String::as_str) != expected.get(i).copied())
        .collect();
    assert!(
        mismatched.is_empty(),
        "optimizer output drifted from tests/golden/optimized.txt on lines {mismatched:?}; \
         actual fixture:\n{}",
        actual.join("\n")
    );
}
