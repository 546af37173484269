//! Golden lint output: the CRC64 of every rendered finding and of the
//! analysis facts, pinned in a committed table.
//!
//! The inputs are the nine generator suites the `ulint` binary checks
//! and eight seeded 3,400-instruction synthetic stores.  For each input
//! the table pins
//!
//! * the full rendered `lint` output at every severity, Info included
//!   (timings are not part of it), and
//! * the analysis facts in a form independent of how they are stored:
//!   per word, the emulator-reached, I/O-reached and fetch-started bits;
//!   the hold sites per cause; and the wasted-slot census.
//!
//! Any change to how the facts are computed or kept must leave both
//! columns unchanged.  On a mismatch the test prints the whole computed
//! table.

use dorado_asm::synth::{random_program, SynthProfile};
use dorado_asm::PlacedProgram;
use dorado_base::crc::Crc64;
use dorado_base::{HoldCause, MicroAddr, MICROSTORE_SIZE};
use dorado_emu::SuiteBuilder;
use dorado_ulint::{analyze, lint, WasteKind};

/// `(input, CRC64 of the rendered lint, CRC64 of the facts)`, in the
/// order the test computes them.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("mesa", 0x4948fed26370eead, 0x4d631958ed47642c),
    ("smalltalk", 0x05ae8aa0ea30aa29, 0xbe2193f7df3a09f7),
    ("lisp", 0x13889ff99200f6dd, 0x95cab5a29372407a),
    ("bcpl", 0xe19ad75e5bb84439, 0x1a9fd8e37e7238cc),
    ("bitblt", 0x354696eced055d66, 0x5282bb0213308a39),
    ("cluster", 0xa1f3864a9cf14710, 0x7aa54c74b3164985),
    ("devices", 0xa3e423342e000039, 0xe73ce0a610a02298),
    ("scenario", 0xf4a3049ae7ddd851, 0xe22e5be1f5086146),
    ("everything", 0x793f3a6fdefd93da, 0x6383d298ce4dc36e),
    ("synth-1", 0xcff45f4d6495a1dd, 0x34f4f2bbefda3212),
    ("synth-3", 0x2c3875fba1baa306, 0xe15d157d5b23a0e9),
    ("synth-5", 0xb443d0baac15d55d, 0x31e4bd28e3cc7321),
    ("synth-7", 0xc430ebd34c53742c, 0x8ef798598e34ce99),
    ("synth-9", 0x3e04f2652b378835, 0x4f2c05ab0ca11082),
    ("synth-11", 0x3ef0a4905b55eef6, 0x0df7e6a39aa152cb),
    ("synth-13", 0xdb8fe6963ab23e1d, 0x087df17e7287155f),
    ("synth-15", 0xae64295b38724b39, 0x63fbe06031657b6a),
];

/// The suites of the `ulint` binary, then the synthetic stores.
fn inputs() -> Vec<(String, PlacedProgram)> {
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
    let mut out: Vec<(String, PlacedProgram)> = suites
        .into_iter()
        .map(|(name, builder)| {
            let suite = builder.assemble().expect("suites assemble");
            (name.to_string(), suite.placed().clone())
        })
        .collect();
    for seed in (1..=15).step_by(2) {
        let program = random_program(seed, 3_400, &SynthProfile::default());
        let placed = program.place().expect("synthetic stores place");
        out.push((format!("synth-{seed}"), placed));
    }
    out
}

/// CRC64 of every finding `lint` renders, in report order.
fn lint_crc(placed: &PlacedProgram) -> u64 {
    let mut c = Crc64::new();
    for d in &lint(placed).diags {
        c.update(d.render(placed).as_bytes());
        c.update(b"\n");
    }
    c.finish()
}

/// CRC64 of the analysis facts: one byte of root-fact bits per word,
/// each cause's hold sites, and the wasted-slot census.
fn facts_crc(placed: &PlacedProgram) -> u64 {
    let an = analyze(placed);
    let mut c = Crc64::new();
    for raw in 0..MICROSTORE_SIZE {
        let a = MicroAddr::new(raw as u16);
        let bits = u8::from(an.emu_reached(a))
            | u8::from(an.io_reached(a)) << 1
            | u8::from(an.fetched(a)) << 2;
        c.update(&[bits]);
    }
    for cause in HoldCause::ALL {
        let sites = &an.hold.by_cause[cause.index()];
        c.update_word(sites.len() as u16);
        for a in sites {
            c.update_word(a.raw());
        }
    }
    c.update_word(an.wasted.len() as u16);
    for w in &an.wasted {
        c.update_word(w.at.raw());
        match &w.kind {
            WasteKind::BranchWindow { target } => {
                c.update(b"relay ");
                c.update(target.as_bytes());
                c.update(b"\n");
            }
            WasteKind::HoldShadowNop => c.update(b"shadow\n"),
        }
    }
    c.finish()
}

#[test]
fn lint_output_and_facts_match_the_golden_table() {
    let computed: Vec<(String, u64, u64)> = inputs()
        .iter()
        .map(|(name, placed)| (name.clone(), lint_crc(placed), facts_crc(placed)))
        .collect();
    let matches = computed.len() == GOLDEN.len()
        && computed
            .iter()
            .zip(GOLDEN)
            .all(|((n, l, f), &(gn, gl, gf))| n == gn && *l == gl && *f == gf);
    if !matches {
        let mut table = String::new();
        for (name, l, f) in &computed {
            table.push_str(&format!("    (\"{name}\", {l:#018x}, {f:#018x}),\n"));
        }
        panic!("lint golden table mismatch; computed table:\n{table}");
    }
}
