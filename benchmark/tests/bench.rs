//! Checks on the benchmark itself: seeded inputs, the host reference,
//! a small run of every workload through the library entry points, and
//! agreement between `BENCHMARK.json` and the metrics the runs emit.
//!
//! The simulations run about ten times slower in a debug build than
//! under `cargo test --release`.

use dorado_benchmark::programs::{results, specs};
use dorado_benchmark::protocol::{Metric, END_TO_END, PER_LAYER};
use dorado_benchmark::{run_sized, Kind, Options};

/// Ops per pass for the small runs: every session kind, every walk, a
/// few epochs, and one round plus the synthetic store.
fn small(kind: Kind) -> usize {
    match kind {
        Kind::Workstation => 7,
        Kind::Programs => 6,
        Kind::Cluster => 3,
        Kind::Toolchain => 14,
    }
}

fn run_small(kind: Kind, seed: u64, trace: bool) -> dorado_benchmark::Outcome {
    let opts = Options {
        kind,
        seed,
        seconds: 0.0,
        trace,
    };
    // The heap counter lives in the binary; stand in with 1 MiB.
    run_sized(&opts, small(kind), &|| 1 << 20).unwrap_or_else(|e| panic!("{}: {e}", kind.name()))
}

fn names(metrics: &[Metric]) -> Vec<&str> {
    metrics.iter().map(|m| m.name).collect()
}

#[test]
fn inputs_follow_the_seed() {
    for kind in Kind::ALL {
        let n = kind.default_pass_len();
        assert_eq!(kind.inputs(1, n), kind.inputs(1, n), "{}", kind.name());
        assert_ne!(kind.inputs(1, n), kind.inputs(2, n), "{}", kind.name());
    }
}

#[test]
fn host_reference_agrees_with_the_simulator() {
    let suite = dorado_emu::SuiteBuilder::new()
        .with_mesa()
        .assemble()
        .unwrap();
    for spec in specs(3, 0, 24) {
        let bytes = dorado_lang::compile(&spec.source()).unwrap();
        let mut m = dorado_emu::suite::build_mesa_on(&suite, &bytes).unwrap();
        assert!(m.run(20_000_000).halted(), "{spec:?}");
        let (stored, tos) = results(&m);
        let [f, g, w] = spec.expected();
        assert_eq!(stored, [f, g, w], "{spec:?}");
        assert_eq!(tos, f ^ g ^ w, "{spec:?}");
    }
}

#[test]
fn host_reference_values() {
    let mut spec = specs(1, 0, 1).remove(0);
    spec.fib_n = 13;
    (spec.gcd_a, spec.gcd_b, spec.gcd_reps) = (11, 6, 1);
    (spec.count, spec.stride, spec.mult, spec.bias) = (3, 16, 2, 1);
    // fib(13); gcd(12, 6); elements 0, 16, 32 hold 2i + 1.
    assert_eq!(spec.expected(), [233, 6, 1 + 33 + 65]);
}

/// Runs every workload small: untraced twice and traced once.  Every
/// output must be correct, the deterministic metrics must repeat, and the
/// traced replay must count exactly what the untraced pass counted.
#[test]
fn every_workload_runs_small_and_repeats() {
    for kind in Kind::ALL {
        let a = run_small(kind, 1, false);
        let b = run_small(kind, 1, false);
        let t = run_small(kind, 1, true);
        for o in [&a, &b, &t] {
            assert!(
                o.correct(),
                "{}: {} of {} failed",
                kind.name(),
                o.failed,
                o.attempted
            );
            assert!(o.attempted > 0, "{}", kind.name());
        }
        assert_eq!(a.deterministic, b.deterministic, "{}", kind.name());
        assert_eq!(a.deterministic, t.deterministic, "{}", kind.name());
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names(&a.metrics), e2e, "{}", kind.name());
        assert_eq!(names(&t.metrics), layers, "{}", kind.name());
        for m in &a.metrics {
            assert!(m.value > 0.0, "{}: {} must never be 0", kind.name(), m.name);
        }
        let spans = t
            .tracer
            .as_ref()
            .expect("traced run keeps its spans")
            .spans();
        assert!(
            spans.iter().any(|s| s.name == "bench.op"),
            "{}",
            kind.name()
        );
    }
}

#[test]
fn different_seeds_give_different_counts() {
    let a = run_small(Kind::Programs, 1, false);
    let b = run_small(Kind::Programs, 2, false);
    assert_ne!(a.deterministic, b.deterministic);
}

/// Every `"key": "value"` string pair in `text`, in order.
fn string_fields<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let pattern = format!("\"{key}\":");
    text.match_indices(&pattern)
        .filter_map(|(at, _)| {
            let rest = text[at + pattern.len()..].trim_start().strip_prefix('"')?;
            rest.split('"').next()
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut expected: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    expected.extend(END_TO_END.iter().map(|m| m.0));
    expected.extend(PER_LAYER.iter().map(|m| m.0));
    assert_eq!(string_fields(&text, "name"), expected);
    let metrics = END_TO_END.iter().chain(PER_LAYER.iter());
    assert_eq!(
        string_fields(&text, "unit"),
        metrics.clone().map(|m| m.1).collect::<Vec<_>>()
    );
    assert_eq!(
        string_fields(&text, "better"),
        metrics.map(|m| m.2).collect::<Vec<_>>()
    );
}
