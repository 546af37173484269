//! Runs one benchmark workload and prints its metrics.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload programs --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The output is a readable table, then (untraced) one JSON line of the
//! deterministic metrics, and last one JSON line with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.  A traced run
//! also writes its spans to `benchmark/target/trace-<workload>-<seed>.jsonl`.
//! The exit code is nonzero on bad arguments or when the traced replay
//! does not reproduce the untraced run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use dorado_benchmark::protocol::Metric;
use dorado_benchmark::{Kind, Options, DEFAULT_SEED};

/// Counts live heap bytes and their peak.  No safe interface reports a
/// process's heap use, and reading it from the operating system would
/// mean reading outside the benchmark's own files.
struct CountingAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns `System`'s result, so `System`'s guarantees hold; the counters
// are plain atomics that never touch the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract, which we forward.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract, which we
        // forward.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator, i.e. by `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract, which we forward.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: dorado-benchmark --workload <workstation|programs|cluster|toolchain> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Options, String> {
    let mut kind = None;
    let mut opts = Options {
        kind: Kind::Programs,
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds >= 0.0 && opts.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    opts.kind = kind.ok_or("--workload is required")?;
    Ok(opts)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn write_spans(opts: &Options, tracer: &dorado_benchmark::Tracer) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-{}.jsonl", opts.kind.name(), opts.seed));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    tracer.write_jsonl(&mut out)?;
    out.flush()?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match dorado_benchmark::run(&opts, &|| PEAK.load(Relaxed)) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {}{}: {} attempted, {} failed",
        opts.kind.name(),
        opts.seed,
        if opts.trace { " (traced)" } else { "" },
        outcome.attempted,
        outcome.failed
    );
    if opts.trace {
        print_table("per-layer metrics:", &outcome.metrics);
    } else {
        print_table("end-to-end metrics:", &outcome.metrics);
        print_table(
            "simulated and correctness metrics (first pass):",
            &outcome.deterministic,
        );
        print_table("host details:", &outcome.info);
        println!(
            "{{\"deterministic\":{}}}",
            json_metrics(&outcome.deterministic)
        );
    }
    if let Some(tracer) = &outcome.tracer {
        match write_spans(&opts, tracer) {
            Ok(path) => println!("wrote {} span(s) to {path}", tracer.spans().len()),
            Err(e) => {
                eprintln!("error: writing spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        json_metrics(&outcome.metrics)
    );
    ExitCode::SUCCESS
}
