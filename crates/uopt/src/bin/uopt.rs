//! `uopt` — optimize Dorado microcode suites and verify them clean.
//!
//! ```sh
//! uopt                       # optimize every generator suite + the union image
//! uopt mesa cluster          # optimize selected suites
//! uopt --json                # machine-readable OptReport per suite
//! uopt --verbose             # show per-address rewrite notes
//! ```
//!
//! For each suite the driver emits the symbolic listing, runs both
//! passes (Hold-shadow scheduling, then branch-slot filling), and relies on the pipeline's hard invariant: the
//! optimized placement must re-verify and must not lint worse than the
//! unoptimized baseline.  Any violation (or a placement failure) exits
//! nonzero, which is what the ci `uopt` step gates on.

use std::process::ExitCode;

use dorado_emu::SuiteBuilder;
use dorado_uopt::optimize;

/// The optimizable suites, in reporting order (mirrors `ulint`).
const SUITES: &[&str] = &[
    "mesa",
    "smalltalk",
    "lisp",
    "bcpl",
    "bitblt",
    "cluster",
    "devices",
    "scenario",
    "everything",
];

fn build(name: &str) -> Result<SuiteBuilder, String> {
    Ok(match name {
        "mesa" => SuiteBuilder::new().with_mesa(),
        "smalltalk" => SuiteBuilder::new().with_smalltalk(),
        "lisp" => SuiteBuilder::new().with_lisp(),
        "bcpl" => SuiteBuilder::new().with_bcpl(),
        "bitblt" => SuiteBuilder::new().with_mesa().with_bitblt(),
        "cluster" => SuiteBuilder::new().with_mesa().with_cluster(),
        "devices" => SuiteBuilder::new()
            .with_mesa()
            .with_disk()
            .with_display()
            .with_network(),
        "scenario" => SuiteBuilder::new().with_scenario().with_bitblt(),
        "everything" => SuiteBuilder::everything(),
        other => {
            return Err(format!(
                "unknown suite `{other}` (expected one of {SUITES:?})"
            ))
        }
    })
}

fn main() -> ExitCode {
    let mut suites: Vec<String> = Vec::new();
    let mut verbose = false;
    let mut json = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--verbose" | "-v" => verbose = true,
            "--json" => json = true,
            "--help" | "-h" => {
                println!(
                    "usage: uopt [--verbose] [--json] [SUITE...]\n\
                     suites: {SUITES:?} (default: all)"
                );
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
            other => suites.push(other.to_string()),
        }
    }
    if suites.is_empty() {
        suites = SUITES.iter().map(|s| s.to_string()).collect();
    }

    for name in &suites {
        let (_, program) = match build(name).map(SuiteBuilder::program) {
            Ok(parts) => parts,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let opt = match optimize(&program) {
            Ok(opt) => opt,
            Err(e) => {
                eprintln!("{name}: optimization failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if json {
            println!(
                "{{\"suite\":\"{name}\",\"report\":{}}}",
                opt.report.to_json()
            );
        } else {
            println!("{name}: {}", opt.report);
        }
        if verbose && !json {
            for (addr, note) in &opt.report.notes {
                println!("  {addr}: {note}");
            }
        }
    }
    ExitCode::SUCCESS
}
