//! `ulint` — lint Dorado microcode suites, clippy-style.
//!
//! ```sh
//! ulint                      # lint every generator suite + the union image
//! ulint mesa cluster         # lint selected suites
//! ulint --differential       # also run the E18 dynamic validation
//! ulint --lang prog.dl       # lint a surface-language program's bytecode
//! ulint --verbose            # show info-level findings too
//! ```
//!
//! Exit status is 1 if any error- or warning-severity finding is
//! produced by a pass not named in the `DORADO_ULINT_ALLOW`
//! environment variable (comma-separated pass names) — `-D warnings`
//! strictness with an explicit escape hatch.

use std::process::ExitCode;

use dorado_emu::SuiteBuilder;
use dorado_ulint::{differential, lint, Severity};

/// The lintable suites, in reporting order.
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

fn lint_lang(path: &str, verbose: bool) -> Result<(usize, usize), String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let (bytes, map) = dorado_lang::compile_with_map(&src).map_err(|e| format!("{path}: {e}"))?;
    let diags = dorado_ulint::bytecode::lint_bytecode(&bytes);
    let mut errors = 0;
    let mut warnings = 0;
    for d in &diags {
        match d.severity {
            Severity::Error => errors += 1,
            Severity::Warning => warnings += 1,
            Severity::Info if !verbose => continue,
            Severity::Info => {}
        }
        print!(
            "{}",
            dorado_ulint::bytecode::render_with_source(d, &src, &map)
        );
    }
    println!(
        "{path}: {} bytecode bytes, {} finding(s) ({errors} error(s), {warnings} warning(s))",
        bytes.len(),
        diags.len()
    );
    Ok((errors, warnings))
}

fn main() -> ExitCode {
    let mut suites: Vec<String> = Vec::new();
    let mut verbose = false;
    let mut run_differential = false;
    let mut lang: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--verbose" | "-v" => verbose = true,
            "--differential" => run_differential = true,
            "--lang" => match args.next() {
                Some(p) => lang = Some(p),
                None => {
                    eprintln!("--lang needs a file argument");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: ulint [--verbose] [--differential] [--lang FILE] [SUITE...]\n\
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
    let allowed: Vec<String> = std::env::var("DORADO_ULINT_ALLOW")
        .unwrap_or_default()
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if !allowed.is_empty() {
        println!(
            "allowed passes (DORADO_ULINT_ALLOW): {}",
            allowed.join(", ")
        );
    }
    if suites.is_empty() && lang.is_none() {
        suites = SUITES.iter().map(|s| s.to_string()).collect();
    }

    let mut strict_findings = 0usize;
    if let Some(path) = &lang {
        match lint_lang(path, verbose) {
            Ok((errors, warnings)) => strict_findings += errors + warnings,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    for name in &suites {
        let suite = match build(name).map(SuiteBuilder::assemble) {
            Ok(Ok(s)) => s,
            Ok(Err(e)) => {
                eprintln!("{name}: assembly failed: {e}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let placed = suite.placed();
        let report = lint(placed);
        let mut errors = 0;
        let mut warnings = 0;
        for d in &report.diags {
            let strict = !allowed.iter().any(|a| a == d.pass);
            match d.severity {
                Severity::Error => {
                    errors += 1;
                    if strict {
                        strict_findings += 1;
                    }
                }
                Severity::Warning => {
                    warnings += 1;
                    if strict {
                        strict_findings += 1;
                    }
                }
                Severity::Info if !verbose => continue,
                Severity::Info => {}
            }
            println!("{}", d.render(placed));
        }
        let timing: Vec<String> = report
            .timings
            .iter()
            .map(|(pass, t)| format!("{pass} {:.1}ms", t.as_secs_f64() * 1e3))
            .collect();
        println!(
            "{name}: {} words, {} finding(s) ({errors} error(s), {warnings} warning(s), \
             {} info) [{}]",
            placed.words_used(),
            report.diags.len(),
            report.count(Severity::Info),
            timing.join(", ")
        );
    }

    if run_differential {
        match differential::run_workstation(2_000_000) {
            Ok(out) => {
                println!(
                    "\ndifferential (E18): {} cycles, fib(15) = {} (expected 610)",
                    out.cycles, out.tos
                );
                print!("{}", differential::render_table(&out));
                if out.sound() {
                    println!("static model is sound: every observed event was predicted");
                } else {
                    eprintln!(
                        "UNSOUND: {} hold(s) and {} stack event(s) were not predicted",
                        out.missed_holds.len(),
                        out.missed_stack.len()
                    );
                    strict_findings += 1;
                }
            }
            Err(e) => {
                eprintln!("differential: {e}");
                return ExitCode::FAILURE;
            }
        }
        match differential::run_stack_underflow(100_000) {
            Ok(out) if out.stack_events > 0 && out.sound() => {
                println!(
                    "stack-error probe: {} event(s), all on predicted sites",
                    out.stack_events
                );
            }
            Ok(out) => {
                eprintln!(
                    "stack-error probe failed: {} event(s), {} unpredicted",
                    out.stack_events,
                    out.missed_stack.len()
                );
                strict_findings += 1;
            }
            Err(e) => {
                eprintln!("differential: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if strict_findings > 0 {
        eprintln!("ulint: {strict_findings} finding(s) at -D warnings strictness");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
