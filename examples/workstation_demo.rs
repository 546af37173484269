//! The interactive workstation corpus: three scripted sessions — a boot
//! splash, a keystroke storm, a sprite animation — each scanning a live
//! 256×32 raster out of main storage while BitBlt races the beam and
//! keyboard/mouse traffic arrives over slow I/O.
//!
//! ```sh
//! cargo run --release --example workstation_demo              # metrics + final frames
//! cargo run --release --example workstation_demo -- --check tests/golden_frames
//! cargo run --release --example workstation_demo -- --dump /tmp/frames
//! ```
//!
//! `--check DIR` compares every scenario's frame-hash stream against the
//! committed fixtures and exits nonzero on drift; with
//! `DORADO_BLESS_FRAMES=1` it rewrites the fixtures instead (the CI
//! escape hatch for intentional rendering changes).  `--dump DIR` writes
//! the final frame of each scenario as PNG and PBM.

use dorado::emu::scenario::{run_scenario, ScenarioKind, ScenarioReport};
use dorado::io::Framebuffer;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

/// Rebuilds a surface from a report's final frame so the dump helpers on
/// [`Framebuffer`] can render it.
fn surface(report: &ScenarioReport) -> Framebuffer {
    let mut fb = Framebuffer::new(report.width_words, report.lines);
    for &w in &report.final_frame {
        fb.push(w);
    }
    fb
}

/// A terminal-width rendering: each character cell covers 2×2 pixels.
fn ascii_preview(report: &ScenarioReport) -> String {
    let fb = surface(report);
    let (w, h) = (
        usize::from(report.width_words) * 16,
        usize::from(report.lines),
    );
    let mut out = String::new();
    for y in (0..h).step_by(2) {
        for x in (0..w).step_by(2) {
            let lit = fb.pixel(x, y) as u8
                + fb.pixel(x + 1, y) as u8
                + fb.pixel(x, y + 1) as u8
                + fb.pixel(x + 1, y + 1) as u8;
            out.push(match lit {
                0 => ' ',
                1 => '.',
                2 => 'o',
                _ => '#',
            });
        }
        out.push('\n');
    }
    out
}

fn print_report(report: &ScenarioReport) {
    println!("== {} ==", report.name);
    println!(
        "   {} fields in {} cycles ({:.1} ms of 60 ns machine time, {:.0} fields/s)",
        report.fields,
        report.cycles,
        report.cycles as f64 * 60e-9 * 1e3,
        report.frames_per_second()
    );
    println!(
        "   display task: {} instructions = {:.2} per scanline (§7 claims ~2), {} hold cycles",
        report.display_executed,
        report.instructions_per_scanline(),
        report.display_held
    );
    println!(
        "   scan-out: {} words painted, {} underruns",
        report.painted, report.underruns
    );
    if report.input_events > 0 {
        println!(
            "   input: {} events serviced, latency mean {:.0} / max {} cycles",
            report.input_events, report.input_latency_mean, report.input_latency_max
        );
    }
    println!("{}", ascii_preview(report));
}

fn check_fixtures(dir: &Path, reports: &[ScenarioReport]) -> Result<bool, std::io::Error> {
    let bless = std::env::var_os("DORADO_BLESS_FRAMES").is_some_and(|v| v == "1");
    let mut clean = true;
    for report in reports {
        let path = dir.join(format!("{}.hashes", report.name));
        if bless {
            let mut out = String::new();
            writeln!(
                out,
                "# Golden per-field CRC64 hashes for scenario `{}`.",
                report.name
            )
            .unwrap();
            writeln!(
                out,
                "# Regenerate with DORADO_BLESS_FRAMES=1 (see tests/golden_frames.rs)."
            )
            .unwrap();
            for h in &report.frame_hashes {
                writeln!(out, "{h:016x}").unwrap();
            }
            std::fs::create_dir_all(dir)?;
            std::fs::write(&path, out)?;
            println!("blessed {} ({} fields)", path.display(), report.fields);
            continue;
        }
        let golden: Vec<u64> = std::fs::read_to_string(&path)?
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| u64::from_str_radix(l, 16).expect("malformed golden hash"))
            .collect();
        if golden == report.frame_hashes {
            println!("{}: {} golden frames OK", report.name, golden.len());
        } else {
            let first = golden
                .iter()
                .zip(&report.frame_hashes)
                .position(|(a, b)| a != b)
                .unwrap_or(golden.len().min(report.frame_hashes.len()));
            eprintln!(
                "{}: FRAME HASH DRIFT at field {first} (golden {} fields, got {})",
                report.name,
                golden.len(),
                report.frame_hashes.len()
            );
            clean = false;
        }
    }
    Ok(clean)
}

fn dump_frames(dir: &Path, reports: &[ScenarioReport]) -> Result<(), std::io::Error> {
    std::fs::create_dir_all(dir)?;
    for report in reports {
        let fb = surface(report);
        let png = dir.join(format!("{}.png", report.name));
        let pbm = dir.join(format!("{}.pbm", report.name));
        std::fs::write(&png, fb.to_png())?;
        std::fs::write(&pbm, fb.to_pbm())?;
        println!("wrote {} and {}", png.display(), pbm.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut check_dir: Option<String> = None;
    let mut dump_dir: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {
                check_dir = args.next().or_else(|| {
                    eprintln!("--check needs a directory argument");
                    std::process::exit(2);
                })
            }
            "--dump" => {
                dump_dir = args.next().or_else(|| {
                    eprintln!("--dump needs a directory argument");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown argument `{other}` (expected --check DIR or --dump DIR)");
                return ExitCode::from(2);
            }
        }
    }

    let reports: Vec<ScenarioReport> = ScenarioKind::ALL
        .into_iter()
        .map(|kind| run_scenario(kind, false))
        .collect();

    if check_dir.is_none() {
        for report in &reports {
            print_report(report);
        }
    }
    if let Some(dir) = &dump_dir {
        if let Err(e) = dump_frames(Path::new(dir), &reports) {
            eprintln!("dump failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(dir) = &check_dir {
        match check_fixtures(Path::new(dir), &reports) {
            Ok(true) => {}
            Ok(false) => return ExitCode::FAILURE,
            Err(e) => {
                eprintln!("golden fixture read failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
