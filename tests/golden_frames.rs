//! Golden-frame verification for the workstation scenario corpus.
//!
//! Every scenario's observable output is its sequence of per-field CRC64
//! hashes, pinned by committed fixtures in `tests/golden_frames/`.  A
//! hash drift means the machine's timing or rendering changed — which is
//! either a bug or an intentional change; re-bless the fixtures with
//!
//! ```text
//! DORADO_BLESS_FRAMES=1 cargo test --test golden_frames
//! ```
//!
//! and review the diff like any other golden file.
//!
//! Beyond the fixtures, this file proves the determinism claims the
//! corpus rests on: a mid-scenario snapshot/restore does not perturb a
//! single frame hash, and neither does stopping the display around the
//! snapshot point (the stopped-pacer round-trip regression).

use std::fmt::Write as _;
use std::path::PathBuf;

use dorado::base::snap::{restore_image, save_image};
use dorado::emu::scenario::{self, build_machine, run_scenario, ScenarioKind};
use dorado::io::DisplayController;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden_frames")
        .join(format!("{name}.hashes"))
}

fn load_fixture(name: &str) -> Option<Vec<u64>> {
    let text = std::fs::read_to_string(fixture_path(name)).ok()?;
    Some(
        text.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| u64::from_str_radix(l, 16).expect("malformed golden hash"))
            .collect(),
    )
}

fn bless(name: &str, hashes: &[u64]) {
    let mut out = String::new();
    writeln!(out, "# Golden per-field CRC64 hashes for scenario `{name}`.").unwrap();
    writeln!(out, "# Regenerate with DORADO_BLESS_FRAMES=1 (see tests/golden_frames.rs).").unwrap();
    for h in hashes {
        writeln!(out, "{h:016x}").unwrap();
    }
    let path = fixture_path(name);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, out).unwrap();
}

fn blessing() -> bool {
    std::env::var_os("DORADO_BLESS_FRAMES").is_some_and(|v| v == "1")
}

fn check_golden(kind: ScenarioKind) {
    let report = run_scenario(kind, false);
    assert!(
        report.fields >= 3,
        "{}: corpus scenarios must span several fields, got {}",
        report.name,
        report.fields
    );
    assert_eq!(report.frame_hashes.len() as u64, report.fields);
    if blessing() {
        bless(report.name, &report.frame_hashes);
        eprintln!("blessed {} ({} fields)", report.name, report.fields);
        return;
    }
    let golden = load_fixture(report.name).unwrap_or_else(|| {
        panic!(
            "{}: no golden fixture at {:?}; run with DORADO_BLESS_FRAMES=1 to create it",
            report.name,
            fixture_path(report.name)
        )
    });
    if golden != report.frame_hashes {
        let first = golden
            .iter()
            .zip(&report.frame_hashes)
            .position(|(a, b)| a != b)
            .unwrap_or(golden.len().min(report.frame_hashes.len()));
        panic!(
            "{}: frame hashes drifted from golden fixture at field {first} \
             (golden {} fields, got {}); if intentional, re-bless with \
             DORADO_BLESS_FRAMES=1",
            report.name,
            golden.len(),
            report.frame_hashes.len()
        );
    }
}

#[test]
fn boot_splash_matches_golden_frames() {
    check_golden(ScenarioKind::BootSplash);
}

#[test]
fn editor_storm_matches_golden_frames() {
    check_golden(ScenarioKind::EditorStorm);
}

#[test]
fn blit_anim_matches_golden_frames() {
    check_golden(ScenarioKind::BlitAnim);
}

/// A snapshot taken mid-scenario and restored onto a freshly built
/// machine must not perturb a single subsequent frame hash.
#[test]
fn snapshot_restore_mid_scenario_preserves_every_frame() {
    for kind in ScenarioKind::ALL {
        let baseline = run_scenario(kind, false);
        let hopped = scenario::drive(kind, false, &mut |step, m| {
            if step == 2 {
                let img = save_image(m);
                let mut fresh = build_machine(kind);
                restore_image(&mut fresh, &img).expect("image restores");
                *m = fresh;
            }
        });
        assert_eq!(
            baseline.frame_hashes, hopped.frame_hashes,
            "{}: snapshot/restore at step 2 changed the frame stream",
            baseline.name
        );
        assert_eq!(baseline.cycles, hopped.cycles, "{}", baseline.name);
    }
}

/// The stopped-display regression: stopping refresh around the snapshot
/// point must round-trip the pacer exactly like a running display's.
/// stop → snapshot → restore → start must equal stop → start.
#[test]
fn stopped_display_snapshot_round_trips_like_running() {
    let kind = ScenarioKind::BlitAnim;
    let control = scenario::drive(kind, false, &mut |step, m| {
        if step == 2 {
            let d = m.device_mut::<DisplayController>("display").unwrap();
            d.stop();
            d.start();
        }
    });
    let hopped = scenario::drive(kind, false, &mut |step, m| {
        if step == 2 {
            m.device_mut::<DisplayController>("display").unwrap().stop();
            let img = save_image(m);
            let mut fresh = build_machine(kind);
            restore_image(&mut fresh, &img).expect("image restores");
            *m = fresh;
            m.device_mut::<DisplayController>("display").unwrap().start();
        }
    });
    assert_eq!(
        control.frame_hashes, hopped.frame_hashes,
        "stopped-display snapshot perturbed the frame stream"
    );
    assert_eq!(control.cycles, hopped.cycles);
}
