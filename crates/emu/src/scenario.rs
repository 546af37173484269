//! Scripted workstation scenarios with golden-frame verification.
//!
//! Each scenario builds the same machine shape — the framed display loop
//! scanning a 256×32 bitmap out of memory, a keyboard and a mouse on the
//! slow-I/O path replaying cycle-stamped event scripts, and the emulator
//! task alternating between BitBlt episodes and the `scn:idle` spin —
//! then drives a deterministic interactive session.  Every completed
//! field is CRC64-hashed by the [`Framebuffer`]; the hash sequence *is*
//! the scenario's observable output, pinned by committed fixtures in
//! `tests/golden_frames/` and compared in CI.
//!
//! The three corpus entries:
//!
//! * **boot-splash** — clear, window chrome and dither title bar via
//!   bit-aligned fills, a shifted-copy logo and a merge overlay, then a
//!   mouse-driven cursor trail.
//! * **editor-storm** — a keystroke burst; each arriving code is
//!   rendered as an 8×8 glyph cell through `bitblt:fillmask`, one
//!   masked row at a time, racing the scan-out.
//! * **blit-anim** — a bouncing 32×8 sprite: erase + shifted copy per
//!   step (a different bit shift every frame), with a periodic merge
//!   overlay, synchronized to field boundaries.
//!
//! Everything the driver does is a pure function of the machine state
//! and the scripts, so a run reproduces bit-for-bit across scheduling
//! modes and across a mid-scenario snapshot/restore.

use dorado_base::{BaseRegId, VirtAddr, Word};
use dorado_core::{Dorado, ExecMode};
use dorado_io::{DisplayController, Framebuffer, InputDevice};

use crate::bitblt::{self, BitBltParams, BitRect, BlitKind};
use crate::layout::*;
use crate::SuiteBuilder;

/// Raster width in words (256 pixels).
pub const SCREEN_WORDS: u16 = 16;
/// Raster height in scanlines.
pub const SCREEN_LINES: u16 = 32;
/// Display bitmap base address (word VA).
pub const BITMAP: Word = 0x2000;
/// Sprite/logo stencil base address.
pub const STENCIL: Word = 0x2800;
/// Keyboard event ring base address.
pub const KBD_RING: Word = 0x3000;
/// Mouse event ring base address.
pub const MOUSE_RING: Word = 0x3100;
/// Monitor dot rate in Mbit/s (≈0.96 words/cycle at 60 ns: one 512-word
/// field every ~534 cycles).
pub const DISPLAY_MBPS: f64 = 256.0;

/// The scenario corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Boot-to-desktop splash with a mouse cursor trail.
    BootSplash,
    /// Text-editor keystroke storm rendering glyph cells.
    EditorStorm,
    /// BitBlt sprite animation loop.
    BlitAnim,
}

impl ScenarioKind {
    /// Every scenario, in fixture order.
    pub const ALL: [ScenarioKind; 3] = [
        ScenarioKind::BootSplash,
        ScenarioKind::EditorStorm,
        ScenarioKind::BlitAnim,
    ];

    /// The fixture/base name of this scenario.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::BootSplash => "boot_splash",
            ScenarioKind::EditorStorm => "editor_storm",
            ScenarioKind::BlitAnim => "blit_anim",
        }
    }

    fn keyboard_script(self) -> Vec<(u64, Word)> {
        match self {
            // 24 keystrokes in an accelerando with small burst jitter.
            ScenarioKind::EditorStorm => (0..24)
                .map(|i| (2_500 + i * 900 + (i % 3) * 37, 0x41 + (i as Word * 7) % 26))
                .collect(),
            _ => Vec::new(),
        }
    }

    fn mouse_script(self) -> Vec<(u64, Word)> {
        match self {
            // A sweep across the desktop: packed (x << 8 | y) positions.
            ScenarioKind::BootSplash => vec![
                (4_000, pack_xy(30, 6)),
                (6_000, pack_xy(70, 12)),
                (8_000, pack_xy(120, 18)),
                (10_000, pack_xy(180, 22)),
                (12_000, pack_xy(228, 26)),
            ],
            _ => Vec::new(),
        }
    }
}

fn pack_xy(x: u16, y: u16) -> Word {
    (x << 8) | y
}

/// What one scenario run produced and what it cost.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name (fixture base name).
    pub name: &'static str,
    /// CRC64 of every completed field, in scan order.
    pub frame_hashes: Vec<u64>,
    /// Completed fields.
    pub fields: u64,
    /// Total machine cycles.
    pub cycles: u64,
    /// Words the monitor painted.
    pub painted: u64,
    /// FIFO underruns during scan-out.
    pub underruns: u64,
    /// Instructions executed by the display task.
    pub display_executed: u64,
    /// Hold cycles charged to the display task.
    pub display_held: u64,
    /// Input events serviced by the kbd/mouse microcode.
    pub input_events: u64,
    /// Mean input service latency in cycles.
    pub input_latency_mean: f64,
    /// Worst input service latency in cycles.
    pub input_latency_max: u64,
    /// The final raster contents.
    pub final_frame: Vec<Word>,
    /// Raster width in words.
    pub width_words: u16,
    /// Raster height in scanlines.
    pub lines: u16,
}

impl ScenarioReport {
    /// Fields per wall-clock second at the 60 ns cycle.
    pub fn frames_per_second(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.fields as f64 / (self.cycles as f64 * 60e-9)
        }
    }

    /// Display-task instructions per scanline scanned (the §7 claim is 2
    /// per 16-word block, i.e. 2 per scanline at this geometry).
    pub fn instructions_per_scanline(&self) -> f64 {
        let scanlines = self.fields * u64::from(self.lines);
        if scanlines == 0 {
            0.0
        } else {
            self.display_executed as f64 / scanlines as f64
        }
    }
}

/// Builds the workstation machine for `kind`: framed display + keyboard +
/// mouse wired to their tasks, scripts loaded, display running, stencil
/// art in memory, emulator task parked on `scn:idle`.
///
/// # Panics
///
/// Panics if the suite fails to assemble or the machine fails to build
/// (both indicate a broken image, not a runtime condition).
pub fn build_machine(kind: ScenarioKind) -> Dorado {
    let suite = SuiteBuilder::new()
        .with_scenario()
        .with_bitblt()
        .assemble()
        .expect("scenario suite assembles");
    build_machine_on(kind, &suite)
}

/// [`build_machine`] on a caller-supplied suite (which must contain the
/// scenario and BitBlt modules) — for running the workstation on an
/// optimized or otherwise externally-placed image.
///
/// # Panics
///
/// Panics if the machine fails to build.
pub fn build_machine_on(kind: ScenarioKind, suite: &crate::Suite) -> Dorado {
    let mut display = DisplayController::with_rate(TASK_DISPLAY, DISPLAY_MBPS, 60.0);
    display.set_framebuffer(Framebuffer::new(SCREEN_WORDS, SCREEN_LINES));
    display.start();
    let mut kbd = InputDevice::keyboard(TASK_KBD);
    kbd.schedule_all(kind.keyboard_script());
    let mut mouse = InputDevice::mouse(TASK_MOUSE);
    mouse.schedule_all(kind.mouse_script());

    let mut m = suite
        .machine()
        .task_entry(TASK_EMU, "scn:idle")
        .device(Box::new(display), IOA_DISPLAY, 2)
        .wire_ioaddress(TASK_DISPLAY, IOA_DISPLAY)
        .task_entry(TASK_DISPLAY, "dispw:init")
        .device(Box::new(kbd), IOA_KBD, 3)
        .wire_ioaddress(TASK_KBD, IOA_KBD)
        .task_entry(TASK_KBD, "kbd:init")
        .device(Box::new(mouse), IOA_MOUSE, 3)
        .wire_ioaddress(TASK_MOUSE, IOA_MOUSE)
        .task_entry(TASK_MOUSE, "mouse:init")
        .build()
        .expect("scenario machine builds");
    m.memory_mut().set_base_reg(BaseRegId::new(BR_DISPLAY), u32::from(BITMAP));
    m.memory_mut().set_base_reg(BaseRegId::new(BR_KBD), u32::from(KBD_RING));
    m.memory_mut().set_base_reg(BaseRegId::new(BR_MOUSE), u32::from(MOUSE_RING));
    write_stencil(&mut m);
    m
}

/// The 32×8 stencil sprite (also the splash logo), stored at [`STENCIL`]
/// with pitch 4: word 0 of each row is the shifted-copy pairing
/// predecessor (zero), words 1–2 are the art.
fn write_stencil(m: &mut Dorado) {
    const ART: [u32; 8] = [
        0x0042_4200,
        0x0024_2400,
        0x03FF_FFC0,
        0x0DB8_1DB0,
        0x0FFF_FFF0,
        0x03A8_15C0,
        0x0242_4240,
        0x0C18_1830,
    ];
    for (row, &bits) in ART.iter().enumerate() {
        let base = u32::from(STENCIL) + row as u32 * 4;
        m.memory_mut().write_virt(VirtAddr::new(base), 0);
        m.memory_mut()
            .write_virt(VirtAddr::new(base + 1), (bits >> 16) as Word);
        m.memory_mut().write_virt(VirtAddr::new(base + 2), bits as Word);
        m.memory_mut().write_virt(VirtAddr::new(base + 3), 0);
    }
}

/// A deterministic pseudo-font: 6 ink bits centered in an 8-pixel cell,
/// derived from the key code so every keystroke renders a distinct,
/// reproducible glyph.  Rows 0 and 7 stay clear for cell separation.
fn glyph_row(code: Word, row: u16) -> u8 {
    if row == 0 || row == 7 {
        return 0;
    }
    let mut x = ((u64::from(code) << 8) | u64::from(row)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 32;
    (x as u8 | 0x18) & 0x7E
}

// --- driver helpers ----------------------------------------------------------

fn display_of(m: &mut Dorado) -> &mut DisplayController {
    m.device_mut::<DisplayController>("display").expect("display attached")
}

fn fields_of(m: &mut Dorado) -> u64 {
    display_of(m).framebuffer().expect("framebuffer attached").fields()
}

/// Runs one blit episode to its halt and returns to nothing (the caller
/// decides what runs next).
fn blit(m: &mut Dorado, p: &BitBltParams, kind: BlitKind) {
    bitblt::load_params(m, p, kind);
    m.restart_at(kind.entry()).expect("bitblt entry in image");
    let out = m.run(5_000_000);
    assert!(out.halted(), "blit did not halt: {out:?}");
}

/// Fills a bit rectangle on the live machine (scan-out keeps racing it).
fn fill(m: &mut Dorado, x: u16, y: u16, w: u16, h: u16, pattern: Word) {
    bitblt::fill_rect_bits(
        m,
        &BitRect { base: BITMAP, pitch: SCREEN_WORDS, x, y, w, h },
        pattern,
    );
}

/// Parks the emulator on the idle loop until `extra` more fields complete.
fn idle_fields(m: &mut Dorado, extra: u64) {
    let target = fields_of(m) + extra;
    idle_until_fields(m, target);
}

/// Parks the emulator task on the idle loop and runs until the monitor
/// has completed `target` fields.
fn idle_until_fields(m: &mut Dorado, target: u64) {
    m.restart_at("scn:idle").expect("scn:idle in image");
    let mut guard = 0u32;
    while fields_of(m) < target {
        m.run_quantum(257);
        guard += 1;
        assert!(guard < 1_000_000, "display never reached field {target}");
    }
}

/// Words the input task has stored into its ring (its RM displacement).
fn ring_count(m: &Dorado, rbase: u8) -> u16 {
    m.rm(usize::from(rbase) << 4)
}

/// A step hook: called at deterministic checkpoints with the step index.
/// The golden-frame harness uses it to snapshot/restore mid-scenario; a
/// plain run passes a no-op.
pub type StepHook<'a> = dyn FnMut(u32, &mut Dorado) + 'a;

/// Runs `kind` to completion under the given scheduling mode.
pub fn run_scenario(kind: ScenarioKind, always_tick: bool) -> ScenarioReport {
    drive(kind, always_tick, &mut |_, _| {})
}

/// Runs `kind` with a checkpoint hook (see [`StepHook`]).
///
/// # Panics
///
/// Panics if the scenario wedges (a field or input service never
/// arrives) — deterministic scripts either complete or are broken.
pub fn drive(kind: ScenarioKind, always_tick: bool, hook: &mut StepHook<'_>) -> ScenarioReport {
    drive_machine(kind, build_machine(kind), always_tick, hook)
}

/// [`drive`] on a caller-supplied suite (which must contain the
/// scenario and BitBlt modules).  `_mode` is unused: the interpreter is
/// the only execution core, and the parameter stays because the
/// repository benchmark package calls this signature.
///
/// # Panics
///
/// Panics if the scenario wedges — deterministic scripts either
/// complete or are broken.
pub fn drive_mode_on(
    kind: ScenarioKind,
    suite: &crate::Suite,
    always_tick: bool,
    _mode: ExecMode,
    hook: &mut StepHook<'_>,
) -> ScenarioReport {
    let m = build_machine_on(kind, suite);
    drive_machine(kind, m, always_tick, hook)
}

fn drive_machine(
    kind: ScenarioKind,
    mut m: Dorado,
    always_tick: bool,
    hook: &mut StepHook<'_>,
) -> ScenarioReport {
    m.io_mut().set_always_tick(always_tick);
    let mut step = 0u32;
    let mut checkpoint = |m: &mut Dorado, step: &mut u32| {
        hook(*step, m);
        *step += 1;
    };

    checkpoint(&mut m, &mut step);
    match kind {
        ScenarioKind::BootSplash => {
            // Desktop chrome: clear, border, dither title bar.
            fill(&mut m, 0, 0, 256, 32, 0x0000);
            fill(&mut m, 0, 0, 256, 2, 0xFFFF);
            fill(&mut m, 0, 30, 256, 2, 0xFFFF);
            fill(&mut m, 0, 0, 2, 32, 0xFFFF);
            fill(&mut m, 254, 0, 2, 32, 0xFFFF);
            checkpoint(&mut m, &mut step);
            fill(&mut m, 8, 4, 240, 5, 0xAAAA);
            // The logo: shifted copy of the stencil into the center, then
            // a merge overlay (the paper's "complex" blit) beside it.
            blit(
                &mut m,
                &BitBltParams {
                    src: STENCIL,
                    dst: BITMAP + 12 * SCREEN_WORDS + 6,
                    width: 2,
                    height: 8,
                    src_pitch: 4,
                    dst_pitch: SCREEN_WORDS,
                    shift: 5,
                    ..BitBltParams::default()
                },
                BlitKind::ShiftedCopy,
            );
            blit(
                &mut m,
                &BitBltParams {
                    src: STENCIL,
                    dst: BITMAP + 21 * SCREEN_WORDS + 10,
                    width: 2,
                    height: 8,
                    src_pitch: 4,
                    dst_pitch: SCREEN_WORDS,
                    shift: 3,
                    filter: 0x0FF0,
                    ..BitBltParams::default()
                },
                BlitKind::Merge,
            );
            checkpoint(&mut m, &mut step);
            // Cursor trail: drain the mouse ring, drawing a block at each
            // reported position.
            let mut drawn = 0u16;
            let mut guard = 0u32;
            while drawn < 5 {
                idle_fields(&mut m, 1);
                let avail = ring_count(&m, RB_MOUSE);
                while drawn < avail {
                    let w = m
                        .memory()
                        .read_virt(VirtAddr::new(u32::from(MOUSE_RING + drawn)));
                    let (x, y) = (w >> 8, w & 0xFF);
                    fill(&mut m, x, y, 5, 5, 0xFFFF);
                    drawn += 1;
                    checkpoint(&mut m, &mut step);
                }
                guard += 1;
                assert!(guard < 10_000, "mouse events never arrived");
            }
            idle_fields(&mut m, 2);
        }
        ScenarioKind::EditorStorm => {
            // Editor chrome: clear plus a dithered status bar.
            fill(&mut m, 0, 0, 256, 32, 0x0000);
            fill(&mut m, 0, 30, 256, 2, 0xAAAA);
            checkpoint(&mut m, &mut step);
            // Render every keystroke as it lands in the ring.
            let mut rendered = 0u16;
            let mut guard = 0u32;
            while rendered < 24 {
                idle_fields(&mut m, 1);
                let avail = ring_count(&m, RB_KBD);
                while rendered < avail {
                    let code = m
                        .memory()
                        .read_virt(VirtAddr::new(u32::from(KBD_RING + rendered)));
                    let col = rendered % 10;
                    let row = rendered / 10;
                    let x = 8 + col * 8;
                    let y = 2 + row * 9;
                    for r in 0..8u16 {
                        let bits = glyph_row(code, r);
                        if bits == 0 {
                            continue;
                        }
                        let dst = BITMAP + (y + r) * SCREEN_WORDS + x / 16;
                        let pos = (8 - x % 16) as u8;
                        bitblt::load_fillmask(&mut m, dst, 1, 1, Word::from(bits) << pos, pos, 8);
                        m.restart_at("bitblt:fillmask").expect("fillmask in image");
                        let out = m.run(5_000_000);
                        assert!(out.halted(), "glyph row did not halt: {out:?}");
                    }
                    rendered += 1;
                    if rendered.is_multiple_of(8) {
                        checkpoint(&mut m, &mut step);
                    }
                }
                guard += 1;
                assert!(guard < 100_000, "keystrokes never arrived");
            }
            idle_fields(&mut m, 2);
        }
        ScenarioKind::BlitAnim => {
            fill(&mut m, 0, 0, 256, 32, 0x0000);
            fill(&mut m, 0, 0, 256, 1, 0xFFFF);
            fill(&mut m, 0, 31, 256, 1, 0xFFFF);
            checkpoint(&mut m, &mut step);
            let mut prev: Option<(u16, u16)> = None;
            for s in 0..16u16 {
                let x = 16 + (s * 13) % 208;
                let y = 4 + (s * 3) % 20;
                if let Some((px, py)) = prev {
                    // Erase the word-aligned span the sprite occupied.
                    fill(&mut m, (px / 16) * 16, py, 32, 8, 0x0000);
                }
                blit(
                    &mut m,
                    &BitBltParams {
                        src: STENCIL,
                        dst: BITMAP + y * SCREEN_WORDS + x / 16,
                        width: 2,
                        height: 8,
                        src_pitch: 4,
                        dst_pitch: SCREEN_WORDS,
                        shift: (x % 16) as u8,
                        ..BitBltParams::default()
                    },
                    BlitKind::ShiftedCopy,
                );
                if (s + 1).is_multiple_of(4) {
                    // Periodic merge overlay at a fixed station.
                    blit(
                        &mut m,
                        &BitBltParams {
                            src: STENCIL,
                            dst: BITMAP + 26 * SCREEN_WORDS + 1,
                            width: 2,
                            height: 4,
                            src_pitch: 4,
                            dst_pitch: SCREEN_WORDS,
                            shift: (s % 16) as u8,
                            filter: 0x3C3C,
                            ..BitBltParams::default()
                        },
                        BlitKind::Merge,
                    );
                }
                prev = Some((x, y));
                idle_fields(&mut m, 1);
                if s.is_multiple_of(4) {
                    checkpoint(&mut m, &mut step);
                }
            }
            idle_fields(&mut m, 2);
        }
    }
    checkpoint(&mut m, &mut step);

    // Harvest the report.
    let cycles = m.cycles();
    let (display_executed, display_held) = {
        let r = m.report();
        (r.executed(TASK_DISPLAY), r.held(TASK_DISPLAY))
    };
    let mut input_events = 0u64;
    let mut latency_total = 0u64;
    let mut latency_max = 0u64;
    for name in ["keyboard", "mouse"] {
        if let Some(d) = m.device_mut::<InputDevice>(name) {
            input_events += d.serviced;
            latency_total += d.latency_total;
            latency_max = latency_max.max(d.latency_max);
        }
    }
    let d = display_of(&mut m);
    let painted = d.painted;
    let underruns = d.underruns;
    let fb = d.framebuffer().expect("framebuffer attached");
    ScenarioReport {
        name: kind.name(),
        frame_hashes: fb.hashes().to_vec(),
        fields: fb.fields(),
        cycles,
        painted,
        underruns,
        display_executed,
        display_held,
        input_events,
        input_latency_mean: if input_events == 0 {
            0.0
        } else {
            latency_total as f64 / input_events as f64
        },
        input_latency_max: latency_max,
        final_frame: fb.pixels().to_vec(),
        width_words: fb.width_words(),
        lines: fb.lines(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glyphs_are_deterministic_and_bounded() {
        for code in [0x41u16, 0x5A, 0x20] {
            assert_eq!(glyph_row(code, 0), 0);
            assert_eq!(glyph_row(code, 7), 0);
            for r in 1..7 {
                let g = glyph_row(code, r);
                assert_eq!(g, glyph_row(code, r), "stable");
                assert_eq!(g & 0x81, 0, "edge pixels stay clear");
                assert_ne!(g, 0, "interior rows carry ink");
            }
        }
    }

    #[test]
    fn machine_builds_for_every_scenario() {
        for kind in ScenarioKind::ALL {
            let mut m = build_machine(kind);
            assert!(m.label("scn:idle").is_some());
            assert!(m.label("dispw:loop").is_some());
            assert_eq!(fields_of(&mut m), 0);
        }
    }

    #[test]
    fn boot_splash_produces_frames() {
        let report = run_scenario(ScenarioKind::BootSplash, false);
        assert!(report.fields >= 3, "{report:?}");
        assert_eq!(report.frame_hashes.len() as u64, report.fields);
        assert_eq!(report.input_events, 5, "all mouse events serviced");
        // The border survived to the final frame.
        assert_eq!(report.final_frame[0], 0xFFFF);
    }
}
