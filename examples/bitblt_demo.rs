//! BitBlt in action: paint a small bitmap with fills, copies, and shifted
//! scrolls, then print it as ASCII art with the measured bandwidths (§7).
//!
//! ```sh
//! cargo run --example bitblt_demo
//! ```

use dorado::base::{ClockConfig, Cycles, VirtAddr, Word};
use dorado::core::Dorado;
use dorado::emu::bitblt::{self, BitBltParams, BlitKind};
use dorado::emu::layout::TASK_EMU;
use dorado::emu::SuiteBuilder;

const SCREEN: u32 = 0x1000; // bitmap base (word address)
const PITCH: Word = 4; // 4 words = 64 pixels wide
const ROWS: Word = 16;

fn blit(m: &mut Dorado, kind: BlitKind, p: &BitBltParams) -> u64 {
    bitblt::load_params(m, p, kind);
    m.restart_at(kind.entry()).expect("entry exists");
    let before = m.stats().cycles;
    let out = m.run(1_000_000);
    assert!(out.halted(), "{out:?}");
    m.stats().cycles - before
}

fn show(m: &Dorado) {
    for row in 0..ROWS {
        let mut line = String::new();
        for col in 0..PITCH {
            let w = m
                .memory()
                .read_virt(VirtAddr::new(SCREEN + u32::from(row * PITCH + col)));
            for bit in (0..16).rev() {
                line.push(if w >> bit & 1 == 1 { '#' } else { '.' });
            }
        }
        println!("  {line}");
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let suite = SuiteBuilder::new().with_bitblt().assemble()?;
    let mut m = suite
        .machine()
        .task_entry(TASK_EMU, "bitblt:fill")
        .build()?;
    let clock = ClockConfig::multiwire();

    // 1. Fill a band with a stipple.
    let band = BitBltParams {
        dst: SCREEN as Word + PITCH, // second row
        width: PITCH,
        height: 6,
        src_pitch: PITCH,
        dst_pitch: PITCH,
        fill: 0xaaaa,
        ..BitBltParams::default()
    };
    let cycles = blit(&mut m, BlitKind::Fill, &band);
    let bits = u64::from(band.width) * u64::from(band.height) * 16;
    println!(
        "fill:   {:>5} cycles, {:>5.1} Mbit/s",
        cycles,
        clock.mbits_per_sec(bits, Cycles(cycles))
    );

    // 2. Copy the band two rows down.
    let copy = BitBltParams {
        src: band.dst,
        dst: band.dst + 8 * PITCH,
        width: PITCH,
        height: 6,
        src_pitch: PITCH,
        dst_pitch: PITCH,
        ..BitBltParams::default()
    };
    let cycles = blit(&mut m, BlitKind::Copy, &copy);
    println!(
        "copy:   {:>5} cycles, {:>5.1} Mbit/s",
        cycles,
        clock.mbits_per_sec(bits, Cycles(cycles))
    );

    // 3. Scroll (shifted copy) the lower band right by 3 pixels.
    let scroll = BitBltParams {
        src: copy.dst - 1, // pairing window starts one word earlier
        dst: copy.dst,
        width: PITCH - 1,
        height: 6,
        src_pitch: PITCH,
        dst_pitch: PITCH,
        shift: 13, // left-cycle 13 = shift right 3 within the pair
        ..BitBltParams::default()
    };
    let cycles = blit(&mut m, BlitKind::ShiftedCopy, &scroll);
    println!(
        "scroll: {:>5} cycles, {:>5.1} Mbit/s (the paper's 34 Mbit/s class)",
        cycles,
        clock.mbits_per_sec(
            u64::from(scroll.width) * u64::from(scroll.height) * 16,
            Cycles(cycles)
        )
    );

    // 4. Merge a filter into the middle rows (the 24 Mbit/s class).
    let merge = BitBltParams {
        src: band.dst - 1,
        dst: SCREEN as Word + 4 * PITCH,
        width: PITCH - 1,
        height: 3,
        src_pitch: PITCH,
        dst_pitch: PITCH,
        shift: 0,
        filter: 0x0ff0,
        ..BitBltParams::default()
    };
    let cycles = blit(&mut m, BlitKind::Merge, &merge);
    println!(
        "merge:  {:>5} cycles, {:>5.1} Mbit/s (the paper's 24 Mbit/s class)",
        cycles,
        clock.mbits_per_sec(
            u64::from(merge.width) * u64::from(merge.height) * 16,
            Cycles(cycles)
        )
    );

    // 5. A bit-boundary rectangle: ragged edges through the fillmask
    // planner (left edge, interior words, right edge).
    let rect = bitblt::BitRect {
        base: SCREEN as Word,
        pitch: PITCH,
        x: 9, // starts mid-word
        y: 12,
        w: 37, // ends mid-word two words later
        h: 3,
    };
    let before = m.stats().cycles;
    bitblt::fill_rect_bits(&mut m, &rect, 0xffff);
    println!(
        "bit-rect fill ({} steps): {:>5} cycles",
        bitblt::plan_fill_bits(&rect).len(),
        m.stats().cycles - before
    );

    println!("\nthe screen:");
    show(&m);
    Ok(())
}
