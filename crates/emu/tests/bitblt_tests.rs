//! BitBlt microcode vs the host reference rasterizer, plus the §7
//! bandwidth shape (simple ≈ 34 Mbit/s, complex ≈ 24 Mbit/s).

use dorado_base::{ClockConfig, Cycles, VirtAddr, Word};
use dorado_core::Dorado;
use dorado_emu::bitblt::{self, BitBltParams, BlitKind};
use dorado_emu::layout::TASK_EMU;
use dorado_emu::SuiteBuilder;

fn machine(entry: &str) -> Dorado {
    let suite = SuiteBuilder::new().with_bitblt().assemble().unwrap();
    suite.machine().task_entry(TASK_EMU, entry).build().unwrap()
}

/// Runs a blit on the machine and the reference side by side; asserts the
/// destination regions agree.  Returns elapsed cycles.
fn check_blit(kind: BlitKind, p: BitBltParams, seed: u64) -> u64 {
    let mut m = machine(kind.entry());
    bitblt::load_params(&mut m, &p, kind);
    // Seed memory deterministically.
    let mut state = seed | 1;
    let total = 0x2000u32;
    let mut host = vec![0u16; total as usize];
    for (i, w) in host.iter_mut().enumerate() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *w = (state >> 33) as Word;
        m.memory_mut().write_virt(VirtAddr::new(i as u32), *w);
    }
    let out = m.run(5_000_000);
    assert!(out.halted(), "blit did not halt: {out:?}");
    match kind {
        BlitKind::Fill => bitblt::reference_fill(&mut host, &p),
        BlitKind::Copy => bitblt::reference_copy(&mut host, &p),
        BlitKind::ShiftedCopy => bitblt::reference_scopy(&mut host, &p),
        BlitKind::Merge => bitblt::reference_merge(&mut host, &p),
    }
    let got = bitblt::read_region(&m, 0, total as usize);
    for i in 0..total as usize {
        assert_eq!(got[i], host[i], "word {i:#x} differs ({kind:?})");
    }
    m.stats().cycles
}

#[test]
fn fill_matches_reference() {
    let p = BitBltParams {
        src: 0,
        dst: 0x800,
        width: 24,
        height: 5,
        src_pitch: 32,
        dst_pitch: 32,
        fill: 0xa5a5,
        ..BitBltParams::default()
    };
    check_blit(BlitKind::Fill, p, 1);
}

#[test]
fn copy_matches_reference() {
    let p = BitBltParams {
        src: 0x100,
        dst: 0x900,
        width: 16,
        height: 8,
        src_pitch: 20,
        dst_pitch: 24,
        ..BitBltParams::default()
    };
    check_blit(BlitKind::Copy, p, 2);
}

#[test]
fn shifted_copy_matches_reference() {
    for shift in [1u8, 4, 7, 15] {
        let p = BitBltParams {
            src: 0x100,
            dst: 0xa00,
            width: 12,
            height: 4,
            src_pitch: 16,
            dst_pitch: 16,
            shift,
            ..BitBltParams::default()
        };
        check_blit(BlitKind::ShiftedCopy, p, 3 + u64::from(shift));
    }
}

#[test]
fn merge_matches_reference() {
    let p = BitBltParams {
        src: 0x100,
        dst: 0xb00,
        width: 10,
        height: 6,
        src_pitch: 16,
        dst_pitch: 12,
        shift: 3,
        filter: 0xf0f0,
        ..BitBltParams::default()
    };
    check_blit(BlitKind::Merge, p, 11);
}

#[test]
fn bandwidth_shape_simple_vs_complex() {
    // §7: "simple operations like erasing or scrolling" ≈ 34 Mbit/s;
    // complex source∘destination∘filter ≈ 24 Mbit/s.
    let clock = ClockConfig::multiwire();
    let geometry = BitBltParams {
        src: 0,
        dst: 0x1000,
        width: 64,
        height: 24,
        src_pitch: 80,
        dst_pitch: 64,
        shift: 5,
        filter: 0xffff,
        ..BitBltParams::default()
    };
    let bits = u64::from(geometry.width) * u64::from(geometry.height) * 16;

    let scroll_cycles = check_blit(BlitKind::ShiftedCopy, geometry, 21);
    let scroll = clock.mbits_per_sec(bits, Cycles(scroll_cycles));

    let merge_cycles = check_blit(BlitKind::Merge, geometry, 22);
    let merge = clock.mbits_per_sec(bits, Cycles(merge_cycles));

    // Shape: scroll in the ~25–50 Mbit/s band, merge slower, in ~15–30.
    assert!(
        (25.0..=55.0).contains(&scroll),
        "scroll bandwidth {scroll:.1} Mbit/s"
    );
    assert!(
        (12.0..=30.0).contains(&merge),
        "merge bandwidth {merge:.1} Mbit/s"
    );
    assert!(scroll > merge, "simple beats complex");

    // Erase (fill) is the cheapest of all.
    let fill_cycles = check_blit(BlitKind::Fill, geometry, 23);
    let fill = clock.mbits_per_sec(bits, Cycles(fill_cycles));
    assert!(fill > scroll, "fill {fill:.1} beats scroll {scroll:.1}");
}

/// Seeds machine and host memories identically, runs a bit-aligned fill
/// on both, and asserts every word of the region agrees.
fn check_bit_fill(r: bitblt::BitRect, pattern: Word, seed: u64) {
    let mut m = machine("bitblt:fill"); // entry unused; restart_at drives
    let mut state = seed | 1;
    let total = 0x2000u32;
    let mut host = vec![0u16; total as usize];
    for (i, w) in host.iter_mut().enumerate() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *w = (state >> 33) as Word;
        m.memory_mut().write_virt(VirtAddr::new(i as u32), *w);
    }
    bitblt::fill_rect_bits(&mut m, &r, pattern);
    bitblt::reference_fill_bits(&mut host, &r, pattern);
    let got = bitblt::read_region(&m, 0, total as usize);
    for i in 0..total as usize {
        assert_eq!(got[i], host[i], "word {i:#x} differs ({r:?})");
    }
}

#[test]
fn bit_fill_within_one_word() {
    check_bit_fill(
        bitblt::BitRect {
            base: 0x800,
            pitch: 4,
            x: 3,
            y: 0,
            w: 9,
            h: 5,
        },
        0xffff,
        31,
    );
}

#[test]
fn bit_fill_spanning_words_with_both_edges() {
    check_bit_fill(
        bitblt::BitRect {
            base: 0x800,
            pitch: 8,
            x: 5,
            y: 2,
            w: 70,
            h: 4,
        },
        0xffff,
        32,
    );
}

#[test]
fn bit_fill_word_aligned_degenerates_to_fill() {
    check_bit_fill(
        bitblt::BitRect {
            base: 0x800,
            pitch: 8,
            x: 32,
            y: 1,
            w: 48,
            h: 3,
        },
        0x0000,
        33,
    );
}

#[test]
fn bit_fill_with_patterned_stipple() {
    // A 50% stipple: the pattern is word-grid aligned, so edges must cut
    // it mid-pattern correctly.
    check_bit_fill(
        bitblt::BitRect {
            base: 0x900,
            pitch: 6,
            x: 7,
            y: 0,
            w: 41,
            h: 6,
        },
        0xaaaa,
        34,
    );
}

#[test]
fn bit_fill_right_edge_only() {
    check_bit_fill(
        bitblt::BitRect {
            base: 0x800,
            pitch: 4,
            x: 16,
            y: 0,
            w: 24,
            h: 2,
        },
        0xffff,
        35,
    );
}

#[test]
fn bit_fill_full_scanline() {
    check_bit_fill(
        bitblt::BitRect {
            base: 0x800,
            pitch: 4,
            x: 0,
            y: 0,
            w: 64,
            h: 3,
        },
        0x1234,
        36,
    );
}

// --- edge-case property tests -----------------------------------------------

use dorado_base::check::check;
use dorado_emu::bitblt::{BitRect, FillStep};

#[test]
fn bit_fill_property_unaligned_edges_match_reference() {
    // Random rectangles with deliberately unaligned bit edges (and the
    // occasional degenerate zero-size draw) against the host rasterizer.
    check("bitblt-bit-fill-unaligned", 12, |rng| {
        let pitch = 16u16;
        let x = rng.below(255) as u16;
        let w = if rng.chance(1, 8) {
            0
        } else {
            1 + rng.below(u64::from(pitch) * 16 - u64::from(x)) as u16
        };
        let h = rng.below(6) as u16;
        let r = BitRect {
            base: 0x800 + rng.below(64) as Word,
            pitch,
            x,
            y: rng.below(8) as u16,
            w,
            h,
        };
        let pattern = rng.word();
        let seed = rng.word() as u64 + 1;

        let mut m = machine("bitblt:fill");
        let mut state = seed | 1;
        let total = 0x2000u32;
        let mut host = vec![0u16; total as usize];
        for (i, word) in host.iter_mut().enumerate() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *word = (state >> 33) as Word;
            m.memory_mut().write_virt(VirtAddr::new(i as u32), *word);
        }
        bitblt::fill_rect_bits(&mut m, &r, pattern);
        bitblt::reference_fill_bits(&mut host, &r, pattern);
        let got = bitblt::read_region(&m, 0, total as usize);
        assert_eq!(
            got, host,
            "bit fill diverged for {r:?} pattern {pattern:#06x}"
        );
    });
}

#[test]
fn copy_property_overlapping_regions_match_reference() {
    // Forward row-major streaming makes overlapping word copies
    // well-defined; the microcode and the reference must agree for any
    // src/dst separation, including feedback (dst ahead of src).
    check("bitblt-copy-overlap", 12, |rng| {
        let width = 2 + rng.below(10) as Word;
        let height = 1 + rng.below(4) as Word;
        let pitch = width + 1 + rng.below(4) as Word;
        let src = 0x800u16;
        let span = i64::from(pitch) * i64::from(height) + 8;
        let delta = rng.range_i64(-span, span + 1);
        let p = BitBltParams {
            src,
            dst: (i64::from(src) + delta) as Word,
            width,
            height,
            src_pitch: pitch,
            dst_pitch: pitch,
            ..BitBltParams::default()
        };
        check_blit(BlitKind::Copy, p, rng.word() as u64 + 1);
    });
}

#[test]
fn shifted_copy_property_overlap_outside_the_read_window() {
    // The shifted copy streams its stores while the reference pre-reads
    // each row, so agreement is only defined when the destination does
    // not land inside the row's unread pairing window: dst at-or-before
    // src, or clear of the window (delta ≥ width + 1).  Vertical
    // feedback (dst whole rows below src) is included — both sides
    // process rows in order.
    check("bitblt-scopy-overlap", 12, |rng| {
        let width = 2 + rng.below(8) as Word;
        let height = 1 + rng.below(4) as Word;
        let pitch = width + 1 + rng.below(4) as Word;
        let src = 0x800u16;
        let span = i64::from(pitch) * i64::from(height) + 8;
        let delta = if rng.chance(1, 2) {
            rng.range_i64(-span, 1)
        } else {
            rng.range_i64(i64::from(width) + 1, span)
        };
        let p = BitBltParams {
            src,
            dst: (i64::from(src) + delta) as Word,
            width,
            height,
            src_pitch: pitch,
            dst_pitch: pitch,
            shift: 1 + rng.below(15) as u8,
            ..BitBltParams::default()
        };
        check_blit(BlitKind::ShiftedCopy, p, rng.word() as u64 + 1);
    });
}

#[test]
fn zero_sized_rects_are_explicit_no_ops() {
    for r in [
        BitRect {
            base: 0x800,
            pitch: 16,
            x: 37,
            y: 2,
            w: 0,
            h: 3,
        },
        BitRect {
            base: 0x800,
            pitch: 16,
            x: 37,
            y: 2,
            w: 9,
            h: 0,
        },
        BitRect {
            base: 0x800,
            pitch: 16,
            x: 0,
            y: 0,
            w: 0,
            h: 0,
        },
    ] {
        assert!(
            bitblt::plan_fill_bits(&r).is_empty(),
            "{r:?} must plan nothing"
        );
        let mut m = machine("bitblt:fill");
        for i in 0..0x1000u32 {
            m.memory_mut()
                .write_virt(VirtAddr::new(i), (i * 31) as Word);
        }
        let before = bitblt::read_region(&m, 0, 0x1000);
        bitblt::fill_rect_bits(&mut m, &r, 0xFFFF);
        assert_eq!(
            bitblt::read_region(&m, 0, 0x1000),
            before,
            "{r:?} touched memory"
        );
    }
}

#[test]
fn fill_step_planning_is_exhaustive_over_edge_alignments() {
    // Every (left, right) bit-alignment class: word-aligned edges plan
    // word fills, ragged edges plan masked fills, and the two never
    // overlap or leave gaps.
    for x in 0..32u16 {
        for w in 1..48u16 {
            let r = BitRect {
                base: 0,
                pitch: 16,
                x,
                y: 0,
                w,
                h: 1,
            };
            let mut covered = vec![false; 256];
            for step in bitblt::plan_fill_bits(&r) {
                let (lo, hi) = match step {
                    FillStep::Words(p) => {
                        let a = p.dst * 16;
                        (a, a + p.width * 16)
                    }
                    FillStep::Edge { dst, pos, size, .. } => {
                        let a = dst * 16 + 16 - u16::from(pos) - u16::from(size);
                        (a, a + u16::from(size))
                    }
                };
                for bit in lo..hi {
                    assert!(
                        !covered[usize::from(bit)],
                        "bit {bit} double-covered at x={x} w={w}"
                    );
                    covered[usize::from(bit)] = true;
                }
            }
            for bit in 0..256u16 {
                let inside = bit >= x && bit < x + w;
                assert_eq!(
                    covered[usize::from(bit)],
                    inside,
                    "coverage at x={x} w={w} bit {bit}"
                );
            }
        }
    }
}
