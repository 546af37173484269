//! Property-based tests over the core data structures and invariants,
//! driven by the in-repo [`dorado::base::check`] harness (hermetic: no
//! external property-testing crate).

use dorado::asm::synth::{random_program, SynthProfile};
use dorado::asm::{
    alu_eval, const_bsel, const_value, shifter_output, synthesis_cost, AluFunction, MaskMode,
    Microword, ShiftCtl,
};
use dorado::base::check::{check, Rng};
use dorado::base::{TaskId, VirtAddr};
use dorado::core::DecodedInst;
use dorado::mem::{MemConfig, MemorySystem};

// --- microword encoding ------------------------------------------------

/// Any 34-bit pattern whose fields decode re-encodes to itself, and
/// field extraction is consistent with insertion.
#[test]
fn microword_field_roundtrip() {
    check("microword_field_roundtrip", 512, |rng: &mut Rng| {
        let raw = rng.below(1 << 34);
        let w = Microword::from_raw(raw).expect("34 bits");
        if let Ok(d) = DecodedInst::decode(w) {
            // Rebuild a word from the decoded fields; all fields must
            // match the original.
            let rebuilt = Microword::default()
                .with_raddr(d.raddr)
                .with_asel(d.asel)
                .with_bsel(d.bsel)
                .with_aluop(d.aluop)
                .with_load_control(d.load)
                .with_block(d.block)
                .with_ff(d.ff_raw)
                .with_control(d.control);
            assert_eq!(rebuilt.raw(), raw);
        }
    });
}

/// Setting one field never disturbs another.
#[test]
fn microword_fields_independent() {
    check("microword_fields_independent", 512, |rng: &mut Rng| {
        let raw = rng.below(1 << 34);
        let ff = rng.below(256) as u8;
        let w = Microword::from_raw(raw).expect("34 bits");
        let w2 = w.with_ff(ff);
        assert_eq!(w2.ff(), ff);
        assert_eq!(w2.raddr(), w.raddr());
        assert_eq!(w2.next_control_raw(), w.next_control_raw());
        assert_eq!(w2.block(), w.block());
    });
}

// --- ALU ----------------------------------------------------------------

/// Add/Sub agree with the wrapping integer oracle, and the carry is
/// the 17th bit.
#[test]
fn alu_add_sub_oracle() {
    check("alu_add_sub_oracle", 512, |rng: &mut Rng| {
        let (a, b) = (rng.word(), rng.word());
        let add = alu_eval(AluFunction::Add, a, b, false);
        assert_eq!(add.result, a.wrapping_add(b));
        assert_eq!(add.carry, (u32::from(a) + u32::from(b)) > 0xffff);
        let sub = alu_eval(AluFunction::Sub, a, b, false);
        assert_eq!(sub.result, a.wrapping_sub(b));
        assert_eq!(sub.carry, a >= b);
    });
}

/// 32-bit addition via Add + AddCarry equals the u32 oracle.
#[test]
fn alu_multiprecision_add() {
    check("alu_multiprecision_add", 512, |rng: &mut Rng| {
        let (x, y) = (rng.next_u32(), rng.next_u32());
        let lo = alu_eval(AluFunction::Add, x as u16, y as u16, false);
        let hi = alu_eval(
            AluFunction::AddCarry,
            (x >> 16) as u16,
            (y >> 16) as u16,
            lo.carry,
        );
        let got = (u32::from(hi.result) << 16) | u32::from(lo.result);
        assert_eq!(got, x.wrapping_add(y));
    });
}

/// Logical operations match the bitwise oracle.
#[test]
fn alu_logic_oracle() {
    check("alu_logic_oracle", 512, |rng: &mut Rng| {
        let (a, b) = (rng.word(), rng.word());
        assert_eq!(alu_eval(AluFunction::And, a, b, false).result, a & b);
        assert_eq!(alu_eval(AluFunction::Or, a, b, false).result, a | b);
        assert_eq!(alu_eval(AluFunction::Xor, a, b, false).result, a ^ b);
        assert_eq!(alu_eval(AluFunction::NotA, a, b, false).result, !a);
        assert_eq!(alu_eval(AluFunction::AndNotB, a, b, false).result, a & !b);
    });
}

// --- shifter ------------------------------------------------------------

/// The barrel shifter agrees with u32 rotation.
#[test]
fn shifter_rotation_oracle() {
    check("shifter_rotation_oracle", 512, |rng: &mut Rng| {
        let (r, t) = (rng.word(), rng.word());
        let count = rng.below(32) as u8;
        let ctl = ShiftCtl::left_cycle(count);
        let out = shifter_output(ctl, r, t, 0, MaskMode::None);
        let v = (u32::from(r) << 16) | u32::from(t);
        assert_eq!(out, (v.rotate_left(u32::from(count)) >> 16) as u16);
    });
}

/// Field extraction returns exactly the selected bits.
#[test]
fn shifter_field_extract_oracle() {
    check("shifter_field_extract_oracle", 512, |rng: &mut Rng| {
        let v = rng.word();
        let pos = rng.below(16) as u8;
        let size = rng.range(1, 16 - u64::from(pos) + 1) as u8;
        let ctl = ShiftCtl::field_extract(pos, size);
        let out = shifter_output(ctl, v, v, 0, MaskMode::Zeroes);
        let mask = if size == 16 {
            0xffff
        } else {
            (1u16 << size) - 1
        };
        assert_eq!(out, (v >> pos) & mask);
    });
}

/// Field insertion touches exactly the selected bits.
#[test]
fn shifter_field_insert_oracle() {
    check("shifter_field_insert_oracle", 512, |rng: &mut Rng| {
        let v = rng.word();
        let old = rng.word();
        let pos = rng.below(16) as u8;
        let size = rng.range(1, 16 - u64::from(pos) + 1) as u8;
        let ctl = ShiftCtl::field_insert(pos, size);
        let out = shifter_output(ctl, v, v, old, MaskMode::MemData);
        let mask: u16 = if size == 16 {
            0xffff
        } else {
            ((1u32 << size) - 1) as u16
        } << pos;
        assert_eq!(out & mask, (v << pos) & mask, "field bits come from v");
        assert_eq!(out & !mask, old & !mask, "other bits preserved");
    });
}

// --- constants (§5.9) -----------------------------------------------------

/// Every byte-form constant round-trips; every constant costs ≤ 2.
#[test]
fn constants_synthesis() {
    check("constants_synthesis", 512, |rng: &mut Rng| {
        let v = rng.word();
        assert!(synthesis_cost(v) <= 2);
        if let Some((bsel, ff)) = const_bsel(v) {
            assert_eq!(const_value(bsel, ff), Some(v));
            assert_eq!(synthesis_cost(v), 1);
        } else {
            // Not byte form: neither byte is all-zeros or all-ones.
            let hi = v >> 8;
            let lo = v & 0xff;
            assert!(hi != 0 && hi != 0xff && lo != 0 && lo != 0xff);
        }
    });
}

// --- placer ----------------------------------------------------------------

/// Random realistic microprograms always place, every placed word
/// decodes, and utilization stays high.
#[test]
fn placer_soundness() {
    check("placer_soundness", 24, |rng: &mut Rng| {
        let seed = rng.range(1, 500);
        let p = random_program(seed, 300, &SynthProfile::default());
        let placed = p.place().expect("must place");
        assert!(placed.words_used() >= 300);
        assert!(placed.stats().utilization() > 0.9);
        // The independent structural verifier accepts the image.
        let violations = dorado::asm::verify::verify(&placed);
        assert!(violations.is_empty(), "{violations:?}");
        for (i, u) in placed.uses().iter().enumerate() {
            if !matches!(u, dorado::asm::placer::SlotUse::Empty) {
                let w = placed.word(dorado::base::MicroAddr::new(i as u16));
                if matches!(u, dorado::asm::placer::SlotUse::Inst(_))
                    || matches!(u, dorado::asm::placer::SlotUse::Relay(_))
                {
                    assert!(DecodedInst::decode(w).is_ok(), "word {i} must decode");
                }
            }
        }
    });
}

/// Branch pairs always obey the even/odd rule in the placed image.
#[test]
fn placer_branch_pairs_are_even_odd() {
    check("placer_branch_pairs_are_even_odd", 24, |rng: &mut Rng| {
        use dorado::asm::ControlOp;
        let seed = rng.range(1, 200);
        let p = random_program(seed, 200, &SynthProfile::default());
        let placed = p.place().expect("must place");
        for (i, u) in placed.uses().iter().enumerate() {
            if matches!(u, dorado::asm::placer::SlotUse::Inst(_)) {
                let w = placed.word(dorado::base::MicroAddr::new(i as u16));
                if let Ok(ControlOp::CondGoto { pair, .. }) = w.control() {
                    // The pair lives in the same page; its base is even.
                    let base = (i as u16 / 16) * 16 + u16::from(pair) * 2;
                    assert_eq!(base % 2, 0);
                    assert_eq!(base / 16, i as u16 / 16, "same page");
                }
            }
        }
    });
}

// --- memory system -----------------------------------------------------------

/// The cache+storage system is coherent with a flat-memory oracle
/// under random timed traffic.
#[test]
fn memory_coherence_oracle() {
    check("memory_coherence_oracle", 64, |rng: &mut Rng| {
        let mut mem = MemorySystem::new(MemConfig {
            cache_words: 256, // tiny cache: lots of evictions
            assoc: 2,
            storage_words: 4096,
            ..MemConfig::default()
        });
        let mut oracle = vec![0u16; 4096];
        let t0 = TaskId::EMULATOR;
        let ops = rng.range(1, 200);
        for _ in 0..ops {
            let kind = rng.below(4);
            let addr = rng.below(2048) as u32;
            let value = rng.word();
            let delay = rng.below(4);
            let va = VirtAddr::new(addr);
            match kind {
                0 => {
                    // Timed store (retry while held).
                    while mem.start_store(t0, va, value).is_err() {
                        mem.tick();
                    }
                    oracle[addr as usize] = value;
                }
                1 => {
                    // Timed fetch; data must match the oracle.
                    while mem.start_fetch(t0, va).is_err() {
                        mem.tick();
                    }
                    let w = loop {
                        match mem.memdata(t0) {
                            Ok(w) => break w,
                            Err(_) => mem.tick(),
                        }
                    };
                    assert_eq!(w, oracle[addr as usize], "fetch {addr}");
                }
                2 => {
                    // Host write.
                    mem.write_virt(va, value);
                    oracle[addr as usize] = value;
                }
                _ => {
                    assert_eq!(mem.read_virt(va), oracle[addr as usize], "peek {addr}");
                }
            }
            for _ in 0..delay {
                mem.tick();
            }
        }
        // Final sweep: every address agrees.
        for a in (0..4096).step_by(97) {
            assert_eq!(mem.read_virt(VirtAddr::new(a)), oracle[a as usize]);
        }
    });
}

/// Fast I/O stays coherent with processor-side writes.
#[test]
fn fast_io_coherence() {
    check("fast_io_coherence", 64, |rng: &mut Rng| {
        let mut mem = MemorySystem::new(MemConfig::default());
        let mut oracle = vec![0u16; 256];
        let t0 = TaskId::EMULATOR;
        let stores = rng.range(1, 40);
        for _ in 0..stores {
            let addr = rng.below(256) as u32;
            let value = rng.word();
            while mem.start_store(t0, VirtAddr::new(addr), value).is_err() {
                mem.tick();
            }
            oracle[addr as usize] = value;
            mem.tick();
        }
        // Fast-fetch every munch: must see the freshest data even when it
        // is still dirty in the cache.
        for munch in 0..(256 / 16) {
            let base = munch * 16;
            loop {
                match mem.fast_fetch(VirtAddr::new(base)) {
                    Ok(data) => {
                        for k in 0..16usize {
                            assert_eq!(data[k], oracle[base as usize + k]);
                        }
                        break;
                    }
                    Err(_) => mem.tick(),
                }
            }
        }
    });
}

// --- stack geometry ------------------------------------------------------------

/// Stack pushes and pops stay within the selected 64-word stack and
/// flag over/underflow exactly at the boundaries.
#[test]
fn stack_bounds() {
    check("stack_bounds", 128, |rng: &mut Rng| {
        use dorado::core::DataSection;
        let sel = rng.below(4) as u8;
        let mut d = DataSection::new();
        d.set_stackptr(sel << 6);
        let mut pos: i32 = 0;
        let mut errored = false;
        let moves = rng.range(1, 100);
        for _ in 0..moves {
            let m = rng.range_i64(-3, 3) as i8;
            let before_err = d.stack_error;
            let addr = d.stack_bump(m);
            assert_eq!((addr as u8) >> 6, sel, "stays in stack {sel}");
            pos += i32::from(m);
            if !(0..64).contains(&pos) {
                errored = true;
                pos = pos.rem_euclid(64);
            }
            assert_eq!(d.stack_error, errored || before_err);
        }
    });
}

// --- bitblt -----------------------------------------------------------------

/// A random bit-aligned rectangle fill run through the planner, the
/// `fillmask`/`fill` microcode, and the memory system matches the
/// host's bit-level reference rasterizer.
#[test]
fn bit_fill_matches_reference() {
    check("bit_fill_matches_reference", 24, |rng: &mut Rng| {
        use dorado::emu::bitblt::{self, BitRect};
        use dorado::emu::SuiteBuilder;

        let x = rng.below(60) as u16;
        let w = rng.range(1, 60) as u16;
        let y = rng.below(4) as u16;
        let h = rng.range(1, 6) as u16;
        let pattern = rng.word();
        let seed = rng.next_u64();

        let pitch = 8u16;
        let w = w.min(pitch * 16 - x);
        let r = BitRect {
            base: 0x800,
            pitch,
            x,
            y,
            w,
            h,
        };

        let suite = SuiteBuilder::new().with_bitblt().assemble().unwrap();
        let mut m = suite
            .machine()
            .task_entry(TaskId::EMULATOR, "bitblt:fill")
            .build()
            .unwrap();

        let mut state = seed | 1;
        let total = 0x1000usize;
        let mut host = vec![0u16; total];
        for (i, word) in host.iter_mut().enumerate() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *word = (state >> 33) as u16;
            m.memory_mut().write_virt(VirtAddr::new(i as u32), *word);
        }

        bitblt::fill_rect_bits(&mut m, &r, pattern);
        bitblt::reference_fill_bits(&mut host, &r, pattern);
        for (i, &want) in host.iter().enumerate() {
            let got = m.memory().read_virt(VirtAddr::new(i as u32));
            assert_eq!(got, want, "word {i:#x} differs for {r:?}");
        }
    });
}
