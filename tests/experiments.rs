//! Shape assertions for every quantitative claim in the paper's
//! evaluation (the per-claim index lives in DESIGN.md; the regenerating
//! benches in `crates/bench`).  Each test states the paper's number and
//! checks our measured value falls in a band around it.
//!
//! Measured ratios come from the [`dorado::base::Report`] API — the same
//! arithmetic the `Display` tables use — never recomputed by hand here.

use dorado::asm::synth::{random_program, SynthProfile};
use dorado::asm::{synthesis_cost, ControlOp};
use dorado::base::{ClockConfig, Cycles, HoldCause, Requester, TaskId, VirtAddr, Word};
use dorado::core::DoradoBuilder;
use dorado::emu::bitblt::{self, BitBltParams, BlitKind};
use dorado::emu::layout::*;
use dorado::emu::mesa::{self, MesaAsm};
use dorado::emu::suite::{build_lisp, build_mesa};
use dorado::emu::SuiteBuilder;
use dorado::io::DisplayController;

// --- E6: microstore placement utilization (§7: "99.9%") ---------------------

#[test]
fn e06_full_store_placement_utilization() {
    // Fill the 4096-word store with realistic synthetic microcode and
    // measure the placer's waste.  Paper: 99.9% used.  Our greedy placer
    // with repair achieves >96%; the residual is page-boundary padding
    // (see EXPERIMENTS.md for the honest comparison).
    let p = random_program(1981, 3400, &SynthProfile::default());
    let placed = p.place().expect("an essentially full store must place");
    let stats = placed.stats();
    assert!(stats.footprint() <= 4096);
    assert!(
        stats.utilization() > 0.95,
        "utilization {:.4}",
        stats.utilization()
    );
}

// --- E7: bus bandwidths (§5.8, §6.2.1) ---------------------------------------

#[test]
fn e07_io_and_memory_bandwidth_constants() {
    let clock = ClockConfig::multiwire();
    // "The data bus can transfer a word per cycle, or 265 megabits/second."
    let io_bus = clock.mbits_per_sec(16, Cycles(1));
    assert!((io_bus - 266.7).abs() < 2.0, "{io_bus}");
    // "the full memory bandwidth of 530 megabits/sec" = munch per storage
    // cycle.
    let mem = clock.mbits_per_sec(16 * 16, Cycles(8));
    assert!((mem - 533.3).abs() < 4.0, "{mem}");
}

#[test]
fn e07_slow_io_actually_moves_a_word_per_cycle() {
    // The combined Input+store instruction moves one word per cycle
    // through the processor (measured, not computed).
    use dorado::asm::{ASel, AluOp, Assembler, FfOp, Inst};
    use dorado::io::{synth::SynthPath, RateDevice};
    let task = TaskId::new(10);
    let mut a = Assembler::new();
    a.label("emu");
    a.emit(Inst::new().goto_("emu"));
    a.label("io");
    // Twelve combined Input+store+bump instructions per service (a run of
    // FF-busy words must fit one page — a real constraint of the §5.5
    // encoding — so services move 12 words, not 16).
    for _ in 0..12 {
        a.emit(
            Inst::new()
                .rm(0)
                .a(ASel::StoreR)
                .ff(FfOp::IoInput)
                .alu(AluOp::INC_A)
                .load_rm(),
        );
    }
    a.emit(Inst::new().io_block().goto_("io"));
    let mut dev = RateDevice::new(task, 260.0, 60.0, SynthPath::Slow);
    dev.set_words_per_service(12);
    dev.start();
    let mut m = DoradoBuilder::new()
        .microcode(a.place().unwrap())
        .device(Box::new(dev), 0x40, 2)
        .wire_ioaddress(task, 0x40)
        .task_entry(task, "io")
        .task_entry(TaskId::EMULATOR, "emu")
        .build()
        .unwrap();
    let _ = m.run(20_000);
    let r = m.report();
    // The device feeds at 260 Mbit/s; the bus keeps up with ~1 word/cycle
    // bursts, so the realized rate tracks the offered rate.
    assert!(
        r.slow_io_mbps() > 200.0,
        "realized slow-I/O rate {:.0} Mbit/s",
        r.slow_io_mbps()
    );
    // And per transfer instruction: exactly one word.
    assert_eq!(
        r.stats().slow_io_words,
        r.executed(task) - r.executed(task) / 13,
        "12 transfer instructions + 1 block per service"
    );
    // The I/O task owns a predictable share of the processor: 260 of a
    // 266.7 Mbit/s bus, discounted by the 1-in-13 block instruction.
    assert!(
        (0.70..=1.0).contains(&r.utilization(task)),
        "I/O task utilization {:.2}",
        r.utilization(task)
    );
}

// --- E10: NEXTPC encoding economics (§5.5) -----------------------------------

#[test]
fn e10_sequencing_costs_eight_bits() {
    // "substantially fewer bits to control microsequencing than a
    // horizontal microword would require (in the Dorado, 8 bits instead of
    // about 16)".  Full next-address + type would need 12 (address) + ~3
    // (type) + 3 (condition) bits; the paged scheme packs everything into 8.
    let widths = 8u32;
    let horizontal = 12 + 3; // NEXTPC + branch condition, minimum
    assert!(widths < horizontal);
    // And every defined control op round-trips through one byte.
    for raw in 0..=255u8 {
        if let Ok(op) = ControlOp::decode(raw) {
            assert_eq!(op.encode(), raw);
        }
    }
}

// --- E11: byte-form constants (§5.9) -----------------------------------------

#[test]
fn e11_most_constants_fit_one_instruction() {
    // "most 16 bit constants can be specified in one microinstruction, and
    // any constant can be assembled in two."
    // Over the constants real microcode uses (small integers, masks,
    // device addresses), the one-instruction fraction is large.
    let corpus: Vec<Word> = (0..256u16) // small positives
        .chain((1..=256u16).map(|v| 0u16.wrapping_sub(v))) // small negatives
        .chain((0..16).map(|b| 1u16 << b)) // single bits
        .chain((0..16).map(|b| !(1u16 << b))) // single holes
        .chain([0x00ff, 0xff00, 0x0fff, 0xf000, 0xffff, 0x8000])
        .collect();
    let one = corpus.iter().filter(|&&v| synthesis_cost(v) == 1).count();
    let frac = one as f64 / corpus.len() as f64;
    assert!(frac > 0.9, "one-instruction fraction {frac:.2}");
    // Arbitrary constants never cost more than two.
    for v in (0..=0xffffu32).step_by(257) {
        assert!(synthesis_cost(v as Word) <= 2);
    }
}

// --- E12: stitchweld vs multiwire (§2: "about 15%") ---------------------------

#[test]
fn e12_wiring_technology_scales_wall_time() {
    // Identical cycle counts; wall time scales by the cycle time.
    let mut p = MesaAsm::new();
    p.lib(1);
    for _ in 0..64 {
        p.inc();
    }
    p.halt();
    let bytes = p.assemble().unwrap();
    let mut m = build_mesa(&bytes).unwrap();
    assert!(m.run(100_000).halted());
    let cycles = Cycles(m.stats().cycles);
    let t_multi = ClockConfig::multiwire().to_ns(cycles);
    let t_stitch = ClockConfig::stitchweld().to_ns(cycles);
    let slowdown = (t_multi - t_stitch) / t_multi;
    assert!(
        (0.14..=0.19).contains(&slowdown),
        "multiwire slowdown {slowdown:.3} (paper: about 15%)"
    );
}

// --- E13: Hold overlaps memory latency with other tasks' work (§5.7) ---------

#[test]
fn e13_hold_cycles_become_io_work() {
    // A cache-missing emulator alone wastes its held cycles; with a
    // display refresh running, the same held cycles become fast-I/O work
    // and total throughput rises.
    let missing_walker = |with_display: bool| -> dorado::base::Report {
        let mut p = MesaAsm::new();
        // Walk addresses 1 munch apart: every AREAD misses.
        p.liw(0x100);
        p.sl(0);
        p.label("top");
        p.ll(0);
        p.lib(0);
        p.aread();
        p.drop_top();
        p.ll(0);
        p.lib(16);
        p.add();
        p.sl(0);
        p.jb("top");
        let bytes = p.assemble().unwrap();
        let suite = SuiteBuilder::new()
            .with_mesa()
            .with_display()
            .assemble()
            .unwrap();
        let mut b = suite.machine().task_entry(TASK_EMU, "mesa:boot");
        if with_display {
            let mut disp = DisplayController::with_rate(TASK_DISPLAY, 400.0, 60.0);
            disp.start();
            b = b
                .device(Box::new(disp), IOA_DISPLAY, 2)
                .wire_ioaddress(TASK_DISPLAY, IOA_DISPLAY)
                .task_entry(TASK_DISPLAY, "disp:init");
        }
        let mut m = b.build().unwrap();
        mesa::configure_ifu(&mut m);
        mesa::init_runtime(&mut m);
        mesa::load_program(&mut m, &bytes);
        m.memory_mut()
            .set_base_reg(dorado::base::BaseRegId::new(BR_DISPLAY), 0x2000);
        let _ = m.run(30_000);
        m.report()
    };
    let alone = missing_walker(false);
    let shared = missing_walker(true);
    assert!(
        alone.holds_total() > 5_000,
        "the walker must miss a lot: {}",
        alone.holds_total()
    );
    // The hold breakdown attributes the walker's stalls to the memory
    // system, not the IFU: every miss parks the emulator on mem-data
    // (awaiting the fill) or mem-pipe/mem-storage (issuing behind it).
    let mem_holds = alone.holds_by(TASK_EMU, HoldCause::MemData)
        + alone.holds_by(TASK_EMU, HoldCause::MemPipe)
        + alone.holds_by(TASK_EMU, HoldCause::MemStorage);
    assert!(
        mem_holds as f64 > 0.8 * alone.held(TASK_EMU) as f64,
        "memory holds {mem_holds} of {}",
        alone.held(TASK_EMU)
    );
    // The remainder is the emulator parked on ifu-dispatch between
    // macro-ops — the only other stall this workload can produce.
    assert_eq!(
        mem_holds
            + alone.holds_by(TASK_EMU, HoldCause::IfuDispatch)
            + alone.holds_by(TASK_EMU, HoldCause::IfuOperand),
        alone.held(TASK_EMU),
        "every held cycle is attributed to a cause"
    );
    assert!(
        shared.executed(TASK_DISPLAY) > 3_000,
        "display work done during holds: {}",
        shared.executed(TASK_DISPLAY)
    );
    // The emulator's own progress barely suffers: the display stole
    // mostly held cycles, not executed ones (utilization is the §7 unit).
    let loss = 1.0 - shared.utilization(TASK_EMU) / alone.utilization(TASK_EMU);
    assert!(
        loss < 0.35,
        "emulator lost {:.0}% of its throughput to a device that took {:.0}% of the cycles",
        loss * 100.0,
        shared.utilization(TASK_DISPLAY) * 100.0
    );
    // With the display stealing held cycles the machine as a whole idles
    // less: busy fraction must rise.
    assert!(
        shared.busy_fraction() > alone.busy_fraction(),
        "busy {:.2} -> {:.2}",
        alone.busy_fraction(),
        shared.busy_fraction()
    );
}

// --- E14: storage pipeline under a miss-heavy load (§7) -----------------------

#[test]
fn e14_misses_keep_the_storage_pipeline_busy() {
    // The munch-stride walker misses on every reference: the storage RAMs
    // should be occupied a large fraction of the time, the processor port
    // hit rate should collapse, and the IFU port (fetching a 6-byte loop)
    // should stay hot — the §7 cache table, split by requester.
    let mut p = MesaAsm::new();
    p.liw(0x100);
    p.sl(0);
    p.label("top");
    p.ll(0);
    p.lib(0);
    p.aread();
    p.drop_top();
    p.ll(0);
    p.lib(16);
    p.add();
    p.sl(0);
    p.jb("top");
    let bytes = p.assemble().unwrap();
    let suite = SuiteBuilder::new().with_mesa().assemble().unwrap();
    let mut m = suite
        .machine()
        .task_entry(TASK_EMU, "mesa:boot")
        .build()
        .unwrap();
    mesa::configure_ifu(&mut m);
    mesa::init_runtime(&mut m);
    mesa::load_program(&mut m, &bytes);
    let _ = m.run(30_000);
    let r = m.report();
    assert!(
        (0.10..=0.9).contains(&r.storage_occupancy()),
        "storage occupancy {:.2}",
        r.storage_occupancy()
    );
    // The walker's AREADs all miss, but the Mesa runtime's own stack
    // traffic hits, so the blended processor rate sits well below the
    // IFU's but far above zero.
    assert!(
        r.cache_hit_rate(Requester::Processor) < 0.85,
        "walker must drag the processor port down: hit rate {:.2}",
        r.cache_hit_rate(Requester::Processor)
    );
    assert!(
        r.cache_hit_rate(Requester::Ifu) > 0.9,
        "the 12-byte loop lives in the cache: IFU hit rate {:.2}",
        r.cache_hit_rate(Requester::Ifu)
    );
    // Every processor miss moves a munch through storage.
    assert!(
        r.storage_mbps() > 25.0,
        "storage traffic {:.0} Mbit/s",
        r.storage_mbps()
    );
}

// --- E2 shape recheck at full-screen scale (§7) -------------------------------

#[test]
fn e02_full_screen_erase_rate() {
    // "erasing or scrolling a screen" with a 0.5 Mbit bitmap: run a big
    // fill and confirm the Mbit/s figure lands in the tens.
    let suite = SuiteBuilder::new().with_bitblt().assemble().unwrap();
    let mut m = suite
        .machine()
        .task_entry(TASK_EMU, "bitblt:fill")
        .build()
        .unwrap();
    let p = BitBltParams {
        src: 0,
        dst: 0x1000,
        width: 64,
        height: 64, // 64×64 words = 65 Kbit (a screen strip)
        src_pitch: 64,
        dst_pitch: 64,
        fill: 0xffff,
        ..BitBltParams::default()
    };
    bitblt::load_params(&mut m, &p, BlitKind::Fill);
    let out = m.run(2_000_000);
    assert!(out.halted());
    let bits = 64 * 64 * 16u64;
    let r = m.report();
    let mbps = r.workload_mbps(bits);
    assert!(mbps > 34.0, "erase at {mbps:.0} Mbit/s (paper floor: 34)");
    // Verify a sample of the destination.
    for addr in [0x1000u32, 0x1abc, 0x1fff] {
        assert_eq!(m.memory().read_virt(VirtAddr::new(addr)), 0xffff);
    }
}

// --- E1 one-line summary (details in crates/emu tests) ------------------------

#[test]
fn e01_emulator_cost_ladder() {
    // Mesa loads tiny; Lisp transfers several times bigger (§7 table).
    let mesa_load = {
        let mut p = MesaAsm::new();
        p.lib(0);
        p.sl(0);
        for _ in 0..32 {
            p.ll(0);
            p.drop_top();
        }
        p.halt();
        let mut m = build_mesa(&p.assemble().unwrap()).unwrap();
        assert!(m.run(100_000).halted());
        m.report().executed(TaskId::EMULATOR) as f64 / 64.0
    };
    let lisp_load = {
        let mut p = dorado::emu::lisp::LispAsm::new();
        p.push_fix(0);
        p.lset(0);
        for _ in 0..32 {
            p.lget(0);
            p.lset(1);
        }
        p.halt();
        let mut m = build_lisp(&p.assemble().unwrap()).unwrap();
        assert!(m.run(200_000).halted());
        m.report().executed(TaskId::EMULATOR) as f64 / 64.0
    };
    assert!(mesa_load < 2.5, "Mesa load+drop ≈ 1.5: {mesa_load:.1}");
    assert!(
        lisp_load > 3.0 * mesa_load,
        "Lisp {lisp_load:.1} vs Mesa {mesa_load:.1}"
    );
}
