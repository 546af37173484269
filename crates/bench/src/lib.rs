//! Measurement harness for the paper's experiments (E1–E13).
//!
//! Every quantitative claim in §7 (and the ablations of §2, §5.6, §5.7,
//! §6.2.1) has a function here that sets up the workload, runs the
//! simulator, and returns the number in the paper's units — via the
//! [`dorado_base::Report`] API wherever the number is a ratio of counters.
//! The plain-`main` benches under `benches/` (timed by [`harness`]) and
//! the `report` binary both call these.

#![forbid(unsafe_code)]

pub mod harness;

use dorado_asm::synth::{random_program, SynthProfile};
use dorado_base::{BaseRegId, ClockConfig, Cycles, TaskId, VirtAddr, Word};
use dorado_core::{Dorado, TaskingMode};
use dorado_emu::bitblt::{self, BitBltParams, BlitKind};
use dorado_emu::layout::*;
use dorado_emu::lisp::LispAsm;
use dorado_emu::mesa::MesaAsm;
use dorado_emu::suite::{build_bcpl, build_lisp, build_mesa};
use dorado_emu::{bcpl::BcplAsm, mesa, SuiteBuilder};
use dorado_io::{
    synth::SynthPath, DiskController, DisplayController, NetworkController, RateDevice,
};

/// The production clock.
pub fn clock() -> ClockConfig {
    ClockConfig::multiwire()
}

/// A Mesa program that spins forever (foreground load for device tests).
pub fn spinning_mesa() -> Vec<u8> {
    let mut p = MesaAsm::new();
    p.lib(1);
    p.label("top");
    for _ in 0..100 {
        p.inc();
    }
    p.jb("top");
    p.assemble().expect("spin program")
}

// --- E1: microinstructions per macroinstruction ------------------------------

/// Executed emulator microinstructions per macroinstruction for a snippet
/// repeated `reps` times on the Mesa machine.
pub fn mesa_cost(build: impl Fn(&mut MesaAsm), reps: usize) -> f64 {
    let mut p = MesaAsm::new();
    for _ in 0..=reps {
        build(&mut p);
    }
    p.halt();
    let mut m = build_mesa(&p.assemble().expect("asm")).expect("machine");
    assert!(m.run(5_000_000).halted());
    (m.stats().executed[0] as f64 - 2.0) / (reps + 1) as f64
}

/// Same for the Lisp machine.
pub fn lisp_cost(build: impl Fn(&mut LispAsm), reps: usize) -> f64 {
    let mut p = LispAsm::new();
    for _ in 0..=reps {
        build(&mut p);
    }
    p.halt();
    let mut m = build_lisp(&p.assemble().expect("asm")).expect("machine");
    assert!(m.run(5_000_000).halted());
    (m.stats().executed[0] as f64 - 2.0) / (reps + 1) as f64
}

/// Same for the BCPL machine.
pub fn bcpl_cost(build: impl Fn(&mut BcplAsm), reps: usize) -> f64 {
    let mut p = BcplAsm::new();
    for _ in 0..=reps {
        build(&mut p);
    }
    p.halt();
    let mut m = build_bcpl(&p.assemble().expect("asm")).expect("machine");
    assert!(m.run(5_000_000).halted());
    (m.stats().executed[0] as f64 - 2.0) / (reps + 1) as f64
}

/// Cycles per Mesa call+return round trip (the paper's "about 50").
pub fn mesa_call_cycles() -> f64 {
    let mut p = MesaAsm::new();
    for _ in 0..32 {
        p.lib(1);
        p.lib(2);
        p.call("f", 2);
        p.drop_top();
    }
    p.halt();
    p.label("f");
    p.ll(0);
    p.ll(1);
    p.add();
    p.ret();
    let mut m = build_mesa(&p.assemble().expect("asm")).expect("machine");
    assert!(m.run(5_000_000).halted());
    m.stats().cycles as f64 / 32.0 - 4.0 // glue ≈ 4 cycles per round
}

/// Cycles per Lisp call+return round trip (the paper's "about 200").
pub fn lisp_call_cycles() -> f64 {
    let mut p = LispAsm::new();
    for _ in 0..32 {
        p.push_fix(1);
        p.push_fix(2);
        p.call("f", 2);
    }
    p.halt();
    p.label("f");
    p.lget(0);
    p.lget(1);
    p.add();
    p.ret();
    let mut m = build_lisp(&p.assemble().expect("asm")).expect("machine");
    assert!(m.run(5_000_000).halted());
    m.stats().cycles as f64 / 32.0 - 8.0 // glue: two pushes ≈ 8 cycles
}

/// Cycles per BCPL call+return round trip.
pub fn bcpl_call_cycles() -> f64 {
    let mut p = BcplAsm::new();
    for _ in 0..32 {
        p.call("f");
    }
    p.halt();
    p.label("f");
    p.ret();
    let mut m = build_bcpl(&p.assemble().expect("asm")).expect("machine");
    assert!(m.run(5_000_000).halted());
    m.stats().cycles as f64 / 32.0
}

// --- E2: BitBlt bandwidths ----------------------------------------------------

/// Runs one blit over a screen-sized region; returns Mbit/s.
pub fn bitblt_mbps(kind: BlitKind, shift: u8) -> f64 {
    let suite = SuiteBuilder::new().with_bitblt().assemble().expect("suite");
    let mut m = suite
        .machine()
        .task_entry(TASK_EMU, kind.entry())
        .build()
        .expect("machine");
    let p = BitBltParams {
        src: 0,
        dst: 0x4000u16 as Word,
        width: 60,
        height: 80,
        src_pitch: 64,
        dst_pitch: 64,
        shift,
        fill: 0xffff,
        filter: 0xffff,
    };
    bitblt::load_params(&mut m, &p, kind);
    // Touch source memory so it is nonzero (and partially cached).
    for i in 0..(64 * 81u32) {
        m.memory_mut().write_virt(VirtAddr::new(i), i as Word);
    }
    let out = m.run(10_000_000);
    assert!(out.halted(), "{out:?}");
    let bits = u64::from(p.width) * u64::from(p.height) * 16;
    m.report().workload_mbps(bits)
}

// --- E3/E7: slow-I/O processor share -------------------------------------------

/// Processor share of a slow-I/O device at `mbps`, serviced by the
/// 3-instructions-per-pair loop, measured while the transfer is active.
pub fn slow_io_share(mbps: f64) -> f64 {
    let suite = SuiteBuilder::new()
        .with_mesa()
        .with_synth_sinks()
        .assemble()
        .expect("suite");
    let mut dev = RateDevice::new(TASK_SYNTH, mbps, 60.0, SynthPath::Slow);
    dev.start();
    let mut m = suite
        .machine()
        .task_entry(TASK_EMU, "mesa:boot")
        .device(Box::new(dev), IOA_SYNTH, 2)
        .wire_ioaddress(TASK_SYNTH, IOA_SYNTH)
        .task_entry(TASK_SYNTH, "synths:init")
        .build()
        .expect("machine");
    mesa::configure_ifu(&mut m);
    mesa::init_runtime(&mut m);
    mesa::load_program(&mut m, &spinning_mesa());
    let _ = m.run(40_000);
    m.report().utilization(TASK_SYNTH)
}

// --- E4/E5: fast-I/O share at full storage bandwidth ---------------------------

/// Processor share of the display fast-I/O task with the monitor consuming
/// the full 530 Mbit/s storage bandwidth, under either tasking mode.
pub fn fastio_share(mode: TaskingMode) -> f64 {
    let (entry, builder) = match mode {
        TaskingMode::OnDemand => ("disp:init", SuiteBuilder::new().with_mesa().with_display()),
        TaskingMode::NotifyGrain3 => (
            "disp3:init",
            SuiteBuilder::new().with_mesa().with_display_grain3(),
        ),
    };
    let suite = builder.assemble().expect("suite");
    let mut disp = DisplayController::with_rate(TASK_DISPLAY, 530.0, 60.0);
    disp.start();
    let mut m = suite
        .machine()
        .task_entry(TASK_EMU, "mesa:boot")
        .tasking(mode)
        .device(Box::new(disp), IOA_DISPLAY, 2)
        .wire_ioaddress(TASK_DISPLAY, IOA_DISPLAY)
        .task_entry(TASK_DISPLAY, entry)
        .build()
        .expect("machine");
    mesa::configure_ifu(&mut m);
    mesa::init_runtime(&mut m);
    mesa::load_program(&mut m, &spinning_mesa());
    m.memory_mut()
        .set_base_reg(BaseRegId::new(BR_DISPLAY), 0x2000);
    let _ = m.run(50_000);
    m.report().utilization(TASK_DISPLAY)
}

/// The fast-I/O bandwidth actually delivered to the display (Mbit/s).
pub fn fastio_mbps() -> f64 {
    let suite = SuiteBuilder::new()
        .with_mesa()
        .with_display()
        .assemble()
        .expect("suite");
    let mut disp = DisplayController::with_rate(TASK_DISPLAY, 530.0, 60.0);
    disp.start();
    let mut m = suite
        .machine()
        .task_entry(TASK_EMU, "mesa:boot")
        .device(Box::new(disp), IOA_DISPLAY, 2)
        .wire_ioaddress(TASK_DISPLAY, IOA_DISPLAY)
        .task_entry(TASK_DISPLAY, "disp:init")
        .build()
        .expect("machine");
    mesa::configure_ifu(&mut m);
    mesa::init_runtime(&mut m);
    mesa::load_program(&mut m, &spinning_mesa());
    m.memory_mut()
        .set_base_reg(BaseRegId::new(BR_DISPLAY), 0x2000);
    let _ = m.run(50_000);
    m.report().fast_io_mbps()
}

// --- E6: placement utilization ---------------------------------------------------

/// Placement utilization of a synthetic near-full store of `n` instructions.
pub fn placement_utilization(n: usize) -> f64 {
    let p = random_program(1981, n, &SynthProfile::default());
    p.place().expect("placement").stats().utilization()
}

// --- E9: the bypass ablation ---------------------------------------------------------

/// Cycles for a bypass-hazard-dense microprogram on the shipped machine
/// (bypassing) and on the Model 0 (no bypassing, padded code).
pub fn bypass_cycles() -> (u64, u64) {
    use dorado_asm::{ASel, Assembler, Inst};
    use dorado_asm::{AluOp, Cond, FfOp};
    let build = || {
        let mut a = Assembler::new();
        // Dependent chains: each instruction reads the previous result —
        // the common microcode shape §5.6 says bypassing makes "much
        // smaller and faster".
        a.emit(Inst::new().ff(FfOp::LoadCountImm(16)).goto_("top"));
        a.pair_align();
        a.label("top");
        a.emit(
            Inst::new()
                .a(ASel::T)
                .alu(AluOp::INC_A)
                .load_t()
                .goto_("w1"),
        );
        a.label("exit");
        a.emit(Inst::new().ff_halt().goto_("exit"));
        a.label("w1");
        a.emit(Inst::new().rm(1).a(ASel::T).alu(AluOp::A).load_rm());
        a.emit(Inst::new().rm(1).alu(AluOp::INC_A).load_rm());
        a.emit(
            Inst::new()
                .rm(1)
                .b(dorado_asm::BSel::Rm)
                .a(ASel::T)
                .alu(AluOp::ADD)
                .load_t(),
        );
        a.emit(
            Inst::new()
                .ff(FfOp::DecCount)
                .branch(Cond::CntZero, "exit", "top"),
        );
        a.program()
    };
    let with = {
        let placed = build().place().expect("place");
        let mut m = dorado_core::DoradoBuilder::new()
            .microcode(placed)
            .bypass(true)
            .build()
            .expect("machine");
        let out = m.run(100_000);
        assert!(out.halted());
        m.stats().cycles
    };
    let without = {
        let placed = build().pad_for_no_bypass().place().expect("place");
        let mut m = dorado_core::DoradoBuilder::new()
            .microcode(placed)
            .bypass(false)
            .build()
            .expect("machine");
        let out = m.run(100_000);
        assert!(out.halted());
        m.stats().cycles
    };
    (with, without)
}

// --- E12: wiring technology ------------------------------------------------------------

/// Wall-clock milliseconds for one fixed workload on each wiring.
pub fn wiring_times_ms() -> (f64, f64) {
    let mut p = MesaAsm::new();
    p.lib(0);
    for _ in 0..100 {
        p.inc();
    }
    p.halt();
    let mut m = build_mesa(&p.assemble().expect("asm")).expect("machine");
    assert!(m.run(100_000).halted());
    let cycles = Cycles(m.stats().cycles);
    (
        ClockConfig::stitchweld().to_seconds(cycles) * 1e3,
        ClockConfig::multiwire().to_seconds(cycles) * 1e3,
    )
}

// --- E13: Hold overlap ---------------------------------------------------------------------

/// (emulator instructions alone, emulator instructions with a display
/// stealing held cycles, display instructions) over a fixed window.
pub fn hold_overlap() -> (u64, u64, u64) {
    let walker = || {
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
        p.assemble().expect("asm")
    };
    let run = |with_display: bool| -> (u64, u64) {
        let suite = SuiteBuilder::new()
            .with_mesa()
            .with_display()
            .assemble()
            .expect("suite");
        let mut b = suite.machine().task_entry(TASK_EMU, "mesa:boot");
        if with_display {
            let mut disp = DisplayController::with_rate(TASK_DISPLAY, 400.0, 60.0);
            disp.start();
            b = b
                .device(Box::new(disp), IOA_DISPLAY, 2)
                .wire_ioaddress(TASK_DISPLAY, IOA_DISPLAY)
                .task_entry(TASK_DISPLAY, "disp:init");
        }
        let mut m = b.build().expect("machine");
        mesa::configure_ifu(&mut m);
        mesa::init_runtime(&mut m);
        mesa::load_program(&mut m, &walker());
        m.memory_mut()
            .set_base_reg(BaseRegId::new(BR_DISPLAY), 0x2000);
        let _ = m.run(30_000);
        let s = m.stats();
        (s.executed[0], s.executed[TASK_DISPLAY.index()])
    };
    let (alone, _) = run(false);
    let (shared, disp) = run(true);
    (alone, shared, disp)
}

/// Pulls `"key": <number>` out of a flat JSON object without a JSON
/// dependency (the `BENCH_*.json` results files are machine-written,
/// flat, and ours).  Used by the benches' `--check` gates.
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Builds a standard Mesa machine for simulator-throughput benchmarking.
pub fn mesa_machine_for_throughput() -> Dorado {
    build_mesa(&spinning_mesa()).expect("machine")
}

// --- E17: simulator throughput -----------------------------------------------

/// The §4 workstation scenario as a benchmark machine: the Mesa emulator
/// computing fib(15) in the foreground while the display refreshes over
/// fast I/O, the disk streams a 2048-word read, and the network receives a
/// packet — all sharing one processor by task priority.  Mirrors
/// `examples/workstation.rs`, so throughput numbers measured here describe
/// the example workload too.
pub fn workstation_machine() -> Dorado {
    let mut p = MesaAsm::new();
    p.lib(15);
    p.call("fib", 1);
    p.halt();
    p.label("fib");
    p.ll(0);
    p.lib(2);
    p.sub();
    p.sl(2);
    p.ll(0);
    p.jzb("base0");
    p.ll(0);
    p.lib(1);
    p.sub();
    p.jzb("base1");
    p.ll(0);
    p.lib(1);
    p.sub();
    p.call("fib", 1);
    p.ll(2);
    p.call("fib", 1);
    p.add();
    p.ret();
    p.label("base0");
    p.lib(0);
    p.ret();
    p.label("base1");
    p.lib(1);
    p.ret();
    let program = p.assemble().expect("fib program");

    let mut display = DisplayController::with_rate(TASK_DISPLAY, 256.0, 60.0);
    display.start();
    let mut disk = DiskController::new(TASK_DISK);
    for (i, w) in disk.platter_mut().iter_mut().take(2048).enumerate() {
        *w = i as Word;
    }
    disk.start_read(2048);
    let mut net = NetworkController::new(TASK_NET);
    net.inject_packet((1..=48).map(|x| x * 3).collect());

    let suite = SuiteBuilder::new()
        .with_mesa()
        .with_display()
        .with_disk()
        .with_network()
        .assemble()
        .expect("suite");
    let mut m = suite
        .machine()
        .task_entry(TASK_EMU, "mesa:boot")
        .device(Box::new(display), IOA_DISPLAY, 2)
        .wire_ioaddress(TASK_DISPLAY, IOA_DISPLAY)
        .task_entry(TASK_DISPLAY, "disp:init")
        .device(Box::new(disk), IOA_DISK, 2)
        .wire_ioaddress(TASK_DISK, IOA_DISK)
        .task_entry(TASK_DISK, "disk:init")
        .device(Box::new(net), IOA_NET, 3)
        .wire_ioaddress(TASK_NET, IOA_NET)
        .task_entry(TASK_NET, "net:init")
        .build()
        .expect("workstation machine");
    mesa::configure_ifu(&mut m);
    mesa::init_runtime(&mut m);
    mesa::load_program(&mut m, &program);
    m.memory_mut()
        .set_base_reg(BaseRegId::new(BR_DISPLAY), 0x2000);
    m.memory_mut().set_base_reg(BaseRegId::new(BR_DISK), 0x3000);
    m.memory_mut().set_base_reg(BaseRegId::new(BR_NET), 0x3800);
    for i in 0..0x1000u32 {
        m.memory_mut()
            .write_virt(VirtAddr::new(0x2000 + i), (i as Word).wrapping_mul(3));
    }
    m
}

/// The emulator task id (re-export for benches).
pub const EMULATOR: TaskId = TaskId::EMULATOR;
