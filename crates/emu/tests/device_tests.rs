//! End-to-end device-service tests: the disk, display, network, and
//! synthetic loops running against a live emulator — the processor-sharing
//! story of §4 and the utilization numbers of §7.

use dorado_base::{TaskId, VirtAddr, Word};
use dorado_core::{Dorado, TaskingMode};
use dorado_emu::layout::*;
use dorado_emu::mesa::MesaAsm;
use dorado_emu::{mesa, SuiteBuilder};
use dorado_io::synth::SynthPath;
use dorado_io::{DiskController, DisplayController, NetworkController, RateDevice};

/// A busy emulator program that never halts (pure register spin).
fn spinning_mesa() -> Vec<u8> {
    let mut p = MesaAsm::new();
    p.lib(1);
    p.label("top");
    for _ in 0..100 {
        p.inc();
    }
    p.jb("top");
    p.assemble().unwrap()
}

fn mesa_with_devices(
    modules: fn(SuiteBuilder) -> SuiteBuilder,
    wire: impl FnOnce(dorado_core::DoradoBuilder) -> dorado_core::DoradoBuilder,
) -> Dorado {
    let suite = modules(SuiteBuilder::new().with_mesa()).assemble().unwrap();
    let mut m = wire(suite.machine().task_entry(TASK_EMU, "mesa:boot"))
        .build()
        .unwrap();
    mesa::configure_ifu(&mut m);
    mesa::init_runtime(&mut m);
    mesa::load_program(&mut m, &spinning_mesa());
    m
}

#[test]
fn disk_read_lands_in_memory_and_costs_about_five_percent() {
    // §7: "the microcode for the disk takes three cycles to transfer two
    // words each way; thus the 10 megabit/sec disk consumes 5% of the
    // processor."
    let mut disk = DiskController::new(TASK_DISK);
    for (i, w) in disk.platter_mut().iter_mut().take(512).enumerate() {
        *w = 0x4000 + i as Word;
    }
    disk.start_read(512);
    let mut m = mesa_with_devices(
        |s| s.with_disk(),
        |b| {
            b.device(Box::new(disk), IOA_DISK, 2)
                .wire_ioaddress(TASK_DISK, IOA_DISK)
                .task_entry(TASK_DISK, "disk:init")
        },
    );
    // Buffer base register: disk writes to data space via BR_DISK.
    m.memory_mut()
        .set_base_reg(dorado_base::BaseRegId::new(BR_DISK), 0x3000);
    // Measure the share over a window in which the transfer is active the
    // whole time (512 words at 10 Mbit/s need ~13.7k cycles of media time).
    let _ = m.run(13_000);
    let s = m.stats();
    let share = s.processor_share(TASK_DISK);
    // Let the transfer finish, then verify every word.
    let _ = m.run(60_000);
    for i in 0..512u32 {
        assert_eq!(
            m.memory().read_virt(VirtAddr::new(0x3000 + i)),
            0x4000 + i as Word,
            "word {i}"
        );
    }
    assert!(
        (0.03..=0.08).contains(&share),
        "disk share {:.1}% (paper: 5%)",
        share * 100.0
    );
    // No overruns: the microcode kept up.
    let d = m.device_mut::<DiskController>("disk").unwrap();
    assert_eq!(d.overruns, 0);
}

#[test]
fn disk_write_streams_memory_to_platter() {
    let mut disk = DiskController::new(TASK_DISK);
    disk.seek(64);
    disk.start_write(128);
    let mut m = mesa_with_devices(
        |s| s.with_disk(),
        |b| {
            b.device(Box::new(disk), IOA_DISK, 2)
                .wire_ioaddress(TASK_DISK, IOA_DISK)
                .task_entry(TASK_DISK, "diskw:init")
        },
    );
    m.memory_mut()
        .set_base_reg(dorado_base::BaseRegId::new(BR_DISK), 0x3400);
    for i in 0..140u32 {
        m.memory_mut()
            .write_virt(VirtAddr::new(0x3400 + i), 0x7000 + i as Word);
    }
    let _ = m.run(30_000);
    let d = m.device_mut::<DiskController>("disk").unwrap();
    // At most a startup blip while the task primes the FIFO (a real
    // controller covers this with the sector preamble).
    assert!(
        d.underruns <= 2,
        "microcode kept the FIFO fed: {}",
        d.underruns
    );
    for i in 0..128usize {
        assert_eq!(d.platter()[64 + i], 0x7000 + i as Word, "word {i}");
    }
}

#[test]
fn display_fastio_consumes_quarter_of_processor_at_full_storage_rate() {
    // §7/§6.2.1: fast I/O "can consume the available memory bandwidth for
    // I/O (530 megabits/sec) using only one quarter of the available
    // microcycles (that is, two I/O instructions every eight cycles)."
    // A display fast enough to always want the next munch saturates
    // storage; the display task must then hold ~25% of the processor.
    let mut disp = DisplayController::with_rate(TASK_DISPLAY, 530.0, 60.0);
    disp.start();
    let mut m = mesa_with_devices(
        |s| s.with_display(),
        |b| {
            b.device(Box::new(disp), IOA_DISPLAY, 2)
                .wire_ioaddress(TASK_DISPLAY, IOA_DISPLAY)
                .task_entry(TASK_DISPLAY, "disp:init")
        },
    );
    m.memory_mut()
        .set_base_reg(dorado_base::BaseRegId::new(BR_DISPLAY), 0x2000);
    for i in 0..0x1000u32 {
        m.memory_mut()
            .write_virt(VirtAddr::new(0x2000 + i), i as Word);
    }
    let _ = m.run(50_000);
    let s = m.stats();
    let share = s.processor_share(TASK_DISPLAY);
    assert!(
        (0.20..=0.30).contains(&share),
        "fast-I/O share {:.1}% (paper: 25%)",
        share * 100.0
    );
    // The display painted the bitmap in order.
    let d = m.device_mut::<DisplayController>("display").unwrap();
    assert!(d.painted > 10_000, "painted {}", d.painted);
    let screen = d.screen();
    for (i, &w) in screen.iter().take(256).enumerate() {
        assert_eq!(w, i as Word, "pixel word {i}");
    }
    // And the emulator got essentially all the remaining cycles (partly
    // as IFU-limited held cycles — still its own, §5.7).
    let emu_cycles = s.executed[0] + s.held[0];
    assert!(
        emu_cycles as f64 / s.cycles as f64 > 0.6,
        "emulator owns the rest: {}/{}",
        emu_cycles,
        s.cycles
    );
}

#[test]
fn grain3_mode_needs_three_eighths_of_the_processor() {
    // §6.2.1 ablation: "the grain would be three cycles rather than two,
    // and 37.5% of the processor would be needed to provide the full
    // memory bandwidth."
    let mut disp = DisplayController::with_rate(TASK_DISPLAY, 530.0, 60.0);
    disp.start();
    let mut m = {
        let suite = SuiteBuilder::new()
            .with_mesa()
            .with_display_grain3()
            .assemble()
            .unwrap();
        let mut m = suite
            .machine()
            .task_entry(TASK_EMU, "mesa:boot")
            .tasking(TaskingMode::NotifyGrain3)
            .device(Box::new(disp), IOA_DISPLAY, 2)
            .wire_ioaddress(TASK_DISPLAY, IOA_DISPLAY)
            .task_entry(TASK_DISPLAY, "disp3:init")
            .build()
            .unwrap();
        mesa::configure_ifu(&mut m);
        mesa::init_runtime(&mut m);
        mesa::load_program(&mut m, &spinning_mesa());
        m
    };
    m.memory_mut()
        .set_base_reg(dorado_base::BaseRegId::new(BR_DISPLAY), 0x2000);
    let _ = m.run(50_000);
    let share = m.stats().processor_share(TASK_DISPLAY);
    assert!(
        (0.32..=0.43).contains(&share),
        "grain-3 share {:.1}% (paper: 37.5%)",
        share * 100.0
    );
}

#[test]
fn network_packets_arrive_in_memory() {
    let mut net = NetworkController::new(TASK_NET);
    net.inject_packet(vec![0xaaa, 0xbbb, 0xccc, 0xddd]);
    let mut m = mesa_with_devices(
        |s| s.with_network(),
        |b| {
            b.device(Box::new(net), IOA_NET, 3)
                .wire_ioaddress(TASK_NET, IOA_NET)
                .task_entry(TASK_NET, "net:init")
        },
    );
    m.memory_mut()
        .set_base_reg(dorado_base::BaseRegId::new(BR_NET), 0x3800);
    let _ = m.run(100_000);
    for (i, w) in [0xaaau16, 0xbbb, 0xccc, 0xddd].iter().enumerate() {
        assert_eq!(
            m.memory().read_virt(VirtAddr::new(0x3800 + i as u32)),
            *w,
            "word {i}"
        );
    }
}

#[test]
fn slow_io_share_scales_with_device_rate() {
    // E3/E7 shape: processor share of a slow-I/O device grows linearly
    // with its data rate (~1.5 cycles per word + scheduling).
    let share_at = |mbps: f64| -> f64 {
        let mut dev = RateDevice::new(TASK_SYNTH, mbps, 60.0, SynthPath::Slow);
        dev.start();
        let mut m = mesa_with_devices(
            |s| s.with_synth_sinks(),
            |b| {
                b.device(Box::new(dev), IOA_SYNTH, 2)
                    .wire_ioaddress(TASK_SYNTH, IOA_SYNTH)
                    .task_entry(TASK_SYNTH, "synths:init")
            },
        );
        let _ = m.run(40_000);
        m.stats().processor_share(TASK_SYNTH)
    };
    let s10 = share_at(10.0);
    let s40 = share_at(40.0);
    let s80 = share_at(80.0);
    assert!(s10 < s40 && s40 < s80, "{s10} {s40} {s80}");
    let ratio = s40 / s10;
    assert!(
        (2.5..=5.5).contains(&ratio),
        "4x rate ≈ 4x share, got {ratio:.2}"
    );
}

#[test]
fn many_devices_share_the_processor_by_priority() {
    // Disk + display + network all live, emulator underneath: everyone
    // makes progress, priority order holds under contention.
    let mut disk = DiskController::new(TASK_DISK);
    disk.start_read(256);
    let mut disp = DisplayController::with_rate(TASK_DISPLAY, 300.0, 60.0);
    disp.start();
    let mut net = NetworkController::new(TASK_NET);
    net.inject_packet((0..32).collect());
    let mut m = mesa_with_devices(
        |s| s.with_disk().with_display().with_network(),
        |b| {
            b.device(Box::new(disk), IOA_DISK, 2)
                .wire_ioaddress(TASK_DISK, IOA_DISK)
                .task_entry(TASK_DISK, "disk:init")
                .device(Box::new(disp), IOA_DISPLAY, 2)
                .wire_ioaddress(TASK_DISPLAY, IOA_DISPLAY)
                .task_entry(TASK_DISPLAY, "disp:init")
                .device(Box::new(net), IOA_NET, 3)
                .wire_ioaddress(TASK_NET, IOA_NET)
                .task_entry(TASK_NET, "net:init")
        },
    );
    m.memory_mut()
        .set_base_reg(dorado_base::BaseRegId::new(BR_DISK), 0x3000);
    m.memory_mut()
        .set_base_reg(dorado_base::BaseRegId::new(BR_DISPLAY), 0x2000);
    m.memory_mut()
        .set_base_reg(dorado_base::BaseRegId::new(BR_NET), 0x3800);
    let _ = m.run(100_000);
    let s = m.stats();
    assert!(s.executed[TASK_DISK.index()] > 100);
    assert!(s.executed[TASK_DISPLAY.index()] > 1000);
    assert!(s.executed[TASK_NET.index()] > 10);
    assert!(
        s.processor_share(TaskId::EMULATOR) > 0.4,
        "emulator still runs: {:.2}",
        s.processor_share(TaskId::EMULATOR)
    );
    assert_eq!(s.executed.iter().sum::<u64>() + s.held_cycles(), s.cycles);
}

#[test]
fn figure8_display_started_by_slow_io_control_path() {
    // Figure 8: the display controller uses BOTH I/O systems — control
    // functions over the slow bus, pixel data over fast I/O.  Here the
    // *emulator microcode* switches the refresh on by writing the
    // controller's control register, and the fast-I/O task then streams
    // the bitmap.
    use dorado_asm::{AluOp, Assembler, BSel, FfOp, Inst};
    let mut a = Assembler::new();
    a.label("emu:start");
    // Point task 0's IOADDRESS at the display, then Output 1 to its
    // control register (start refresh).
    a.emit(Inst::new().const16(IOA_DISPLAY).alu(AluOp::B).load_t());
    a.emit(Inst::new().b(BSel::T).ff(FfOp::LoadIoAddress));
    a.emit(Inst::new().const16(1).alu(AluOp::B).load_t());
    a.emit(Inst::new().b(BSel::T).ff(FfOp::IoOutput));
    a.label("emu:spin");
    a.emit(Inst::new().goto_("emu:spin"));
    dorado_emu::devices::emit_display_fastio(&mut a);
    let placed = a.place().unwrap();

    let disp = DisplayController::with_rate(TASK_DISPLAY, 200.0, 60.0);
    assert!(!disp.active(), "display off until the microcode starts it");
    let mut m = dorado_core::DoradoBuilder::new()
        .microcode(placed)
        .task_entry(TaskId::EMULATOR, "emu:start")
        .device(Box::new(disp), IOA_DISPLAY, 2)
        .wire_ioaddress(TASK_DISPLAY, IOA_DISPLAY)
        .task_entry(TASK_DISPLAY, "disp:init")
        .build()
        .unwrap();
    m.memory_mut()
        .set_base_reg(dorado_base::BaseRegId::new(BR_DISPLAY), 0x2000);
    for i in 0..0x400u32 {
        m.memory_mut()
            .write_virt(VirtAddr::new(0x2000 + i), 0x1000 + i as Word);
    }
    let _ = m.run(20_000);
    let d = m.device_mut::<DisplayController>("display").unwrap();
    assert!(d.active(), "microcode switched refresh on over slow I/O");
    assert!(
        d.painted > 1000,
        "fast I/O then streamed pixels: {}",
        d.painted
    );
    assert_eq!(d.screen()[0], 0x1000, "bitmap contents reached the screen");
}
