//! Checkpoint/restore correctness: property-tested image round-trips for
//! the stateful sections, corruption rejection, and the headline
//! guarantee — a machine restored from a checkpoint taken at cycle *k* of
//! the §4 workstation workload finishes the run cycle-for-cycle
//! bit-identical to the machine that ran straight through (same trace
//! events, same statistics, same final image).

use dorado::asm::{ASel, AluOp, Assembler, BSel, Inst};
use dorado::base::check::{check, Rng};
use dorado::base::snap::{restore_image, save_image};
use dorado::base::{BaseRegId, TaskId, VirtAddr, Word};
use dorado::core::{ControlSection, DataSection, Dorado, DoradoBuilder};
use dorado::emu::layout::{
    BR_DISK, BR_DISPLAY, BR_NET, IOA_DISK, IOA_DISPLAY, IOA_NET, TASK_DISK, TASK_DISPLAY,
    TASK_EMU, TASK_NET,
};
use dorado::emu::mesa::{self, MesaAsm};
use dorado::emu::SuiteBuilder;
use dorado::io::{DiskController, DisplayController, NetworkController};

// --- property round-trips ----------------------------------------------

fn scramble_datapath(d: &mut DataSection, rng: &mut Rng) {
    for r in d.rm.iter_mut() {
        *r = rng.word();
    }
    for s in d.stack.iter_mut() {
        *s = rng.word();
    }
    for t in d.t.iter_mut() {
        *t = rng.word();
    }
    d.count = rng.word();
    d.q = rng.word();
    d.set_stackptr(rng.word() as u8);
    d.stack_error = rng.chance(1, 2);
    for i in 0..16 {
        let task = TaskId::new(i);
        d.set_rbase(task, rng.word() as u8);
        d.set_membase(task, rng.word() as u8);
        d.ioaddress[task.index()] = rng.word();
    }
}

/// Save → restore into a fresh section → re-save is byte-identical.
#[test]
fn datapath_snapshot_round_trips() {
    check("datapath_snapshot_round_trips", 64, |rng: &mut Rng| {
        let mut d = DataSection::new();
        scramble_datapath(&mut d, rng);
        let img = save_image(&d);
        let mut e = DataSection::new();
        restore_image(&mut e, &img).expect("own image restores");
        assert_eq!(save_image(&e), img);
    });
}

#[test]
fn control_snapshot_round_trips() {
    check("control_snapshot_round_trips", 64, |rng: &mut Rng| {
        let mut c = ControlSection::new();
        for pc in c.tpc.iter_mut() {
            *pc = dorado::base::MicroAddr::new(rng.word() & 0xfff);
        }
        for l in c.link.iter_mut() {
            *l = dorado::base::MicroAddr::new(rng.word() & 0xfff);
        }
        c.ready = dorado::base::task::TaskSet::from_bits(rng.word());
        c.this_task = TaskId::new((rng.word() & 0xf) as u8);
        let img = save_image(&c);
        let mut e = ControlSection::new();
        restore_image(&mut e, &img).expect("own image restores");
        assert_eq!(save_image(&e), img);
    });
}

/// Flipping any single bit of an image makes restore fail: the trailing
/// checksum (or the header validation) catches every corruption.
#[test]
fn corrupt_images_are_rejected() {
    check("corrupt_images_are_rejected", 128, |rng: &mut Rng| {
        let mut d = DataSection::new();
        scramble_datapath(&mut d, rng);
        let mut img = save_image(&d);
        let at = rng.below(img.len() as u64) as usize;
        img[at] ^= 1 << rng.below(8);
        let mut e = DataSection::new();
        assert!(
            restore_image(&mut e, &img).is_err(),
            "bit flip at byte {at} went unnoticed"
        );
    });
}

// --- machine-level resume ----------------------------------------------

/// A small deterministic machine with a network device: fetch, consume,
/// store, then spin serving the controller.
fn small_machine(packet: &[Word]) -> Dorado {
    let mut a = Assembler::new();
    a.emit(Inst::new().rm(1).a(ASel::FetchR));
    a.emit(Inst::new().b(BSel::MemData).alu(AluOp::B).load_t());
    a.emit(Inst::new().rm(2).a(ASel::T).alu(AluOp::INC_A).load_rm());
    a.label("spin");
    a.emit(Inst::new().goto_("spin"));
    let mut net = NetworkController::new(TaskId::new(12));
    net.inject_packet(packet.to_vec());
    let mut m = DoradoBuilder::new()
        .microcode(a.place().unwrap())
        .device(Box::new(net), 0x20, 3)
        .wire_ioaddress(TaskId::new(12), 0x20)
        .build()
        .unwrap();
    m.set_rm(1, 0x1000);
    m.memory_mut().write_virt(VirtAddr::new(0x1000), 0xfeed);
    m
}

/// Checkpoint after a random number of cycles, restore into a fresh
/// build, run both sides further: identical state at every probe.
#[test]
fn machine_snapshot_resume_is_deterministic() {
    check("machine_snapshot_resume_is_deterministic", 16, |rng: &mut Rng| {
        let packet: Vec<Word> = (0..rng.range(1, 40)).map(|_| rng.word()).collect();
        let k = rng.below(2_000);
        let mut a = small_machine(&packet);
        a.run_quantum(k);
        let ckpt = save_image(&a);
        let mut b = small_machine(&packet);
        restore_image(&mut b, &ckpt).expect("checkpoint restores");
        assert_eq!(save_image(&b), ckpt, "restore → save is the identity");
        a.run_quantum(500);
        b.run_quantum(500);
        assert_eq!(save_image(&a), save_image(&b), "k={k}");
    });
}

/// Restoring a snapshot onto a machine whose microcode has changed since
/// the image was taken must execute the *current* store, not any decode
/// product cached when the image was saved — the one-entry IOADDRESS
/// decode hint and the decoded `bconst` bytes both die on restore and on
/// control-store writes.
#[test]
fn snapshot_restore_over_rewritten_microcode_executes_the_new_store() {
    let mut a = Assembler::new();
    a.label("go");
    a.emit(Inst::new().const16(0x11).alu(AluOp::B).load_t());
    a.label("fin");
    a.emit(Inst::new().ff_halt().goto_("fin"));
    let mut m = DoradoBuilder::new()
        .microcode(a.place().unwrap())
        .build()
        .unwrap();
    let boot = save_image(&m);
    // First run populates every decode product for the old store.
    assert!(m.run(10).halted());
    assert_eq!(m.t(TaskId::EMULATOR), 0x11);
    // Rewrite the constant in place (§6.2.3 writeable microstore), then
    // rewind to boot.  Configuration — the patched store — stays with the
    // live machine; only dynamic state rewinds.
    let go = m.label("go").unwrap();
    let patched = m.read_microstore(go).with_ff(0x42);
    m.write_microstore(go, patched).unwrap();
    restore_image(&mut m, &boot).expect("boot image restores");
    assert!(m.run(10).halted());
    assert_eq!(
        m.t(TaskId::EMULATOR),
        0x42,
        "stale decode state survived restore over a rewritten control store"
    );
}

// --- the workstation checkpoint guarantee -------------------------------

/// The §4 workstation scenario, shrunk for test time: Mesa fib in the
/// foreground, the display refreshing, the disk streaming a read, the
/// network receiving a packet.
fn workstation() -> Dorado {
    let mut p = MesaAsm::new();
    p.lib(12);
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
    let program = p.assemble().unwrap();

    let mut display = DisplayController::with_rate(TASK_DISPLAY, 256.0, 60.0);
    display.start();
    let mut disk = DiskController::new(TASK_DISK);
    for (i, w) in disk.platter_mut().iter_mut().take(1024).enumerate() {
        *w = i as Word;
    }
    disk.start_read(1024);
    let mut net = NetworkController::new(TASK_NET);
    net.inject_packet((1..=48).map(|x| x * 3).collect());

    let suite = SuiteBuilder::new()
        .with_mesa()
        .with_display()
        .with_disk()
        .with_network()
        .assemble()
        .unwrap();
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
        .unwrap();
    mesa::configure_ifu(&mut m);
    mesa::init_runtime(&mut m);
    mesa::load_program(&mut m, &program);
    m.memory_mut().set_base_reg(BaseRegId::new(BR_DISPLAY), 0x2000);
    m.memory_mut().set_base_reg(BaseRegId::new(BR_DISK), 0x3000);
    m.memory_mut().set_base_reg(BaseRegId::new(BR_NET), 0x3800);
    for i in 0..0x400u32 {
        m.memory_mut()
            .write_virt(VirtAddr::new(0x2000 + i), (i as Word).wrapping_mul(3));
    }
    m
}

/// Checkpoint at cycle k, restore into a *freshly built* machine (the
/// decode table and microcode come from the build; the snapshot carries
/// only dynamic state), finish the run: trace events from k on, final
/// statistics, Mesa result, and the complete final image all equal the
/// straight run's.
#[test]
fn workstation_checkpoint_resume_matches_straight_run() {
    const K: u64 = 30_000;
    const BUDGET: u64 = 4_000_000;

    // The straight run, traced from cycle K so the tails are comparable.
    let mut straight = workstation();
    straight.run_quantum(K);
    straight.trace_enable(1 << 16);
    let out = straight.run(BUDGET);
    assert!(out.halted(), "straight run must finish: {out:?}");
    assert!(straight.cycles() > K, "checkpoint must precede the halt");

    // The checkpointed run: stop at K, save, restore elsewhere, continue.
    let mut first_half = workstation();
    first_half.run_quantum(K);
    let ckpt = save_image(&first_half);
    drop(first_half);

    let mut resumed = workstation();
    restore_image(&mut resumed, &ckpt).expect("checkpoint restores");
    resumed.trace_enable(1 << 16);
    let out = resumed.run(BUDGET);
    assert!(out.halted(), "resumed run must finish: {out:?}");

    assert_eq!(resumed.cycles(), straight.cycles());
    assert_eq!(resumed.stats(), straight.stats());
    assert_eq!(mesa::tos(&resumed), mesa::tos(&straight));
    assert_eq!(mesa::tos(&straight), 144, "fib(12)");
    assert_eq!(resumed.take_trace(), straight.take_trace());
    assert_eq!(save_image(&resumed), save_image(&straight));
}
