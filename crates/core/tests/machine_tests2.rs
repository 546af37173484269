//! Second battery of machine-level tests: software task control, ALUFM
//! remapping, dispatch-256, breakpoints, microstore rewriting, and
//! multi-device priority chains.

use dorado_asm::{ASel, AluFunction, AluOp, Assembler, BSel, FfOp, Inst};
use dorado_base::{MicroAddr, TaskId};
use dorado_core::{Console, Dorado, DoradoBuilder, RunOutcome};

const T0: TaskId = TaskId::EMULATOR;

fn nop() -> Inst {
    Inst::new()
}

fn build(f: impl FnOnce(&mut Assembler)) -> Dorado {
    let mut a = Assembler::new();
    f(&mut a);
    DoradoBuilder::new()
        .microcode(a.place().expect("place"))
        .build()
        .expect("build")
}

#[test]
fn software_task_bootstrap_via_writetpc_and_wake() {
    // The emulator points task 5's TPC at a worker routine and makes it
    // ready (§6.2.1 "explicitly readied" / §6.2.3 TPC write paths).
    let mut a = Assembler::new();
    // T ← 5<<12 | address-of-worker; write TPC; wake task 5; spin.
    a.emit(nop().rm(2).b(BSel::Rm).ff(FfOp::WriteTpc));
    a.emit(nop().ff(FfOp::WakeTask(TaskId::new(5))));
    a.label("spin");
    a.emit(nop().a(ASel::T).alu(AluOp::INC_A).load_t().goto_("spin"));
    a.label("worker");
    a.emit(nop().rm(7).const16(0x77).alu(AluOp::B).load_rm());
    a.emit(nop().ff_halt().goto_("worker"));
    let placed = a.place().unwrap();
    let worker = placed.address_of("worker").unwrap();
    let mut m = DoradoBuilder::new().microcode(placed).build().unwrap();
    m.set_rm(2, (5 << 12) | worker.raw());
    let out = m.run(1000);
    assert!(out.halted(), "{out:?}");
    assert_eq!(m.rm(7), 0x77, "the worker task ran");
    let s = m.stats();
    assert!(s.executed[5] >= 2, "task 5 executed: {}", s.executed[5]);
}

#[test]
fn readtpc_observes_another_task() {
    let mut a = Assembler::new();
    a.emit(nop().rm(2).b(BSel::Rm).ff(FfOp::WriteTpc));
    a.emit(nop().rm(3).b(BSel::Rm).ff(FfOp::ReadTpc).load_t());
    a.label("fin");
    a.emit(nop().ff_halt().goto_("fin"));
    let mut m = build(|b| *b = a.clone());
    m.set_rm(2, (9 << 12) | 0o1234);
    m.set_rm(3, 9 << 12);
    assert!(m.run(100).halted());
    assert_eq!(m.t(T0), 0o1234);
}

#[test]
fn alufm_remapping_changes_an_opcode() {
    // Microcode rewrites ALUFM entry 0 from Add to Xor (§6.3.3).
    let mut m = build(|a| {
        a.emit(
            nop()
                .const16(AluFunction::Xor.raw().into())
                .alu(AluOp::B)
                .load_t(),
        );
        a.emit(nop().b(BSel::T).ff(FfOp::LoadAluFm(0)));
        // Now "ADD" (index 0) computes XOR.
        a.emit(nop().rm(1).b(BSel::Rm).a(ASel::T).alu(AluOp::ADD).load_t());
        a.label("fin");
        a.emit(nop().ff_halt().goto_("fin"));
    });
    m.set_rm(1, 0x0ff0);
    let out = m.run(100);
    assert!(out.halted());
    // T was Xor.raw()=4 before the "ADD": 4 XOR 0x0ff0 = 0x0ff4.
    assert_eq!(m.t(T0), 4 ^ 0x0ff0);
}

#[test]
fn dispatch256_covers_a_byte() {
    let mut a = Assembler::new();
    a.emit(nop().b(BSel::T).dispatch256("tbl"));
    a.align256();
    a.label("tbl");
    for _ in 0..256 {
        // Every entry: RM[9] ← COUNT (marker), halt.  Distinguish targets
        // by their own address via ReadTpc? Simpler: entries write their
        // index via COUNT preloaded... use a shared body: record entry by
        // storing T (the dispatch selector) and halting.
        a.emit(nop().rm(9).b(BSel::T).alu(AluOp::B).load_rm().goto_("h"));
    }
    a.label("h");
    a.emit(nop().ff_halt().goto_("h"));
    let placed = a.place().unwrap();
    for selector in [0u16, 1, 77, 255] {
        let mut m = DoradoBuilder::new()
            .microcode(placed.clone())
            .build()
            .unwrap();
        m.set_t(T0, selector);
        assert!(m.run(100).halted());
        assert_eq!(m.rm(9), selector, "selector {selector}");
    }
}

#[test]
fn breakpoints_stop_before_execution() {
    let mut a = Assembler::new();
    a.emit(nop().a(ASel::T).alu(AluOp::INC_A).load_t()); // 0
    a.emit(nop().a(ASel::T).alu(AluOp::INC_A).load_t()); // 1
    a.label("bp");
    a.emit(nop().a(ASel::T).alu(AluOp::INC_A).load_t()); // 2
    a.label("fin");
    a.emit(nop().ff_halt().goto_("fin"));
    let placed = a.place().unwrap();
    let bp = placed.address_of("bp").unwrap();
    let mut m = DoradoBuilder::new().microcode(placed).build().unwrap();
    m.add_breakpoint(bp);
    let out = m.run(100);
    assert_eq!(
        out,
        RunOutcome::Breakpoint { at: bp, task: T0 },
        "stopped at the breakpoint"
    );
    assert_eq!(m.t(T0), 2, "instructions before the breakpoint ran");
    // Continue to completion.
    assert!(m.remove_breakpoint(bp));
    assert!(!m.remove_breakpoint(bp));
    let out = m.run(100);
    assert!(out.halted());
    assert_eq!(m.t(T0), 3);
}

#[test]
fn resuming_runs_over_a_breakpoint_that_is_still_set() {
    // A breakpoint planted mid-chain stops the run *before* the flagged
    // microinstruction, with every earlier step's effects committed.
    // Resuming with the breakpoint still set executes the flagged word on
    // the run's first cycle (the probe skips it) and completes; a fresh
    // machine without the breakpoint takes exactly as many cycles.
    let mut a = Assembler::new();
    for _ in 0..4 {
        a.emit(nop().a(ASel::T).alu(AluOp::INC_A).load_t());
    }
    a.label("bp");
    for _ in 0..4 {
        a.emit(nop().a(ASel::T).alu(AluOp::INC_A).load_t());
    }
    a.label("fin");
    a.emit(nop().ff_halt().goto_("fin"));
    let placed = a.place().unwrap();
    let bp = placed.address_of("bp").unwrap();
    let mut m = DoradoBuilder::new()
        .microcode(placed.clone())
        .build()
        .unwrap();
    m.add_breakpoint(bp);

    let out = m.run(100);
    assert_eq!(out, RunOutcome::Breakpoint { at: bp, task: T0 });
    assert_eq!(m.t(T0), 4, "the four pre-breakpoint increments ran");
    assert_eq!(m.cycles(), 4, "stopped on the breakpoint's cycle");
    assert_eq!(m.control().this_pc, bp, "the flagged word is next");

    assert!(m.run(100).halted(), "resumed over the set breakpoint");
    assert_eq!(m.t(T0), 8);
    let mut plain = DoradoBuilder::new().microcode(placed).build().unwrap();
    assert!(plain.run(100).halted());
    assert_eq!(m.cycles(), plain.cycles());
    assert_eq!(m.stats(), plain.stats());
}

#[test]
fn console_snapshot_of_live_machine() {
    let mut m = build(|a| {
        a.emit(nop().const16(0xab).alu(AluOp::B).load_t());
        a.label("fin");
        a.emit(nop().ff_halt().goto_("fin"));
    });
    let _ = m.run(100);
    let c = Console::new(&m);
    let snap = c.snapshot();
    assert!(snap.contains("00ab"), "T visible in the snapshot: {snap}");
    let acc = c.accounting();
    assert!(acc.contains("0"), "{acc}");
}

#[test]
fn microstore_rewrite_changes_behavior() {
    // Rewrite a constant inside a placed instruction and re-run — the
    // writeable microstore of §6.2.3.
    let mut a = Assembler::new();
    a.label("go");
    a.emit(nop().const16(0x11).alu(AluOp::B).load_t());
    a.label("fin");
    a.emit(nop().ff_halt().goto_("fin"));
    let placed = a.place().unwrap();
    let go = placed.address_of("go").unwrap();
    let mut m = DoradoBuilder::new().microcode(placed).build().unwrap();
    assert!(m.run(10).halted());
    assert_eq!(m.t(T0), 0x11);
    // Patch the FF byte (the constant) to 0x42.
    let word = m.read_microstore(go).with_ff(0x42);
    m.write_microstore(go, word).unwrap();
    m.control_mut().this_pc = go;
    m.control_mut().tpc[0] = go;
    m.resume();
    assert!(m.run(10).halted());
    assert_eq!(m.t(T0), 0x42);
}

#[test]
fn microstore_rewrite_rejects_garbage() {
    let mut m = build(|a| {
        a.label("fin");
        a.emit(nop().ff_halt().goto_("fin"));
    });
    // FF = reserved function encoding with a non-constant BSelect.
    let bad = dorado_asm::Microword::default().with_ff(0xff);
    assert!(m.write_microstore(MicroAddr::new(9), bad).is_err());
}

#[test]
fn priority_chain_three_devices() {
    // Three synthetic devices at tasks 9 < 12 < 15; all want service
    // constantly.  Priority order must hold exactly: task 15 gets all it
    // asks for, 12 the remainder, 9 the scraps, emulator the rest.
    use dorado_io::{synth::SynthPath, RateDevice};
    let mut a = Assembler::new();
    a.label("emu");
    a.emit(nop().a(ASel::T).alu(AluOp::INC_A).load_t().goto_("emu"));
    for t in [9u8, 12, 15] {
        a.label(format!("io{t}"));
        a.emit(nop().ff(FfOp::IoInput).load_rm().rm((t & 0xf) % 16));
        a.emit(nop());
        a.emit(nop().io_block().goto_(format!("io{t}")));
    }
    let placed = a.place().unwrap();
    let mut b = DoradoBuilder::new().microcode(placed).task_entry(T0, "emu");
    for (t, mbps, base) in [(9u8, 60.0, 0x10u16), (12, 60.0, 0x20), (15, 60.0, 0x30)] {
        let task = TaskId::new(t);
        let mut dev = RateDevice::new(task, mbps, 60.0, SynthPath::Slow);
        dev.set_words_per_service(1);
        dev.start();
        b = b
            .device(Box::new(dev), base, 2)
            .wire_ioaddress(task, base)
            .task_entry(task, format!("io{t}"));
    }
    let mut m = b.build().unwrap();
    let _ = m.run(50_000);
    let s = m.stats();
    let sh = |t: u8| s.processor_share(TaskId::new(t));
    // Each device offers 0.225 words/cycle and its service costs 3
    // instructions per word; under contention the fixed priority must
    // order the shares strictly, with the lowest device squeezed hardest.
    assert!(
        sh(15) >= sh(12) && sh(12) >= sh(9),
        "priority order: {:.3} {:.3} {:.3}",
        sh(15),
        sh(12),
        sh(9)
    );
    assert!(sh(15) > 0.3, "task 15 gets the most: {:.3}", sh(15));
    assert!(
        sh(15) - sh(9) > 0.05,
        "the spread is visible: {:.3} vs {:.3}",
        sh(15),
        sh(9)
    );
    assert_eq!(
        s.executed.iter().sum::<u64>() + s.held_cycles(),
        s.cycles,
        "every cycle is accounted for"
    );
}

#[test]
fn shifter_memdata_mask_through_machine() {
    // ShOutM merges shifter output with MEMDATA — field insertion at the
    // machine level (§6.3.4).
    use dorado_asm::ShiftCtl;
    let ctl = ShiftCtl::field_insert(4, 8).raw();
    let mut m = build(|a| {
        a.load_t_const(ctl);
        a.emit(nop().b(BSel::T).ff(FfOp::LoadShiftCtl));
        a.emit(nop().rm(1).a(ASel::FetchR)); // fetch the old word
        a.emit(nop().rm(2).alu(AluOp::A).load_t()); // T ← value (also in RM[2])
        a.emit(nop().rm(2).ff(FfOp::ShOutM).load_t()); // merge
        a.label("fin");
        a.emit(nop().ff_halt().goto_("fin"));
    });
    m.set_rm(1, 0x500);
    m.set_rm(2, 0x00ab); // value to insert at bits 4..12
    m.memory_mut()
        .write_virt(dorado_base::VirtAddr::new(0x500), 0xf00f);
    assert!(m.run(1000).halted());
    assert_eq!(m.t(T0), (0xf00f & !0x0ff0) | (0x00ab << 4));
}

#[test]
fn count_register_wraps_and_tests() {
    let mut m = build(|a| {
        a.emit(nop().ff(FfOp::LoadCountImm(0)));
        a.emit(nop().ff(FfOp::DecCount)); // 0 -> 0xffff
        a.emit(nop().ff(FfOp::ReadCount).load_t());
        a.label("fin");
        a.emit(nop().ff_halt().goto_("fin"));
    });
    assert!(m.run(100).halted());
    assert_eq!(m.t(T0), 0xffff);
}

#[test]
fn q_register_shifts_during_divide() {
    // DivStep shifts quotient bits into Q even standalone.
    let mut m = build(|a| {
        a.emit(
            nop()
                .rm(1)
                .a(ASel::T)
                .b(BSel::Rm)
                .ff(FfOp::DivStep)
                .load_t(),
        );
        a.label("fin");
        a.emit(nop().ff_halt().goto_("fin"));
    });
    m.set_t(T0, 0x0005);
    m.set_q(0x8000);
    m.set_rm(1, 0x0003);
    assert!(m.run(100).halted());
    // r2 = (5<<1)|1 = 11 >= 3: result 8, qbit 1.
    assert_eq!(m.t(T0), 8);
    assert_eq!(m.q(), 1);
}

#[test]
fn link_register_load_from_b() {
    // LoadLink then Return transfers control to a computed address
    // ("control can be sent to an arbitrary computed address", §6.2.3).
    let mut a = Assembler::new();
    a.emit(nop().rm(1).b(BSel::Rm).ff(FfOp::LoadLink));
    a.emit(nop().ret());
    a.emit(nop().goto_("bad")); // skipped by the computed return
    a.label("bad");
    a.emit(nop().goto_("bad"));
    a.label("target");
    a.emit(nop().const16(0x99).alu(AluOp::B).load_t());
    a.label("fin");
    a.emit(nop().ff_halt().goto_("fin"));
    let placed = a.place().unwrap();
    let target = placed.address_of("target").unwrap();
    let mut m = DoradoBuilder::new().microcode(placed).build().unwrap();
    m.set_rm(1, target.raw());
    assert!(m.run(100).halted());
    assert_eq!(m.t(T0), 0x99);
}
