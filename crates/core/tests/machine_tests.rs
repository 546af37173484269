//! Machine-level tests: microcode programs executed end to end on the
//! full processor + memory + IFU + I/O model.

use dorado_asm::{ASel, AluOp, Assembler, BSel, Cond, FfOp, Inst};
use dorado_base::{MicroAddr, TaskId, VirtAddr, Word};
use dorado_core::{Dorado, DoradoBuilder, RunOutcome, TaskingMode};
use dorado_io::{synth::SynthPath, RateDevice};

const T0: TaskId = TaskId::EMULATOR;

fn build(f: impl FnOnce(&mut Assembler)) -> Dorado {
    let mut a = Assembler::new();
    f(&mut a);
    let placed = a.place().expect("placement");
    DoradoBuilder::new()
        .microcode(placed)
        .build()
        .expect("build")
}

fn nop() -> Inst {
    Inst::new()
}

#[test]
fn halt_stops_the_machine() {
    let mut m = build(|a| {
        a.label("go");
        a.emit(nop().ff_halt().goto_("go"));
    });
    let out = m.run(100);
    assert_eq!(out, RunOutcome::Halted { cycles: 1 });
    assert!(m.halted());
    // Resume and run again.
    m.resume();
    assert!(m.run(100).halted());
}

#[test]
fn counted_loop_has_exact_cycle_count() {
    // COUNT ← 10; loop: T ← T + 1, DecCount, branch CntZero ? exit : top.
    let mut m = build(|a| {
        a.emit(nop().ff(FfOp::LoadCountImm(10)).goto_("top"));
        a.pair_align();
        a.label("top");
        a.emit(nop().a(ASel::T).alu(AluOp::INC_A).load_t().goto_("body"));
        a.label("exit");
        a.emit(nop().ff_halt().goto_("exit"));
        a.label("body");
        a.emit(
            nop()
                .ff(FfOp::DecCount)
                .branch(Cond::CntZero, "exit", "top"),
        );
    });
    let out = m.run(1000);
    // 1 init + 10 × (inc, dec/branch) + 1 halt = 22 cycles.
    assert_eq!(out, RunOutcome::Halted { cycles: 22 });
    assert_eq!(m.t(T0), 10);
    assert_eq!(m.count(), 0);
}

#[test]
fn subroutine_call_and_return() {
    let mut m = build(|a| {
        a.emit(nop().call("sub"));
        a.emit(nop().ff_halt().goto_("end")); // return lands here
        a.label("end");
        a.emit(nop().goto_("end"));
        a.label("sub");
        a.emit(nop().const16(0x0042).alu(AluOp::B).load_t().ret());
    });
    let out = m.run(100);
    assert_eq!(out, RunOutcome::Halted { cycles: 3 });
    assert_eq!(m.t(T0), 0x42);
}

#[test]
fn link_exchange_supports_coroutines() {
    // Return writes THISPC+1 back into LINK (§6.2.3): two returns
    // ping-pong between coroutines.
    let mut m = build(|a| {
        // Seed LINK = address of "co" via Call, then bounce.
        a.emit(nop().call("co"));
        a.label("back1");
        // LINK now holds co's second instruction address.
        a.emit(nop().a(ASel::T).alu(AluOp::INC_A).load_t().ret()); // -> co2
        a.label("back2");
        a.emit(nop().ff_halt().goto_("back2"));
        a.label("co");
        a.emit(nop().ret()); // -> back1, LINK <- co+1
        a.label("co2");
        a.emit(nop().a(ASel::T).alu(AluOp::INC_A).load_t().ret()); // -> back1+1 = back2
    });
    let out = m.run(100);
    assert!(out.halted(), "{out:?}");
    assert_eq!(m.t(T0), 2);
}

#[test]
fn memory_fetch_roundtrip_with_hold() {
    let mut m = build(|a| {
        // RM[1] holds the address; fetch, then T ← MEMDATA, halt.
        a.emit(nop().rm(1).a(ASel::FetchR).goto_("use"));
        a.label("use");
        a.emit(nop().b(BSel::MemData).alu(AluOp::B).load_t().goto_("fin"));
        a.label("fin");
        a.emit(nop().ff_halt().goto_("fin"));
    });
    m.set_rm(1, 0x0200);
    m.memory_mut().write_virt(VirtAddr::new(0x0200), 0xbead);
    let out = m.run(1000);
    assert!(out.halted());
    assert_eq!(m.t(T0), 0xbead);
    // Cold cache: the consumer was held for ~miss_penalty cycles.
    let s = m.stats();
    assert!(s.held[0] >= 20, "held {} cycles", s.held[0]);
    assert_eq!(s.cache_hits, 0);
}

#[test]
fn memory_store_and_increment_in_one_instruction() {
    // Store[RM[2]] ← T while RM[2] ← RM[2]+1: the store-and-bump idiom.
    let mut m = build(|a| {
        a.emit(nop().ff(FfOp::LoadCountImm(4)).goto_("top"));
        a.pair_align();
        a.label("top");
        a.emit(
            nop()
                .rm(2)
                .a(ASel::StoreR)
                .b(BSel::T)
                .alu(AluOp::INC_A)
                .load_rm()
                .goto_("body"),
        );
        a.label("exit");
        a.emit(nop().ff_halt().goto_("exit"));
        a.label("body");
        a.emit(
            nop()
                .a(ASel::T)
                .alu(AluOp::INC_A)
                .load_t()
                .ff(FfOp::DecCount)
                .branch(Cond::CntZero, "exit", "top"),
        );
    });
    m.set_rm(2, 0x300);
    m.set_t(T0, 7);
    let out = m.run(4000);
    assert!(out.halted(), "{out:?}");
    assert_eq!(m.rm(2), 0x304);
    for i in 0..4u32 {
        assert_eq!(
            m.memory().read_virt(VirtAddr::new(0x300 + i)),
            7 + i as Word,
            "word {i}"
        );
    }
}

#[test]
fn stack_push_pop_microcode() {
    let mut m = build(|a| {
        // Push two constants, pop them in reverse order into RM.
        a.emit(nop().stack(1).const16(0x11).alu(AluOp::B).load_rm()); // push 0x11
        a.emit(nop().stack(1).const16(0x22).alu(AluOp::B).load_rm()); // push 0x22
                                                                      // Pop: read TOS onto A, decrement pointer.
        a.emit(nop().stack(-1).alu(AluOp::A).load_t()); // T ← 0x22
        a.emit(nop().rm(5).a(ASel::T).alu(AluOp::A).load_rm()); // RM[5] ← T
        a.emit(nop().stack(-1).alu(AluOp::A).load_t()); // T ← 0x11
        a.emit(nop().rm(6).a(ASel::T).alu(AluOp::A).load_rm());
        a.label("fin");
        a.emit(nop().ff_halt().goto_("fin"));
    });
    let out = m.run(100);
    assert!(out.halted());
    assert_eq!(m.rm(5), 0x22);
    assert_eq!(m.rm(6), 0x11);
    assert!(!m.datapath().stack_error);
    assert_eq!(m.datapath().stackptr(), 0);
}

#[test]
fn stack_underflow_sets_error_condition() {
    let mut a = Assembler::new();
    a.emit(nop().stack(-1).alu(AluOp::A)); // pop the empty stack
    a.emit(nop().branch(Cond::StackError, "bad", "ok"));
    a.label("ok");
    a.emit(nop().ff_halt().goto_("ok")); // halts with T = 0
    a.label("bad");
    a.emit(nop().const16(1).alu(AluOp::B).load_t().goto_("bad2"));
    a.label("bad2");
    a.emit(nop().ff_halt().goto_("bad2"));
    let placed = a.place().unwrap();
    let mut m = DoradoBuilder::new().microcode(placed).build().unwrap();
    assert!(m.run(100).halted());
    assert_eq!(m.t(T0), 1, "stack error branch must be taken");
}

#[test]
fn multiply_with_mulstep_loop() {
    // 16 MulSteps: T (accumulator) and Q end up holding a × b.
    let mut m = build(|a| {
        a.emit(
            nop()
                .rm(0)
                .alu(AluOp::B)
                .b(BSel::T)
                .ff(FfOp::LoadQ)
                .note("Q ← multiplier"),
        );
        a.emit(nop().alu(AluOp::ZERO).load_t().ff(FfOp::LoadCountImm(16)));
        a.pair_align();
        a.label("mul");
        a.emit(
            nop()
                .rm(1)
                .a(ASel::T)
                .b(BSel::Rm)
                .ff(FfOp::MulStep)
                .load_t()
                .goto_("step"),
        );
        a.label("done");
        a.emit(nop().ff_halt().goto_("done"));
        a.label("step");
        a.emit(
            nop()
                .ff(FfOp::DecCount)
                .branch(Cond::CntZero, "done", "mul"),
        );
    });
    let x: Word = 0xbeef;
    let y: Word = 0x1234;
    m.set_t(T0, x); // multiplier (loaded into Q by inst 0)
    m.set_rm(1, y); // multiplicand
    let out = m.run(1000);
    assert!(out.halted(), "{out:?}");
    let product = (u32::from(m.t(T0)) << 16) | u32::from(m.q());
    assert_eq!(product, u32::from(x) * u32::from(y));
}

#[test]
fn divide_with_divstep_loop() {
    // 32-bit dividend in (T:Q), divisor in RM[1]: 16 DivSteps leave the
    // quotient in Q and the remainder in T.
    let mut m = build(|a| {
        a.emit(nop().ff(FfOp::LoadCountImm(16)).goto_("div"));
        a.pair_align();
        a.label("div");
        a.emit(
            nop()
                .rm(1)
                .a(ASel::T)
                .b(BSel::Rm)
                .ff(FfOp::DivStep)
                .load_t()
                .goto_("step"),
        );
        a.label("done");
        a.emit(nop().ff_halt().goto_("done"));
        a.label("step");
        a.emit(
            nop()
                .ff(FfOp::DecCount)
                .branch(Cond::CntZero, "done", "div"),
        );
    });
    let dividend: u32 = 0x0012_3456;
    let divisor: Word = 0x0765;
    m.set_t(T0, (dividend >> 16) as Word);
    m.set_q(dividend as Word);
    m.set_rm(1, divisor);
    let out = m.run(1000);
    assert!(out.halted(), "{out:?}");
    assert_eq!(u32::from(m.q()), dividend / u32::from(divisor));
    assert_eq!(u32::from(m.t(T0)), dividend % u32::from(divisor));
}

#[test]
fn shifter_field_extract_microcode() {
    use dorado_asm::ShiftCtl;
    let ctl = ShiftCtl::field_extract(5, 6).raw();
    let mut m = build(|a| {
        a.load_t_const(ctl); // T ← control word (1-2 instructions)
        a.emit(nop().b(BSel::T).ff(FfOp::LoadShiftCtl));
        // RM[3] into both shifter inputs, extract bits 5..11 into T.
        a.emit(
            nop()
                .rm(3)
                .b(BSel::Rm)
                .ff(FfOp::LoadQ)
                .note("stage r to q? no"),
        );
        a.emit(nop().rm(3).a(ASel::Rm).alu(AluOp::A).load_t()); // T ← RM[3]
        a.emit(nop().rm(3).ff(FfOp::ShOutZ).load_t());
        a.label("fin");
        a.emit(nop().ff_halt().goto_("fin"));
    });
    let v: Word = 0b1010_1101_0110_1011;
    m.set_rm(3, v);
    let out = m.run(100);
    assert!(out.halted());
    assert_eq!(m.t(T0), (v >> 5) & 0x3f);
}

#[test]
fn dispatch8_selects_by_b_bus() {
    let mut m = build(|a| {
        a.emit(nop().b(BSel::T).dispatch8("tbl"));
        a.align8();
        a.label("tbl");
        // A classic dispatch table: eight relay jumps (FF free, so the
        // placer may route them cross-page).
        for i in 0..8u16 {
            a.emit(nop().goto_(format!("e{i}")));
        }
        for i in 0..8u16 {
            a.label(format!("e{i}"));
            a.emit(
                nop()
                    .rm(9)
                    .const16(0x10 + i)
                    .alu(AluOp::B)
                    .load_rm()
                    .goto_(format!("h{i}")),
            );
            a.label(format!("h{i}"));
            a.emit(nop().ff_halt().goto_(format!("h{i}")));
        }
    });
    m.set_t(T0, 5);
    assert!(m.run(100).halted());
    assert_eq!(m.rm(9), 0x15);
}

#[test]
fn wakeup_latency_is_two_cycles_and_grain_is_two() {
    // A rate device on task 10; its microcode reads 2 words into RM and
    // blocks. The emulator spins.
    let task = TaskId::new(10);
    let mut a = Assembler::new();
    a.label("emu");
    a.emit(nop().a(ASel::T).alu(AluOp::INC_A).load_t().goto_("emu"));
    a.label("io");
    a.emit(nop().ff_input().load_rm().rm(0));
    a.emit(nop().ff_input().load_rm().rm(1).io_block().goto_("io"));
    let placed = a.place().unwrap();

    let mut dev = RateDevice::new(task, 5.0, 60.0, SynthPath::Slow);
    dev.start();
    let mut m = DoradoBuilder::new()
        .microcode(placed)
        .device(Box::new(dev), 0x40, 2)
        .wire_ioaddress(task, 0x40)
        .task_entry(task, "io")
        .task_entry(T0, "emu")
        .build()
        .unwrap();
    m.trace_enable(4000);
    let _ = m.run(2000);
    let trace = m.take_trace();
    // Find the first cycle the io task ran.
    let first = trace.iter().position(|e| e.task == task).expect("io ran");
    // It must run exactly 2 consecutive instructions then yield (grain 2).
    assert_eq!(trace[first + 1].task, task);
    assert_ne!(trace[first + 2].task, task, "grain must be 2 instructions");
    // Service pairs arrive in order: RM holds the most recent pair.
    assert_eq!(m.rm(0) % 2, 1, "pairs start at odd values (1, 3, ...)");
    assert_eq!(m.rm(1), m.rm(0) + 1);
    // And the emulator kept the remaining cycles.
    let s = m.stats();
    assert!(s.executed[0] > 0);
    assert!(s.executed[task.index()] >= 2);
    assert!(s.task_switches >= 2);
}

#[test]
fn preemption_preserves_emulator_state() {
    // The emulator increments T forever; a device periodically steals the
    // processor. After N total emulator instructions, T == N.
    let task = TaskId::new(12);
    let mut a = Assembler::new();
    a.label("emu");
    a.emit(nop().a(ASel::T).alu(AluOp::INC_A).load_t().goto_("emu"));
    a.label("io");
    a.emit(nop().ff_input().load_rm().rm(4));
    a.emit(nop().io_block().goto_("io"));
    let placed = a.place().unwrap();
    let mut dev = RateDevice::new(task, 30.0, 60.0, SynthPath::Slow);
    dev.set_words_per_service(1);
    dev.start();
    let mut m = DoradoBuilder::new()
        .microcode(placed)
        .device(Box::new(dev), 0x10, 2)
        .wire_ioaddress(task, 0x10)
        .task_entry(task, "io")
        .task_entry(T0, "emu")
        .build()
        .unwrap();
    let _ = m.run(3000);
    let s = m.stats();
    assert_eq!(u64::from(m.t(T0)), s.executed[0] % 65536);
    assert!(s.executed[task.index()] > 0, "device got service");
    assert!(
        s.executed[0] + s.executed[task.index()] + s.held[0] >= 2990,
        "no cycles vanish"
    );
}

#[test]
fn hold_cycles_can_be_stolen_by_other_tasks() {
    // Emulator fetches from uncached memory (long Hold); a device task
    // runs during the held cycles.
    let task = TaskId::new(9);
    let mut a = Assembler::new();
    a.label("emu");
    a.emit(nop().rm(1).a(ASel::FetchR)); // start fetch
    a.emit(nop().b(BSel::MemData).alu(AluOp::B).load_t()); // held on miss
    a.emit(
        nop()
            .rm(1)
            .a(ASel::Rm)
            .const16(16)
            .alu(AluOp::ADD)
            .load_rm()
            .goto_("emu"),
    );
    a.label("io");
    a.emit(nop().ff_input().load_rm().rm(8));
    a.emit(nop().io_block().goto_("io"));
    let placed = a.place().unwrap();
    let mut dev = RateDevice::new(task, 100.0, 60.0, SynthPath::Slow);
    dev.set_words_per_service(1);
    dev.start();
    let mut m = DoradoBuilder::new()
        .microcode(placed)
        .device(Box::new(dev), 0x20, 2)
        .wire_ioaddress(task, 0x20)
        .task_entry(task, "io")
        .task_entry(T0, "emu")
        .build()
        .unwrap();
    m.set_rm(1, 0x1000);
    let _ = m.run(3000);
    let s = m.stats();
    assert!(s.held[0] > 100, "emulator must be held a lot");
    assert!(
        s.executed[task.index()] > 50,
        "device work proceeds during holds: got {}",
        s.executed[task.index()]
    );
}

#[test]
fn bypass_ablation_changes_semantics() {
    // T ← 5; T ← T + 1 immediately: with bypassing T = 6; without, the
    // second instruction reads the stale T (0) and T = 1.
    let program = |a: &mut Assembler| {
        a.emit(nop().const16(5).alu(AluOp::B).load_t());
        a.emit(nop().a(ASel::T).alu(AluOp::INC_A).load_t());
        a.label("fin");
        a.emit(nop().ff_halt().goto_("fin"));
    };
    let mut a1 = Assembler::new();
    program(&mut a1);
    let mut with = DoradoBuilder::new()
        .microcode(a1.place().unwrap())
        .bypass(true)
        .build()
        .unwrap();
    assert!(with.run(100).halted());
    assert_eq!(with.t(T0), 6);

    let mut a2 = Assembler::new();
    program(&mut a2);
    let mut without = DoradoBuilder::new()
        .microcode(a2.place().unwrap())
        .bypass(false)
        .build()
        .unwrap();
    assert!(without.run(100).halted());
    assert_eq!(without.t(T0), 1, "Model 0 reads the stale T");

    // The padded program is correct on the Model 0 — at one extra cycle.
    let mut a3 = Assembler::new();
    program(&mut a3);
    let padded = a3.program().pad_for_no_bypass();
    let mut fixed = DoradoBuilder::new()
        .microcode(padded.place().unwrap())
        .bypass(false)
        .build()
        .unwrap();
    let out = fixed.run(100);
    assert!(out.halted());
    assert_eq!(fixed.t(T0), 6);
}

#[test]
fn ifu_dispatch_executes_macroinstructions() {
    use dorado_ifu::{DecodeEntry, OperandKind};
    // Two opcodes: 0x01 n = T += n (one µinst!); 0xff = halt.
    let mut a = Assembler::new();
    a.label("spin");
    a.emit(nop().goto_("spin")); // address 0: trap for unknown opcodes
    a.label("op_add");
    a.emit(
        nop()
            .a(ASel::IfuData)
            .b(BSel::T)
            .alu(AluOp::ADD)
            .load_t()
            .ifu_jump(),
    );
    a.label("op_halt");
    a.emit(nop().ff_halt().goto_("op_halt"));
    a.label("boot");
    a.emit(nop().ifu_jump()); // first dispatch
    let placed = a.place().unwrap();
    let add_entry = placed.address_of("op_add").unwrap();
    let halt_entry = placed.address_of("op_halt").unwrap();

    let mut m = DoradoBuilder::new()
        .microcode(placed)
        .task_entry(T0, "boot")
        .build()
        .unwrap();
    m.ifu_mut().set_decode_entry(
        0x01,
        DecodeEntry::new(add_entry).with_operand(OperandKind::Byte),
    );
    m.ifu_mut()
        .set_decode_entry(0xff, DecodeEntry::new(halt_entry));
    // Code: ADD 3; ADD 4; ADD 10; HALT.
    let code: &[u8] = &[0x01, 3, 0x01, 4, 0x01, 10, 0xff, 0];
    for (i, pair) in code.chunks(2).enumerate() {
        let w = (Word::from(pair[0]) << 8) | Word::from(pair[1]);
        m.memory_mut()
            .write_virt(VirtAddr::new(0x800 + i as u32), w);
    }
    m.ifu_mut().set_code_base(VirtAddr::new(0x800));
    let out = m.run(10_000);
    assert!(out.halted(), "{out:?}");
    assert_eq!(m.t(T0), 17);
    let s = m.stats();
    assert_eq!(s.macro_instructions, 4);
    // Warm execution is one microinstruction (= one cycle) per ADD.
    assert!(s.executed[0] < 100);
}

#[test]
fn wedged_microcode_is_detected() {
    // Consume an IFU operand that never exists.
    let _m = build(|a| {
        a.label("bad");
        a.emit(nop().a(ASel::IfuData).alu(AluOp::A).load_t().goto_("bad"));
    });
    let m = {
        let mut a = Assembler::new();
        a.label("bad");
        a.emit(nop().a(ASel::IfuData).alu(AluOp::A).load_t().goto_("bad"));
        DoradoBuilder::new()
            .microcode(a.place().unwrap())
            .wedge_limit(500)
            .build()
            .unwrap()
    };
    let mut m = m;
    let out = m.run(10_000);
    assert!(matches!(out, RunOutcome::Wedged { .. }), "{out:?}");
}

#[test]
fn grain3_mode_requires_explicit_notify() {
    // In NotifyGrain3 mode a task that never notifies keeps being
    // rescheduled (the device never drops its wakeup): the emulator
    // starves relative to OnDemand mode.
    let task = TaskId::new(10);
    let asm = || {
        let mut a = Assembler::new();
        a.label("emu");
        a.emit(nop().a(ASel::T).alu(AluOp::INC_A).load_t().goto_("emu"));
        a.label("io");
        a.emit(nop().ff_input().load_rm().rm(0));
        a.emit(nop().ff(FfOp::IoNotify));
        a.emit(nop().io_block().goto_("io"));
        a.place().unwrap()
    };
    let mk = |mode: TaskingMode| {
        let mut dev = RateDevice::new(task, 20.0, 60.0, SynthPath::Slow);
        dev.set_words_per_service(1);
        dev.start();
        let mut m = DoradoBuilder::new()
            .microcode(asm())
            .tasking(mode)
            .device(Box::new(dev), 0x40, 2)
            .wire_ioaddress(task, 0x40)
            .task_entry(task, "io")
            .task_entry(T0, "emu")
            .build()
            .unwrap();
        let _ = m.run(4000);
        m.stats()
    };
    let on_demand = mk(TaskingMode::OnDemand);
    let grain3 = mk(TaskingMode::NotifyGrain3);
    // The same service loop costs 3 instructions per word either way here,
    // but in grain-3 mode the io task still gets service (via IoNotify)
    // rather than wedging.
    assert!(grain3.executed[task.index()] > 0);
    assert!(on_demand.executed[task.index()] > 0);
    // Both modes leave the emulator the majority of cycles at this rate.
    assert!(on_demand.executed[0] > 2000, "{}", on_demand.executed[0]);
    assert!(grain3.executed[0] > 1500, "{}", grain3.executed[0]);
}

#[test]
fn microstore_is_writeable() {
    let mut m = build(|a| {
        a.label("fin");
        a.emit(nop().ff_halt().goto_("fin"));
    });
    let addr = MicroAddr::new(100);
    let word = m.read_microstore(MicroAddr::new(0));
    m.write_microstore(addr, word).unwrap();
    assert_eq!(m.read_microstore(addr), word);
}

#[test]
fn io_attention_branch() {
    // The network device raises attention at end of packet.
    use dorado_io::NetworkController;
    let task = TaskId::new(13);
    let mut a = Assembler::new();
    a.label("emu");
    a.emit(nop().goto_("emu"));
    a.label("io");
    // Read one word; if attention (packet done) write marker, else block.
    a.emit(nop().ff_input().load_rm().rm(0));
    a.emit(nop().branch(Cond::IoAtten, "done", "more"));
    a.label("more");
    a.emit(nop().io_block().goto_("io"));
    a.label("done");
    a.emit(nop().const16(0x77).alu(AluOp::B).load_rm().rm(15));
    a.emit(nop().io_block().goto_("io"));
    let placed = a.place().unwrap();
    let mut net = NetworkController::with_rate(task, 100.0, 60.0);
    net.inject_packet(vec![5, 6]);
    let mut m = DoradoBuilder::new()
        .microcode(placed)
        .device(Box::new(net), 0x30, 3)
        .wire_ioaddress(task, 0x30)
        .task_entry(task, "io")
        .task_entry(T0, "emu")
        .build()
        .unwrap();
    let _ = m.run(2000);
    assert_eq!(m.rm(15), 0x77, "attention branch must fire at packet end");
}
