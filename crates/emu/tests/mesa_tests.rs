//! End-to-end Mesa emulator tests: byte programs through the IFU, the
//! microcode, and the full machine.

use dorado_base::{TaskId, VirtAddr, Word};
use dorado_core::Dorado;
use dorado_emu::layout::{GLOBAL_FRAME, SCRATCH};
use dorado_emu::mesa::{self, MesaAsm};
use dorado_emu::suite::build_mesa;

fn run(f: impl FnOnce(&mut MesaAsm)) -> Dorado {
    let mut p = MesaAsm::new();
    f(&mut p);
    let bytes = p.assemble().expect("byte assembly");
    let mut m = build_mesa(&bytes).expect("machine build");
    let out = m.run(1_000_000);
    assert!(out.halted(), "program did not halt: {out:?}");
    m
}

#[test]
fn arithmetic_chain() {
    let m = run(|p| {
        p.liw(1000);
        p.lib(234);
        p.add(); // 1234
        p.lib(34);
        p.sub(); // 1200
        p.liw(0x0ff0);
        p.and(); // 0x0ab0 & ... compute on host below
        p.halt();
    });
    assert_eq!(mesa::tos(&m), (1000 + 234 - 34) & 0x0ff0);
}

#[test]
fn logic_and_unary() {
    let m = run(|p| {
        p.liw(0x00f0);
        p.liw(0x0f00);
        p.or();
        p.liw(0x0110);
        p.xor();
        p.inc();
        p.halt();
    });
    assert_eq!(mesa::tos(&m), ((0x00f0 | 0x0f00) ^ 0x0110) + 1);
    let m = run(|p| {
        p.lib(5);
        p.neg();
        p.halt();
    });
    assert_eq!(mesa::tos(&m), 0u16.wrapping_sub(5));
}

#[test]
fn dup_drop_stack_discipline() {
    let m = run(|p| {
        p.lib(7);
        p.dup();
        p.add(); // 14
        p.lib(99);
        p.drop_top();
        p.halt();
    });
    assert_eq!(mesa::tos(&m), 14);
    assert_eq!(mesa::stack_depth(&m), 1);
}

#[test]
fn locals_store_and_load() {
    let m = run(|p| {
        p.lib(11);
        p.sl(0);
        p.lib(22);
        p.sl(1);
        p.ll(0);
        p.ll(1);
        p.add();
        p.halt();
    });
    assert_eq!(mesa::tos(&m), 33);
}

#[test]
fn globals_are_shared_frame() {
    let mut m = run(|p| {
        p.lib(5);
        p.sg(3);
        p.lg(3);
        p.inc();
        p.sg(4);
        p.lg(4);
        p.halt();
    });
    assert_eq!(mesa::tos(&m), 6);
    assert_eq!(m.memory_mut().read_virt(VirtAddr::new(GLOBAL_FRAME + 3)), 5);
    assert_eq!(m.memory_mut().read_virt(VirtAddr::new(GLOBAL_FRAME + 4)), 6);
}

#[test]
fn loops_with_conditional_jumps() {
    // Sum 1..=10 with a countdown loop.
    let m = run(|p| {
        p.lib(0);
        p.sl(0); // sum = 0
        p.lib(10);
        p.sl(1); // i = 10
        p.label("loop");
        p.ll(0);
        p.ll(1);
        p.add();
        p.sl(0); // sum += i
        p.ll(1);
        p.lib(1);
        p.sub();
        p.sl(1); // i -= 1
        p.ll(1);
        p.jnzb("loop");
        p.ll(0);
        p.halt();
    });
    assert_eq!(mesa::tos(&m), 55);
}

#[test]
fn forward_jump_skips() {
    let m = run(|p| {
        p.lib(0);
        p.jzb("skip"); // taken
        p.lib(111); // skipped
        p.label("skip");
        p.lib(42);
        p.halt();
    });
    assert_eq!(mesa::tos(&m), 42);
    assert_eq!(mesa::stack_depth(&m), 1, "skipped push must not happen");
}

#[test]
fn array_read_write() {
    let base = SCRATCH as Word;
    let mut m = run(move |p| {
        // MEM[base + 5] = 0x1234; push MEM[base + 5].
        p.liw(base);
        p.lib(5);
        p.liw(0x1234);
        p.awrite();
        p.liw(base);
        p.lib(5);
        p.aread();
        p.halt();
    });
    assert_eq!(mesa::tos(&m), 0x1234);
    assert_eq!(m.memory_mut().read_virt(VirtAddr::new(SCRATCH + 5)), 0x1234);
}

#[test]
fn field_read_and_write() {
    let addr = SCRATCH as Word;
    let mut m = run(move |p| {
        // Store 0xabcd, read bits 4..12, then write 0x5 into bits 12..16.
        p.liw(addr);
        p.lib(0);
        p.liw(0xabcd);
        p.awrite();
        p.liw(addr);
        p.rf(4, 8);
        p.sl(0); // local0 = 0xbc
        p.liw(addr);
        p.lib(0x5);
        p.wf(12, 4);
        p.ll(0);
        p.halt();
    });
    assert_eq!(mesa::tos(&m), 0xbc);
    assert_eq!(
        m.memory_mut().read_virt(VirtAddr::new(SCRATCH)),
        0x5bcd,
        "field insert must preserve the other bits"
    );
}

#[test]
fn shift_opcode() {
    use dorado_asm::ShiftCtl;
    let m = run(|p| {
        p.liw(0x00f7);
        p.shift(ShiftCtl::with_masks(4, 0, 4)); // left shift 4, zero fill
        p.halt();
    });
    assert_eq!(mesa::tos(&m), 0x0f70);
}

#[test]
fn multiply_and_divide() {
    let m = run(|p| {
        p.liw(300);
        p.liw(700);
        p.mul(); // 210000 = 0x0003_3450
        p.halt();
    });
    // TOS = low word, NOS = high word.
    assert_eq!(mesa::tos(&m), (210000u32 & 0xffff) as Word);
    let m = run(|p| {
        p.liw(10_000);
        p.lib(7);
        p.div();
        p.halt();
    });
    assert_eq!(mesa::tos(&m), 10_000 / 7, "quotient on top");
}

#[test]
fn function_call_and_return() {
    let m = run(|p| {
        p.lib(30);
        p.lib(12);
        p.call("addsub", 2);
        p.inc();
        p.halt();
        // addsub(a, b) = a - b  (arg0 = first pushed)
        p.label("addsub");
        p.ll(0);
        p.ll(1);
        p.sub();
        p.ret();
    });
    // 30 - 12 = 18, + 1 = 19.
    assert_eq!(mesa::tos(&m), 19);
    assert_eq!(mesa::stack_depth(&m), 1);
}

#[test]
fn nested_and_recursive_calls() {
    // fib(n) via naive recursion.
    let m = run(|p| {
        p.lib(10);
        p.call("fib", 1);
        p.halt();
        p.label("fib");
        p.ll(0);
        p.lib(2);
        p.sub();
        p.sl(2); // local2 = n - 2
        p.ll(0);
        p.jzb("base0"); // n == 0 -> return 0
        p.ll(0);
        p.lib(1);
        p.sub();
        p.jzb("base1"); // n == 1 -> return 1
        p.ll(0);
        p.lib(1);
        p.sub();
        p.call("fib", 1); // fib(n-1) left on the stack
        p.ll(2);
        p.call("fib", 1); // fib(n-2)
        p.add();
        p.ret();
        p.label("base0");
        p.lib(0);
        p.ret();
        p.label("base1");
        p.lib(1);
        p.ret();
    });
    assert_eq!(mesa::tos(&m), 55, "fib(10)");
}

#[test]
fn unknown_opcode_traps() {
    let mut m = build_mesa(&[0xee, 0x00]).unwrap();
    let out = m.run(10_000);
    assert!(out.halted(), "trap at microstore 0 halts: {out:?}");
    assert_eq!(m.control().this_pc.raw(), 0);
}

#[test]
fn opcode_cycle_costs_match_the_paper() {
    // §7: "A typical microinstruction sequence for a load or store
    // instruction [is] only one or two microinstructions in Mesa";
    // "more complex operations (such as read/write field or array element)
    // take five to ten"; "function calls take about 50".
    fn cost_of(build: impl Fn(&mut MesaAsm), reps: usize) -> f64 {
        // Warm-up copy then measured copies of the snippet.
        let mut p = MesaAsm::new();
        build(&mut p);
        for _ in 0..reps {
            build(&mut p);
        }
        p.halt();
        let bytes = p.assemble().unwrap();
        let mut m = build_mesa(&bytes).unwrap();
        assert!(m.run(1_000_000).halted());
        let s = m.stats();
        // Executed emulator instructions per snippet, excluding the first
        // (cold) copy and the halt.
        (s.executed[0] as f64 - 2.0) / (reps + 1) as f64
    }

    // Loads: LL is 2 microinstructions (+ occasional cache holds).
    let ll = cost_of(|p| p.ll(0), 64);
    assert!((1.0..=3.0).contains(&ll), "LL cost {ll}");

    // Stores: SL is 1 microinstruction.
    let sl = cost_of(
        |p| {
            p.lib(1);
            p.sl(0);
        },
        64,
    );
    // Snippet = LIB (1) + SL (1) = 2 µinstructions.
    assert!((1.8..=3.5).contains(&sl), "LIB+SL cost {sl}");

    // Field read: five to ten.
    let rf = cost_of(
        |p| {
            p.liw(SCRATCH as Word);
            p.rf(4, 8);
            p.drop_top();
        },
        32,
    );
    // Snippet = LIW(1) + RF(7) + DROP(1) ≈ 9.
    assert!((7.0..=12.0).contains(&rf), "LIW+RF+DROP cost {rf}");
}

#[test]
fn call_cost_is_tens_of_cycles() {
    // Measure cycles (not just instructions) per call+return round trip,
    // including IFU refill stalls — the paper's "about 50".
    let mut full = MesaAsm::new();
    full.lib(1);
    full.lib(2);
    for _ in 0..32 {
        full.call("f", 2);
        full.drop_top();
        full.lib(1);
        full.lib(2);
    }
    full.halt();
    full.label("f");
    full.ll(0);
    full.ll(1);
    full.add();
    full.ret();
    let bytes = full.assemble().unwrap();
    let mut m = build_mesa(&bytes).unwrap();
    assert!(m.run(1_000_000).halted());
    let s = m.stats();
    // Total cycles per call+ret pair (subtract the glue: drop+2×lib ≈ 3).
    let per_pair = s.cycles as f64 / 32.0;
    assert!(
        (30.0..=110.0).contains(&per_pair),
        "call+ret round trip cost {per_pair} cycles"
    );
}

#[test]
fn simple_macroinstruction_in_about_one_cycle() {
    // §1: "can execute a simple macroinstruction in one cycle".  A long
    // run of SL (one µinstruction each, IFU-limited) should approach 1-2
    // cycles per macroinstruction.
    let mut p = MesaAsm::new();
    p.lib(7);
    for _ in 0..200 {
        p.dup();
        p.sl(0);
    }
    p.halt();
    let bytes = p.assemble().unwrap();
    let mut m = build_mesa(&bytes).unwrap();
    assert!(m.run(100_000).halted());
    let s = m.stats();
    let per_macro = s.cycles as f64 / s.macro_instructions as f64;
    assert!(
        per_macro < 3.0,
        "simple macroinstructions cost {per_macro} cycles each"
    );
}

#[test]
fn emulator_keeps_whole_processor_when_no_io() {
    let mut p = MesaAsm::new();
    p.lib(1);
    for _ in 0..50 {
        p.inc();
    }
    p.halt();
    let mut m = build_mesa(&p.assemble().unwrap()).unwrap();
    assert!(m.run(100_000).halted());
    let s = m.stats();
    assert_eq!(s.task_switches, 0);
    assert_eq!(s.executed.iter().skip(1).sum::<u64>(), 0);
    assert_eq!(m.t(TaskId::EMULATOR), m.t(TaskId::EMULATOR)); // smoke
}
