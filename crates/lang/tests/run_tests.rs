//! End-to-end compiler tests: source text through the compiler, the IFU,
//! the Mesa microcode, and the datapath.  Each test's oracle is ordinary
//! host arithmetic.

use dorado_base::VirtAddr;
use dorado_core::Dorado;
use dorado_emu::mesa;
use dorado_emu::suite::build_mesa;
use dorado_lang::compile;

fn run_src(src: &str) -> Dorado {
    let bytes = compile(src).unwrap_or_else(|e| panic!("{}", e.render(src)));
    let mut m = build_mesa(&bytes).expect("machine build");
    let out = m.run(5_000_000);
    assert!(out.halted(), "program did not halt: {out:?}");
    m
}

/// Compiles, runs, and returns the program result (final expression).
fn eval(src: &str) -> u16 {
    mesa::tos(&run_src(src))
}

#[test]
fn arithmetic_on_variables() {
    assert_eq!(eval("let a = 1000; let b = 234; a + b;"), 1234);
    assert_eq!(eval("let a = 5; let b = 9; a - b;"), 5u16.wrapping_sub(9));
    assert_eq!(eval("let a = 0x0ff0; let b = 0x00ff; a & b;"), 0x00f0);
    assert_eq!(eval("let a = 0x0f00; let b = 0x00f0; a | b;"), 0x0ff0);
    assert_eq!(eval("let a = 0xffff; let b = 0x0f0f; a ^ b;"), 0xf0f0);
}

#[test]
fn multiply_divide_remainder() {
    assert_eq!(eval("let a = 123; let b = 45; a * b;"), 123 * 45);
    assert_eq!(eval("let a = 1234; let b = 56; a / b;"), 1234 / 56);
    assert_eq!(eval("let a = 1234; let b = 56; a % b;"), 1234 % 56);
    // Wrapping multiply keeps the low word.
    assert_eq!(
        eval("let a = 300; let b = 300; a * b;"),
        300u16.wrapping_mul(300)
    );
}

#[test]
fn shifts_become_shiftctl() {
    assert_eq!(eval("let x = 0x1234; x << 4;"), 0x2340);
    assert_eq!(eval("let x = 0x1234; x >> 4;"), 0x0123);
    assert_eq!(eval("let x = 0x8001; x >> 1;"), 0x4000); // logical, not arithmetic
    assert_eq!(eval("let x = 7; x << 0;"), 7);
    assert_eq!(eval("let x = 1; x << 15;"), 0x8000);
}

#[test]
fn comparisons_produce_flags() {
    assert_eq!(eval("let a = 3; let b = 4; a < b;"), 1);
    assert_eq!(eval("let a = 4; let b = 4; a < b;"), 0);
    assert_eq!(eval("let a = 4; let b = 4; a <= b;"), 1);
    assert_eq!(eval("let a = 5; let b = 4; a > b;"), 1);
    assert_eq!(eval("let a = 4; let b = 5; a >= b;"), 0);
    assert_eq!(eval("let a = 9; let b = 9; a == b;"), 1);
    assert_eq!(eval("let a = 9; let b = 8; a != b;"), 1);
}

#[test]
fn comparisons_are_signed() {
    // -1 < 1 even though 0xffff > 1 unsigned.
    assert_eq!(eval("let a = 0 - 1; let b = 1; a < b;"), 1);
    assert_eq!(eval("let a = 0 - 1; let b = 1; a > b;"), 0);
}

#[test]
fn logical_operators_short_circuit() {
    assert_eq!(eval("let a = 2; let b = 0; a && b;"), 0);
    assert_eq!(eval("let a = 2; let b = 3; a && b;"), 1);
    assert_eq!(eval("let a = 0; let b = 3; a || b;"), 1);
    assert_eq!(eval("let a = 0; let b = 0; a || b;"), 0);
    // RHS with a side effect must not run when short-circuited.
    assert_eq!(
        eval(
            "global hits = 0; proc bump() { hits = hits + 1; return 1; }\n\
              let r = 0 && bump(); hits;"
        ),
        0
    );
    assert_eq!(
        eval(
            "global hits = 0; proc bump() { hits = hits + 1; return 1; }\n\
              let r = 1 || bump(); hits;"
        ),
        0
    );
}

#[test]
fn unary_operators() {
    assert_eq!(eval("let x = 5; -x;"), 5u16.wrapping_neg());
    assert_eq!(eval("let x = 0x00ff; ~x;"), 0xff00);
    assert_eq!(eval("let x = 0; !x;"), 1);
    assert_eq!(eval("let x = 44; !x;"), 0);
}

#[test]
fn if_else_chains() {
    let classify = "proc classify(n) {\n\
                    if n < 10 { return 1; }\n\
                    else if n < 100 { return 2; }\n\
                    else { return 3; }\n\
                    }\n";
    assert_eq!(eval(&format!("{classify} classify(5);")), 1);
    assert_eq!(eval(&format!("{classify} classify(50);")), 2);
    assert_eq!(eval(&format!("{classify} classify(500);")), 3);
}

#[test]
fn while_loops() {
    // Sum 1..=10.
    assert_eq!(
        eval("let s = 0; let i = 1; while i <= 10 { s = s + i; i = i + 1; } s;"),
        55
    );
    // Zero-iteration loop.
    assert_eq!(eval("let s = 9; while 0 { s = 1; } s;"), 9);
}

#[test]
fn gcd_via_euclid() {
    let gcd = "proc gcd(a, b) { while b != 0 { let t = b; b = a % b; a = t; } return a; }\n";
    assert_eq!(eval(&format!("{gcd} gcd(48, 36);")), 12);
    assert_eq!(eval(&format!("{gcd} gcd(17, 5);")), 1);
    assert_eq!(eval(&format!("{gcd} gcd(0, 7);")), 7);
}

#[test]
fn recursive_fibonacci() {
    let fib = "proc fib(n) { if n < 2 { return n; } return fib(n - 1) + fib(n - 2); }\n";
    assert_eq!(eval(&format!("{fib} fib(10);")), 55);
    assert_eq!(eval(&format!("{fib} fib(15);")), 610);
}

#[test]
fn iterative_fibonacci_matches_recursive() {
    let src = "proc fib(n) {\n\
                 let a = 0; let b = 1;\n\
                 while n > 0 { let t = a + b; a = b; b = t; n = n - 1; }\n\
                 return a;\n\
               }\n\
               fib(20);";
    assert_eq!(eval(src), 6765);
}

#[test]
fn nested_calls_and_expressions() {
    let src = "proc sq(x) { return x * x; }\n\
               proc hyp2(a, b) { return sq(a) + sq(b); }\n\
               hyp2(3, 4);";
    assert_eq!(eval(src), 25);
}

#[test]
fn globals_persist_across_calls() {
    let src = "global counter = 100;\n\
               proc tick() { counter = counter + 1; return counter; }\n\
               tick(); tick(); tick();";
    assert_eq!(eval(src), 103);
}

#[test]
fn memory_builtins_roundtrip() {
    // SCRATCH area starts at 0x100.
    let src = "poke(0x100, 1234);\n\
               aset(0x100, 3, 111);\n\
               peek(0x100) + aref(0x100, 3);";
    assert_eq!(eval(src), 1234 + 111);
}

#[test]
fn memory_builtins_hit_real_memory() {
    let m = run_src("poke(0x120, 0xbeef); 0;");
    assert_eq!(m.memory().read_virt(VirtAddr::new(0x120)), 0xbeef);
}

#[test]
fn block_scoping_at_runtime() {
    let src = "let x = 1;\n\
               { let x = 10; x = x + 1; }\n\
               { let y = 100; x = x + y; }\n\
               x;";
    assert_eq!(eval(src), 101);
}

#[test]
fn collatz_steps() {
    // Steps for 27 to reach 1 (a long-ish loop: 111 steps).
    let src = "proc step(n) { if n % 2 == 0 { return n / 2; } return 3 * n + 1; }\n\
               let n = 27; let steps = 0;\n\
               while n != 1 { n = step(n); steps = steps + 1; }\n\
               steps;";
    assert_eq!(eval(src), 111);
}

#[test]
fn sieve_of_eratosthenes_in_memory() {
    // Count primes below 64 using the scratch area as the sieve array.
    let src = "let base = 0x200;\n\
               let i = 0;\n\
               while i < 64 { aset(base, i, 1); i = i + 1; }\n\
               aset(base, 0, 0); aset(base, 1, 0);\n\
               let p = 2;\n\
               while p * p < 64 {\n\
                 if aref(base, p) { let k = p * p; while k < 64 { aset(base, k, 0); k = k + p; } }\n\
                 p = p + 1;\n\
               }\n\
               let count = 0; i = 0;\n\
               while i < 64 { count = count + aref(base, i); i = i + 1; }\n\
               count;";
    // Primes < 64: 2,3,5,7,11,13,17,19,23,29,31,37,41,43,47,53,59,61.
    assert_eq!(eval(src), 18);
}

#[test]
fn program_result_is_last_expression() {
    assert_eq!(eval("1 + 1; 2 + 2; let x = 9; x * 3;"), 27);
}

#[test]
fn deep_recursion_within_frame_pool() {
    // 64 frames in the pool; depth ~30 is comfortably inside.
    let src = "proc depth(n) { if n == 0 { return 0; } return 1 + depth(n - 1); }\n\
               depth(30);";
    assert_eq!(eval(src), 30);
}

#[test]
fn cycle_costs_are_sane() {
    // An empty program (just HALT) should cost only boot + dispatch.
    let bytes = compile("0;").unwrap();
    let mut m = build_mesa(&bytes).expect("machine build");
    let out = m.run(10_000);
    assert!(out.halted());
    assert!(
        m.cycles() < 200,
        "trivial program took {} cycles",
        m.cycles()
    );
}
