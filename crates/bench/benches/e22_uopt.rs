//! E22: what the microcode optimizer buys, per opcode class and per
//! suite.
//!
//! `dorado-uopt` promises bit-identical architectural effect, so its
//! whole value is in two deterministic numbers: *simulated cycles* per
//! opcode-class microbenchmark (hold-shadow scheduling and branch-slot
//! filling shorten hot paths) and *wasted microstore slots* per suite
//! (relay words reclaimed by slot filling).  Each opcode class runs
//! the identical macroprogram on the plain and the optimized image of
//! the same suite; both runs halt, and the architectural end state is
//! asserted equal before any number is reported.
//!
//! ```sh
//! cargo bench -p dorado-bench --bench e22_uopt             # full
//! cargo bench -p dorado-bench --bench e22_uopt -- --quick  # ci-sized
//! cargo bench ... -- --json E22.json   # machine-readable results
//! cargo bench ... -- --gate            # fail unless >= 2 opcode classes improved
//! ```
//!
//! The `--gate` flag is the ci hook: it requires at least two opcode
//! classes to show a nonzero cycles-or-words reduction, proving the
//! optimizer still earns its place in the pipeline.  Set
//! `DORADO_E22_NO_GATE=1` to skip (e.g. while bisecting a pass).

use dorado_base::{VirtAddr, Word};
use dorado_bench::harness::bench;
use dorado_core::Dorado;
use dorado_emu::bcpl::BcplAsm;
use dorado_emu::layout::{GLOBAL_FRAME, SCRATCH};
use dorado_emu::lisp::LispAsm;
use dorado_emu::mesa::{self, MesaAsm};
use dorado_emu::smalltalk::{self, StAsm};
use dorado_emu::suite::{
    build_bcpl, build_bcpl_on, build_lisp, build_lisp_on, build_mesa, build_mesa_on,
    build_smalltalk, build_smalltalk_on, Suite, SuiteBuilder,
};
use dorado_uopt::{optimize, OptReport};

/// One optimized suite plus the account of what changed.
fn optimized(builder: SuiteBuilder) -> (Suite, OptReport) {
    let (modules, program) = builder.program();
    let opt = optimize(&program).expect("suite must optimize ulint-clean");
    (Suite::from_parts(modules, opt.placed), opt.report)
}

fn run_halted(name: &str, mut m: Dorado) -> (u64, Word) {
    assert!(m.run(10_000_000).halted(), "{name}: did not halt");
    let probe = m.memory().read_virt(VirtAddr::new(GLOBAL_FRAME));
    (m.cycles(), probe)
}

/// One opcode class: simulated cycles for the identical program on the
/// plain and the optimized image.
struct Class {
    name: &'static str,
    base: u64,
    opt: u64,
}

impl Class {
    fn measure(name: &'static str, base_machine: Dorado, opt_machine: Dorado) -> Class {
        let (base, check_b) = run_halted(name, base_machine);
        let (opt, check_o) = run_halted(name, opt_machine);
        assert_eq!(check_b, check_o, "{name}: architectural end state diverged");
        Class { name, base, opt }
    }

    fn improved(&self) -> bool {
        self.opt < self.base
    }
}

fn mesa_classes(reps: usize, out: &mut Vec<Class>) {
    let (suite, report) = optimized(SuiteBuilder::new().with_mesa());
    print_suite("mesa", &report);

    let mut p = MesaAsm::new();
    for _ in 0..reps {
        p.ll(0);
        p.drop_top();
    }
    p.halt();
    let bytes = p.assemble().expect("mesa asm");
    let (base, opt) = (
        build_mesa(&bytes).expect("machine"),
        build_mesa_on(&suite, &bytes).expect("machine"),
    );
    out.push(Class::measure("mesa/load", base, opt));

    let mut p = MesaAsm::new();
    for _ in 0..reps {
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
    let bytes = p.assemble().expect("mesa asm");
    let b = build_mesa(&bytes).expect("machine");
    let o = build_mesa_on(&suite, &bytes).expect("machine");
    assert_eq!(mesa::tos(&b), mesa::tos(&o), "mesa/call: TOS before run");
    out.push(Class::measure("mesa/call", b, o));
}

fn lisp_classes(reps: usize, out: &mut Vec<Class>) {
    let (suite, report) = optimized(SuiteBuilder::new().with_lisp());
    print_suite("lisp", &report);

    let mut p = LispAsm::new();
    p.push_fix(1);
    for _ in 0..reps {
        p.push_fix(3);
        p.push_fix(9);
        p.cons();
        p.car();
        p.add();
    }
    p.halt();
    let bytes = p.assemble().expect("lisp asm");
    let (base, opt) = (
        build_lisp(&bytes).expect("machine"),
        build_lisp_on(&suite, &bytes).expect("machine"),
    );
    out.push(Class::measure("lisp/cons+car", base, opt));

    let mut p = LispAsm::new();
    for _ in 0..reps.min(64) {
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
    let bytes = p.assemble().expect("lisp asm");
    let (base, opt) = (
        build_lisp(&bytes).expect("machine"),
        build_lisp_on(&suite, &bytes).expect("machine"),
    );
    out.push(Class::measure("lisp/call", base, opt));
}

fn bcpl_class(reps: usize, out: &mut Vec<Class>) {
    let (suite, report) = optimized(SuiteBuilder::new().with_bcpl());
    print_suite("bcpl", &report);

    let mut p = BcplAsm::new();
    p.lit(3);
    p.sv(0);
    for _ in 0..reps {
        p.call("double");
    }
    p.lv(0);
    p.halt();
    p.label("double");
    p.lv(0);
    p.lv(0);
    p.add();
    p.sv(0);
    p.ret();
    let bytes = p.assemble().expect("bcpl asm");
    let (base, opt) = (
        build_bcpl(&bytes).expect("machine"),
        build_bcpl_on(&suite, &bytes).expect("machine"),
    );
    out.push(Class::measure("bcpl/call", base, opt));
}

fn smalltalk_class(reps: usize, out: &mut Vec<Class>) {
    let (suite, report) = optimized(SuiteBuilder::new().with_smalltalk());
    print_suite("smalltalk", &report);

    let mut p = StAsm::new();
    p.push_fix(5);
    for _ in 0..reps.min(200) {
        p.push_var(0);
        p.send(7, 0);
        p.add();
    }
    p.halt();
    let target = p.label("m_field");
    p.push_inst(0);
    p.mret();
    let bytes = p.assemble();

    let setup = |mut m: Dorado| -> Dorado {
        smalltalk::define_class(&mut m, SCRATCH, &[(7, target)]);
        smalltalk::define_object(&mut m, SCRATCH + 0x40, SCRATCH, &[11]);
        m.memory_mut()
            .write_virt(VirtAddr::new(GLOBAL_FRAME), (SCRATCH + 0x40) as Word);
        m
    };
    let base = setup(build_smalltalk(&bytes).expect("machine"));
    let opt = setup(build_smalltalk_on(&suite, &bytes).expect("machine"));
    out.push(Class::measure("smalltalk/send", base, opt));
}

fn print_suite(name: &str, r: &OptReport) {
    println!(
        "E22 | {name}: {} rewrites, words {} -> {}, wasted (relays, no-ops) ({}, {}) -> ({}, {})",
        r.rewrites(),
        r.words_before,
        r.words_after,
        r.wasted_before.0,
        r.wasted_before.1,
        r.wasted_after.0,
        r.wasted_after.1,
    );
}

fn main() {
    let mut quick = false;
    let mut gate = false;
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--gate" => gate = true,
            "--json" => json_path = Some(args.next().expect("--json needs a path")),
            s if s.starts_with("--json=") => json_path = Some(s["--json=".len()..].to_string()),
            "--bench" => {} // cargo bench passes this through
            other => panic!("unknown argument `{other}`"),
        }
    }
    let reps = if quick { 64 } else { 512 };
    println!(
        "E22 | opcode classes at {reps} reps{}",
        if quick { " (quick)" } else { "" }
    );

    let mut classes = Vec::new();
    mesa_classes(reps, &mut classes);
    lisp_classes(reps, &mut classes);
    bcpl_class(reps, &mut classes);
    smalltalk_class(reps, &mut classes);

    for c in &classes {
        let delta = c.base as i64 - c.opt as i64;
        let pct = delta as f64 * 100.0 / c.base.max(1) as f64;
        println!(
            "E22 | {:<16} {:>9} -> {:>9} cycles ({delta:+} = {pct:+.2}%)",
            c.name, c.base, c.opt
        );
    }
    let improved = classes.iter().filter(|c| c.improved()).count();
    println!(
        "E22 | {improved}/{} opcode classes improved on the optimized image",
        classes.len()
    );

    // How long the optimizer itself takes on the richest suite.
    bench("e22/optimize_everything", || {
        let (_, program) = SuiteBuilder::everything().program();
        optimize(&program).expect("optimizes").report.rewrites()
    });

    if let Some(path) = &json_path {
        let mut body = String::new();
        for c in &classes {
            let key = c.name.replace(['/', '+'], "_");
            body.push_str(&format!(
                "  \"{key}_base\": {},\n  \"{key}_opt\": {},\n",
                c.base, c.opt
            ));
        }
        let json = format!(
            "{{\n  \"schema\": \"dorado-e22-v1\",\n  \"quick\": {quick},\n{body}  \"classes_improved\": {improved}\n}}\n"
        );
        std::fs::write(path, json).expect("write results json");
        println!("E22 | wrote {path}");
    }

    if gate {
        if std::env::var("DORADO_E22_NO_GATE").is_ok_and(|v| v == "1") {
            println!("E22 | gate skipped (DORADO_E22_NO_GATE=1)");
            return;
        }
        if improved < 2 {
            eprintln!(
                "E22 | gate FAIL: only {improved} opcode class(es) improved (need >= 2); \
                 the optimizer no longer pays for itself — fix the regressed pass or set \
                 DORADO_E22_NO_GATE=1 while bisecting"
            );
            std::process::exit(1);
        }
        println!("E22 | gate passed ({improved} classes improved)");
    }
}
