//! The optimizer must be architecturally invisible.
//!
//! `dorado-uopt` rewrites microcode listings (dead-arm resolution,
//! hold-shadow scheduling, pair-alignment hints, branch-slot filling)
//! and promises bit-identical architectural effect: same halt state,
//! same top of stack, same data memory — only the cycle count and the
//! microstore footprint may change.  These tests drive unoptimized and
//! optimized images over randomized programs from every emulator suite
//! and compare end states; they also prove the optimized image survives
//! snapshot round-trips, keeps the golden-trace fixture byte-identical,
//! and — via a seeded
//! reordering bug — that the harness actually catches the class of
//! miscompilation the dependence oracle excludes.

use dorado::asm::{ASel, AluOp, Assembler, BSel, Inst, MicroProgram, PlacedProgram};
use dorado::base::check::{check, Rng};
use dorado::base::snap::{restore_image, save_image};
use dorado::base::{VirtAddr, Word};
use dorado::cluster::{ClusterConfig, ClusterSim, Exec};
use dorado::core::{Dorado, DoradoBuilder, ExecMode};
use dorado::emu::bcpl::{self, BcplAsm};
use dorado::emu::layout::{GLOBAL_FRAME, SCRATCH};
use dorado::emu::lisp::{self, LispAsm};
use dorado::emu::mesa::{self, MesaAsm};
use dorado::emu::scenario::{self, ScenarioKind};
use dorado::emu::smalltalk::{self, StAsm};
use dorado::emu::suite::{
    build_bcpl, build_bcpl_on, build_lisp, build_lisp_on, build_mesa, build_mesa_on,
    build_smalltalk, build_smalltalk_on, Suite, SuiteBuilder,
};
use dorado::uopt::{deps, optimize, OptReport};

/// Optimizes a suite's listing and rebuilds the [`Suite`] around the
/// optimized placement — the pipeline every equivalence test exercises.
fn optimized_suite(builder: SuiteBuilder) -> (Suite, OptReport) {
    let (modules, program) = builder.program();
    let opt = optimize(&program).expect("suite must optimize ulint-clean");
    (Suite::from_parts(modules, opt.placed), opt.report)
}

/// The architectural data window: global frame, frame pool, Lisp stack
/// and heap all live below this; code above it is loaded identically on
/// both machines.
const DATA_WINDOW: u32 = 0x3800;

fn assert_same_memory(name: &str, base: &Dorado, opt: &Dorado) {
    for addr in 0..DATA_WINDOW {
        let va = VirtAddr::new(addr);
        assert_eq!(
            base.memory().read_virt(va),
            opt.memory().read_virt(va),
            "{name}: data memory differs at {addr:#06x}"
        );
    }
}

fn run_to_halt(name: &str, m: &mut Dorado) {
    let out = m.run(400_000);
    assert!(out.halted(), "{name}: did not halt: {out:?}");
}

#[test]
fn mesa_end_state_matches_unoptimized() {
    let (suite, report) = optimized_suite(SuiteBuilder::new().with_mesa());
    assert!(
        report.rewrites() > 0,
        "mesa has known opportunities: {report}"
    );
    check("uopt-equivalence-mesa", 8, |rng: &mut Rng| {
        let reps = rng.range(1, 40);
        let mut p = MesaAsm::new();
        p.lib(11);
        p.label("top");
        for _ in 0..reps {
            p.inc();
        }
        p.lib(1);
        p.sub();
        p.jzb("top");
        p.halt();
        let bytes = p.assemble().expect("mesa asm");
        let mut base = build_mesa(&bytes).expect("baseline machine");
        let mut opt = build_mesa_on(&suite, &bytes).expect("optimized machine");
        run_to_halt("mesa/base", &mut base);
        run_to_halt("mesa/opt", &mut opt);
        assert_eq!(mesa::tos(&base), mesa::tos(&opt), "mesa: top of stack");
        assert_same_memory("mesa", &base, &opt);
    });
}

#[test]
fn lisp_end_state_matches_unoptimized() {
    let (suite, report) = optimized_suite(SuiteBuilder::new().with_lisp());
    assert!(
        report.rewrites() > 0,
        "lisp has known opportunities: {report}"
    );
    check("uopt-equivalence-lisp", 6, |rng: &mut Rng| {
        let n = rng.range(2, 24);
        let mut p = LispAsm::new();
        p.push_fix(n as Word);
        p.push_fix(7);
        p.add();
        for _ in 0..n {
            p.push_fix(3);
            p.push_fix(9);
            p.cons();
            p.car();
            p.add();
        }
        p.halt();
        let bytes = p.assemble().expect("lisp asm");
        let mut base = build_lisp(&bytes).expect("baseline machine");
        let mut opt = build_lisp_on(&suite, &bytes).expect("optimized machine");
        run_to_halt("lisp/base", &mut base);
        run_to_halt("lisp/opt", &mut opt);
        assert_eq!(lisp::tos(&base), lisp::tos(&opt), "lisp: top of stack");
        assert_same_memory("lisp", &base, &opt);
    });
}

#[test]
fn bcpl_end_state_matches_unoptimized() {
    let (suite, report) = optimized_suite(SuiteBuilder::new().with_bcpl());
    assert!(
        report.rewrites() > 0,
        "bcpl has known opportunities: {report}"
    );
    check("uopt-equivalence-bcpl", 6, |rng: &mut Rng| {
        let calls = rng.range(1, 48);
        let mut p = BcplAsm::new();
        p.lit(3);
        p.sv(0);
        for _ in 0..calls {
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
        let mut base = build_bcpl(&bytes).expect("baseline machine");
        let mut opt = build_bcpl_on(&suite, &bytes).expect("optimized machine");
        run_to_halt("bcpl/base", &mut base);
        run_to_halt("bcpl/opt", &mut opt);
        assert_eq!(bcpl::tos(&base), bcpl::tos(&opt), "bcpl: top of stack");
        assert_same_memory("bcpl", &base, &opt);
    });
}

#[test]
fn smalltalk_end_state_matches_unoptimized() {
    let (suite, report) = optimized_suite(SuiteBuilder::new().with_smalltalk());
    assert!(
        report.rewrites() > 0,
        "smalltalk has known opportunities: {report}"
    );
    check("uopt-equivalence-smalltalk", 6, |rng: &mut Rng| {
        let sends = rng.range(1, 12);
        let field = rng.below(100) as Word;
        let mut p = StAsm::new();
        p.push_fix(5);
        for _ in 0..sends {
            p.push_var(0);
            p.send(7, 0);
            p.add();
        }
        p.halt();
        let target = p.label("m_field");
        p.push_inst(0);
        p.mret();
        let bytes = p.assemble();

        let class_addr = SCRATCH;
        let obj_addr = SCRATCH + 0x40;
        let setup = |mut m: Dorado| -> Dorado {
            smalltalk::define_class(&mut m, class_addr, &[(7, target)]);
            smalltalk::define_object(&mut m, obj_addr, class_addr, &[field]);
            m.memory_mut()
                .write_virt(VirtAddr::new(GLOBAL_FRAME), obj_addr as Word);
            m
        };
        let mut base = setup(build_smalltalk(&bytes).expect("baseline machine"));
        let mut opt = setup(build_smalltalk_on(&suite, &bytes).expect("optimized machine"));
        run_to_halt("smalltalk/base", &mut base);
        run_to_halt("smalltalk/opt", &mut opt);
        assert_eq!(
            smalltalk::tos(&base),
            smalltalk::tos(&opt),
            "smalltalk: top of stack"
        );
        assert_same_memory("smalltalk", &base, &opt);
    });
}

#[test]
fn golden_trace_image_survives_optimization_verbatim() {
    // The golden-trace fixture enters at microstore word 0 with no label
    // (the hardware's power-up convention) and has a single dependence
    // chain — the optimizer must recognise there is nothing to do and
    // reproduce the placement byte for byte, golden trace included.
    let mut a = Assembler::new();
    a.emit(Inst::new().rm(1).a(ASel::FetchR));
    a.emit(Inst::new().b(BSel::MemData).alu(AluOp::B).load_t());
    a.emit(Inst::new().rm(2).a(ASel::T).alu(AluOp::INC_A).load_rm());
    a.label("fin");
    a.emit(Inst::new().ff_halt().goto_("fin"));
    let program = a.program();
    let baseline = program.place().expect("places");
    let opt = optimize(&program).expect("optimizes");
    assert_eq!(opt.report.rewrites(), 0, "{}", opt.report);
    for raw in 0..4096u16 {
        let at = dorado::base::MicroAddr::new(raw);
        assert_eq!(
            baseline.word(at).raw(),
            opt.placed.word(at).raw(),
            "word at {at} differs"
        );
    }
    // The §5.7 trace replays verbatim on a machine built from the
    // optimized image: fetch miss, 25 MEMDATA hold cycles, halt.
    let mut m = DoradoBuilder::new()
        .microcode(opt.placed.clone())
        .build()
        .expect("machine builds");
    m.set_rm(1, 0x1000);
    m.memory_mut().write_virt(VirtAddr::new(0x1000), 0xfeed);
    m.trace_enable(64);
    assert!(m.run(1000).halted());
    let trace = m.take_trace();
    let held = trace.iter().filter(|e| e.held.is_some()).count();
    assert_eq!((trace.len(), held), (29, 25), "the §5.7 hold run is intact");
    assert_eq!(m.rm(2), 0xfeee);
}

#[test]
fn seeded_reordering_bug_is_caught_and_excluded() {
    // A store of T followed by a reload of T: swapping them changes
    // what lands in memory.  This mutation stands in for the scheduler
    // bug class the dependence oracle must exclude — the harness has to
    // see the difference, and `optimize` has to never produce it.
    let store = Inst::new().rm(0).a(ASel::StoreR).b(BSel::T).alu(AluOp::B);
    let reload = Inst::new().const16(0x22).alu(AluOp::B).load_t();
    assert!(
        deps::effects(&store).conflicts(&deps::effects(&reload)),
        "the oracle orders the store before the T overwrite (WAR on T)"
    );

    let build = |swapped: bool| -> MicroProgram {
        let mut a = Assembler::new();
        a.label("boot");
        a.emit(Inst::new().const16(0x11).alu(AluOp::B).load_t());
        a.emit(Inst::new().rm(0).const16(0x40).alu(AluOp::B).load_rm());
        if swapped {
            a.emit(reload.clone());
            a.emit(store.clone());
        } else {
            a.emit(store.clone());
            a.emit(reload.clone());
        }
        a.label("fin");
        a.emit(Inst::new().ff_halt().goto_("fin"));
        a.program()
    };
    let end_state = |placed: PlacedProgram| -> (bool, Word) {
        let mut m = DoradoBuilder::new()
            .microcode(placed)
            .build()
            .expect("machine builds");
        let halted = m.run(10_000).halted();
        (halted, m.memory().read_virt(VirtAddr::new(0x40)))
    };

    let good = end_state(build(false).place().expect("places"));
    let bug = end_state(build(true).place().expect("places"));
    assert_eq!(good, (true, 0x11), "correct order stores the old T");
    assert_eq!(
        bug,
        (true, 0x22),
        "the seeded swap is architecturally visible"
    );

    let opt = optimize(&build(false)).expect("optimizes");
    assert_eq!(
        end_state(opt.placed),
        good,
        "optimization preserved the store/reload order"
    );
}

#[test]
fn scenario_runs_match_the_unoptimized_image() {
    let (suite, report) = optimized_suite(SuiteBuilder::new().with_scenario().with_bitblt());
    assert!(
        report.rewrites() > 0,
        "scenario has known opportunities: {report}"
    );
    for kind in ScenarioKind::ALL {
        let base = scenario::drive(kind, false, &mut |_, _| {});
        let opt =
            scenario::drive_mode_on(kind, &suite, false, ExecMode::Interpreted, &mut |_, _| {});
        let name = kind.name();
        assert_eq!(base.final_frame, opt.final_frame, "{name}: final raster");
        assert_eq!(base.input_events, opt.input_events, "{name}: input events");
        // Field and paint counters are time-coupled, not architectural:
        // a scripted run on the faster image can complete more fields
        // (same wait, quicker service) or fewer (the script's work
        // finishes sooner), so only sanity is asserted.
        assert!(opt.fields > 0, "{name}: no fields completed");
    }
}

#[test]
fn cluster_on_the_optimized_image_is_deterministic_and_mode_stable() {
    let (suite, report) = optimized_suite(SuiteBuilder::new().with_cluster());
    assert!(
        report.rewrites() > 0,
        "cluster has known opportunities: {report}"
    );
    let cfg = ClusterConfig::pairs(4, 2, 3);
    let run = |exec: Exec| {
        let mut sim = ClusterSim::build_with(&cfg, &suite).expect("cluster builds");
        sim.run(30, exec);
        let images: Vec<_> = sim.machines.iter_mut().map(save_image).collect();
        (sim.responses(), sim.served(), images)
    };
    let a = run(Exec::Sequential);
    let b = run(Exec::Sequential);
    let pooled = run(Exec::Pool(2));
    assert!(a.0 > 0, "clients made progress on the optimized image");
    assert!(a.1 > 0, "servers served on the optimized image");
    assert_eq!(a, b, "optimized cluster runs are deterministic");
    assert_eq!(
        a, pooled,
        "pool executor is bit-identical on the optimized image"
    );
}

#[test]
fn snapshot_round_trip_on_the_optimized_image() {
    let (suite, _) = optimized_suite(SuiteBuilder::new().with_mesa());
    let mut p = MesaAsm::new();
    p.lib(11);
    p.label("top");
    for _ in 0..7 {
        p.inc();
    }
    p.lib(1);
    p.sub();
    p.jzb("top");
    p.halt();
    let bytes = p.assemble().expect("mesa asm");

    let mut a = build_mesa_on(&suite, &bytes).expect("machine");
    a.run_quantum(2_500);
    let ckpt = save_image(&mut a);
    let mut b = build_mesa_on(&suite, &bytes).expect("machine");
    restore_image(&mut b, &ckpt).expect("checkpoint restores");
    assert_eq!(save_image(&mut b), ckpt, "restore → save is the identity");
    run_to_halt("snapshot/original", &mut a);
    run_to_halt("snapshot/resumed", &mut b);
    assert_eq!(
        save_image(&mut a),
        save_image(&mut b),
        "resumed and straight-through runs converge"
    );
}
