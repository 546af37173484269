//! Golden-diagnostic tests: a deliberately-bad corpus, one fixture per
//! pass, asserting the *exact* rendered output.  The fixtures double as
//! the negative tests the acceptance bar asks for — every seeded
//! violation must be caught, with the right severity, at the right
//! address, with the right words.
//!
//! Placement is deterministic, so the rendered addresses are stable; if
//! a placer change moves a word the expected text documents exactly
//! what the analyzer is anchored to.

use dorado_asm::{ASel, Assembler, BSel, Cond, FfOp, Inst, PlacedProgram};
use dorado_base::MicroAddr;
use dorado_ulint::{lint, LintConfig, Severity};

/// Lints `placed` and renders every finding at or above `min`, in
/// report order, separated by blank lines.
fn rendered(placed: &PlacedProgram, min: Severity) -> String {
    let report = lint(placed);
    let mut out = String::new();
    for d in report.diags.iter().filter(|d| d.severity >= min) {
        out.push_str(&d.render(placed));
        out.push('\n');
    }
    out
}

#[track_caller]
fn assert_golden(actual: &str, expected: &str) {
    assert_eq!(
        actual.trim_end(),
        expected.trim_end(),
        "\n--- actual ---\n{actual}\n--- expected ---\n{expected}\n"
    );
}

/// ff-conflict: IFULOADPC and IFUJUMP in one word — statically
/// encodable, rejected by the decoder at runtime.
#[test]
fn ff_conflict_ifuloadpc_with_ifujump() {
    let mut a = Assembler::new();
    a.label("boot");
    a.emit(Inst::new().ff(FfOp::IfuLoadPc).ifu_jump());
    let placed = a.place().unwrap();
    let out = rendered(&placed, Severity::Error);
    assert_golden(
        &out,
        "error[ff-conflict]: FF function IFULOADPC conflicts with IFUJUMP in the same word\n\
         \x20 --> 000.00: RM[0] aluop0 RM[0], IFUPC\u{2190}B, ifujump\n\
         \x20  = note: the decoder rejects loading and dispatching the PC in one cycle",
    );
}

/// hold-hazard: a MEMDATA consumer no fetch can ever precede reads
/// stale data — the one genuine defect the hold pass promotes to a
/// warning (its definite/possible sites are info-level).
#[test]
fn hold_hazard_memdata_without_fetch() {
    let mut a = Assembler::new();
    a.label("boot");
    a.emit(Inst::new().b(BSel::MemData).load_t());
    a.emit(Inst::new().ff_halt().goto_("boot"));
    let placed = a.place().unwrap();
    let out = rendered(&placed, Severity::Warning);
    assert_golden(
        &out,
        "warning[hold-hazard]: reads MEMDATA but no path from any task entry starts a fetch first\n\
         \x20 --> 000.00: T\u{2190}, RM[0] aluop0 MEMDATA\n\
         \x20  = note: the read returns whatever the last memory reference left behind",
    );
}

/// hold-hazard stays quiet (no warning) once a fetch dominates the
/// consumer — the same consumer word, now legal.
#[test]
fn hold_hazard_memdata_after_fetch_is_clean() {
    let mut a = Assembler::new();
    a.label("boot");
    a.emit(Inst::new().a(ASel::FetchT));
    a.emit(Inst::new().b(BSel::MemData).load_t());
    a.emit(Inst::new().ff_halt().goto_("boot"));
    let placed = a.place().unwrap();
    assert_golden(&rendered(&placed, Severity::Warning), "");
}

/// branch-window: a latched-flag branch placed on the continuation of a
/// call tests the callee's RETURN flags, not the caller's.
#[test]
fn branch_window_flags_from_callee() {
    let mut a = Assembler::new();
    a.label("boot");
    a.emit(Inst::new().call("sub"));
    a.emit(Inst::new().branch(Cond::Zero, "done", "spin"));
    a.label("spin");
    a.emit(Inst::new().goto_("spin"));
    a.label("done");
    a.emit(Inst::new().ff_halt().goto_("done"));
    a.label("sub");
    a.emit(Inst::new().ret());
    let placed = a.place().unwrap();
    let out = rendered(&placed, Severity::Warning);
    assert_golden(
        &out,
        "warning[branch-window]: branch on ALU=0 follows the call at 000.00: the flags come from the callee's RETURN word, not the caller\n\
         \x20 --> 000.01: RM[0] aluop0 RM[0], if ALU=0 \u{2192} pair 1\n\
         \x20  = note: intentional only if the subroutine's last instruction computes the condition",
    );
}

/// stack-depth: a loop with no conditional exit whose every circuit
/// pushes — the 64-word stack must overflow.
#[test]
fn stack_depth_unbounded_push_loop() {
    let mut a = Assembler::new();
    a.label("boot");
    a.emit(Inst::new().stack(1).load_rm().goto_("boot"));
    let placed = a.place().unwrap();
    let out = rendered(&placed, Severity::Error);
    assert_golden(
        &out,
        "error[stack-depth]: stack depth drifts without bound around a loop (net push/pop is nonzero)\n\
         \x20 --> 000.00: RM[1]\u{2190}, RM[1] aluop0 RM[1], BLOCK/STK+1, goto .00\n\
         \x20  = note: every circuit of the loop moves STACKPTR; the 64-word stack must overflow",
    );
}

/// stack-depth: a straight-line excursion wider than the hardware
/// stack — no entry depth keeps every path in range.
#[test]
fn stack_depth_excursion_past_64() {
    let mut a = Assembler::new();
    a.label("boot");
    for _ in 0..10 {
        a.emit(Inst::new().stack(7).load_rm());
    }
    a.label("halt");
    a.emit(Inst::new().ff_halt().goto_("halt"));
    let placed = a.place().unwrap();
    let out = rendered(&placed, Severity::Error);
    assert_golden(
        &out,
        "error[stack-depth]: stack excursion [+0, +70] spans more than the 64-word stack\n\
         \x20 --> 000.00: RM[7]\u{2190}, RM[7] aluop0 RM[7], BLOCK/STK+7",
    );
}

/// task-safety: the emulator parks a value in COUNT while a disk
/// handler loads it — COUNT does not survive the task switch.
#[test]
fn task_safety_count_clobbered_across_tasks() {
    let mut a = Assembler::new();
    a.label("boot");
    a.emit(Inst::new().ff(FfOp::ReadCount).load_t().goto_("boot"));
    a.label("disk:init");
    a.emit(
        Inst::new()
            .ff(FfOp::LoadCountImm(3))
            .io_block()
            .goto_("disk:init"),
    );
    let placed = a.place().unwrap();
    let out = rendered(&placed, Severity::Error);
    assert_golden(
        &out,
        "error[task-safety]: COUNT is read by the emulator task but I/O task `disk:init` writes it at 000.01; the value does not survive a task switch\n\
         \x20 --> 000.00: T\u{2190}, RM[0] aluop0 RM[0], CNT\u{2191}, goto .00\n\
         \x20  = note: COUNT, Q, SHIFTCTL and STACKPTR are shared across tasks (\u{a7}6.2); keep the value in T or an RM cell, or ensure only one task uses the register",
    );
}

/// dead-code: an emitted word behind an unconditional transfer, with no
/// label of its own, is unreachable from every task entry.
#[test]
fn dead_code_unreachable_word() {
    let mut a = Assembler::new();
    a.label("boot");
    a.emit(Inst::new().ff_halt().goto_("boot"));
    a.emit(Inst::new().goto_("boot"));
    let placed = a.place().unwrap();
    let out = rendered(&placed, Severity::Warning);
    assert_golden(
        &out,
        "warning[dead-code]: word is unreachable from every task entry\n\
         \x20 --> 000.01: RM[0] aluop0 RM[0], goto .00",
    );
}

/// dead-code: a CNT=0 branch directly after CNT<-0 — the CNT!=0 arm can
/// never be taken.
#[test]
fn dead_code_never_taken_count_arm() {
    let mut a = Assembler::new();
    a.label("boot");
    a.emit(Inst::new().ff(FfOp::LoadCountImm(0)));
    a.emit(Inst::new().branch(Cond::CntZero, "done", "boot"));
    a.label("done");
    a.emit(Inst::new().ff_halt().goto_("done"));
    let placed = a.place().unwrap();
    let out = rendered(&placed, Severity::Warning);
    assert_golden(
        &out,
        "warning[dead-code]: the CNT\u{2260}0 arm of this branch is never taken: COUNT is always 0 here\n\
         \x20 --> 000.01: RM[0] aluop0 RM[0], if CNT=0 \u{2192} pair 1\n\
         \x20  = note: the branch condition tests COUNT after this word's FF executes",
    );
}

/// dead-code: a CNT=0 branch directly after CNT<-2 — COUNT is never 0
/// there, so the CNT=0 arm can never be taken.
#[test]
fn dead_code_never_taken_count_zero_arm() {
    let mut a = Assembler::new();
    a.label("boot");
    a.emit(Inst::new().ff(FfOp::LoadCountImm(2)));
    a.emit(Inst::new().branch(Cond::CntZero, "done", "boot"));
    a.label("done");
    a.emit(Inst::new().ff_halt().goto_("done"));
    let placed = a.place().unwrap();
    let out = rendered(&placed, Severity::Warning);
    assert_golden(
        &out,
        "warning[dead-code]: the CNT=0 arm of this branch is never taken: COUNT is always in [2, 2] here\n\
         \x20 --> 000.01: RM[0] aluop0 RM[0], if CNT=0 \u{2192} pair 1\n\
         \x20  = note: the branch condition tests COUNT after this word's FF executes",
    );
}

/// dead-code: tasks power up with TPC = 0, so an occupied word 0 with
/// no label is still an emulator entry, and nothing it reaches is dead.
#[test]
fn unlabelled_word_zero_is_an_emulator_root() {
    let mut a = Assembler::new();
    a.emit(Inst::new().const16(1).load_t());
    a.emit(Inst::new().goto_("idle"));
    a.label("idle");
    a.emit(Inst::new().ff_halt().goto_("idle"));
    let placed = a.place().unwrap();
    let config = LintConfig::infer(&placed);
    assert!(
        config
            .emu_roots
            .contains(&("<word 0>".to_string(), MicroAddr::new(0))),
        "{config:?}"
    );
    assert_golden(&rendered(&placed, Severity::Warning), "");
}

/// bytecode: operand-stack underflow in a compiled `dorado-lang`
/// program renders with a source caret through the span map.
#[test]
fn bytecode_underflow_renders_source_caret() {
    use dorado_ulint::bytecode::{lint_bytecode, render_with_source};

    let src = "let x = 1;\nx + x;\nx;\n";
    let (mut bytes, map) = dorado_lang::compile_with_map(src).unwrap();
    // Corrupt the program: turn the DROP after `x + x` into a second
    // ADD, so the stack underflows at a known offset on line 2.
    assert_eq!(bytes[9], dorado_emu::mesa::Op::Drop as u8);
    bytes[9] = bytes[8];
    let diags = lint_bytecode(&bytes);
    let underflow: Vec<_> = diags
        .iter()
        .filter(|d| d.severity >= Severity::Warning)
        .collect();
    assert_eq!(underflow.len(), 1, "{diags:?}");
    let out = render_with_source(underflow[0], src, &map);
    assert_golden(
        &out,
        "error[bytecode]: operand stack underflows: depth is at most 1 but Add pops 2\n\
         \x20 --> line 2 (bytecode offset 9)\n\
         \x20  | x + x;\n\
         \x20  | ^^^^^^",
    );
}

/// The shipped emulator suites are lint-clean at -D warnings
/// strictness: zero errors, zero warnings, on every generator and on
/// the union image.
#[test]
fn shipped_suites_are_clean() {
    use dorado_emu::SuiteBuilder;
    let suites: Vec<(&str, SuiteBuilder)> = vec![
        ("mesa", SuiteBuilder::new().with_mesa()),
        ("smalltalk", SuiteBuilder::new().with_smalltalk()),
        ("lisp", SuiteBuilder::new().with_lisp()),
        ("bcpl", SuiteBuilder::new().with_bcpl()),
        ("bitblt", SuiteBuilder::new().with_mesa().with_bitblt()),
        ("cluster", SuiteBuilder::new().with_mesa().with_cluster()),
        ("everything", SuiteBuilder::everything()),
    ];
    for (name, builder) in suites {
        let suite = builder.assemble().unwrap();
        let report = lint(suite.placed());
        let loud: Vec<_> = report
            .diags
            .iter()
            .filter(|d| d.severity >= Severity::Warning)
            .map(|d| d.render(suite.placed()))
            .collect();
        assert!(loud.is_empty(), "{name}:\n{}", loud.join("\n"));
    }
}
