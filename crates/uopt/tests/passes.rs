//! Edge-case tests for the optimizer passes: byte-identity when there
//! is nothing to do, task-switch refusals, the unlabelled boot word as
//! a root, and span preservation across rewrites.

use dorado_asm::{ASel, AluOp, Assembler, BSel, Inst, Item, MicroProgram};
use dorado_base::MicroAddr;
use dorado_uopt::optimize;

/// A program with no optimization opportunities: no memory traffic to
/// schedule around, no relays, no branches.
fn opportunity_free() -> MicroProgram {
    let mut a = Assembler::new();
    a.label("boot");
    a.emit(Inst::new().const16(1).load_t());
    a.emit(Inst::new().a(ASel::T).alu(AluOp::INC_A).load_t());
    a.emit(Inst::new().goto_("boot"));
    a.program()
}

#[test]
fn zero_rewrite_round_trip_is_byte_identical() {
    let program = opportunity_free();
    let baseline = program.place().expect("places");
    let opt = optimize(&program).expect("optimizes");
    assert_eq!(
        opt.report.rewrites(),
        0,
        "nothing to rewrite: {}",
        opt.report
    );
    for raw in 0..4096u16 {
        let at = MicroAddr::new(raw);
        assert_eq!(
            baseline.word(at).raw(),
            opt.placed.word(at).raw(),
            "word at {at} differs after a zero-rewrite optimization"
        );
    }
    assert_eq!(baseline.words_used(), opt.placed.words_used());
}

#[test]
fn scheduling_is_refused_across_a_task_switch_boundary() {
    // The same shape the scheduler accepts in emulator code, but the
    // label marks it as disk-task microcode: reordering across words an
    // I/O task executes could move a store relative to the device's
    // wakeup, so the whole run is refused.
    let mut a = Assembler::new();
    a.label("disk:init");
    a.emit(Inst::new().a(ASel::FetchR).rm(0));
    a.emit(Inst::new().b(BSel::MemData).alu(AluOp::B).load_t());
    a.emit(Inst::new().a(ASel::Rm).rm(2).alu(AluOp::A).load_rm());
    a.emit(Inst::new().goto_("disk:init"));

    let opt = optimize(&a.program()).expect("optimizes");
    assert_eq!(opt.report.insts_moved, 0, "{}", opt.report);
    assert_eq!(opt.report.runs_scheduled, 0, "{}", opt.report);
    assert!(
        opt.report
            .refusals
            .contains_key("run reachable from an I/O task (task-switch boundary)"),
        "expected a task-switch refusal, got: {}",
        opt.report
    );
}

#[test]
fn rewritten_block_keeps_spans_and_annotates_the_listing() {
    // The emulator-code twin of the task-switch test: here the
    // scheduler DOES move the independent word into the fetch shadow,
    // and the annotated listing must show both the rewrite note and the
    // original source comments at the words' final addresses.
    let mut a = Assembler::new();
    a.label("boot");
    a.emit(Inst::new().a(ASel::FetchR).rm(0).note("start the fetch"));
    a.emit(
        Inst::new()
            .b(BSel::MemData)
            .alu(AluOp::B)
            .load_t()
            .note("consume memdata"),
    );
    a.emit(
        Inst::new()
            .a(ASel::Rm)
            .rm(2)
            .alu(AluOp::A)
            .load_rm()
            .note("independent work"),
    );
    a.emit(Inst::new().goto_("boot"));

    let opt = optimize(&a.program()).expect("optimizes");
    assert_eq!(opt.report.runs_scheduled, 1, "{}", opt.report);
    assert_eq!(opt.report.insts_moved, 2, "{}", opt.report);

    // The comment channel survives the reorder on the Inst values...
    let comments: Vec<&str> = opt
        .program
        .items()
        .iter()
        .filter_map(|item| match item {
            Item::Inst(inst) => inst.comment.as_deref(),
            _ => None,
        })
        .collect();
    assert_eq!(
        comments,
        ["start the fetch", "independent work", "consume memdata"],
        "the independent word moved into the fetch shadow, comments riding along"
    );

    // ...and the annotated listing shows both channels at final addresses.
    let listing = opt.listing();
    assert!(listing.contains("; ^ src: independent work"), "{listing}");
    assert!(listing.contains("; ^ src: consume memdata"), "{listing}");
    assert!(listing.contains("uopt sched: moved here"), "{listing}");
}

#[test]
fn unlabelled_boot_word_is_a_scheduling_root() {
    // The scheduled run of the test above, emitted with no label on
    // word 0: tasks power up with TPC = 0, so the run is still emulator
    // code the scheduler may reorder.
    let mut a = Assembler::new();
    a.emit(Inst::new().a(ASel::FetchR).rm(0));
    a.emit(Inst::new().b(BSel::MemData).alu(AluOp::B).load_t());
    a.emit(Inst::new().a(ASel::Rm).rm(2).alu(AluOp::A).load_rm());
    a.emit(Inst::new().goto_("idle"));
    a.label("idle");
    a.emit(Inst::new().goto_("idle"));

    let opt = optimize(&a.program()).expect("optimizes");
    assert_eq!(opt.report.runs_scheduled, 1, "{}", opt.report);
    assert_eq!(opt.report.insts_moved, 2, "{}", opt.report);
}
