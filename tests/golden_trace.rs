//! Golden trace: a small fixed microprogram whose cycle-by-cycle
//! [`TraceEvent`] sequence is asserted verbatim — fetch miss, the §5.7
//! "jump to self" hold run while the fill is in flight, bypassed
//! consumers, halt.  Also proves tracing is pure observation: the traced
//! and untraced machines execute identically.

use dorado::asm::{ASel, AluOp, Assembler, BSel, Inst};
use dorado::base::{HoldCause, MicroAddr, Requester, TaskId, VirtAddr};
use dorado::core::{CacheOutcome, DoradoBuilder, Dorado, TraceEvent};

/// fetch RM[1] → consume MEMDATA into T → T+1 into RM[2] → halt.
fn build(trace: bool) -> Dorado {
    let mut a = Assembler::new();
    a.emit(Inst::new().rm(1).a(ASel::FetchR));
    a.emit(Inst::new().b(BSel::MemData).alu(AluOp::B).load_t());
    a.emit(Inst::new().rm(2).a(ASel::T).alu(AluOp::INC_A).load_rm());
    a.label("fin");
    a.emit(Inst::new().ff_halt().goto_("fin"));
    let mut m = DoradoBuilder::new()
        .microcode(a.place().unwrap())
        .build()
        .unwrap();
    m.set_rm(1, 0x1000);
    m.memory_mut().write_virt(VirtAddr::new(0x1000), 0xfeed);
    if trace {
        m.trace_enable(64);
    }
    m
}

/// The expected event stream, spelled out cycle by cycle.
fn golden() -> Vec<TraceEvent> {
    let t0 = TaskId::EMULATOR;
    let ev = |cycle: u64, addr: u16, held, cache, bypass| TraceEvent {
        cycle,
        task: t0,
        addr: MicroAddr::new(addr),
        held,
        next_task: t0,
        cache,
        bypass,
    };
    let mut want = Vec::new();
    // Cycle 0: the fetch issues and misses (cold cache).
    want.push(ev(0, 0, None, CacheOutcome::Miss, false));
    // Cycles 1–25: the MEMDATA consumer is held while the fill is in
    // flight — "no operation, jump to self" at the same address.
    for cycle in 1..=25 {
        want.push(ev(cycle, 1, Some(HoldCause::MemData), CacheOutcome::None, false));
    }
    // Cycle 26: the consumer completes, its T result bypassed forward.
    want.push(ev(26, 1, None, CacheOutcome::None, true));
    // Cycle 27: T+1 lands in RM[2], again bypassed.
    want.push(ev(27, 2, None, CacheOutcome::None, true));
    // Cycle 28: halt (no register sink, no bypass).
    want.push(ev(28, 3, None, CacheOutcome::None, false));
    want
}

#[test]
fn trace_matches_the_golden_sequence_verbatim() {
    let mut m = build(true);
    let out = m.run(1000);
    assert!(out.halted(), "{out:?}");
    assert_eq!(m.take_trace(), golden());
}

#[test]
fn trace_agrees_with_the_metrics_registry() {
    // The same run, cross-checked against the structured counters: the
    // event stream and the registry must tell one story.
    let mut m = build(true);
    assert!(m.run(1000).halted());
    let r = m.report();
    let trace = m.take_trace();
    let held = trace.iter().filter(|e| e.held.is_some()).count() as u64;
    assert_eq!(r.holds_by(TaskId::EMULATOR, HoldCause::MemData), held);
    assert_eq!(r.holds_for(HoldCause::MemData), r.holds_total());
    let misses = trace
        .iter()
        .filter(|e| e.cache == CacheOutcome::Miss)
        .count() as u64;
    assert_eq!(r.stats().cache.processor.misses(), misses);
    assert_eq!(r.cache_hit_rate(Requester::Processor), 0.0);
}

#[test]
fn tracing_is_pure_observation() {
    // Identical architectural outcome with the tracer on and off: same
    // cycle count, same registers, same counters.
    let mut traced = build(true);
    let mut untraced = build(false);
    let out_t = traced.run(1000);
    let out_u = untraced.run(1000);
    assert_eq!(out_t, out_u);
    assert_eq!(traced.t(TaskId::EMULATOR), 0xfeed);
    assert_eq!(untraced.t(TaskId::EMULATOR), 0xfeed);
    assert_eq!(traced.rm(2), 0xfeee);
    assert_eq!(untraced.rm(2), 0xfeee);
    assert_eq!(traced.stats(), untraced.stats());
    assert!(untraced.tracer().is_none(), "tracing stays off by default");
}

#[test]
fn golden_jsonl_first_and_last_lines() {
    // The JSONL export of the golden run, pinned at both ends.
    let mut m = build(true);
    assert!(m.run(1000).halted());
    let jsonl = m.tracer().unwrap().to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), 29);
    assert_eq!(
        lines[0],
        "{\"cycle\":0,\"task\":0,\"addr\":0,\"held\":null,\"next_task\":0,\"cache\":\"miss\",\"bypass\":false}"
    );
    assert_eq!(
        lines[1],
        "{\"cycle\":1,\"task\":0,\"addr\":1,\"held\":\"mem-data\",\"next_task\":0,\"cache\":\"none\",\"bypass\":false}"
    );
    assert_eq!(
        lines[28],
        "{\"cycle\":28,\"task\":0,\"addr\":3,\"held\":null,\"next_task\":0,\"cache\":\"none\",\"bypass\":false}"
    );
}
