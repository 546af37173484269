//! Hold-shadow scheduling: reorder within a basic-block run so that
//! independent work sits between a memory-reference start and its
//! MEMDATA consumer, hiding fetch latency that would otherwise stall
//! the processor (Hold, §3.2).
//!
//! A *run* is a maximal sequence of consecutive `Item::Inst` entries
//! whose flow is `Next` (plus the terminator), with no label or
//! directive in the middle — so reordering cannot move a word across a
//! join point or an alignment constraint.  On top of that structural
//! rule, a run is only scheduled when ulint's facts say it is safe:
//!
//! * every word is reachable from emulator roots *only* — code shared
//!   with an I/O task (or reached across a task switch) is refused
//!   outright, because the shared-register and device-ordering
//!   reasoning below assumes a single task;
//! * the placed CFG confirms straight-line flow: each word's only
//!   predecessor is the previous word of the run (no dispatch entry or
//!   branch target hides mid-run);
//! * no word chains on the saved carry or runs a multiply/divide step
//!   (those constrain *adjacency*, which reordering never preserves);
//! * the last word is glued in place when the next executed word is a
//!   latched-flag branch — the branch reads the flags its immediate
//!   predecessor committed, so that predecessor must not change.
//!
//! Within the movable window, dependence edges come from
//! [`crate::deps::effects`]; the list scheduler greedily issues memory
//! starts early and defers MEMDATA consumers until the modelled fetch
//! latency has elapsed.  The reordered run is kept only when its
//! modelled stall count strictly improves, so a program with nothing to
//! gain round-trips byte-identical.

use dorado_asm::{Cond, Flow, Inst, Item, PlacedProgram};
use dorado_ulint::Analyses;

use crate::deps::{consumes_carry, consumes_memdata, effects, is_muldiv, starts_mem, Effects};
use crate::OptReport;

/// Modelled fetch-start → MEMDATA latency, in instruction slots.  The
/// cache answers a hit in two cycles and each word executes in one or
/// more, so a consumer fewer than `LATENCY` slots after its fetch is
/// modelled as stalling the difference.
const LATENCY: usize = 3;

/// Whether `flow` branches on a latched ALU flag (reads the previous
/// instruction's committed flags).
fn latched_flag_branch(flow: &Flow) -> bool {
    matches!(
        flow,
        Flow::Branch {
            cond: Cond::Zero | Cond::Neg | Cond::Carry | Cond::Overflow | Cond::ROdd,
            ..
        }
    )
}

/// Modelled stall count for `order`: each MEMDATA consumer pays the
/// unfilled portion of the latency window after the most recent
/// memory-reference start.
fn stalls(order: &[&Inst]) -> usize {
    let mut last_start = None;
    let mut total = 0;
    for (slot, inst) in order.iter().enumerate() {
        if consumes_memdata(inst) {
            if let Some(start) = last_start {
                total += LATENCY.saturating_sub(slot - start);
            }
        }
        if starts_mem(inst) {
            last_start = Some(slot);
        }
    }
    total
}

/// Greedy list scheduling over the dependence DAG: ready memory starts
/// issue first, ready MEMDATA consumers wait (when anything else is
/// ready) until the latency window has passed, and original order
/// breaks every tie — so the result is deterministic and a run with no
/// shadow to fill comes back unchanged.
fn list_schedule(movable: &[&Inst], fx: &[Effects]) -> Vec<usize> {
    let n = movable.len();
    let mut preds_left = vec![0usize; n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in i + 1..n {
            if fx[i].conflicts(&fx[j]) {
                succs[i].push(j);
                preds_left[j] += 1;
            }
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut done = vec![false; n];
    let mut last_start: Option<usize> = None;
    while order.len() < n {
        let ready: Vec<usize> = (0..n).filter(|&i| !done[i] && preds_left[i] == 0).collect();
        let slot = order.len();
        let window_open = last_start.is_some_and(|s| slot - s >= LATENCY);
        let pick = ready
            .iter()
            .copied()
            .min_by_key(|&i| {
                let inst = movable[i];
                let class = if starts_mem(inst) {
                    0
                } else if consumes_memdata(inst) && !window_open {
                    2
                } else {
                    1
                };
                (class, i)
            })
            .expect("dependence DAG is acyclic");
        if starts_mem(movable[pick]) {
            last_start = Some(slot);
        }
        done[pick] = true;
        order.push(pick);
        for &s in &succs[pick] {
            preds_left[s] -= 1;
        }
    }
    order
}

/// One schedulable run: item positions and instruction indices of the
/// movable window, plus the fixed tail (pinned flags producer and/or
/// terminator) that participates in scoring but never moves.
struct Run {
    /// Item positions of the movable window.
    movable_pos: Vec<usize>,
    /// Instruction indices of the movable window (parallel).
    movable_idx: Vec<usize>,
    /// The fixed instructions after the window, in order.
    tail: Vec<Inst>,
}

/// Schedules every safe run in `items`, consulting `placed`/`an` for
/// reachability and CFG shape.  Rewrites `items` in place and records
/// what moved (and what was refused, and why) in `report`.
pub fn schedule(items: &mut [Item], placed: &PlacedProgram, an: &Analyses, report: &mut OptReport) {
    let runs = find_runs(items, placed, an, report);
    for run in runs {
        let movable: Vec<&Inst> = run
            .movable_pos
            .iter()
            .map(|&p| match &items[p] {
                Item::Inst(inst) => inst,
                _ => unreachable!("run positions index Inst items"),
            })
            .collect();
        let fx: Vec<Effects> = movable.iter().map(|i| effects(i)).collect();
        let order = list_schedule(&movable, &fx);
        let mut candidate: Vec<&Inst> = order.iter().map(|&i| movable[i]).collect();
        let mut original = movable.clone();
        for t in &run.tail {
            candidate.push(t);
            original.push(t);
        }
        if stalls(&candidate) >= stalls(&original) {
            continue;
        }
        report.runs_scheduled += 1;
        let reordered: Vec<Inst> = order.iter().map(|&i| movable[i].clone()).collect();
        for (slot, inst) in reordered.into_iter().enumerate() {
            if order[slot] != slot {
                report.insts_moved += 1;
                report.sym_note(
                    run.movable_idx[slot],
                    format!(
                        "uopt sched: moved here (was slot {} of its block) to hide fetch latency",
                        order[slot]
                    ),
                );
            }
            items[run.movable_pos[slot]] = Item::Inst(inst);
        }
    }
}

/// Finds every run that passes the safety gate.
fn find_runs(
    items: &[Item],
    placed: &PlacedProgram,
    an: &Analyses,
    report: &mut OptReport,
) -> Vec<Run> {
    let mut runs = Vec::new();
    let mut k = 0usize; // instruction index
    let mut pos = 0usize;
    while pos < items.len() {
        if !matches!(items[pos], Item::Inst(_)) {
            pos += 1;
            continue;
        }
        let start_pos = pos;
        let start_k = k;
        loop {
            let Item::Inst(inst) = &items[pos] else {
                unreachable!("loop only advances over Inst items")
            };
            let terminator = !matches!(inst.flow, Flow::Next);
            pos += 1;
            k += 1;
            if terminator || !matches!(items.get(pos), Some(Item::Inst(_))) {
                break;
            }
        }
        if let Some(run) = gate_run(items, placed, an, report, start_pos..pos, start_k) {
            runs.push(run);
        }
    }
    runs
}

/// Applies the safety gate to the run at item positions `span`
/// (first instruction index `k0`); returns its movable window.
fn gate_run(
    items: &[Item],
    placed: &PlacedProgram,
    an: &Analyses,
    report: &mut OptReport,
    span: std::ops::Range<usize>,
    k0: usize,
) -> Option<Run> {
    let len = span.len();
    if len < 3 {
        return None; // nothing can move around a window of < 2 plus glue
    }
    report.runs_considered += 1;
    let insts: Vec<&Inst> = span
        .clone()
        .map(|p| match &items[p] {
            Item::Inst(inst) => inst,
            _ => unreachable!("runs contain only Inst items"),
        })
        .collect();

    // Task purity: emulator-only words, per ulint reachability.
    let addrs: Vec<_> = (0..len)
        .map(|i| placed.inst_addr(k0 + i).expect("every inst is placed"))
        .collect();
    for &a in &addrs {
        if an.io_reached(a) {
            report.refuse("run reachable from an I/O task (task-switch boundary)");
            return None;
        }
        if !an.emu_reached(a) {
            report.refuse("run not reachable from any emulator root");
            return None;
        }
    }
    // Straight-line shape: no joins into the middle of the run.
    for i in 1..len {
        let Some(node) = an.cfg.node(addrs[i]) else {
            report.refuse("run word missing from the CFG");
            return None;
        };
        if node.preds.as_slice() != [addrs[i - 1]] {
            report.refuse("control joins the run mid-block");
            return None;
        }
    }
    // Adjacency-sensitive operations poison the whole run.
    if insts.iter().any(|i| consumes_carry(i)) {
        report.refuse("run chains on the saved carry");
        return None;
    }
    if insts.iter().any(|i| is_muldiv(i)) {
        report.refuse("run contains multiply/divide steps");
        return None;
    }

    // The terminator (non-Next flow) never moves; additionally glue the
    // word feeding a latched-flag branch, whether the branch is the
    // terminator itself or the next executed word after the run.
    let mut fixed_tail = 0usize;
    let last = insts[len - 1];
    if !matches!(last.flow, Flow::Next) {
        fixed_tail = 1;
        if latched_flag_branch(&last.flow) {
            fixed_tail = 2; // the flags producer is glued too
        }
    } else {
        let next_inst = items[span.end..].iter().find_map(|item| match item {
            Item::Inst(inst) => Some(inst),
            _ => None,
        });
        if next_inst.is_some_and(|i| latched_flag_branch(&i.flow)) {
            fixed_tail = 1;
        }
    }
    if len - fixed_tail < 2 {
        return None;
    }
    let movable = len - fixed_tail;
    Some(Run {
        movable_pos: span.clone().take(movable).collect(),
        movable_idx: (k0..k0 + movable).collect(),
        tail: insts[movable..].iter().map(|i| (*i).clone()).collect(),
    })
}
