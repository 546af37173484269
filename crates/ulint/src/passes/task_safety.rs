//! Task-safety analysis (§6.2): the Dorado multiplexes one datapath
//! between sixteen tasks, and while T, RBASE, MEMBASE, IOADDRESS and
//! the branch flags are task-specific, the small registers COUNT, Q,
//! SHIFTCTL and STACKPTR are **shared** — a task switch does not save
//! them.  A value one task leaves in a shared register is silently
//! clobbered when another task that uses the same register runs.
//!
//! When each task can be interrupted differs:
//!
//! * the **emulator task** is the lowest-priority task; any I/O wakeup
//!   preempts it at any microinstruction boundary, so *every* emulator
//!   read of a shared register is vulnerable if any I/O handler writes
//!   that register;
//! * an **I/O task** runs until it blocks (or a higher-priority task
//!   preempts it), so an I/O read is vulnerable when the value may have
//!   been set before a BLOCK yield — tracked by a small dataflow pass —
//!   or before the wakeup that entered the handler.
//!
//! Stack operations read and write STACKPTR but execute only on the
//! emulator task (BLOCK on an I/O task is a yield, not a stack op).

use dorado_asm::{BSel, Cond, ControlOp, FfOp, Microword};
use dorado_base::{MicroAddr, MICROSTORE_SIZE};

use crate::analysis::{Domain, Fixpoint};
use crate::cfg::Node;
use crate::diag::{Diagnostic, Severity};
use crate::LintConfig;

use super::{ff_function, is_stack_op, Pass, PassCtx};

/// The shared (not per-task) small registers, in reporting order; a
/// register's bit in a [`Masks`] set is `1 << index`.
const SHARED: [&str; 4] = ["COUNT", "Q", "SHIFTCTL", "STACKPTR"];
const COUNT: u8 = 1 << 0;
const Q: u8 = 1 << 1;
const SHIFTCTL: u8 = 1 << 2;
const STACKPTR: u8 = 1 << 3;
pub(crate) const ALL: u8 = COUNT | Q | SHIFTCTL | STACKPTR;

/// One word's shared-register reads and writes, decoded once, under
/// both task readings of the BLOCK bit (on the emulator task it is a
/// stack operation; on an I/O task, a yield).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Masks {
    emu_reads: u8,
    emu_writes: u8,
    io_reads: u8,
    io_writes: u8,
}

impl Masks {
    pub(crate) fn decode(word: Microword) -> Masks {
        let ff = ff_function(word);
        let ff_writes = match ff {
            Some(FfOp::LoadCount | FfOp::LoadCountImm(_) | FfOp::DecCount) => COUNT,
            Some(FfOp::LoadQ | FfOp::MulStep | FfOp::DivStep) => Q,
            Some(FfOp::LoadShiftCtl | FfOp::ShiftCtlImm(_)) => SHIFTCTL,
            Some(FfOp::LoadStackPtr) => STACKPTR,
            _ => 0,
        };
        let mut reads = match ff {
            Some(FfOp::ReadCount | FfOp::DecCount) => COUNT,
            Some(FfOp::ReadQ | FfOp::MulStep | FfOp::DivStep) => Q,
            Some(FfOp::ReadShiftCtl | FfOp::ShOut | FfOp::ShOutZ | FfOp::ShOutM) => SHIFTCTL,
            Some(FfOp::ReadStackPtr) => STACKPTR,
            _ => 0,
        };
        if matches!(
            word.control(),
            Ok(ControlOp::CondGoto {
                cond: Cond::CntZero,
                ..
            })
        ) {
            reads |= COUNT;
        }
        if word.bsel().ok() == Some(BSel::Q) {
            reads |= Q;
        }
        let stack = is_stack_op(word);
        Masks {
            emu_reads: reads | if stack { STACKPTR } else { 0 },
            emu_writes: ff_writes
                | if stack && word.stack_delta() != 0 {
                    STACKPTR
                } else {
                    0
                },
            io_reads: reads,
            io_writes: ff_writes,
        }
    }
}

/// Forward "the register may hold a value from before a yield" analysis
/// for all four shared registers inside one I/O handler region (one
/// bit each).  At the handler entry every register holds whatever ran
/// before the wakeup; a write makes it fresh; a BLOCK yield (the FF
/// executes first, then the task sleeps) makes them all stale again.
pub(crate) struct Stale<'m>(pub(crate) &'m [Masks]);

impl Domain for Stale<'_> {
    type Value = u8;
    fn entry(&self) -> u8 {
        ALL
    }
    fn join(&self, a: &u8, b: &u8) -> u8 {
        a | b
    }
    fn transfer(&self, node: &Node, v: &u8) -> u8 {
        if node.word.block() {
            ALL
        } else {
            v & !self.0[node.addr.raw() as usize].io_writes
        }
    }
}

/// The shared registers word `m` writes, and those it reads
/// vulnerably, on the emulator task: preemptible everywhere, so every
/// read is vulnerable.
pub(crate) fn emu_access(m: Masks) -> (u8, u8) {
    (m.emu_writes, m.emu_reads)
}

/// The same on an I/O task, where a read is vulnerable only while the
/// register may be `stale` (the word's [`Stale`] input).
pub(crate) fn io_access(m: Masks, stale: u8) -> (u8, u8) {
    (m.io_writes, m.io_reads & stale)
}

/// What one task region does with each shared register: its first
/// write, and its first two vulnerable reads (the first read that is
/// not the clobbering write itself is always among them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RegionUse {
    pub(crate) first_write: [Option<MicroAddr>; 4],
    pub(crate) reads: [[Option<MicroAddr>; 2]; 4],
}

impl RegionUse {
    /// Records the word at `addr`, visited in address order, with the
    /// registers it writes and reads vulnerably.
    fn record(&mut self, addr: MicroAddr, (writes, reads): (u8, u8)) {
        for k in 0..SHARED.len() {
            let bit = 1 << k;
            if writes & bit != 0 && self.first_write[k].is_none() {
                self.first_write[k] = Some(addr);
            }
            if reads & bit != 0 {
                if let Some(slot) = self.reads[k].iter_mut().find(|r| r.is_none()) {
                    *slot = Some(addr);
                }
            }
        }
    }
}

/// Appends the pass's findings over `regions` to `out`: region 0 is the
/// emulator task, region `i > 0` the handler at `config.io_roots[i - 1]`.
pub(crate) fn findings(config: &LintConfig, regions: &[RegionUse], out: &mut Vec<Diagnostic>) {
    let label = |i: usize| match i {
        0 => "the emulator task".to_string(),
        _ => format!("I/O task `{}`", config.io_roots[i - 1].0),
    };
    for (k, reg) in SHARED.iter().enumerate() {
        for (i, region) in regions.iter().enumerate() {
            // The first write of the register by any *other* region.
            let clobber = regions
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .find_map(|(j, other)| other.first_write[k].map(|a| (j, a)));
            let Some((by, at)) = clobber else { continue };
            let site = region.reads[k].iter().flatten().find(|&&a| a != at);
            if let Some(&site) = site {
                out.push(
                    Diagnostic::new(
                        NAME,
                        Severity::Error,
                        site,
                        format!(
                            "{reg} is read by {} but {} writes it at {at}; the value does \
                             not survive a task switch",
                            label(i),
                            label(by),
                        ),
                    )
                    .note(
                        "COUNT, Q, SHIFTCTL and STACKPTR are shared across tasks (§6.2); \
                         keep the value in T or an RM cell, or ensure only one task uses \
                         the register",
                    ),
                );
            }
        }
    }
}

const NAME: &str = "task-safety";

/// The task-safety pass.
pub struct TaskSafety;

impl Pass for TaskSafety {
    fn name(&self) -> &'static str {
        NAME
    }

    fn run(&self, ctx: &PassCtx<'_>) -> Vec<Diagnostic> {
        let (an, cfg) = (ctx.an, &ctx.an.cfg);
        let mut out = Vec::new();
        // A clobber needs a second task region.
        if an.config.io_roots.is_empty() {
            return out;
        }
        let mut masks = vec![Masks::default(); MICROSTORE_SIZE];
        for node in cfg.iter() {
            masks[node.addr.raw() as usize] = Masks::decode(node.word);
        }
        // Region 0 is the emulator task: preemptible everywhere, so every
        // read is vulnerable.  Each I/O handler is one region, where only
        // reads of a possibly-stale value are.  The handlers' staleness
        // solves share one solver.
        let mut regions = Vec::with_capacity(an.config.io_roots.len() + 1);
        let mut emu = RegionUse::default();
        for node in cfg.iter().filter(|n| an.emu_reached(n.addr)) {
            emu.record(node.addr, emu_access(masks[node.addr.raw() as usize]));
        }
        regions.push(emu);
        let mut stale = Fixpoint::default();
        let mut order = Vec::new();
        for &(_, root) in &an.config.io_roots {
            stale.solve(cfg, &[root], &Stale(&masks), 4);
            order.clear();
            order.extend_from_slice(stale.reached());
            order.sort_unstable();
            let mut io = RegionUse::default();
            for &addr in &order {
                let vulnerable = stale.input(addr).copied().unwrap_or(0);
                io.record(addr, io_access(masks[addr.raw() as usize], vulnerable));
            }
            regions.push(io);
        }
        findings(&an.config, &regions, &mut out);
        out
    }
}
