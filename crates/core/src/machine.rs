//! The complete Dorado: processor, memory, IFU, and devices, stepped one
//! microcycle at a time.
//!
//! Each [`Dorado::step`] performs, in hardware order:
//!
//! 1. device clocks tick; the arbitration pipeline latches WAKEUP∪READY,
//!    priority-encodes it, and reads the winner's TPC (Figure 3 stage 1);
//! 2. the current microinstruction either executes or is **held** (§5.7) —
//!    a held instruction changes no state and becomes a jump-to-self;
//! 3. the NEXT task is chosen ("the larger of BESTNEXTTASK and THISTASK",
//!    unconditionally BESTNEXTTASK on Block), broadcast to the devices, and
//!    the next instruction's address selected — the running task's computed
//!    NEXTPC, or the incoming task's TPC on a switch;
//! 4. the IFU prefetcher and the memory pipeline advance.
//!
//! The two-cycle wakeup-to-run latency and the two-instruction minimum
//! grain of §6.2.1 emerge from the stage-1 latch being one cycle ahead of
//! the NEXT decision, exactly as in the hardware.

use dorado_asm::{
    alu_eval, shifter_output, AluFunction, AsmError, BSel, Cond, ControlOp, FfOp, MaskMode,
    Microword, PlacedProgram, ShiftCtl,
};
use dorado_base::snap::{Reader, SnapError, Snapshot, Writer};
use dorado_base::{
    ClockConfig, MicroAddr, Report, Stats, TaskId, Word, MICROSTORE_SIZE, NUM_TASKS, PAGE_SIZE,
};
pub use dorado_base::HoldCause;
use dorado_ifu::Ifu;
use dorado_io::{Device, IoSystem};
use dorado_mem::{MemConfig, MemorySystem};

use crate::control::{ControlSection, TaskingMode};
use crate::datapath::{CondFlags, DataSection};
use crate::decoded::DecodedInst;
use crate::trace::{CacheOutcome, TraceEvent, Tracer};

/// How the machine executes microcode.  There is one execution core,
/// the per-cycle interpreter in [`Dorado::step`]; this one-variant enum
/// remains only because the repository benchmark package names
/// `ExecMode::Interpreted` when it drives scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Per-cycle interpretation: fetch, decode lookup, arbitration, hold
    /// check, execute — every cycle.
    #[default]
    Interpreted,
}

/// What one [`Dorado::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepEvent {
    /// Cycle number of the executed (or held) instruction.
    pub cycle: u64,
    /// The task that owned the cycle.
    pub task: TaskId,
    /// The instruction's address.
    pub addr: MicroAddr,
    /// The hold cause, if the instruction was held.
    pub held: Option<HoldCause>,
    /// The task selected for the following cycle.
    pub next_task: TaskId,
    /// Whether the machine halted this cycle.
    pub halted: bool,
}

/// The result of [`Dorado::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// An `FF Halt` executed.
    Halted {
        /// Total cycles elapsed at the halt.
        cycles: u64,
    },
    /// The cycle budget was exhausted first.
    CycleLimit {
        /// Cycles executed.
        cycles: u64,
    },
    /// The same instruction was held for an implausibly long time — almost
    /// certainly a microcode bug (e.g. consuming more IFU operands than the
    /// opcode has).
    Wedged {
        /// The stuck instruction.
        at: MicroAddr,
        /// The stuck task.
        task: TaskId,
    },
    /// Execution reached a console breakpoint (§6.2: the role the console
    /// microcomputer's debugger played).
    Breakpoint {
        /// The breakpointed address (not yet executed).
        at: MicroAddr,
        /// The task about to execute it.
        task: TaskId,
    },
}

impl RunOutcome {
    /// Whether the machine reached a halt.
    pub fn halted(&self) -> bool {
        matches!(self, RunOutcome::Halted { .. })
    }

    /// Cycles executed, if the run ended normally.
    pub fn cycles(&self) -> Option<u64> {
        match self {
            RunOutcome::Halted { cycles } | RunOutcome::CycleLimit { cycles } => Some(*cycles),
            RunOutcome::Wedged { .. } | RunOutcome::Breakpoint { .. } => None,
        }
    }
}

/// Errors from [`DoradoBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// No microcode image was supplied.
    NoMicrocode,
    /// A microstore word failed to decode.
    Decode(MicroAddr, AsmError),
    /// A task entry label is not defined in the placed program.
    UnknownLabel(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::NoMicrocode => write!(f, "no microcode image supplied"),
            BuildError::Decode(at, e) => write!(f, "bad microword at {at}: {e}"),
            BuildError::UnknownLabel(l) => write!(f, "unknown task entry label `{l}`"),
        }
    }
}

impl std::error::Error for BuildError {}

/// A deferred register-file write (the Model-0 no-bypass pipeline model).
#[derive(Debug, Clone, Copy)]
enum WbWrite {
    T(TaskId, Word),
    Rm(usize, Word),
    Stack(usize, Word),
}

/// The deferred-writeback queue.  An instruction retires at most two
/// register-file writes — T plus one of RM/stack — so two inline slots
/// replace a heap-allocated `Vec` on the per-instruction hot path.
#[derive(Debug, Clone, Copy, Default)]
struct WbQueue {
    slots: [Option<WbWrite>; 2],
}

impl WbQueue {
    fn push(&mut self, write: WbWrite) {
        if self.slots[0].is_none() {
            self.slots[0] = Some(write);
        } else {
            debug_assert!(self.slots[1].is_none(), "at most two writes per instruction");
            self.slots[1] = Some(write);
        }
    }

    fn take(&mut self) -> [Option<WbWrite>; 2] {
        std::mem::take(&mut self.slots)
    }

    fn iter(&self) -> impl Iterator<Item = WbWrite> + '_ {
        self.slots.iter().flatten().copied()
    }

    fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }
}

/// Builder for a [`Dorado`] machine.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Default)]
pub struct DoradoBuilder {
    microcode: Option<PlacedProgram>,
    mem_cfg: Option<MemConfig>,
    clock: Option<ClockConfig>,
    bypass: Option<bool>,
    tasking: TaskingMode,
    devices: Vec<(Box<dyn Device>, Word, Word)>,
    wires: Vec<(TaskId, Word)>,
    entries: Vec<(TaskId, String)>,
    wedge_limit: Option<u64>,
}

impl DoradoBuilder {
    /// Starts a builder with all defaults (production machine).
    pub fn new() -> Self {
        DoradoBuilder::default()
    }

    /// Supplies the placed microcode image (required).
    #[must_use]
    pub fn microcode(mut self, placed: PlacedProgram) -> Self {
        self.microcode = Some(placed);
        self
    }

    /// Overrides the memory configuration.
    #[must_use]
    pub fn memory(mut self, cfg: MemConfig) -> Self {
        self.mem_cfg = Some(cfg);
        self
    }

    /// Overrides the clock (stitchweld vs multiwire, §2).
    #[must_use]
    pub fn clock(mut self, clock: ClockConfig) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Enables or disables the §5.6 bypassing hardware (disable for the
    /// Model-0 ablation).
    #[must_use]
    pub fn bypass(mut self, on: bool) -> Self {
        self.bypass = Some(on);
        self
    }

    /// Selects the tasking mode (§6.2.1 grain ablation).
    #[must_use]
    pub fn tasking(mut self, mode: TaskingMode) -> Self {
        self.tasking = mode;
        self
    }

    /// Attaches a device at `base..base+regs` on the IOADDRESS bus.
    #[must_use]
    pub fn device(mut self, dev: Box<dyn Device>, base: Word, regs: Word) -> Self {
        self.devices.push((dev, base, regs));
        self
    }

    /// Presets a task's IOADDRESS register (the wiring between a controller
    /// and its task; microcode may overwrite it with `LoadIoAddress`).
    #[must_use]
    pub fn wire_ioaddress(mut self, task: TaskId, ioaddr: Word) -> Self {
        self.wires.push((task, ioaddr));
        self
    }

    /// Sets a task's initial TPC to the placed address of `label`.
    #[must_use]
    pub fn task_entry(mut self, task: TaskId, label: impl Into<String>) -> Self {
        self.entries.push((task, label.into()));
        self
    }

    /// Overrides the wedge detector threshold (consecutive held cycles of
    /// one instruction before [`RunOutcome::Wedged`]).
    #[must_use]
    pub fn wedge_limit(mut self, cycles: u64) -> Self {
        self.wedge_limit = Some(cycles);
        self
    }

    /// Builds the machine.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for a missing image, undecodable microwords,
    /// or unknown entry labels.
    pub fn build(self) -> Result<Dorado, BuildError> {
        let placed = self.microcode.ok_or(BuildError::NoMicrocode)?;
        let mut store = Vec::with_capacity(MICROSTORE_SIZE);
        let mut decoded = Vec::with_capacity(MICROSTORE_SIZE);
        for (i, &w) in placed.words().iter().enumerate() {
            let d = DecodedInst::decode(w)
                .map_err(|e| BuildError::Decode(MicroAddr::new(i as u16), e))?;
            store.push(w);
            decoded.push(d);
        }
        let labels: std::collections::HashMap<String, MicroAddr> = placed
            .labels()
            .map(|(k, v)| (k.to_string(), v))
            .collect();

        let mut io = IoSystem::new();
        for (dev, base, regs) in self.devices {
            io.attach(dev, base, regs);
        }
        let mut machine = Dorado {
            dp: DataSection::new(),
            control: ControlSection::new(),
            mem: MemorySystem::new(self.mem_cfg.unwrap_or_default()),
            ifu: Ifu::new(),
            io,
            store,
            decoded,
            labels,
            bypass: self.bypass.unwrap_or(true),
            pending_wb: WbQueue::default(),
            tasking: self.tasking,
            clock: self.clock.unwrap_or_default(),
            stats: Stats::new(),
            slow_io_words: 0,
            halted: false,
            tracer: None,
            consecutive_holds: 0,
            wedge_limit: self.wedge_limit.unwrap_or(100_000),
            breakpoints: std::collections::HashSet::new(),
        };
        for (task, ioaddr) in self.wires {
            machine.dp.ioaddress[task.index()] = ioaddr;
        }
        for (task, label) in self.entries {
            let addr = machine
                .labels
                .get(&label)
                .copied()
                .ok_or(BuildError::UnknownLabel(label))?;
            machine.control.tpc[task.index()] = addr;
            if task == TaskId::EMULATOR {
                machine.control.this_pc = addr;
            }
        }
        Ok(machine)
    }
}

/// A complete Dorado machine.
pub struct Dorado {
    dp: DataSection,
    control: ControlSection,
    mem: MemorySystem,
    ifu: Ifu,
    io: IoSystem,
    store: Vec<Microword>,
    decoded: Vec<DecodedInst>,
    labels: std::collections::HashMap<String, MicroAddr>,
    bypass: bool,
    pending_wb: WbQueue,
    tasking: TaskingMode,
    clock: ClockConfig,
    stats: Stats,
    slow_io_words: u64,
    halted: bool,
    tracer: Option<Tracer>,
    consecutive_holds: u64,
    wedge_limit: u64,
    breakpoints: std::collections::HashSet<MicroAddr>,
}

impl std::fmt::Debug for Dorado {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dorado")
            .field("task", &self.control.this_task)
            .field("pc", &self.control.this_pc)
            .field("cycles", &self.stats.cycles)
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}

impl Dorado {
    /// Executes one microcycle.
    pub fn step(&mut self) -> StepEvent {
        // Monomorphize on tracing so the untraced hot path carries no
        // probe reads, no `Option` checks, and no record call at all.
        if self.tracer.is_some() {
            self.step_impl::<true>()
        } else {
            self.step_impl::<false>()
        }
    }

    fn step_impl<const TRACED: bool>(&mut self) -> StepEvent {
        let task = self.control.this_task;
        let at = self.control.this_pc;
        let inst = self.decoded[at.raw() as usize];

        // Phase 1: device clocks and the arbitration latch (Figure 3,
        // stage 1).  The wakeups are sampled *before* this cycle's NEXT
        // broadcast, which is what makes the minimum grain two
        // instructions (§6.2.1).
        self.io.tick();
        let mut wake_requests = self.io.wakeups();
        wake_requests.insert(TaskId::EMULATOR); // task 0 always requests (§5.1)
        let requests = wake_requests.union(self.control.ready);
        let stage1 = self.control.stage1;
        self.control.arbitrate(requests);

        // Phase 2: hold check, then execution.  The cache-counter probe
        // exists only in the traced instantiation, so the tracing-off path
        // stays free.  (Only the processor and fast-I/O ports: the IFU
        // port belongs to the prefetcher, which runs in phase 4.)
        let probe = if TRACED {
            let c = &self.mem.counters().cache;
            (
                c.processor.refs + c.fast_io.refs,
                c.processor.hits + c.fast_io.hits,
            )
        } else {
            (0, 0)
        };
        let held = self.check_hold(&inst, task);
        let this_task_next_pc;
        let mut block_effective = false;
        let mut halted_now = false;
        if let Some(cause) = held {
            // "No operation, jump to self" — clocks keep running (§5.7),
            // so the previous instruction's writeback still lands.
            self.drain_wb();
            this_task_next_pc = at;
            self.stats.held[task.index()] += 1;
            self.stats.held_by[task.index()][cause.index()] += 1;
            self.consecutive_holds += 1;
        } else {
            let (next_pc, halt) = self.execute(&inst, task, at);
            this_task_next_pc = next_pc;
            block_effective = inst.block && task != TaskId::EMULATOR;
            self.stats.executed[task.index()] += 1;
            self.consecutive_holds = 0;
            if halt {
                self.halted = true;
                halted_now = true;
            }
        }

        // Phase 3: the NEXT decision uses the *previous* cycle's stage-1
        // latch (the second pipe stage of Figure 3).
        let next = if block_effective || stage1.task > task {
            stage1.task
        } else {
            task
        };
        self.control.tpc[task.index()] = this_task_next_pc;
        if next != task {
            self.stats.task_switches += 1;
            if block_effective {
                self.control.ready.remove(task);
            } else {
                // Preempted: the hardware remembers it in READY (§6.2.1).
                self.control.ready.insert(task);
            }
        } else if block_effective {
            self.control.ready.remove(task);
        }
        // A READY bit is *consumed* by the dispatch it wins: clear it and
        // re-arbitrate this cycle's latch (still using the wakeups sampled
        // at the cycle's start, so device wakeups keep their two-cycle
        // pipeline behaviour).  Without this, a task that resumes from
        // preemption and blocks immediately would get one ghost
        // re-dispatch from the stale arbitration pipe.
        if self.control.ready.contains(next) {
            self.control.ready.remove(next);
            self.control
                .arbitrate(wake_requests.union(self.control.ready));
        }
        if matches!(self.tasking, TaskingMode::OnDemand) {
            self.io.observe_next(next);
        }
        self.control.this_task = next;
        self.control.this_pc = if next != task {
            self.control.tpc[next.index()]
        } else {
            this_task_next_pc
        };

        // Phase 4: the rest of the machine advances.
        self.ifu.tick(&mut self.mem);
        self.mem.tick();
        let cycle = self.stats.cycles;
        self.stats.cycles += 1;

        let event = StepEvent {
            cycle,
            task,
            addr: at,
            held,
            next_task: next,
            halted: halted_now,
        };
        if let Some(tracer) = self.tracer.as_mut().filter(|_| TRACED) {
            let (refs_before, hits_before) = probe;
            let c = &self.mem.counters().cache;
            let (refs_after, hits_after) = (
                c.processor.refs + c.fast_io.refs,
                c.processor.hits + c.fast_io.hits,
            );
            let cache = if refs_after == refs_before {
                CacheOutcome::None
            } else if hits_after > hits_before {
                CacheOutcome::Hit
            } else {
                CacheOutcome::Miss
            };
            let bypass = held.is_none()
                && self.bypass
                && (inst.load.loads_t() || inst.load.loads_rm());
            tracer.record(TraceEvent {
                cycle,
                task,
                addr: at,
                held,
                next_task: next,
                cache,
                bypass,
            });
        }
        event
    }

    /// Runs until halt, a breakpoint, the cycle budget, or a wedge.
    pub fn run(&mut self, max_cycles: u64) -> RunOutcome {
        let start = self.stats.cycles;
        if self.breakpoints.is_empty() {
            // Hot path: no per-cycle breakpoint probe, and the wedge test
            // runs only where it can newly fire — `consecutive_holds`
            // grows on held cycles alone, so executed cycles need just the
            // halt and budget checks.
            while !self.halted {
                if self.stats.cycles - start >= max_cycles {
                    return RunOutcome::CycleLimit {
                        cycles: self.stats.cycles - start,
                    };
                }
                if self.consecutive_holds > self.wedge_limit {
                    return RunOutcome::Wedged {
                        at: self.control.this_pc,
                        task: self.control.this_task,
                    };
                }
                loop {
                    let ev = self.step();
                    if ev.held.is_some()
                        || self.halted
                        || self.stats.cycles - start >= max_cycles
                    {
                        break;
                    }
                }
            }
            return RunOutcome::Halted {
                cycles: self.stats.cycles - start,
            };
        }
        while !self.halted {
            if self.stats.cycles - start >= max_cycles {
                return RunOutcome::CycleLimit {
                    cycles: self.stats.cycles - start,
                };
            }
            if self.consecutive_holds > self.wedge_limit {
                return RunOutcome::Wedged {
                    at: self.control.this_pc,
                    task: self.control.this_task,
                };
            }
            if self.stats.cycles > start && self.breakpoints.contains(&self.control.this_pc)
            {
                return RunOutcome::Breakpoint {
                    at: self.control.this_pc,
                    task: self.control.this_task,
                };
            }
            self.step();
        }
        RunOutcome::Halted {
            cycles: self.stats.cycles - start,
        }
    }

    /// Runs *exactly* `cycles` microcycles, stopping early only on halt;
    /// returns the cycles actually stepped.
    ///
    /// Unlike [`Dorado::run`], breakpoints and wedge detection do not cut
    /// the quantum short: a cluster executor needs every machine to cover
    /// the same simulated window so that epoch boundaries line up, and a
    /// machine spinning in an idle loop (all wakeups drained) must keep
    /// consuming cycles rather than trip the wedge detector.
    pub fn run_quantum(&mut self, cycles: u64) -> u64 {
        let start = self.stats.cycles;
        while !self.halted && self.stats.cycles - start < cycles {
            self.step();
        }
        self.stats.cycles - start
    }

    /// Sets a microstore breakpoint: [`Dorado::run`] stops *before* the
    /// word at `addr` executes.
    pub fn add_breakpoint(&mut self, addr: MicroAddr) {
        self.breakpoints.insert(addr);
    }

    /// Removes a breakpoint; returns whether it existed.
    pub fn remove_breakpoint(&mut self, addr: MicroAddr) -> bool {
        self.breakpoints.remove(&addr)
    }

    /// Clears the halted flag so the machine can be stepped again (the
    /// console restart path).
    pub fn resume(&mut self) {
        self.halted = false;
    }

    /// Whether an `FF Halt` has executed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    // --- hold computation -----------------------------------------------

    fn check_hold(&mut self, inst: &DecodedInst, task: TaskId) -> Option<HoldCause> {
        // MEMDATA consumers (B bus or the shifter's MEMDATA mask).
        let uses_memdata =
            inst.bsel == BSel::MemData || inst.ff_op == Some(FfOp::ShOutM);
        if uses_memdata && !self.mem.memdata_ready(task) {
            return Some(HoldCause::MemData);
        }
        // IFU operand on the A bus (including operand-addressed refs).
        if inst.asel.uses_ifudata() && self.ifu.operands_remaining() == 0 {
            return Some(HoldCause::IfuOperand);
        }
        // Memory reference starts.
        if inst.asel.starts_memory_ref() {
            let a = self.read_a_for_address(inst, task);
            let vaddr = self.mem.resolve(self.dp.membase(task), a);
            if inst.asel.is_fetch() {
                if !self.mem.fetch_pipe_free(task) {
                    return Some(HoldCause::MemPipe);
                }
                if !self.mem.would_hit(vaddr) && !self.mem.storage_free() {
                    return Some(HoldCause::MemStorage);
                }
            } else if !self.mem.can_start_store(vaddr) {
                return Some(HoldCause::MemStorage);
            }
        }
        // Fast I/O needs a storage cycle.
        if matches!(inst.ff_op, Some(FfOp::IoFetch16) | Some(FfOp::IoStore16))
            && !self.mem.storage_free()
        {
            return Some(HoldCause::MemStorage);
        }
        // IFUJump needs a decoded opcode.
        if inst.control == ControlOp::IfuJump && self.ifu.dispatch_peek().is_none() {
            return Some(HoldCause::IfuDispatch);
        }
        None
    }

    /// The A-bus value for address formation, without consuming anything
    /// (IFU operands are peeked; the execute phase consumes them).
    fn read_a_for_address(&self, inst: &DecodedInst, task: TaskId) -> Word {
        let stack_op = inst.block && task == TaskId::EMULATOR;
        if inst.asel.uses_ifudata() {
            self.ifu.peek_operand().unwrap_or(0)
        } else if inst.asel.reads_rm() {
            if stack_op {
                self.dp.stack_read()
            } else {
                self.dp.rm[self.dp.rm_address(task, inst.raddr)]
            }
        } else {
            self.dp.t[task.index()]
        }
    }

    // --- execution ---------------------------------------------------------

    /// Commits the previous instruction's register-file writes.  In bypass
    /// mode writes were applied immediately and this is a no-op; in Model-0
    /// mode it runs after the current instruction's operands are read.
    fn drain_wb(&mut self) {
        for w in self.pending_wb.take().into_iter().flatten() {
            match w {
                WbWrite::T(task, v) => self.dp.t[task.index()] = v,
                WbWrite::Rm(i, v) => self.dp.rm[i] = v,
                WbWrite::Stack(i, v) => self.dp.stack[i] = v,
            }
        }
    }

    fn execute(&mut self, inst: &DecodedInst, task: TaskId, at: MicroAddr) -> (MicroAddr, bool) {
        let stack_op = inst.block && task == TaskId::EMULATOR;
        let rm_idx = self.dp.rm_address(task, inst.raddr);
        let rm_or_stack = if stack_op {
            self.dp.stack_read()
        } else {
            self.dp.rm[rm_idx]
        };
        let t_val = self.dp.t[task.index()];

        // Operand reads (before the previous writeback commits, which is
        // what makes the Model-0 mode see stale values).
        let a: Word = match inst.asel {
            s if s.reads_rm() => rm_or_stack,
            s if s.reads_t() => t_val,
            s if s.uses_ifudata() => self.ifu.ifudata().expect("hold-checked"),
            _ => unreachable!("every ASel reads RM, T, or IFUDATA"),
        };
        let b: Word = match inst.bsel {
            BSel::Rm => rm_or_stack,
            BSel::T => t_val,
            BSel::Q => self.dp.q,
            BSel::MemData => self.mem.memdata(task).expect("hold-checked"),
            _ => inst.bconst,
        };

        // Previous instruction's writeback commits now (§5.6, Figure 4):
        // with bypassing this already happened at execute time.
        self.drain_wb();

        // ALU (first half of the execution, Figure 2).
        let f = self.dp.alufm[inst.aluop.index()];
        let saved_carry = self.dp.flags[task.index()].carry;
        let alu = alu_eval(f, a, b, saved_carry);
        let mut result = alu.result;
        let mut flags = CondFlags::from_result(alu.result, alu.carry, alu.overflow);
        let mut io_input_word: Option<Word> = None;
        let mut halt = false;

        // FF function (§5.5).
        if let Some(op) = inst.ff_op {
            match op {
                FfOp::Nop => {}
                FfOp::ReadRBase => result = Word::from(self.dp.rbase(task)),
                FfOp::ReadStackPtr => result = Word::from(self.dp.stackptr()),
                FfOp::ReadCount => result = self.dp.count,
                FfOp::ReadShiftCtl => result = self.dp.shiftctl.raw(),
                FfOp::ReadLink => result = self.control.link[task.index()].raw(),
                FfOp::ReadQ => result = self.dp.q,
                FfOp::ReadMemBase => result = self.dp.membase(task).index() as Word,
                FfOp::ReadIoAddress => result = self.dp.ioaddress[task.index()],
                FfOp::MulStep => {
                    // One shift-add multiply step (§6.3.3): A is the
                    // accumulator, B the multiplicand, Q the multiplier.
                    let (sum, c) = if self.dp.q & 1 == 1 {
                        a.overflowing_add(b)
                    } else {
                        (a, false)
                    };
                    result = (sum >> 1) | (Word::from(c) << 15);
                    self.dp.q = (self.dp.q >> 1) | ((sum & 1) << 15);
                    flags = CondFlags::from_result(result, c, false);
                }
                FfOp::DivStep => {
                    // One restoring divide step: A:Q is the dividend, B the
                    // divisor; quotient bits shift into Q.
                    let r2 = (u32::from(a) << 1) | u32::from(self.dp.q >> 15);
                    let (r, qbit) = if r2 >= u32::from(b) && b != 0 {
                        (r2 - u32::from(b), 1)
                    } else {
                        (r2, 0)
                    };
                    result = r as Word;
                    self.dp.q = (self.dp.q << 1) | qbit;
                    flags = CondFlags::from_result(result, qbit == 1, false);
                }
                FfOp::Halt => halt = true,
                FfOp::IoInput => {
                    let w = self.io.input(self.dp.ioaddress[task.index()]);
                    io_input_word = Some(w);
                    // When combined with a store, the input word travels
                    // the direct IODATA→memory path (§5.8) and RESULT
                    // stays with the ALU (free for the pointer bump that
                    // makes "three cycles ... two words" possible, §7).
                    if !inst.asel.is_store() {
                        result = w;
                    }
                    self.slow_io_words += 1;
                }
                FfOp::IoOutput => {
                    self.io.output(self.dp.ioaddress[task.index()], b);
                    self.slow_io_words += 1;
                }
                FfOp::IoNotify => self.io.notify(self.dp.ioaddress[task.index()]),
                FfOp::IoFetch16 => {
                    let vaddr = self.mem.resolve(self.dp.membase(task), a);
                    let munch = self.mem.fast_fetch(vaddr).expect("hold-checked");
                    self.io
                        .accept_munch(self.dp.ioaddress[task.index()], &munch);
                }
                FfOp::IoStore16 => {
                    let vaddr = self.mem.resolve(self.dp.membase(task), a);
                    let munch = self.io.supply_munch(self.dp.ioaddress[task.index()]);
                    self.mem.fast_store(vaddr, &munch).expect("hold-checked");
                }
                FfOp::LoadBase => {
                    self.mem.set_base_reg(self.dp.membase(task), u32::from(b));
                }
                FfOp::ReadBase => {
                    result = self.mem.base_reg(self.dp.membase(task)) as Word;
                }
                FfOp::WriteTpc => {
                    let target = TaskId::from_bits((b >> 12) as u8);
                    self.control.tpc[target.index()] = MicroAddr::new(b & 0xfff);
                }
                FfOp::ReadTpc => {
                    let target = TaskId::from_bits((b >> 12) as u8);
                    result = self.control.tpc[target.index()].raw();
                }
                FfOp::LoadRBase => self.dp.set_rbase(task, b as u8),
                FfOp::LoadMemBase => self.dp.set_membase(task, b as u8),
                FfOp::LoadStackPtr => self.dp.set_stackptr(b as u8),
                FfOp::LoadCount => self.dp.count = b,
                FfOp::LoadShiftCtl => self.dp.shiftctl = ShiftCtl::from_raw(b),
                FfOp::LoadQ => self.dp.q = b,
                FfOp::LoadIoAddress => self.dp.ioaddress[task.index()] = b,
                FfOp::LoadLink => {
                    self.control.link[task.index()] = MicroAddr::new(b)
                }
                FfOp::DecCount => self.dp.count = self.dp.count.wrapping_sub(1),
                FfOp::ResetStackError => self.dp.stack_error = false,
                FfOp::IfuLoadPc => {
                    self.ifu.jump(u32::from(b));
                    self.mem.ifu_abort_fetch();
                }
                FfOp::IfuReadPc => result = self.ifu.pc() as Word,
                FfOp::LoadMemBaseImm(n) => self.dp.set_membase(task, n),
                FfOp::LoadCountImm(n) => self.dp.count = Word::from(n),
                FfOp::WakeTask(t) => self.control.ready.insert(t),
                FfOp::ShiftCtlImm(n) => self.dp.shiftctl = ShiftCtl::left_cycle(n),
                FfOp::ShOut | FfOp::ShOutZ | FfOp::ShOutM => {
                    let mode = match op {
                        FfOp::ShOut => MaskMode::None,
                        FfOp::ShOutZ => MaskMode::Zeroes,
                        _ => MaskMode::MemData,
                    };
                    let md = if mode == MaskMode::MemData {
                        self.mem.memdata(task).expect("hold-checked")
                    } else {
                        0
                    };
                    result =
                        shifter_output(self.dp.shiftctl, rm_or_stack, t_val, md, mode);
                }
                FfOp::LoadAluFm(n) => {
                    if let Ok(func) = AluFunction::decode((b & 0x3f) as u8) {
                        self.dp.alufm[usize::from(n)] = func;
                    }
                }
                _ => {}
            }
        }

        // Memory reference start (ASelect, §6.3.1).  A combined
        // `Input`+store moves the device word straight to memory; a
        // combined fetch+`Output` moved MEMDATA out on the same cycle —
        // "both the memory reference and the I/O transfer can be specified
        // in a single instruction" (§5.8).
        if inst.asel.starts_memory_ref() {
            let vaddr = self.mem.resolve(self.dp.membase(task), a);
            if inst.asel.is_fetch() {
                self.mem.start_fetch(task, vaddr).expect("hold-checked");
            } else {
                let data = io_input_word.unwrap_or(b);
                self.mem
                    .start_store(task, vaddr, data)
                    .expect("hold-checked");
            }
        }

        // NEXTPC (§5.5, §6.2.2) — branch conditions read the *previous*
        // instruction's flags (the task-specific branch-condition register,
        // §5.3), except the live COUNT/attention/stack tests.
        let at_plus_1 = MicroAddr::new(at.raw().wrapping_add(1));
        let next_pc = match inst.control {
            ControlOp::Goto { offset } => at.with_offset(offset.into()),
            ControlOp::GotoLong { offset } => {
                MicroAddr::from_parts(inst.ff_raw.into(), offset.into())
            }
            ControlOp::Call { offset } => {
                self.control.link[task.index()] = at_plus_1;
                at.with_offset(offset.into())
            }
            ControlOp::CallLong { offset } => {
                self.control.link[task.index()] = at_plus_1;
                MicroAddr::from_parts(inst.ff_raw.into(), offset.into())
            }
            ControlOp::CondGoto { cond, pair } => {
                let taken = self.cond_value(cond, task);
                at.with_offset(u16::from(pair) * 2).or_low_bit(taken)
            }
            ControlOp::Return => {
                // "LINK ... is loaded with THISPC+1 on every microcode call
                // or return" — the exchange enables coroutines (§6.2.3).
                let ret = self.control.link[task.index()];
                self.control.link[task.index()] = at_plus_1;
                ret
            }
            ControlOp::IfuJump => {
                let (entry, membase) = self.ifu.dispatch().expect("hold-checked");
                if let Some(mb) = membase {
                    // "MEMBASE ... can also be loaded from the IFU at the
                    // start of a macroinstruction" (§6.3.3).
                    self.dp.set_membase(task, mb);
                }
                self.stats.macro_instructions += 1;
                entry
            }
            ControlOp::Dispatch8 { base_hi } => {
                let base = if base_hi { 8u16 } else { 0 };
                MicroAddr::from_parts(inst.ff_raw.into(), base + (b & 7))
            }
            ControlOp::Dispatch256 => {
                MicroAddr::new((u16::from(inst.ff_raw & 0xf) << 8) | (b & 0xff))
            }
        };

        // Writebacks (RESULT into T and RM/stack, Figure 2's final half
        // cycle).  STACKPTR adjusts for every stack op, read or write.
        let mut writes = WbQueue::default();
        if inst.load.loads_t() {
            writes.push(WbWrite::T(task, result));
        }
        if stack_op {
            let waddr = self.dp.stack_bump(inst.stack_delta());
            if inst.load.loads_rm() {
                writes.push(WbWrite::Stack(waddr, result));
            }
        } else if inst.load.loads_rm() {
            writes.push(WbWrite::Rm(rm_idx, result));
        }
        self.pending_wb = writes;
        if self.bypass {
            self.drain_wb();
        }

        // Commit the branch-condition register for the next instruction.
        self.dp.flags[task.index()] = flags;

        (next_pc, halt)
    }

    fn cond_value(&mut self, cond: Cond, task: TaskId) -> bool {
        let f = self.dp.flags[task.index()];
        match cond {
            Cond::Zero => f.zero,
            Cond::Neg => f.neg,
            Cond::Carry => f.carry,
            Cond::Overflow => f.overflow,
            Cond::ROdd => f.odd,
            Cond::CntZero => self.dp.count == 0,
            Cond::IoAtten => self.io.attention(self.dp.ioaddress[task.index()]),
            Cond::StackError => self.dp.stack_error,
        }
    }

    // --- host access -----------------------------------------------------

    /// Merged machine statistics.
    pub fn stats(&self) -> Stats {
        let mut s = self.stats.clone();
        let mc = self.mem.counters();
        s.cache_refs = mc.cache_refs();
        s.cache_hits = mc.cache_hits();
        s.storage_refs = mc.storage_refs();
        s.fast_io_munches = mc.fast_munches();
        s.slow_io_words = self.slow_io_words;
        s.ifu_fetches = mc.ifu_refs();
        s.io_overruns = self.io.rx_overruns();
        s.cache = mc.cache;
        s.storage = mc.storage;
        s.ifu = *self.ifu.counters();
        s
    }

    /// A [`Report`] over the counters accumulated since reset, rendered
    /// with this machine's clock — the §7 tables as a queryable value.
    pub fn report(&self) -> Report {
        Report::new(self.stats(), self.clock)
    }

    /// The clock configuration.
    pub fn clock(&self) -> &ClockConfig {
        &self.clock
    }

    /// Elapsed cycles.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// The task-specific T register.
    pub fn t(&self, task: TaskId) -> Word {
        self.dp.t[task.index()]
    }

    /// Sets the task-specific T register.
    pub fn set_t(&mut self, task: TaskId, value: Word) {
        self.dp.t[task.index()] = value;
    }

    /// An RM register.
    pub fn rm(&self, index: usize) -> Word {
        self.dp.rm[index]
    }

    /// Sets an RM register.
    pub fn set_rm(&mut self, index: usize, value: Word) {
        self.dp.rm[index] = value;
    }

    /// The COUNT register.
    pub fn count(&self) -> Word {
        self.dp.count
    }

    /// The Q register.
    pub fn q(&self) -> Word {
        self.dp.q
    }

    /// Sets the Q register.
    pub fn set_q(&mut self, value: Word) {
        self.dp.q = value;
    }

    /// The data section (full host visibility).
    pub fn datapath(&self) -> &DataSection {
        &self.dp
    }

    /// Mutable data section access (host preloading).
    pub fn datapath_mut(&mut self) -> &mut DataSection {
        &mut self.dp
    }

    /// The control section.
    pub fn control(&self) -> &ControlSection {
        &self.control
    }

    /// Mutable control section access (set TPCs, READY, ...).
    pub fn control_mut(&mut self) -> &mut ControlSection {
        &mut self.control
    }

    /// The memory system.
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// Mutable memory access (host preloading).
    pub fn memory_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// The IFU.
    pub fn ifu(&self) -> &Ifu {
        &self.ifu
    }

    /// Mutable IFU access (decode tables, code base).
    pub fn ifu_mut(&mut self) -> &mut Ifu {
        &mut self.ifu
    }

    /// The I/O interconnect.
    pub fn io(&self) -> &IoSystem {
        &self.io
    }

    /// Mutable I/O access.
    pub fn io_mut(&mut self) -> &mut IoSystem {
        &mut self.io
    }

    /// Mutably borrows an attached device, downcast to its concrete type.
    pub fn device_mut<T: Device>(&mut self, name: &str) -> Option<&mut T> {
        self.io
            .device_by_name_mut(name)?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Re-enters the microcode at `label` on the emulator task: resets
    /// the task-0 PC, clears the halt latch, and leaves every register
    /// and memory word intact.  This is how a host driver invokes
    /// several microcode routines in sequence on one machine (e.g.
    /// successive BitBlt calls).
    ///
    /// Returns the entry address, or `None` when the label is unknown.
    pub fn restart_at(&mut self, label: &str) -> Option<MicroAddr> {
        let addr = self.label(label)?;
        self.control.tpc[TaskId::EMULATOR.index()] = addr;
        self.control.this_task = TaskId::EMULATOR;
        self.control.this_pc = addr;
        self.halted = false;
        self.consecutive_holds = 0;
        Some(addr)
    }

    /// The placed address of a microcode label.
    pub fn label(&self, name: &str) -> Option<MicroAddr> {
        self.labels.get(name).copied()
    }

    /// Reads a microstore word (the read path of §6.2.3).
    pub fn read_microstore(&self, addr: MicroAddr) -> Microword {
        self.store[addr.raw() as usize]
    }

    /// Writes a microstore word ("the Dorado's microstore is writeable",
    /// §6.2.3), re-decoding it.
    ///
    /// # Errors
    ///
    /// Returns an error if the word has reserved encodings.
    pub fn write_microstore(&mut self, addr: MicroAddr, word: Microword) -> Result<(), AsmError> {
        let d = DecodedInst::decode(word)?;
        self.store[addr.raw() as usize] = word;
        self.decoded[addr.raw() as usize] = d;
        // The I/O decode hint is dropped so no fast path survives a
        // control-store write with stale state.
        self.io.reset_decode_cache();
        Ok(())
    }

    /// Enables tracing into a ring buffer keeping the last `capacity`
    /// events.  Tracing is off by default and costs nothing while off.
    pub fn trace_enable(&mut self, capacity: usize) {
        self.tracer = Some(Tracer::new(capacity));
    }

    /// Disables tracing, returning the tracer (with its retained events)
    /// if one was active.
    pub fn trace_disable(&mut self) -> Option<Tracer> {
        self.tracer.take()
    }

    /// The active tracer, if tracing is enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Takes the accumulated trace, oldest first (tracing stays enabled).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        match &mut self.tracer {
            Some(tracer) => tracer.take(),
            None => Vec::new(),
        }
    }

    /// The page size constant, re-exported for microcode tooling.
    pub const PAGE_SIZE: usize = PAGE_SIZE;

    /// Number of microcode tasks.
    pub const NUM_TASKS: usize = NUM_TASKS;
}

impl Snapshot for Dorado {
    /// Saves every piece of dynamic machine state: datapath, control
    /// section, memory system (cache, storage, in-flight fetches), IFU,
    /// devices, statistics, and the deferred-writeback queue.
    ///
    /// Configuration — the microcode image, decode tables, clock, tasking
    /// mode, breakpoints, and the tracer — stays with the live object: a
    /// snapshot restores onto a machine built the same way, and
    /// `restore` rejects images whose shape disagrees.
    fn save(&self, w: &mut Writer) {
        w.tag(b"DRDO");
        self.dp.save(w);
        self.control.save(w);
        self.mem.save(w);
        self.ifu.save(w);
        self.io.save(w);
        self.stats.save(w);
        w.u64(self.slow_io_words);
        w.bool(self.halted);
        w.u64(self.consecutive_holds);
        w.len(self.pending_wb.len());
        for wb in self.pending_wb.iter() {
            match wb {
                WbWrite::T(task, v) => {
                    w.u8(0);
                    w.u8(task.number());
                    w.u16(v);
                }
                WbWrite::Rm(i, v) => {
                    w.u8(1);
                    w.u64(i as u64);
                    w.u16(v);
                }
                WbWrite::Stack(i, v) => {
                    w.u8(2);
                    w.u64(i as u64);
                    w.u16(v);
                }
            }
        }
    }

    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        r.tag(b"DRDO")?;
        // `IoSystem::restore` drops its own decode hint.
        self.dp.restore(r)?;
        self.control.restore(r)?;
        self.mem.restore(r)?;
        self.ifu.restore(r)?;
        self.io.restore(r)?;
        self.stats.restore(r)?;
        self.slow_io_words = r.u64()?;
        self.halted = r.bool()?;
        self.consecutive_holds = r.u64()?;
        let n = r.len()?;
        if n > 2 {
            return Err(SnapError::Invalid { what: "wb count" });
        }
        self.pending_wb = WbQueue::default();
        for _ in 0..n {
            let wb = match r.u8()? {
                0 => WbWrite::T(TaskId::new(r.u8()?), r.u16()?),
                1 => {
                    let i = r.u64()? as usize;
                    if i >= self.dp.rm.len() {
                        return Err(SnapError::Invalid { what: "wb rm index" });
                    }
                    WbWrite::Rm(i, r.u16()?)
                }
                2 => {
                    let i = r.u64()? as usize;
                    if i >= self.dp.stack.len() {
                        return Err(SnapError::Invalid {
                            what: "wb stack index",
                        });
                    }
                    WbWrite::Stack(i, r.u16()?)
                }
                _ => return Err(SnapError::Invalid { what: "wb kind" }),
            };
            self.pending_wb.push(wb);
        }
        Ok(())
    }
}
