//! Differential validation of the static hazard model (EXPERIMENTS.md
//! E18): run the §4 workstation scenario — the Mesa emulator computing
//! fib(15) while the display refreshes, the disk streams a 2048-word
//! transfer and the network receives a packet — stepping the simulator
//! cycle by cycle, and map **every** dynamically observed event back to
//! a statically predicted site:
//!
//! * each Hold the machine raises must land on a hold site of the
//!   image's [`Analyses`](crate::Analyses) for that cause (the static
//!   model has no false negatives);
//! * each stack-error transition must land on a [`stack_sites`] entry.
//!
//! The outcome also reports how many predicted sites the workload
//! actually exercised — static prediction is intentionally a superset
//! (a site that *can* hold need not hold on one particular run).

use dorado_base::{BaseRegId, HoldCause, MicroAddr, TaskId, VirtAddr, Word, MICROSTORE_SIZE};
use dorado_emu::layout::{
    BR_DISK, BR_DISPLAY, BR_NET, IOA_DISK, IOA_DISPLAY, IOA_NET, TASK_DISK, TASK_DISPLAY, TASK_EMU,
    TASK_NET,
};
use dorado_emu::mesa::{self, MesaAsm};
use dorado_emu::SuiteBuilder;
use dorado_io::{DiskController, DisplayController, NetworkController};

use crate::analyze;
use crate::passes::hold::HoldSites;
use crate::passes::stack_depth::stack_sites;

/// What the differential run observed, per Hold cause.
#[derive(Debug, Clone, Copy, Default)]
pub struct CauseTally {
    /// Statically predicted sites for this cause.
    pub predicted: usize,
    /// Distinct predicted sites the workload exercised.
    pub exercised: usize,
    /// Held cycles observed.
    pub held_cycles: u64,
}

/// The outcome of one differential run.
#[derive(Debug, Clone, Default)]
pub struct DifferentialOutcome {
    /// Cycles simulated.
    pub cycles: u64,
    /// Final top-of-stack of the Mesa program (fib(15) = 610).
    pub tos: Word,
    /// Per-cause prediction/observation tallies, indexed by
    /// `HoldCause::index()`.
    pub causes: [CauseTally; HoldCause::COUNT],
    /// Observed holds at addresses the static model did *not* predict —
    /// must be empty (soundness).
    pub missed_holds: Vec<(HoldCause, MicroAddr)>,
    /// Stack-error transitions observed.
    pub stack_events: u64,
    /// Stack-error transitions at unpredicted addresses — must be empty.
    pub missed_stack: Vec<MicroAddr>,
    /// Statically predicted stack sites.
    pub stack_predicted: usize,
}

impl DifferentialOutcome {
    /// Whether the static model missed nothing the run observed.
    pub fn sound(&self) -> bool {
        self.missed_holds.is_empty() && self.missed_stack.is_empty()
    }
}

/// The §4 foreground program: naive recursive fib(15).
fn fib_program() -> Result<Vec<u8>, String> {
    let mut p = MesaAsm::new();
    p.lib(15);
    p.call("fib", 1);
    p.halt();
    p.label("fib");
    p.ll(0);
    p.lib(2);
    p.sub();
    p.sl(2);
    p.ll(0);
    p.jzb("base0");
    p.ll(0);
    p.lib(1);
    p.sub();
    p.jzb("base1");
    p.ll(0);
    p.lib(1);
    p.sub();
    p.call("fib", 1);
    p.ll(2);
    p.call("fib", 1);
    p.add();
    p.ret();
    p.label("base0");
    p.lib(0);
    p.ret();
    p.label("base1");
    p.lib(1);
    p.ret();
    p.assemble()
}

/// Runs the workstation workload for at most `max_cycles`, validating
/// every observed Hold and stack-error event against the static site
/// sets.
///
/// # Errors
///
/// Returns a message if the suite fails to assemble or the machine
/// fails to build (not if the model is unsound — that is reported in
/// the outcome so callers can render it).
pub fn run_workstation(max_cycles: u64) -> Result<DifferentialOutcome, String> {
    let program = fib_program()?;

    let mut display = DisplayController::with_rate(TASK_DISPLAY, 256.0, 60.0);
    display.start();
    let mut disk = DiskController::new(TASK_DISK);
    for (i, w) in disk.platter_mut().iter_mut().take(2048).enumerate() {
        *w = i as Word;
    }
    disk.start_read(2048);
    let mut net = NetworkController::new(TASK_NET);
    net.inject_packet((1..=48).map(|x| x * 3).collect());

    let suite = SuiteBuilder::new()
        .with_mesa()
        .with_display()
        .with_disk()
        .with_network()
        .assemble()
        .map_err(|e| format!("suite: {e}"))?;

    // The static model, over the same image the machine will run.
    let an = analyze(suite.placed());
    let stack = stack_sites(&an);

    let mut m = suite
        .machine()
        .task_entry(TASK_EMU, "mesa:boot")
        .device(Box::new(display), IOA_DISPLAY, 2)
        .wire_ioaddress(TASK_DISPLAY, IOA_DISPLAY)
        .task_entry(TASK_DISPLAY, "disp:init")
        .device(Box::new(disk), IOA_DISK, 2)
        .wire_ioaddress(TASK_DISK, IOA_DISK)
        .task_entry(TASK_DISK, "disk:init")
        .device(Box::new(net), IOA_NET, 3)
        .wire_ioaddress(TASK_NET, IOA_NET)
        .task_entry(TASK_NET, "net:init")
        .build()
        .map_err(|e| format!("machine: {e}"))?;
    mesa::configure_ifu(&mut m);
    mesa::init_runtime(&mut m);
    mesa::load_program(&mut m, &program);
    m.memory_mut()
        .set_base_reg(BaseRegId::new(BR_DISPLAY), 0x2000);
    m.memory_mut().set_base_reg(BaseRegId::new(BR_DISK), 0x3000);
    m.memory_mut().set_base_reg(BaseRegId::new(BR_NET), 0x3800);
    for i in 0..0x1000u32 {
        m.memory_mut()
            .write_virt(VirtAddr::new(0x2000 + i), (i as Word).wrapping_mul(3));
    }

    let mut out = observe(&mut m, &an.hold, &stack, max_cycles);
    out.tos = mesa::tos(&m);
    Ok(out)
}

/// Runs a deliberate stack underflow (DROP on an empty operand stack)
/// so the stack-error direction of the validation is exercised, not
/// vacuous: the transition must land on a predicted stack site.
pub fn run_stack_underflow(max_cycles: u64) -> Result<DifferentialOutcome, String> {
    let mut p = MesaAsm::new();
    p.drop_top();
    p.halt();
    let program = p.assemble()?;
    let suite = SuiteBuilder::new()
        .with_mesa()
        .assemble()
        .map_err(|e| format!("suite: {e}"))?;
    let an = analyze(suite.placed());
    let stack = stack_sites(&an);
    let mut m = suite
        .machine()
        .task_entry(TASK_EMU, "mesa:boot")
        .build()
        .map_err(|e| format!("machine: {e}"))?;
    mesa::configure_ifu(&mut m);
    mesa::init_runtime(&mut m);
    mesa::load_program(&mut m, &program);
    let mut out = observe(&mut m, &an.hold, &stack, max_cycles);
    out.tos = mesa::tos(&m);
    Ok(out)
}

/// Steps `m` for at most `max_cycles`, mapping every Hold and
/// stack-error event back to the static site sets.
fn observe(
    m: &mut dorado_core::Dorado,
    sites: &HoldSites,
    stack: &[MicroAddr],
    max_cycles: u64,
) -> DifferentialOutcome {
    let mut out = DifferentialOutcome {
        stack_predicted: stack.len(),
        ..DifferentialOutcome::default()
    };
    for (cause, tally) in HoldCause::ALL.iter().zip(out.causes.iter_mut()) {
        tally.predicted = sites.by_cause[cause.index()].len();
    }
    // Dense: bit `cause.index()` of `exercised[raw]` marks a predicted
    // site the run held at.
    let mut exercised = vec![0u8; MICROSTORE_SIZE];
    let mut missed: Vec<(HoldCause, MicroAddr)> = Vec::new();
    let mut prev_stack_error = m.datapath().stack_error;
    for _ in 0..max_cycles {
        let ev = m.step();
        out.cycles = ev.cycle + 1;
        if let Some(cause) = ev.held {
            out.causes[cause.index()].held_cycles += 1;
            if sites.predicts(cause, ev.addr) {
                exercised[ev.addr.raw() as usize] |= 1 << cause.index();
            } else if !missed.contains(&(cause, ev.addr)) {
                missed.push((cause, ev.addr));
            }
        }
        let stack_error = m.datapath().stack_error;
        if stack_error && !prev_stack_error {
            out.stack_events += 1;
            // The tripping word executed on the emulator task this cycle.
            if ev.task == TaskId::EMULATOR
                && !stack.contains(&ev.addr)
                && !out.missed_stack.contains(&ev.addr)
            {
                out.missed_stack.push(ev.addr);
            }
        }
        prev_stack_error = stack_error;
        if ev.halted {
            break;
        }
    }
    for cause in HoldCause::ALL {
        out.causes[cause.index()].exercised = exercised
            .iter()
            .filter(|&&bits| bits & (1 << cause.index()) != 0)
            .count();
    }
    out.missed_holds = missed;
    out
}

/// Renders the E18 table.
pub fn render_table(out: &DifferentialOutcome) -> String {
    let mut s = String::new();
    s.push_str("cause         predicted  exercised  held-cycles  missed\n");
    let mut missed_by: [usize; HoldCause::COUNT] = [0; HoldCause::COUNT];
    for &(cause, _) in &out.missed_holds {
        missed_by[cause.index()] += 1;
    }
    for cause in HoldCause::ALL {
        let t = &out.causes[cause.index()];
        s.push_str(&format!(
            "{:<13} {:>9}  {:>9}  {:>11}  {:>6}\n",
            cause.name(),
            t.predicted,
            t.exercised,
            t.held_cycles,
            missed_by[cause.index()],
        ));
    }
    s.push_str(&format!(
        "stack-error   {:>9}  {:>9}  {:>11}  {:>6}\n",
        out.stack_predicted,
        "-",
        out.stack_events,
        out.missed_stack.len(),
    ));
    s
}
