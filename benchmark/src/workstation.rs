//! The `workstation` workload: interactive sessions on the personal
//! machine, as the `workstation` and `workstation_demo` binaries run it.
//!
//! A session is either one of the three golden scenarios (framed
//! display, keyboard, mouse and BitBlt; its per-field frame hashes must
//! equal the committed fixtures) or the §4 desk machine: the Mesa
//! emulator computing `fib(n)` while the display refreshes over fast
//! I/O, the disk streams a seeded 2048-word read and the network
//! receives a seeded packet.  The display is due almost every cycle, so
//! the `io` layer and the fast-I/O path carry much of the host time.
//!
//! The pass is stratified: every session kind occurs equally often; the
//! seed and the pass pick the desk machine's disk, packet and bitmap
//! contents.

use dorado_base::{BaseRegId, Stats, VirtAddr, Word};
use dorado_core::{Dorado, ExecMode};
use dorado_emu::layout::*;
use dorado_emu::mesa::{self, MesaAsm};
use dorado_emu::scenario::{self, ScenarioKind};
use dorado_emu::suite::Suite;
use dorado_emu::SuiteBuilder;
use dorado_io::{DiskController, DisplayController, NetworkController};

use crate::{add_stats, pass_rng, Ledger, Passes, Tracer, Workload};

/// Sessions per pass: two of every kind.
pub const PASS_SESSIONS: usize = 2 * KINDS;

/// The desk machine's `fib` sizes.
pub const FIB_N: [u16; 4] = [13, 14, 15, 16];

const KINDS: usize = ScenarioKind::ALL.len() + FIB_N.len();

/// Words the desk machine's disk streams into memory.
pub const DISK_WORDS: usize = 2048;
/// Words of the desk machine's inbound packet.
pub const PACKET_WORDS: usize = 48;
/// Where the network task stores the packet.
pub const NET_BUFFER: u32 = 0x3800;
/// Cycle budget of one desk session; running out of it counts as a wedge.
pub const RUN_LIMIT: u64 = 5_000_000;

/// One session's inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Session {
    /// A golden scenario.
    Scenario(ScenarioKind),
    /// The desk machine.
    Desk(Desk),
}

/// The desk machine's seeded inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Desk {
    /// Argument of the foreground `fib`.
    pub fib_n: u16,
    /// Disk platter contents streamed into memory.
    pub disk: Vec<Word>,
    /// The packet the network controller receives.
    pub packet: Vec<Word>,
    /// The displayed bitmap is `i * bitmap_mult` for word `i`.
    pub bitmap_mult: Word,
}

/// The seeded sessions of pass `pass`, `n` ops cycling through the kinds.
pub fn sessions(seed: u64, pass: usize, n: usize) -> Vec<Session> {
    let mut rng = pass_rng(seed, 0x7773_7461, pass);
    (0..n)
        .map(|i| match ScenarioKind::ALL.get(i % KINDS) {
            Some(&kind) => Session::Scenario(kind),
            None => Session::Desk(Desk {
                fib_n: FIB_N[i % KINDS - ScenarioKind::ALL.len()],
                disk: (0..DISK_WORDS).map(|_| rng.word()).collect(),
                packet: (0..PACKET_WORDS).map(|_| rng.word()).collect(),
                bitmap_mult: rng.word() | 1,
            }),
        })
        .collect()
}

/// The golden frame hashes of `kind`, as committed in the repository.
pub fn golden(kind: ScenarioKind) -> Vec<u64> {
    let text = match kind {
        ScenarioKind::BootSplash => include_str!("../../tests/golden_frames/boot_splash.hashes"),
        ScenarioKind::EditorStorm => include_str!("../../tests/golden_frames/editor_storm.hashes"),
        ScenarioKind::BlitAnim => include_str!("../../tests/golden_frames/blit_anim.hashes"),
    };
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| u64::from_str_radix(l, 16).expect("golden hashes are hex"))
        .collect()
}

/// The foreground program of the desk machine: naive recursive `fib(n)`.
///
/// # Panics
///
/// Panics if the program fails to assemble (a bug in this function).
pub fn fib_program(n: u16) -> Vec<u8> {
    let mut p = MesaAsm::new();
    p.lib(u8::try_from(n).expect("fib argument fits a byte"));
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
    p.assemble().expect("fib program assembles")
}

fn fib(n: u16) -> Word {
    let (mut a, mut b) = (0u16, 1u16);
    for _ in 0..n {
        (a, b) = (b, a.wrapping_add(b));
    }
    a
}

/// The workload state: the two suites, the golden hashes, the `fib`
/// programs and the current pass's sessions.
pub struct Workstation {
    scenario_suite: Suite,
    desk_suite: Suite,
    golden: Vec<(ScenarioKind, Vec<u64>)>,
    fib_programs: Vec<(u16, Vec<u8>)>,
    sessions: Passes<Session>,
}

impl Workstation {
    /// Generates the first pass's sessions and assembles both suites.
    ///
    /// # Panics
    ///
    /// Panics if a suite fails to assemble.
    pub fn setup(seed: u64, pass_len: usize, tr: &mut Tracer) -> Self {
        let sessions = Passes::new(seed, pass_len, sessions);
        let (scenario_suite, desk_suite) = tr.span("emu.assemble", |_| {
            let scenario = SuiteBuilder::new()
                .with_scenario()
                .with_bitblt()
                .assemble()
                .expect("scenario suite assembles");
            let desk = SuiteBuilder::new()
                .with_mesa()
                .with_display()
                .with_disk()
                .with_network()
                .assemble()
                .expect("desk suite assembles");
            (scenario, desk)
        });
        Workstation {
            scenario_suite,
            desk_suite,
            golden: ScenarioKind::ALL
                .into_iter()
                .map(|k| (k, golden(k)))
                .collect(),
            fib_programs: FIB_N.into_iter().map(|n| (n, fib_program(n))).collect(),
            sessions,
        }
    }

    fn desk_machine(&self, d: &Desk) -> Option<Dorado> {
        let program = &self.fib_programs.iter().find(|(n, _)| *n == d.fib_n)?.1;
        let mut display = DisplayController::with_rate(TASK_DISPLAY, 256.0, 60.0);
        display.start();
        let mut disk = DiskController::new(TASK_DISK);
        for (w, &v) in disk.platter_mut().iter_mut().zip(&d.disk) {
            *w = v;
        }
        disk.start_read(DISK_WORDS);
        let mut net = NetworkController::new(TASK_NET);
        net.inject_packet(d.packet.clone());
        let mut m = self
            .desk_suite
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
            .ok()?;
        mesa::configure_ifu(&mut m);
        mesa::init_runtime(&mut m);
        mesa::load_program(&mut m, program);
        m.memory_mut()
            .set_base_reg(BaseRegId::new(BR_DISPLAY), 0x2000);
        m.memory_mut().set_base_reg(BaseRegId::new(BR_DISK), 0x3000);
        m.memory_mut()
            .set_base_reg(BaseRegId::new(BR_NET), NET_BUFFER);
        for i in 0..0x1000u32 {
            m.memory_mut().write_virt(
                VirtAddr::new(0x2000 + i),
                (i as Word).wrapping_mul(d.bitmap_mult),
            );
        }
        Some(m)
    }

    fn run_desk(&self, d: &Desk, tr: &mut Tracer, ledger: &mut Ledger) -> bool {
        let Some(mut m) = tr.span("emu.build_machine", |_| self.desk_machine(d)) else {
            return false;
        };
        let out = tr.span("core.run", |_| m.run(RUN_LIMIT));
        ledger.add("core.run_cycles", out.cycles().unwrap_or(0) as f64);
        add_stats(ledger, &m.stats());
        if let Some(display) = m.device_mut::<DisplayController>("display") {
            ledger.add("io.painted_words", display.painted as f64);
            ledger.add("io.underruns", display.underruns as f64);
        }
        let packet_landed = d
            .packet
            .iter()
            .enumerate()
            .all(|(k, &w)| m.memory().read_virt(VirtAddr::new(NET_BUFFER + k as u32)) == w);
        out.halted() && mesa::tos(&m) == fib(d.fib_n) && packet_landed
    }

    fn run_scenario(&self, kind: ScenarioKind, tr: &mut Tracer, ledger: &mut Ledger) -> bool {
        let mut last = Stats::default();
        let report = tr.span("emu.drive_scenario", |_| {
            scenario::drive_mode_on(
                kind,
                &self.scenario_suite,
                false,
                ExecMode::Interpreted,
                &mut |_, m| last = m.stats(),
            )
        });
        add_stats(ledger, &last);
        ledger.add("io.fields", report.fields as f64);
        ledger.add("io.painted_words", report.painted as f64);
        ledger.add("io.underruns", report.underruns as f64);
        ledger.add("io.input_events", report.input_events as f64);
        ledger.max(
            "io.input_latency_max_cycles",
            report.input_latency_max as f64,
        );
        let golden = self.golden.iter().find(|(k, _)| *k == kind).map(|(_, h)| h);
        // The hook's last call follows the final step, so its counters
        // must cover the whole run.
        golden == Some(&report.frame_hashes) && last.cycles == report.cycles
    }
}

impl Workload for Workstation {
    fn pass_len(&self) -> usize {
        self.sessions.len()
    }

    fn run_op(&mut self, i: usize, tr: &mut Tracer, ledger: &mut Ledger) -> bool {
        match self.sessions.get(i).clone() {
            Session::Scenario(kind) => self.run_scenario(kind, tr, ledger),
            Session::Desk(d) => self.run_desk(&d, tr, ledger),
        }
    }
}
