//! Scheduler equivalence: the event-horizon I/O scheduler must be
//! architecturally invisible.
//!
//! [`IoSystem`] runs in two modes — `always_tick` (every device ticked
//! every microcycle, the pre-scheduler simulator) and scheduled (quiescent
//! devices skipped until their due cycle).  These tests drive both modes
//! with identical stimulus and demand bit-identical observable state:
//! wakeup lines, register reads, attention lines, statistics, and snapshot
//! images (a save syncs every device first, so images may never depend on
//! the scheduling mode).

use dorado::base::check::{check, Rng};
use dorado::base::snap::save_image;
use dorado::base::{TaskId, Word};
use dorado::emu::mesa;
use dorado::io::synth::SynthPath;
use dorado::io::{DiskController, DisplayController, IoSystem, NetworkController, RateDevice};
use dorado_bench::workstation_machine;

/// One randomly drawn device: what it is, how fast its media runs, and
/// whether it starts with work in flight.  Derived from the [`Rng`] once,
/// then used to build the two systems identically.
struct DevSpec {
    kind: u64,
    mbps: f64,
    active: bool,
    payload: usize,
}

impl DevSpec {
    fn draw(rng: &mut Rng) -> Self {
        DevSpec {
            kind: rng.below(4),
            mbps: *rng.choose(&[4.0, 16.0, 64.0, 256.0, 800.0]),
            active: rng.chance(3, 4),
            payload: rng.range(1, 96) as usize,
        }
    }

    /// Registers the device claims (mirrors the per-controller register
    /// files, like the workstation wiring).
    fn regs(&self) -> Word {
        match self.kind {
            2 => 3,
            _ => 2,
        }
    }
}

fn build(specs: &[DevSpec], always_tick: bool) -> IoSystem {
    let mut io = IoSystem::new();
    for (i, s) in specs.iter().enumerate() {
        let task = TaskId::new(8 + i as u8);
        let base = 0x10 * (i as Word + 1);
        match s.kind {
            0 => {
                let mut d = DisplayController::with_rate(task, s.mbps, 60.0);
                if s.active {
                    d.start();
                }
                io.attach(Box::new(d), base, s.regs());
            }
            1 => {
                let mut d = DiskController::new(task);
                for (j, w) in d.platter_mut().iter_mut().take(512).enumerate() {
                    *w = (j as Word).wrapping_mul(7);
                }
                if s.active {
                    d.start_read(s.payload);
                }
                io.attach(Box::new(d), base, s.regs());
            }
            2 => {
                let mut d = NetworkController::new(task);
                if s.active {
                    d.inject_packet((0..s.payload).map(|x| x as Word ^ 0x5a5a).collect());
                }
                io.attach(Box::new(d), base, s.regs());
            }
            _ => {
                let path = if s.payload % 2 == 0 {
                    SynthPath::Slow
                } else {
                    SynthPath::Fast
                };
                let mut d = RateDevice::new(task, s.mbps, 60.0, path);
                if s.active {
                    d.start();
                }
                io.attach(Box::new(d), base, s.regs());
            }
        }
    }
    io.set_always_tick(always_tick);
    io
}

#[test]
fn io_scheduler_equivalence_property() {
    // Random device mixes under random interleavings of ticks, slow-IO
    // accesses, NEXT broadcasts, and notifies.  Every observable must
    // match the naive reference on every cycle, and the snapshot images
    // must be byte-identical at the end.
    check("io-scheduler-equivalence", 48, |rng: &mut Rng| {
        let specs: Vec<DevSpec> = (0..rng.range(1, 4)).map(|_| DevSpec::draw(rng)).collect();
        let mut sched = build(&specs, false);
        let mut naive = build(&specs, true);
        let cycles = rng.range(200, 900);
        for t in 0..cycles {
            sched.tick();
            naive.tick();
            assert_eq!(sched.wakeups(), naive.wakeups(), "wakeups at tick {t}");
            if rng.chance(1, 8) {
                let i = rng.below(specs.len() as u64) as usize;
                let base = 0x10 * (i as Word + 1);
                let addr = base + rng.below(u64::from(specs[i].regs())) as Word;
                match rng.below(4) {
                    0 => assert_eq!(sched.input(addr), naive.input(addr), "input at tick {t}"),
                    1 => {
                        let w = rng.word();
                        sched.output(addr, w);
                        naive.output(addr, w);
                    }
                    2 => {
                        sched.notify(addr);
                        naive.notify(addr);
                    }
                    _ => assert_eq!(
                        sched.attention(addr),
                        naive.attention(addr),
                        "attention at tick {t}"
                    ),
                }
                assert_eq!(sched.wakeups(), naive.wakeups(), "wakeups after access {t}");
            }
            if rng.chance(1, 16) {
                let next = TaskId::new(8 + rng.below(specs.len() as u64) as u8);
                sched.observe_next(next);
                naive.observe_next(next);
                assert_eq!(sched.wakeups(), naive.wakeups(), "wakeups after NEXT {t}");
            }
        }
        assert_eq!(sched.rx_overruns(), naive.rx_overruns());
        assert_eq!(
            save_image(&mut sched),
            save_image(&mut naive),
            "snapshot images must not depend on the scheduling mode"
        );
    });
}

#[test]
fn workstation_machine_is_mode_equivalent() {
    // Full machine, full workload: the §4 workstation scenario run to its
    // halt in both modes must agree on every architectural observable —
    // outcome, cycle count, Mesa result, statistics, and snapshot image.
    let run = |always_tick: bool| {
        let mut m = workstation_machine();
        m.io_mut().set_always_tick(always_tick);
        let outcome = m.run(250_000);
        (outcome, m)
    };
    let (naive_outcome, mut naive) = run(true);
    let (sched_outcome, mut sched) = run(false);
    assert_eq!(naive_outcome, sched_outcome);
    assert_eq!(naive.cycles(), sched.cycles());
    assert_eq!(mesa::tos(&naive), mesa::tos(&sched), "fib(15) result");
    assert_eq!(naive.stats(), sched.stats());
    assert_eq!(save_image(&mut naive), save_image(&mut sched));
}

#[test]
fn quantum_boundaries_do_not_shift_due_cycles() {
    // `run_quantum` hands control back at arbitrary cycle counts — in a
    // cluster, right where another machine's traffic lands.  A prime-sized
    // quantum never divides any device period, so every boundary falls
    // inside some device's skip window; the due bookkeeping must carry
    // across the boundary without re-firing or losing events.
    let mut sched = workstation_machine();
    let mut naive = workstation_machine();
    naive.io_mut().set_always_tick(true);
    loop {
        let a = sched.run_quantum(997);
        let b = naive.run_quantum(997);
        assert_eq!(a, b, "quantum progress at cycle {}", naive.cycles());
        assert_eq!(
            save_image(&mut sched),
            save_image(&mut naive),
            "image at quantum boundary, cycle {}",
            naive.cycles()
        );
        if a == 0 {
            break;
        }
    }
    assert_eq!(mesa::tos(&sched), mesa::tos(&naive));
    assert_eq!(sched.stats(), naive.stats());
}

#[test]
fn due_cycle_fires_at_the_exact_cycle_across_skip_windows() {
    // A 4 Mbit/s synthetic device delivers a word every ~67 cycles; the
    // scheduler skips the whole gap.  The wakeup must still rise on
    // exactly the same tick as the naive reference, including after an
    // external access lands mid-window and forces a re-sync.
    let build = |always_tick: bool| {
        let mut io = IoSystem::new();
        let mut d = RateDevice::new(TaskId::new(9), 4.0, 60.0, SynthPath::Slow);
        d.start();
        io.attach(Box::new(d), 0x40, 2);
        io.set_always_tick(always_tick);
        io
    };
    let mut sched = build(false);
    let mut naive = build(true);
    for t in 0..10_000u64 {
        sched.tick();
        naive.tick();
        assert_eq!(sched.wakeups(), naive.wakeups(), "wakeup edge at tick {t}");
        if t % 1_000 == 617 {
            // Mid-window probe: a slow-IO read must see the same FIFO and
            // must not shift any later due cycle.
            assert_eq!(
                sched.input(0x41),
                naive.input(0x41),
                "FIFO depth at tick {t}"
            );
            assert_eq!(
                save_image(&mut sched),
                save_image(&mut naive),
                "image at tick {t}"
            );
        }
    }
    assert_eq!(save_image(&mut sched), save_image(&mut naive));
}

#[test]
fn workstation_scenarios_hash_identically_in_both_modes() {
    // The full interactive corpus — display scan-out with retrace
    // acknowledges, scripted keyboard/mouse traffic, BitBlt racing the
    // beam — must produce bit-identical frame streams whether quiescent
    // devices are skipped (event-horizon) or ticked every cycle.  The
    // frame-hash sequence is the most sensitive observable we have: a
    // single word painted one cycle late changes a field's CRC64.
    use dorado::emu::scenario::{run_scenario, ScenarioKind};
    for kind in ScenarioKind::ALL {
        let naive = run_scenario(kind, true);
        let sched = run_scenario(kind, false);
        assert_eq!(
            naive.frame_hashes, sched.frame_hashes,
            "{}: frame stream differs between scheduling modes",
            naive.name
        );
        assert_eq!(naive.fields, sched.fields, "{}", naive.name);
        assert_eq!(naive.cycles, sched.cycles, "{}", naive.name);
        assert_eq!(naive.final_frame, sched.final_frame, "{}", naive.name);
        assert_eq!(naive.input_events, sched.input_events, "{}", naive.name);
        assert_eq!(
            naive.input_latency_max, sched.input_latency_max,
            "{}: input service latency depends on scheduling mode",
            naive.name
        );
    }
}
