//! The epoch executor: N machines, one fabric, bit-identical results
//! whether the machines run on the calling thread or on a fixed worker
//! pool.
//!
//! Time advances in fixed *epochs* of `epoch_cycles` microcycles.  Within
//! an epoch every machine runs independently; packets a machine transmits
//! are drained at the epoch boundary, stamped with the boundary cycle, and
//! injected at their destination only once their fabric flight time has
//! elapsed — always at a later boundary.  Because no machine can observe
//! another mid-epoch, every schedule of the per-machine work computes the
//! same thing, and the pool is asserted bit-identical to the sequential
//! oracle by the determinism tests.
//!
//! Each epoch has three phases separated by barriers:
//!
//! 1. **run** — every machine executes its quantum ([`Dorado::run_quantum`]);
//! 2. **send** — every machine's [`NetworkController`] transcript drains
//!    into the fabric in port order, through the [`Mangle`] fault hook
//!    when one is given;
//! 3. **collect** — every machine takes the packets now due at its port
//!    and injects them into its controller.
//!
//! The barrier between send and collect keeps a fast machine's epoch-*e+1*
//! sends out of a slow machine's epoch-*e* queue-cap accounting.
//!
//! [`run`] is the one entry point, with two strategies ([`Exec`]):
//!
//! * [`Exec::Sequential`] — every phase on the calling thread: the
//!   reference oracle.
//! * [`Exec::Pool`] — the *work-stealing pool*: a fixed pool of workers
//!   (defaulting to the host parallelism) pulls machine indices from a
//!   shared injector each phase, so load balances across heterogeneous
//!   machines, idle (halted) machines cost one compare, and only
//!   `workers` threads ever cross a barrier.  The per-epoch fabric
//!   exchange is sharded per port (see [`Fabric`]): collects run in
//!   parallel on disjoint shards, while sends are ingested serially in
//!   port order by the coordinator — which is also where the fault hook
//!   runs, keyed by `(epoch boundary, port)` and therefore independent of
//!   thread timing.
//!
//! [`NetworkController`]: dorado_io::NetworkController

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

use dorado_base::Word;
use dorado_core::Dorado;
use dorado_io::NetworkController;

use crate::fabric::Fabric;

/// How long to run, in epochs of a fixed cycle quantum.
#[derive(Debug, Clone, Copy)]
pub struct EpochConfig {
    /// Microcycles per epoch (also the fabric timestamp granularity).
    pub epoch_cycles: u64,
    /// Number of epochs.
    pub epochs: u64,
}

/// Which strategy drives the cluster — both produce identical simulated
/// results; they differ only in wall-clock strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// Everything on the calling thread: the reference oracle.
    Sequential,
    /// The work-stealing pool executor with this many workers; `0` means
    /// one worker per available hardware core.  The worker count never
    /// exceeds the machine count, and `Pool(1)` spawns no threads at all.
    Pool(usize),
}

impl Exec {
    /// The worker count a [`Exec::Pool`] request resolves to for
    /// `machines` machines on this host.
    pub fn pool_workers(requested: usize, machines: usize) -> usize {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let want = if requested == 0 { cores } else { requested };
        want.clamp(1, machines.max(1))
    }
}

fn net(m: &mut Dorado) -> &mut NetworkController {
    m.device_mut::<NetworkController>("network")
        .expect("cluster machines carry a network controller")
}

/// Whether the machine's controller holds transmitted packets awaiting a
/// drain.  A frozen read through the immutable device registry: unlike
/// [`Dorado::device_mut`], it does not force the controller awake, so a
/// machine that sent nothing this epoch stays skippable to the
/// event-horizon scheduler.
fn tx_pending(m: &Dorado) -> bool {
    m.io()
        .device_by_name("network")
        .is_some_and(dorado_io::Device::tx_pending)
}

/// A deterministic packet fault injector: called in the send phase with
/// the boundary cycle, the source port, and the outbound packet (mutable,
/// so it can corrupt words in place).  Return `false` to drop the packet
/// on the wire — it never reaches the fabric, so no port is charged and
/// no delivery happens.  A packet the hook leaves empty is lost on the
/// wire the same way.  Both strategies invoke the hook serially in
/// `(boundary cycle, port)` order, so the fault schedule is a pure
/// function of the simulation, never of thread timing.
pub type Mangle<'a> = &'a mut dyn FnMut(u64, usize, &mut Vec<Word>) -> bool;

/// Sends one port's drained transcript into the fabric at boundary `now`,
/// each packet through the fault hook first.  A packet that is empty —
/// emptied by the hook, or queued empty by host code — is lost on the
/// wire: the fabric discards it uncounted.
fn send(
    fabric: &Fabric,
    port: usize,
    now: u64,
    packets: impl IntoIterator<Item = (u64, Vec<Word>)>,
    mangle: &mut Option<Mangle<'_>>,
) {
    for (stamp, mut pkt) in packets {
        let kept = mangle.as_mut().is_none_or(|hook| hook(now, port, &mut pkt));
        if kept {
            fabric.send_stamped(port, pkt, now, stamp);
        }
    }
}

/// Delivers collected packets into the machine's controller.  Reaches
/// into the machine only when something actually arrived: the mutable
/// device lookup forces the controller awake for a cycle (host access is
/// opaque to the event-horizon scheduler), and an idle machine should
/// stay skippable.
fn inject(m: &mut Dorado, packets: Vec<Vec<Word>>) {
    if packets.is_empty() {
        return;
    }
    let controller = net(m);
    for pkt in packets {
        controller.inject_packet(pkt);
    }
}

/// Runs every machine for `cfg.epochs` epochs under `exec`, applying
/// `mangle` (if any) to every outbound packet in the send phase.  Machine
/// *i* owns fabric port *i*.  `start_cycle` is the fabric timestamp of
/// the first boundary minus one epoch (pass the value a previous call
/// returned to continue).  Returns the final fabric time — early, without
/// the remaining epochs, once every machine has halted (a halted
/// machine's quantum is an instant no-op, so running on would spin
/// through the remaining epochs doing nothing).
///
/// # Panics
///
/// Panics unless there is exactly one machine per fabric port.
pub fn run(
    machines: &mut [Dorado],
    fabric: &mut Fabric,
    cfg: EpochConfig,
    start_cycle: u64,
    exec: Exec,
    mut mangle: Option<Mangle<'_>>,
) -> u64 {
    assert_eq!(machines.len(), fabric.ports(), "one machine per port");
    if machines.is_empty() {
        return start_cycle + cfg.epochs * cfg.epoch_cycles;
    }
    match exec {
        Exec::Sequential => run_sequential(machines, fabric, cfg, start_cycle, &mut mangle),
        Exec::Pool(workers) => run_pool(machines, fabric, cfg, start_cycle, workers, &mut mangle),
    }
}

/// The reference oracle: all three phases on the calling thread.
fn run_sequential(
    machines: &mut [Dorado],
    fabric: &Fabric,
    cfg: EpochConfig,
    start_cycle: u64,
    mangle: &mut Option<Mangle<'_>>,
) -> u64 {
    let mut now = start_cycle;
    for _ in 0..cfg.epochs {
        if machines.iter().all(Dorado::halted) {
            break;
        }
        now += cfg.epoch_cycles;
        for m in machines.iter_mut() {
            m.run_quantum(cfg.epoch_cycles);
        }
        for (port, m) in machines.iter_mut().enumerate() {
            if tx_pending(m) {
                send(
                    fabric,
                    port,
                    now,
                    net(m).drain_transmitted_stamped(),
                    mangle,
                );
            }
        }
        for (port, m) in machines.iter_mut().enumerate() {
            inject(m, fabric.collect_for_port(port, now));
        }
    }
    now
}

/// One machine's slot in the pool executor: the machine itself plus the
/// outbox its claimant fills during the run phase.  The mutex is never
/// contended — the injector hands each index to exactly one worker per
/// phase — it exists to hand `&mut` access across the pool safely.
struct Slot<'m> {
    machine: &'m mut Dorado,
    outbox: Vec<(u64, Vec<Word>)>,
}

/// The run phase, as executed by every pool member: claim machine indices
/// from the shared injector until it runs dry; run each claimed machine's
/// quantum, census it if halted, and drain its transmit transcript into
/// its outbox.  A halted machine costs one compare and one fetch-add.
fn pool_run_phase(
    slots: &[Mutex<Slot<'_>>],
    claim: &AtomicUsize,
    census: &AtomicUsize,
    epoch_cycles: u64,
) {
    loop {
        let i = claim.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(i) else { break };
        let slot = &mut *slot.lock().expect("pool slot lock");
        if slot.machine.halted() {
            census.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        slot.machine.run_quantum(epoch_cycles);
        if slot.machine.halted() {
            census.fetch_add(1, Ordering::Relaxed);
        }
        if tx_pending(slot.machine) {
            debug_assert!(slot.outbox.is_empty(), "outbox drained every epoch");
            slot.outbox = net(slot.machine).drain_transmitted_stamped();
        }
    }
}

/// The collect phase: claim port indices, pull each port's due packets
/// from its fabric shard (disjoint per port, so collects parallelize),
/// and inject them into the owning machine.  Ports with nothing in
/// flight never touch their machine.
fn pool_collect_phase(slots: &[Mutex<Slot<'_>>], fabric: &Fabric, claim: &AtomicUsize, now: u64) {
    loop {
        let port = claim.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(port) else { break };
        let packets = fabric.collect_for_port(port, now);
        if !packets.is_empty() {
            inject(slot.lock().expect("pool slot lock").machine, packets);
        }
    }
}

/// The pool strategy on `workers` worker threads (`0` = host
/// parallelism), bit-identical to [`run_sequential`] for *any* pool size:
///
/// * machines are `Send` jobs claimed from a shared atomic injector each
///   phase, so `--machines 256` runs on ~N threads of an N-core host;
/// * the calling thread is the coordinator *and* a full pool member —
///   `Pool(1)` spawns no threads and degenerates to the sequential loop;
/// * fabric sends are ingested serially in port order between the run and
///   collect barriers, which is what makes the result (and the fault
///   hook's schedule) independent of which worker ran which machine;
/// * fabric collects run in parallel over the per-port shards.
fn run_pool(
    machines: &mut [Dorado],
    fabric: &Fabric,
    cfg: EpochConfig,
    start_cycle: u64,
    workers: usize,
    mangle: &mut Option<Mangle<'_>>,
) -> u64 {
    let count = machines.len();
    let workers = Exec::pool_workers(workers, count);
    // Halt state at the top of the first epoch; afterwards the run-phase
    // census maintains it (halt flags only move inside run_quantum).
    let mut halted_now = machines.iter().filter(|m| m.halted()).count();
    let slots: Vec<Mutex<Slot<'_>>> = machines
        .iter_mut()
        .map(|machine| {
            Mutex::new(Slot {
                machine,
                outbox: Vec::new(),
            })
        })
        .collect();
    let barrier = Barrier::new(workers);
    let run_claim = AtomicUsize::new(0);
    let collect_claim = AtomicUsize::new(0);
    let census = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let boundary = AtomicU64::new(start_cycle);
    let mut now = start_cycle;
    std::thread::scope(|s| {
        for _ in 1..workers {
            let (slots, barrier) = (&slots, &barrier);
            let (run_claim, collect_claim) = (&run_claim, &collect_claim);
            let (census, done, boundary) = (&census, &done, &boundary);
            s.spawn(move || loop {
                barrier.wait(); // epoch start (or shutdown release)
                if done.load(Ordering::SeqCst) {
                    break;
                }
                pool_run_phase(slots, run_claim, census, cfg.epoch_cycles);
                barrier.wait(); // run end: coordinator ingests sends
                barrier.wait(); // send end
                pool_collect_phase(
                    slots,
                    fabric,
                    collect_claim,
                    boundary.load(Ordering::SeqCst),
                );
                barrier.wait(); // collect end: coordinator's bookkeeping window
            });
        }
        // The coordinator: same phases as the workers, plus the serial
        // bookkeeping between the collect-end and epoch-start barriers.
        for _ in 0..cfg.epochs {
            if halted_now == count {
                break;
            }
            now += cfg.epoch_cycles;
            boundary.store(now, Ordering::SeqCst);
            run_claim.store(0, Ordering::SeqCst);
            collect_claim.store(0, Ordering::SeqCst);
            census.store(0, Ordering::SeqCst);
            barrier.wait(); // epoch start
            pool_run_phase(&slots, &run_claim, &census, cfg.epoch_cycles);
            barrier.wait(); // run end
                            // Serial send phase, in port order: determinism (and the
                            // mangle schedule) must not depend on which worker drained
                            // which machine.  The slot locks are uncontended here — every
                            // worker is parked at the send-end barrier.
            for (port, slot) in slots.iter().enumerate() {
                let slot = &mut *slot.lock().expect("pool slot lock");
                send(fabric, port, now, slot.outbox.drain(..), mangle);
            }
            barrier.wait(); // send end
            pool_collect_phase(&slots, fabric, &collect_claim, now);
            barrier.wait(); // collect end
            halted_now = census.load(Ordering::SeqCst);
        }
        done.store(true, Ordering::SeqCst);
        barrier.wait(); // release workers into shutdown
    });
    now
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricConfig;
    use dorado_emu::layout::{IOA_NET, TASK_EMU, TASK_NET};
    use dorado_emu::SuiteBuilder;

    #[test]
    fn empty_cluster_advances_time() {
        let mut fabric = Fabric::new(&FabricConfig::default(), vec![]);
        let cfg = EpochConfig {
            epoch_cycles: 100,
            epochs: 7,
        };
        assert_eq!(
            run(&mut [], &mut fabric, cfg, 50, Exec::Sequential, None),
            750
        );
        assert_eq!(run(&mut [], &mut fabric, cfg, 50, Exec::Pool(4), None), 750);
    }

    /// Machines that halt on their first instruction (the suite's trap
    /// handler), each carrying a network controller.
    fn halting_cluster(n: usize) -> (Vec<Dorado>, Fabric) {
        let suite = SuiteBuilder::new().assemble().unwrap();
        let machines = (0..n)
            .map(|_| {
                suite
                    .machine()
                    .device(Box::new(NetworkController::new(TASK_NET)), IOA_NET, 4)
                    .wire_ioaddress(TASK_NET, IOA_NET)
                    .task_entry(TASK_EMU, "trap")
                    .build()
                    .unwrap()
            })
            .collect();
        let addresses = (0..n).map(|i| 0x100 + i as Word).collect();
        (machines, Fabric::new(&FabricConfig::default(), addresses))
    }

    #[test]
    fn all_halted_cluster_terminates_early() {
        let cfg = EpochConfig {
            epoch_cycles: 500,
            epochs: 1_000_000,
        };
        let (mut seq_machines, mut seq_fabric) = halting_cluster(3);
        let t_seq = run(
            &mut seq_machines,
            &mut seq_fabric,
            cfg,
            0,
            Exec::Sequential,
            None,
        );
        assert_eq!(
            t_seq, 500,
            "everyone halts during epoch 1; census fires at epoch 2"
        );
        assert!(seq_machines.iter().all(Dorado::halted));

        for pool in [1, 2, 8] {
            let (mut pool_machines, mut pool_fabric) = halting_cluster(3);
            let t_pool = run(
                &mut pool_machines,
                &mut pool_fabric,
                cfg,
                0,
                Exec::Pool(pool),
                None,
            );
            assert_eq!(t_pool, t_seq, "pool({pool}) agrees on the final time");
            for (a, b) in seq_machines.iter().zip(&pool_machines) {
                assert_eq!(a.cycles(), b.cycles());
            }
        }
    }

    #[test]
    fn pool_worker_resolution_clamps() {
        assert_eq!(
            Exec::pool_workers(4, 2),
            2,
            "never more workers than machines"
        );
        assert_eq!(Exec::pool_workers(4, 100), 4);
        assert_eq!(Exec::pool_workers(1, 100), 1);
        assert!(Exec::pool_workers(0, 100) >= 1, "auto resolves to >= 1");
    }
}
