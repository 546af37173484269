//! Deterministic fault injection against the epoch executor.
//!
//! Two fault models, both driven by the seeded splitmix64 generator of
//! [`dorado_base::check`] so every failure is replayable from its seed:
//!
//! * [`kill_and_recover`] — a machine "crashes" mid-workload (its
//!   registers, stacks, and program counters are scrambled); the cluster
//!   rolls back to the checkpoint taken at the last epoch barrier and
//!   replays.  Because checkpoints capture *all* dynamic state, the
//!   recovered run must reproduce the uninterrupted run's
//!   [`ClusterReport`](dorado_base::ClusterReport) bit for bit — asserted
//!   by the recovery test.
//! * [`PacketMangler`] — packets leaving a controller are corrupted
//!   (destination word rewritten to an address no port binds, so the
//!   fabric drops them and charges the source) or lost outright on the
//!   wire, exercising the drop and overrun accounting paths.

use dorado_base::check::Rng;
use dorado_base::task::TaskSet;
use dorado_base::{MicroAddr, Word};
use dorado_core::Dorado;
use dorado_io::NetworkController;

use crate::exec::Exec;
use crate::workload::ClusterSim;

/// What one [`kill_and_recover`] run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovery {
    /// The 0-based epoch whose first run was destroyed and replayed.
    pub kill_epoch: u64,
    /// Size in bytes of the barrier checkpoint the recovery restored.
    pub checkpoint_bytes: usize,
    /// Simulated cycles re-executed by the replay.
    pub replayed_cycles: u64,
}

/// Scrambles everything a crash could plausibly destroy: the register
/// files, stacks, counters, program counters, ready set, and the network
/// controller's inbound queue.  Restore must overwrite all of it.
fn crash(m: &mut Dorado, rng: &mut Rng) {
    let dp = m.datapath_mut();
    for r in dp.rm.iter_mut() {
        *r = rng.word();
    }
    for s in dp.stack.iter_mut() {
        *s = rng.word();
    }
    for t in dp.t.iter_mut() {
        *t = rng.word();
    }
    dp.count = rng.word();
    dp.q = rng.word();
    dp.set_stackptr(rng.word() as u8);
    for io in dp.ioaddress.iter_mut() {
        *io = rng.word();
    }
    let c = m.control_mut();
    for pc in c.tpc.iter_mut() {
        *pc = MicroAddr::new(rng.word() & 0xfff);
    }
    for l in c.link.iter_mut() {
        *l = MicroAddr::new(rng.word() & 0xfff);
    }
    c.ready = TaskSet::from_bits(rng.word());
    c.this_pc = MicroAddr::new(rng.word() & 0xfff);
    if let Some(net) = m.device_mut::<NetworkController>("network") {
        net.inject_packet(vec![rng.word(), rng.word(), rng.word()]);
    }
}

/// Runs `sim` for `epochs` epochs under the chosen executor, killing
/// machine `victim` during epoch `kill_epoch` and recovering it from the
/// checkpoint taken at the barrier just before: the whole cluster rolls
/// back and replays the epoch, then the remaining epochs run normally.
/// The crash scramble is derived from `seed`, so a failing recovery is
/// replayable — under any executor, since all of them are bit-identical.
///
/// # Panics
///
/// Panics if `victim` is not a machine index or `kill_epoch >= epochs`.
pub fn kill_and_recover(
    sim: &mut ClusterSim,
    epochs: u64,
    kill_epoch: u64,
    victim: usize,
    seed: u64,
    exec: Exec,
) -> Recovery {
    assert!(victim < sim.machines.len(), "victim out of range");
    assert!(kill_epoch < epochs, "kill epoch beyond the run");
    let mut rng = Rng::new(seed);
    sim.run(kill_epoch, exec);
    let checkpoint = sim.save_checkpoint();
    let barrier_cycles = sim.cycles();
    // The epoch that will be lost: run it, then destroy the victim.
    sim.run(1, exec);
    crash(&mut sim.machines[victim], &mut rng);
    sim.restore_checkpoint(&checkpoint)
        .expect("checkpoint taken from this very cluster");
    // Replay the killed epoch and finish the run.
    sim.run(1, exec);
    let replayed_cycles = sim.cycles() - barrier_cycles;
    sim.run(epochs - kill_epoch - 1, exec);
    Recovery {
        kill_epoch,
        checkpoint_bytes: checkpoint.len(),
        replayed_cycles,
    }
}

/// A destination-address packets cannot reach: [`port_address`] hands out
/// `0x100 + port`, so the all-ones word never binds to a port and the
/// fabric charges a drop to the source.
///
/// [`port_address`]: crate::workload::port_address
pub const UNROUTABLE: Word = 0xffff;

/// A deterministic packet-fault injector for [`ClusterSim::run_mangled`]
/// (a [`Mangle`](crate::exec::Mangle) hook): each outbound packet is independently
/// lost on the wire with probability `drop_permille`/1000, else its
/// destination word is rewritten to [`UNROUTABLE`] with probability
/// `corrupt_permille`/1000.
#[derive(Debug, Clone)]
pub struct PacketMangler {
    rng: Rng,
    corrupt_permille: u64,
    drop_permille: u64,
    /// Packets whose destination word was corrupted.
    pub corrupted: u64,
    /// Packets lost on the wire (never reached the fabric).
    pub dropped: u64,
}

impl PacketMangler {
    /// Creates an injector from a seed and per-mille fault rates.
    pub fn new(seed: u64, corrupt_permille: u64, drop_permille: u64) -> Self {
        PacketMangler {
            rng: Rng::new(seed),
            corrupt_permille,
            drop_permille,
            corrupted: 0,
            dropped: 0,
        }
    }

    /// Applies the fault model to one outbound packet; `false` means the
    /// packet is lost on the wire.
    pub fn apply(&mut self, pkt: &mut [Word]) -> bool {
        if self.rng.chance(self.drop_permille, 1000) {
            self.dropped += 1;
            return false;
        }
        if self.rng.chance(self.corrupt_permille, 1000) && !pkt.is_empty() {
            pkt[0] = UNROUTABLE;
            self.corrupted += 1;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{ClusterConfig, ClusterSim, Role};

    #[test]
    fn killed_machine_recovers_to_identical_report() {
        let cfg = ClusterConfig::pairs(4, 2, 1);
        let mut straight = ClusterSim::build(&cfg).unwrap();
        straight.run(60, Exec::Sequential);

        let mut faulted = ClusterSim::build(&cfg).unwrap();
        let recovery = kill_and_recover(&mut faulted, 60, 17, 3, 0xD0D0, Exec::Sequential);
        assert_eq!(recovery.kill_epoch, 17);
        assert!(recovery.checkpoint_bytes > 0);
        assert_eq!(recovery.replayed_cycles, 2_000, "one epoch replayed");

        assert_eq!(faulted.cycles(), straight.cycles());
        assert_eq!(faulted.report(), straight.report());
        // Stronger than the report: the full dynamic state is identical.
        assert_eq!(faulted.save_checkpoint(), straight.save_checkpoint());
    }

    #[test]
    fn recovery_from_any_victim_and_seed() {
        let cfg = ClusterConfig::pairs(2, 1, 1);
        let mut straight = ClusterSim::build(&cfg).unwrap();
        straight.run(30, Exec::Sequential);
        let want = straight.save_checkpoint();
        for (victim, seed) in [(0usize, 1u64), (1, 2), (0, 3)] {
            let mut faulted = ClusterSim::build(&cfg).unwrap();
            kill_and_recover(&mut faulted, 30, 9, victim, seed, Exec::Sequential);
            assert_eq!(
                faulted.save_checkpoint(),
                want,
                "victim {victim} seed {seed}"
            );
        }
    }

    #[test]
    fn recovery_runs_under_the_pool_executor() {
        // The production executor drives the same kill/restore/replay
        // sequence to the same final state as the sequential oracle.
        let cfg = ClusterConfig::pairs(4, 2, 1);
        let mut straight = ClusterSim::build(&cfg).unwrap();
        straight.run(40, Exec::Sequential);
        let want = straight.save_checkpoint();
        let mut faulted = ClusterSim::build(&cfg).unwrap();
        let recovery = kill_and_recover(&mut faulted, 40, 11, 1, 0xBEEF, Exec::Pool(3));
        assert_eq!(recovery.replayed_cycles, 2_000);
        assert_eq!(faulted.save_checkpoint(), want);
    }

    fn open_cluster() -> ClusterSim {
        let mut cfg = ClusterConfig::pairs(2, 0, 0);
        cfg.specs[1].role = Role::OpenClient {
            target: 0,
            period: 40,
            burst: 1,
            payload: 1,
        };
        ClusterSim::build(&cfg).unwrap()
    }

    #[test]
    fn mangled_packets_are_dropped_and_charged() {
        let mut sim = open_cluster();
        let mut mangler = PacketMangler::new(7, 400, 200);
        sim.run_mangled(120, Exec::Sequential, &mut |_, _, pkt| mangler.apply(pkt));
        assert!(mangler.corrupted > 0, "corruption never fired");
        assert!(mangler.dropped > 0, "wire loss never fired");
        // Every corrupted packet is unroutable: the fabric charges its
        // source; wire-dropped packets never reach the fabric at all.
        let report = sim.report();
        assert!(report.fabric().drops() >= mangler.corrupted);
        let clean_responses = {
            let mut clean = open_cluster();
            clean.run(120, Exec::Sequential);
            clean.responses()
        };
        assert!(
            sim.responses() < clean_responses,
            "faults must cost responses: {} vs {}",
            sim.responses(),
            clean_responses
        );
    }

    #[test]
    fn mangler_is_deterministic_under_either_executor() {
        let run = |exec| {
            let mut sim = open_cluster();
            let mut mangler = PacketMangler::new(42, 300, 100);
            sim.run_mangled(80, exec, &mut |_, _, pkt| mangler.apply(pkt));
            (sim.save_checkpoint(), mangler.corrupted, mangler.dropped)
        };
        let seq = run(Exec::Sequential);
        assert_eq!(seq, run(Exec::Sequential));
        // The pool executor calls the mangler in the same (epoch, port)
        // order, so the seeded fault schedule — and everything downstream
        // of it — is identical.
        assert_eq!(seq, run(Exec::Pool(2)));
        assert_eq!(seq, run(Exec::Pool(5)));

        // A hook that empties every third packet: an empty packet is lost
        // on the wire, the same way under every strategy.
        let run_emptying = |exec| {
            let mut sim = open_cluster();
            let mut seen = 0u64;
            sim.run_mangled(80, exec, &mut |_, _, pkt| {
                seen += 1;
                if seen.is_multiple_of(3) {
                    pkt.clear();
                }
                true
            });
            (sim.save_checkpoint(), sim.report(), seen)
        };
        let seq = run_emptying(Exec::Sequential);
        assert!(seq.2 >= 3, "the hook never emptied a packet");
        assert_eq!(
            seq.1.fabric().tx_packets(),
            seq.2 - seq.2 / 3,
            "emptied packets never reach the fabric"
        );
        assert_eq!(seq, run_emptying(Exec::Pool(2)));
        assert_eq!(seq, run_emptying(Exec::Pool(5)));
    }
}
