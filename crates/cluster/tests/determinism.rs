//! The tentpole guarantee: both executor strategies — sequential, and
//! the work-stealing pool at *any* pool size — compute the
//! *bit-identical* cluster: same per-machine counters, same fabric
//! traffic and logs, same checkpoint image, across epoch lengths,
//! topologies, and mid-run snapshot/restore.

use dorado_base::check::{check, Rng};
use dorado_base::Word;
use dorado_cluster::{ClusterConfig, ClusterSim, Exec, Role};

/// Eight machines: three closed-loop pairs plus one open-loop pair, so
/// the schedule exercises every workload program.
fn mixed_eight(epoch_cycles: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::pairs(8, 3, 2);
    cfg.specs[7].role = Role::OpenClient {
        target: 6,
        period: 40,
        burst: 2,
        payload: 4,
    };
    cfg.epoch_cycles = epoch_cycles;
    cfg
}

/// The full dynamic state serializes byte-identically, and so do the
/// observable results: counters, logs, time.
fn assert_identical(a: &mut ClusterSim, b: &mut ClusterSim, what: &str) {
    assert_eq!(a.cycles(), b.cycles(), "final time diverged: {what}");
    for (i, (ma, mb)) in a.machines.iter().zip(&b.machines).enumerate() {
        assert_eq!(ma.stats(), mb.stats(), "machine {i} diverged: {what}");
    }
    assert_eq!(
        a.fabric.stats(),
        b.fabric.stats(),
        "fabric counters diverged: {what}"
    );
    for port in 0..a.machines.len() {
        assert_eq!(
            a.fabric.tx_log(port),
            b.fabric.tx_log(port),
            "tx log {port}: {what}"
        );
        assert_eq!(
            a.fabric.rx_log(port),
            b.fabric.rx_log(port),
            "rx log {port}: {what}"
        );
    }
    assert_eq!(
        a.save_checkpoint(),
        b.save_checkpoint(),
        "checkpoint images diverged: {what}"
    );
}

#[test]
fn pool_matches_sequential_at_every_size() {
    // Pool sizes below, at, and beyond the machine count; Pool(0) lets
    // the executor pick the host parallelism.  Three epoch lengths, each
    // run for about the same simulated time.
    for epoch_cycles in [700, 1_000, 2_500] {
        let cfg = mixed_eight(epoch_cycles);
        let epochs = 150_000 / epoch_cycles;
        let mut seq = ClusterSim::build(&cfg).unwrap();
        seq.run(epochs, Exec::Sequential);
        // The run must have produced real traffic, or the comparison is
        // vacuous.
        assert!(seq.responses() > 0, "no traffic at epoch={epoch_cycles}");
        assert!(seq.served() > 0);
        for workers in [1, 4, 8, 16, 0] {
            let mut pool = ClusterSim::build(&cfg).unwrap();
            pool.run(epochs, Exec::Pool(workers));
            assert_identical(
                &mut seq,
                &mut pool,
                &format!("pool({workers}), epoch={epoch_cycles}"),
            );
        }
    }
}

#[test]
fn pool_matches_sequential_at_sixty_four_machines() {
    // The at-scale case from the issue: 64 machines, pool sizes around
    // the host core count, bounded epochs to keep debug runtime sane.
    let mut cfg = ClusterConfig::pairs(64, 2, 1);
    cfg.specs[63].role = Role::OpenClient {
        target: 62,
        period: 30,
        burst: 3,
        payload: 2,
    };
    cfg.epoch_cycles = 1_000;
    let mut seq = ClusterSim::build(&cfg).unwrap();
    seq.run(30, Exec::Sequential);
    assert!(seq.responses() > 0, "vacuous comparison");
    for workers in [4, 96] {
        let mut pool = ClusterSim::build(&cfg).unwrap();
        pool.run(30, Exec::Pool(workers));
        assert_identical(
            &mut seq,
            &mut pool,
            &format!("64 machines, pool({workers})"),
        );
    }
}

#[test]
fn resuming_across_executors_stays_identical() {
    // Alternating executors leg by leg on the same cluster also matches
    // an all-sequential run: every strategy is restartable and leaves the
    // cluster in the same state.
    let cfg = mixed_eight(1_000);
    let mut all_seq = ClusterSim::build(&cfg).unwrap();
    let mut alternating = ClusterSim::build(&cfg).unwrap();
    all_seq.run(120, Exec::Sequential);
    alternating.run(30, Exec::Pool(2));
    alternating.run(30, Exec::Pool(3));
    alternating.run(30, Exec::Sequential);
    alternating.run(30, Exec::Pool(1));
    assert_identical(&mut all_seq, &mut alternating, "alternating executors");
}

#[test]
fn checkpointing_every_epoch_does_not_change_the_run() {
    // A save is an external access that syncs every device the scheduler
    // skipped: it must leave the run exactly as if it never happened.
    let cfg = mixed_eight(1_000);
    let mut straight = ClusterSim::build(&cfg).unwrap();
    straight.run(60, Exec::Pool(4));
    let mut checkpointed = ClusterSim::build(&cfg).unwrap();
    for _ in 0..60 {
        checkpointed.run(1, Exec::Pool(4));
        checkpointed.save_checkpoint();
    }
    assert!(straight.responses() > 0, "vacuous comparison");
    assert_identical(&mut straight, &mut checkpointed, "checkpoint every epoch");
}

/// A random small cluster: machine count, topology, windows, periods,
/// bursts, payloads, and epoch length all drawn from the seed.
fn random_config(rng: &mut Rng) -> ClusterConfig {
    let machines = rng.range(1, 9) as usize;
    let mut cfg = ClusterConfig::pairs(machines, rng.range(1, 4) as Word, rng.range(0, 3) as Word);
    // Rewrite a random subset of the clients as open-loop generators.
    for i in 0..machines {
        if cfg.specs[i].role.is_client() && rng.chance(1, 2) {
            cfg.specs[i].role = Role::OpenClient {
                target: rng.below(machines as u64) as usize,
                period: rng.range(10, 60) as Word,
                burst: rng.range(1, 4) as Word,
                payload: rng.range(0, 4) as Word,
            };
        }
    }
    cfg.epoch_cycles = rng.range(500, 3_000);
    cfg
}

#[test]
fn property_pool_equivalence_on_random_clusters() {
    // DORADO_CHECK_SEED / DORADO_CHECK_CASES override the defaults.
    check("pool_equivalence", 6, |rng| {
        let cfg = random_config(rng);
        let epochs = rng.range(20, 60);
        let machines = cfg.specs.len();

        let mut seq = ClusterSim::build(&cfg).unwrap();
        seq.run(epochs, Exec::Sequential);

        for workers in [1, 4, machines + 3] {
            let mut pool = ClusterSim::build(&cfg).unwrap();
            pool.run(epochs, Exec::Pool(workers));
            assert_identical(
                &mut seq,
                &mut pool,
                &format!("random cluster ({machines} machines), pool({workers})"),
            );
        }

        // Mid-run snapshot/restore round trip under the pool executor:
        // restoring the barrier checkpoint and replaying the second half
        // reproduces the straight run exactly.
        let split = epochs / 2;
        let mut pool = ClusterSim::build(&cfg).unwrap();
        pool.run(split, Exec::Pool(4));
        let checkpoint = pool.save_checkpoint();
        pool.run(epochs - split, Exec::Pool(4));
        assert_identical(&mut seq, &mut pool, "split pool run");
        pool.restore_checkpoint(&checkpoint).unwrap();
        pool.run(epochs - split, Exec::Pool(4));
        assert_identical(&mut seq, &mut pool, "restored pool run");
    });
}
