//! # dorado-cluster — many Dorados on one Ethernet
//!
//! The paper situates the Dorado on the experimental Ethernet that linked
//! Xerox's personal computers (§2).  This crate scales the single-machine
//! simulator out to a *cluster*: N complete [`Dorado`]s joined by a
//! deterministic switch fabric, executed in parallel on a fixed worker
//! pool with results bit-identical to a single-threaded run.
//!
//! * [`fabric`] — the switch: word-time latency model, source/destination
//!   addressing via packet word 0, per-port traffic counters, and a
//!   determinism contract that survives multi-threaded sends;
//! * [`exec`] — the epoch executor: one entry point, [`exec::run`], with
//!   two strategies ([`Exec`]) — the sequential oracle and the
//!   work-stealing pool — over fixed cycle quanta, barrier-separated
//!   run/send/collect phases, and packets delivered only at epoch
//!   boundaries;
//! * [`workload`] — the driver: echo/RPC servers and open- or closed-loop
//!   clients built from the microcode in [`dorado_emu::cluster`], plus
//!   throughput, latency, and utilization measurement;
//! * [`inject`] — deterministic fault injection: crash a machine and
//!   recover it from the last epoch-barrier checkpoint
//!   ([`ClusterSim::save_checkpoint`]), or corrupt/drop packets on the
//!   wire to exercise the drop accounting.
//!
//! [`Dorado`]: dorado_core::Dorado

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod fabric;
pub mod inject;
pub mod workload;

pub use exec::{EpochConfig, Exec, Mangle};
pub use fabric::{Fabric, FabricConfig, PacketRecord};
pub use inject::{kill_and_recover, PacketMangler, Recovery};
pub use workload::{ClusterConfig, ClusterSim, MachineSpec, Role};
