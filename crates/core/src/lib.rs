//! # dv-core — shared substrate for the Data Vortex reproduction
//!
//! This crate holds everything the rest of the workspace agrees on:
//!
//! * [`time`] — the virtual-time representation (picoseconds in a `u64`)
//!   and conversion helpers used by every cost model.
//! * [`packet`] — the 128-bit Data Vortex packet (64-bit header + 64-bit
//!   payload) and the bit-level header layout (destination VIC, address
//!   space, DV-memory address, group counter, mode).
//! * [`config`] — the machine description: Data Vortex switch and VIC
//!   parameters, PCIe cost model, InfiniBand + MPI cost model, and host
//!   compute rates. Defaults correspond to the 32-node PNNL cluster the
//!   paper evaluated (dual Haswell-EP, FDR InfiniBand, DV VIC PCIe 3.0).
//! * [`stats`] — small online-statistics helpers (Welford mean/variance,
//!   log₂ histograms, harmonic means) used by benchmark harnesses.
//! * [`trace`] — an Extrae-inspired tracer that records per-node state
//!   spans and inter-node messages in virtual time and can render them as
//!   an ASCII timeline or dump a Paraver-style text trace (used to
//!   reproduce Figure 5 of the paper).
//! * [`rng`] — deterministic random streams, including the exact HPCC
//!   RandomAccess (GUPS) polynomial stream.
//! * [`fault`] — seeded, deterministic fault-injection plans (link
//!   drops/duplications, ejection stalls, forced FIFO overflow, group
//!   counter set delays); every decision is a pure function of the seed
//!   and a per-site sequence number, so chaos runs replay exactly.
//! * [`fnv`] — the FNV-1a/64 byte fold every determinism hash shares.
//! * [`sync`] — the simulation-safe [`sync::Mutex`] (poison-recovering
//!   `lock()`, debug-mode lock-order auditing) used by every crate that
//!   shares state between simulated processes.
//! * [`metrics`] — the deterministic metrics registry (counters, gauges,
//!   log₂ histograms keyed by name + sorted labels) every layer records
//!   into; snapshots render as canonical JSON and FNV-hash bit-identically
//!   across runs.
//! * [`json`] — a dependency-free JSON tree with a deterministic renderer
//!   and parser, used for `BENCH_*.json` benchmark artifacts.
//! * [`spec`] — [`spec::SimSpec`], the single builder every simulation
//!   backend consumes (nodes, engine + shards, machine model, faults,
//!   tracer, metrics), and [`spec::RunReport`], what the
//!   unified `run()` entry points return.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod fault;
pub mod fnv;
pub mod json;
pub mod metrics;
pub mod packet;
pub mod rng;
pub mod spec;
pub mod stats;
pub mod sync;
pub mod time;
pub mod trace;

pub use config::MachineConfig;
pub use packet::{AddressSpace, Packet, PacketHeader};
pub use spec::{Engine, RunReport, SimSpec};
pub use time::Time;

/// Identifier of a cluster node (and of its VIC / MPI rank — the paper's
/// system runs one process per node, one VIC per node).
pub type NodeId = usize;

/// A 64-bit word, the unit of every Data Vortex payload.
pub type Word = u64;
