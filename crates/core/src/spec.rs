//! `SimSpec` — the one builder every simulation backend consumes.
//!
//! One value describes the cluster size, the engine and shard count, the
//! machine cost model (including fault injection), tracing and metrics;
//! `DvCluster::from_spec` / `MpiCluster::from_spec` consume it, and their
//! `run()` returns a [`RunReport`]. Telemetry streaming attaches to the
//! metrics registry (`MetricsRegistry::attach_series`), not to the spec.
//!
//! ```
//! use dv_core::spec::SimSpec;
//!
//! let spec = SimSpec::new(8).instrumented().shards(4);
//! assert_eq!(spec.nodes, 8);
//! assert!(spec.metrics.is_enabled());
//! ```

use std::sync::Arc;

use crate::config::{ComputeParams, DvParams, IbParams, MachineConfig, MpiParams, PcieParams};
use crate::fault::FaultPlan;
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::time::Time;
use crate::trace::Tracer;

/// Which scheduler executes the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The sharded cooperative engine: per-shard event queues merged in a
    /// conservative total order, direct process-to-process handoff. The
    /// default.
    #[default]
    Sharded,
    /// The frozen pre-sharding scheduler (central dispatch thread, one
    /// mpsc round-trip per event). Kept as the determinism oracle: both
    /// engines must produce bit-identical `OrderAudit` hashes.
    Reference,
}

/// Everything needed to set up a simulated cluster, in one builder.
pub struct SimSpec {
    /// Number of simulated nodes (one process per node).
    pub nodes: usize,
    /// Event-queue shards for the sharded engine; `0` (default) picks one
    /// per available core, capped. Shard count never changes results —
    /// `tests/shard_invariance.rs` proves trace hashes identical across
    /// shard counts.
    pub shards: usize,
    /// Scheduler choice (sharded by default; reference for audits).
    pub engine: Engine,
    /// Machine cost model; defaults to the paper's cluster.
    pub machine: MachineConfig,
    /// Trace recorder (disabled by default).
    pub tracer: Arc<Tracer>,
    /// Metrics registry (disabled by default).
    pub metrics: Arc<MetricsRegistry>,
}

impl SimSpec {
    /// A cluster of `nodes` nodes on the paper's machine, defaults
    /// everywhere else: sharded engine, auto shard count, no tracing, no
    /// metrics, no faults.
    pub fn new(nodes: usize) -> Self {
        Self {
            nodes,
            shards: 0,
            engine: Engine::default(),
            machine: MachineConfig::paper_cluster(),
            tracer: Arc::new(Tracer::disabled()),
            metrics: MetricsRegistry::disabled_shared(),
        }
    }

    /// Set the shard count (0 = auto).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Select the scheduler engine.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Replace the whole machine cost model.
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.machine = machine;
        self
    }

    /// Override the Data Vortex switch/link parameters.
    pub fn dv(mut self, dv: DvParams) -> Self {
        self.machine.dv = dv;
        self
    }

    /// Override the InfiniBand fabric parameters.
    pub fn ib(mut self, ib: IbParams) -> Self {
        self.machine.ib = ib;
        self
    }

    /// Override the MPI software-stack parameters.
    pub fn mpi(mut self, mpi: MpiParams) -> Self {
        self.machine.mpi = mpi;
        self
    }

    /// Override the PCIe parameters.
    pub fn pcie(mut self, pcie: PcieParams) -> Self {
        self.machine.pcie = pcie;
        self
    }

    /// Override the compute cost parameters.
    pub fn compute(mut self, compute: ComputeParams) -> Self {
        self.machine.compute = compute;
        self
    }

    /// Inject deterministic faults according to `plan`.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.machine.faults = Some(plan);
        self
    }

    /// Inject faults if a plan is given (convenience for `--faults` flags).
    pub fn faults_opt(mut self, plan: Option<FaultPlan>) -> Self {
        self.machine.faults = plan;
        self
    }

    /// Attach a metrics registry; the run publishes scheduler, network,
    /// VIC, PCIe, and per-state virtual-time metrics into it.
    pub fn metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = metrics;
        self
    }

    /// Attach a fresh enabled metrics registry (shorthand for the common
    /// "instrumented run" setup).
    pub fn instrumented(mut self) -> Self {
        self.metrics = Arc::new(MetricsRegistry::enabled());
        self
    }

    /// Attach a trace recorder.
    pub fn tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = tracer;
        self
    }
}

/// What a unified `run()` returns: the workload's own result plus the
/// run-level evidence (virtual end time, determinism hash, metrics).
#[derive(Debug, Clone)]
pub struct RunReport<T> {
    /// The workload's result (per-node results for cluster runs).
    pub result: T,
    /// Final virtual time of the run.
    pub elapsed: Time,
    /// `OrderAudit` hash of the committed event trace — identical inputs
    /// must produce identical hashes, on either engine, at any shard count.
    pub trace_hash: u64,
    /// Snapshot of the attached metrics registry after end-of-run
    /// publication (empty if metrics were disabled).
    pub snapshot: MetricsSnapshot,
}

impl<T> RunReport<T> {
    /// Map the workload result, keeping the run evidence.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> RunReport<U> {
        RunReport {
            result: f(self.result),
            elapsed: self.elapsed,
            trace_hash: self.trace_hash,
            snapshot: self.snapshot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper_cluster() {
        let spec = SimSpec::new(32);
        assert_eq!(spec.nodes, 32);
        assert_eq!(spec.shards, 0);
        assert_eq!(spec.engine, Engine::Sharded);
        assert!(!spec.metrics.is_enabled());
        assert!(!spec.tracer.is_enabled());
        assert!(spec.machine.faults.is_none());
    }

    #[test]
    fn builder_methods_compose() {
        let plan = FaultPlan::parse("seed=7,fifodrop=0.02").expect("valid plan");
        let spec = SimSpec::new(4)
            .shards(2)
            .engine(Engine::Reference)
            .instrumented()
            .faults(plan);
        assert_eq!(spec.shards, 2);
        assert_eq!(spec.engine, Engine::Reference);
        assert!(spec.metrics.is_enabled());
        assert!(spec.machine.faults.is_some());
    }

    #[test]
    fn run_report_map_keeps_evidence() {
        let r = RunReport {
            result: vec![1u64, 2, 3],
            elapsed: 42,
            trace_hash: 7,
            snapshot: MetricsSnapshot::default(),
        };
        let r2 = r.map(|v| v.len());
        assert_eq!(r2.result, 3);
        assert_eq!((r2.elapsed, r2.trace_hash), (42, 7));
    }
}
