//! The three timed workloads and the `dv-switch` sweep of `bulk_compute`'s
//! traced run: what each sets up, the fixed batch of simulation calls it
//! times, the serial reference answers, and the check on every output.
//!
//! Every call goes through a public entry point of the program (`run_spec`
//! / `run` in `dv-kernels` and `dv-apps`, `LoadSweep::run` in `dv-switch`),
//! one at a time, from the calling thread.

use std::hint::black_box;
use std::sync::Arc;

use dv_apps::heat::{self, Halo, HeatConfig, SerialHeat};
use dv_apps::snap::{self, SerialSnap, SnapConfig};
use dv_core::config::DvParams;
use dv_core::fault::FaultPlan;
use dv_core::metrics::MetricsRegistry;
use dv_core::rng::SplitMix64;
use dv_core::spec::SimSpec;
use dv_core::time::Time;
use dv_core::trace::Tracer;
use dv_kernels::barrier::{barrier_latency_spec, BarrierKind};
use dv_kernels::fft::{self, plan::FftPlan, Complex};
use dv_kernels::graph::{self, Csr, GraphConfig, VertexPart};
use dv_kernels::gups::{self, GupsConfig};
use dv_switch::traffic::LoadSweep;
use dv_switch::traffic::SweepPoint;
use dv_switch::{AnyTopology, RoutedNetSim, SwitchModel, TopoKind};

use crate::spans::Spans;

/// Workload names, in the order the documentation lists them.
pub const NAMES: [&str; 3] = ["sync_fine", "bulk_compute", "irregular_bfs"];

/// Which side of the paper's comparison a call exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Dv,
    Mpi,
    Switch,
}

/// One simulation call: one operation of the benchmark.
#[derive(Debug, Clone)]
pub enum Kind {
    Barrier(BarrierKind),
    /// `recovery` runs under the workload's fault plan.
    Gups {
        dv: bool,
        nodes: usize,
        recovery: bool,
    },
    Fft {
        dv: bool,
        validate: bool,
    },
    Bfs {
        dv: bool,
        root: u32,
    },
    Heat {
        dv: bool,
    },
    Snap {
        dv: bool,
    },
    Sweep {
        point: usize,
    },
}

/// A named call in a workload's batch.
#[derive(Debug, Clone)]
pub struct Call {
    pub name: String,
    pub kind: Kind,
}

impl Call {
    fn new(name: impl Into<String>, kind: Kind) -> Self {
        Self {
            name: name.into(),
            kind,
        }
    }

    pub fn backend(&self) -> Backend {
        match self.kind {
            Kind::Barrier(BarrierKind::Mpi) => Backend::Mpi,
            Kind::Barrier(_) => Backend::Dv,
            Kind::Gups { dv, .. }
            | Kind::Fft { dv, .. }
            | Kind::Bfs { dv, .. }
            | Kind::Heat { dv }
            | Kind::Snap { dv } => {
                if dv {
                    Backend::Dv
                } else {
                    Backend::Mpi
                }
            }
            Kind::Sweep { .. } => Backend::Switch,
        }
    }

    /// Whether the entry point accepts a metrics registry (a `SimSpec`, or
    /// `LoadSweep::metrics`). SNAP and heat-MPI have no such entry point,
    /// so traced runs see only their wall time.
    pub fn instrumentable(&self) -> bool {
        !matches!(self.kind, Kind::Snap { .. } | Kind::Heat { dv: false })
    }

    pub fn is_recovery(&self) -> bool {
        matches!(self.kind, Kind::Gups { recovery: true, .. })
    }

    /// The serial baseline solving the same problem, if there is one.
    pub fn serial_problem(&self) -> Option<String> {
        match &self.kind {
            Kind::Gups { nodes, .. } => Some(format!("serial.gups.n{nodes}")),
            Kind::Fft { .. } => Some("serial.fft".into()),
            Kind::Bfs { root, .. } => Some(format!("serial.bfs.r{root}")),
            Kind::Heat { .. } => Some("serial.heat".into()),
            Kind::Snap { .. } => Some("serial.snap".into()),
            Kind::Barrier(_) | Kind::Sweep { .. } => None,
        }
    }
}

/// What a call returns, kept whole until it is checked.
pub enum Output {
    Latency(Time),
    Gups(gups::GupsResult),
    Fft(fft::mpi::FftRunResult),
    Bfs(graph::mpi::BfsRunResult),
    Heat(heat::mpi::HeatRunResult),
    Snap(snap::mpi::SnapRunResult),
    Sweep(SweepPoint),
}

/// A registry and tracer attached to one call in a traced run.
pub struct Probe {
    pub metrics: Arc<MetricsRegistry>,
    pub tracer: Arc<Tracer>,
}

impl Probe {
    pub fn new() -> Self {
        Self {
            metrics: Arc::new(MetricsRegistry::enabled()),
            tracer: Arc::new(Tracer::enabled()),
        }
    }
}

/// One offered-load point of the cycle-level switch sweep.
#[derive(Debug, Clone, Copy)]
struct SweepDef {
    /// Per-layer label: points sharing a label share a cycle-rate metric.
    label: &'static str,
    kind: TopoKind,
    ports: usize,
    load: f64,
    /// Measured cycles, after the shared warm-up.
    measure: u64,
}

const fn point(
    label: &'static str,
    kind: TopoKind,
    ports: usize,
    load: f64,
    measure: u64,
) -> SweepDef {
    SweepDef {
        label,
        kind,
        ports,
        load,
        measure,
    }
}

/// Problem sizes. `full` is the benchmark; `tiny` exists for the
/// self-test.
struct Sizes {
    sync_nodes: usize,
    barriers: usize,
    gups_table: usize,
    gups_updates: usize,
    bulk_nodes: usize,
    fft_n: usize,
    heat: HeatConfig,
    snap: SnapConfig,
    bfs_nodes: usize,
    scale: u32,
    edgefactor: usize,
    roots: usize,
    recovery_nodes: usize,
    sweep: Vec<SweepDef>,
    warmup: u64,
}

impl Sizes {
    fn full() -> Self {
        Self {
            sync_nodes: 32,
            barriers: 100,
            gups_table: 1 << 11,
            gups_updates: 1 << 13,
            bulk_nodes: 4,
            fft_n: 1 << 20,
            heat: HeatConfig {
                n: (128, 128, 128),
                grid: (2, 2, 1),
                r: 0.1,
                steps: 24,
                report_every: 4,
                halo: Halo::Face,
            },
            snap: SnapConfig {
                n: (64, 64, 64),
                grid: (2, 2),
                groups: 2,
                angles: 4,
                chunk: 4,
                sigma: 0.7,
            },
            bfs_nodes: 32,
            scale: 14,
            edgefactor: 16,
            roots: 2,
            recovery_nodes: 8,
            // Measured cycles are set so each point takes a similar host
            // time (about 0.4 s on the 2-core reference host) and every
            // engine path weighs alike in the traced run. At `LoadSweep`'s
            // default 3000 cycles the 32-port point took 6 ms and the fat
            // tree 1.8 s.
            sweep: vec![
                point("vortex32", TopoKind::Vortex, 32, 0.9, 200_000),
                point("vortex2048", TopoKind::Vortex, 2048, 0.5, 6_000),
                point("vortex2048", TopoKind::Vortex, 2048, 0.9, 4_000),
                point("minpath_sparse", TopoKind::MinPath, 4096, 0.002, 5_000),
                point("fattree_loaded", TopoKind::FatTree, 4096, 0.6, 500),
            ],
            warmup: 500,
        }
    }

    fn tiny() -> Self {
        Self {
            sync_nodes: 4,
            barriers: 10,
            gups_table: 1 << 8,
            gups_updates: 1 << 9,
            bulk_nodes: 4,
            fft_n: 1 << 12,
            heat: HeatConfig {
                n: (16, 16, 8),
                grid: (2, 2, 1),
                r: 0.1,
                steps: 4,
                report_every: 2,
                halo: Halo::Face,
            },
            snap: SnapConfig {
                n: (8, 8, 8),
                grid: (2, 2),
                groups: 2,
                angles: 4,
                chunk: 4,
                sigma: 0.7,
            },
            bfs_nodes: 4,
            scale: 10,
            edgefactor: 8,
            roots: 1,
            recovery_nodes: 4,
            sweep: vec![
                point("vortex32", TopoKind::Vortex, 32, 0.9, 2_000),
                point("vortex2048", TopoKind::Vortex, 256, 0.5, 2_000),
                point("minpath_sparse", TopoKind::MinPath, 256, 0.002, 2_000),
                point("fattree_loaded", TopoKind::FatTree, 256, 0.6, 2_000),
            ],
            warmup: 100,
        }
    }
}

/// Sub-seeds drawn from the workload seed, one stream per input.
const SEED_GRAPH: u64 = 1;
const SEED_ROOTS: u64 = 2;
const SEED_GUPS: u64 = 3;
const SEED_SWEEP: u64 = 4;

fn derive(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// A workload bound to its seed and sizes.
pub struct Workload {
    pub name: &'static str,
    seed: u64,
    sizes: Sizes,
}

/// What set-up produces: the inputs the calls consume.
pub struct Inputs {
    graph: Option<Graph>,
    sweeps: Vec<LoadSweep>,
    /// The calibrated Data Vortex switch model `sync_fine` runs on.
    dv: Option<DvParams>,
}

struct Graph {
    csr: Csr,
    locals: Vec<Csr>,
    roots: Vec<u32>,
}

/// Serial reference answers, computed once per run outside every timing.
#[derive(Default)]
pub struct Refs {
    gups: Vec<(usize, u64)>,
    /// Largest output magnitude of the serial FFT.
    fft_peak: f64,
    heat: Option<Vec<f64>>,
    snap: Option<Vec<f64>>,
}

impl Workload {
    /// The named workload, or `None` for an unknown name.
    pub fn new(name: &str, seed: u64, tiny: bool) -> Option<Self> {
        let name = *NAMES.iter().find(|&&n| n == name)?;
        let sizes = if tiny { Sizes::tiny() } else { Sizes::full() };
        Some(Self { name, seed, sizes })
    }

    fn gups_cfg(&self) -> GupsConfig {
        // A seeded offset into the HPCC stream also skips its sparse head,
        // whose first few thousand updates all land on node 0.
        GupsConfig {
            table_per_node: self.sizes.gups_table,
            updates_per_node: self.sizes.gups_updates,
            bucket: 1024,
            stream_offset: (derive(self.seed, SEED_GUPS) >> 24) as i64,
        }
    }

    /// The fault plan of the recovery leg; the workload seed is its seed.
    fn fault_plan(&self) -> FaultPlan {
        FaultPlan::parse(&format!("seed={},fifodrop=0.01", self.seed))
            .expect("the fault spec is well formed")
    }

    /// The program's set-up calls, each recorded as a span when tracing.
    ///
    /// * `irregular_bfs` builds its graph: `kronecker_edges`, `Csr::build`,
    ///   `partition_csr`, `pick_roots`.
    /// * `bulk_compute` builds the `dv-switch` networks its traced run
    ///   sweeps: `AnyTopology::for_ports` (plus `RoutedNetSim::new`, whose
    ///   next-hop LUT is the routed engines' own set-up) and
    ///   `LoadSweep::for_net`.
    /// * `sync_fine` calibrates the analytic switch model its DV calls are
    ///   priced with (`SwitchModel::calibrate`, a short cycle-level sweep).
    pub fn setup(&self, spans: &mut Spans) -> Inputs {
        let s = &self.sizes;
        let mut inputs = Inputs {
            graph: None,
            sweeps: Vec::new(),
            dv: None,
        };
        match self.name {
            "sync_fine" => {
                inputs.dv = Some(spans.time("setup.switch_model", || {
                    let dv = SimSpec::new(s.sync_nodes).machine.dv;
                    let mut model = SwitchModel::from_params(&dv);
                    let deflect = model.calibrate(derive(self.seed, SEED_SWEEP));
                    DvParams {
                        deflect_hops_at_saturation: deflect,
                        ..dv
                    }
                }));
            }
            "bulk_compute" => inputs.sweeps = self.setup_switch(spans),
            "irregular_bfs" => {
                let cfg = GraphConfig {
                    scale: s.scale,
                    edgefactor: s.edgefactor,
                    seed: derive(self.seed, SEED_GRAPH),
                };
                let edges = spans.time("setup.kronecker_edges", || graph::kronecker_edges(&cfg));
                let csr = spans.time("setup.csr_build", || Csr::build(cfg.vertices(), &edges));
                let locals = spans.time("setup.partition_csr", || {
                    graph::partition_csr(&csr, VertexPart { nodes: s.bfs_nodes })
                });
                let roots = spans.time("setup.pick_roots", || {
                    graph::pick_roots(&csr, s.roots, derive(self.seed, SEED_ROOTS))
                });
                inputs.graph = Some(Graph { csr, locals, roots });
            }
            _ => unreachable!("workload names are validated in Workload::new"),
        }
        inputs
    }

    /// Build the networks of the `dv-switch` sweep points, one per distinct
    /// kind and port count, and a `LoadSweep` per point.
    fn setup_switch(&self, spans: &mut Spans) -> Vec<LoadSweep> {
        let s = &self.sizes;
        let mut built: Vec<(TopoKind, usize, AnyTopology)> = Vec::new();
        let mut sweeps = Vec::new();
        for def in &s.sweep {
            let net = match built
                .iter()
                .find(|(k, p, _)| *k == def.kind && *p == def.ports)
            {
                Some((_, _, net)) => net.clone(),
                None => {
                    let net = spans.time(&format!("setup.topology.{}", def.label), || {
                        let net = AnyTopology::for_ports(def.kind, def.ports);
                        // The routed engines build their next-hop LUT
                        // per network; time it as part of set-up.
                        if def.kind != TopoKind::Vortex {
                            drop(RoutedNetSim::new(net.clone()));
                        }
                        net
                    });
                    built.push((def.kind, def.ports, net.clone()));
                    net
                }
            };
            sweeps.push(spans.time("setup.load_sweep", || {
                let mut sweep = LoadSweep::for_net(net);
                sweep.warmup = s.warmup;
                sweep.measure = def.measure;
                sweep.seed = derive(self.seed, SEED_SWEEP);
                sweep
            }));
        }
        sweeps
    }

    /// The sweep points `bulk_compute` sets up, one call each; they run in
    /// its traced run only (see the README).
    pub fn switch_calls(&self, inputs: &Inputs) -> Vec<Call> {
        (0..inputs.sweeps.len())
            .map(|point| {
                let def = &self.sizes.sweep[point];
                Call::new(
                    format!("sweep.{}.{}", def.label, def.load),
                    Kind::Sweep { point },
                )
            })
            .collect()
    }

    /// The fixed batch of simulation calls one pass times.
    pub fn batch(&self, inputs: &Inputs) -> Vec<Call> {
        let s = &self.sizes;
        let mut calls = Vec::new();
        match self.name {
            "sync_fine" => {
                calls.push(Call::new(
                    "barrier.dv",
                    Kind::Barrier(BarrierKind::DvIntrinsic),
                ));
                calls.push(Call::new(
                    "barrier.fast",
                    Kind::Barrier(BarrierKind::DvFast),
                ));
                calls.push(Call::new("barrier.mpi", Kind::Barrier(BarrierKind::Mpi)));
                let nodes = s.sync_nodes;
                calls.push(Call::new(
                    "gups.dv",
                    Kind::Gups {
                        dv: true,
                        nodes,
                        recovery: false,
                    },
                ));
                calls.push(Call::new(
                    "gups.mpi",
                    Kind::Gups {
                        dv: false,
                        nodes,
                        recovery: false,
                    },
                ));
            }
            "bulk_compute" => {
                for (dv, b) in [(true, "dv"), (false, "mpi")] {
                    calls.push(Call::new(
                        format!("fft.{b}"),
                        Kind::Fft {
                            dv,
                            validate: false,
                        },
                    ));
                    calls.push(Call::new(format!("heat.{b}"), Kind::Heat { dv }));
                    calls.push(Call::new(format!("snap.{b}"), Kind::Snap { dv }));
                }
            }
            "irregular_bfs" => {
                let g = inputs
                    .graph
                    .as_ref()
                    .expect("irregular_bfs set-up builds the graph");
                for &root in &g.roots {
                    calls.push(Call::new(
                        format!("bfs.dv.r{root}"),
                        Kind::Bfs { dv: true, root },
                    ));
                    calls.push(Call::new(
                        format!("bfs.mpi.r{root}"),
                        Kind::Bfs { dv: false, root },
                    ));
                }
                let nodes = s.recovery_nodes;
                calls.push(Call::new(
                    "gups.dv.recovery",
                    Kind::Gups {
                        dv: true,
                        nodes,
                        recovery: true,
                    },
                ));
            }
            _ => unreachable!("workload names are validated in Workload::new"),
        }
        calls
    }

    /// Calls made once per run outside the timed batch: the validated FFTs.
    pub fn once_per_run(&self) -> Vec<Call> {
        if self.name != "bulk_compute" {
            return Vec::new();
        }
        vec![
            Call::new(
                "fft.dv.validate",
                Kind::Fft {
                    dv: true,
                    validate: true,
                },
            ),
            Call::new(
                "fft.mpi.validate",
                Kind::Fft {
                    dv: false,
                    validate: true,
                },
            ),
        ]
    }

    /// Per-layer label of a sweep point.
    pub fn sweep_label(&self, point: usize) -> &'static str {
        self.sizes.sweep[point].label
    }

    /// The serial baselines and reference answers this workload's checks
    /// need, each recorded as a span named after its problem.
    pub fn references(&self, inputs: &Inputs, calls: &[Call], spans: &mut Spans) -> Refs {
        let s = &self.sizes;
        let mut refs = Refs::default();
        let mut done: Vec<String> = Vec::new();
        for call in calls {
            let Some(problem) = call.serial_problem() else {
                continue;
            };
            if done.contains(&problem) {
                continue;
            }
            done.push(problem.clone());
            match &call.kind {
                Kind::Gups { nodes, .. } => {
                    let cfg = self.gups_cfg();
                    let sum = spans.time(&problem, || gups::serial_reference(&cfg, *nodes).1);
                    refs.gups.push((*nodes, sum));
                }
                Kind::Fft { .. } => {
                    let plan = FftPlan::new(s.fft_n, s.bulk_nodes);
                    let out = spans.time(&problem, || plan.serial_reference(fft_signal));
                    refs.fft_peak = out.iter().map(|c| c.norm_sq().sqrt()).fold(0.0, f64::max);
                }
                Kind::Bfs { root, .. } => {
                    let g = inputs
                        .graph
                        .as_ref()
                        .expect("irregular_bfs set-up builds the graph");
                    spans.time(&problem, || black_box(graph::serial_bfs(&g.csr, *root)));
                }
                Kind::Heat { .. } => {
                    refs.heat = Some(spans.time(&problem, || {
                        let mut h = SerialHeat::new(&s.heat);
                        for _ in 0..s.heat.steps {
                            h.step();
                        }
                        h.u
                    }));
                }
                Kind::Snap { .. } => {
                    refs.snap = Some(spans.time(&problem, || {
                        let mut sn = SerialSnap::new(s.snap);
                        sn.sweep_all();
                        sn.phi
                    }));
                }
                Kind::Barrier(_) | Kind::Sweep { .. } => {}
            }
        }
        refs
    }

    fn spec(
        &self,
        inputs: &Inputs,
        nodes: usize,
        faults: Option<FaultPlan>,
        probe: Option<&Probe>,
    ) -> SimSpec {
        let mut spec = SimSpec::new(nodes).faults_opt(faults);
        if let Some(dv) = &inputs.dv {
            spec = spec.dv(dv.clone());
        }
        match probe {
            Some(p) => spec
                .metrics(Arc::clone(&p.metrics))
                .tracer(Arc::clone(&p.tracer)),
            None => spec,
        }
    }

    /// Make one simulation call.
    pub fn run(&self, call: &Call, inputs: &Inputs, probe: Option<&Probe>) -> Output {
        let s = &self.sizes;
        match call.kind {
            Kind::Barrier(kind) => Output::Latency(barrier_latency_spec(
                kind,
                self.spec(inputs, s.sync_nodes, None, probe),
                s.barriers,
            )),
            Kind::Gups {
                dv,
                nodes,
                recovery,
            } => {
                let spec = self.spec(inputs, nodes, recovery.then(|| self.fault_plan()), probe);
                Output::Gups(if dv {
                    gups::dv::run_spec(self.gups_cfg(), spec)
                } else {
                    gups::mpi::run_spec(self.gups_cfg(), spec)
                })
            }
            Kind::Fft { dv, validate } => {
                let spec = self.spec(inputs, s.bulk_nodes, None, probe);
                Output::Fft(if dv {
                    fft::dv::run_spec(s.fft_n, spec, validate)
                } else {
                    fft::mpi::run_spec(s.fft_n, spec, validate)
                })
            }
            Kind::Bfs { dv, root } => {
                let g = inputs
                    .graph
                    .as_ref()
                    .expect("irregular_bfs set-up builds the graph");
                let n = g.csr.vertices();
                let spec = self.spec(inputs, s.bfs_nodes, None, probe);
                Output::Bfs(if dv {
                    graph::dv::run_spec(&g.locals, n, root, spec)
                } else {
                    graph::mpi::run_spec(&g.locals, n, root, spec)
                })
            }
            Kind::Heat { dv: true } => Output::Heat(heat::dv::run_spec(
                s.heat,
                self.spec(inputs, s.heat.nodes(), None, probe),
            )),
            Kind::Heat { dv: false } => Output::Heat(heat::mpi::run(s.heat)),
            Kind::Snap { dv: true } => Output::Snap(snap::dv::run(s.snap)),
            Kind::Snap { dv: false } => Output::Snap(snap::mpi::run(s.snap)),
            Kind::Sweep { point } => {
                let mut sweep = inputs.sweeps[point].clone();
                sweep.metrics = probe.map(|p| Arc::clone(&p.metrics));
                Output::Sweep(sweep.run(s.sweep[point].load))
            }
        }
    }

    /// Check a call's outputs; on success return the words its simulated
    /// results are digested from.
    pub fn check(
        &self,
        call: &Call,
        out: &Output,
        inputs: &Inputs,
        refs: &Refs,
    ) -> Result<Vec<u64>, String> {
        let s = &self.sizes;
        match (&call.kind, out) {
            (Kind::Barrier(_), Output::Latency(t)) => {
                if *t == 0 {
                    return Err("barrier latency is zero".into());
                }
                Ok(vec![*t])
            }
            (Kind::Gups { nodes, .. }, Output::Gups(r)) => {
                let want = refs.gups.iter().find(|(n, _)| n == nodes).map(|&(_, c)| c);
                if Some(r.checksum) != want {
                    return Err(format!(
                        "checksum {:#x} != serial reference {want:#x?}",
                        r.checksum
                    ));
                }
                Ok(vec![r.nodes as u64, r.total_updates, r.elapsed, r.checksum])
            }
            (Kind::Fft { validate, .. }, Output::Fft(r)) => {
                // A NaN error fails too.
                let bound = FFT_REL_TOL * refs.fft_peak;
                if *validate && r.max_error.partial_cmp(&bound) != Some(std::cmp::Ordering::Less) {
                    return Err(format!(
                        "max_error {} >= {bound} ({FFT_REL_TOL} x peak output)",
                        r.max_error
                    ));
                }
                Ok(vec![r.nodes as u64, r.n as u64, r.flops, r.elapsed])
            }
            (Kind::Bfs { root, .. }, Output::Bfs(r)) => {
                let g = inputs
                    .graph
                    .as_ref()
                    .expect("irregular_bfs set-up builds the graph");
                graph::validate_bfs(&g.csr, *root, &r.parents)?;
                let parents = fnv(r.parents.iter().map(|&p| p as u64));
                Ok(vec![r.root as u64, r.edges_scanned, r.elapsed, parents])
            }
            (Kind::Heat { .. }, Output::Heat(r)) => {
                let field = heat::mpi::assemble(&s.heat, &r.fields);
                if Some(&field) != refs.heat.as_ref() {
                    return Err("heat field differs from the serial solver".into());
                }
                Ok(vec![
                    r.elapsed,
                    r.last_heat.to_bits(),
                    fnv(field.iter().map(|x| x.to_bits())),
                ])
            }
            (Kind::Snap { .. }, Output::Snap(r)) => {
                let field = snap::assemble_phi(&s.snap, &r.fields);
                if Some(&field) != refs.snap.as_ref() {
                    return Err("SNAP flux differs from the serial solver".into());
                }
                Ok(vec![r.elapsed, fnv(field.iter().map(|x| x.to_bits()))])
            }
            (Kind::Sweep { point }, Output::Sweep(p)) => {
                let offered = s.sweep[*point].load;
                if p.delivered == 0 || !(p.accepted > 0.0 && p.accepted <= offered * 1.5) {
                    return Err(format!("implausible sweep point: {p:?}"));
                }
                Ok(vec![
                    p.offered.to_bits(),
                    p.accepted.to_bits(),
                    p.latency_mean.to_bits(),
                    p.total_latency_mean.to_bits(),
                    p.deflections_mean.to_bits(),
                    p.delivered,
                    p.total_latency_p99_log2 as u64,
                ])
            }
            _ => Err("call returned the wrong kind of output".into()),
        }
    }
}

/// Tolerance of the validated FFT, relative to its largest output. The
/// error of either transform grows with the output magnitude, which grows
/// with N: an absolute `1e-8` (the kernels' unit-test bound at N = 2^10)
/// holds only up to N = 2^15, while the relative error at N = 2^20 is 9e-12.
const FFT_REL_TOL: f64 = 1e-10;

/// The input signal of `dv_kernels::fft`'s distributed runs.
fn fft_signal(i: usize) -> Complex {
    let x = i as f64;
    Complex::new((x * 0.7311).sin(), (x * 0.394).cos() * 0.5)
}

/// 64-bit FNV-1a over words.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
