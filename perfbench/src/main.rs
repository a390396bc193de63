//! perfbench — times the paper's figure kernels end to end.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sync_fine --seed 7 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` sets up several times, then repeats the workload's fixed
//! batch of simulation calls for `--seconds`, and reports the end-to-end
//! metrics (medians over passes). `--trace 1` makes one untraced and one
//! traced pass and reports the per-layer metrics; its spans go to
//! `perfbench/out/`. Every call's outputs are checked; the last line of
//! standard output is the result object. See `perfbench/README.md`.

mod host;
mod spans;
mod workload;

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dv_api::DvCluster;
use dv_core::json::Json;
use dv_core::metrics::MetricsSnapshot;
use dv_core::spec::SimSpec;
use dv_core::trace::State;
use mini_mpi::MpiCluster;

use host::{Delta, Sample};
use spans::Spans;
use workload::{Backend, Call, Inputs, Kind, Output, Probe, Refs, Workload};

const USAGE: &str = "usage: perfbench --workload <sync_fine|bulk_compute|irregular_bfs> \
                     [--seed N] [--seconds S] [--trace 0|1] [--tiny] [--spans PATH]";

/// Set-up is timed in samples of at least `SETUP_SAMPLE` (a sample repeats
/// a short set-up, so it averages over the host's brief fast and slow
/// spells):
/// `SETUP_MIN_SAMPLES` before the batch, then more between the batch's
/// calls, as long as set-up has taken less than `SETUP_SHARE` of the run.
/// The samples so span the whole run, and a slow phase of the host weighs
/// on set-up as it does on the passes. The median per-set-up time is
/// reported.
const SETUP_SAMPLE: Duration = Duration::from_millis(50);
const SETUP_MIN_SAMPLES: usize = 3;
const SETUP_SHARE: f64 = 0.2;

/// Passes of the batch made even when they outlast `--seconds`: the
/// reported times are medians over passes. Past these, a pass starts only
/// if it is expected to end within `--seconds`.
const MIN_PASSES: usize = 3;

/// Nodes of the empty clusters that price the simulator's fixed cost.
const EMPTY_NODES: usize = 32;
const EMPTY_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    spans: Option<String>,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 7,
            seconds: 30.0,
            trace: false,
            tiny: false,
            spans: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => a.workload = value()?,
                "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                        return Err("--seconds must be in (0, 3600]".into());
                    }
                }
                "--trace" => {
                    a.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                    }
                }
                "--spans" => a.spans = Some(value()?),
                "--tiny" => a.tiny = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if a.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(a)
    }
}

/// Operations attempted and failed, and each call's first digest.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first: Vec<Option<u64>>,
}

impl Tally {
    /// Account one call: it fails if it panicked, if its check failed, or
    /// if its simulated results differ from its first repetition.
    fn record(&mut self, slot: Option<usize>, name: &str, checked: Result<Vec<u64>, String>) {
        self.attempted += 1;
        let digest = match checked {
            Ok(words) => workload::fnv(words),
            Err(e) => {
                eprintln!("perfbench: {name} failed: {e}");
                self.failed += 1;
                return;
            }
        };
        let Some(i) = slot else { return };
        if self.first.len() <= i {
            self.first.resize(i + 1, None);
        }
        match self.first[i] {
            None => self.first[i] = Some(digest),
            Some(d) if d != digest => {
                eprintln!(
                    "perfbench: {name} failed: simulated results differ from its first repetition"
                );
                self.failed += 1;
            }
            Some(_) => {}
        }
    }

    /// FNV of every batch call's first digest, folded to 53 bits so a JSON
    /// number carries it exactly.
    fn sim_digest(&self) -> u64 {
        let h = workload::fnv(self.first.iter().map(|d| d.unwrap_or(0)));
        (h ^ (h >> 53)) & ((1 << 53) - 1)
    }
}

/// Make one call, turning a panic into a failed check.
fn call_once(
    w: &Workload,
    call: &Call,
    inputs: &Inputs,
    probe: Option<&Probe>,
) -> Result<Output, String> {
    catch_unwind(AssertUnwindSafe(|| w.run(call, inputs, probe))).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()));
        format!("panicked: {}", msg.unwrap_or_default())
    })
}

fn check(
    w: &Workload,
    call: &Call,
    out: Result<Output, String>,
    inputs: &Inputs,
    refs: &Refs,
) -> Result<Vec<u64>, String> {
    w.check(call, &out?, inputs, refs)
}

/// One untraced pass: each call timed on its own, then checked and its
/// output dropped outside the timing, so only one call's output is ever
/// resident. `between` runs after each call, outside its timing.
fn plain_pass(
    w: &Workload,
    calls: &[Call],
    inputs: &Inputs,
    refs: &Refs,
    tally: &mut Tally,
    between: &mut dyn FnMut(),
) -> Vec<Delta> {
    let mut deltas = Vec::with_capacity(calls.len());
    for (i, call) in calls.iter().enumerate() {
        let before = Sample::now();
        let out = call_once(w, call, inputs, None);
        deltas.push(before.delta(&Sample::now()));
        tally.record(Some(i), &call.name, check(w, call, out, inputs, refs));
        between();
    }
    deltas
}

/// One call of a traced pass, with what the per-layer metrics need.
struct Rec {
    call: Call,
    delta: Delta,
    snap: Option<MetricsSnapshot>,
}

/// Make `calls` with a registry and tracer attached to each; `first_slot`
/// is the first call's index in the run's digest table.
fn traced_pass(
    w: &Workload,
    calls: &[Call],
    first_slot: usize,
    inputs: &Inputs,
    refs: &Refs,
    tally: &mut Tally,
    spans: &mut Spans,
) -> Vec<Rec> {
    let mut recs = Vec::new();
    for (i, call) in (first_slot..).zip(calls) {
        let probe = call.instrumentable().then(Probe::new);
        let id = spans.open(&call.name);
        let before = Sample::now();
        let out = call_once(w, call, inputs, probe.as_ref());
        let delta = before.delta(&Sample::now());
        spans.close(id);
        let snap = probe.map(|p| p.metrics.snapshot());
        let mut counts = vec![
            ("wall_s".into(), delta.wall_s),
            ("cpu_s".into(), delta.cpu_s),
            ("cswitch".into(), delta.cswitch as f64),
        ];
        if let Some(s) = &snap {
            counts.extend(counter_totals(s));
        }
        spans.add_counts(id, counts);
        tally.record(Some(i), &call.name, check(w, call, out, inputs, refs));
        recs.push(Rec {
            call: call.clone(),
            delta,
            snap,
        });
    }
    recs
}

/// Every counter of a snapshot, summed over labels, in name order.
fn counter_totals(s: &MetricsSnapshot) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    for ((name, _), v) in s.counters() {
        match out.last_mut() {
            Some((n, total)) if n == name => *total += *v as f64,
            _ => out.push((name.clone(), *v as f64)),
        }
    }
    out
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

/// Repeated set-ups, timed in samples.
struct SetupClock {
    /// Set-ups per sample.
    reps: u32,
    /// Seconds per set-up, one entry per sample.
    samples: Vec<f64>,
    /// Time spent in the samples.
    spent: Duration,
}

impl SetupClock {
    /// Set up once, untimed, to size the samples; returns the inputs the
    /// batch uses and a clock holding `SETUP_MIN_SAMPLES` samples.
    fn start(w: &Workload) -> (Inputs, Self) {
        let t0 = Instant::now();
        let inputs = w.setup(&mut Spans::new(false));
        let once = t0.elapsed();
        let mut clock = Self {
            reps: (SETUP_SAMPLE.as_nanos() / once.as_nanos().max(1)).max(1) as u32,
            samples: Vec::new(),
            spent: Duration::ZERO,
        };
        for _ in 0..SETUP_MIN_SAMPLES {
            clock.sample(w);
        }
        (inputs, clock)
    }

    fn sample(&mut self, w: &Workload) {
        let t0 = Instant::now();
        for _ in 0..self.reps {
            black_box(w.setup(&mut Spans::new(false)));
        }
        let took = t0.elapsed();
        self.spent += took;
        self.samples.push(took.as_secs_f64() / self.reps as f64);
    }

    /// Sample until set-up has taken `SETUP_SHARE` of the time since `run`.
    fn keep_share(&mut self, w: &Workload, run: Instant) {
        while self.spent.as_secs_f64() < SETUP_SHARE * run.elapsed().as_secs_f64() {
            self.sample(w);
        }
    }
}

/// Make the once-per-run calls (the validated FFTs).
fn once_per_run(w: &Workload, inputs: &Inputs, refs: &Refs, tally: &mut Tally, spans: &mut Spans) {
    for call in w.once_per_run() {
        let out = spans.time(&call.name, || call_once(w, &call, inputs, None));
        tally.record(None, &call.name, check(w, &call, out, inputs, refs));
    }
}

type Metric = (String, &'static str, f64);

fn untraced(w: &Workload, args: &Args, tally: &mut Tally) -> Vec<Metric> {
    let (inputs, mut setup) = SetupClock::start(w);
    let calls = w.batch(&inputs);
    let refs = w.references(&inputs, &calls, &mut Spans::new(false));
    let start = Instant::now();
    let mut passes: Vec<Vec<Delta>> = Vec::new();
    loop {
        let spent = start.elapsed().as_secs_f64();
        let next_end = spent + spent / passes.len().max(1) as f64;
        if passes.len() >= MIN_PASSES && next_end > args.seconds {
            break;
        }
        let mut between = || setup.keep_share(w, start);
        passes.push(plain_pass(w, &calls, &inputs, &refs, tally, &mut between));
    }
    once_per_run(w, &inputs, &refs, tally, &mut Spans::new(false));
    // Wall time is the sum of each call's median over the passes, so a call
    // slowed once by the host does not move it. CPU time comes in 10 ms
    // ticks, too coarse for per-call medians, so it is the median pass.
    let wall_s: f64 = (0..calls.len())
        .map(|c| median(passes.iter().map(|p| p[c].wall_s).collect()))
        .sum();
    let pass_sum = |field: fn(&Delta) -> f64| -> Vec<f64> {
        passes.iter().map(|p| p.iter().map(field).sum()).collect()
    };
    eprintln!(
        "perfbench: pass walls {:.3?}, {} set-up samples, sim_digest {}",
        pass_sum(|d| d.wall_s),
        setup.samples.len(),
        tally.sim_digest()
    );
    vec![
        ("wall_s".into(), "s", wall_s),
        ("cpu_s".into(), "s", median(pass_sum(|d| d.cpu_s))),
        ("setup_s".into(), "s", median(setup.samples)),
        ("peak_rss_mb".into(), "MB", host::peak_rss_mb()),
    ]
}

/// Wall of one empty run of each cluster kind: the fixed spawn and
/// teardown cost every simulation call pays.
fn empty_run_ms(spans: &mut Spans) -> f64 {
    let runs: Vec<f64> = (0..EMPTY_REPS)
        .map(|_| {
            let t0 = Instant::now();
            spans.time("empty.dv", || {
                DvCluster::from_spec(SimSpec::new(EMPTY_NODES)).run(|_, _| ())
            });
            spans.time("empty.mpi", || {
                MpiCluster::from_spec(SimSpec::new(EMPTY_NODES)).run(|_, _| ())
            });
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(runs)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn traced(w: &Workload, args: &Args, tally: &mut Tally) -> Vec<Metric> {
    let mut spans = Spans::new(true);
    let root = spans.open(&format!("workload.{}", w.name));
    let setup = spans.open("setup");
    let inputs = w.setup(&mut spans);
    spans.close(setup);
    let calls = w.batch(&inputs);
    let serial = spans.open("serial");
    let refs = w.references(&inputs, &calls, &mut spans);
    spans.close(serial);
    let empty_ms = empty_run_ms(&mut spans);

    // The traced pass's digests are compared call by call with this
    // untraced pass's, so a tracing-induced change counts as a failure.
    let plain = spans.time("pass.untraced", || {
        plain_pass(w, &calls, &inputs, &refs, tally, &mut || {})
    });
    let plain: f64 = plain.iter().map(|d| d.wall_s).sum();
    let pass = spans.open("pass.traced");
    let mut recs = traced_pass(w, &calls, 0, &inputs, &refs, tally, &mut spans);
    spans.close(pass);
    let traced: f64 = recs.iter().map(|r| r.delta.wall_s).sum();
    let switch = spans.open("switch");
    let switch_calls = w.switch_calls(&inputs);
    recs.extend(traced_pass(
        w,
        &switch_calls,
        calls.len(),
        &inputs,
        &refs,
        tally,
        &mut spans,
    ));
    spans.close(switch);
    once_per_run(w, &inputs, &refs, tally, &mut spans);
    spans.close(root);

    let metrics = layer_metrics(
        w,
        &recs,
        &spans,
        empty_ms,
        tally.sim_digest(),
        ratio(traced, plain),
    );
    let path = args.spans.clone().unwrap_or_else(|| {
        format!(
            "{}/out/spans-{}-seed{}.json",
            env!("CARGO_MANIFEST_DIR"),
            w.name,
            args.seed
        )
    });
    let doc = Json::Obj(vec![
        ("workload".into(), Json::str(w.name)),
        ("seed".into(), Json::U64(args.seed)),
        ("host".into(), host::facts()),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|(n, _, v)| (n.clone(), Json::F64(*v)))
                    .collect(),
            ),
        ),
        ("spans".into(), spans.to_json()),
    ]);
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).expect("the spans directory can be created");
    }
    std::fs::write(&path, doc.render_pretty()).expect("the spans file can be written");
    eprintln!("perfbench: spans written to {path}");
    metrics
}

/// The per-layer metrics of a traced pass, in a fixed set: a layer the
/// workload does not exercise reports 0.
fn layer_metrics(
    w: &Workload,
    recs: &[Rec],
    spans: &Spans,
    empty_ms: f64,
    digest: u64,
    overhead: f64,
) -> Vec<Metric> {
    let total = |name: &str, pick: &dyn Fn(&Rec) -> bool| -> f64 {
        recs.iter()
            .filter(|r| pick(r))
            .filter_map(|r| r.snap.as_ref())
            .map(|s| s.counter_total(name) as f64)
            .sum()
    };
    let wall = |pick: &dyn Fn(&Rec) -> bool| -> f64 {
        recs.iter()
            .filter(|r| pick(r))
            .map(|r| r.delta.wall_s)
            .sum()
    };
    let is_sim = |r: &Rec| r.call.backend() != Backend::Switch;
    let sim_probed = |r: &Rec| is_sim(r) && r.snap.is_some();
    let is_dv = |r: &Rec| r.call.backend() == Backend::Dv;
    let is_mpi = |r: &Rec| r.call.backend() == Backend::Mpi;

    let mut m: Vec<Metric> = Vec::new();
    // `+ 0.0` turns the `-0.0` of an empty float sum into `0`.
    let mut put =
        |name: &str, unit: &'static str, v: f64| m.push((name.to_string(), unit, v + 0.0));

    // dv-sim: dispatch and handoff.
    let events = total("sim.sched.resumes", &sim_probed) + total("sim.sched.calls", &sim_probed);
    let cswitch: f64 = recs
        .iter()
        .filter(|r| sim_probed(r))
        .map(|r| r.delta.cswitch as f64)
        .sum();
    let cpu: f64 = recs
        .iter()
        .filter(|r| is_sim(r))
        .map(|r| r.delta.cpu_s)
        .sum();
    put("dv-sim.events", "count", events);
    put(
        "dv-sim.ns_per_event",
        "ns",
        ratio(wall(&sim_probed) * 1e9, events),
    );
    put("dv-sim.cswitch_per_event", "ratio", ratio(cswitch, events));
    put("dv-sim.cpu_per_wall", "ratio", ratio(cpu, wall(&is_sim)));
    put(
        "dv-sim.stale_wakeup_ratio",
        "ratio",
        ratio(
            total("sim.sched.stale_wakeups", &sim_probed),
            total("sim.sched.resumes", &sim_probed),
        ),
    );
    put("dv-sim.empty_run_ms", "ms", empty_ms);

    // mini-mpi: matching and fabric.
    let msgs = total("mpi.msgs", &is_mpi);
    put("mini-mpi.msgs", "count", msgs);
    put("mini-mpi.bytes", "bytes", total("mpi.bytes", &is_mpi));
    put(
        "mini-mpi.coll_calls",
        "count",
        total("mpi.coll.calls", &is_mpi),
    );
    put("mini-mpi.wall_s", "s", wall(&is_mpi));
    put(
        "mini-mpi.ns_per_msg",
        "ns",
        ratio(wall(&|r| is_mpi(r) && r.snap.is_some()) * 1e9, msgs),
    );

    // dv-api / dv-vic: DMA batches, FIFOs, retransmission.
    let packets = total("api.net.packets", &is_dv);
    put("dv-api.packets", "count", packets);
    put("dv-api.bytes", "bytes", total("api.net.bytes", &is_dv));
    put(
        "dv-api.batch_fill",
        "ratio",
        ratio(packets, total("api.net.batches", &is_dv)),
    );
    put(
        "dv-api.retx_ratio",
        "ratio",
        ratio(
            total("api.fifo.retx_words", &is_dv),
            total("api.fifo.reliable_sent", &is_dv),
        ),
    );
    put(
        "dv-vic.fifo_drops",
        "count",
        total("vic.fifo.drops", &is_dv),
    );
    let high_water = recs
        .iter()
        .filter_map(|r| r.snap.as_ref())
        .flat_map(|s| {
            s.gauges()
                .iter()
                .filter(|((n, _), _)| n == "vic.fifo.high_water")
                .map(|(_, v)| *v)
        })
        .fold(0.0, f64::max);
    put("dv-vic.fifo_high_water", "words", high_water);
    put("dv-api.wall_s", "s", wall(&is_dv));
    put(
        "dv-api.ns_per_packet",
        "ns",
        ratio(wall(&|r| is_dv(r) && r.snap.is_some()) * 1e9, packets),
    );
    put(
        "dv-api.recovery_wall_s",
        "s",
        wall(&|r| r.call.is_recovery()),
    );

    // dv-kernels / dv-apps: compute against the serial baselines.
    put(
        "dv-kernels.serial_s.gups",
        "s",
        spans.seconds("serial.gups"),
    );
    put("dv-kernels.serial_s.fft", "s", spans.seconds("serial.fft"));
    put("dv-kernels.serial_s.bfs", "s", spans.seconds("serial.bfs"));
    let paired: Vec<(f64, f64)> = recs
        .iter()
        .filter_map(|r| {
            r.call
                .serial_problem()
                .map(|p| (spans.seconds(&p), r.delta.wall_s))
        })
        .collect();
    put(
        "dv-kernels.compute_share",
        "ratio",
        ratio(
            paired.iter().map(|p| p.0).sum(),
            paired.iter().map(|p| p.1).sum(),
        ),
    );
    put(
        "dv-apps.heat_wall_s",
        "s",
        wall(&|r| matches!(r.call.kind, Kind::Heat { .. })),
    );
    put(
        "dv-apps.snap_wall_s",
        "s",
        wall(&|r| matches!(r.call.kind, Kind::Snap { .. })),
    );

    // dv-switch: cycle-level engines.
    for label in ["vortex32", "vortex2048", "minpath_sparse", "fattree_loaded"] {
        let pick =
            |r: &Rec| matches!(r.call.kind, Kind::Sweep { point } if w.sweep_label(point) == label);
        let cycles = total("switch.cycle.cycles", &pick) + total("rival.cycle.cycles", &pick);
        put(
            &format!("dv-switch.cycles_per_s.{label}"),
            "1/s",
            ratio(cycles, wall(&pick)),
        );
    }
    put(
        "dv-switch.topology_build_s",
        "s",
        spans.seconds("setup.topology"),
    );
    let is_sweep = |r: &Rec| r.call.backend() == Backend::Switch;
    let sweep_gauge = |name: &str| -> f64 {
        let vals: Vec<f64> = recs
            .iter()
            .filter(|r| is_sweep(r))
            .filter_map(|r| r.snap.as_ref())
            .flat_map(|s| {
                s.gauges()
                    .iter()
                    .filter(|((n, _), _)| n == name)
                    .map(|(_, v)| *v)
                    .collect::<Vec<_>>()
            })
            .collect();
        ratio(vals.iter().sum(), vals.len() as f64)
    };
    put(
        "dv-switch.delivered",
        "count",
        total("switch.sweep.delivered", &is_sweep),
    );
    put(
        "dv-switch.accepted",
        "ratio",
        sweep_gauge("switch.sweep.accepted"),
    );
    put(
        "dv-switch.deflections_mean",
        "count",
        sweep_gauge("switch.sweep.deflections_mean"),
    );

    // Virtual time of the modelled machine, per backend and state.
    for (backend, pick) in [("dv", &is_dv as &dyn Fn(&Rec) -> bool), ("mpi", &is_mpi)] {
        let mut per_state = [0.0f64; State::ALL.len()];
        for s in recs
            .iter()
            .filter(|r| pick(r))
            .filter_map(|r| r.snap.as_ref())
        {
            for ((name, labels), v) in s.counters() {
                if name != "trace.state_ps" {
                    continue;
                }
                let state = labels.get("state").and_then(|l| State::from_name(l));
                if let Some(i) = state.and_then(|st| State::ALL.iter().position(|&x| x == st)) {
                    per_state[i] += *v as f64;
                }
            }
        }
        let sum: f64 = per_state.iter().sum();
        for (state, v) in State::ALL.iter().zip(per_state) {
            put(
                &format!("virt.share.{backend}.{}", state.name().to_lowercase()),
                "ratio",
                ratio(v, sum),
            );
        }
    }
    put("sim_digest", "digest", digest as f64);
    put("dv-core.trace_overhead", "ratio", overhead);
    m
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::new(&args.workload, args.seed, args.tiny) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let facts = Json::Obj(vec![
        ("workload".into(), Json::str(w.name)),
        ("seed".into(), Json::U64(args.seed)),
        ("trace".into(), Json::Bool(args.trace)),
        ("host".into(), host::facts()),
    ]);
    println!("{}", facts.render());
    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced(&w, &args, &mut tally)
    } else {
        untraced(&w, &args, &mut tally)
    };
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(tally.failed == 0)),
        ("attempted".into(), Json::U64(tally.attempted)),
        ("failed".into(), Json::U64(tally.failed)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, unit, value)| {
                        (
                            name,
                            Json::Obj(vec![
                                ("value".into(), Json::F64(value)),
                                ("unit".into(), Json::str(unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}
