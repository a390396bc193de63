//! Supplementary: cycle-accurate Data Vortex switch characterization.
//!
//! Reproduces the methodology of the robustness studies the paper cites
//! (refs \[14\]\[15\]): offered-load sweeps per traffic pattern, reporting
//! accepted throughput, latency, and deflections, plus the topology
//! summary of Figure 1 and the analytic-model calibration.

use std::sync::Arc;

use dv_bench::{f2, f3, faults, quick, serial, Report};
use dv_core::config::DvParams;
use dv_core::metrics::MetricsRegistry;
use dv_switch::traffic::{Arrival, LoadSweep, Pattern};
use dv_switch::{AnyTopology, SwitchModel, TopoKind, Topology};

fn main() {
    let mut report = Report::new("switch_study");
    let topo = Topology::new(8, 4);
    println!(
        "Data Vortex switch: H={} A={} -> C={} cylinders, {} ports, {} switching nodes\n",
        topo.height,
        topo.angles,
        topo.cylinders(),
        topo.ports(),
        topo.nodes()
    );

    let measure = if quick() { 1_000 } else { 5_000 };
    let fault_plan = faults();
    let loads = [0.1, 0.3, 0.5, 0.7, 0.9];

    // `--stream`: a dedicated serial run at 0.7 offered load streams the
    // switch's cycle-level telemetry, with virtual time = cycle × hop
    // time, flushed at every sample boundary.
    if dv_bench::stream::stream_path().is_some() {
        let metrics = Arc::new(MetricsRegistry::enabled());
        let streamer = dv_bench::Streamer::attach(&metrics, "switch_study", topo.ports())
            .expect("--stream was passed");
        let hop_ps = DvParams::default().hop_time;
        let flush_cycles = (streamer.interval_ps() / hop_ps).max(1);
        let mut sweep = LoadSweep::new(topo.clone());
        sweep.measure = measure;
        sweep.metrics = Some(Arc::clone(&metrics));
        sweep.faults = fault_plan.clone();
        let end_cycles = sweep.warmup + sweep.measure;
        sweep.run_streamed(0.7, hop_ps, flush_cycles);
        streamer.finish(end_cycles * hop_ps);
    }
    for pattern in [Pattern::Uniform, Pattern::Hotspot, Pattern::Tornado, Pattern::BitReverse] {
        let metrics = Arc::new(MetricsRegistry::enabled());
        let mut sweep = LoadSweep::new(topo.clone());
        sweep.pattern = pattern;
        sweep.measure = measure;
        sweep.metrics = Some(Arc::clone(&metrics));
        sweep.faults = fault_plan.clone();
        // The parallel driver is byte-identical to the serial one; CI cmps
        // a --serial run against this output to prove it.
        let points =
            if serial() { sweep.sweep(&loads) } else { sweep.sweep_parallel(&loads) };
        let mut rows = Vec::new();
        for p in points {
            rows.push(vec![
                f2(p.offered),
                f3(p.accepted),
                f2(p.latency_mean),
                f2(p.total_latency_mean),
                format!("<2^{}", p.total_latency_p99_log2.saturating_add(1)),
                f3(p.deflections_mean),
            ]);
        }
        report.section(
            &format!("pattern: {pattern:?} (Bernoulli arrivals)"),
            &["offered", "accepted", "switch lat (cyc)", "total lat (cyc)", "p99 lat", "deflections"],
            rows,
        );
        report.add_run(&format!("sweep.{pattern:?}"), &metrics);
    }

    // Bursty traffic (the Yang & Bergman study).
    let metrics = Arc::new(MetricsRegistry::enabled());
    let mut sweep = LoadSweep::new(topo.clone());
    sweep.arrival = Arrival::Bursty { mean_burst: 8.0 };
    sweep.measure = measure;
    sweep.metrics = Some(Arc::clone(&metrics));
    sweep.faults = fault_plan;
    let points = if serial() { sweep.sweep(&loads) } else { sweep.sweep_parallel(&loads) };
    let mut rows = Vec::new();
    for p in points {
        rows.push(vec![f2(p.offered), f3(p.accepted), f2(p.total_latency_mean), f3(p.deflections_mean)]);
    }
    report.section(
        "pattern: Uniform, bursty arrivals (mean burst 8)",
        &["offered", "accepted", "total lat (cyc)", "deflections"],
        rows,
    );
    report.add_run("sweep.bursty", &metrics);

    // Rival topologies at the same port count: the k-ary fat tree and the
    // Deng et al. min-path random-regular graph under the patterns where
    // deflection routing claims its irregular-traffic advantage. Same
    // LoadSweep driver, same accounting, one point per (kind, pattern);
    // `scaling_study --topo <kind>` extends this cross-section to 4096
    // ports. Rival rows run fault-free so the comparison isolates the
    // topology, not the fault plan.
    let mut rows = Vec::new();
    for kind in TopoKind::ALL {
        let net = AnyTopology::for_ports(kind, topo.ports());
        for pattern in [Pattern::Uniform, Pattern::Hotspot, Pattern::Tornado, Pattern::BitReverse]
        {
            let mut sweep = LoadSweep::for_net(net.clone());
            sweep.pattern = pattern;
            sweep.measure = measure;
            let p = sweep.run(0.7);
            rows.push(vec![
                kind.name().into(),
                format!("{pattern:?}"),
                f3(p.accepted),
                f2(p.total_latency_mean),
                f3(p.deflections_mean),
            ]);
        }
    }
    report.section(
        &format!("Rival topologies at {} ports, 0.7 offered load", topo.ports()),
        &["topology", "pattern", "accepted/port", "total lat (cyc)", "deflections"],
        rows,
    );

    // Analytic model calibration against the cycle simulator.
    let mut model = SwitchModel::from_params(&DvParams::default());
    let calibrated = model.calibrate(7);
    println!(
        "analytic model: calibrated saturation deflection penalty = {:.2} hops (paper: \"statistically by two hops\")",
        calibrated
    );
    report.finish();
}
