//! Render a `BENCH_*.json` artifact (written by any fig binary's
//! `--json <path>` flag) as a human-readable perf report: result tables,
//! top counters, histograms, and the execution timeline.
//!
//! Usage:
//!   `dv-report <file.json> [more.json ...]`
//!   `dv-report --gate <current.json> <previous.json> [--max-regress PCT]`
//!   `dv-report --gate <BENCH_sim.json> [--min-speedup X]`
//!   `dv-report --gate <BENCH_switch.json> [--min-speedup X]`
//!
//! `--gate` is the CI perf check, in two shapes keyed on what it is
//! given:
//!
//! * **Two artifacts** — the perf-trajectory check (current build vs the
//!   previous run's uploaded artifact): it extracts the artifact's
//!   trajectory figure — the `arena+worklist` cycles/sec row for
//!   `perf_smoke`, the `net cycles/sec speedup` summary row for
//!   `net_smoke` — and exits nonzero if the current number regressed by
//!   more than `PCT` percent (default 10). Improvements always pass.
//! * **One artifact** — an absolute floor, dispatched on the artifact's
//!   `bench` field: `perf_smoke` gates the batched wide movement
//!   kernel's speedup over the frozen scalar kernel at H=2048 (default
//!   floor 3); `net_smoke` gates the rebuilt rival-topology routed
//!   engine's cycles/sec speedup over the frozen pre-rebuild reference
//!   on sparse 4096-port traffic (default floor 3); anything else is
//!   the scheduler gate — the sharded engine's 1024-node pump speedup
//!   over the frozen pre-sharding reference (default floor 4), and its
//!   1024-node ring speedup, which must be at least 1 (never slower than
//!   the reference on the handoff-bound row).

use dv_bench::report::render_report;
use dv_core::json::Json;

/// The cycles/sec value of the `arena+worklist` row in a `perf_smoke`
/// artifact (`dv-bench-v1` schema).
fn arena_cycles_per_sec(doc: &Json) -> Result<f64, String> {
    if doc.get("schema").and_then(Json::as_str) != Some("dv-bench-v1") {
        return Err("not a dv-bench-v1 artifact".into());
    }
    let results = doc.get("results").and_then(Json::as_arr).unwrap_or_default();
    for section in results {
        let headers = section.get("headers").and_then(Json::as_arr).unwrap_or_default();
        let Some(col) =
            headers.iter().position(|h| h.as_str() == Some("cycles/sec"))
        else {
            continue;
        };
        for row in section.get("rows").and_then(Json::as_arr).unwrap_or_default() {
            let cells = row.as_arr().unwrap_or_default();
            if cells.first().and_then(Json::as_str) == Some("arena+worklist") {
                return cells
                    .get(col)
                    .and_then(Json::as_str)
                    .and_then(|s| s.parse::<f64>().ok())
                    .ok_or_else(|| "arena+worklist row has no numeric cycles/sec".into());
            }
        }
    }
    Err("no section with an arena+worklist cycles/sec row".into())
}

/// Floor on the sharded engine's `ring@1024` speedup: every ring message
/// is a real thread handoff, so this row catches a dispatcher that makes
/// handoffs slower than the reference engine's.
const RING_FLOOR: f64 = 1.0;

/// The sharded-over-reference speedup in the speedup row named `name`
/// (e.g. `pump@1024`) of a `sched_smoke` artifact (`dv-bench-v1` schema).
fn sched_speedup(doc: &Json, name: &str) -> Result<f64, String> {
    if doc.get("schema").and_then(Json::as_str) != Some("dv-bench-v1") {
        return Err("not a dv-bench-v1 artifact".into());
    }
    if doc.get("bench").and_then(Json::as_str) != Some("sched_smoke") {
        return Err("not a sched_smoke artifact".into());
    }
    let results = doc.get("results").and_then(Json::as_arr).unwrap_or_default();
    for section in results {
        let headers = section.get("headers").and_then(Json::as_arr).unwrap_or_default();
        let Some(col) = headers.iter().position(|h| h.as_str() == Some("speedup")) else {
            continue;
        };
        for row in section.get("rows").and_then(Json::as_arr).unwrap_or_default() {
            let cells = row.as_arr().unwrap_or_default();
            if cells.first().and_then(Json::as_str) == Some(name) {
                return cells
                    .get(col)
                    .and_then(Json::as_str)
                    .and_then(|s| s.parse::<f64>().ok())
                    .ok_or_else(|| format!("{name} row has no numeric speedup"));
            }
        }
    }
    Err(format!("no section with a {name} speedup row"))
}

/// A named figure from a metric/value summary section of a `dv-bench-v1`
/// artifact: the cell in the `value` column of the row whose first cell
/// is `metric` (how `perf_smoke` reports `wide cycles/sec speedup` and
/// `net_smoke` reports `net cycles/sec speedup`).
fn summary_figure(doc: &Json, metric: &str) -> Result<f64, String> {
    if doc.get("schema").and_then(Json::as_str) != Some("dv-bench-v1") {
        return Err("not a dv-bench-v1 artifact".into());
    }
    let results = doc.get("results").and_then(Json::as_arr).unwrap_or_default();
    for section in results {
        let headers = section.get("headers").and_then(Json::as_arr).unwrap_or_default();
        let Some(col) = headers.iter().position(|h| h.as_str() == Some("value")) else {
            continue;
        };
        for row in section.get("rows").and_then(Json::as_arr).unwrap_or_default() {
            let cells = row.as_arr().unwrap_or_default();
            if cells.first().and_then(Json::as_str) == Some(metric) {
                return cells
                    .get(col)
                    .and_then(Json::as_str)
                    .and_then(|s| s.parse::<f64>().ok())
                    .ok_or_else(|| format!("{metric} row has no numeric value"));
            }
        }
    }
    Err(format!("no section with a {metric} row"))
}

/// The perf-trajectory figure of an artifact, dispatched on its `bench`
/// field: `perf_smoke` tracks the absolute `arena+worklist` cycles/sec,
/// `net_smoke` tracks the routed-path speedup over its frozen in-tree
/// reference (a ratio, so it is stable across runner hardware).
fn trajectory_figure(doc: &Json) -> Result<(f64, &'static str), String> {
    match doc.get("bench").and_then(Json::as_str) {
        Some("net_smoke") => summary_figure(doc, "net cycles/sec speedup")
            .map(|x| (x, "net cycles/sec speedup")),
        _ => arena_cycles_per_sec(doc).map(|x| (x, "arena+worklist cycles/sec")),
    }
}

/// Load and parse one artifact, mapping errors to readable messages.
fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Check a single artifact against its absolute floors, dispatched on
/// its `bench` field: perf_smoke gates the wide movement kernel,
/// net_smoke the rival-topology routed engine, anything else is the
/// scheduler (pump and ring rows). `min_speedup` overrides the first
/// floor. Returns the process exit code.
fn gate_floors(doc: &Json, min_speedup: Option<f64>) -> i32 {
    let checks = match doc.get("bench").and_then(Json::as_str) {
        Some("perf_smoke") => {
            let figure = summary_figure(doc, "wide cycles/sec speedup")
                .map(|x| (x, "batched wide-kernel movement speedup at H=2048"));
            vec![("wide", figure, min_speedup.unwrap_or(3.0))]
        }
        Some("net_smoke") => {
            let figure = summary_figure(doc, "net cycles/sec speedup")
                .map(|x| (x, "routed-path speedup over the frozen reference at 4096 ports"));
            vec![("net", figure, min_speedup.unwrap_or(3.0))]
        }
        _ => {
            let pump = sched_speedup(doc, "pump@1024")
                .map(|x| (x, "sharded pump speedup at 1024 nodes"));
            let ring = sched_speedup(doc, "ring@1024")
                .map(|x| (x, "sharded ring speedup at 1024 nodes"));
            vec![("sched", pump, min_speedup.unwrap_or(4.0)), ("sched", ring, RING_FLOOR)]
        }
    };
    let mut code = 0;
    for (name, figure, floor) in checks {
        let (speedup, what) = match figure {
            Ok(x) => x,
            Err(e) => {
                eprintln!("gate: {e}");
                return 2;
            }
        };
        println!("{name} gate: {what} = {speedup:.2}x");
        if speedup < floor {
            eprintln!("{name} gate FAILED: below the {floor:.2}x floor");
            code = 1;
        } else {
            println!("{name} gate passed (floor: {floor:.2}x)");
        }
    }
    code
}

/// Run the perf-trajectory gate; returns the process exit code.
fn run_gate(args: &[String]) -> i32 {
    let mut max_regress_pct = 10.0;
    let mut min_speedup: Option<f64> = None;
    let mut files: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--max-regress" || a == "--min-speedup" {
            match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if a == "--max-regress" => max_regress_pct = v,
                Some(v) => min_speedup = Some(v),
                None => {
                    eprintln!("{a} needs a numeric value");
                    return 2;
                }
            }
        } else {
            files.push(a);
        }
    }
    if let [single_path] = files[..] {
        let doc = match load(single_path) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("gate: {e}");
                return 2;
            }
        };
        return gate_floors(&doc, min_speedup);
    }
    let [current_path, previous_path] = files[..] else {
        eprintln!(
            "usage: dv-report --gate <current.json> <previous.json> [--max-regress PCT] | dv-report --gate <BENCH_sim.json> [--min-speedup X]"
        );
        return 2;
    };
    let figure = |path: &str| load(path).and_then(|doc| trajectory_figure(&doc));
    let ((current, label), (previous, prev_label)) =
        match (figure(current_path), figure(previous_path)) {
            (Ok(c), Ok(p)) => (c, p),
            (c, p) => {
                for r in [c, p] {
                    if let Err(e) = r {
                        eprintln!("gate: {e}");
                    }
                }
                return 2;
            }
        };
    if label != prev_label {
        eprintln!("gate: artifacts track different figures ({label} vs {prev_label})");
        return 2;
    }
    let change_pct = (current - previous) / previous * 100.0;
    println!("perf gate: {label} {previous:.2} -> {current:.2} ({change_pct:+.1}%)");
    if change_pct < -max_regress_pct {
        eprintln!("perf gate FAILED: regression exceeds {max_regress_pct:.1}% budget");
        return 1;
    }
    println!("perf gate passed (budget: -{max_regress_pct:.1}%)");
    0
}

/// Render dv-events-v1 streams as virtual-time timelines; returns the
/// process exit code.
fn run_timeline(files: &[String]) -> i32 {
    if files.is_empty() {
        eprintln!("usage: dv-report --timeline <stream.jsonl> [more ...]");
        return 2;
    }
    let mut code = 0;
    for file in files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{file}: {e}");
                code = 1;
                continue;
            }
        };
        match dv_bench::stream::parse_stream(&text) {
            Ok(doc) => {
                println!("# {file}");
                println!("{}", dv_bench::stream::render_timeline(&doc));
            }
            Err(e) => {
                eprintln!("{file}: {e}");
                code = 1;
            }
        }
    }
    code
}

fn main() {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.first().map(String::as_str) == Some("--gate") {
        std::process::exit(run_gate(&files[1..]));
    }
    if files.first().map(String::as_str) == Some("--timeline") {
        std::process::exit(run_timeline(&files[1..]));
    }
    if files.is_empty() {
        eprintln!(
            "usage: dv-report <file.json> [more.json ...] | dv-report --gate <cur> <prev> | dv-report --timeline <stream.jsonl>"
        );
        std::process::exit(2);
    }
    let mut failed = false;
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{file}: {e}");
                failed = true;
                continue;
            }
        };
        let doc = match Json::parse(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("{file}: {e}");
                failed = true;
                continue;
            }
        };
        match render_report(&doc) {
            Ok(report) => {
                println!("# {file}");
                println!("{report}");
            }
            Err(e) => {
                eprintln!("{file}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal `sched_smoke` artifact with the given speedup rows.
    fn sched_doc(rows: &[(&str, &str)]) -> Json {
        let rows: Vec<String> =
            rows.iter().map(|(name, x)| format!("[\"{name}\", \"{x}\"]")).collect();
        let text = format!(
            "{{\"schema\": \"dv-bench-v1\", \"bench\": \"sched_smoke\", \"results\": \
             [{{\"headers\": [\"workload\", \"speedup\"], \"rows\": [{}]}}]}}",
            rows.join(", ")
        );
        Json::parse(&text).unwrap()
    }

    #[test]
    fn committed_sim_baseline_passes() {
        let doc = Json::parse(include_str!("../../../../results/BENCH_sim.json")).unwrap();
        assert_eq!(gate_floors(&doc, None), 0);
    }

    #[test]
    fn pump_below_its_floor_fails() {
        let below = sched_doc(&[("pump@1024", "3.99"), ("ring@1024", "1.50")]);
        assert_eq!(gate_floors(&below, None), 1);
        let at = sched_doc(&[("pump@1024", "4.00"), ("ring@1024", "1.50")]);
        assert_eq!(gate_floors(&at, None), 0);
    }

    #[test]
    fn ring_below_its_floor_fails() {
        let below = sched_doc(&[("pump@1024", "8.00"), ("ring@1024", "0.99")]);
        assert_eq!(gate_floors(&below, None), 1);
        let at = sched_doc(&[("pump@1024", "8.00"), ("ring@1024", "1.00")]);
        assert_eq!(gate_floors(&at, None), 0);
    }

    #[test]
    fn missing_row_is_a_usage_error() {
        assert_eq!(gate_floors(&sched_doc(&[("pump@1024", "8.00")]), None), 2);
        assert_eq!(gate_floors(&sched_doc(&[("ring@1024", "1.50")]), None), 2);
    }
}
