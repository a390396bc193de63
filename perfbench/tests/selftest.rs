//! Self-test of the benchmark: every workload at its tiny size, untraced
//! and traced. Every metric `BENCHMARK.json` names must appear with its
//! unit, every call must pass its checks, and the simulated-results digest
//! must repeat across invocations.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;

use dv_core::json::Json;

const WORKLOADS: [&str; 3] = ["sync_fine", "bulk_compute", "irregular_bfs"];

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one of the contract's metric lists.
fn named(contract: &Json, list: &str) -> Vec<(String, String)> {
    contract
        .get(list)
        .and_then(Json::as_arr)
        .expect("metric list present")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn perfbench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

/// Run one tiny invocation and return its result object.
fn run(workload: &str, trace: bool, tag: &str) -> Json {
    let spans = format!(
        "{}/spans-{workload}-{tag}.json",
        env!("CARGO_TARGET_TMPDIR")
    );
    let trace = if trace { "1" } else { "0" };
    let out = perfbench(&[
        "--workload",
        workload,
        "--tiny",
        "--seconds",
        "0.1",
        "--seed",
        "11",
        "--trace",
        trace,
        "--spans",
        &spans,
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the last line is a JSON object")
}

fn check_result(workload: &str, result: &Json, wanted: &[(String, String)]) {
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {}",
        result.render()
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(
        result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "{workload}"
    );
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object");
    assert_eq!(
        metrics.len(),
        wanted.len(),
        "{workload}: exactly the contract's metrics"
    );
    for (name, unit) in wanted {
        let m = result.get("metrics").and_then(|m| m.get(name));
        let m = m.unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{workload}: unit of {name}"
        );
        let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        assert!(v.is_finite(), "{workload}: {name} = {v}");
    }
}

#[test]
fn every_workload_reports_every_metric_and_repeats_its_digest() {
    let contract = contract();
    let e2e = named(&contract, "end_to_end");
    let layers = named(&contract, "per_layer");
    for workload in WORKLOADS {
        let plain = run(workload, false, "plain");
        check_result(workload, &plain, &e2e);
        for (name, _) in &e2e {
            let v = plain
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"));
            assert!(
                v.and_then(Json::as_f64).unwrap_or(0.0) > 0.0,
                "{workload}: {name} must be positive"
            );
        }
        let digest = |r: &Json| {
            r.get("metrics")
                .and_then(|m| m.get("sim_digest"))
                .and_then(|m| m.get("value"))
                .cloned()
        };
        let first = run(workload, true, "a");
        // The dv-switch layer is swept in bulk_compute's traced run.
        let delivered = first
            .get("metrics")
            .and_then(|m| m.get("dv-switch.delivered"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(
            delivered.is_some_and(|d| d > 0.0),
            workload == "bulk_compute",
            "{workload}: dv-switch.delivered = {delivered:?}"
        );
        let second = run(workload, true, "b");
        check_result(workload, &first, &layers);
        check_result(workload, &second, &layers);
        assert_eq!(
            digest(&first),
            digest(&second),
            "{workload}: sim_digest differs between invocations"
        );
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "1"],
        &["--workload", "sync_fine", "--trace", "2"],
    ] {
        let out = perfbench(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("\"correct\""),
            "{args:?} printed a result"
        );
    }
}
