//! Streaming telemetry: the `dv-events-v1` JSONL stream every benchmark
//! binary can emit behind `--stream <path|->`.
//!
//! The stream is a line-oriented JSON log of delta-compressed metric
//! samples taken at deterministic **virtual-time** intervals (see
//! `dv_core::metrics::Timeseries`): one header line, one line per
//! non-empty sample, one end line.
//!
//! ```json
//! {"schema":"dv-events-v1","bench":"fig6","quick":true,"interval_ps":10000000,"nodes":4}
//! {"event":"sample","seq":0,"t_ps":10000000,"delta":{ ...MetricsSnapshot... }}
//! {"event":"end","t_ps":123456789,"samples":42,"fnv":1234567890123}
//! ```
//!
//! Because sampling is keyed purely to virtual time — the scheduler's
//! event clock, never the host clock — two runs of the same seeded
//! workload produce **byte-identical** streams; CI `cmp`s repeated
//! streams the same way it compares trace hashes. The `fnv` field of the
//! end record is an FNV-1a hash over every sample line (including the
//! trailing newline), so a consumer can verify a stream without
//! re-rendering it.

use std::io::Write as _;
use std::sync::{Arc, Mutex};

use dv_core::fnv::{fnv1a, FNV_OFFSET};
use dv_core::json::Json;
use dv_core::metrics::{MetricsRegistry, MetricsSnapshot, TimeseriesSample};
use dv_core::time::{us, Time};

/// Default sampling interval: 10 µs of virtual time.
const DEFAULT_INTERVAL: Time = us(10);
/// Samples retained in the in-memory ring (the sink sees every sample
/// regardless; the ring only serves post-run inspection).
const RING_CAPACITY: usize = 4096;

/// The `--stream <path|->` (or `--stream=path`) argument, if present.
/// `-` streams to stdout.
pub fn stream_path() -> Option<String> {
    crate::arg_value("--stream")
}

/// The `--stream-interval <us>` argument (virtual microseconds between
/// samples), defaulting to 10 µs.
pub fn stream_interval_ps() -> Time {
    match crate::arg_value("--stream-interval").map(|v| v.parse::<u64>()) {
        None => DEFAULT_INTERVAL,
        Some(Ok(n)) if n > 0 => us(n),
        Some(_) => {
            eprintln!("--stream-interval requires a positive integer (microseconds)");
            std::process::exit(2);
        }
    }
}

/// Shared sink state: the output, plus the running FNV over sample lines.
struct SinkState {
    out: Box<dyn std::io::Write + Send>,
    fnv: u64,
    samples: u64,
}

impl SinkState {
    /// Write one line; fold it into the stream hash when `hashed`
    /// (sample lines are hashed, the header and end lines are not — the
    /// end line *carries* the hash).
    fn line(&mut self, text: &str, hashed: bool) {
        if hashed {
            self.fnv = fnv1a(fnv1a(self.fnv, text.as_bytes()), b"\n");
            self.samples += 1;
        }
        if writeln!(self.out, "{text}").and_then(|_| self.out.flush()).is_err() {
            // A closed pipe (e.g. `fig6 --stream - | head`) is not an
            // error worth failing the benchmark over.
            std::process::exit(0);
        }
    }
}

/// A live `dv-events-v1` emitter bound to one registry.
///
/// Created by [`Streamer::attach`] when `--stream` was passed: writes the
/// header, attaches a virtual-time series to the registry, and points the
/// series sink at the output. The benchmark runs its instrumented
/// workload, then calls [`Streamer::finish`] with the run's end time.
pub struct Streamer {
    metrics: Arc<MetricsRegistry>,
    state: Arc<Mutex<SinkState>>,
    interval_ps: Time,
}

impl Streamer {
    /// Attach a stream to `metrics` if `--stream` was passed. Writes the
    /// header line immediately; every subsequent virtual-time sample goes
    /// straight to the output as it is taken.
    pub fn attach(metrics: &Arc<MetricsRegistry>, bench: &str, nodes: usize) -> Option<Self> {
        let path = stream_path()?;
        let out: Box<dyn std::io::Write + Send> = if path == "-" {
            Box::new(std::io::stdout())
        } else {
            match std::fs::File::create(&path) {
                Ok(f) => Box::new(f),
                Err(e) => {
                    eprintln!("failed to create stream file {path}: {e}");
                    std::process::exit(1);
                }
            }
        };
        let interval_ps = stream_interval_ps();
        let state = Arc::new(Mutex::new(SinkState { out, fnv: FNV_OFFSET, samples: 0 }));
        let header = Json::Obj(vec![
            ("schema".to_string(), Json::str("dv-events-v1")),
            ("bench".to_string(), Json::str(bench)),
            ("quick".to_string(), Json::Bool(crate::quick())),
            ("interval_ps".to_string(), Json::U64(interval_ps)),
            ("nodes".to_string(), Json::U64(nodes as u64)),
        ]);
        state.lock().unwrap().line(&header.render(), false);
        metrics.attach_series(interval_ps, RING_CAPACITY);
        let sink_state = Arc::clone(&state);
        metrics.set_series_sink(move |s| {
            sink_state.lock().unwrap().line(&render_sample(s), true);
        });
        Some(Self { metrics: Arc::clone(metrics), state, interval_ps })
    }

    /// The sampling interval (virtual picoseconds).
    pub fn interval_ps(&self) -> Time {
        self.interval_ps
    }

    /// The registry this stream samples.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Record the final sample at virtual time `end` (after all
    /// end-of-run publishes) and write the end line. Consumes the
    /// streamer; the registry keeps its cumulative totals for `--json`.
    pub fn finish(self, end: Time) {
        self.metrics.finish_series(end);
        self.metrics.take_series();
        let mut st = self.state.lock().unwrap();
        let line = Json::Obj(vec![
            ("event".to_string(), Json::str("end")),
            ("t_ps".to_string(), Json::U64(end)),
            ("samples".to_string(), Json::U64(st.samples)),
            ("fnv".to_string(), Json::U64(st.fnv)),
        ])
        .render();
        st.line(&line, false);
    }
}

/// Canonical sample line: `{"event":"sample","seq":…,"t_ps":…,"delta":…}`.
fn render_sample(s: &TimeseriesSample) -> String {
    Json::Obj(vec![
        ("event".to_string(), Json::str("sample")),
        ("seq".to_string(), Json::U64(s.seq)),
        ("t_ps".to_string(), Json::U64(s.t_ps)),
        ("delta".to_string(), s.delta.to_json()),
    ])
    .render()
}

/// One parsed line of a `dv-events-v1` stream.
pub enum StreamLine {
    /// The header record.
    Header(StreamHeader),
    /// One delta-compressed sample.
    Sample(StreamSample),
    /// The end record.
    End(StreamEnd),
}

/// Parsed header record.
#[derive(Debug, Clone)]
pub struct StreamHeader {
    /// The emitting benchmark binary.
    pub bench: String,
    /// Whether the run used `--quick` sizes.
    pub quick: bool,
    /// Sampling interval, virtual picoseconds.
    pub interval_ps: Time,
    /// Cluster/port count of the streamed run.
    pub nodes: u64,
}

/// Parsed sample record.
pub struct StreamSample {
    /// Sample index (0-based, gap-free).
    pub seq: u64,
    /// Virtual time of the sample boundary.
    pub t_ps: Time,
    /// Everything recorded in the interval ending at `t_ps`.
    pub delta: MetricsSnapshot,
}

/// Parsed end record.
#[derive(Debug, Clone, Copy)]
pub struct StreamEnd {
    /// Virtual time of the run's final sample.
    pub t_ps: Time,
    /// Sample lines in the stream.
    pub samples: u64,
    /// FNV-1a over every sample line (incl. trailing newlines).
    pub fnv: u64,
}

/// Parse one line of a `dv-events-v1` stream.
pub fn parse_line(line: &str) -> Result<StreamLine, String> {
    let j = Json::parse(line).map_err(|e| format!("bad stream line: {e:?}"))?;
    let u = |key: &str| {
        j.get(key).and_then(Json::as_u64).ok_or_else(|| format!("line is missing `{key}`"))
    };
    if let Some(schema) = j.get("schema").and_then(Json::as_str) {
        if schema != "dv-events-v1" {
            return Err(format!("unsupported stream schema {schema:?}"));
        }
        return Ok(StreamLine::Header(StreamHeader {
            bench: j.get("bench").and_then(Json::as_str).unwrap_or("?").to_string(),
            quick: matches!(j.get("quick"), Some(Json::Bool(true))),
            interval_ps: u("interval_ps")?,
            nodes: u("nodes")?,
        }));
    }
    match j.get("event").and_then(Json::as_str) {
        Some("sample") => Ok(StreamLine::Sample(StreamSample {
            seq: u("seq")?,
            t_ps: u("t_ps")?,
            delta: MetricsSnapshot::from_json(
                j.get("delta").ok_or("sample without `delta`")?,
            )?,
        })),
        Some("end") => {
            Ok(StreamLine::End(StreamEnd { t_ps: u("t_ps")?, samples: u("samples")?, fnv: u("fnv")? }))
        }
        other => Err(format!("unknown stream event {other:?}")),
    }
}

/// A whole stream, parsed (replay / reporting).
pub struct StreamDoc {
    /// The header (first line).
    pub header: StreamHeader,
    /// All samples, in order.
    pub samples: Vec<StreamSample>,
    /// The end record, when the stream ran to completion.
    pub end: Option<StreamEnd>,
}

/// Parse a complete stream; verifies the end record's sample count when
/// present.
pub fn parse_stream(text: &str) -> Result<StreamDoc, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let first = lines.next().ok_or("empty stream")?;
    let StreamLine::Header(header) = parse_line(first)? else {
        return Err("stream does not start with a dv-events-v1 header".to_string());
    };
    let mut samples = Vec::new();
    let mut end = None;
    for line in lines {
        match parse_line(line)? {
            StreamLine::Header(_) => return Err("duplicate stream header".to_string()),
            StreamLine::Sample(s) => {
                if end.is_some() {
                    return Err("sample after end record".to_string());
                }
                samples.push(s);
            }
            StreamLine::End(e) => end = Some(e),
        }
    }
    if let Some(e) = &end {
        if e.samples != samples.len() as u64 {
            return Err(format!(
                "end record claims {} samples, stream has {}",
                e.samples,
                samples.len()
            ));
        }
    }
    Ok(StreamDoc { header, samples, end })
}

/// The per-interval signals `dv-report --timeline` and `dv-top` read off
/// a sample delta: traffic, drops, deflections, backpressure, and the
/// instantaneous FIFO/load gauges.
pub struct IntervalSignals {
    /// Packets offered to the network in the interval (event-model
    /// `api.net.packets` plus cycle-model `switch.cycle.injected`).
    pub packets: u64,
    /// Packets lost in the interval: VIC FIFO overflows plus injected
    /// link faults plus sweep-level fault drops.
    pub drops: u64,
    /// Deflections in the interval (analytic-model expected hops
    /// observed per traversal, plus cycle-model contention deflections).
    pub deflections: u64,
    /// Sender-side backpressure rejections in the interval.
    pub backpressure: u64,
    /// Deepest VIC surprise-FIFO at the sample boundary (`None` when the
    /// stream carries no depth gauges, e.g. pure cycle-sim streams).
    pub fifo_depth: Option<f64>,
    /// Instantaneous switch load in `[0, 1]` (event model) or the peak
    /// per-cylinder mean occupancy (cycle model).
    pub load: Option<f64>,
}

impl IntervalSignals {
    /// Extract the signals from one sample's delta.
    pub fn from_delta(delta: &MetricsSnapshot) -> Self {
        let hist_total = |name: &str| {
            delta
                .histograms()
                .iter()
                .filter(|((n, _), _)| n == name)
                .map(|(_, h)| h.total)
                .sum::<u64>()
        };
        let gauge_named = |name: &str| {
            delta
                .gauges()
                .iter()
                .filter(|((n, _), _)| n == name)
                .map(|(_, &v)| v)
                .fold(None, |acc: Option<f64>, v| Some(acc.map_or(v, |a| a.max(v))))
        };
        Self {
            packets: delta.counter_total("api.net.packets")
                + delta.counter_total("switch.cycle.injected"),
            drops: delta.counter_total("vic.fifo.drops")
                + delta.counter_total("fault.link.drops")
                + delta.counter_total("switch.sweep.fault_drops"),
            deflections: hist_total("switch.model.deflection_hops")
                + delta.counter_total("switch.cycle.contention_deflections"),
            backpressure: delta.counter_total("api.fifo.backpressure_rejects"),
            fifo_depth: gauge_named("vic.fifo.depth"),
            load: gauge_named("switch.load").or_else(|| gauge_named("switch.cycle.mean_occupancy")),
        }
    }
}

/// Render a parsed stream as a virtual-time timeline table — the
/// `dv-report --timeline` view. One row per sample: interval traffic,
/// drops, deflections, backpressure, FIFO depth, and a load bar.
pub fn render_timeline(doc: &StreamDoc) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let h = &doc.header;
    let _ = writeln!(
        out,
        "stream: {} ({} nodes, {} µs sampling{})",
        h.bench,
        h.nodes,
        h.interval_ps / us(1).max(1),
        if h.quick { ", --quick" } else { "" },
    );
    // Deltas omit unchanged gauges, so the instantaneous columns carry
    // the last-seen value forward.
    let mut last_fifo = None;
    let mut last_load = None;
    let rows: Vec<Vec<String>> = doc
        .samples
        .iter()
        .map(|s| {
            let sig = IntervalSignals::from_delta(&s.delta);
            last_fifo = sig.fifo_depth.or(last_fifo);
            last_load = sig.load.or(last_load);
            let load = last_load.unwrap_or(0.0);
            let bar = "#".repeat((load.clamp(0.0, 1.0) * 10.0).round() as usize);
            vec![
                format!("{:.1}", s.t_ps as f64 / us(1) as f64),
                sig.packets.to_string(),
                sig.drops.to_string(),
                sig.deflections.to_string(),
                sig.backpressure.to_string(),
                last_fifo.map_or("-".to_string(), |d| format!("{d:.0}")),
                format!("{load:.3} {bar}"),
            ]
        })
        .collect();
    let _ = write!(
        out,
        "{}",
        crate::table(&["t (µs)", "packets", "drops", "defl", "backpr", "fifo", "load"], &rows)
    );
    if let Some(e) = &doc.end {
        let _ = writeln!(
            out,
            "end: t = {:.1} µs, {} samples, fnv {:016x}",
            e.t_ps as f64 / us(1) as f64,
            e.samples,
            e.fnv
        );
    } else {
        let _ = writeln!(out, "(stream has no end record — run still live or truncated)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_lines_round_trip() {
        let header = r#"{"schema":"dv-events-v1","bench":"fig6","quick":true,"interval_ps":10000000,"nodes":4}"#;
        let StreamLine::Header(h) = parse_line(header).unwrap() else {
            panic!("not a header");
        };
        assert_eq!((h.bench.as_str(), h.quick, h.interval_ps, h.nodes), ("fig6", true, us(10), 4));

        let sample = r#"{"event":"sample","seq":0,"t_ps":10000000,"delta":{"counters":[{"name":"api.net.packets","value":7}],"gauges":[],"histograms":[]}}"#;
        let StreamLine::Sample(s) = parse_line(sample).unwrap() else {
            panic!("not a sample");
        };
        assert_eq!(s.delta.counter("api.net.packets", &[]), Some(7));

        let end = r#"{"event":"end","t_ps":99,"samples":1,"fnv":123}"#;
        let StreamLine::End(e) = parse_line(end).unwrap() else {
            panic!("not an end");
        };
        assert_eq!((e.t_ps, e.samples, e.fnv), (99, 1, 123));

        let doc = parse_stream(&format!("{header}\n{sample}\n{end}\n")).unwrap();
        assert_eq!(doc.samples.len(), 1);
        assert!(doc.end.is_some());
    }

    #[test]
    fn parse_rejects_malformed_streams() {
        assert!(parse_stream("").is_err());
        assert!(parse_stream("{\"event\":\"sample\"}").is_err(), "missing header");
        let header = r#"{"schema":"dv-events-v1","bench":"x","quick":false,"interval_ps":1,"nodes":1}"#;
        let end_claims_two = format!("{header}\n{}", r#"{"event":"end","t_ps":9,"samples":2,"fnv":0}"#);
        assert!(parse_stream(&end_claims_two).is_err(), "sample-count mismatch");
        assert!(parse_line(r#"{"event":"wat"}"#).is_err());
        assert!(parse_line(r#"{"schema":"dv-events-v2","interval_ps":1,"nodes":1}"#).is_err());
    }
}
