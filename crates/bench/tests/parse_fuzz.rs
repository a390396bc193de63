//! Seeded fuzzing of the three text parsers that read files or flags:
//! `FaultPlan::parse` (`--faults`), `Json::parse` (`dv-report --gate`,
//! `dv-top --replay`) and `stream::parse_stream`. Valid seed inputs are
//! mutated with a `SplitMix64`; every input must come back `Ok` or `Err`.
//! A panic fails the test, and a stack overflow aborts the test binary.

use dv_bench::stream::parse_stream;
use dv_core::fault::FaultPlan;
use dv_core::json::Json;
use dv_core::rng::SplitMix64;

/// Fragments spliced into inputs: structure, escapes, number edge cases.
const TOKENS: &[&str] = &[
    "[", "]", "{", "}", ",", ":", "\"", "\\", "\\u", "\\ud800", "0x", "-", "+", "e", ".", "1e999",
    "-0", "NaN", "inf", "18446744073709551615", "18446744073709551616", "-9223372036854775809",
    "null", "true", "=", "seed=", "stall=", "gcrace=", "fifostorm=", "\n", " ", "é", "\u{0}",
];

/// One random edit of `input`: replace, insert or delete a byte, splice a
/// token, duplicate a run, or truncate. Invalid UTF-8 becomes U+FFFD.
fn mutate(rng: &mut SplitMix64, input: &str) -> String {
    let mut bytes = input.as_bytes().to_vec();
    let edits = 1 + rng.next_below(4);
    for _ in 0..edits {
        let at = rng.next_below(bytes.len() as u64 + 1) as usize;
        match rng.next_below(6) {
            0 if at < bytes.len() => bytes[at] = rng.next_below(128) as u8,
            1 => bytes.insert(at, rng.next_below(256) as u8),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => {
                let tok = TOKENS[rng.next_below(TOKENS.len() as u64) as usize];
                bytes.splice(at..at, tok.bytes());
            }
            4 => {
                let end = (at + rng.next_below(24) as usize).min(bytes.len());
                let run = bytes[at..end].to_vec();
                bytes.splice(at..at, run);
            }
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `depth` arrays/objects opened and never closed, then closed.
fn deep(depth: usize) -> [String; 3] {
    [
        "[".repeat(depth),
        "{\"a\":".repeat(depth),
        "[{\"k\":".repeat(depth / 2) + "0" + &"}]".repeat(depth / 2),
    ]
}

#[test]
fn fault_plan_parse_never_panics_and_round_trips() {
    let seeds = [
        "seed=7,fifodrop=0.02",
        "seed=0x2A,drop=0.01,dup=0.005,stall=0.02:500,gcrace=1:5000,fifodrop=0.02,fifostorm=257:3",
        "stall=0.5:18446744073709551,gcrace=0:9,fifostorm=0:5",
        "seed=18446744073709551615,drop=1,dup=0",
    ];
    let mut rng = SplitMix64::new(0xFA17_F022);
    let mut ok = 0;
    for seed in seeds {
        for _ in 0..4000 {
            let spec = mutate(&mut rng, seed);
            if let Ok(plan) = FaultPlan::parse(&spec) {
                ok += 1;
                let text = plan.to_string();
                assert_eq!(FaultPlan::parse(&text), Ok(plan), "{spec:?} printed as {text:?}");
            }
        }
    }
    assert!(ok > 1000, "only {ok} mutants parsed: the round-trip check saw too few plans");
}

#[test]
fn json_parse_never_panics() {
    let seeds = [
        r#"{"schema":"dv-bench-v1","bench":"fig6","quick":true,"results":[{"title":"t","headers":["a","b"],"rows":[["1","2.50"]]}]}"#,
        r#"[0,-1,1.5e-3,18446744073709551615,-9223372036854775808,true,false,null,"é\n\"x\\"]"#,
        r#"{"a":{"b":[1,2.5,"x"]},"c":{}}"#,
    ];
    let mut rng = SplitMix64::new(0x150_F022);
    for seed in seeds {
        assert!(Json::parse(seed).is_ok(), "seed must be valid: {seed}");
        for _ in 0..4000 {
            let _ = Json::parse(&mutate(&mut rng, seed));
        }
    }
    for text in deep(100_000).iter().chain(&deep(300)) {
        assert!(Json::parse(text).is_err());
        for _ in 0..20 {
            let _ = Json::parse(&mutate(&mut rng, text));
        }
    }
}

#[test]
fn parse_stream_never_panics() {
    let header = r#"{"schema":"dv-events-v1","bench":"fig6","quick":true,"interval_ps":10000000,"nodes":4}"#;
    let sample = |seq: u64| {
        format!(
            r#"{{"event":"sample","seq":{seq},"t_ps":{t},"delta":{{"counters":[{{"name":"api.net.packets","value":7}},{{"name":"vic.fifo.drops","labels":{{"node":"3"}},"value":0}}],"gauges":[{{"name":"switch.load","value":0.25}}],"histograms":[{{"name":"api.net.batch_packets","total":3,"buckets":[0,1,2]}}]}}}}"#,
            t = (seq + 1) * 10_000_000
        )
    };
    let end = r#"{"event":"end","t_ps":20000000,"samples":2,"fnv":12345}"#;
    let stream = format!("{header}\n{}\n{}\n{end}\n", sample(0), sample(1));
    let doc = parse_stream(&stream).expect("seed stream must be valid");
    assert_eq!(doc.samples.len(), 2);

    let mut rng = SplitMix64::new(0x57_F022);
    for _ in 0..6000 {
        let _ = parse_stream(&mutate(&mut rng, &stream));
    }
    for nested in deep(100_000) {
        let _ = parse_stream(&format!("{header}\n{nested}\n{end}\n"));
        let delta = format!(r#"{{"event":"sample","seq":0,"t_ps":1,"delta":{nested}}}"#);
        assert!(parse_stream(&format!("{header}\n{delta}\n")).is_err());
    }
}
