//! Process-wide host counters and host facts, read from Linux `/proc` and
//! `getrusage` with no dependencies.
//!
//! CPU time comes from `/proc/self/stat` (utime + stime), which covers every
//! thread the process ever ran, including the simulator's node threads that
//! have already exited. `/proc/self/status` is deliberately not used for
//! context switches: it counts the main thread only and would hide the
//! simulator's handoff cost.

use dv_core::json::Json;

/// `/proc` reports CPU time in `USER_HZ` ticks, fixed at 100 on Linux.
const USER_HZ: f64 = 100.0;

/// One reading of the process-wide counters.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Host monotonic time.
    pub at: std::time::Instant,
    /// User + system CPU seconds of all threads, live and exited.
    pub cpu_s: f64,
    /// Voluntary + involuntary context switches of all threads.
    pub cswitch: u64,
}

impl Sample {
    /// Read the counters now.
    pub fn now() -> Self {
        Self {
            at: std::time::Instant::now(),
            cpu_s: cpu_seconds(),
            cswitch: context_switches(),
        }
    }

    /// Counter growth from `self` to `later`.
    pub fn delta(&self, later: &Sample) -> Delta {
        Delta {
            wall_s: later.at.duration_since(self.at).as_secs_f64(),
            cpu_s: later.cpu_s - self.cpu_s,
            cswitch: later.cswitch - self.cswitch,
        }
    }
}

/// Counter growth over an interval.
#[derive(Debug, Clone, Copy)]
pub struct Delta {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub cswitch: u64,
}

fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("utime/stime are integers");
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn context_switches() -> u64 {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        longs: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C `struct
    // rusage` of 64-bit Linux (the only target this benchmark builds for),
    // and getrusage writes nothing beyond that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    // ru_nvcsw and ru_nivcsw are the last two longs.
    (usage.longs[12] + usage.longs[13]) as u64
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM is present on Linux");
    kb / 1024.0
}

/// The facts that make numbers from different hosts or builds
/// incomparable: core count, CPU model, codegen flags, engine defaults.
pub fn facts() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into());
    let spec = dv_core::spec::SimSpec::new(1);
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    Json::Obj(vec![
        ("nproc".into(), Json::U64(nproc as u64)),
        ("cpu_model".into(), Json::str(model)),
        ("rustflags".into(), Json::str(env!("PERFBENCH_RUSTFLAGS"))),
        (
            "target_cpu_native".into(),
            Json::Bool(env!("PERFBENCH_RUSTFLAGS").contains("target-cpu=native")),
        ),
        (
            "debug_assertions".into(),
            Json::Bool(cfg!(debug_assertions)),
        ),
        ("engine".into(), Json::str(format!("{:?}", spec.engine))),
        (
            "shards".into(),
            Json::str(format!("{} (0 = one per core, at most 16)", spec.shards)),
        ),
    ])
}
