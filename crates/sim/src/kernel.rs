//! The event kernel: virtual clock, sharded event queues, wakers, timers.
//!
//! Events live in *shards* — independent binary heaps, one per shard-worker
//! of the engine. Resume events are routed to the shard that owns their
//! target process (`pid % shards`); kernel calls and timers are spread by
//! sequence number. The dispatcher commits events through a conservative
//! merge: the globally earliest `(time, seq)` event across all shard heads
//! commits next, so the committed order — and therefore the
//! [`OrderAudit`] trace hash — is identical for any shard count, including
//! the pre-sharding single-queue engine.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dv_core::time::Time;

use crate::audit::OrderAudit;

/// Identifier of a simulated process.
pub type Pid = usize;

/// A one-shot handle to wake a parked process.
///
/// A waker is stamped with the *park generation* of the process at the time
/// it was created; if the process has been woken since (its generation
/// advanced), firing the waker is a silent no-op. This makes it safe to
/// leave stale wakers behind in wait queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Waker {
    pub(crate) pid: Pid,
    pub(crate) generation: u64,
}

impl Waker {
    /// The process this waker targets.
    pub fn pid(&self) -> Pid {
        self.pid
    }
}

/// Handle to a pooled timer hook (see [`Kernel::register_timer`]).
///
/// A timer is the allocation-free sibling of [`Kernel::call_at`]: the hook
/// closure is boxed **once** at registration, and each [`Kernel::timer_at`]
/// schedules a plain copyable event that re-runs it. Components with a
/// steady stream of deliveries (ports, NIC engines) register one hook and
/// stage their payloads in their own pooled buffers, so the per-message
/// steady state allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId(u32);

type TimerHook = Box<dyn FnMut(&mut Kernel) + Send>;

pub(crate) enum EventKind {
    Resume(Waker),
    Call(Box<dyn FnOnce(&mut Kernel) + Send>),
    Timer(TimerId),
}

struct Event {
    time: Time,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. Sequence numbers break ties deterministically (FIFO).
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Scheduler activity counters, kept as plain integers so the hot
/// `pop_valid` loop pays no metrics overhead; `dv-sim` publishes them
/// into a `MetricsRegistry` once at the end of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Committed `Resume` events (process wakeups that actually ran).
    pub resumes: u64,
    /// Committed `Call` and `Timer` events (kernel closures).
    pub calls: u64,
    /// Resume events discarded because their waker generation was stale.
    pub stale_wakeups: u64,
    /// Processes registered with the kernel.
    pub processes: u64,
}

/// The discrete-event kernel: the virtual clock plus the sharded
/// pending-event queues. Shared behind a mutex; only one simulated process
/// commits events at a time, so the lock is uncontended in steady state.
pub struct Kernel {
    now: Time,
    seq: u64,
    shards: Vec<BinaryHeap<Event>>,
    /// Park generation per process; a `Resume` event only fires if its
    /// waker's generation matches.
    pub(crate) park_generation: Vec<u64>,
    pub(crate) proc_names: Vec<String>,
    timer_hooks: Vec<Option<TimerHook>>,
    /// Rolling hash of every committed event (see [`OrderAudit`]).
    audit: OrderAudit,
    stats: SchedStats,
}

impl Kernel {
    pub(crate) fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            now: 0,
            seq: 0,
            shards: (0..shards).map(|_| BinaryHeap::new()).collect(),
            park_generation: Vec::new(),
            proc_names: Vec::new(),
            timer_hooks: Vec::new(),
            audit: OrderAudit::new(),
            stats: SchedStats::default(),
        }
    }

    /// Number of event shards this kernel was built with.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Scheduler activity counters accumulated so far.
    pub fn sched_stats(&self) -> SchedStats {
        self.stats
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// FNV hash of the event trace committed so far. Identical workloads
    /// must yield identical hashes — the runtime determinism check.
    pub fn trace_hash(&self) -> u64 {
        self.audit.hash()
    }

    /// Number of events committed to the trace so far.
    pub fn trace_events(&self) -> u64 {
        self.audit.events()
    }

    fn push(&mut self, time: Time, kind: EventKind) {
        let time = time.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        // Shared-nothing routing: a resume belongs to its target process's
        // shard; calls and timers are spread round-robin by sequence. The
        // commit order is a total-order merge over shard heads, so routing
        // affects locality only, never the committed order.
        let shard = match &kind {
            EventKind::Resume(w) => w.pid % self.shards.len(),
            _ => (seq as usize) % self.shards.len(),
        };
        self.shards[shard].push(Event { time, seq, kind });
    }

    /// Index of the shard holding the globally earliest pending event.
    fn min_shard(&self) -> Option<usize> {
        let mut best: Option<(Time, u64, usize)> = None;
        for (i, heap) in self.shards.iter().enumerate() {
            if let Some(e) = heap.peek() {
                let key = (e.time, e.seq, i);
                if best.is_none_or(|b| (key.0, key.1) < (b.0, b.1)) {
                    best = Some(key);
                }
            }
        }
        best.map(|(_, _, i)| i)
    }

    /// Schedule a closure to run inside the kernel at virtual time `at`
    /// (clamped to `now`). Closures run with the kernel locked: they may
    /// mutate shared state and fire wakers but must not block.
    pub fn call_at(&mut self, at: Time, f: impl FnOnce(&mut Kernel) + Send + 'static) {
        self.push(at, EventKind::Call(Box::new(f)));
    }

    /// Register a pooled timer hook; returns its [`TimerId`]. The hook is
    /// re-run (with the kernel locked) each time a [`Kernel::timer_at`]
    /// event for this id commits. It must not block, and it observes the
    /// same ordering guarantees as [`Kernel::call_at`] closures.
    pub fn register_timer(&mut self, hook: Box<dyn FnMut(&mut Kernel) + Send>) -> TimerId {
        let id = TimerId(self.timer_hooks.len() as u32);
        self.timer_hooks.push(Some(hook));
        id
    }

    /// Schedule a firing of a registered timer at virtual time `at`
    /// (clamped to `now`). Commits exactly like a [`Kernel::call_at`]
    /// closure — same audit record, same `calls` counter — but allocates
    /// nothing.
    pub fn timer_at(&mut self, at: Time, id: TimerId) {
        self.push(at, EventKind::Timer(id));
    }

    pub(crate) fn take_timer_hook(&mut self, id: TimerId) -> Option<TimerHook> {
        self.timer_hooks[id.0 as usize].take()
    }

    pub(crate) fn put_timer_hook(&mut self, id: TimerId, hook: TimerHook) {
        self.timer_hooks[id.0 as usize] = Some(hook);
    }

    /// Fire a waker at virtual time `at` (clamped to `now`).
    pub fn wake_at(&mut self, at: Time, waker: Waker) {
        self.push(at, EventKind::Resume(waker));
    }

    /// Fire a waker at the current virtual time.
    pub fn wake(&mut self, waker: Waker) {
        self.wake_at(self.now, waker);
    }

    /// Current waker for a process (see [`Waker`] for staleness rules).
    pub fn waker_for(&self, pid: Pid) -> Waker {
        Waker { pid, generation: self.park_generation[pid] }
    }

    pub(crate) fn register_process(&mut self, name: String) -> Pid {
        let pid = self.park_generation.len();
        self.park_generation.push(0);
        self.proc_names.push(name);
        self.stats.processes += 1;
        pid
    }

    /// Pop the next *valid* event, advancing the clock. Stale resumes are
    /// discarded. For a valid resume, the target's park generation is
    /// advanced so any duplicate wakeups for the same park become stale.
    pub(crate) fn pop_valid(&mut self) -> Option<(Time, EventKind)> {
        while let Some(shard) = self.min_shard() {
            let ev = match self.shards[shard].pop() {
                Some(ev) => ev,
                None => break,
            };
            debug_assert!(ev.time >= self.now, "time went backwards");
            match ev.kind {
                EventKind::Resume(w) => {
                    if self.park_generation[w.pid] == w.generation {
                        self.park_generation[w.pid] = w.generation.wrapping_add(1);
                        self.now = ev.time;
                        self.audit.record_resume(ev.time, w.pid, w.generation);
                        self.stats.resumes += 1;
                        return Some((ev.time, EventKind::Resume(w)));
                    }
                    // Stale wakeup: drop silently (but count it).
                    self.stats.stale_wakeups += 1;
                }
                kind @ (EventKind::Call(_) | EventKind::Timer(_)) => {
                    self.now = ev.time;
                    self.audit.record_call(ev.time, ev.seq);
                    self.stats.calls += 1;
                    return Some((ev.time, kind));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_then_fifo_order() {
        for shards in [1, 2, 4] {
            let mut k = Kernel::new(shards);
            let order = std::sync::Arc::new(dv_core::sync::Mutex::new(Vec::new()));
            for (tag, t) in [(0u32, 50u64), (1, 10), (2, 10), (3, 30)] {
                let order = order.clone();
                k.call_at(t, move |_| order.lock().push(tag));
            }
            while let Some((_, EventKind::Call(f))) = k.pop_valid() {
                f(&mut k);
            }
            // t=10 events in insertion order (1 before 2), then 30, then 50.
            assert_eq!(*order.lock(), vec![1, 2, 3, 0], "shards={shards}");
            assert_eq!(k.now(), 50);
        }
    }

    #[test]
    fn clock_clamps_past_times_to_now() {
        let mut k = Kernel::new(1);
        k.call_at(100, |_| {});
        let _ = k.pop_valid();
        assert_eq!(k.now(), 100);
        // Scheduling "in the past" lands at now.
        k.call_at(5, |_| {});
        let (t, _) = k.pop_valid().unwrap();
        assert_eq!(t, 100);
    }

    #[test]
    fn stale_wakers_are_dropped() {
        let mut k = Kernel::new(4);
        let pid = k.register_process("p".into());
        let w = k.waker_for(pid);
        k.wake_at(10, w);
        k.wake_at(20, w); // duplicate for the same park
        let (t, kind) = k.pop_valid().unwrap();
        assert_eq!(t, 10);
        assert!(matches!(kind, EventKind::Resume(_)));
        // The duplicate is now stale.
        assert!(k.pop_valid().is_none());
        assert_eq!(k.now(), 10, "stale events should not advance the clock past valid ones");
    }

    #[test]
    fn wakers_for_new_generation_fire() {
        let mut k = Kernel::new(1);
        let pid = k.register_process("p".into());
        let w0 = k.waker_for(pid);
        k.wake_at(10, w0);
        let _ = k.pop_valid().unwrap(); // generation now 1
        let w1 = k.waker_for(pid);
        assert_ne!(w0, w1);
        k.wake_at(30, w1);
        assert!(matches!(k.pop_valid(), Some((30, EventKind::Resume(_)))));
    }

    #[test]
    fn timers_commit_like_calls() {
        let mut k = Kernel::new(2);
        let fired = std::sync::Arc::new(dv_core::sync::Mutex::new(0u32));
        let f2 = fired.clone();
        let id = k.register_timer(Box::new(move |_| *f2.lock() += 1));
        k.timer_at(10, id);
        k.timer_at(30, id);
        for _ in 0..2 {
            match k.pop_valid() {
                Some((_, EventKind::Timer(t))) => {
                    let mut hook = k.take_timer_hook(t).expect("hook registered");
                    hook(&mut k);
                    k.put_timer_hook(t, hook);
                }
                other => panic!("expected timer, got {:?}", other.map(|(t, _)| t)),
            }
        }
        assert_eq!(*fired.lock(), 2);
        assert_eq!(k.sched_stats().calls, 2, "timers count as calls");
        assert_eq!(k.now(), 30);
    }

    /// The pillar of shard-count invariance: the committed (time, seq)
    /// order — and hence the audit hash — is identical for any shard count.
    #[test]
    fn commit_order_is_shard_count_invariant() {
        fn trace(shards: usize) -> (u64, Vec<Time>) {
            let mut k = Kernel::new(shards);
            let pids: Vec<Pid> = (0..8).map(|i| k.register_process(format!("p{i}"))).collect();
            let mut rng = dv_core::rng::SplitMix64::new(42);
            for step in 0..200u64 {
                let pid = pids[rng.next_below(8) as usize];
                let at = rng.next_below(1000);
                if step % 3 == 0 {
                    k.call_at(at, |_| {});
                } else {
                    let w = k.waker_for(pid);
                    k.wake_at(at, w);
                }
                // Commit a couple of events between pushes so generations
                // advance and some wakers go stale.
                if step % 5 == 0 {
                    let _ = k.pop_valid();
                }
            }
            let mut times = Vec::new();
            while let Some((t, _)) = k.pop_valid() {
                times.push(t);
            }
            (k.trace_hash(), times)
        }
        let (h1, t1) = trace(1);
        for shards in [2, 3, 4, 7] {
            let (h, t) = trace(shards);
            assert_eq!(h, h1, "hash must not depend on shard count (shards={shards})");
            assert_eq!(t, t1);
        }
    }
}
