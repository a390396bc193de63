//! Engine-level tests: determinism, ordering, blocking semantics.

use std::sync::Arc;

use dv_core::spec::Engine;
use dv_core::sync::Mutex;

use dv_core::time::{ns, us};

use crate::{JoinSlot, Pipe, Port, Sim, WaitSet};

#[test]
fn single_process_advances_time() {
    let sim = Sim::new();
    let out = JoinSlot::new();
    let out2 = out.clone();
    sim.spawn("p", move |ctx| {
        assert_eq!(ctx.now(), 0);
        ctx.delay(us(5));
        assert_eq!(ctx.now(), us(5));
        ctx.wait_until(us(3)); // already past: no-op
        assert_eq!(ctx.now(), us(5));
        out2.put(ctx.now());
    });
    let end = sim.run();
    assert_eq!(end, us(5));
    assert_eq!(out.take(), Some(us(5)));
}

#[test]
fn processes_interleave_by_virtual_time() {
    let sim = Sim::new();
    let log: Arc<Mutex<Vec<(u64, &str)>>> = Arc::new(Mutex::new(Vec::new()));
    for (name, step) in [("a", us(3)), ("b", us(2))] {
        let log = log.clone();
        sim.spawn(name, move |ctx| {
            for _ in 0..3 {
                ctx.delay(step);
                log.lock().push((ctx.now(), name));
            }
        });
    }
    sim.run();
    // a: 3,6,9  b: 2,4,6 -> merged by time, b's 6 after a's 6 (a spawned first, same timestamp resolves by event order).
    let times: Vec<u64> = log.lock().iter().map(|(t, _)| *t).collect();
    let mut sorted = times.clone();
    sorted.sort_unstable();
    assert_eq!(times, sorted, "events must be observed in time order: {:?}", log.lock());
    assert_eq!(times, vec![us(2), us(3), us(4), us(6), us(6), us(9)]);
}

#[test]
fn port_blocks_until_delivery() {
    let sim = Sim::new();
    let port: Port<u32> = Port::new();
    let p2 = port.clone();
    let got = JoinSlot::new();
    let got2 = got.clone();
    sim.spawn("recv", move |ctx| {
        let (at, msg) = p2.recv(ctx);
        got2.put((at, msg, ctx.now()));
    });
    let p3 = port.clone();
    sim.spawn("send", move |ctx| {
        ctx.delay(us(1));
        p3.send_delayed(ctx, ns(500), 42);
    });
    sim.run();
    let (at, msg, woke) = got.take().unwrap();
    assert_eq!(msg, 42);
    assert_eq!(at, us(1) + ns(500));
    assert_eq!(woke, at);
}

#[test]
fn port_deadline_times_out() {
    let sim = Sim::new();
    let port: Port<u32> = Port::new();
    let got = JoinSlot::new();
    let (p2, g2) = (port.clone(), got.clone());
    sim.spawn("recv", move |ctx| {
        let r = p2.recv_deadline(ctx, us(2));
        g2.put((r.is_none(), ctx.now()));
    });
    sim.run();
    let (timed_out, at) = got.take().unwrap();
    assert!(timed_out);
    assert_eq!(at, us(2));
}

#[test]
fn port_deadline_returns_early_message() {
    let sim = Sim::new();
    let port: Port<u32> = Port::new();
    let got = JoinSlot::new();
    let (p2, g2) = (port.clone(), got.clone());
    sim.spawn("recv", move |ctx| {
        g2.put(p2.recv_deadline(ctx, us(10)));
    });
    let p3 = port.clone();
    sim.spawn("send", move |ctx| p3.send_delayed(ctx, us(1), 7));
    sim.run();
    assert_eq!(got.take().unwrap(), Some((us(1), 7)));
}

#[test]
fn messages_arrive_in_delivery_time_order() {
    let sim = Sim::new();
    let port: Port<u32> = Port::new();
    let got = JoinSlot::new();
    let (p2, g2) = (port.clone(), got.clone());
    sim.spawn("recv", move |ctx| {
        let mut v = Vec::new();
        for _ in 0..3 {
            v.push(p2.recv(ctx).1);
        }
        g2.put(v);
    });
    let p3 = port.clone();
    sim.spawn("send", move |ctx| {
        // Sent in one order, delivered in delay order.
        p3.send_delayed(ctx, us(3), 1);
        p3.send_delayed(ctx, us(1), 2);
        p3.send_delayed(ctx, us(2), 3);
    });
    sim.run();
    assert_eq!(got.take().unwrap(), vec![2, 3, 1]);
}

#[test]
fn waitset_wakes_all_waiters() {
    let sim = Sim::new();
    let ws = WaitSet::new();
    let flag = Arc::new(Mutex::new(false));
    let done = Arc::new(Mutex::new(0usize));
    for i in 0..4 {
        let (ws, flag, done) = (ws.clone(), flag.clone(), done.clone());
        sim.spawn(format!("w{i}"), move |ctx| {
            ws.wait_while(ctx, || !*flag.lock());
            *done.lock() += 1;
        });
    }
    let (ws2, flag2) = (ws.clone(), flag.clone());
    sim.spawn("setter", move |ctx| {
        ctx.delay(us(7));
        *flag2.lock() = true;
        ws2.wake_all_ctx(ctx);
    });
    let end = sim.run();
    assert_eq!(*done.lock(), 4);
    assert_eq!(end, us(7));
}

#[test]
fn pipe_serializes_transfers() {
    let pipe = Pipe::new(1.0); // 1 GB/s => 1000 bytes take 1000 ns
    let (s1, e1) = pipe.reserve(0, 1000);
    assert_eq!((s1, e1), (0, ns(1000)));
    // Second transfer queued behind the first even though requested at t=0.
    let (s2, e2) = pipe.reserve(0, 500);
    assert_eq!((s2, e2), (ns(1000), ns(1500)));
    // A transfer requested after the pipe is free starts immediately.
    let (s3, _e3) = pipe.reserve(ns(5000), 100);
    assert_eq!(s3, ns(5000));
    assert_eq!(pipe.busy_time(), ns(1600));
}

#[test]
fn spawned_children_run() {
    let sim = Sim::new();
    let count = Arc::new(Mutex::new(0usize));
    let c2 = count.clone();
    sim.spawn("parent", move |ctx| {
        for i in 0..3 {
            let c = c2.clone();
            ctx.spawn(format!("child{i}"), move |cctx| {
                cctx.delay(us(1));
                *c.lock() += 1;
            });
        }
        ctx.delay(us(10));
    });
    sim.run();
    assert_eq!(*count.lock(), 3);
}

#[test]
fn daemons_do_not_block_termination() {
    let sim = Sim::new();
    let port: Port<u32> = Port::new();
    let p2 = port.clone();
    sim.spawn_daemon("poller", move |ctx| {
        // Blocks forever: no one ever sends.
        let _ = p2.recv(ctx);
        unreachable!("daemon should be torn down while parked");
    });
    sim.spawn("worker", |ctx| ctx.delay(us(3)));
    assert_eq!(sim.run(), us(3));
}

/// Both engines diagnose a drained queue with parked foreground work with
/// the same message, naming the parked process.
#[test]
fn deadlock_is_reported() {
    let message = |engine| {
        let payload = std::panic::catch_unwind(|| {
            let sim = Sim::with_engine(engine, 0);
            let port: Port<u32> = Port::new();
            sim.spawn("stuck", move |ctx| {
                let _ = port.recv(ctx);
            });
            sim.run();
        })
        .expect_err("a deadlocked simulation must panic");
        payload.downcast_ref::<String>().cloned().expect("deadlock panics carry a message")
    };
    let sharded = message(Engine::Sharded);
    assert!(sharded.contains("deadlock") && sharded.contains("\"stuck\""), "{sharded}");
    assert_eq!(sharded, message(Engine::Reference));
}

#[test]
#[should_panic(expected = "boom")]
fn process_panics_propagate() {
    let sim = Sim::new();
    sim.spawn("bad", |ctx| {
        ctx.delay(us(1));
        panic!("boom");
    });
    sim.run();
}

/// The determinism guarantee everything else relies on: identical programs
/// produce identical event traces.
#[test]
fn simulation_is_deterministic() {
    fn run_once(seed: u64) -> Vec<(u64, usize, u64)> {
        let sim = Sim::new();
        let log: Arc<Mutex<Vec<(u64, usize, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let ports: Vec<Port<u64>> = (0..4).map(|_| Port::new()).collect();
        for me in 0..4usize {
            let log = log.clone();
            let ports = ports.clone();
            sim.spawn(format!("n{me}"), move |ctx| {
                let mut rng = dv_core::rng::SplitMix64::new(seed ^ me as u64);
                for round in 0..20 {
                    let dst = rng.next_below(4) as usize;
                    let delay = ns(1 + rng.next_below(1000));
                    ports[dst].send_delayed(ctx, delay, (me as u64) << 32 | round);
                    ctx.delay(ns(1 + rng.next_below(200)));
                    while let Some((at, msg)) = ports[me].try_recv() {
                        log.lock().push((at, me, msg));
                    }
                }
                // Drain what's left with a deadline.
                while let Some((at, msg)) = ports[me].recv_deadline(ctx, ctx.now() + us(10)) {
                    log.lock().push((at, me, msg));
                }
            });
        }
        sim.run();
        let v = log.lock().clone();
        assert_eq!(v.len(), 80, "every message must be received exactly once");
        v
    }
    let a = run_once(1234);
    let b = run_once(1234);
    assert_eq!(a, b);
    let c = run_once(99);
    assert_ne!(a, c, "different seeds should change the trace");
}
