//! Two-sided point-to-point messaging with tag matching.
//!
//! The protocol split mirrors openmpi-1.8 over InfiniBand verbs:
//!
//! * **Eager** (≤ `MpiParams::eager_limit`): the sender copies through a
//!   bounce buffer, fires the message, and completes immediately; the
//!   payload travels with the envelope and waits in the receiver's
//!   unexpected queue if no recv is posted.
//! * **Rendezvous** (> limit): the sender publishes an RTS control
//!   message; the matching recv answers CTS; the data then streams in
//!   registered chunks, each paying a per-chunk overhead — which is why
//!   large-message efficiency tops out near 72 % of the link peak, as the
//!   paper's Figure 3 shows for MPI ping-pong.
//!
//! Matching is `(source, tag)` with wildcard support, serviced in arrival
//! order from the unexpected queue (per-pair ordering is preserved by the
//! FIFO fabric pipes).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dv_core::sync::Mutex;

use dv_core::config::MpiParams;
use dv_core::metrics::MetricsRegistry;
use dv_core::time::{self, Time};
use dv_core::trace::{State, Tracer};
use dv_sim::{Port, SimCtx, WaitSet};

use crate::fabric::IbFabric;
use crate::payload::Payload;
use crate::Tag;

/// A received message.
#[derive(Debug)]
pub struct Envelope {
    /// Sending rank.
    pub src: usize,
    /// Message tag.
    pub tag: Tag,
    /// The data.
    pub payload: Payload,
    /// Virtual time the send was initiated.
    pub sent_at: Time,
}

enum Wire {
    Eager(Envelope),
    Rts { src: usize, tag: Tag, msg_id: u64 },
    Data { msg_id: u64, env: Envelope },
}

struct ReqState {
    done: bool,
    waiters: WaitSet,
}

/// Handle for a nonblocking send; complete it with [`Comm::wait`].
pub struct Request {
    state: Arc<Mutex<ReqState>>,
}

impl Request {
    fn completed() -> Self {
        Self { state: Arc::new(Mutex::new(ReqState { done: true, waiters: WaitSet::new() })) }
    }
    fn pending() -> Self {
        Self { state: Arc::new(Mutex::new(ReqState { done: false, waiters: WaitSet::new() })) }
    }
}

struct PendingSend {
    src: usize,
    dst: usize,
    env: Envelope,
    bytes: u64,
    req: Arc<Mutex<ReqState>>,
}

/// Shared state of the MPI world (one per cluster run).
pub struct World {
    fabric: IbFabric,
    params: MpiParams,
    ports: Vec<Port<Wire>>,
    pending: Mutex<BTreeMap<u64, PendingSend>>,
    next_id: AtomicU64,
    tracer: Arc<Tracer>,
    metrics: Arc<MetricsRegistry>,
}

impl World {
    /// Build a world from explicit parts; point-to-point traffic is
    /// recorded under `mpi.*` and collectives under `mpi.coll.*` when the
    /// registry is enabled.
    pub fn from_parts(
        fabric: IbFabric,
        params: MpiParams,
        tracer: Arc<Tracer>,
        metrics: Arc<MetricsRegistry>,
    ) -> Arc<Self> {
        let nodes = fabric.nodes();
        Arc::new(Self {
            fabric,
            params,
            ports: (0..nodes).map(|_| Port::new()).collect(),
            pending: Mutex::new_named("mpi.pending", BTreeMap::new()),
            next_id: AtomicU64::new(1),
            tracer,
            metrics,
        })
    }

    /// The fabric (for diagnostics).
    pub fn fabric(&self) -> &IbFabric {
        &self.fabric
    }

    /// Per-rank communicator.
    pub fn comm(self: &Arc<Self>, rank: usize) -> Comm {
        assert!(rank < self.ports.len());
        Comm { world: Arc::clone(self), rank, unexpected: Mutex::new(Vec::new()) }
    }
}

/// One rank's communicator (used by exactly one simulated process).
pub struct Comm {
    world: Arc<World>,
    rank: usize,
    unexpected: Mutex<Vec<(Time, Wire)>>,
}

impl Comm {
    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.world.ports.len()
    }

    /// The tracer attached to this world.
    pub fn tracer(&self) -> &Tracer {
        &self.world.tracer
    }

    /// The metrics registry attached to this world.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.world.metrics
    }

    /// MPI runtime parameters.
    pub fn params(&self) -> &MpiParams {
        &self.world.params
    }

    fn port(&self) -> &Port<Wire> {
        &self.world.ports[self.rank]
    }

    /// Nonblocking send. Eager messages complete immediately; rendezvous
    /// sends complete when the CTS arrives and the data has left.
    pub fn isend(&self, ctx: &SimCtx, dst: usize, tag: Tag, payload: Payload) -> Request {
        let t0 = ctx.now();
        let p = &self.world.params;
        ctx.delay(p.overhead_send);
        let bytes = payload.len_bytes();
        let env_bytes = bytes + 64; // header/envelope on the wire
        let eager = bytes <= p.eager_limit;
        {
            let m = &self.world.metrics;
            let path = [("path", if eager { "eager" } else { "rndv" }.into())];
            m.incr_labeled("mpi.msgs", &path, 1);
            m.incr_labeled("mpi.bytes", &path, env_bytes);
            m.observe("mpi.msg_bytes", bytes);
        }
        let req = if eager {
            // Bounce-buffer copy on the send side.
            ctx.delay(time::transfer_time(bytes, p.copy_gbps));
            let sent_at = ctx.now();
            let arrival = self.world.fabric.transfer(sent_at, self.rank, dst, env_bytes, 0);
            let env = Envelope { src: self.rank, tag, payload, sent_at };
            ctx.with_kernel(|k| self.world.ports[dst].deliver_at(k, arrival, Wire::Eager(env)));
            self.world.tracer.message(self.rank, dst, sent_at, arrival, env_bytes);
            Request::completed()
        } else {
            let msg_id = self.world.next_id.fetch_add(1, Ordering::Relaxed);
            let sent_at = ctx.now();
            let rts_arrival = self.world.fabric.transfer(sent_at, self.rank, dst, 64, 0);
            ctx.with_kernel(|k| {
                self.world.ports[dst].deliver_at(
                    k,
                    rts_arrival,
                    Wire::Rts { src: self.rank, tag, msg_id },
                )
            });
            let req = Request::pending();
            self.world.pending.lock().insert(
                msg_id,
                PendingSend {
                    src: self.rank,
                    dst,
                    env: Envelope { src: self.rank, tag, payload, sent_at },
                    bytes: env_bytes,
                    req: Arc::clone(&req.state),
                },
            );
            req
        };
        self.world.tracer.span(self.rank, State::Send, t0, ctx.now());
        req
    }

    /// Blocking send (true `MPI_Send` semantics: a rendezvous send does
    /// not return until the receiver has posted the matching recv).
    pub fn send(&self, ctx: &SimCtx, dst: usize, tag: Tag, payload: Payload) {
        let req = self.isend(ctx, dst, tag, payload);
        self.wait(ctx, req);
    }

    /// Wait for a request to complete.
    pub fn wait(&self, ctx: &SimCtx, req: Request) {
        let t0 = ctx.now();
        loop {
            {
                let s = req.state.lock();
                if s.done {
                    break;
                }
                s.waiters.register(ctx);
            }
            ctx.park();
        }
        if ctx.now() > t0 {
            self.world.tracer.span(self.rank, State::Wait, t0, ctx.now());
        }
    }

    /// Wait for all requests.
    pub fn wait_all(&self, ctx: &SimCtx, reqs: Vec<Request>) {
        for r in reqs {
            self.wait(ctx, r);
        }
    }

    fn drain(&self) {
        let mut unex = self.unexpected.lock();
        while let Some(m) = self.port().try_recv() {
            unex.push(m);
        }
    }

    fn find_match(&self, src: Option<usize>, tag: Option<Tag>) -> Option<(Time, Wire)> {
        let mut unex = self.unexpected.lock();
        let idx = unex.iter().position(|(_, w)| match w {
            Wire::Eager(env) => {
                src.is_none_or(|s| s == env.src) && tag.is_none_or(|t| t == env.tag)
            }
            Wire::Rts { src: s, tag: t, .. } => {
                src.is_none_or(|x| x == *s) && tag.is_none_or(|x| x == *t)
            }
            Wire::Data { .. } => false,
        })?;
        Some(unex.remove(idx))
    }

    fn take_data(&self, msg_id: u64) -> Option<Envelope> {
        let mut unex = self.unexpected.lock();
        let idx = unex.iter().position(
            |(_, w)| matches!(w, Wire::Data { msg_id: m, .. } if *m == msg_id),
        )?;
        match unex.remove(idx).1 {
            Wire::Data { env, .. } => Some(env),
            _ => unreachable!(),
        }
    }

    /// Release a rendezvous transfer: the CTS flies back to the sender's
    /// NIC, which then streams the data in registered chunks.
    fn send_cts(&self, ctx: &SimCtx, msg_id: u64) {
        let world = Arc::clone(&self.world);
        let cts_flight = self.world.fabric.params().wire_latency;
        ctx.with_kernel(move |k| {
            let at = k.now() + cts_flight;
            k.call_at(at, move |k| {
                let Some(p) = world.pending.lock().remove(&msg_id) else {
                    panic!("CTS for unknown rendezvous message {msg_id}");
                };
                let params = &world.params;
                // Pipeline inefficiency: the data streams at
                // rndv_efficiency x link rate, plus the handshake.
                let wire = dv_core::time::transfer_time(p.bytes, world.fabric.params().link_gbps);
                let slowdown = (wire as f64 * (1.0 / params.rndv_efficiency - 1.0)) as dv_core::time::Time;
                let extra = slowdown + params.rndv_handshake;
                let arrival = world.fabric.transfer(k.now(), p.src, p.dst, p.bytes, extra);
                world.tracer.message(p.src, p.dst, p.env.sent_at, arrival, p.bytes);
                world.ports[p.dst].deliver_at(k, arrival, Wire::Data { msg_id, env: p.env });
                // The sender's MPI_Send returns when its buffer is free —
                // when the data has fully left the sender.
                let req = p.req;
                k.call_at(arrival, move |k| {
                    let mut r = req.lock();
                    r.done = true;
                    r.waiters.wake_all(k);
                });
            });
        });
    }

    /// Blocking receive with optional source/tag wildcards.
    pub fn recv(&self, ctx: &SimCtx, src: Option<usize>, tag: Option<Tag>) -> Envelope {
        let t0 = ctx.now();
        let env = loop {
            self.drain();
            if let Some((_, wire)) = self.find_match(src, tag) {
                match wire {
                    Wire::Eager(env) => break env,
                    Wire::Rts { msg_id, .. } => {
                        self.send_cts(ctx, msg_id);
                        // Wait for this specific transfer's data.
                        break loop {
                            self.drain();
                            if let Some(env) = self.take_data(msg_id) {
                                break env;
                            }
                            let (at, m) = self.port().recv(ctx);
                            self.unexpected.lock().push((at, m));
                        };
                    }
                    Wire::Data { .. } => unreachable!("data never matches a posted recv"),
                }
            }
            let (at, m) = self.port().recv(ctx);
            self.unexpected.lock().push((at, m));
        };
        ctx.delay(self.world.params.overhead_recv);
        self.world.tracer.span(self.rank, State::Recv, t0, ctx.now());
        env
    }

    /// Convenience: blocking receive from a specific source and tag.
    pub fn recv_from(&self, ctx: &SimCtx, src: usize, tag: Tag) -> Envelope {
        self.recv(ctx, Some(src), Some(tag))
    }

    /// Nonblocking probe-and-receive: returns a matching *eager* message
    /// if one already arrived. (Rendezvous messages need the blocking path
    /// to run the CTS exchange.)
    pub fn try_recv(&self, ctx: &SimCtx, src: Option<usize>, tag: Option<Tag>) -> Option<Envelope> {
        self.drain();
        let pos = {
            let unex = self.unexpected.lock();
            unex.iter().position(|(_, w)| match w {
                Wire::Eager(env) => {
                    src.is_none_or(|s| s == env.src) && tag.is_none_or(|t| t == env.tag)
                }
                _ => false,
            })?
        };
        let (_, wire) = self.unexpected.lock().remove(pos);
        match wire {
            Wire::Eager(env) => {
                ctx.delay(self.world.params.overhead_recv);
                Some(env)
            }
            _ => unreachable!(),
        }
    }

    /// Combined send+receive (deadlock-free pairwise exchange).
    pub fn sendrecv(
        &self,
        ctx: &SimCtx,
        dst: usize,
        send_tag: Tag,
        payload: Payload,
        src: usize,
        recv_tag: Tag,
    ) -> Envelope {
        let req = self.isend(ctx, dst, send_tag, payload);
        let env = self.recv_from(ctx, src, recv_tag);
        self.wait(ctx, req);
        env
    }
}
