//! End-to-end recovery for surprise-FIFO traffic.
//!
//! The surprise FIFO is lossy: finite SRAM overflows (and a fault plan
//! injects drops on demand), and a dropped packet is *invisible* — no
//! group-counter decrement, no waiter wake (see `Vic::deliver`). Programs
//! that assume delivery therefore hang or silently lose data under load.
//! [`ReliableFifo`] turns the lossy FIFO into an exactly-once word stream
//! with the acknowledgment substrate the hardware already provides:
//!
//! * The destination VIC maintains, in hardware, a per-source count of
//!   packets *accepted* into its FIFO (`FIFO_RECV_BASE + src` in the
//!   status page).
//! * A sender logs every word of the current epoch per destination and,
//!   at verification time, reads its accepted count back with a query
//!   packet (timeout + bounded retries — queries and replies can be lost
//!   too). Per-link ejection is serialized, so the reply reflects every
//!   data packet the sender put on that link first: no quiescence wait.
//! * Within an epoch the sender's words are unique (a per-epoch outbound
//!   dedup set absorbs app-level duplicates like multi-edges), so
//!   `accepted == sent` if and only if nothing was dropped. On a
//!   shortfall the sender retransmits its epoch log in windows, each
//!   window confirmed by an exact accepted-count delta (stop-and-wait),
//!   until every word is in — bounded by a retry budget that panics with
//!   diagnostics instead of looping forever.
//! * Retransmission can duplicate words the FIFO had in fact accepted;
//!   the receiver carries a run-long inbound dedup set, so applications
//!   observe each logical word exactly once. Payloads must therefore be
//!   globally unique across the run — GUPS uses disjoint LFSR windows,
//!   BFS packs `(vertex, parent)` pairs that each cross the wire once.
//! * Both dedup sets see every word the layer sends or receives, so they
//!   are a flat open-addressing table (`WordSet`) with O(1) inserts and
//!   no iteration, not an ordered tree.
//!
//! Credit ([`DvCtx::fifo_try_send`]) is the *avoidance* half — back off
//! before a likely overflow; this layer is the *correctness* half — no
//! loss survives verification. Kernels use pacing/credit for throughput
//! and verification for the guarantee.

use dv_core::packet::{Packet, PacketHeader, GROUP_COUNTERS, SCRATCH_GC};
use dv_core::time::{self, Time};
use dv_core::{NodeId, Word};
use dv_sim::SimCtx;
use dv_vic::{DvMemory, FIFO_RECV_BASE, FIFO_RECV_SLOTS};

use crate::aggregate::Aggregator;
use crate::ctx::{DvCtx, SendMode};

/// Group counter tracking the parallel acknowledgment round of
/// [`ReliableFifo::verify_epoch`] (one below the blocking-read counter;
/// late replies of a timed-out round may drive it negative, which the
/// next round's preset overwrites).
pub const VERIFY_GC: u8 = (GROUP_COUNTERS - 2) as u8;

/// Words per retransmission window (confirmed stop-and-wait).
const WINDOW: usize = 64;
/// Deadline for one accepted-count query round trip. It must comfortably
/// exceed the worst-case ejection backlog ahead of a reply (virtual-time
/// waits are free): a too-short timeout makes retried queries consume
/// *stale* replies of earlier attempts, which is merely conservative for
/// the monotonic counts but burns retransmission budget.
const QUERY_TIMEOUT: Time = time::ms(10);
/// Query attempts before declaring the acknowledgment path dead.
const QUERY_TRIES: u32 = 8;
/// Retransmission attempt budget multiplier: a verification tolerates
/// `MAX_ROUNDS ×` the initial window count of (re)attempts per destination
/// before declaring the data path dead.
const MAX_ROUNDS: u32 = 12;

/// Per-node counters of the recovery layer (folded into metrics by
/// [`ReliableFifo::publish`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReliableStats {
    /// Unique words accepted into the current/past epochs by this sender.
    pub sent: u64,
    /// Inbound duplicates discarded (retransmission overshoot).
    pub dup_discarded: u64,
    /// Retransmission windows shipped (attempts, including re-attempts).
    pub retx_windows: u64,
    /// Words retransmitted (sum of window attempt sizes).
    pub retx_words: u64,
    /// Verifications that found a shortfall and entered retransmission.
    pub retx_rounds: u64,
    /// Accepted-count queries issued.
    pub ack_queries: u64,
    /// Accepted-count queries that timed out (query or reply lost/late).
    pub ack_query_timeouts: u64,
}

/// The dedup sets' word set: open addressing with linear probing, one
/// `Word` per slot, O(1) per insert.
///
/// It offers `insert` and `clear` only. With no way to iterate it, its
/// slot order can never reach a send (the hazard dv-lint's DV-W001 guards
/// against for hash containers), and its fixed mixer has no per-process
/// seed, so probe sequences repeat run to run. The word 0 marks an empty
/// slot, so a stored 0 is a flag. The table grows by half past a 7/8
/// load, so it holds 9–14 bytes per stored word; `clear` keeps the
/// capacity, so a per-epoch set stops allocating once it has seen its
/// largest epoch.
#[derive(Default)]
struct WordSet {
    /// Open-addressed slots (none before the first insert).
    slots: Vec<Word>,
    /// Nonzero words stored.
    len: usize,
    has_zero: bool,
}

impl WordSet {
    const MIN_SLOTS: usize = 16;

    /// Add `w`; `false` when it was already present.
    fn insert(&mut self, w: Word) -> bool {
        if w == 0 {
            return !std::mem::replace(&mut self.has_zero, true);
        }
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            let slots = (self.slots.len() * 3 / 2).max(Self::MIN_SLOTS);
            let old = std::mem::replace(&mut self.slots, vec![0; slots]);
            for v in old.into_iter().filter(|&v| v != 0) {
                Self::place(&mut self.slots, v);
            }
        }
        let fresh = Self::place(&mut self.slots, w);
        self.len += usize::from(fresh);
        fresh
    }

    /// Put the nonzero `w` into its probe sequence; `false` when present.
    fn place(slots: &mut [Word], w: Word) -> bool {
        // Fold the high half in and multiply by 2^64/φ, so words that
        // share a low half (packed pairs) still spread; the product's high
        // bits then pick the home slot among any number of slots.
        let h = (w ^ (w >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut i = ((u128::from(h) * slots.len() as u128) >> 64) as usize;
        loop {
            if slots[i] == w {
                return false;
            }
            if slots[i] == 0 {
                slots[i] = w;
                return true;
            }
            i = if i + 1 == slots.len() { 0 } else { i + 1 };
        }
    }

    /// Remove every word; the capacity stays.
    fn clear(&mut self) {
        if self.len > 0 {
            self.slots.fill(0);
        }
        self.len = 0;
        self.has_zero = false;
    }
}

/// Exactly-once word delivery over the lossy surprise FIFO.
pub struct ReliableFifo {
    me: NodeId,
    nodes: usize,
    /// Per-destination log of the current epoch's unique words.
    logs: Vec<Vec<Word>>,
    /// Words put on the wire toward each destination this epoch.
    wire_epoch: Vec<u64>,
    /// Last accepted count observed (and reconciled) per destination.
    hw_confirmed: Vec<u64>,
    /// Outbound dedup for the current epoch (cleared by `end_epoch`).
    seen_out: WordSet,
    /// Inbound dedup for the whole run (duplicates arrive only from our
    /// peers' retransmissions, which can span epoch boundaries).
    seen_in: WordSet,
    stats: ReliableStats,
}

impl ReliableFifo {
    /// Recovery endpoint for this node.
    pub fn new(dv: &DvCtx) -> Self {
        let nodes = dv.nodes();
        assert!(
            nodes <= FIFO_RECV_SLOTS,
            "hardware accepted-count block covers {FIFO_RECV_SLOTS} sources"
        );
        Self {
            me: dv.node(),
            nodes,
            logs: vec![Vec::new(); nodes],
            wire_epoch: vec![0; nodes],
            hw_confirmed: vec![0; nodes],
            seen_out: WordSet::default(),
            seen_in: WordSet::default(),
            stats: ReliableStats::default(),
        }
    }

    /// Layer counters so far.
    pub fn stats(&self) -> ReliableStats {
        self.stats
    }

    /// Send one word to `dest`'s FIFO through `agg`, logging it for
    /// recovery. Returns `false` (word not sent) when the word already
    /// went out this epoch — app-level duplicates (e.g. parallel edges)
    /// are absorbed here so accepted-count accounting stays exact.
    pub fn send(
        &mut self,
        ctx: &SimCtx,
        dv: &DvCtx,
        agg: &mut Aggregator,
        dest: NodeId,
        word: Word,
    ) -> bool {
        if !self.seen_out.insert(word) {
            return false;
        }
        self.logs[dest].push(word);
        self.wire_epoch[dest] += 1;
        self.stats.sent += 1;
        agg.push(ctx, dv, Packet::new(PacketHeader::fifo(self.me, dest, SCRATCH_GC), word));
        true
    }

    /// Drain every currently buffered surprise word, duplicates removed.
    pub fn drain_unique(&mut self, ctx: &SimCtx, dv: &DvCtx) -> Vec<Word> {
        let mut out = Vec::new();
        loop {
            let batch = dv.fifo_drain(ctx, 4096);
            if batch.is_empty() {
                break;
            }
            for w in batch {
                if self.seen_in.insert(w) {
                    out.push(w);
                } else {
                    self.stats.dup_discarded += 1;
                }
            }
        }
        out
    }

    /// Blocking pop of the next *new* surprise word, or `None` at the
    /// deadline (duplicates are discarded without satisfying the call).
    pub fn recv_unique_deadline(
        &mut self,
        ctx: &SimCtx,
        dv: &DvCtx,
        deadline: Time,
    ) -> Option<Word> {
        loop {
            let w = dv.fifo_recv_deadline(ctx, deadline)?;
            if self.seen_in.insert(w) {
                return Some(w);
            }
            self.stats.dup_discarded += 1;
        }
    }

    /// Verify this epoch's sends to every destination, retransmitting
    /// losses until each destination's VIC has accepted every logical
    /// word. Words arriving on our own FIFO meanwhile (peers verify
    /// concurrently) are drained into `sink` (deduplicated) to keep our
    /// FIFO from backing up. Callers flush their aggregator first.
    ///
    /// The common (loss-free) case costs one *parallel* acknowledgment
    /// round: every destination is queried at once on [`VERIFY_GC`], with
    /// replies landing in per-destination scratch slots, so verification
    /// latency is one round trip regardless of cluster size. Only
    /// destinations whose count comes back short (or unknown, after a
    /// timeout) pay the serial retransmission path.
    ///
    /// # Panics
    /// Panics when the retry budget is exhausted — the acknowledgment or
    /// data path is persistently dead, which the fault plans used for
    /// chaos runs never produce.
    pub fn verify_epoch(&mut self, ctx: &SimCtx, dv: &DvCtx, sink: &mut Vec<Word>) {
        let dests: Vec<NodeId> = (0..self.nodes).filter(|&d| self.wire_epoch[d] > 0).collect();
        if dests.is_empty() {
            self.seen_out.clear();
            return;
        }
        // Parallel acknowledgment round. Reply slots sit just below the
        // blocking-read scratch slot (stale values from earlier rounds
        // are monotonic-safe: an old count can only look like a
        // shortfall, which the serial path then re-checks).
        let base = DvMemory::words() as u32 - 2;
        let my_slot = FIFO_RECV_BASE + self.me as u32;
        dv.gc_set_local(ctx, VERIFY_GC, dests.len() as u64);
        let queries: Vec<Packet> = dests
            .iter()
            .map(|&d| {
                let ret = PacketHeader::dv_memory(d, self.me, base - d as u32, VERIFY_GC);
                Packet::new(PacketHeader::query(self.me, d, my_slot), ret.encode())
            })
            .collect();
        self.stats.ack_queries += queries.len() as u64;
        dv.send_packets(ctx, queries, SendMode::DirectWrite { cached_headers: true });
        let deadline = ctx.now() + QUERY_TIMEOUT;
        if dv.gc_wait_zero(ctx, VERIFY_GC, Some(deadline)) {
            let lo = base - (self.nodes as u32 - 1);
            let vals = dv.read_local(ctx, lo, self.nodes);
            for &d in &dests {
                let hw = vals[(base - d as u32 - lo) as usize];
                if hw == self.hw_confirmed[d] + self.wire_epoch[d] {
                    self.hw_confirmed[d] = hw;
                    self.wire_epoch[d] = 0;
                    self.logs[d].clear();
                }
            }
        } else {
            self.stats.ack_query_timeouts += 1;
            sink.extend(self.drain_unique(ctx, dv));
        }
        for &d in &dests {
            if self.wire_epoch[d] > 0 {
                self.verify_dest(ctx, dv, d, sink);
            }
        }
        self.seen_out.clear();
    }

    fn verify_dest(&mut self, ctx: &SimCtx, dv: &DvCtx, dest: NodeId, sink: &mut Vec<Word>) {
        let expected = self.hw_confirmed[dest] + self.wire_epoch[dest];
        let mut hw = self.accepted(ctx, dv, dest, sink);
        if hw < expected {
            // Shortfall: some of this epoch's words never made the FIFO.
            // Which ones is unknowable from a count, so retransmit the
            // whole epoch log in stop-and-wait windows. A window whose
            // accepted delta comes back short (losses struck again) is
            // split in half and each half re-shipped/confirmed on its
            // own — loss concentrates into ever-smaller chunks, so the
            // attempt budget is spent on the words that actually keep
            // dropping instead of on clean ones.
            self.stats.retx_rounds += 1;
            let log = std::mem::take(&mut self.logs[dest]);
            let windows = log.len().div_ceil(WINDOW) as u32;
            // A dead data path shows up as *consecutive* attempts that
            // accept nothing; splitting after a partial loss is normal
            // progress and must not count against it. The total-attempt
            // budget is a structural backstop only: binary splitting
            // costs O(log window) attempts per actually-dropped word, so
            // it scales with the log length, not the window count.
            let mut budget = MAX_ROUNDS.saturating_mul(windows.max(1) + log.len() as u32);
            let mut stalls = 0u32;
            let mut work: Vec<Vec<Word>> = log.chunks(WINDOW).rev().map(|c| c.to_vec()).collect();
            while let Some(chunk) = work.pop() {
                assert!(
                    budget > 0,
                    "node {me}: retransmission budget exhausted toward node {dest} \
                     (accepted {hw}, expected {expected}); the data path is dead",
                    me = self.me,
                );
                budget -= 1;
                self.stats.retx_windows += 1;
                self.stats.retx_words += chunk.len() as u64;
                let packets: Vec<Packet> = chunk
                    .iter()
                    .map(|&w| Packet::new(PacketHeader::fifo(self.me, dest, SCRATCH_GC), w))
                    .collect();
                dv.send_packets(ctx, packets, SendMode::Dma { cached_headers: true });
                let after = self.accepted(ctx, dv, dest, sink);
                // Per-source counts and per-link ordering make the delta
                // exact: it counts precisely this attempt's accepted
                // pushes, nobody else's.
                let delta = after - hw;
                hw = after;
                if delta == chunk.len() as u64 {
                    stalls = 0;
                    continue;
                }
                if delta == 0 {
                    stalls += 1;
                    assert!(
                        stalls < MAX_ROUNDS,
                        "node {me}: {stalls} consecutive retransmissions toward node \
                         {dest} accepted nothing (at {hw}, expected {expected}); \
                         the data path is dead",
                        me = self.me,
                    );
                    // A wholly rejected window usually means the peer's
                    // FIFO is at capacity (it is busy verifying its own
                    // epoch). Back off — linearly, in free virtual time —
                    // so its drain loop can make room before we re-offer.
                    ctx.delay(time::us(100) * stalls as u64);
                } else {
                    stalls = 0;
                }
                if chunk.len() > 1 {
                    let mid = chunk.len() / 2;
                    work.push(chunk[mid..].to_vec());
                    work.push(chunk[..mid].to_vec());
                } else {
                    work.push(chunk);
                }
            }
        }
        self.hw_confirmed[dest] = hw;
        self.wire_epoch[dest] = 0;
        self.logs[dest].clear();
    }

    /// Read back our accepted-count slot at `dest` with timeout + bounded
    /// retries. Stale replies from timed-out attempts are safe: the count
    /// is monotonic, so an old value is merely conservative.
    fn accepted(&mut self, ctx: &SimCtx, dv: &DvCtx, dest: NodeId, sink: &mut Vec<Word>) -> u64 {
        let addr = FIFO_RECV_BASE + self.me as u32;
        for _ in 0..QUERY_TRIES {
            // Drain our own FIFO on *every* attempt, not just timeouts:
            // peers verify concurrently, and if every node only pushed
            // retransmissions without popping, the finite FIFOs would
            // fill to capacity and reject everything — a distributed
            // livelock where all deltas come back short forever.
            sink.extend(self.drain_unique(ctx, dv));
            self.stats.ack_queries += 1;
            let deadline = ctx.now() + QUERY_TIMEOUT;
            match dv.read_word_deadline(ctx, dest, addr, Some(deadline)) {
                Some(v) => return v,
                None => self.stats.ack_query_timeouts += 1,
            }
        }
        panic!(
            "node {me}: accepted-count query to node {dest} timed out {tries} times; \
             the acknowledgment path is dead",
            me = self.me,
            tries = QUERY_TRIES,
        );
    }

    /// Close the current epoch: outbound dedup resets so the next epoch
    /// may legitimately resend equal words. Call after [`ReliableFifo::
    /// verify_epoch`]; inbound dedup persists for the whole run.
    pub fn end_epoch(&mut self) {
        self.seen_out.clear();
        debug_assert!(self.wire_epoch.iter().all(|&w| w == 0), "end_epoch before verify_epoch");
    }

    /// Fold this endpoint's counters into the world metrics registry as
    /// `api.fifo.*`, labeled with the node id.
    pub fn publish(&self, dv: &DvCtx) {
        let m = &dv.world().metrics;
        if !m.is_enabled() {
            return;
        }
        let node = [("node", (self.me as u64).into())];
        m.incr_labeled("api.fifo.reliable_sent", &node, self.stats.sent);
        m.incr_labeled("api.fifo.dup_discarded", &node, self.stats.dup_discarded);
        m.incr_labeled("api.fifo.retx_windows", &node, self.stats.retx_windows);
        m.incr_labeled("api.fifo.retx_words", &node, self.stats.retx_words);
        m.incr_labeled("api.fifo.retx_rounds", &node, self.stats.retx_rounds);
        m.incr_labeled("api.fifo.ack_queries", &node, self.stats.ack_queries);
        m.incr_labeled("api.fifo.ack_query_timeouts", &node, self.stats.ack_query_timeouts);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use dv_core::rng::SplitMix64;

    use super::WordSet;

    #[test]
    fn word_set_agrees_with_a_btree_set() {
        let mut rng = SplitMix64::new(0x5EED);
        let mut set = WordSet::default();
        let mut oracle = BTreeSet::new();
        // Epochs of very different sizes: growth inside an epoch, and
        // inserts into a table that kept its capacity across `clear`.
        for (epoch, inserts) in [3000, 40, 60_000, 5000, 0, 700].into_iter().enumerate() {
            for i in 0..inserts {
                let w = match rng.next_below(6) {
                    0 => [0, u64::MAX, 1, 1 << 32][rng.next_below(4) as usize],
                    // (v, u) pairs that share a low half, and the reverse.
                    1 => rng.next_below(4096) << 32 | 7,
                    2 => 7 << 32 | rng.next_below(4096),
                    3 => rng.next_below(1 << 20) << 32,
                    4 => rng.next_below(5000),
                    _ => rng.next_u64(),
                };
                assert_eq!(set.insert(w), oracle.insert(w), "epoch {epoch}, insert {i}: {w:#x}");
                assert!(set.len * 8 <= set.slots.len() * 7, "load above 7/8");
            }
            assert_eq!(set.len + usize::from(set.has_zero), oracle.len());
            let slots = set.slots.len();
            set.clear();
            oracle.clear();
            assert_eq!(set.slots.len(), slots, "clear keeps the capacity");
            assert!(set.insert(0) && set.insert(u64::MAX) && !set.insert(u64::MAX));
            oracle.extend([0, u64::MAX]);
        }
    }
}
