//! Small collectives built on the Data Vortex API.
//!
//! MPI ships collectives; the Data Vortex API does not — application codes
//! compose them from DV-memory writes, group counters, and the status-page
//! push (Section III). These are the idioms our applications share.
//!
//! Slot layout (all within the VIC's pushed status page, so polls are
//! host-local): each collective uses a region of `2 p` words on every
//! node — `(flag, value)` pairs per peer — plus an epoch discipline:
//! regions are cleared by their *owner* after use and a FastBarrier fences
//! the next round.

use crate::ctx::{DvCtx, SendMode};
use dv_core::packet::{Packet, PacketHeader, SCRATCH_GC};
use dv_core::time::us;
use dv_sim::SimCtx;

/// Status-page base address for the reduce scratch region (2 words per
/// peer: flag, value).
pub const REDUCE_BASE: u32 = 160;

/// All-reduce a single f64 by summation. `epoch_fence` must be true on
/// every node or none (collective call discipline, like MPI).
pub fn allreduce_sum_f64(dv: &DvCtx, ctx: &SimCtx, x: f64) -> f64 {
    let me = dv.node();
    let p = dv.nodes();
    if p == 1 {
        return x;
    }
    assert!(
        REDUCE_BASE as usize + 2 * p <= crate::ctx::STATUS_PAGE_WORDS,
        "allreduce slots exceed the VIC status page ({p} nodes)"
    );

    // Everyone posts (value, flag) into every peer's region — an
    // all-to-all broadcast of one word; each node then sums locally.
    // p−1 packets per node: one PCIe batch.
    let mut packets = Vec::with_capacity(2 * (p - 1));
    for d in (0..p).filter(|&d| d != me) {
        let base = REDUCE_BASE + 2 * me as u32;
        packets.push(Packet::new(
            PacketHeader::dv_memory(me, d, base, SCRATCH_GC),
            x.to_bits(),
        ));
        packets.push(Packet::new(PacketHeader::dv_memory(me, d, base + 1, SCRATCH_GC), 1));
    }
    dv.send_packets(ctx, packets, SendMode::DirectWrite { cached_headers: true });

    // Poll the pushed status page until all peers' flags are set.
    let mut sum = x;
    let mut seen = vec![false; p];
    seen[me] = true;
    let mut remaining = p - 1;
    while remaining > 0 {
        let region = dv.peek_local(ctx, REDUCE_BASE, 2 * p);
        for s in 0..p {
            if !seen[s] && region[2 * s + 1] != 0 {
                seen[s] = true;
                remaining -= 1;
                sum += f64::from_bits(region[2 * s]);
            }
        }
        if remaining > 0 {
            // Nothing new yet; yield a little virtual time.
            ctx.delay(us(1));
        }
    }

    // Clear our region locally and fence the epoch.
    dv.write_local(ctx, REDUCE_BASE, &vec![0u64; 2 * p]);
    dv.fast_barrier(ctx);
    sum
}

/// All-reduce a u64 by summation (same protocol).
pub fn allreduce_sum_u64(dv: &DvCtx, ctx: &SimCtx, x: u64) -> u64 {
    allreduce_sum_f64(dv, ctx, x as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DvCluster;
    use dv_core::spec::SimSpec;

    #[test]
    fn allreduce_sums_across_nodes() {
        let results = DvCluster::from_spec(SimSpec::new(8)).run(|dv, ctx| {
            let x = (dv.node() + 1) as f64;
            allreduce_sum_f64(dv, ctx, x)
        })
        .result;
        for r in results {
            assert_eq!(r, 36.0);
        }
    }

    #[test]
    fn repeated_allreduces_stay_correct() {
        let results = DvCluster::from_spec(SimSpec::new(4)).run(|dv, ctx| {
            let mut out = Vec::new();
            for round in 0..5u64 {
                let x = (dv.node() as u64 * 10 + round) as f64;
                out.push(allreduce_sum_f64(dv, ctx, x));
            }
            out
        })
        .result;
        for r in results {
            // Round k: sum over nodes of (10*node + k) = 60 + 4k.
            let expect: Vec<f64> = (0..5).map(|k| 60.0 + 4.0 * k as f64).collect();
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn single_node_shortcuts() {
        let results =
            DvCluster::from_spec(SimSpec::new(1)).run(|dv, ctx| allreduce_sum_f64(dv, ctx, 7.5)).result;
        assert_eq!(results[0], 7.5);
    }

    #[test]
    fn u64_wrapper_handles_counts() {
        let results = DvCluster::from_spec(SimSpec::new(4)).run(|dv, ctx| {
            allreduce_sum_u64(dv, ctx, dv.node() as u64)
        })
        .result;
        for r in results {
            assert_eq!(r, 6);
        }
    }
}
