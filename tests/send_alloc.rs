//! Grouping a mixed-destination send by destination must cost
//! O(destinations) allocations, not O(packets): one exact-capacity batch
//! per destination, never a batch that grows packet by packet. A counting
//! global allocator wraps the system one (the same technique as
//! `tests/sim_alloc.rs`) and counts the allocations of whole
//! `send_packets` calls of 1024 and 4096 packets to 31 destinations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use datavortex::api::{DvCluster, SendMode};
use datavortex::core::packet::{Packet, PacketHeader, SCRATCH_GC};
use datavortex::core::spec::SimSpec;
use datavortex::core::time::us;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the System allocator plus one relaxed
// counter bump; all GlobalAlloc contract obligations are System's own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: layout is forwarded unchanged to the System allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr/layout came from the matching System.alloc above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const NODES: usize = 32;
const DESTS: u64 = NODES as u64 - 1;

// One test function: the allocation counter is process-global, so a
// second test running on a sibling thread would bump it mid-measurement.
#[test]
fn grouping_allocates_per_destination_not_per_packet() {
    let report = DvCluster::from_spec(SimSpec::new(NODES)).run(|dv, ctx| {
        if dv.node() != 0 {
            // Parked on a timer for the whole measurement.
            ctx.delay(us(1000));
            return Vec::new();
        }
        // Interleaved destinations 1..=31: every packet starts a new run.
        let batch = |n: usize| -> Vec<Packet> {
            (0..n)
                .map(|i| {
                    let dest = 1 + (i * 7) % DESTS as usize;
                    Packet::new(PacketHeader::fifo(0, dest, SCRATCH_GC), i as u64)
                })
                .collect()
        };
        let mode = SendMode::Dma { cached_headers: true };
        let mut counts = Vec::new();
        // The first call warms the event queue; the others are measured.
        for n in [4096, 1024, 4096] {
            let packets = batch(n);
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            dv.send_packets(ctx, packets, mode);
            counts.push(ALLOCATIONS.load(Ordering::Relaxed) - before);
            ctx.delay(us(200));
        }
        counts
    });
    let counts = &report.result[0];
    let (small, large) = (counts[1], counts[2]);
    assert!(
        small <= 3 * DESTS,
        "a 1024-packet send to {DESTS} destinations allocated {small} times"
    );
    assert_eq!(small, large, "4x the packets to the same destinations must allocate no more");
}
