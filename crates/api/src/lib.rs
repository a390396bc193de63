//! # dv-api — the Data Vortex programming model
//!
//! A Rust rendition of the `dvapi` library (Section III of the paper): the
//! low-level interface a node program uses to drive its VIC. Everything the
//! paper describes is here:
//!
//! * packets are a 64-bit header plus a 64-bit payload, addressed to a
//!   remote VIC's DV memory, surprise FIFO, or group counters — including
//!   your own VIC;
//! * three send paths with very different PCIe costs: direct writes from
//!   host memory ([`SendMode::DirectWrite`]), direct writes with
//!   pre-cached headers in DV memory, and DMA with cached headers
//!   ([`SendMode::Dma`]) — the three curves of Figure 3;
//! * "return header" query packets that read a remote DV-memory word and
//!   forward it anywhere;
//! * globally accessible group counters with the real set/decrement race;
//! * the hardware barrier intrinsic (two reserved group counters) and an
//!   in-house all-to-all "FastBarrier" — the two Data Vortex curves of
//!   Figure 4;
//! * a source-side [`aggregate::Aggregator`] that batches packets bound
//!   for *different* destinations into one PCIe transfer — the paper's
//!   "aggregation at source", the key to GUPS/BFS performance;
//! * a recovery layer ([`reliable::ReliableFifo`]) that turns the lossy
//!   surprise FIFO into an exactly-once word stream — credit/backpressure
//!   on the send side ([`ctx::DvCtx::fifo_try_send`]), acknowledgment via
//!   query packets against hardware accepted counts, and bounded
//!   windowed retransmission — so irregular kernels complete correctly
//!   under overflow or an injected fault plan.
//!
//! Network timing comes from the calibrated `dv-switch` model plus
//! per-VIC injection/ejection pipes at the 4.4 GB/s port rate; host↔VIC
//! timing comes from `dv-vic`'s PCIe path. Delivery is *functional*: the
//! payloads really land in the destination VIC structures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod cluster;
pub mod coll;
pub mod ctx;
pub mod gas;
pub mod reliable;
pub mod world;

pub use aggregate::Aggregator;
pub use cluster::DvCluster;
pub use ctx::{Backpressure, DvCtx, SendMode};
pub use gas::GlobalArray;
pub use reliable::ReliableFifo;
pub use world::DvWorld;
