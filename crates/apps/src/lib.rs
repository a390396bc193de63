//! # dv-apps — the paper's three prototype applications
//!
//! Section VII: "three prototype applications that have high communication
//! cost per computation. All are iterative solvers for partial differential
//! equations, but they have very different implementations, data transfer
//! mechanisms, and resultant data costs."
//!
//! * [`snap`] — the SN (Discrete Ordinates) Application Proxy: a KBA
//!   wavefront transport sweep over a 3-D mesh with a 2-D (y,z) node
//!   decomposition, swept along every octant for every energy group. The
//!   Data Vortex port is the paper's "best-effort" port (drop-in
//!   replacement of the message layer plus PCIe batching) → small speedup.
//! * [`vorticity`] — ideal incompressible flow (2-D Euler in vorticity-
//!   streamfunction form), pseudo-spectral: five 2-D FFTs per time step,
//!   so the communication cost is a stream of distributed matrix
//!   transposes. The Data Vortex implementation folds the transposes into
//!   VIC-memory scatters → large speedup.
//! * [`heat`] — the 3-D heat equation with a 3-D domain decomposition:
//!   6-neighbor halo exchange of many small messages per step → large
//!   speedup from fine-grained writes and cheap synchronization.
//!
//! Every application validates bit-exactly against a serial reference
//! implementation of the same arithmetic; Figure 9 is regenerated by
//! [`fig9::speedups`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fig9;
pub mod heat;
pub mod snap;
pub mod vorticity;
