//! Heat equation on the Data Vortex: halos written straight into the
//! neighbors' DV memory.
//!
//! "For the Data Vortex implementation, as in the previous case, we
//! re-structured the algorithm to take full advantage of the underlying
//! hardware features" (Section VII). The restructuring: every step, each
//! node writes its six boundary planes directly into per-face regions of
//! the neighbors' VIC memory (one DMA batch for all six), arrival is
//! tracked by one group counter per step parity, and the global-heat
//! diagnostic uses the DV-memory collective instead of an MPI allreduce.

use dv_api::world::BlockWrite;
use dv_api::SendMode;
use dv_core::config::ComputeParams;
use dv_kernels::util::{charge, charge_mem_bytes};

use dv_api::coll;

use super::mpi::HeatRunResult;
use super::{Face, HeatConfig, LocalBlock};

/// Per-parity halo group counters.
const HALO_GC: [u8; 2] = [32, 33];
/// DV-memory base of the ghost-face regions (above the status page).
const FACE_BASE: u32 = 1024;

fn max_face(cfg: &HeatConfig) -> u32 {
    let (nxl, nyl, nzl) = cfg.local();
    (nyl * nzl).max(nxl * nzl).max(nxl * nyl) as u32
}

/// Parity-major layout: each parity's six face regions are contiguous so
/// the receiver drains the whole step's ghosts in **one** DMA read.
fn face_region(cfg: &HeatConfig, f: Face, parity: usize) -> u32 {
    FACE_BASE + (parity as u32 * 6 + f.index() as u32) * max_face(cfg)
}

/// Run the heat solver on the Data Vortex.
pub fn run(cfg: HeatConfig) -> HeatRunResult {
    run_spec(cfg, dv_core::spec::SimSpec::new(cfg.nodes()))
}

/// [`run`] on the cluster described by `spec` — metrics and streaming come
/// from the spec, so streaming benches can watch halo-exchange traffic at
/// virtual-time intervals.
pub fn run_spec(cfg: HeatConfig, spec: dv_core::spec::SimSpec) -> HeatRunResult {
    assert_eq!(spec.nodes, cfg.nodes(), "spec.nodes must match the grid");
    let cluster = dv_api::DvCluster::from_spec(spec);
    let report = cluster.run(move |dv, ctx| {
        let me = dv.node();
        let compute = ComputeParams::default();
        let mut block = LocalBlock::new(&cfg, me);
        let c = block.coords;
        let neighbor = |f: Face| {
            let o = f.offset();
            cfg.node_at((c.0 as isize + o.0, c.1 as isize + o.1, c.2 as isize + o.2))
        };
        // Expected halo words per step = sum of present-neighbor faces.
        let expected: u64 = Face::ALL
            .iter()
            .filter(|&&f| neighbor(f).is_some())
            .map(|&f| block.face_len(f) as u64)
            .sum();
        dv.gc_set_local(ctx, HALO_GC[0], expected);
        dv.gc_set_local(ctx, HALO_GC[1], expected);
        dv.barrier(ctx);
        let mut last_heat = 0.0;

        for step in 0..cfg.steps {
            let parity = step % 2;
            // One DMA batch carrying all six outgoing faces.
            let mut blocks = Vec::new();
            for f in Face::ALL {
                if let Some(n) = neighbor(f) {
                    let face = block.gather_face(f);
                    charge_mem_bytes(ctx, &compute, 8 * face.len() as u64);
                    blocks.push(BlockWrite {
                        dest: n,
                        // It lands in the neighbor's ghost region for the
                        // opposite face.
                        address: face_region(&cfg, f.opposite(), parity),
                        gc: HALO_GC[parity],
                        words: face.iter().map(|v| v.to_bits()).collect(),
                    });
                }
            }
            dv.write_blocks(ctx, blocks, SendMode::Dma { cached_headers: true });

            // Wait for my halos, re-arm the parity, pull ghosts to host.
            let ok = dv.gc_wait_zero(ctx, HALO_GC[parity], None);
            assert!(ok, "halo exchange never completed");
            dv.gc_set_local(ctx, HALO_GC[parity], expected);
            // One DMA drains all six ghost planes (parity-major layout).
            let region = dv.read_local(
                ctx,
                face_region(&cfg, Face::Xm, parity),
                6 * max_face(&cfg) as usize,
            );
            for f in Face::ALL {
                if neighbor(f).is_some() {
                    let off = (f.index() as u32 * max_face(&cfg)) as usize;
                    let data: Vec<f64> = region[off..off + block.face_len(f)]
                        .iter()
                        .map(|&w| f64::from_bits(w))
                        .collect();
                    charge_mem_bytes(ctx, &compute, 8 * data.len() as u64);
                    block.set_ghost(f, &data);
                }
            }

            block.step(cfg.r);
            charge(ctx, block.cells() as u64, compute.stencil_mcups * 1e6);

            if (step + 1) % cfg.report_every == 0 {
                last_heat = coll::allreduce_sum_f64(dv, ctx, block.local_heat());
            }
        }
        dv.fast_barrier(ctx);
        (block.interior(), last_heat)
    });
    let (elapsed, results) = (report.elapsed, report.result);
    let last_heat = results[0].1;
    HeatRunResult { elapsed, fields: results.into_iter().map(|(f, _)| f).collect(), last_heat }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heat::mpi::assemble;
    use crate::heat::{Halo, SerialHeat};

    #[test]
    fn dv_heat_matches_serial_exactly() {
        let cfg = HeatConfig::test_small();
        let r = run(cfg);
        let mut serial = SerialHeat::new(&cfg);
        for _ in 0..cfg.steps {
            serial.step();
        }
        assert_eq!(assemble(&cfg, &r.fields), serial.u);
    }

    #[test]
    fn dv_and_mpi_agree_bitwise() {
        let cfg = HeatConfig { n: (16, 16, 8), grid: (2, 2, 2), r: 0.09, steps: 5, report_every: 2, halo: Halo::Line };
        let dv = run(cfg);
        let mpi = super::super::mpi::run(cfg);
        assert_eq!(assemble(&cfg, &dv.fields), assemble(&cfg, &mpi.fields));
        assert!((dv.last_heat - mpi.last_heat).abs() < 1e-9);
    }

    #[test]
    fn dv_heat_is_faster_than_mpi() {
        // Figure 9's "Heat" bar (~2.46x at 32 nodes); any clear win here.
        let cfg = HeatConfig { n: (16, 16, 16), grid: (2, 2, 2), r: 0.1, steps: 8, report_every: 4, halo: Halo::Line };
        let dv = run(cfg);
        let mpi = super::super::mpi::run(cfg);
        assert!(dv.elapsed < mpi.elapsed, "dv {} mpi {}", dv.elapsed, mpi.elapsed);
    }
}
