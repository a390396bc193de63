//! Distributed vorticity solver, generic over the transpose engine.

use dv_core::config::ComputeParams;
use dv_core::time::Time;
use dv_kernels::fft::twod::fft2d_dist;
use dv_kernels::fft::Complex;
use dv_kernels::util::{charge_flops, charge_mem_bytes};
use dv_sim::SimCtx;

use dv_kernels::transpose::{DvTranspose, MpiTranspose, TransposeEngine};

use super::{initial_vorticity, velocity_and_gradient_hat, VortConfig};

/// Result of a distributed vorticity run.
#[derive(Debug, Clone)]
pub struct VortRunResult {
    /// Elapsed virtual time.
    pub elapsed: Time,
    /// Final local spectral vorticity per node (row blocks, rank order).
    pub omega_hat: Vec<Vec<Complex>>,
    /// 2-D FFTs performed.
    pub fft2d_count: u64,
}

/// The solver body: runs on every node; `local` spectral rows in, final
/// spectral rows out. Arithmetic is identical to `SerialVorticity::step`.
pub fn solve<E: TransposeEngine>(
    eng: &mut E,
    ctx: &SimCtx,
    cfg: &VortConfig,
    mut omega_hat: Vec<Complex>,
) -> (Vec<Complex>, u64) {
    let m = cfg.m;
    let p = eng.nodes();
    let rows = m / p;
    let row0 = eng.node() * rows;
    let compute = ComputeParams::default();
    let mut ffts = 0u64;
    for _ in 0..cfg.steps {
        let (mut u, mut v, mut wx, mut wy) = velocity_and_gradient_hat(&omega_hat, m, row0);
        charge_flops(ctx, &compute, 20 * omega_hat.len() as u64);
        fft2d_dist(eng, ctx, &compute, &mut u, m, true);
        fft2d_dist(eng, ctx, &compute, &mut v, m, true);
        fft2d_dist(eng, ctx, &compute, &mut wx, m, true);
        fft2d_dist(eng, ctx, &compute, &mut wy, m, true);
        let mut nonlin: Vec<Complex> = (0..rows * m)
            .map(|i| Complex::new(u[i].re * wx[i].re + v[i].re * wy[i].re, 0.0))
            .collect();
        charge_flops(ctx, &compute, 3 * nonlin.len() as u64);
        charge_mem_bytes(ctx, &compute, (5 * 16 * nonlin.len()) as u64);
        fft2d_dist(eng, ctx, &compute, &mut nonlin, m, false);
        ffts += 5;
        for (w, n) in omega_hat.iter_mut().zip(&nonlin) {
            w.re -= cfg.dt * n.re;
            w.im -= cfg.dt * n.im;
        }
        charge_flops(ctx, &compute, 4 * omega_hat.len() as u64);
        // Diagnostic the real code reports each step: total enstrophy.
        let local_enstrophy: f64 = omega_hat.iter().map(|c| c.norm_sq()).sum();
        let _ = eng.allreduce_sum(ctx, local_enstrophy);
    }
    (omega_hat, ffts)
}

/// The initial local spectral rows for `node` (computed off the clock —
/// problem setup, like the paper's untimed initialization).
pub fn initial_rows(cfg: &VortConfig, nodes: usize, node: usize) -> Vec<Complex> {
    // Compute the full spectral field serially and slice this node's rows
    // (identical to what a parallel FFT of the initial data produces).
    let m = cfg.m;
    let h = 2.0 * std::f64::consts::PI / m as f64;
    let mut omega: Vec<Complex> = (0..m * m)
        .map(|i| Complex::new(initial_vorticity((i % m) as f64 * h, (i / m) as f64 * h), 0.0))
        .collect();
    super::fft2d(&mut omega, m, false);
    let rows = m / nodes;
    omega[node * rows * m..(node + 1) * rows * m].to_vec()
}

/// Run over MPI.
pub fn run_mpi(cfg: VortConfig, nodes: usize) -> VortRunResult {
    let report = mini_mpi::MpiCluster::from_spec(dv_core::spec::SimSpec::new(nodes)).run(move |comm, ctx| {
        let local = initial_rows(&cfg, comm.size(), comm.rank());
        comm.barrier(ctx);
        let mut eng = MpiTranspose::new(comm);
        solve(&mut eng, ctx, &cfg, local)
    });
    let (elapsed, results) = (report.elapsed, report.result);
    let fft2d_count = results.iter().map(|(_, f)| f).sum();
    VortRunResult { elapsed, omega_hat: results.into_iter().map(|(o, _)| o).collect(), fft2d_count }
}

/// Run on the Data Vortex.
pub fn run_dv(cfg: VortConfig, nodes: usize) -> VortRunResult {
    let report = dv_api::DvCluster::from_spec(dv_core::spec::SimSpec::new(nodes)).run(move |dv, ctx| {
        let local = initial_rows(&cfg, dv.nodes(), dv.node());
        let mut eng = DvTranspose::new(dv, ctx, 4096, local.len());
        solve(&mut eng, ctx, &cfg, local)
    });
    let (elapsed, results) = (report.elapsed, report.result);
    let fft2d_count = results.iter().map(|(_, f)| f).sum();
    VortRunResult { elapsed, omega_hat: results.into_iter().map(|(o, _)| o).collect(), fft2d_count }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vorticity::SerialVorticity;

    fn reference(cfg: &VortConfig) -> Vec<Complex> {
        let mut s = SerialVorticity::new(cfg, initial_vorticity);
        for _ in 0..cfg.steps {
            s.step(cfg.dt);
        }
        s.omega_hat
    }

    fn assert_matches_serial(result: &VortRunResult, cfg: &VortConfig) {
        let expect = reference(cfg);
        let m = cfg.m;
        let p = result.omega_hat.len();
        let rows = m / p;
        for (node, local) in result.omega_hat.iter().enumerate() {
            let slice = &expect[node * rows * m..(node + 1) * rows * m];
            let err = dv_kernels::fft::max_error(local, slice);
            assert!(err < 1e-9, "node {node}: err {err}");
        }
    }

    #[test]
    fn mpi_solver_matches_serial() {
        let cfg = VortConfig::test_small();
        let r = run_mpi(cfg, 4);
        assert_matches_serial(&r, &cfg);
        assert_eq!(r.fft2d_count, 4 * 5 * cfg.steps as u64);
    }

    #[test]
    fn dv_solver_matches_serial() {
        let cfg = VortConfig::test_small();
        let r = run_dv(cfg, 4);
        assert_matches_serial(&r, &cfg);
    }

    #[test]
    fn dv_is_faster_than_mpi() {
        // The Figure 9 "Vorticity" bar (~3.4x at 32 nodes; any clear win
        // at this small test size).
        let cfg = VortConfig { m: 64, dt: 1e-3, steps: 2 };
        let dv = run_dv(cfg, 8);
        let mpi = run_mpi(cfg, 8);
        assert!(
            dv.elapsed < mpi.elapsed,
            "dv {} mpi {}",
            dv.elapsed,
            mpi.elapsed
        );
    }
}
