//! Distributed 1-D FFT on the Data Vortex: transposes folded into the
//! communication.
//!
//! "We take advantage of the natural scatter/gather capabilities of the
//! network to perform the data transposition and redistribution
//! operations. A partial row of points can be loaded in the VIC's memory
//! and scattered to many destination nodes very efficiently." (Section VI)
//!
//! Concretely: every element is written *directly to its transposed
//! position* in the destination VIC's DV memory (one strided block per
//! source column), all columns in **one** PCIe DMA batch. The receiving
//! side splits its region into `CHUNKS` row ranges, each with its own
//! group counter, so the host DMA-drains range *k* while range *k+1* is
//! still arriving — the multi-buffered overlap the paper credits for DV
//! FFT performance.

use dv_core::config::ComputeParams;
use dv_core::spec::SimSpec;
use dv_core::Word;
use dv_api::world::BlockWrite;
use dv_api::{DvCluster, DvCtx, SendMode};
use dv_sim::SimCtx;

use crate::util::{charge_flops, charge_mem_bytes};

use super::mpi::FftRunResult;
use super::plan::FftPlan;
use super::Complex;

/// Pipeline depth of each transpose (row-range chunks with own counters).
const CHUNKS: usize = 4;
/// Group counters: transpose 1 uses 16..16+CHUNKS, transpose 2 the next.
const T1_GC_BASE: u8 = 16;
const T2_GC_BASE: u8 = (T1_GC_BASE as usize + CHUNKS) as u8;
/// DV-memory word address of the first receive region.
const T1_BASE: u32 = 4096;

/// Split `rows` local rows into up to [`CHUNKS`] contiguous ranges.
fn row_chunks(rows: usize) -> Vec<(usize, usize)> {
    let k = CHUNKS.min(rows).max(1);
    (0..k)
        .map(|c| (c * rows / k, (c + 1) * rows / k))
        .filter(|(a, b)| b > a)
        .collect()
}

fn chunk_of(row: usize, rows: usize) -> usize {
    let k = CHUNKS.min(rows).max(1);
    // Inverse of the row_chunks partition.
    (0..k).find(|&c| row < (c + 1) * rows / k).unwrap_or(k - 1)
}

/// Scatter `local` (rows × row_len, row-major) into the peers' DV-memory
/// regions so each peer receives its transposed layout contiguously; the
/// destination group counter is chosen by the destination *row chunk*,
/// and each chunk ships as its own PCIe batch so network injection of
/// chunk k overlaps the DMA of chunk k+1. Columns that stay on this node
/// never touch the VIC: they are copied straight into `self_out`.
#[allow(clippy::too_many_arguments)]
fn scatter_transpose(
    dv: &DvCtx,
    ctx: &SimCtx,
    local: &[Complex],
    row_len: usize,
    new_row_len: usize,
    new_rows_per_node: usize,
    my_col_offset: usize,
    region_base: u32,
    gc_base: u8,
    self_out: &mut [Complex],
) {
    let me = dv.node();
    let rows = local.len() / row_len;
    // One pass over the local data to form the scatter.
    charge_mem_bytes(ctx, &ComputeParams::default(), (local.len() * 16) as u64);
    for c in 0..row_chunks(new_rows_per_node).len() {
        let mut blocks = Vec::new();
        for col in 0..row_len {
            let dest = col / new_rows_per_node;
            let new_row = col % new_rows_per_node;
            if chunk_of(new_row, new_rows_per_node) != c {
                continue;
            }
            if dest == me {
                // Local part of the transpose: plain host copy.
                for r in 0..rows {
                    self_out[new_row * new_row_len + my_col_offset + r] =
                        local[r * row_len + col];
                }
                continue;
            }
            let column: Vec<Word> = (0..rows)
                .flat_map(|r| {
                    let v = local[r * row_len + col];
                    [v.re.to_bits(), v.im.to_bits()]
                })
                .collect();
            let address = region_base + ((new_row * new_row_len + my_col_offset) * 2) as u32;
            blocks.push(BlockWrite { dest, address, gc: gc_base + c as u8, words: column });
        }
        dv.write_blocks(ctx, blocks, SendMode::Dma { cached_headers: true });
    }
}

/// Arm the per-chunk counters for one transpose: each chunk expects its
/// row range × the *remote* part of each new row (own columns bypass the
/// VIC), in words.
fn arm_chunks(dv: &DvCtx, ctx: &SimCtx, gc_base: u8, my_rows: usize, new_row_len: usize, my_cols: usize) {
    for (c, (r0, r1)) in row_chunks(my_rows).into_iter().enumerate() {
        let expected = ((r1 - r0) * (new_row_len - my_cols) * 2) as u64;
        dv.gc_set_local(ctx, gc_base + c as u8, expected);
    }
}

/// Wait chunk-by-chunk and pull each completed row range to host memory,
/// overlapping the PCIe drain of range k with the arrival of range k+1.
/// `out` already holds the local (self) columns; remote columns are
/// merged around them.
#[allow(clippy::too_many_arguments)]
fn collect_chunks(
    dv: &DvCtx,
    ctx: &SimCtx,
    region_base: u32,
    my_rows: usize,
    new_row_len: usize,
    gc_base: u8,
    my_col_offset: usize,
    my_cols: usize,
    out: &mut [Complex],
) {
    for (c, (r0, r1)) in row_chunks(my_rows).into_iter().enumerate() {
        let ok = dv.gc_wait_zero(ctx, gc_base + c as u8, None);
        assert!(ok, "transpose chunk never completed");
        let words = dv.read_local(
            ctx,
            region_base + (r0 * new_row_len * 2) as u32,
            (r1 - r0) * new_row_len * 2,
        );
        for (i, pair) in words.chunks_exact(2).enumerate() {
            let row = r0 + i / new_row_len;
            let col = i % new_row_len;
            if col >= my_col_offset && col < my_col_offset + my_cols {
                continue; // self columns were copied host-side
            }
            out[row * new_row_len + col] =
                Complex::new(f64::from_bits(pair[0]), f64::from_bits(pair[1]));
        }
    }
}

/// Run the four-step FFT on the Data Vortex, defaults everywhere.
pub fn run(n: usize, nodes: usize, validate: bool) -> FftRunResult {
    run_spec(n, SimSpec::new(nodes), validate)
}

/// Run the four-step FFT on the cluster described by `spec`. `validate`
/// computes the serial reference and reports the max error (small N only).
pub fn run_spec(n: usize, spec: SimSpec, validate: bool) -> FftRunResult {
    let nodes = spec.nodes;
    let plan = FftPlan::new(n, nodes);
    let local_elems = n / nodes;
    // Two regions (2 words per element each) plus the low scratch page
    // must fit in the 4 Mi-word DV memory.
    assert!(
        T1_BASE as usize + 4 * local_elems <= dv_core::packet::DV_MEMORY_WORDS,
        "N/p too large for the VIC's 32 MB DV memory"
    );
    let t2_base = T1_BASE + (2 * local_elems) as u32;
    let input = move |i: usize| {
        let x = i as f64;
        Complex::new((x * 0.7311).sin(), (x * 0.394).cos() * 0.5)
    };
    let compute_cfg = spec.machine.compute.clone();
    let cluster = DvCluster::from_spec(spec);
    let report = cluster.run(move |dv, ctx| {
        let me = dv.node();
        let compute = compute_cfg.clone();
        let mut flops = 0u64;
        let local = plan.local_input(me, input);
        let rp = plan.rows_per_node();
        let cp = plan.cols_per_node();

        // Arm both transposes' chunk counters, then synchronize so no
        // data can outrun a preset (the discipline Section III prescribes).
        arm_chunks(dv, ctx, T1_GC_BASE, cp, plan.r, rp);
        arm_chunks(dv, ctx, T2_GC_BASE, rp, plan.c, cp);
        dv.barrier(ctx);

        // Step 1: transpose R×C -> C×R, folded into the scatter.
        let mut t1 = vec![Complex::zero(); cp * plan.r];
        scatter_transpose(dv, ctx, &local, plan.c, plan.r, cp, me * rp, T1_BASE, T1_GC_BASE, &mut t1);
        collect_chunks(dv, ctx, T1_BASE, cp, plan.r, T1_GC_BASE, me * rp, rp, &mut t1);
        // Step 2: length-R row FFTs.
        let f = FftPlan::row_ffts(&mut t1, plan.r);
        charge_flops(ctx, &compute, f);
        flops += f;
        // Step 3: twiddles.
        plan.twiddle_local(me, &mut t1);
        let tw = 6 * t1.len() as u64;
        charge_flops(ctx, &compute, tw);
        flops += tw;
        // Step 4: transpose back C×R -> R×C.
        let mut t2 = vec![Complex::zero(); rp * plan.c];
        scatter_transpose(dv, ctx, &t1, plan.r, plan.c, rp, me * cp, t2_base, T2_GC_BASE, &mut t2);
        collect_chunks(dv, ctx, t2_base, rp, plan.c, T2_GC_BASE, me * cp, cp, &mut t2);
        // Step 5: length-C row FFTs.
        let f = FftPlan::row_ffts(&mut t2, plan.c);
        charge_flops(ctx, &compute, f);
        flops += f;

        dv.fast_barrier(ctx);
        (flops, t2)
    });

    let (elapsed, results) = (report.elapsed, report.result);
    let flops: u64 = results.iter().map(|(f, _)| f).sum();
    let max_error = if validate {
        let reference = plan.serial_reference(input);
        let rp = plan.rows_per_node();
        let mut err = 0.0f64;
        for (node, (_, out)) in results.iter().enumerate() {
            let lo = node * rp * plan.c;
            err = err.max(super::max_error(out, &reference[lo..lo + out.len()]));
        }
        err
    } else {
        f64::NAN
    };
    FftRunResult { nodes, n, flops, elapsed, max_error }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_chunk_partition_is_exact() {
        for rows in [1usize, 2, 3, 4, 7, 16, 33] {
            let chunks = row_chunks(rows);
            assert_eq!(chunks[0].0, 0);
            assert_eq!(chunks.last().unwrap().1, rows);
            for w in chunks.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
            // chunk_of agrees with the partition.
            for r in 0..rows {
                let c = chunk_of(r, rows);
                let (a, b) = chunks[c];
                assert!(r >= a && r < b, "rows={rows} r={r} c={c}");
            }
        }
    }

    #[test]
    fn dv_fft_matches_serial_reference() {
        for nodes in [2usize, 4] {
            let r = run(1 << 10, nodes, true);
            assert!(r.max_error < 1e-8, "nodes={nodes} err={}", r.max_error);
        }
    }

    #[test]
    fn dv_fft_beats_mpi_and_gap_grows() {
        // Figure 7: higher aggregate GFLOPS on DV, widening with scale.
        let n = 1 << 14;
        let dv4 = run(n, 4, false);
        let mpi4 = super::super::mpi::run(n, 4, false);
        let dv16 = run(n, 16, false);
        let mpi16 = super::super::mpi::run(n, 16, false);
        assert!(
            dv16.gflops() > mpi16.gflops(),
            "dv {} mpi {}",
            dv16.gflops(),
            mpi16.gflops()
        );
        let gap4 = dv4.gflops() / mpi4.gflops();
        let gap16 = dv16.gflops() / mpi16.gflops();
        assert!(gap16 > gap4 * 0.9, "gap4 {gap4} gap16 {gap16}");
    }

    #[test]
    fn scaling_increases_aggregate_gflops() {
        let n = 1 << 14;
        let r2 = run(n, 2, false);
        let r8 = run(n, 8, false);
        assert!(r8.gflops() > r2.gflops(), "2n {} 8n {}", r2.gflops(), r8.gflops());
    }
}
