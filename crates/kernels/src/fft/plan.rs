//! The distributed four-step FFT plan: shapes, index math, local stages.
//!
//! The length-N transform is computed as an R×C matrix problem
//! (`N = R·C`, both powers of two, R row-distributed over the nodes):
//!
//! 1. transpose (distributed) — R×C → C×R,
//! 2. row FFTs of length R,
//! 3. twiddle scaling by `W_N^{n2·k1}`,
//! 4. transpose back — C×R → R×C,
//! 5. row FFTs of length C.
//!
//! With input `x[n2 + C·n1] = A[n1][n2]`, the output after step 5 is
//! `X[k1 + R·k2] = out[k1][k2]` — i.e. the result lands in transposed
//! digit order, the standard convention for transpose-algorithm FFTs
//! (HPCC's pzfft does the same and un-scrambles at the end; we expose the
//! ordering and let callers reorder if they need natural order).

use super::Complex;

/// Shape of the distributed transform.
#[derive(Debug, Clone, Copy)]
pub struct FftPlan {
    /// Total points (R·C).
    pub n: usize,
    /// Rows (first-stage FFT length).
    pub r: usize,
    /// Columns (second-stage FFT length).
    pub c: usize,
    /// Participating nodes.
    pub nodes: usize,
}

impl FftPlan {
    /// Plan for `n` points over `nodes` nodes; splits `n` into the most
    /// square R×C with both dimensions divisible by `nodes`.
    pub fn new(n: usize, nodes: usize) -> Self {
        assert!(n.is_power_of_two(), "N must be a power of two");
        assert!(nodes.is_power_of_two(), "node count must be a power of two");
        let log_n = n.trailing_zeros();
        let log_r = log_n / 2;
        let r = 1usize << log_r;
        let c = n / r;
        assert!(
            r >= nodes && c >= nodes,
            "each node needs at least one row in both layouts (n={n}, p={nodes})"
        );
        Self { n, r, c, nodes }
    }

    /// Rows of the R×C layout owned by each node.
    pub fn rows_per_node(&self) -> usize {
        self.r / self.nodes
    }

    /// Rows of the C×R layout owned by each node.
    pub fn cols_per_node(&self) -> usize {
        self.c / self.nodes
    }

    /// Local input slice for `node`: rows `[node·R/p, (node+1)·R/p)` of A,
    /// where `A[n1][n2] = x[n2 + C·n1]`, generated by `f(global_index)`.
    pub fn local_input(&self, node: usize, f: impl Fn(usize) -> Complex) -> Vec<Complex> {
        let rp = self.rows_per_node();
        let mut out = Vec::with_capacity(rp * self.c);
        for row in node * rp..(node + 1) * rp {
            for col in 0..self.c {
                out.push(f(col + self.c * row));
            }
        }
        out
    }

    /// Apply the twiddle scaling of step 3 to a node's local C×R rows
    /// (rows indexed `n2`, columns `k1`): multiply by `W_N^{n2·k1}`.
    pub fn twiddle_local(&self, node: usize, data: &mut [Complex]) {
        let cp = self.cols_per_node();
        debug_assert_eq!(data.len(), cp * self.r);
        for (lrow, chunk) in data.chunks_mut(self.r).enumerate() {
            let n2 = node * cp + lrow;
            for (k1, v) in chunk.iter_mut().enumerate() {
                // W_N^{n2 k1}; reduce the exponent mod N.
                let e = (n2 * k1) % self.n;
                *v = *v * Complex::twiddle(e, self.n);
            }
        }
    }

    /// Run length-`len` FFTs over each row of `data` (`data.len()` must be
    /// a multiple of `len`). Returns the number of flops charged by the
    /// HPCC convention.
    pub fn row_ffts(data: &mut [Complex], len: usize) -> u64 {
        debug_assert_eq!(data.len() % len, 0);
        for row in data.chunks_mut(len) {
            super::fft_in_place(row);
        }
        (data.len() / len) as u64 * super::fft_flops(len as u64)
    }

    /// Reference: serial four-step result for validation — returns the
    /// full output in the same transposed-digit order the distributed
    /// algorithm produces: `out[k1][k2] = X[k1 + R·k2]`, row-major R×C.
    pub fn serial_reference(&self, f: impl Fn(usize) -> Complex) -> Vec<Complex> {
        let x: Vec<Complex> = (0..self.n).map(f).collect();
        let mut fx = x;
        super::fft_in_place(&mut fx);
        let mut out = vec![Complex::zero(); self.n];
        for k1 in 0..self.r {
            for k2 in 0..self.c {
                out[k1 * self.c + k2] = fx[k1 + self.r * k2];
            }
        }
        out
    }
}

/// Pack a complex slice into interleaved f64 (for message payloads).
pub fn to_interleaved(data: &[Complex]) -> Vec<f64> {
    let mut out = Vec::with_capacity(data.len() * 2);
    for c in data {
        out.push(c.re);
        out.push(c.im);
    }
    out
}

/// Inverse of [`to_interleaved`].
pub fn from_interleaved(data: &[f64]) -> Vec<Complex> {
    assert_eq!(data.len() % 2, 0);
    data.chunks_exact(2).map(|p| Complex::new(p[0], p[1])).collect()
}

/// Extract the transpose block a node sends: from local rows (each of
/// length `row_len`), take columns `[col0, col0+cols)` of every row.
pub fn gather_block(local: &[Complex], row_len: usize, col0: usize, cols: usize) -> Vec<Complex> {
    let rows = local.len() / row_len;
    let mut out = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        let base = r * row_len;
        out.extend_from_slice(&local[base + col0..base + col0 + cols]);
    }
    out
}

/// Scatter a received transpose block into the destination layout: the
/// block holds `src_rows` rows × `my_cols` cols (row-major, as gathered at
/// the source); in the transposed local matrix (rows = my columns, length
/// `new_row_len`), it lands at column offset `src_row0`.
pub fn scatter_block(
    dest: &mut [Complex],
    new_row_len: usize,
    src_row0: usize,
    block: &[Complex],
    my_cols: usize,
) {
    let src_rows = block.len() / my_cols;
    for (i, &v) in block.iter().enumerate() {
        let src_row = i / my_cols;
        let col = i % my_cols; // which of my new rows
        dest[col * new_row_len + src_row0 + src_row] = v;
    }
    debug_assert_eq!(block.len(), src_rows * my_cols);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_shapes_multiply_out() {
        let p = FftPlan::new(1 << 10, 4);
        assert_eq!(p.r * p.c, p.n);
        assert!(p.r.is_power_of_two() && p.c.is_power_of_two());
        assert_eq!(p.rows_per_node() * p.nodes, p.r);
        assert_eq!(p.cols_per_node() * p.nodes, p.c);
    }

    #[test]
    fn local_inputs_tile_the_whole_signal() {
        let p = FftPlan::new(256, 4);
        let f = |i: usize| Complex::new(i as f64, -(i as f64));
        let mut seen = vec![false; p.n];
        for node in 0..p.nodes {
            for (j, c) in p.local_input(node, f).into_iter().enumerate() {
                let row = node * p.rows_per_node() + j / p.c;
                let col = j % p.c;
                let idx = col + p.c * row;
                assert_eq!(c.re, idx as f64);
                assert!(!seen[idx]);
                seen[idx] = true;
            }
        }
        assert!(seen.into_iter().all(|b| b));
    }

    #[test]
    fn gather_scatter_transpose_locally() {
        // Simulate the full transpose with gather/scatter on one "cluster"
        // held in memory, and check it equals the plain transpose.
        let p = FftPlan::new(64, 2);
        let f = |i: usize| Complex::new(i as f64, 0.0);
        let locals: Vec<Vec<Complex>> = (0..p.nodes).map(|n| p.local_input(n, f)).collect();
        let rp = p.rows_per_node();
        let cp = p.cols_per_node();
        // Destination: node d owns rows [d*cp, (d+1)*cp) of the C×R matrix.
        let mut transposed: Vec<Vec<Complex>> =
            (0..p.nodes).map(|_| vec![Complex::zero(); cp * p.r]).collect();
        #[allow(clippy::needless_range_loop)] // src/dst double-index a block matrix
        for src in 0..p.nodes {
            for dst in 0..p.nodes {
                let block = gather_block(&locals[src], p.c, dst * cp, cp);
                scatter_block(&mut transposed[dst], p.r, src * rp, &block, cp);
            }
        }
        // Check: transposed[d][lrow][k] == A[k][d*cp + lrow] == x[(d*cp+lrow) + C*k]
        #[allow(clippy::needless_range_loop)] // d appears in the expected-value formula
        for d in 0..p.nodes {
            for lrow in 0..cp {
                for k in 0..p.r {
                    let expect = ((d * cp + lrow) + p.c * k) as f64;
                    assert_eq!(transposed[d][lrow * p.r + k].re, expect, "d={d} lrow={lrow} k={k}");
                }
            }
        }
    }

    #[test]
    fn interleave_round_trip() {
        let xs = vec![Complex::new(1.0, 2.0), Complex::new(-3.0, 4.5)];
        assert_eq!(from_interleaved(&to_interleaved(&xs)), xs);
    }

    #[test]
    fn serial_reference_matches_direct_fft_reordering() {
        let p = FftPlan::new(64, 2);
        let f = |i: usize| Complex::new((i as f64).sin(), (i as f64 * 0.7).cos());
        let reference = p.serial_reference(f);
        // Spot-check the ordering identity out[k1*C + k2] = X[k1 + R*k2].
        let mut fx: Vec<Complex> = (0..p.n).map(f).collect();
        super::super::fft_in_place(&mut fx);
        for k1 in [0usize, 1, p.r - 1] {
            for k2 in [0usize, p.c / 2, p.c - 1] {
                let a = reference[k1 * p.c + k2];
                let b = fx[k1 + p.r * k2];
                assert_eq!(a, b);
            }
        }
    }
}
