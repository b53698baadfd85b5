//! Reference sparse kernels: SpMV, SpMM, and SDDMM over whole
//! [`SparseBuffer`]s.
//!
//! Pure functions ([`spmv`], [`spmm`], [`sddmm`]) used by tests and benches
//! as the oracle for the generated leaves `spmv.gen` / `spmm.gen` /
//! `sddmm.gen`, which live in `distal_core::kernelgen` and walk the same
//! stored entries, in the same order, over row slabs of a shared buffer.
//!
//! # Bit-parity with the dense leaves
//!
//! All three kernels preserve the dense kernels' loop order and product
//! association exactly, and differ only in *skipping* iteration points
//! where the compressed operand holds an exact `+0.0`. For finite data
//! whose nonzero products do not underflow to zero, the skipped terms
//! contribute only `±0.0` additions, which never change an accumulator
//! that starts at `+0.0` and otherwise receives nonzero terms — so sparse
//! and dense executions of the same data are bit-identical. This is
//! asserted across backends in the workspace's `backend_parity` suite.

use crate::SparseBuffer;

/// `y(i) += Σ_j B(i,j) · x(j)` iterating only B's stored entries.
pub fn spmv(y: &mut [f64], b: &SparseBuffer, x: &[f64]) {
    for (r, y_r) in y.iter_mut().enumerate().take(b.rows()) {
        let (lo, hi) = b.row_range(r);
        for e in lo..hi {
            *y_r += b.vals[e] * x[b.crd[e] as usize];
        }
    }
}

/// `A(i,j) += Σ_k B(i,k) · C(k,j)` (row-major `C` with `n_cols` columns),
/// iterating only B's stored entries. Loop order `(i, stored k, j)`
/// mirrors the dense blocked GEMM leaf.
pub fn spmm(a: &mut [f64], b: &SparseBuffer, c: &[f64], n_cols: usize) {
    for i in 0..b.rows() {
        let (lo, hi) = b.row_range(i);
        for e in lo..hi {
            let bv = b.vals[e];
            let k = b.crd[e] as usize;
            let a_row = i * n_cols;
            let c_row = k * n_cols;
            for j in 0..n_cols {
                a[a_row + j] += bv * c[c_row + j];
            }
        }
    }
}

/// `A(i,j) += Σ_k (B(i,j) · C(i,k)) · D(k,j)` iterating only B's stored
/// `(i,j)` entries (`C` is `rows × k_extent`, `D` is `k_extent × n_cols`
/// where `n_cols` is B's inner extent). The product associates left, like
/// the dense interpreter's parse tree.
pub fn sddmm(a: &mut [f64], b: &SparseBuffer, c: &[f64], d: &[f64], k_extent: usize) {
    let n_cols = b.inner_extent() as usize;
    for i in 0..b.rows() {
        let (lo, hi) = b.row_range(i);
        for e in lo..hi {
            let bv = b.vals[e];
            let j = b.crd[e] as usize;
            for k in 0..k_extent {
                a[i * n_cols + j] += (bv * c[i * k_extent + k]) * d[k * n_cols + j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic data with explicit zeros at the given density.
    fn sparse_data(n: usize, seed: u64, density: f64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                let keep = next() < density;
                let v = next() * 2.0 - 1.0;
                if keep {
                    v
                } else {
                    0.0
                }
            })
            .collect()
    }

    #[test]
    fn spmv_matches_dense() {
        let (m, n) = (7, 9);
        let b_dense = sparse_data(m * n, 3, 0.3);
        let x = sparse_data(n, 5, 1.0);
        let b = SparseBuffer::from_dense(&[m as i64, n as i64], &b_dense);
        let mut y = vec![0.0; m];
        spmv(&mut y, &b, &x);
        for i in 0..m {
            let mut want = 0.0;
            for j in 0..n {
                let v = b_dense[i * n + j];
                if v != 0.0 {
                    want += v * x[j];
                }
            }
            assert_eq!(y[i].to_bits(), want.to_bits());
        }
    }

    #[test]
    fn spmm_matches_dense_gemm_order() {
        let n = 6;
        let b_dense = sparse_data(n * n, 7, 0.4);
        let c = sparse_data(n * n, 11, 1.0);
        let b = SparseBuffer::from_dense(&[n as i64, n as i64], &b_dense);
        let mut a = vec![0.0; n * n];
        spmm(&mut a, &b, &c, n);
        // Dense GEMM in (i, k, j) order, skipping nothing.
        let mut want = vec![0.0; n * n];
        for i in 0..n {
            for k in 0..n {
                let bv = b_dense[i * n + k];
                for j in 0..n {
                    want[i * n + j] += bv * c[k * n + j];
                }
            }
        }
        for (g, w) in a.iter().zip(want.iter()) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn sddmm_matches_dense_interpreter_order() {
        let (m, n, kk) = (4, 5, 3);
        let b_dense = sparse_data(m * n, 13, 0.5);
        let c = sparse_data(m * kk, 17, 1.0);
        let d = sparse_data(kk * n, 19, 1.0);
        let b = SparseBuffer::from_dense(&[m as i64, n as i64], &b_dense);
        let mut a = vec![0.0; m * n];
        sddmm(&mut a, &b, &c, &d, kk);
        let mut want = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for k in 0..kk {
                    want[i * n + j] += (b_dense[i * n + j] * c[i * kk + k]) * d[k * n + j];
                }
            }
        }
        for (g, w) in a.iter().zip(want.iter()) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }
}
