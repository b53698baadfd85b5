//! Sparse leaf kernels: SpMV, SpMM, and SDDMM over [`SparseBuffer`]s.
//!
//! Two surfaces:
//!
//! * pure functions ([`spmv`], [`spmm`], [`sddmm`]) over whole buffers —
//!   the reference kernels used by tests and benches;
//! * **generated** leaves ([`SpmvGenLeaf`], [`SpmmGenLeaf`],
//!   [`SddmmGenLeaf`]) — the [`distal_runtime::kernel::Kernel`]s the
//!   compiler's kernel generation picks at plan time. Over the compressed
//!   operand's *tile* (the task's bounds box) they visit the same stored
//!   entries in the same order as the reference functions over a CSR view
//!   of that tile (a dense tile row scanned left-to-right, skipping zero
//!   bit patterns, is exactly the stored-entry sequence
//!   `SparseBuffer::from_dense` would produce), but with **no per-execute
//!   allocation**: row base offsets are hoisted out of the inner loop and
//!   the inner loop runs over contiguous row slices.
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

use crate::buffer::SparseBuffer;
use distal_runtime::kernel::{Kernel, KernelCtx};

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

/// Generated SpMV leaf for `a(i) = B(i,j) * c(j)` with B compressed.
/// Scans B's tile rows directly (no CSR build), skipping entries with a
/// zero bit pattern — the exact stored-entry sequence of [`spmv`] over the
/// tile — with the row base and the output element hoisted out of the
/// inner loop.
///
/// Task scalars carry `[ilo, ihi, jlo, jhi]`; args are `[a, B, c]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpmvGenLeaf;

impl Kernel for SpmvGenLeaf {
    fn name(&self) -> &str {
        "spmv.gen"
    }

    fn execute(&self, ctx: &mut KernelCtx) {
        let s = &ctx.scalars;
        assert_eq!(s.len(), 4, "spmv bounds mismatch");
        let (ilo, ihi, jlo, jhi) = (s[0], s[1], s[2], s[3]);
        if ihi < ilo || jhi < jlo {
            return;
        }
        let nj = (jhi - jlo + 1) as usize;
        let (y_arg, rest) = ctx.args.split_at_mut(1);
        let (y, b, x) = (&mut y_arg[0], &rest[0], &rest[1]);
        let b_cols = b.alloc.extent(1) as usize;
        let b_base = b.offset(&[ilo, jlo]);
        let x_base = x.offset(&[jlo]);
        let y_base = y.offset(&[ilo]);
        for r in 0..=(ihi - ilo) as usize {
            let row = &b.data[b_base + r * b_cols..b_base + r * b_cols + nj];
            let acc = &mut y.data[y_base + r];
            for (e, &bv) in row.iter().enumerate() {
                if bv.to_bits() == 0 {
                    continue;
                }
                *acc += bv * x.data[x_base + e];
            }
        }
    }
}

/// Generated SpMM leaf for matmul-shaped statements
/// `A(i,j) = B(i,k) * C(k,j)` with B compressed. Loop order
/// `(i, stored k, j)` as in [`spmm`], with contiguous row slices and no
/// CSR build.
///
/// Task scalars carry `[ilo, ihi, jlo, jhi, klo, khi]`; args `[A, B, C]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpmmGenLeaf;

impl Kernel for SpmmGenLeaf {
    fn name(&self) -> &str {
        "spmm.gen"
    }

    fn execute(&self, ctx: &mut KernelCtx) {
        let s = &ctx.scalars;
        assert_eq!(s.len(), 6, "spmm bounds mismatch");
        let (ilo, ihi, jlo, jhi, klo, khi) = (s[0], s[1], s[2], s[3], s[4], s[5]);
        if ihi < ilo || jhi < jlo || khi < klo {
            return;
        }
        let (nj, nk) = ((jhi - jlo + 1) as usize, (khi - klo + 1) as usize);
        let (a_arg, rest) = ctx.args.split_at_mut(1);
        let (a, b, c) = (&mut a_arg[0], &rest[0], &rest[1]);
        let a_cols = a.alloc.extent(1) as usize;
        let b_cols = b.alloc.extent(1) as usize;
        let c_cols = c.alloc.extent(1) as usize;
        let a_base = a.offset(&[ilo, jlo]);
        let b_base = b.offset(&[ilo, klo]);
        let c_base = c.offset(&[klo, jlo]);
        for i in 0..=(ihi - ilo) as usize {
            let b_row = &b.data[b_base + i * b_cols..b_base + i * b_cols + nk];
            let a_row = &mut a.data[a_base + i * a_cols..a_base + i * a_cols + nj];
            for (e, &bv) in b_row.iter().enumerate() {
                if bv.to_bits() == 0 {
                    continue;
                }
                let c_row = &c.data[c_base + e * c_cols..c_base + e * c_cols + nj];
                for (av, &cv) in a_row.iter_mut().zip(c_row) {
                    *av += bv * cv;
                }
            }
        }
    }
}

/// Generated SDDMM leaf for `A(i,j) = B(i,j) * C(i,k) * D(k,j)` with B
/// compressed (the sampled dense-dense matrix multiply). Iterates B's
/// stored `(i,j)` entries with left-associated products as [`sddmm`] does,
/// hoisting the output element and C's row out of the `k` loop.
///
/// Task scalars carry `[ilo, ihi, jlo, jhi, klo, khi]`; args
/// `[A, B, C, D]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SddmmGenLeaf;

impl Kernel for SddmmGenLeaf {
    fn name(&self) -> &str {
        "sddmm.gen"
    }

    fn execute(&self, ctx: &mut KernelCtx) {
        let s = &ctx.scalars;
        assert_eq!(s.len(), 6, "sddmm bounds mismatch");
        let (ilo, ihi, jlo, jhi, klo, khi) = (s[0], s[1], s[2], s[3], s[4], s[5]);
        if ihi < ilo || jhi < jlo || khi < klo {
            return;
        }
        let (nj, nk) = ((jhi - jlo + 1) as usize, (khi - klo + 1) as usize);
        let (a_arg, rest) = ctx.args.split_at_mut(1);
        let (a, b, c, d) = (&mut a_arg[0], &rest[0], &rest[1], &rest[2]);
        let a_cols = a.alloc.extent(1) as usize;
        let b_cols = b.alloc.extent(1) as usize;
        let c_cols = c.alloc.extent(1) as usize;
        let d_cols = d.alloc.extent(1) as usize;
        let a_base = a.offset(&[ilo, jlo]);
        let b_base = b.offset(&[ilo, jlo]);
        let c_base = c.offset(&[ilo, klo]);
        let d_base = d.offset(&[klo, jlo]);
        for i in 0..=(ihi - ilo) as usize {
            let b_row = &b.data[b_base + i * b_cols..b_base + i * b_cols + nj];
            let c_row = &c.data[c_base + i * c_cols..c_base + i * c_cols + nk];
            for (e, &bv) in b_row.iter().enumerate() {
                if bv.to_bits() == 0 {
                    continue;
                }
                let a_off = a_base + i * a_cols + e;
                let mut acc = a.data[a_off];
                for (k, &cv) in c_row.iter().enumerate() {
                    acc += (bv * cv) * d.data[d_base + k * d_cols + e];
                }
                a.data[a_off] = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distal_machine::geom::{Point, Rect};
    use distal_runtime::kernel::KernelArg;
    use distal_runtime::program::Privilege;

    fn arg(rect: Rect, data: Vec<f64>) -> KernelArg {
        KernelArg {
            privilege: Privilege::ReadWrite,
            rect: rect.clone(),
            alloc: rect,
            data,
        }
    }

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

    #[test]
    fn spmm_leaf_partial_bounds() {
        // Only the [1,2]x[1,2]x[0,2] sub-block, like the dense leaf test.
        let sq = Rect::sized(&[4, 4]);
        let mut b_data = vec![1.0; 16];
        b_data[5] = 0.0; // (1,1) pruned from the sparse iteration
        let mut ctx = KernelCtx {
            args: vec![
                arg(sq.clone(), vec![0.0; 16]),
                arg(sq.clone(), b_data),
                arg(sq, vec![1.0; 16]),
            ],
            point: Point::zeros(2),
            scalars: vec![1, 2, 1, 2, 0, 2],
        };
        SpmmGenLeaf.execute(&mut ctx);
        let a = &ctx.args[0].data;
        assert_eq!(a[5], 2.0); // (1,1): k=0..2 minus the pruned (1,1) entry
        assert_eq!(a[10], 3.0); // (2,2): all three k
        assert_eq!(a[0], 0.0); // outside bounds untouched
    }

    #[test]
    fn spmv_leaf_accumulates_rows() {
        let mat = Rect::sized(&[3, 4]);
        let vec4 = Rect::sized(&[4]);
        let vec3 = Rect::sized(&[3]);
        #[rustfmt::skip]
        let b = vec![
            1.0, 0.0, 0.0, 2.0,
            0.0, 0.0, 0.0, 0.0,
            0.0, 3.0, 0.0, 0.0,
        ];
        let mut ctx = KernelCtx {
            args: vec![
                arg(vec3, vec![0.0; 3]),
                arg(mat, b),
                arg(vec4, vec![1.0, 10.0, 100.0, 1000.0]),
            ],
            point: Point::zeros(1),
            scalars: vec![0, 2, 0, 3],
        };
        SpmvGenLeaf.execute(&mut ctx);
        assert_eq!(ctx.args[0].data, vec![2001.0, 0.0, 30.0]);
    }

    /// A tile-shaped ctx over dense data for a statement with `n_args`
    /// square 2-D operands plus vectors where noted by `shapes`.
    fn ctx_from(shapes: &[&[i64]], seeds: &[u64], density: f64, scalars: Vec<i64>) -> KernelCtx {
        let args = shapes
            .iter()
            .zip(seeds)
            .map(|(dims, &seed)| {
                let rect = Rect::sized(dims);
                let vol = rect.volume() as usize;
                let data = if seed == 0 {
                    vec![0.0; vol]
                } else {
                    sparse_data(vol, seed, density)
                };
                arg(rect, data)
            })
            .collect();
        KernelCtx {
            args,
            point: Point::zeros(1),
            scalars,
        }
    }

    /// The dense values of a 2-D (or, with `cols = None`, 1-D) argument's
    /// tile `[rows] × [cols]`, row-major.
    fn tile(arg: &KernelArg, rows: (i64, i64), cols: Option<(i64, i64)>) -> Vec<f64> {
        let mut out = Vec::new();
        for i in rows.0..=rows.1 {
            match cols {
                Some((lo, hi)) => out.extend((lo..=hi).map(|j| arg.at(&[i, j]))),
                None => out.push(arg.at(&[i])),
            }
        }
        out
    }

    /// Asserts `got`'s tile `[rows] × [cols]` equals `want` bitwise.
    fn assert_tile(got: &KernelArg, rows: (i64, i64), cols: Option<(i64, i64)>, want: &[f64]) {
        let got = tile(got, rows, cols);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn generated_leaves_match_csr_leaves_bitwise() {
        // Each generated leaf against the reference function over a CSR
        // view of the same tile.
        for density in [0.05, 0.5, 1.0] {
            // SpMV over a partial tile.
            let shapes: &[&[i64]] = &[&[6], &[6, 8], &[8]];
            let (i, j) = ((1, 4), (2, 7));
            let mut gen = ctx_from(shapes, &[0, 21, 22], density, vec![i.0, i.1, j.0, j.1]);
            let b = SparseBuffer::from_dense(&[4, 6], &tile(&gen.args[1], i, Some(j)));
            let mut want = vec![0.0; 4];
            spmv(&mut want, &b, &tile(&gen.args[2], j, None));
            SpmvGenLeaf.execute(&mut gen);
            assert_tile(&gen.args[0], i, None, &want);
            // SpMM over a partial tile.
            let shapes: &[&[i64]] = &[&[5, 6], &[5, 7], &[7, 6]];
            let (i, j, k) = ((1, 3), (0, 5), (2, 6));
            let scalars = vec![i.0, i.1, j.0, j.1, k.0, k.1];
            let mut gen = ctx_from(shapes, &[0, 31, 32], density, scalars);
            let b = SparseBuffer::from_dense(&[3, 5], &tile(&gen.args[1], i, Some(k)));
            let mut want = vec![0.0; 3 * 6];
            spmm(&mut want, &b, &tile(&gen.args[2], k, Some(j)), 6);
            SpmmGenLeaf.execute(&mut gen);
            assert_tile(&gen.args[0], i, Some(j), &want);
            // SDDMM over a partial tile.
            let shapes: &[&[i64]] = &[&[5, 6], &[5, 6], &[5, 4], &[4, 6]];
            let (i, j, k) = ((0, 4), (1, 5), (0, 3));
            let scalars = vec![i.0, i.1, j.0, j.1, k.0, k.1];
            let mut gen = ctx_from(shapes, &[0, 41, 42, 43], density, scalars);
            let b = SparseBuffer::from_dense(&[5, 5], &tile(&gen.args[1], i, Some(j)));
            let mut want = vec![0.0; 5 * 5];
            let c = tile(&gen.args[2], i, Some(k));
            sddmm(&mut want, &b, &c, &tile(&gen.args[3], k, Some(j)), 4);
            SddmmGenLeaf.execute(&mut gen);
            assert_tile(&gen.args[0], i, Some(j), &want);
        }
    }

    #[test]
    fn generated_leaves_ignore_empty_bounds() {
        let sq = Rect::sized(&[2, 2]);
        let mut ctx = KernelCtx {
            args: vec![
                arg(sq.clone(), vec![0.0; 4]),
                arg(sq.clone(), vec![1.0; 4]),
                arg(sq, vec![1.0; 4]),
            ],
            point: Point::zeros(2),
            scalars: vec![0, 1, 0, 1, 1, 0],
        };
        SpmmGenLeaf.execute(&mut ctx);
        assert_eq!(ctx.args[0].data, vec![0.0; 4]);
    }
}
