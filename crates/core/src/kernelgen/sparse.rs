//! The CSR leaves `spmv.gen`, `spmm.gen` and `sddmm.gen` (layer 1 of the
//! parent module's docs).
//!
//! Each leaf reads its first right-hand-side operand through
//! [`KernelArg::sparse`] — one shared, immutable [`SparseBuffer`] — and
//! walks the row slab `pos[ilo] .. pos[ihi + 1]` of it, so a task costs
//! its stored entries, not the cells of its tile. When the tile does not
//! span every column the buffer covers, each row's stored entries are cut
//! to `[lo, hi]` by two `partition_point`s on the row's ascending `crd`.
//!
//! The leaves visit the same stored entries, in the same ascending-column
//! order and with the same product association, as a left-to-right scan
//! of the dense tile that skips `+0.0` bit patterns (what these leaves did
//! before they were handed CSR, kept below as a test oracle) and as the
//! reference functions in `distal_sparse::kernels`; the `±0.0` argument
//! there makes them bit-identical to the interpreter and the dense leaves
//! too.

use distal_runtime::csr::SparseBuffer;
use distal_runtime::kernel::{Kernel, KernelArg, KernelCtx};

/// A leaf's compressed operand: the image plus the global coordinates of
/// its first row and column.
struct Slab<'a> {
    csr: &'a SparseBuffer,
    row0: i64,
    col0: i64,
}

impl<'a> Slab<'a> {
    /// The CSR form of a 2-D argument.
    ///
    /// # Panics
    ///
    /// Panics when the argument arrived dense: whoever runs a kernel that
    /// declares [`Kernel::sparse_arg`] owes it the compressed form.
    fn of(arg: &'a KernelArg, kernel: &str) -> Self {
        let csr = arg
            .sparse
            .as_deref()
            .unwrap_or_else(|| panic!("{kernel} reads its compressed operand as CSR"));
        Slab {
            csr,
            row0: arg.alloc.lo()[0],
            col0: arg.alloc.lo()[1],
        }
    }

    /// The buffer-local column window of global columns `[lo, hi]`, or
    /// `None` when that spans every column the buffer covers.
    fn window(&self, lo: i64, hi: i64) -> Option<(i64, i64)> {
        let (lo, hi) = (lo - self.col0, hi - self.col0);
        (lo > 0 || hi < self.csr.inner_extent() - 1).then_some((lo, hi))
    }

    /// The stored entries of global row `i` inside `window`, as
    /// buffer-local columns and values, ascending.
    #[inline]
    fn row(&self, i: i64, window: Option<(i64, i64)>) -> (&'a [i64], &'a [f64]) {
        let (start, end) = self.csr.row_range((i - self.row0) as usize);
        let (crd, vals) = (&self.csr.crd[start..end], &self.csr.vals[start..end]);
        match window {
            None => (crd, vals),
            Some((lo, hi)) => {
                let from = crd.partition_point(|&c| c < lo);
                let to = from + crd[from..].partition_point(|&c| c <= hi);
                (&crd[from..to], &vals[from..to])
            }
        }
    }
}

/// Signed row-major offset of `(row, col)` in a 2-D argument. Unlike
/// [`KernelArg::offset`] the point may lie outside the allocation: the
/// leaves use it for where buffer-local column 0 *would* sit, and only
/// ever add a stored column that lands back inside.
fn signed_offset(arg: &KernelArg, row: i64, col: i64) -> i64 {
    (row - arg.alloc.lo()[0]) * arg.alloc.extent(1) + (col - arg.alloc.lo()[1])
}

/// Generated SpMV leaf for `a(i) = B(i,j) * c(j)` with B compressed:
/// `a(i) += B(i,j) · c(j)` over B's stored entries of rows `[ilo, ihi]`
/// and columns `[jlo, jhi]`.
///
/// Task scalars carry `[ilo, ihi, jlo, jhi]`; args are `[a, B, c]`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SpmvGenLeaf;

impl Kernel for SpmvGenLeaf {
    fn name(&self) -> &str {
        "spmv.gen"
    }

    fn sparse_arg(&self) -> Option<usize> {
        Some(1)
    }

    fn execute(&self, ctx: &mut KernelCtx) {
        let s = &ctx.scalars;
        assert_eq!(s.len(), 4, "spmv bounds mismatch");
        let (ilo, ihi, jlo, jhi) = (s[0], s[1], s[2], s[3]);
        if ihi < ilo || jhi < jlo {
            return;
        }
        let (y_arg, rest) = ctx.args.split_at_mut(1);
        let (y, b, x) = (&mut y_arg[0], Slab::of(&rest[0], "spmv.gen"), &rest[1]);
        let window = b.window(jlo, jhi);
        // `x` index of buffer-local column 0.
        let x_base = b.col0 - x.alloc.lo()[0];
        let y_base = y.offset(&[ilo]);
        for (r, i) in (ilo..=ihi).enumerate() {
            let (crd, vals) = b.row(i, window);
            let mut acc = y.data[y_base + r];
            for (&c, &bv) in crd.iter().zip(vals) {
                acc += bv * x.data[(x_base + c) as usize];
            }
            y.data[y_base + r] = acc;
        }
    }
}

/// Generated SpMM leaf for matmul-shaped statements
/// `A(i,j) = B(i,k) * C(k,j)` with B compressed. Loop order
/// `(i, stored k, j)` over contiguous row slices of `A` and `C`.
///
/// Task scalars carry `[ilo, ihi, jlo, jhi, klo, khi]`; args `[A, B, C]`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SpmmGenLeaf;

impl Kernel for SpmmGenLeaf {
    fn name(&self) -> &str {
        "spmm.gen"
    }

    fn sparse_arg(&self) -> Option<usize> {
        Some(1)
    }

    fn execute(&self, ctx: &mut KernelCtx) {
        let s = &ctx.scalars;
        assert_eq!(s.len(), 6, "spmm bounds mismatch");
        let (ilo, ihi, jlo, jhi, klo, khi) = (s[0], s[1], s[2], s[3], s[4], s[5]);
        if ihi < ilo || jhi < jlo || khi < klo {
            return;
        }
        let nj = (jhi - jlo + 1) as usize;
        let (a_arg, rest) = ctx.args.split_at_mut(1);
        let (a, b, c) = (&mut a_arg[0], Slab::of(&rest[0], "spmm.gen"), &rest[1]);
        let window = b.window(klo, khi);
        let a_cols = a.alloc.extent(1) as usize;
        let c_cols = c.alloc.extent(1);
        let a_base = a.offset(&[ilo, jlo]);
        // Offset of `C(k, jlo)` for buffer-local column `k` = 0.
        let c_base = signed_offset(c, b.col0, jlo);
        for (r, i) in (ilo..=ihi).enumerate() {
            let (crd, vals) = b.row(i, window);
            let a_row = &mut a.data[a_base + r * a_cols..a_base + r * a_cols + nj];
            for (&k, &bv) in crd.iter().zip(vals) {
                let c_off = (c_base + k * c_cols) as usize;
                for (av, &cv) in a_row.iter_mut().zip(&c.data[c_off..c_off + nj]) {
                    *av += bv * cv;
                }
            }
        }
    }
}

/// Generated SDDMM leaf for `A(i,j) = B(i,j) * C(i,k) * D(k,j)` with B
/// compressed (the sampled dense-dense matrix multiply). Iterates B's
/// stored `(i,j)` entries with left-associated products, hoisting the
/// output element and C's row out of the `k` loop.
///
/// Task scalars carry `[ilo, ihi, jlo, jhi, klo, khi]`; args
/// `[A, B, C, D]`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SddmmGenLeaf;

impl Kernel for SddmmGenLeaf {
    fn name(&self) -> &str {
        "sddmm.gen"
    }

    fn sparse_arg(&self) -> Option<usize> {
        Some(1)
    }

    fn execute(&self, ctx: &mut KernelCtx) {
        let s = &ctx.scalars;
        assert_eq!(s.len(), 6, "sddmm bounds mismatch");
        let (ilo, ihi, jlo, jhi, klo, khi) = (s[0], s[1], s[2], s[3], s[4], s[5]);
        if ihi < ilo || jhi < jlo || khi < klo {
            return;
        }
        let nk = (khi - klo + 1) as usize;
        let (a_arg, rest) = ctx.args.split_at_mut(1);
        let (a, b) = (&mut a_arg[0], Slab::of(&rest[0], "sddmm.gen"));
        let (c, d) = (&rest[1], &rest[2]);
        let window = b.window(jlo, jhi);
        let a_cols = a.alloc.extent(1) as usize;
        let c_cols = c.alloc.extent(1) as usize;
        let d_cols = d.alloc.extent(1) as usize;
        // Offsets of `A(ilo, j)` and `D(klo, j)` for buffer-local column
        // `j` = 0.
        let a_base = signed_offset(a, ilo, b.col0);
        let d_base = signed_offset(d, klo, b.col0);
        let c_base = c.offset(&[ilo, klo]);
        for (r, i) in (ilo..=ihi).enumerate() {
            let (crd, vals) = b.row(i, window);
            let c_row = &c.data[c_base + r * c_cols..c_base + r * c_cols + nk];
            for (&j, &bv) in crd.iter().zip(vals) {
                let a_off = (a_base + j) as usize + r * a_cols;
                let d_off = (d_base + j) as usize;
                let mut acc = a.data[a_off];
                for (k, &cv) in c_row.iter().enumerate() {
                    acc += (bv * cv) * d.data[d_off + k * d_cols];
                }
                a.data[a_off] = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernelgen::testing::{run_on, OwnedArg};
    use crate::kernels::InterpreterKernel;
    use distal_ir::expr::Assignment;
    use distal_machine::geom::{copy_rect, Point, Rect};
    use distal_runtime::program::Privilege;
    use distal_sparse::kernels::{sddmm, spmm, spmv};
    use std::sync::Arc;

    // What the three leaves ran while their compressed operand still
    // arrived as a dense tile: each tile row scanned left to right,
    // skipping `+0.0` bit patterns. Kept as the second parity oracle.

    fn scan_spmv(ctx: &mut KernelCtx) {
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

    fn scan_spmm(ctx: &mut KernelCtx) {
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

    fn scan_sddmm(ctx: &mut KernelCtx) {
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

    fn arg(rect: Rect, data: Vec<f64>) -> OwnedArg {
        OwnedArg::dense(rect, data)
    }

    /// The CSR form of the part of a dense argument inside `cover`.
    fn compressed(dense: &OwnedArg, cover: Rect) -> OwnedArg {
        let mut face = vec![0.0; cover.volume() as usize];
        copy_rect(&dense.alloc, &dense.data, &cover, &mut face, &cover, false);
        OwnedArg {
            privilege: Privilege::Read,
            rect: dense.rect,
            sparse: Some(Arc::new(SparseBuffer::from_dense(&cover.extents(), &face))),
            alloc: cover,
            data: Vec::new(),
        }
    }

    /// Runs a leaf over arguments built dense: the compressed operand is
    /// handed over as CSR, as its executors do.
    fn run(leaf: &dyn Kernel, args: &mut [OwnedArg], scalars: &[i64]) {
        let b = leaf.sparse_arg().expect("a CSR leaf");
        args[b] = compressed(&args[b], args[b].alloc);
        run_on(args, scalars, |ctx| leaf.execute(ctx));
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
    fn spmm_leaf_partial_bounds() {
        // Only the [1,2]x[1,2]x[0,2] sub-block, like the dense leaf test.
        let sq = Rect::sized(&[4, 4]);
        let mut b_data = vec![1.0; 16];
        b_data[5] = 0.0; // (1,1) pruned from the sparse iteration
        let mut args = [
            arg(sq, vec![0.0; 16]),
            arg(sq, b_data),
            arg(sq, vec![1.0; 16]),
        ];
        run(&SpmmGenLeaf, &mut args, &[1, 2, 1, 2, 0, 2]);
        let a = &args[0].data;
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
        let mut args = [
            arg(vec3, vec![0.0; 3]),
            arg(mat, b),
            arg(vec4, vec![1.0, 10.0, 100.0, 1000.0]),
        ];
        run(&SpmvGenLeaf, &mut args, &[0, 2, 0, 3]);
        assert_eq!(args[0].data, vec![2001.0, 0.0, 30.0]);
    }

    /// Tile-shaped arguments over dense data for a statement with `n_args`
    /// square 2-D operands plus vectors where noted by `shapes`.
    fn args_from(shapes: &[&[i64]], seeds: &[u64], density: f64) -> Vec<OwnedArg> {
        shapes
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
            .collect()
    }

    /// The dense values of a 2-D (or, with `cols = None`, 1-D) argument's
    /// tile `[rows] × [cols]`, row-major.
    fn tile(arg: &OwnedArg, rows: (i64, i64), cols: Option<(i64, i64)>) -> Vec<f64> {
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
    fn assert_tile(got: &OwnedArg, rows: (i64, i64), cols: Option<(i64, i64)>, want: &[f64]) {
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
            let mut gen = args_from(shapes, &[0, 21, 22], density);
            let b = SparseBuffer::from_dense(&[4, 6], &tile(&gen[1], i, Some(j)));
            let mut want = vec![0.0; 4];
            spmv(&mut want, &b, &tile(&gen[2], j, None));
            run(&SpmvGenLeaf, &mut gen, &[i.0, i.1, j.0, j.1]);
            assert_tile(&gen[0], i, None, &want);
            // SpMM over a partial tile.
            let shapes: &[&[i64]] = &[&[5, 6], &[5, 7], &[7, 6]];
            let (i, j, k) = ((1, 3), (0, 5), (2, 6));
            let scalars = [i.0, i.1, j.0, j.1, k.0, k.1];
            let mut gen = args_from(shapes, &[0, 31, 32], density);
            let b = SparseBuffer::from_dense(&[3, 5], &tile(&gen[1], i, Some(k)));
            let mut want = vec![0.0; 3 * 6];
            spmm(&mut want, &b, &tile(&gen[2], k, Some(j)), 6);
            run(&SpmmGenLeaf, &mut gen, &scalars);
            assert_tile(&gen[0], i, Some(j), &want);
            // SDDMM over a partial tile.
            let shapes: &[&[i64]] = &[&[5, 6], &[5, 6], &[5, 4], &[4, 6]];
            let (i, j, k) = ((0, 4), (1, 5), (0, 3));
            let scalars = [i.0, i.1, j.0, j.1, k.0, k.1];
            let mut gen = args_from(shapes, &[0, 41, 42, 43], density);
            let b = SparseBuffer::from_dense(&[5, 5], &tile(&gen[1], i, Some(j)));
            let mut want = vec![0.0; 5 * 5];
            let c = tile(&gen[2], i, Some(k));
            sddmm(&mut want, &b, &c, &tile(&gen[3], k, Some(j)), 4);
            run(&SddmmGenLeaf, &mut gen, &scalars);
            assert_tile(&gen[0], i, Some(j), &want);
        }
    }

    #[test]
    fn generated_leaves_ignore_empty_bounds() {
        let sq = Rect::sized(&[2, 2]);
        let mut args = [
            arg(sq, vec![0.0; 4]),
            arg(sq, vec![1.0; 4]),
            arg(sq, vec![1.0; 4]),
        ];
        run(&SpmmGenLeaf, &mut args, &[0, 1, 0, 1, 1, 0]);
        assert_eq!(args[0].data, vec![0.0; 4]);
    }

    /// xorshift64*, the generator the sibling tests use.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: u64) -> i64 {
            (self.next() % n) as i64
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Mostly values in ±0.5; now and then a signed zero, a
        /// subnormal, or ±1e300 (whose products overflow to ±inf, and
        /// whose sums of opposite infinities are NaN on every path alike).
        fn finite(&mut self) -> f64 {
            let sign = if self.next() & 1 == 0 { 1.0 } else { -1.0 };
            match self.next() % 16 {
                0 => sign * 0.0,
                1 => sign * f64::from_bits(1 + self.next() % 1000),
                2 => sign * 1e300,
                _ => self.unit() - 0.5,
            }
        }

        /// [`Rng::finite`], or now and then a NaN with a payload or an
        /// infinity.
        fn any(&mut self) -> f64 {
            match self.next() % 16 {
                0 => f64::from_bits(0x7FF8_0000_0000_0000 | (self.next() >> 13)),
                1 => f64::INFINITY,
                _ => self.finite(),
            }
        }

        /// An extent in `1..=40`, biased towards one and the primes.
        fn extent(&mut self) -> i64 {
            const PRIMES: [i64; 13] = [1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
            match self.below(3) {
                0 => PRIMES[self.below(13) as usize],
                _ => 1 + self.below(40),
            }
        }
    }

    /// An argument whose allocation is wider than `rect` by a random
    /// margin on every side, so the row stride exceeds the extent.
    fn wide_arg(rng: &mut Rng, rect: Rect, fill: impl Fn(&mut Rng) -> f64) -> OwnedArg {
        let lo: Vec<i64> = rect
            .lo()
            .coords()
            .iter()
            .map(|&l| l - rng.below(4))
            .collect();
        let hi: Vec<i64> = rect
            .hi()
            .coords()
            .iter()
            .map(|&h| h + rng.below(4))
            .collect();
        let alloc = Rect::new(Point::new(lo), Point::new(hi));
        let data = (0..alloc.volume()).map(|_| fill(rng)).collect();
        OwnedArg {
            rect,
            ..OwnedArg::dense(alloc, data)
        }
    }

    /// The rectangle spanning one inclusive `(lo, hi)` range per dimension.
    fn rect_over(ranges: impl Iterator<Item = (i64, i64)>) -> Rect {
        let (lo, hi) = ranges.unzip();
        Rect::new(Point::new(lo), Point::new(hi))
    }

    /// Bit patterns, with every NaN mapped to one: when two NaNs meet in
    /// a commutative operation the surviving payload follows the operand
    /// order the compiler chose for that instruction, which two bodies of
    /// the same arithmetic need not share.
    fn bits(data: &[f64]) -> Vec<u64> {
        let bits = |v: &f64| if v.is_nan() { u64::MAX } else { v.to_bits() };
        data.iter().map(bits).collect()
    }

    /// One leaf of the property: its statement, the dense-tile scan it
    /// replaced, and per argument (destination first) the statement
    /// variables indexing it.
    struct Subject {
        leaf: &'static dyn Kernel,
        scan: fn(&mut KernelCtx),
        statement: &'static str,
        accesses: &'static [&'static [usize]],
    }

    const SUBJECTS: [Subject; 3] = [
        Subject {
            leaf: &SpmvGenLeaf,
            scan: scan_spmv,
            statement: "a(i) = B(i,j) * c(j)",
            accesses: &[&[0], &[0, 1], &[1]],
        },
        Subject {
            leaf: &SpmmGenLeaf,
            scan: scan_spmm,
            statement: "A(i,j) = B(i,k) * C(k,j)",
            accesses: &[&[0, 1], &[0, 2], &[2, 1]],
        },
        Subject {
            leaf: &SddmmGenLeaf,
            scan: scan_sddmm,
            statement: "A(i,j) = B(i,j) * C(i,k) * D(k,j)",
            accesses: &[&[0, 1], &[0, 1], &[0, 2], &[2, 1]],
        },
    ];

    /// 512 seeded cases per leaf against both oracles, bit for bit.
    ///
    /// The scan oracle visits the same stored entries in the same order,
    /// so it must agree on *any* data. The interpreter visits every point:
    /// it agrees where the `±0.0` argument of `distal_sparse::kernels`
    /// applies — finite dense operands and no `-0.0` already in the
    /// output — which three cases in four are generated to satisfy; the
    /// compressed operand holds NaN payloads, `-0.0`, subnormals and
    /// `±1e300` either way.
    #[test]
    fn csr_leaves_match_the_scan_and_the_interpreter_bit_for_bit() {
        for (which, subject) in SUBJECTS.iter().enumerate() {
            let interpreter =
                InterpreterKernel::new(Assignment::parse(subject.statement).unwrap(), true);
            let n_vars = subject
                .accesses
                .iter()
                .flat_map(|a| a.iter())
                .max()
                .unwrap()
                + 1;
            let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ (which as u64 + 1));
            let (mut strict, mut face_local, mut clamped_away) = (0, 0, 0);
            for case in 0..512 {
                let extents: Vec<i64> = (0..n_vars).map(|_| rng.extent()).collect();
                // Leaf bounds per variable: the whole extent, or a
                // sub-range that is strict at both ends where the extent
                // has room for one.
                let mut bounds: Vec<(i64, i64)> = extents
                    .iter()
                    .map(|&n| match rng.below(3) {
                        0 => (0, n - 1),
                        _ if n >= 3 => {
                            let lo = 1 + rng.below(n as u64 - 2);
                            (lo, lo + rng.below((n - 1 - lo) as u64))
                        }
                        _ => (rng.below(n as u64), n - 1),
                    })
                    .collect();
                let clamped = case % 16 == 15;
                if clamped {
                    let v = rng.below(n_vars as u64) as usize;
                    bounds[v].1 = bounds[v].0 - 1 - rng.below(2);
                    clamped_away += 1;
                }
                let tile = |access: &[usize]| rect_over(access.iter().map(|&v| bounds[v]));
                let whole =
                    |access: &[usize]| rect_over(access.iter().map(|&v| (0, extents[v] - 1)));
                let b_vars = subject.accesses[1];
                let col = b_vars[1];
                if bounds[col].0 > 0 && bounds[col].1 < extents[col] - 1 && !clamped {
                    strict += 1;
                }

                // The compressed operand, dense over its whole tensor.
                let density = [0.0, 0.01, 0.3, 1.0][rng.below(4) as usize];
                let mut b_dense = arg(whole(b_vars), Vec::new());
                b_dense.data = (0..b_dense.alloc.volume())
                    .map(|_| {
                        let v = rng.any();
                        if rng.unit() < density {
                            v
                        } else {
                            0.0
                        }
                    })
                    .collect();
                b_dense.rect = tile(b_vars);
                // Its CSR form: the whole tensor from coordinate 0 (the
                // runtime's), exactly the face (the SPMD VM's), or some
                // rectangle in between.
                let form = if clamped { 0 } else { rng.below(3) };
                let cover = match form {
                    0 => whole(b_vars),
                    1 => tile(b_vars),
                    _ => {
                        let grown: Vec<(i64, i64)> = b_vars
                            .iter()
                            .map(|&v| {
                                let (lo, hi) = bounds[v];
                                let below = rng.below(lo as u64 + 1);
                                (lo - below, hi + rng.below((extents[v] - hi) as u64))
                            })
                            .collect();
                        rect_over(grown.into_iter())
                    }
                };
                if cover.lo().coords().iter().any(|&l| l != 0) {
                    face_local += 1;
                }
                let b_csr = compressed(&b_dense, cover);

                // Dense operands and the output: wide allocations; the
                // output is NaN outside the leaf rectangle and starts from
                // stored values inside it.
                let wild = case % 4 == 3;
                let dense_value = if wild { Rng::any } else { Rng::finite };
                let others: Vec<OwnedArg> = subject.accesses[2..]
                    .iter()
                    .map(|access| wide_arg(&mut rng, tile(access), dense_value))
                    .collect();
                let mut out = wide_arg(&mut rng, tile(subject.accesses[0]), |_| f64::NAN);
                for p in out.rect.clone().points() {
                    let v = rng.finite();
                    let keep_negative_zero = wild || v.to_bits() != (-0.0f64).to_bits();
                    out.set(p.coords(), if keep_negative_zero { v } else { 0.0 });
                }
                let scalars: Vec<i64> = bounds.iter().flat_map(|&(lo, hi)| [lo, hi]).collect();

                let run = |kernel: &dyn Fn(&mut KernelCtx), b: &OwnedArg| {
                    let mut args = vec![out.clone(), b.clone()];
                    args.extend(others.iter().cloned());
                    run_on(&mut args, &scalars, kernel);
                    bits(&args[0].data)
                };
                let got = run(&|ctx| subject.leaf.execute(ctx), &b_csr);
                let what = format!(
                    "{} case {case}: extents {extents:?} bounds {bounds:?} density {density} \
                     form {form}",
                    subject.leaf.name()
                );
                assert!(got == run(&subject.scan, &b_dense), "{what}: vs the scan");
                if !wild {
                    let want = run(&|ctx| interpreter.execute(ctx), &b_dense);
                    assert!(got == want, "{what}: vs the interpreter");
                }
                if clamped {
                    assert!(got == bits(&out.data), "{what}: a clamped-away leaf wrote");
                }
            }
            // The generator reaches what the property is for.
            assert!(
                strict >= 64,
                "{}: {strict} strict tiles",
                subject.leaf.name()
            );
            assert!(face_local >= 64, "{}: {face_local}", subject.leaf.name());
            assert_eq!(clamped_away, 32);
        }
    }
}
