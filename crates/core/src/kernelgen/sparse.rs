//! The one sparse leaf, `csr.gen`: layer 1 of the parent module's docs,
//! which say which statements it takes and why its walk visits each output
//! element's terms in the interpreter's order.

use super::{advance, layout};
use distal_ir::expr::{Assignment, Expr};
use distal_runtime::csr::SparseBuffer;
use distal_runtime::kernel::{Kernel, KernelCtx};

/// The sparse leaf of one statement: `out += B · F1 · … · Fk` over the
/// stored entries of `B`. Task scalars carry `[lo, hi]` per variable in
/// [`Assignment::all_vars`] order; args are `out`, `B`, then the `Fi`.
#[derive(Debug)]
pub(crate) struct CsrLeaf {
    /// Per access (destination first): the position in `all_vars` of each
    /// of its index variables.
    maps: Vec<Vec<usize>>,
    /// The variables `B` does not index, in `all_vars` order.
    dense: Vec<usize>,
    n_vars: usize,
}

impl CsrLeaf {
    /// The driver for a statement whose first operand `B` is the one
    /// compressed, or `None` unless the right-hand side is a product of
    /// accesses associated from the left and `B` indexes distinct
    /// variables, its reduction variables a prefix, in its own order, of
    /// [`Assignment::reduction_vars`].
    pub(crate) fn new(a: &Assignment) -> Option<Self> {
        let maps = a.access_positions();
        let b = maps.get(1).filter(|b| !b.is_empty())?;
        if !left_chain(&a.rhs) || !interpreter_order(b, a.lhs.indices.len()) {
            return None;
        }
        // Every statement variable indexes some access.
        let n_vars = maps.iter().flatten().max().map_or(0, |&v| v + 1);
        let dense = (0..n_vars).filter(|v| !b.contains(v)).collect();
        Some(CsrLeaf {
            maps,
            dense,
            n_vars,
        })
    }
}

/// `((A1 · A2) · A3) · …`: a product of accesses associated from the left.
fn left_chain(e: &Expr) -> bool {
    match e {
        Expr::Access(_) => true,
        Expr::Mul(l, r) => left_chain(l) && matches!(**r, Expr::Access(_)),
        Expr::Literal(_) | Expr::Add(..) => false,
    }
}

/// Whether `B` (positions `b` into `all_vars`, whose first `n_free` are the
/// output's) indexes distinct variables, its reduction variables first, in
/// its order, among the statement's.
fn interpreter_order(b: &[usize], n_free: usize) -> bool {
    let distinct = b.iter().enumerate().all(|(d, v)| !b[..d].contains(v));
    let reduction = b.iter().filter(|&&v| v >= n_free);
    distinct && reduction.zip(n_free..).all(|(&v, want)| v == want)
}

/// A dense factor along one run: its element at run position `p` sits at
/// `off + p · stride`.
struct Run<'a> {
    data: &'a [f64],
    off: i64,
    stride: i64,
}

impl<'a> Run<'a> {
    #[inline(always)]
    fn at(&self, p: i64) -> f64 {
        self.data[(self.off + p * self.stride) as usize]
    }

    /// The run's first `n` elements as a slice, when they are adjacent.
    fn contiguous(&self, n: usize) -> Option<&'a [f64]> {
        (self.stride == 1).then(|| &self.data[self.off as usize..][..n])
    }
}

/// The output along one run: `(buffer, offset, stride)`.
type Out<'o> = (&'o mut [f64], i64, i64);

/// `out[off + p · stride] += t` for each `(p, t)`, in order; an output that
/// stays put along the run (`stride` 0) sums in a register.
#[inline(always)]
fn add(terms: impl Iterator<Item = (i64, f64)>, (out, off, stride): Out) {
    if stride == 0 {
        let acc = &mut out[off as usize];
        *acc = terms.fold(*acc, |acc, (_, t)| acc + t);
    } else {
        terms.for_each(|(p, t)| out[(off + p * stride) as usize] += t);
    }
}

/// Row `r`'s stored entries, cut to the buffer-local columns `window`.
#[inline(always)]
fn entries(csr: &SparseBuffer, r: i64, window: Option<(i64, i64)>) -> (&[i64], &[f64]) {
    let (start, end) = csr.row_range(r as usize);
    let (crd, vals) = (&csr.crd[start..end], &csr.vals[start..end]);
    match window {
        None => (crd, vals),
        Some((lo, hi)) => {
            let from = crd.partition_point(|&c| c < lo);
            let to = from + crd[from..].partition_point(|&c| c <= hi);
            (&crd[from..to], &vals[from..to])
        }
    }
}

/// For each row `k` in `0..rows` of a walk where `B` indexes every
/// variable, with access `a` at `offs[a] + k · steps[a]`: one run along
/// `crd`, `l · f1 · … · fk` for each stored `(c, l)`. Out of line, so the
/// leaf's hottest loop keeps its registers; one factor — SpMV, TTV, an
/// inner product — is a slice walk, more are folded per entry.
#[inline(never)]
fn crd_rows(
    csr: &SparseBuffer,
    window: Option<(i64, i64)>,
    (rows, offs, steps): (i64, &[i64], &[i64]),
    factors: &mut [Run],
    (out, stride): (&mut [f64], i64),
) {
    for k in 0..rows {
        let row = |a: usize| offs[a] + k * steps[a];
        let (crd, vals) = entries(csr, row(1), window);
        for (f, a) in factors.iter_mut().zip(2..) {
            f.off = row(a);
        }
        let entries = crd.iter().copied().zip(vals.iter().copied());
        let out = (&mut *out, row(0), stride);
        match &*factors {
            [f] => add(entries.map(|(c, l)| (c, l * f.at(c))), out),
            fs => add(
                entries.map(|(c, l)| (c, fs.iter().fold(l, |p, f| p * f.at(c)))),
                out,
            ),
        }
    }
}

/// A run of `n` points along a dense variable for one stored value `l`:
/// `tmp` takes `l · f1 · … · fk` a factor at a time, over slices where the
/// factor is contiguous, and is added into `out` in order.
fn dense_run(n: usize, l: f64, factors: &[Run], (out, off, stride): Out, tmp: &mut Vec<f64>) {
    if let ([f], 1) = (factors, stride) {
        if let Some(x) = f.contiguous(n) {
            // One contiguous factor into a contiguous output: no `tmp`.
            for (o, x) in out[off as usize..][..n].iter_mut().zip(x) {
                *o += l * x;
            }
            return;
        }
    }
    tmp.clear();
    tmp.resize(n, l);
    for f in factors {
        match f.contiguous(n) {
            Some(x) => tmp.iter_mut().zip(x).for_each(|(t, x)| *t *= x),
            None => tmp.iter_mut().zip(0..).for_each(|(t, p)| *t *= f.at(p)),
        }
    }
    let terms = tmp.iter().zip(0..).map(|(&t, p)| (p, t));
    add(terms, (out, off, stride));
}

impl Kernel for CsrLeaf {
    fn name(&self) -> &str {
        "csr.gen"
    }

    fn sparse_arg(&self) -> Option<usize> {
        Some(1)
    }

    /// # Panics
    ///
    /// Panics when `B` arrived dense: whoever runs a kernel that declares
    /// [`Kernel::sparse_arg`] owes it the compressed form.
    fn execute(&self, ctx: &mut KernelCtx) {
        let nv = self.n_vars;
        assert_eq!(ctx.scalars.len(), 2 * nv, "csr.gen bounds mismatch");
        let (lo, hi): (Vec<i64>, Vec<i64>) = ctx.scalars.chunks(2).map(|s| (s[0], s[1])).unzip();
        if lo.iter().zip(&hi).any(|(l, h)| h < l) {
            return;
        }
        let (out, rest) = ctx.args.split_at_mut(1);
        let (out, b, inputs) = (&mut out[0], &rest[0], &rest[1..]);
        let csr = b.sparse.as_deref().expect("csr.gen reads B as CSR");

        // `B`'s outer variables pick a row of the buffer, linearized over
        // the rectangle it covers; its last is `crd`, from column `col0`.
        let (outer, cv) = self.maps[1].split_at(self.maps[1].len() - 1);
        let (cv, col0) = (cv[0], b.alloc.lo()[b.alloc.dim() - 1]);
        let (wlo, whi) = (lo[cv] - col0, hi[cv] - col0);
        let window = (wlo > 0 || whi < csr.inner_extent() - 1).then_some((wlo, whi));
        // Per access, the offset at the walk's point and `crd` column 0
        // (for `B`, the row), and each variable's stride, `strides[a * nv
        // + v]`; `steps(v)` is every access's stride along `v`.
        let mut strides = vec![0; self.maps.len() * nv];
        let allocs = [&out.alloc, &b.alloc].into_iter();
        let allocs = allocs.chain(inputs.iter().map(|f| &f.alloc));
        let maps = self.maps.iter().enumerate();
        let maps = maps.map(|(a, m)| if a == 1 { outer } else { m });
        let mut offs: Vec<i64> = (allocs.zip(maps).zip(strides.chunks_exact_mut(nv)))
            .map(|((alloc, map), s)| layout(alloc, map, &lo, s) + s[cv] * (col0 - lo[cv]))
            .collect();
        let steps = |v: usize| -> Vec<i64> { strides.chunks_exact(nv).map(|s| s[v]).collect() };

        // Runs go along `crd` when `B` indexes every variable, else along
        // the last of the others, once per stored entry. The last outer
        // variable counts rows; those before it step through `advance`.
        let (dense_outer, along) = match self.dense.split_last() {
            Some((&v, dense_outer)) => (dense_outer, v),
            None => (&[][..], cv),
        };
        let run_steps = steps(along);
        let runs = inputs.iter().zip(&run_steps[2..]);
        let mut runs: Vec<Run> = runs
            .map(|(f, &stride)| Run {
                data: &f.data,
                off: 0,
                stride,
            })
            .collect();
        let (outer, rows, row_steps) = match outer.split_last() {
            Some((&v, outer)) => (outer, hi[v] - lo[v] + 1, steps(v)),
            None => (outer, 1, vec![0; offs.len()]),
        };
        let out: &mut [f64] = &mut out.data;
        let (mut tmp, mut at, mut point) = (Vec::new(), offs.clone(), lo.clone());
        loop {
            if let Some(&inner) = self.dense.last() {
                let n = (hi[inner] - lo[inner] + 1) as usize;
                for k in 0..rows {
                    let row = |a: usize| offs[a] + k * row_steps[a];
                    let (crd, vals) = entries(csr, row(1), window);
                    for (&c, &l) in crd.iter().zip(vals) {
                        for (a, at) in at.iter_mut().enumerate() {
                            *at = row(a) + strides[a * nv + cv] * c;
                        }
                        loop {
                            for (r, &off) in runs.iter_mut().zip(&at[2..]) {
                                r.off = off;
                            }
                            let out = (&mut *out, at[0], run_steps[0]);
                            dense_run(n, l, &runs, out, &mut tmp);
                            if !advance(&mut point, dense_outer, (&lo, &hi), &mut at, &strides) {
                                break;
                            }
                        }
                    }
                }
            } else {
                let rows = (rows, &offs[..], &row_steps[..]);
                crd_rows(csr, window, rows, &mut runs, (&mut *out, run_steps[0]));
            }
            if !advance(&mut point, outer, (&lo, &hi), &mut offs, &strides) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernelgen::testing::{run_on, wide_arg, OwnedArg, Rng};
    use crate::kernels::InterpreterKernel;
    use distal_ir::expr::{Access, IndexVar};
    use distal_machine::geom::{copy_rect, Point, Rect};
    use distal_runtime::program::Privilege;
    use distal_sparse::kernels::{sddmm, spmm, spmv};
    use std::sync::Arc;

    /// The sparse leaf of `statement`.
    fn leaf(statement: &str) -> CsrLeaf {
        CsrLeaf::new(&Assignment::parse(statement).unwrap()).expect("a sparse-leaf statement")
    }

    /// The second parity oracle: the dense iteration space in `all_vars`
    /// order, skipping the points where `B` (argument 1, dense) holds the
    /// `+0.0` bit pattern — what the sparse leaf computes, one point at a
    /// time.
    fn scan(statement: &Assignment, ctx: &mut KernelCtx) {
        let maps = statement.access_positions();
        let (lo, hi): (Vec<i64>, Vec<i64>) = ctx.scalars.chunks(2).map(|s| (s[0], s[1])).unzip();
        if lo.iter().zip(&hi).any(|(l, h)| h < l) {
            return;
        }
        let vars: Vec<usize> = (0..lo.len()).collect();
        let mut point = lo.clone();
        let mut coords: Vec<Vec<i64>> = maps.iter().map(|m| vec![0; m.len()]).collect();
        loop {
            for (c, map) in coords.iter_mut().zip(&maps) {
                for (c, &v) in c.iter_mut().zip(map) {
                    *c = point[v];
                }
            }
            let b = ctx.args[1].at(&coords[1]);
            if b.to_bits() != 0 {
                let v = (2..maps.len()).fold(b, |p, a| p * ctx.args[a].at(&coords[a]));
                ctx.args[0].add(&coords[0], v);
            }
            if !advance(&mut point, &vars, (&lo, &hi), &mut [], &[]) {
                return;
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

    /// Runs the leaf over arguments built dense: `B` is handed over as
    /// CSR, as its executors do.
    fn run(leaf: &CsrLeaf, args: &mut [OwnedArg], scalars: &[i64]) {
        let b = leaf.sparse_arg().expect("the sparse leaf");
        args[b] = compressed(&args[b], args[b].alloc);
        run_on(args, scalars, |ctx| leaf.execute(ctx));
    }

    #[test]
    fn spmm_partial_bounds() {
        // Only the [1,2]x[1,2]x[0,2] sub-block, like the dense leaf test.
        let sq = Rect::sized(&[4, 4]);
        let mut b_data = vec![1.0; 16];
        b_data[5] = 0.0; // (1,1) pruned from the sparse iteration
        let mut args = [
            arg(sq, vec![0.0; 16]),
            arg(sq, b_data),
            arg(sq, vec![1.0; 16]),
        ];
        run(
            &leaf("A(i,j) = B(i,k) * C(k,j)"),
            &mut args,
            &[1, 2, 1, 2, 0, 2],
        );
        let a = &args[0].data;
        assert_eq!(a[5], 2.0); // (1,1): k=0..2 minus the pruned (1,1) entry
        assert_eq!(a[10], 3.0); // (2,2): all three k
        assert_eq!(a[0], 0.0); // outside bounds untouched
    }

    #[test]
    fn spmv_accumulates_rows() {
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
        run(&leaf("a(i) = B(i,j) * c(j)"), &mut args, &[0, 2, 0, 3]);
        assert_eq!(args[0].data, vec![2001.0, 0.0, 30.0]);
    }

    /// Tile-shaped arguments over dense data, one per shape; seed 0 is
    /// all zeros.
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
                    crate::sparse_random_data(vol, seed, density)
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
    fn the_leaf_matches_the_reference_kernels_bitwise() {
        // SpMV, SpMM and SDDMM against the reference functions over a CSR
        // view of the same tile.
        for density in [0.05, 0.5, 1.0] {
            // SpMV over a partial tile.
            let shapes: &[&[i64]] = &[&[6], &[6, 8], &[8]];
            let (i, j) = ((1, 4), (2, 7));
            let mut gen = args_from(shapes, &[0, 21, 22], density);
            let b = SparseBuffer::from_dense(&[4, 6], &tile(&gen[1], i, Some(j)));
            let mut want = vec![0.0; 4];
            spmv(&mut want, &b, &tile(&gen[2], j, None));
            run(
                &leaf("a(i) = B(i,j) * c(j)"),
                &mut gen,
                &[i.0, i.1, j.0, j.1],
            );
            assert_tile(&gen[0], i, None, &want);
            // SpMM over a partial tile.
            let shapes: &[&[i64]] = &[&[5, 6], &[5, 7], &[7, 6]];
            let (i, j, k) = ((1, 3), (0, 5), (2, 6));
            let scalars = [i.0, i.1, j.0, j.1, k.0, k.1];
            let mut gen = args_from(shapes, &[0, 31, 32], density);
            let b = SparseBuffer::from_dense(&[3, 5], &tile(&gen[1], i, Some(k)));
            let mut want = vec![0.0; 3 * 6];
            spmm(&mut want, &b, &tile(&gen[2], k, Some(j)), 6);
            run(&leaf("A(i,j) = B(i,k) * C(k,j)"), &mut gen, &scalars);
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
            run(
                &leaf("A(i,j) = B(i,j) * C(i,k) * D(k,j)"),
                &mut gen,
                &scalars,
            );
            assert_tile(&gen[0], i, Some(j), &want);
        }
    }

    #[test]
    fn the_leaf_ignores_empty_bounds() {
        let sq = Rect::sized(&[2, 2]);
        let mut args = [
            arg(sq, vec![0.0; 4]),
            arg(sq, vec![1.0; 4]),
            arg(sq, vec![1.0; 4]),
        ];
        run(
            &leaf("A(i,j) = B(i,k) * C(k,j)"),
            &mut args,
            &[0, 1, 0, 1, 1, 0],
        );
        assert_eq!(args[0].data, vec![0.0; 4]);
    }

    /// `A(i,j) = B(i,j) * (C(i,k) * D(k,j))`, which the parser, reading
    /// products from the left, cannot write.
    fn right_associated_sddmm() -> Assignment {
        let access = |t: &str, vars: &[&str]| {
            let vars = vars.iter().map(|&v| IndexVar::new(v)).collect();
            Box::new(Expr::Access(Access::new(t, vars)))
        };
        let cd = Box::new(Expr::Mul(
            access("C", &["i", "k"]),
            access("D", &["k", "j"]),
        ));
        let lhs = Access::new("A", vec![IndexVar::new("i"), IndexVar::new("j")]);
        Assignment::new(lhs, Expr::Mul(access("B", &["i", "j"]), cd), false).unwrap()
    }

    #[test]
    fn statements_whose_walk_reorders_terms_stay_off_the_leaf() {
        let refused = |s: &str| CsrLeaf::new(&Assignment::parse(s).unwrap()).is_none();
        // A repeated variable: the walk would visit the diagonal's terms
        // once per stored entry of a row, not once per point.
        assert!(refused("a(i) = B(i,j,j) * c(j)"));
        assert!(refused("A(i,j) = B(i,i) * C(i,j)"));
        // Not associated from the left, or not a pure product.
        assert!(CsrLeaf::new(&right_associated_sddmm()).is_none());
        assert!(refused("a(i) = B(i,j) * c(j) * 2.0"));
        // A compressed access that comes first lists its reduction
        // variables first, so no statement reaches the order rule's other
        // half; the rule itself, over positions into `all_vars` (two free
        // variables, then the reduction variables 2, 3, 4):
        assert!(interpreter_order(&[0, 2, 3], 2));
        assert!(interpreter_order(&[2, 0, 3], 2));
        assert!(
            !interpreter_order(&[0, 3, 2], 2),
            "reduction variables out of order"
        );
        assert!(!interpreter_order(&[0, 3], 2), "not a prefix");
        assert!(!interpreter_order(&[0, 2, 2], 2), "repeated");
    }

    impl Rng {
        /// [`Rng::finite`], or now and then a NaN with a payload or an
        /// infinity.
        fn any(&mut self) -> f64 {
            match self.next() % 16 {
                0 => f64::from_bits(0x7FF8_0000_0000_0000 | (self.next() >> 13)),
                1 => f64::INFINITY,
                _ => self.finite(),
            }
        }

        /// An extent in `1..=max`, biased towards one and the primes.
        fn extent(&mut self, max: i64) -> i64 {
            const PRIMES: [i64; 13] = [1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
            match self.below(3) {
                0 => PRIMES[self.below(13) as usize].min(max),
                _ => 1 + self.below(max as u64),
            }
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

    /// The statements of the property — SpMV, SpMM, SDDMM, TTV, MTTKRP,
    /// TTM, an inner product and a Hadamard product — with `B` compressed
    /// (`ds`, or `dds` for the order-3 ones), and the largest extent a
    /// variable draws: the iteration space of a four-variable statement
    /// stays near that of a three-variable one.
    const SUBJECTS: [(&str, i64); 8] = [
        ("a(i) = B(i,j) * c(j)", 40),
        ("A(i,j) = B(i,k) * C(k,j)", 40),
        ("A(i,j) = B(i,j) * C(i,k) * D(k,j)", 40),
        ("A(i,j) = B(i,j,k) * c(k)", 40),
        ("A(i,l) = B(i,j,k) * C(j,l) * D(k,l)", 16),
        ("A(i,j,l) = B(i,j,k) * C(k,l)", 16),
        ("a = B(i,j,k) * C(i,j,k)", 40),
        ("A(i,j) = B(i,j) * C(i,j) * D(i,j)", 40),
    ];

    /// 512 seeded cases per statement against both oracles, bit for bit.
    ///
    /// The scan oracle visits the same stored entries in the same order,
    /// so it must agree on *any* data. The interpreter visits every point:
    /// it agrees where the `±0.0` argument of `distal_sparse::kernels`
    /// applies — finite dense operands and no `-0.0` already in the
    /// output — which three cases in four are generated to satisfy; the
    /// compressed operand holds NaN payloads, `-0.0`, subnormals and
    /// `±1e300` either way.
    #[test]
    fn the_leaf_matches_the_scan_and_the_interpreter_bit_for_bit() {
        for (which, &(statement, max_extent)) in SUBJECTS.iter().enumerate() {
            let assignment = Assignment::parse(statement).unwrap();
            let leaf = CsrLeaf::new(&assignment).expect("a sparse-leaf statement");
            let interpreter = InterpreterKernel::new(assignment.clone(), true);
            let accesses = assignment.access_positions();
            let n_vars = assignment.all_vars().len();
            let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ (which as u64 + 1));
            let (mut strict, mut face_local, mut clamped_away) = (0, 0, 0);
            for case in 0..512 {
                let extents: Vec<i64> = (0..n_vars).map(|_| rng.extent(max_extent)).collect();
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
                let b_vars = &accesses[1];
                let col = b_vars[b_vars.len() - 1];
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
                let others: Vec<OwnedArg> = accesses[2..]
                    .iter()
                    .map(|access| wide_arg(&mut rng, tile(access), dense_value))
                    .collect();
                let mut out = wide_arg(&mut rng, tile(&accesses[0]), |_| f64::NAN);
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
                let got = run(&|ctx| leaf.execute(ctx), &b_csr);
                let what = format!(
                    "`{statement}` case {case}: extents {extents:?} bounds {bounds:?} \
                     density {density} form {form}"
                );
                let scanned = run(&|ctx| scan(&assignment, ctx), &b_dense);
                assert!(got == scanned, "{what}: vs the scan");
                if !wild {
                    let want = run(&|ctx| interpreter.execute(ctx), &b_dense);
                    assert!(got == want, "{what}: vs the interpreter");
                }
                if clamped {
                    assert!(got == bits(&out.data), "{what}: a clamped-away leaf wrote");
                }
            }
            // The generator reaches what the property is for.
            assert!(strict >= 64, "`{statement}`: {strict} strict tiles");
            assert!(face_local >= 64, "`{statement}`: {face_local}");
            assert_eq!(clamped_away, 32);
        }
    }
}
