//! Leaf kernels.
//!
//! DISTAL lowers the loops *below* the distribution/communication levels
//! into leaf kernels that run on one processor (paper §6.2 follows TACO's
//! single-node lowering; Figure 2 substitutes a vendor GEMM at the leaves).
//! This module holds the *reference* leaf the generated kernels of
//! [`crate::kernelgen`] are checked against — a generic dense-loop
//! interpreter able to execute any tensor index notation statement — plus
//! the statement-shape guards lowering and kernel generation dispatch on.

use distal_ir::expr::{Assignment, Expr, IndexVar};
use distal_runtime::kernel::{Kernel, KernelCtx};
use std::cell::RefCell;

/// Reusable per-leaf-execution scratch. Leaf kernels run thousands of
/// times per program with tiny per-task bounds, so per-execute heap
/// allocation is measurable; these buffers live per thread and are only
/// resized (never reallocated after warmup). Safe because leaf kernels
/// never invoke other leaf kernels.
#[derive(Default)]
struct Scratch {
    lo: Vec<i64>,
    hi: Vec<i64>,
    point: Vec<i64>,
    /// All access coordinate tuples, flattened back-to-back (the layout —
    /// one range per access — is precomputed at kernel construction).
    coords: Vec<i64>,
    values: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// A generic interpreter for one dense tensor algebra statement.
///
/// Task scalars carry `[lo, hi]` (inclusive) per variable, in
/// [`Assignment::all_vars`] order; kernel args are the destination followed
/// by the right-hand-side accesses in order.
#[derive(Debug)]
pub struct InterpreterKernel {
    assignment: Assignment,
    vars: Vec<IndexVar>,
    /// Positions (into `vars`) of each access's index variables; entry 0 is
    /// the destination.
    access_maps: Vec<Vec<usize>>,
    /// Start of each access's coordinate tuple within the flat scratch
    /// buffer, plus a trailing total-length entry.
    coord_starts: Vec<usize>,
    accumulate: bool,
}

impl InterpreterKernel {
    /// Builds an interpreter for a statement that *adds* into the output
    /// when `accumulate` is set (reductions, and the SPMD rank VM, which
    /// always accumulates into a zeroed buffer) and overwrites it otherwise.
    pub fn new(assignment: Assignment, accumulate: bool) -> Self {
        let vars = assignment.all_vars();
        let pos = |v: &IndexVar| vars.iter().position(|x| x == v).expect("unknown var");
        let mut access_maps: Vec<Vec<usize>> = Vec::new();
        access_maps.push(assignment.lhs.indices.iter().map(pos).collect());
        for acc in assignment.input_accesses() {
            access_maps.push(acc.indices.iter().map(pos).collect());
        }
        let mut coord_starts = Vec::with_capacity(access_maps.len() + 1);
        let mut total = 0usize;
        for m in &access_maps {
            coord_starts.push(total);
            total += m.len();
        }
        coord_starts.push(total);
        InterpreterKernel {
            assignment,
            vars,
            access_maps,
            coord_starts,
            accumulate,
        }
    }
}

impl Kernel for InterpreterKernel {
    fn name(&self) -> &str {
        "interpreter"
    }

    fn execute(&self, ctx: &mut KernelCtx) {
        let nv = self.vars.len();
        assert_eq!(ctx.scalars.len(), 2 * nv, "bounds scalars mismatch");
        let n_inputs = self.access_maps.len() - 1;
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let Scratch {
                lo,
                hi,
                point,
                coords,
                values,
            } = scratch;
            lo.clear();
            hi.clear();
            for i in 0..nv {
                lo.push(ctx.scalars[2 * i]);
                hi.push(ctx.scalars[2 * i + 1]);
            }
            if (0..nv).any(|i| hi[i] < lo[i]) {
                return; // empty leaf (over-decomposed launch point)
            }
            point.clear();
            point.extend_from_slice(lo);
            coords.clear();
            coords.resize(*self.coord_starts.last().unwrap(), 0);
            values.clear();
            values.resize(n_inputs, 0.0);
            loop {
                // Gather input values.
                for (ai, map) in self.access_maps.iter().enumerate().skip(1) {
                    let c = &mut coords[self.coord_starts[ai]..self.coord_starts[ai + 1]];
                    for (d, &vi) in map.iter().enumerate() {
                        c[d] = point[vi];
                    }
                    values[ai - 1] = ctx.args[ai].at(c);
                }
                let mut it = values.iter().copied();
                let v = eval_expr(&self.assignment.rhs, &mut it);
                let c = &mut coords[self.coord_starts[0]..self.coord_starts[1]];
                for (d, &vi) in self.access_maps[0].iter().enumerate() {
                    c[d] = point[vi];
                }
                let out = &mut ctx.args[0];
                if self.accumulate {
                    out.add(c, v);
                } else {
                    out.set(c, v);
                }
                // Odometer advance.
                let mut d = nv;
                loop {
                    if d == 0 {
                        return;
                    }
                    d -= 1;
                    point[d] += 1;
                    if point[d] <= hi[d] {
                        break;
                    }
                    point[d] = lo[d];
                    if d == 0 {
                        return;
                    }
                }
            }
        })
    }
}

fn eval_expr(e: &Expr, values: &mut impl Iterator<Item = f64>) -> f64 {
    match e {
        Expr::Access(_) => values.next().expect("missing value"),
        Expr::Literal(c) => *c,
        Expr::Add(l, r) => {
            let a = eval_expr(l, values);
            let b = eval_expr(r, values);
            a + b
        }
        Expr::Mul(l, r) => {
            let a = eval_expr(l, values);
            let b = eval_expr(r, values);
            a * b
        }
    }
}

/// True when the right-hand side is a product of *accesses only* — no
/// literal factors, no sums. The shape guards (`is_matmul`, `is_spmv`,
/// `is_sddmm`) only inspect the access list, so a statement like
/// `A(i,j) = B(i,k) * C(k,j) * 3.0` matches them; the specialized leaves
/// (GEMM, sparse SpMV/SpMM/SDDMM) compute only the access product and
/// would silently drop the literal — this check keeps them honest.
pub(crate) fn rhs_is_access_product(a: &Assignment) -> bool {
    fn pure(e: &Expr) -> bool {
        match e {
            Expr::Access(_) => true,
            Expr::Mul(l, r) => pure(l) && pure(r),
            Expr::Literal(_) | Expr::Add(_, _) => false,
        }
    }
    pure(&a.rhs)
}

/// True for `A(i,j) = B(i,k) * C(k,j)`-shaped statements (any var names).
pub fn is_matmul(a: &Assignment) -> bool {
    if a.lhs.indices.len() != 2 {
        return false;
    }
    let inputs = a.input_accesses();
    if inputs.len() != 2 || !matches!(a.rhs, Expr::Mul(_, _)) {
        return false;
    }
    let (i, j) = (&a.lhs.indices[0], &a.lhs.indices[1]);
    let red = a.reduction_vars();
    if red.len() != 1 {
        return false;
    }
    let k = &red[0];
    inputs[0].indices == vec![i.clone(), k.clone()]
        && inputs[1].indices == vec![k.clone(), j.clone()]
}

/// True for `a(i) = B(i,j) * c(j)`-shaped statements (any var names): the
/// matrix-vector product, SpMV when B is compressed.
pub fn is_spmv(a: &Assignment) -> bool {
    if a.lhs.indices.len() != 1 {
        return false;
    }
    let inputs = a.input_accesses();
    if inputs.len() != 2 || !matches!(a.rhs, Expr::Mul(_, _)) {
        return false;
    }
    let i = &a.lhs.indices[0];
    let red = a.reduction_vars();
    if red.len() != 1 {
        return false;
    }
    let j = &red[0];
    inputs[0].indices == vec![i.clone(), j.clone()] && inputs[1].indices == vec![j.clone()]
}

/// True for `A(i,j) = B(i,j) * C(i,k) * D(k,j)`-shaped statements (any var
/// names): the sampled dense-dense matrix multiply, SDDMM when B is
/// compressed.
pub fn is_sddmm(a: &Assignment) -> bool {
    if a.lhs.indices.len() != 2 {
        return false;
    }
    let inputs = a.input_accesses();
    if inputs.len() != 3 {
        return false;
    }
    // A left-leaning pure product of the three accesses.
    let Expr::Mul(outer, _) = &a.rhs else {
        return false;
    };
    if !matches!(outer.as_ref(), Expr::Mul(_, _)) {
        return false;
    }
    let (i, j) = (&a.lhs.indices[0], &a.lhs.indices[1]);
    let red = a.reduction_vars();
    if red.len() != 1 {
        return false;
    }
    let k = &red[0];
    inputs[0].indices == vec![i.clone(), j.clone()]
        && inputs[1].indices == vec![i.clone(), k.clone()]
        && inputs[2].indices == vec![k.clone(), j.clone()]
}

/// True when an expression is bandwidth-bound at the leaves (element-wise
/// traversal with no data reuse): used to set the roofline `bytes` term.
pub fn is_streaming(a: &Assignment) -> bool {
    // Reuse exists when some input access omits a reduction variable that
    // another access carries (it gets re-read), or the output is smaller
    // than the iteration space by more than the reduction dims... A simple
    // proxy that matches the paper's kernels: every input access carries all
    // reduction variables (TTV: B(i,j,k) yes / c(k) small; innerprod: yes).
    let vars = a.all_vars();
    let largest = a
        .input_accesses()
        .iter()
        .map(|acc| acc.indices.len())
        .max()
        .unwrap_or(0);
    largest == vars.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernelgen::testing::{run_on, OwnedArg};
    use distal_machine::geom::Rect;

    fn arg(rect: Rect, data: Vec<f64>) -> OwnedArg {
        OwnedArg::dense(rect, data)
    }

    fn run_matmul<K: Kernel>(kernel: &K, n: i64) -> Vec<f64> {
        let sq = Rect::sized(&[n, n]);
        let b: Vec<f64> = (0..n * n).map(|x| x as f64).collect();
        let c: Vec<f64> = (0..n * n).map(|x| (x % 7) as f64).collect();
        let mut args = vec![
            arg(sq.clone(), vec![0.0; (n * n) as usize]),
            arg(sq.clone(), b),
            arg(sq, c),
        ];
        let scalars = [0, n - 1, 0, n - 1, 0, n - 1];
        run_on(&mut args, &scalars, |ctx| kernel.execute(ctx));
        args.swap_remove(0).data
    }

    #[test]
    fn interpreter_matches_hand_computation() {
        let interp = InterpreterKernel::new(distal_ir::expr::kernels::matmul(), true);
        let a1 = run_matmul(&interp, 6);
        // A[0][0] = sum_k B[0][k] * C[k][0] with B[0][k]=k, C[k][0]=(6k)%7.
        let expect: f64 = (0..6).map(|k| (k as f64) * ((6 * k % 7) as f64)).sum();
        assert_eq!(a1[0], expect);
    }

    #[test]
    fn interpreter_partial_bounds() {
        // Only the sub-block [1,2]x[1,2]x[0,2] of a 4x4 matmul.
        let interp = InterpreterKernel::new(distal_ir::expr::kernels::matmul(), true);
        let sq = Rect::sized(&[4, 4]);
        let ones = vec![1.0; 16];
        let mut args = [
            arg(sq.clone(), vec![0.0; 16]),
            arg(sq.clone(), ones.clone()),
            arg(sq, ones),
        ];
        run_on(&mut args, &[1, 2, 1, 2, 0, 2], |ctx| interp.execute(ctx));
        let a = &args[0].data;
        assert_eq!(a[5], 3.0); // (1,1) accumulated over k=0..2
        assert_eq!(a[0], 0.0); // outside bounds untouched
    }

    #[test]
    fn interpreter_handles_empty_bounds() {
        let interp = InterpreterKernel::new(distal_ir::expr::kernels::matmul(), true);
        let sq = Rect::sized(&[2, 2]);
        let mut args = [
            arg(sq.clone(), vec![0.0; 4]),
            arg(sq.clone(), vec![1.0; 4]),
            arg(sq, vec![1.0; 4]),
        ];
        // An empty k range.
        run_on(&mut args, &[0, 1, 0, 1, 1, 0], |ctx| interp.execute(ctx));
        assert_eq!(args[0].data, vec![0.0; 4]);
    }

    #[test]
    fn shape_detection() {
        let parse = |s| distal_ir::expr::Assignment::parse(s).unwrap();
        let matmul = distal_ir::expr::kernels::matmul();
        assert!(is_matmul(&matmul));
        assert!(!is_matmul(&distal_ir::expr::kernels::ttv()));
        assert!(!is_matmul(&distal_ir::expr::kernels::mttkrp()));
        assert!(!is_matmul(&distal_ir::expr::kernels::innerprod()));
        // Same shape, different names, still a matmul.
        assert!(is_matmul(&parse("X(p,q) = Y(p,r) * Z(r,q)")));
        assert!(is_spmv(&parse("a(i) = B(i,j) * c(j)")) && !is_spmv(&matmul));
        assert!(is_sddmm(&parse("A(i,j) = B(i,j) * C(i,k) * D(k,j)")) && !is_sddmm(&matmul));
        // The guards only look at the access list, so a trailing literal
        // factor still matches them — `rhs_is_access_product` is what
        // keeps the specialized leaves (which compute only the access
        // product) from silently dropping it.
        for with_literal in [
            "a(i) = B(i,j) * c(j) * 3.0",
            "A(i,j) = B(i,k) * C(k,j) * 2.0",
        ] {
            let a = parse(with_literal);
            assert!(is_spmv(&a) || is_matmul(&a), "shape guard still matches");
            assert!(!rhs_is_access_product(&a));
        }
        assert!(rhs_is_access_product(&matmul));
    }

    #[test]
    fn streaming_detection() {
        assert!(is_streaming(&distal_ir::expr::kernels::ttv()));
        assert!(is_streaming(&distal_ir::expr::kernels::innerprod()));
        assert!(!is_streaming(&distal_ir::expr::kernels::matmul()));
        assert!(!is_streaming(&distal_ir::expr::kernels::mttkrp()));
    }

    #[test]
    fn interpreter_scalar_output() {
        // a = B(i) * C(i): scalar (0-dim) destination.
        let a = distal_ir::expr::Assignment::parse("a = B(i) * C(i)").unwrap();
        let interp = InterpreterKernel::new(a, true);
        let scalar_rect = Rect::sized(&[]);
        let vec_rect = Rect::sized(&[4]);
        let mut args = [
            arg(scalar_rect, vec![0.0]),
            arg(vec_rect.clone(), vec![1.0, 2.0, 3.0, 4.0]),
            arg(vec_rect, vec![1.0, 1.0, 1.0, 1.0]),
        ];
        run_on(&mut args, &[0, 3], |ctx| interp.execute(ctx));
        assert_eq!(args[0].data[0], 10.0);
    }
}
