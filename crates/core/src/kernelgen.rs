//! Plan-time leaf-kernel selection and generation: statements become
//! monomorphized leaf kernels at plan time.
//!
//! [`leaf_for`] is the one place a leaf kernel is chosen. Both lowerings
//! (the runtime plan's `lower_nest` and the SPMD backend's `lower_with`) call it
//! with the schedule's `substitute` command, so the command means the same
//! on every backend: `LeafKind::Interpreter` runs the reference
//! [`InterpreterKernel`], `LeafKind::Gemm` insists on a matmul-shaped
//! statement, and the automatic choice specializes the request.
//!
//! Three layers of specialization, tried in order:
//!
//! 1. **The sparse leaf** (`csr.gen`, the private `sparse` module) for a
//!    pure access product, associated from the left, whose first operand
//!    `B` — and only that one — is compressed, on an accumulating
//!    statement that does not also write `B`: SpMV, SpMM, SDDMM, TTV,
//!    MTTKRP, TTM and the inner product alike, with no shape dispatch.
//!
//!    *`B` is CSR from `bind` to leaf.* The leaf names the argument it
//!    reads compressed (`Kernel::sparse_arg`), the one place CSR-vs-dense
//!    is decided. `lower_nest` records the tensor on the plan
//!    (`CompiledKernel::csr_operand`); `bind` builds one `SparseBuffer`
//!    for it (one pass over borrowed `Data`, the value stream of
//!    `RandomSparse`, or the caller's image through `Bindings::set_sparse`)
//!    and every task receives that image (`KernelArg::sparse`, `data`
//!    empty, `alloc` the rectangle it covers). The SPMD rank VM compresses
//!    `B`'s face, of any order, with `SparseBuffer::from_dense`. Under
//!    `substitute(.., Interpreter)` every tensor binds dense.
//!
//!    *The walk.* The dense-linearized outer levels of `B` are the
//!    buffer's rows (`pos`): a task visits the rows its tile spans,
//!    SpDISTAL's row partition. The compressed last level is each row's
//!    ascending `crd`, cut to the tile by two `partition_point`s unless
//!    the tile spans every column the buffer covers. That binds `B`'s
//!    variables; the others run densely, the last innermost, and the
//!    product keeps the statement's association (`(B·C)·D`).
//!
//!    *The order rule.* The leaf takes a statement only when that walk
//!    visits each output element's terms in the interpreter's order: `B`
//!    indexes distinct variables, its reduction variables a prefix, in its
//!    own order, of `Assignment::reduction_vars` (as a first operand's
//!    always are). Anything else runs on the tape. The leaf is then
//!    bit-identical to a scan of the dense iteration space that skips the
//!    points where `B` holds `+0.0` (a `#[cfg(test)]` oracle), and by the
//!    `±0.0` argument in `distal-sparse` to [`InterpreterKernel`]; a
//!    512-case property per statement holds it to both.
//! 2. **Generated dense GEMM** (`gemm.gen`) for matmul-shaped pure
//!    access products: one register-blocked, panel-packed driver in the
//!    private `gemm` module. `k` runs in ascending blocks of `KC = 256`;
//!    per block each `NR`-wide column panel of `C` is packed into a
//!    contiguous, zero-padded `KC × NR` stack buffer, and each `MR`-row
//!    strip of `A` is loaded once into an `MR × NR` accumulator tile that
//!    stays in registers across the block, then stored once. Ragged edges
//!    go through the same micro-kernel on a padded temporary tile — there
//!    is no scalar fallback.
//!
//!    *The shape is data.* A doc-hidden `MicroKernel { name, mr, nr, kc,
//!    run }` descriptor names one instantiation of the driver; the source
//!    has no SIMD intrinsics (fixed-size accumulator arrays that LLVM
//!    vectorises), so the same function serves every instruction set.
//!    x86-64 has exactly three: `baseline 2x8`, compiled for the build's
//!    target (SSE2), `avx2 4x8` under `#[target_feature(enable =
//!    "avx2")]` and `avx512 8x16` under `#[target_feature(enable =
//!    "avx512f")]`, all three through one checked entry; every other
//!    architecture has the baseline alone. The `8x16` tile (16 of the 32
//!    `zmm` registers accumulate) was picked end to end on a 2-vCPU Xeon:
//!    in one spell of runs a `dense_runtime` request took 12.2–14.9 ms
//!    through it and 13.0–15.0 through `4x16`, a `dense_spmd` one
//!    13.0–14.0 and 13.2–14.9, where `avx2 4x8` took 21.7–22.6 for
//!    both. Standing alone at 160³, `4x16` and `6x16` ran as fast (29–37
//!    GFLOP/s) and `8x8`, `12x16`, `8x24` and `4x32` slower (18–32).
//!
//!    *The dispatch rule.* The variant is chosen by
//!    `is_x86_feature_detected!("avx512f")` (and the `avx2`, `fma` and
//!    `f16c` rustc implies by it), then `("avx2")`, on the first leaf
//!    execution — never in `plan`, `bind` or set-up — and there is
//!    nothing to select it with: no option, environment variable or cargo
//!    feature. Plan keys and both lowerings see one kernel named
//!    `gemm.gen`.
//!
//!    *The parity rule.* Per output element the sum starts from the
//!    stored `A` value and adds `B(i,k)·C(k,j)` for ascending `k`, each a
//!    separately rounded multiply and add. The driver keeps that: it
//!    never calls `f64::mul_add` (a fused multiply–add rounds once;
//!    without the target feature the intrinsic is a libm call), storing
//!    and reloading the tile between `k` blocks is exact, blocking
//!    reorders only independent output elements, and padded lanes are
//!    computed and discarded. The `avx2` body enables `avx2` but never
//!    `fma`; rustc's `avx512f` implies `fma`, so for that body parity
//!    rests on rustc never letting LLVM contract a multiply and an add on
//!    its own (it emits no contraction flag), not on the instruction being
//!    unavailable — the built binaries hold no `vfmadd` outside
//!    `compiler_builtins`. Hence the driver is bit-identical to
//!    [`InterpreterKernel`], to the row-at-a-time `(i, k, j)` loop it
//!    replaced (kept as a test oracle) and across instruction sets; a
//!    property test holds every variant the host can run to both oracles
//!    and prints their names, so a host without AVX-512 shows what it
//!    could not check.
//!
//!    *Measured and left out.* A packed `B`: the `MR` rows of `B` a strip
//!    reads are already unit-stride streams, and packing them measured
//!    −40 % at 32³, −4 % at 160³ (the tiles the workloads run) against
//!    +4–6 % at 512³ and 640³. Packing `C` stays: it costs nothing at
//!    160³, and reading `C` in place — `KC` rows a whole row stride apart
//!    — measured 10–17 % slower from n = 480 up (25 against 28–31
//!    GFLOP/s).
//! 3. **The tape compiler** (`tape` / `tape.s1`) for everything else:
//!    the expression tree is flattened once into a postfix op tape, and
//!    per-access offsets are strength-reduced along the innermost
//!    statement variable — eliminating the interpreter's per-point
//!    recursion and coordinate re-mapping while preserving its exact
//!    evaluation order (postfix evaluation of the same tree with the
//!    same operand order is the same float sequence). `tape.s1` marks
//!    statements whose innermost variable is the final index of every
//!    access that carries it, i.e. the inner loop walks every operand at
//!    stride 1.
//!
//! Every generated kernel is **bit-identical** to
//! [`InterpreterKernel`] over the same request on finite data: fast
//! paths reorder only independent output elements, never the
//! accumulation order within one output element, and visiting only
//! stored entries follows the `±0.0` argument documented in
//! `distal-sparse`. Only the sparse leaf skips anything; `gemm.gen` and
//! the tape visit every point of a compressed operand's dense form, as the
//! interpreter does. The request carries no backend-specific discipline
//! beyond `accumulate`, so both lowerings get the same leaf for the same
//! statement and agree bit for bit even where an operand holds Inf or NaN
//! opposite an entry `B` does not store (where the sparse leaf and the
//! interpreter may not).
//!
//! A plan holds the kernel it was specialized to, so a plan bound many
//! times pays for kernel generation once; the plan cache does the same
//! for many requests over one statement. Only [`leaf_for`] builds kernels,
//! and inside a plan only the two lowerings call it (the `kernels` bench
//! calls it outside any plan), so [`crate::lowering_count`] staying flat
//! across `bind`/`run` (`tests/plan_reuse.rs`) means none was built.

use crate::error::CompileError;
use crate::kernels::{is_matmul, rhs_is_access_product, InterpreterKernel};
use crate::schedule::{LeafKind, Schedule};
use distal_ir::expr::{Assignment, Expr};
use distal_machine::geom::Rect;
use distal_runtime::kernel::{Kernel, KernelCtx};
use std::sync::Arc;

mod gemm;
mod sparse;

#[doc(hidden)]
pub use gemm::{gemm_variants, MicroKernel};

/// One leaf statement to specialize: the inputs to kernel generation that
/// change what code should run.
#[derive(Clone, Debug)]
pub(crate) struct LeafRequest<'a> {
    /// The statement the leaf executes.
    pub assignment: &'a Assignment,
    /// Per right-hand-side access (in access order): is that operand
    /// stored in a compressed level format? Drives the sparse leaf.
    pub compressed: Vec<bool>,
    /// `true` when the kernel must *add* into the output (reductions, and
    /// the SPMD rank VM which always accumulates into a zeroed buffer);
    /// `false` when it overwrites.
    pub accumulate: bool,
}

/// Chooses the leaf kernel of `assignment` under `schedule`'s
/// `substitute` command (Figure 2 line 40 substitutes a vendor GEMM at the
/// leaves) — at plan time; `bind` never reaches it.
///
/// `compressed` flags the right-hand-side operands stored in a compressed
/// level format; `accumulate` (add into the output) is the executing
/// backend's discipline. Without a command, or with `LeafKind::Auto`, the
/// request is specialized. `LeafKind::Gemm` asks for the optimized leaf of
/// a matmul; compression still routes it to the sparse leaf when that
/// takes the statement (a strictly better "vendor kernel").
/// `LeafKind::Interpreter` runs the per-point reference.
///
/// Only the sparse leaf skips anything — the entries its operand does not
/// store — and every other leaf, like the interpreter, visits every point.
/// Over finite data the two are bit-identical (the `±0.0` argument in
/// `distal-sparse`). Both backends get the same leaf for the same
/// statement, so they agree on non-finite data too; off the sparse leaf
/// that is also what the interpreter computes.
///
/// # Errors
///
/// [`CompileError::BadSubstitution`] when `LeafKind::Gemm` names a
/// statement that is not a pure product of two matmul-shaped accesses.
pub fn leaf_for(
    assignment: &Assignment,
    schedule: &Schedule,
    compressed: Vec<bool>,
    accumulate: bool,
) -> Result<Arc<dyn Kernel>, CompileError> {
    match schedule.leaf_choice().map(|(_, kind)| kind) {
        Some(LeafKind::Interpreter) => {
            return Ok(Arc::new(InterpreterKernel::new(
                assignment.clone(),
                accumulate,
            )));
        }
        Some(LeafKind::Gemm) if !is_matmul(assignment) || !rhs_is_access_product(assignment) => {
            return Err(CompileError::BadSubstitution(format!(
                "the GEMM leaf requires a matmul-shaped statement \
                 (a pure product of two accesses), got `{assignment}`"
            )));
        }
        Some(LeafKind::Gemm | LeafKind::Auto) | None => {}
    }
    Ok(specialize(&LeafRequest {
        assignment,
        compressed,
        accumulate,
    }))
}

/// Specializes a leaf request into a kernel: shape dispatch per the module
/// docs.
pub(crate) fn specialize(req: &LeafRequest) -> Arc<dyn Kernel> {
    let a = req.assignment;
    let pure = rhs_is_access_product(a);
    let first_only = req.compressed.first().copied().unwrap_or(false)
        && req.compressed.iter().skip(1).all(|c| !c);
    // The sparse leaf is handed its first operand as one read-only image, so
    // that tensor must not also be the one written.
    let read_only = a
        .input_accesses()
        .first()
        .is_some_and(|first| first.tensor != a.lhs.tensor);
    // The sparse leaf visits exactly the first operand's stored entries.
    // This is the one place CSR-vs-dense is decided: the chosen leaf says
    // so through `Kernel::sparse_arg`, and both lowerings read it there.
    if pure && first_only && read_only && req.accumulate {
        if let Some(leaf) = sparse::CsrLeaf::new(a) {
            return Arc::new(leaf);
        }
    }
    // A compressed operand the sparse leaf does not take executes densely.
    if pure && req.accumulate && is_matmul(a) {
        return Arc::new(GemmGenKernel);
    }
    Arc::new(TapeKernel::new(req))
}

/// One postfix tape operation.
#[derive(Clone, Copy, Debug)]
enum TapeOp {
    /// Push the `n`th gathered input value (right-hand-side access
    /// order — the order `Expr::eval` consumes them).
    Load(usize),
    /// Push a literal.
    Lit(f64),
    /// Pop two, push their sum (left operand pushed first).
    Add,
    /// Pop two, push their product.
    Mul,
}

fn flatten(e: &Expr, next: &mut usize, tape: &mut Vec<TapeOp>) {
    match e {
        Expr::Access(_) => {
            tape.push(TapeOp::Load(*next));
            *next += 1;
        }
        Expr::Literal(c) => tape.push(TapeOp::Lit(*c)),
        Expr::Add(l, r) => {
            flatten(l, next, tape);
            flatten(r, next, tape);
            tape.push(TapeOp::Add);
        }
        Expr::Mul(l, r) => {
            flatten(l, next, tape);
            flatten(r, next, tape);
            tape.push(TapeOp::Mul);
        }
    }
}

fn eval_tape(tape: &[TapeOp], vals: &[f64], stack: &mut Vec<f64>) -> f64 {
    stack.clear();
    for op in tape {
        match *op {
            TapeOp::Load(i) => stack.push(vals[i]),
            TapeOp::Lit(c) => stack.push(c),
            TapeOp::Add => {
                let b = stack.pop().expect("tape underflow");
                let a = stack.pop().expect("tape underflow");
                stack.push(a + b);
            }
            TapeOp::Mul => {
                let b = stack.pop().expect("tape underflow");
                let a = stack.pop().expect("tape underflow");
                stack.push(a * b);
            }
        }
    }
    stack.pop().expect("empty tape")
}

/// A tape-compiled leaf: postfix op tape + precomputed access maps, with
/// strength-reduced offsets along the innermost statement variable.
pub(crate) struct TapeKernel {
    name: &'static str,
    tape: Vec<TapeOp>,
    stack_cap: usize,
    /// Per access (destination first): positions into `all_vars` of each
    /// of the access's index variables.
    maps: Vec<Vec<usize>>,
    n_vars: usize,
    accumulate: bool,
}

impl TapeKernel {
    /// Compiles a request's statement into a tape kernel.
    pub(crate) fn new(req: &LeafRequest) -> Self {
        let a = req.assignment;
        let maps = a.access_positions();
        let mut tape = Vec::new();
        let mut next = 0usize;
        flatten(&a.rhs, &mut next, &mut tape);
        debug_assert_eq!(next, maps.len() - 1, "tape loads vs accesses");
        let mut depth = 0usize;
        let mut stack_cap = 0usize;
        for op in &tape {
            match op {
                TapeOp::Load(_) | TapeOp::Lit(_) => depth += 1,
                TapeOp::Add | TapeOp::Mul => depth -= 1,
            }
            stack_cap = stack_cap.max(depth);
        }
        // Stride-1 innermost loop: the last statement variable only ever
        // appears as the *final* index of an access, so every operand
        // that moves in the inner loop moves contiguously.
        let n_vars = a.all_vars().len();
        let stride1 = n_vars > 0
            && maps.iter().all(|m| {
                m.iter()
                    .enumerate()
                    .all(|(d, &vi)| vi != n_vars - 1 || d == m.len() - 1)
            });
        TapeKernel {
            name: if stride1 { "tape.s1" } else { "tape" },
            tape,
            stack_cap,
            maps,
            n_vars,
            accumulate: req.accumulate,
        }
    }
}

impl Kernel for TapeKernel {
    fn name(&self) -> &str {
        self.name
    }

    fn execute(&self, ctx: &mut KernelCtx) {
        let nv = self.n_vars;
        assert_eq!(ctx.scalars.len(), 2 * nv, "bounds scalars mismatch");
        let na = self.maps.len();
        let n_inputs = na - 1;
        let mut stack: Vec<f64> = Vec::with_capacity(self.stack_cap);
        let mut vals = vec![0.0f64; n_inputs];
        if nv == 0 {
            // Scalar statement: a single point, every access 0-d.
            for (ii, val) in vals.iter_mut().enumerate() {
                *val = ctx.args[ii + 1].at(&[]);
            }
            let v = eval_tape(&self.tape, &vals, &mut stack);
            let out = &mut ctx.args[0];
            if self.accumulate {
                out.add(&[], v);
            } else {
                out.set(&[], v);
            }
            return;
        }
        let (lo, hi): (Vec<i64>, Vec<i64>) = ctx.scalars.chunks(2).map(|s| (s[0], s[1])).unzip();
        if lo.iter().zip(&hi).any(|(l, h)| h < l) {
            return; // empty leaf (over-decomposed launch point)
        }
        // Per access: the offset at the walk's point (the inner variable
        // at its lower bound) and the stride of each statement variable.
        let mut strides = vec![0i64; na * nv];
        let args = self.maps.iter().zip(&ctx.args);
        let mut offs: Vec<i64> = args
            .zip(strides.chunks_exact_mut(nv))
            .map(|((map, arg), s)| layout(&arg.alloc, map, &lo, s))
            .collect();
        let inner = nv - 1;
        let outer: Vec<usize> = (0..inner).collect();
        let n_inner = (hi[inner] - lo[inner]) as usize + 1;
        let mut point = lo.clone();
        loop {
            for step in 0..n_inner as i64 {
                for (ii, val) in vals.iter_mut().enumerate() {
                    let ai = ii + 1;
                    let off = offs[ai] + step * strides[ai * nv + inner];
                    *val = ctx.args[ai].data[off as usize];
                }
                let v = eval_tape(&self.tape, &vals, &mut stack);
                let oo = (offs[0] + step * strides[inner]) as usize;
                if self.accumulate {
                    ctx.args[0].data[oo] += v;
                } else {
                    ctx.args[0].data[oo] = v;
                }
            }
            if !advance(&mut point, &outer, (&lo, &hi), &mut offs, &strides) {
                return;
            }
        }
    }
}

/// The signed row-major offset in `alloc` of `map`'s `lo` corner (`map`
/// holds, per dimension, a statement variable); adds each variable's
/// stride to `strides` (a repeated variable sums its dimensions').
fn layout(alloc: &Rect, map: &[usize], lo: &[i64], strides: &mut [i64]) -> i64 {
    let (mut base, mut step) = (0, 1);
    for (d, &v) in map.iter().enumerate().rev() {
        base += (lo[v] - alloc.lo()[d]) * step;
        strides[v] += step;
        step *= alloc.extent(d);
    }
    base
}

/// Steps `point` to the next point of the box `lo ..= hi` over `vars`, the
/// last fastest, moving each access's offset with it (`strides[a · nv +
/// v]`, `nv` the point's length); `false` once every point was visited.
#[inline(always)]
fn advance(
    point: &mut [i64],
    vars: &[usize],
    (lo, hi): (&[i64], &[i64]),
    offs: &mut [i64],
    strides: &[i64],
) -> bool {
    let nv = point.len();
    for &v in vars.iter().rev() {
        let step = if point[v] < hi[v] {
            1
        } else {
            lo[v] - point[v]
        };
        point[v] += step;
        for (a, off) in offs.iter_mut().enumerate() {
            *off += step * strides[a * nv + v];
        }
        if step == 1 {
            return true;
        }
    }
    false
}

impl std::fmt::Debug for TapeKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TapeKernel")
            .field("name", &self.name)
            .field("tape_len", &self.tape.len())
            .finish_non_exhaustive()
    }
}

/// The generated dense GEMM `A(i,j) += B(i,k) * C(k,j)`: the blocked
/// driver of layer 2, run through the micro-kernel variant dispatched for
/// this host — bit-identical to the interpreter by the parity rule.
#[derive(Debug)]
pub(crate) struct GemmGenKernel;

impl Kernel for GemmGenKernel {
    fn name(&self) -> &str {
        "gemm.gen"
    }

    fn execute(&self, ctx: &mut KernelCtx) {
        gemm::dispatched().execute(ctx);
    }
}

/// What the leaf tests of this crate build, copy and inspect: a kernel
/// argument that owns its buffer, lent to a leaf as the borrowed
/// [`KernelArg`](distal_runtime::kernel::KernelArg) it runs on.
#[cfg(test)]
pub(crate) mod testing {
    use distal_machine::geom::{Point, Rect};
    use distal_runtime::csr::SparseBuffer;
    use distal_runtime::kernel::{ArgData, KernelArg, KernelCtx};
    use distal_runtime::program::Privilege;
    use std::sync::Arc;

    #[derive(Clone, Debug)]
    pub(crate) struct OwnedArg {
        pub privilege: Privilege,
        pub rect: Rect,
        pub alloc: Rect,
        pub data: Vec<f64>,
        pub sparse: Option<Arc<SparseBuffer>>,
    }

    impl OwnedArg {
        /// A writable dense argument allocated exactly over `rect`.
        pub(crate) fn dense(rect: Rect, data: Vec<f64>) -> Self {
            OwnedArg {
                privilege: Privilege::ReadWrite,
                rect,
                alloc: rect,
                data,
                sparse: None,
            }
        }

        /// The view a kernel gets: shared for `Read`, exclusive otherwise.
        pub(crate) fn lend(&mut self) -> KernelArg<'_> {
            KernelArg {
                privilege: self.privilege,
                rect: self.rect,
                alloc: self.alloc,
                data: match self.privilege {
                    Privilege::Read => ArgData::Read(&self.data),
                    _ => ArgData::Write(&mut self.data),
                },
                sparse: self.sparse.clone(),
            }
        }

        pub(crate) fn at(&self, p: &[i64]) -> f64 {
            self.data[self.alloc.linearize(&Point::from_slice(p))]
        }

        pub(crate) fn set(&mut self, p: &[i64], v: f64) {
            self.lend().set(p, v);
        }
    }

    /// Runs `kernel` over views lent by `args`, in order.
    pub(crate) fn run_on(
        args: &mut [OwnedArg],
        scalars: &[i64],
        kernel: impl FnOnce(&mut KernelCtx<'_>),
    ) {
        let mut ctx = KernelCtx {
            args: args.iter_mut().map(OwnedArg::lend).collect(),
            point: Point::zeros(1),
            scalars: scalars.to_vec(),
        };
        kernel(&mut ctx);
    }

    /// xorshift64*, the generator the leaf properties draw cases from.
    pub(crate) struct Rng(pub u64);

    impl Rng {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        pub(crate) fn below(&mut self, n: u64) -> i64 {
            (self.next() % n) as i64
        }

        pub(crate) fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Mostly values in ±0.5; now and then a signed zero, a
        /// subnormal, or ±1e300 (whose products overflow to ±inf, and
        /// whose sums of opposite infinities are NaN on every path alike).
        pub(crate) fn finite(&mut self) -> f64 {
            let sign = if self.next() & 1 == 0 { 1.0 } else { -1.0 };
            match self.next() % 16 {
                0 => sign * 0.0,
                1 => sign * f64::from_bits(1 + self.next() % 1000),
                2 => sign * 1e300,
                _ => self.unit() - 0.5,
            }
        }
    }

    /// An argument whose allocation is wider than `rect` by a random
    /// margin on every side, so the row stride exceeds the extent.
    pub(crate) fn wide_arg(rng: &mut Rng, rect: Rect, fill: impl Fn(&mut Rng) -> f64) -> OwnedArg {
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
}

#[cfg(test)]
mod tests {
    use super::testing::{run_on, OwnedArg};
    use super::*;
    use distal_machine::geom::Rect;

    impl<'a> LeafRequest<'a> {
        /// A request for `assignment` over dense operands.
        fn dense(assignment: &'a Assignment, accumulate: bool) -> Self {
            let n = assignment.input_accesses().len();
            LeafRequest {
                assignment,
                compressed: vec![false; n],
                accumulate,
            }
        }
    }

    /// Runs `kernel` over dense args shaped for `a`, with each variable
    /// spanning `0..n`.
    fn run(kernel: &dyn Kernel, a: &Assignment, n: i64, seed: u64) -> Vec<f64> {
        let nv = a.all_vars().len();
        let mut args = Vec::new();
        for (idx, acc) in a.accesses().iter().enumerate() {
            let dims: Vec<i64> = acc.indices.iter().map(|_| n).collect();
            let rect = Rect::sized(&dims);
            let vol = rect.volume().max(1) as usize;
            let d = if idx == 0 {
                vec![0.0; vol]
            } else {
                crate::random_data(vol, seed + idx as u64)
            };
            args.push(OwnedArg::dense(rect, d));
        }
        let mut scalars = Vec::new();
        for _ in 0..nv {
            scalars.push(0);
            scalars.push(n - 1);
        }
        run_on(&mut args, &scalars, |ctx| kernel.execute(ctx));
        args.swap_remove(0).data
    }

    #[test]
    fn tape_matches_interpreter_across_statements() {
        for stmt in [
            "A(i,j) = B(i,k) * C(k,j)",
            "A(i,j) = B(i,j,k) * c(k)",
            "A(i,l) = B(i,j,k) * C(j,l) * D(k,l)",
            "a = B(i,j,k) * C(i,j,k)",
            "A(i) = B(i) + C(i)",
            "A(i) = B(i) * 2.5 + C(i)",
            "A(i,j) = B(j,i)",
        ] {
            let a = Assignment::parse(stmt).unwrap();
            let interp = InterpreterKernel::new(a.clone(), a.is_reduction());
            let req = LeafRequest::dense(&a, a.is_reduction());
            let tape = TapeKernel::new(&req);
            let want = run(&interp, &a, 5, 11);
            let got = run(&tape, &a, 5, 11);
            assert_eq!(want.len(), got.len(), "{stmt}");
            for (g, w) in got.iter().zip(want.iter()) {
                assert_eq!(g.to_bits(), w.to_bits(), "{stmt}");
            }
        }
    }

    #[test]
    fn tape_stride1_naming() {
        // Last var `k` is the final index of B and c: stride-1.
        let ttv = Assignment::parse("A(i,j) = B(i,j,k) * c(k)").unwrap();
        assert_eq!(
            TapeKernel::new(&LeafRequest::dense(&ttv, true)).name(),
            "tape.s1"
        );
        // Matmul's last var `k` is B's *first* index: strided.
        let mm = distal_ir::expr::kernels::matmul();
        assert_eq!(
            TapeKernel::new(&LeafRequest::dense(&mm, true)).name(),
            "tape"
        );
    }

    #[test]
    fn generated_gemm_matches_interpreter() {
        let a = distal_ir::expr::kernels::matmul();
        let gen = run(&GemmGenKernel, &a, 7, 3);
        let interp = run(&InterpreterKernel::new(a.clone(), true), &a, 7, 3);
        for (g, i) in gen.iter().zip(interp.iter()) {
            assert_eq!(g.to_bits(), i.to_bits());
        }
    }

    #[test]
    fn leaf_for_honours_the_substitute_command() {
        let leaf = |a: &Assignment, kind: Option<LeafKind>, compressed: [bool; 2]| {
            let s = kind.map_or_else(Schedule::new, |k| Schedule::new().substitute(&["i"], k));
            leaf_for(a, &s, compressed.to_vec(), true).map(|k| k.name().to_string())
        };
        let mm = distal_ir::expr::kernels::matmul();
        let (dense, csr) = ([false, false], [true, false]);
        for (kind, compressed, want) in [
            (None, dense, "gemm.gen"),
            (Some(LeafKind::Auto), dense, "gemm.gen"),
            (Some(LeafKind::Gemm), dense, "gemm.gen"),
            // Compression routes the GEMM substitution to the sparse leaf.
            (Some(LeafKind::Gemm), csr, "csr.gen"),
            (Some(LeafKind::Interpreter), csr, "interpreter"),
        ] {
            assert_eq!(leaf(&mm, kind, compressed).unwrap(), want, "{kind:?}");
        }
        let lit = Assignment::parse("A(i,j) = B(i,k) * C(k,j) * 2.0").unwrap();
        for not_a_matmul in [distal_ir::expr::kernels::ttv(), lit] {
            assert!(matches!(
                leaf(&not_a_matmul, Some(LeafKind::Gemm), dense),
                Err(CompileError::BadSubstitution(m)) if m.contains("matmul-shaped")
            ));
        }
    }

    #[test]
    fn dense_request_shape() {
        let a = Assignment::parse("A(i,j) = B(i,k) * C(k,j)").unwrap();
        let req = LeafRequest::dense(&a, true);
        assert_eq!(req.compressed, vec![false, false]);
        assert!(req.accumulate);
    }

    #[test]
    fn dispatch_picks_expected_variants() {
        let leaf = |stmt: &str, compressed: &[bool]| {
            let a = Assignment::parse(stmt).unwrap();
            let mut r = LeafRequest::dense(&a, true);
            if !compressed.is_empty() {
                r.compressed = compressed.to_vec();
            }
            specialize(&r).name().to_string()
        };
        let mm = "A(i,j) = B(i,k) * C(k,j)";
        assert_eq!(leaf(mm, &[]), "gemm.gen");
        // A compressed first operand: the sparse leaf, whatever the shape.
        for stmt in [
            mm,
            "a(i) = B(i,j) * c(j)",
            "A(i,j) = B(i,j) * C(i,k) * D(k,j)",
            "A(i,j) = B(i,j,k) * c(k)",
            "A(i,l) = B(i,j,k) * C(j,l) * D(k,l)",
            "A(i,j,l) = B(i,j,k) * C(k,l)",
            "a = B(i,j,k) * C(i,j,k)",
        ] {
            let n = Assignment::parse(stmt).unwrap().input_accesses().len();
            let mut compressed = vec![false; n];
            compressed[0] = true;
            assert_eq!(leaf(stmt, &compressed), "csr.gen", "{stmt}");
        }
        // Compression beyond the first operand: the operands execute
        // densely through the GEMM.
        assert_eq!(leaf(mm, &[true, true]), "gemm.gen");
        // A repeated variable in the compressed access, a literal factor:
        // never the sparse leaf.
        assert_eq!(leaf("a(i) = B(i,j,j) * c(j)", &[true, false]), "tape");
        let lit = "A(i,j) = B(i,k) * C(k,j) * 2.0";
        assert_eq!(leaf(lit, &[true, false]), "tape");
        assert_eq!(leaf(lit, &[]), "tape");
    }
}
