//! Plan-time leaf-kernel selection and generation: statements become
//! monomorphized leaf kernels at plan time.
//!
//! [`leaf_for`] is the one place a leaf kernel is chosen. Both lowerings
//! (`crate::lower::compile` and the SPMD backend's `lower_with`) call it
//! with the schedule's `substitute` command, so the command means the same
//! on every backend: `LeafKind::Interpreter` runs the reference
//! [`InterpreterKernel`], `LeafKind::Gemm` insists on a matmul-shaped
//! statement, and the automatic choice [`specialize`]s the request.
//!
//! Three layers of specialization, tried in order:
//!
//! 1. **CSR leaves** (`spmv.gen` / `spmm.gen` / `sddmm.gen`, in the
//!    private `sparse` module) for the SpDISTAL shapes whose first input —
//!    and only that one — is compressed, on an accumulating statement that
//!    does not also write that tensor.
//!
//!    *The operand is CSR from `bind` to leaf.* The chosen leaf names the
//!    argument it reads compressed (`Kernel::sparse_arg`); that is the
//!    one place CSR-vs-dense is decided. `lower::compile` records the
//!    tensor on the plan (`CompiledKernel::csr_operand`), `bind` builds
//!    one `SparseBuffer` for it — a single pass over borrowed `Data`,
//!    straight from the value stream of `RandomSparse`, or the caller's
//!    own image through `Bindings::set_sparse` — and hangs it off the
//!    runtime region. Every task then receives that one shared image
//!    (`KernelArg::sparse`, `data` empty, `alloc` the rectangle it
//!    covers) and walks the row slab `pos[ilo] .. pos[ihi + 1]` of it:
//!    SpDISTAL's row partition, computed on `pos`.
//!
//!    *The column-restriction rule.* When the tile does not span every
//!    column the image covers, each row's stored entries are cut to
//!    `[lo, hi]` by two `partition_point`s on the row's ascending `crd`;
//!    a tile that does span them pays nothing.
//!
//!    *The parity rule.* The leaves visit the same stored entries, in the
//!    same ascending-column order, with the same product association, as
//!    a left-to-right scan of the dense tile that skips `+0.0` bit
//!    patterns — what they did before they were handed CSR, kept as a
//!    `#[cfg(test)]` oracle, not as a second path. Hence they are
//!    bit-identical to it, and by the `±0.0` argument in `distal-sparse`
//!    to [`InterpreterKernel`] and the dense leaves; a 512-case property
//!    per leaf holds them to both.
//!
//!    *The SPMD rank VM* keeps dense rank stores. It compresses the face
//!    of the operand with `SparseBuffer::from_dense` — the one scan of
//!    the face, where the buffer holding it lies when that is one
//!    contiguous run, otherwise in the gathered copy — and passes it with
//!    `alloc` = the face rectangle. Under `substitute(.., Interpreter)`
//!    no leaf reads CSR and every tensor binds dense.
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
//!    x86-64 has exactly two: `baseline 2x8`, compiled for the build's
//!    target (SSE2), and `avx2 4x8` under `#[target_feature(enable =
//!    "avx2")]`; every other architecture has the baseline alone.
//!
//!    *The dispatch rule.* The variant is chosen by
//!    `is_x86_feature_detected!("avx2")` on the first leaf execution —
//!    never in `plan`, `bind` or set-up — and there is nothing to select
//!    it with: no option, environment variable or cargo feature. Plan
//!    keys and both lowerings see one kernel named `gemm.gen`.
//!
//!    *The parity rule.* Per output element the sum starts from the
//!    stored `A` value and adds `B(i,k)·C(k,j)` for ascending `k`, each a
//!    separately rounded multiply and add. The driver keeps that: it
//!    enables `avx2` but never `fma` and never calls `f64::mul_add` (a
//!    fused multiply–add rounds once; without the target feature the
//!    intrinsic is a libm call), storing and reloading the tile between
//!    `k` blocks is exact, blocking reorders only independent output
//!    elements, and padded lanes are computed and discarded. Hence it is
//!    bit-identical to [`InterpreterKernel`], to the row-at-a-time
//!    `(i, k, j)` loop it replaced (kept as a test oracle) and across
//!    instruction sets; a property test holds every variant the host can
//!    run to both oracles.
//!
//!    *Measured and left out.* An AVX-512 `8x16` instantiation: on the
//!    development host it runs 40–45 GFLOP/s standing alone where `avx2
//!    4x8` runs 28–33, and takes a `dense_runtime` request from 14.9 to
//!    12.3 ms — but it would be a third body to hold bit-identical, on an
//!    instruction set CI runners need not have; the rule stays at most
//!    two instantiations per architecture until that variant can be
//!    tested where it merges. A packed `B`: the `MR` rows of `B` a strip
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
//! [`InterpreterKernel`] over the same request: fast
//! paths reorder only independent output elements, never the
//! accumulation order within one output element, and visiting only
//! stored entries follows the `±0.0` argument documented in
//! `distal-sparse`.
//!
//! A plan holds the kernel it was specialized to, so a plan bound many
//! times pays for kernel generation once; the plan cache does the same
//! for many requests over one statement. [`specialize_count`] counts the
//! kernels built on the calling thread; `tests/plan_reuse.rs` asserts it
//! stays flat across `bind`/`run` of an existing plan.

use crate::error::CompileError;
use crate::kernels::{is_matmul, is_sddmm, is_spmv, rhs_is_access_product, InterpreterKernel};
use crate::schedule::{LeafKind, Schedule};
use distal_ir::expr::{Assignment, Expr, IndexVar};
use distal_runtime::kernel::{Kernel, KernelCtx};
use distal_runtime::kernelgen::LeafRequest;
use std::sync::Arc;

mod gemm;
mod sparse;

#[doc(hidden)]
pub use gemm::{gemm_variants, MicroKernel};

thread_local! {
    /// Per-thread count of specializations. Binding or running an
    /// already-planned statement must leave this untouched — the
    /// plan-reuse analogue of `lower::compile_count`.
    static SPECIALIZATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many leaf kernels were generated on the calling thread.
pub fn specialize_count() -> u64 {
    SPECIALIZATIONS.with(|c| c.get())
}

/// Chooses the leaf kernel of `assignment` under `schedule`'s
/// `substitute` command (Figure 2 line 40 substitutes a vendor GEMM at the
/// leaves) — at plan time; `bind` never reaches it.
///
/// `compressed` flags the right-hand-side operands stored in a compressed
/// level format, `accumulate` and `skip_zero` are the executing backend's
/// discipline (see [`LeafRequest`]). Without a command, or with
/// `LeafKind::Auto`, the request is [`specialize`]d. `LeafKind::Gemm` asks
/// for the optimized leaf of a matmul; compression still routes it to the
/// CSR-specialized SpMM when the stored operand admits one (a strictly
/// better "vendor kernel"). `LeafKind::Interpreter` runs the per-point
/// reference, which never skips: over finite data that is bit-identical to
/// a skipping kernel (the `±0.0` argument in `distal-sparse`).
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
    skip_zero: bool,
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
        assignment: assignment.clone(),
        compressed,
        accumulate,
        skip_zero,
    }))
}

/// Specializes a leaf request into a kernel.
pub fn specialize(req: &LeafRequest) -> Arc<dyn Kernel> {
    SPECIALIZATIONS.with(|c| c.set(c.get() + 1));
    build(req)
}

/// Shape dispatch per the module docs.
fn build(req: &LeafRequest) -> Arc<dyn Kernel> {
    let a = &req.assignment;
    let pure = rhs_is_access_product(a);
    let first_only = req.compressed.first().copied().unwrap_or(false)
        && req.compressed.iter().skip(1).all(|c| !c);
    // A CSR leaf is handed its first operand as one read-only image, so
    // that tensor must not also be the one written.
    let read_only = a
        .input_accesses()
        .first()
        .is_some_and(|first| first.tensor != a.lhs.tensor);
    // The CSR paths visit exactly the first operand's stored entries,
    // which is both the runtime's canonical sparse-leaf behaviour and the
    // SPMD VM's pruning discipline when only that operand is compressed.
    // This is the one place CSR-vs-dense is decided: the chosen leaf says
    // so through `Kernel::sparse_arg`, and both lowerings read it there.
    if pure && first_only && read_only && req.accumulate {
        if is_spmv(a) {
            return Arc::new(sparse::SpmvGenLeaf);
        }
        if is_matmul(a) {
            return Arc::new(sparse::SpmmGenLeaf);
        }
        if is_sddmm(a) {
            return Arc::new(sparse::SddmmGenLeaf);
        }
    }
    // The dense GEMM never skips, so it is only valid when no skipping
    // was requested (compressed operands outside the canonical shapes
    // execute densely in the runtime, where skip_zero is false).
    let skip_needed = req.skip_zero && req.any_compressed();
    if pure && req.accumulate && !skip_needed && is_matmul(a) {
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
pub struct TapeKernel {
    name: &'static str,
    tape: Vec<TapeOp>,
    stack_cap: usize,
    /// Per access (destination first): positions into `all_vars` of each
    /// of the access's index variables.
    maps: Vec<Vec<usize>>,
    n_vars: usize,
    accumulate: bool,
    /// Per input access: prune points where this operand's value has a
    /// zero bit pattern (the SPMD VM's compressed-operand discipline).
    skip: Vec<bool>,
    any_skip: bool,
}

impl TapeKernel {
    /// Compiles a request's statement into a tape kernel.
    pub fn new(req: &LeafRequest) -> Self {
        let a = &req.assignment;
        let vars: Vec<IndexVar> = a.all_vars();
        let pos = |v: &IndexVar| vars.iter().position(|x| x == v).expect("unknown var");
        let mut maps: Vec<Vec<usize>> = Vec::new();
        maps.push(a.lhs.indices.iter().map(pos).collect());
        for acc in a.input_accesses() {
            maps.push(acc.indices.iter().map(pos).collect());
        }
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
        let n_vars = vars.len();
        let stride1 = n_vars > 0
            && maps.iter().all(|m| {
                m.iter()
                    .enumerate()
                    .all(|(d, &vi)| vi != n_vars - 1 || d == m.len() - 1)
            });
        let skip = if req.skip_zero {
            req.compressed.clone()
        } else {
            vec![false; maps.len() - 1]
        };
        let any_skip = skip.iter().any(|&s| s);
        TapeKernel {
            name: if stride1 { "tape.s1" } else { "tape" },
            tape,
            stack_cap,
            maps,
            n_vars,
            accumulate: req.accumulate,
            skip,
            any_skip,
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
            let mut pruned = false;
            for (ii, val) in vals.iter_mut().enumerate() {
                let v = ctx.args[ii + 1].at(&[]);
                *val = v;
                pruned |= self.skip[ii] && v.to_bits() == 0;
            }
            if !pruned {
                let v = eval_tape(&self.tape, &vals, &mut stack);
                let out = &mut ctx.args[0];
                if self.accumulate {
                    out.add(&[], v);
                } else {
                    out.set(&[], v);
                }
            }
            return;
        }
        let mut lo = vec![0i64; nv];
        let mut hi = vec![0i64; nv];
        for v in 0..nv {
            lo[v] = ctx.scalars[2 * v];
            hi[v] = ctx.scalars[2 * v + 1];
            if hi[v] < lo[v] {
                return; // empty leaf (over-decomposed launch point)
            }
        }
        // Per access: row-major base offset at the `lo` corner and the
        // linear stride of each statement variable (repeated variables
        // within one access sum their dimension strides).
        let mut base = vec![0i64; na];
        let mut strides = vec![0i64; na * nv];
        let mut coords: Vec<i64> = Vec::with_capacity(nv);
        for (ai, map) in self.maps.iter().enumerate() {
            let arg = &ctx.args[ai];
            coords.clear();
            coords.extend(map.iter().map(|&vi| lo[vi]));
            base[ai] = arg.offset(&coords) as i64;
            let mut s = 1i64;
            for d in (0..map.len()).rev() {
                strides[ai * nv + map[d]] += s;
                s *= arg.alloc.extent(d);
            }
        }
        let inner = nv - 1;
        let n_inner = (hi[inner] - lo[inner]) as usize + 1;
        let mut point = lo.clone();
        let mut offs = vec![0i64; na];
        loop {
            // Offsets for this row (inner variable at its lower bound).
            for ai in 0..na {
                let mut o = base[ai];
                for v in 0..inner {
                    o += strides[ai * nv + v] * (point[v] - lo[v]);
                }
                offs[ai] = o;
            }
            for step in 0..n_inner as i64 {
                let mut pruned = false;
                for (ii, val) in vals.iter_mut().enumerate() {
                    let ai = ii + 1;
                    let off = offs[ai] + step * strides[ai * nv + inner];
                    let v = ctx.args[ai].data[off as usize];
                    *val = v;
                    pruned |= self.any_skip && self.skip[ii] && v.to_bits() == 0;
                }
                if pruned {
                    continue;
                }
                let v = eval_tape(&self.tape, &vals, &mut stack);
                let oo = (offs[0] + step * strides[inner]) as usize;
                if self.accumulate {
                    ctx.args[0].data[oo] += v;
                } else {
                    ctx.args[0].data[oo] = v;
                }
            }
            // Advance the outer odometer (variables before the inner one).
            if inner == 0 {
                return;
            }
            let mut d = inner;
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
    }
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
pub struct GemmGenKernel;

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
                rect: rect.clone(),
                alloc: rect,
                data,
                sparse: None,
            }
        }

        /// The view a kernel gets: shared for `Read`, exclusive otherwise.
        pub(crate) fn lend(&mut self) -> KernelArg<'_> {
            KernelArg {
                privilege: self.privilege,
                rect: self.rect.clone(),
                alloc: self.alloc.clone(),
                data: match self.privilege {
                    Privilege::Read => ArgData::Read(&self.data),
                    _ => ArgData::Write(&mut self.data),
                },
                sparse: self.sparse.clone(),
            }
        }

        pub(crate) fn at(&self, p: &[i64]) -> f64 {
            self.data[self.alloc.linearize(&Point::new(p.to_vec()))]
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
}

#[cfg(test)]
mod tests {
    use super::testing::{run_on, OwnedArg};
    use super::*;
    use distal_machine::geom::Rect;

    fn data(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        (0..n)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
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
                data(vol, seed + idx as u64)
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
            let req = LeafRequest::dense(a.clone(), a.is_reduction());
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
            TapeKernel::new(&LeafRequest::dense(ttv, true)).name(),
            "tape.s1"
        );
        // Matmul's last var `k` is B's *first* index: strided.
        let mm = distal_ir::expr::kernels::matmul();
        assert_eq!(
            TapeKernel::new(&LeafRequest::dense(mm, true)).name(),
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
            leaf_for(a, &s, compressed.to_vec(), true, true).map(|k| k.name().to_string())
        };
        let mm = distal_ir::expr::kernels::matmul();
        let (dense, csr) = ([false, false], [true, false]);
        for (kind, compressed, want) in [
            (None, dense, "gemm.gen"),
            (Some(LeafKind::Auto), dense, "gemm.gen"),
            (Some(LeafKind::Gemm), dense, "gemm.gen"),
            // Compression routes the GEMM substitution to the CSR SpMM.
            (Some(LeafKind::Gemm), csr, "spmm.gen"),
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
    fn tape_skip_zero_prunes_flagged_operands() {
        let a = Assignment::parse("A(i) = B(i) * C(i)").unwrap();
        let mut req = LeafRequest::dense(a, true);
        req.compressed = vec![true, false];
        req.skip_zero = true;
        let tape = TapeKernel::new(&req);
        let r = Rect::sized(&[3]);
        let mut args = [
            OwnedArg::dense(r.clone(), vec![0.0; 3]),
            OwnedArg::dense(r.clone(), vec![0.0, -0.0, 2.0]),
            OwnedArg::dense(r, vec![5.0, 5.0, 5.0]),
        ];
        run_on(&mut args, &[0, 2], |ctx| tape.execute(ctx));
        // +0.0 pruned; -0.0 is a *stored* entry (nonzero bits) and
        // computes -0.0 * 5.0 = -0.0 added into +0.0 -> +0.0.
        assert_eq!(args[0].data, vec![0.0, 0.0, 10.0]);
        assert_eq!(args[0].data[1].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn dispatch_picks_expected_variants() {
        let mm = distal_ir::expr::kernels::matmul();
        assert_eq!(
            build(&LeafRequest::dense(mm.clone(), true)).name(),
            "gemm.gen"
        );
        let mut sp = LeafRequest::dense(mm.clone(), true);
        sp.compressed = vec![true, false];
        assert_eq!(build(&sp).name(), "spmm.gen");
        let spmv = Assignment::parse("a(i) = B(i,j) * c(j)").unwrap();
        let mut r = LeafRequest::dense(spmv, true);
        r.compressed = vec![true, false];
        assert_eq!(build(&r).name(), "spmv.gen");
        let sddmm = Assignment::parse("A(i,j) = B(i,j) * C(i,k) * D(k,j)").unwrap();
        let mut r = LeafRequest::dense(sddmm, true);
        r.compressed = vec![true, false, false];
        assert_eq!(build(&r).name(), "sddmm.gen");
        // Compression beyond the first operand with skipping: tape.
        let mut both = LeafRequest::dense(mm.clone(), true);
        both.compressed = vec![true, true];
        both.skip_zero = true;
        assert_eq!(build(&both).name(), "tape");
        // Literal factor: never a specialized product kernel.
        let lit = Assignment::parse("A(i,j) = B(i,k) * C(k,j) * 2.0").unwrap();
        assert_eq!(build(&LeafRequest::dense(lit, true)).name(), "tape");
    }
}
