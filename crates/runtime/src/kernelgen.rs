//! [`LeafRequest`]: what a plan-time specialization of a leaf statement
//! into a monomorphized [`Kernel`](crate::kernel::Kernel) is asked for.
//!
//! DISTAL's leaves are vendor-grade kernels — Figure 2 of the paper
//! substitutes `CuBLAS::GeMM` for the inner loop nest — while a generic
//! interpreter walks the expression tree point by point. The compiler
//! (`distal_core::kernelgen::specialize`) turns a request into a kernel at
//! **plan time** (`Backend::plan`), so the cost of specialization is paid
//! once per plan and every `bind` of that plan reuses the same generated
//! kernel.
//!
//! Where this sits in the `Problem -> Plan -> Instance` pipeline:
//!
//! ```text
//! Problem + Schedule ──► Backend::plan ──► Plan (cacheable, data-free)
//!                          │                 │
//!                          │ kernelgen::specialize(&LeafRequest)
//!                          ▼                 ▼
//!                     Arc<dyn Kernel>   Plan::bind(Bindings) ──► Instance
//!                     (tape / gemm /      (shares the Arc; never
//!                      spmv / ...)         re-specializes)
//! ```
//!
//! A [`LeafRequest`] carries everything that decides the generated code:
//! the statement, which inputs are stored compressed, and the accumulation
//! discipline of the executing backend. The generated kernel is
//! **bit-identical** to the interpreter over the same request — fast paths
//! may reorder *independent* output elements but never the floating-point
//! accumulation order within one output element.
//!
//! Adding a new kernel class means adding a shape test + emitter behind
//! `specialize`; callers (the runtime lowering, the SPMD rank VM) are
//! oblivious — they just execute whatever kernel they were handed, and its
//! `Kernel::name` surfaces the chosen variant in run statistics and
//! traces.

use distal_ir::expr::Assignment;

/// One leaf statement to specialize: the inputs to kernel generation that
/// change what code should run.
#[derive(Clone, Debug)]
pub struct LeafRequest {
    /// The statement the leaf executes.
    pub assignment: Assignment,
    /// Per right-hand-side access (in access order): is that operand
    /// stored in a compressed level format? Drives sparse fast paths and
    /// zero-skipping.
    pub compressed: Vec<bool>,
    /// `true` when the kernel must *add* into the output (reductions, and
    /// the SPMD rank VM which always accumulates into a zeroed buffer);
    /// `false` when it overwrites.
    pub accumulate: bool,
    /// `true` when points where any compressed operand's gathered value
    /// has a zero bit pattern must be skipped entirely (the SPMD VM's
    /// pruning discipline for pure-product statements over dense tiles of
    /// compressed tensors). Dense-path requests leave this `false`.
    pub skip_zero: bool,
}

impl LeafRequest {
    /// A dense, non-skipping request for `assignment`.
    pub fn dense(assignment: Assignment, accumulate: bool) -> Self {
        let n = assignment.input_accesses().len();
        LeafRequest {
            assignment,
            compressed: vec![false; n],
            accumulate,
            skip_zero: false,
        }
    }

    /// True when any input operand is compressed.
    pub fn any_compressed(&self) -> bool {
        self.compressed.iter().any(|&c| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_request_shape() {
        let a = Assignment::parse("A(i,j) = B(i,k) * C(k,j)").unwrap();
        let req = LeafRequest::dense(a, true);
        assert_eq!(req.compressed, vec![false, false]);
        assert!(!req.any_compressed());
        let mut s = req.clone();
        s.compressed[0] = true;
        assert!(s.any_compressed());
    }
}
