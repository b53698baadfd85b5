//! Leaf kernels and the functional-mode execution context.
//!
//! A [`Kernel`] is the body of a task: it receives views over the physical
//! instances backing each of the task's region requirements and computes on
//! them. Kernels are registered per [`crate::program::Program`] and invoked
//! only in [`crate::exec::Mode::Functional`]; model mode uses the cost fields
//! of [`crate::program::TaskDesc`] instead.

use crate::csr::SparseBuffer;
use crate::program::Privilege;
use distal_machine::geom::{Point, Rect};
use std::sync::Arc;

/// A view over one region requirement's backing instance.
///
/// The view exposes the requirement rectangle (`rect`) and the allocation
/// bounds of the buffer it borrows (`alloc`); elements are addressed by
/// *global* tensor coordinates and mapped to the row-major layout over
/// `alloc`.
///
/// The argument *borrows* its buffer for `'a`, the lifetime of the task:
/// whoever runs the kernel keeps the physical instance (under its lock, on
/// the runtime; inside the rank store, on the SPMD VM) and lends it where
/// it lies, so `alloc` is usually wider than `rect` — a kernel strides
/// through `alloc` and touches only `rect`. A [`Privilege::Read`]
/// argument borrows shared ([`ArgData::Read`]): many concurrent tasks may
/// hold the same instance. Every other privilege borrows mutably
/// ([`ArgData::Write`]), and at most one argument of a task does so per
/// instance. The aliasing rule: a `Read` requirement on an instance the
/// same task also writes is lent a private copy of the instance taken
/// before the kernel starts, never the buffer being written.
///
/// An argument arrives in one of two forms. Dense: `data` is the buffer
/// and `sparse` is `None`. Compressed — a region held as CSR
/// ([`crate::region::LogicalRegion::csr`]), or a face the SPMD rank VM
/// has just compressed: `sparse` is the image, `data` is empty (the
/// element accessors below must not be used) and `alloc` is the rectangle
/// the image covers — its row `r` is outer coordinate `alloc.lo()[0] + r`
/// and a stored `crd` value `c` is innermost coordinate
/// `alloc.lo()[dim - 1] + c`. The image is shared and immutable; `rect`
/// is still the part of it the task may read, so a task's slab is
/// `pos[ilo - alloc.lo()[0]] .. pos[ihi - alloc.lo()[0] + 1]` of the
/// shared arrays. Only a kernel that names the argument in
/// [`Kernel::sparse_arg`] is handed this form by a compiled plan.
#[derive(Debug)]
pub struct KernelArg<'a> {
    /// The privilege the task holds on this argument.
    pub privilege: Privilege,
    /// The rectangle the task may touch.
    pub rect: Rect,
    /// Allocation bounds of the borrowed buffer.
    pub alloc: Rect,
    /// The borrowed buffer (row-major over `alloc`). Empty when `sparse`
    /// is set.
    pub data: ArgData<'a>,
    /// The compressed image standing in for `data` (see the type docs).
    pub sparse: Option<Arc<SparseBuffer>>,
}

/// The buffer a [`KernelArg`] borrows: shared for [`Privilege::Read`],
/// exclusive for every privilege that writes. Dereferences to the slice;
/// writing through a `Read` borrow is a bug in the kernel and panics.
#[derive(Debug)]
pub enum ArgData<'a> {
    /// A shared borrow: the argument may only be read.
    Read(&'a [f64]),
    /// An exclusive borrow: the argument may be read and written.
    Write(&'a mut [f64]),
}

impl std::ops::Deref for ArgData<'_> {
    type Target = [f64];

    #[inline]
    fn deref(&self) -> &[f64] {
        match self {
            ArgData::Read(data) => data,
            ArgData::Write(data) => data,
        }
    }
}

impl std::ops::DerefMut for ArgData<'_> {
    /// # Panics
    ///
    /// Panics on a [`ArgData::Read`] borrow.
    #[inline]
    fn deref_mut(&mut self) -> &mut [f64] {
        match self {
            ArgData::Read(_) => panic!("a kernel wrote through a Read argument"),
            ArgData::Write(data) => data,
        }
    }
}

impl KernelArg<'_> {
    /// Reads the element at global coordinates `p`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `p` is outside the allocation.
    #[inline]
    pub fn at(&self, p: &[i64]) -> f64 {
        self.data[self.offset(p)]
    }

    /// Writes the element at global coordinates `p`.
    #[inline]
    pub fn set(&mut self, p: &[i64], v: f64) {
        let off = self.offset(p);
        self.data[off] = v;
    }

    /// Adds `v` to the element at global coordinates `p`.
    #[inline]
    pub fn add(&mut self, p: &[i64], v: f64) {
        let off = self.offset(p);
        self.data[off] += v;
    }

    /// Row-major offset of global coordinates `p` within the allocation.
    #[inline]
    pub fn offset(&self, p: &[i64]) -> usize {
        debug_assert_eq!(p.len(), self.alloc.dim());
        let mut idx: i64 = 0;
        for d in 0..self.alloc.dim() {
            debug_assert!(
                self.alloc.lo()[d] <= p[d] && p[d] <= self.alloc.hi()[d],
                "coordinate {p:?} outside allocation {:?}",
                self.alloc
            );
            idx = idx * self.alloc.extent(d) + (p[d] - self.alloc.lo()[d]);
        }
        idx as usize
    }
}

/// The context handed to a kernel: one [`KernelArg`] per region requirement
/// (in requirement order) plus the task's launch point and scalars.
#[derive(Debug)]
pub struct KernelCtx<'a> {
    /// Views over the task's region requirements, in requirement order.
    pub args: Vec<KernelArg<'a>>,
    /// The task's launch-domain point.
    pub point: Point,
    /// Scalar arguments from the task descriptor.
    pub scalars: Vec<i64>,
}

/// A leaf computation run by tasks in functional mode.
pub trait Kernel: Send + Sync {
    /// Human-readable kernel name (appears in debug output).
    fn name(&self) -> &str;

    /// Executes the kernel over the views in `ctx`.
    fn execute(&self, ctx: &mut KernelCtx<'_>);

    /// The argument (a position in [`KernelCtx::args`]) this kernel reads
    /// through [`KernelArg::sparse`] instead of `data`, if any. Whoever
    /// runs the kernel must supply that argument compressed: the runtime
    /// lowering records the tensor on the plan so `bind` seeds its region
    /// as CSR, the SPMD rank VM compresses the gathered face.
    fn sparse_arg(&self) -> Option<usize> {
        None
    }
}

/// A kernel that does nothing; useful for placement launches, whose only
/// purpose is to force instances to materialize in mapper-chosen memories.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopKernel;

impl Kernel for NoopKernel {
    fn name(&self) -> &str {
        "noop"
    }

    fn execute(&self, _ctx: &mut KernelCtx<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use distal_machine::geom::{Point, Rect};

    #[test]
    fn kernel_arg_addressing() {
        let alloc = Rect::new(Point::new(vec![2, 4]), Point::new(vec![3, 7]));
        let mut data = vec![0.0; 8];
        let mut arg = KernelArg {
            privilege: Privilege::ReadWrite,
            rect: alloc.clone(),
            alloc,
            data: ArgData::Write(&mut data),
            sparse: None,
        };
        arg.set(&[2, 4], 1.0);
        arg.set(&[3, 7], 9.0);
        arg.add(&[3, 7], 1.0);
        assert_eq!(arg.at(&[2, 4]), 1.0);
        assert_eq!(arg.at(&[3, 7]), 10.0);
        assert_eq!(arg.offset(&[2, 4]), 0);
        assert_eq!(arg.offset(&[3, 7]), 7);
    }

    #[test]
    #[should_panic(expected = "wrote through a Read argument")]
    fn a_read_borrow_refuses_writes() {
        let data = [1.0, 2.0];
        let mut arg = KernelArg {
            privilege: Privilege::Read,
            rect: Rect::sized(&[2]),
            alloc: Rect::sized(&[2]),
            data: ArgData::Read(&data),
            sparse: None,
        };
        assert_eq!(arg.at(&[1]), 2.0);
        arg.set(&[0], 3.0);
    }

    #[test]
    fn noop_kernel_runs() {
        let mut ctx = KernelCtx {
            args: vec![],
            point: Point::zeros(1),
            scalars: vec![],
        };
        NoopKernel.execute(&mut ctx);
        assert_eq!(NoopKernel.name(), "noop");
    }
}
