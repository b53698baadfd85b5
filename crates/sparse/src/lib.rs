//! Compressed tensor storage and sparse leaf kernels (the SpDISTAL layer).
//!
//! Pipeline layers 1 and 5 (storage formats, sparse leaves) —
//! `ARCHITECTURE.md` at the workspace root maps all six layers.
//!
//! DISTAL's sequel, *SpDISTAL: Compiling Distributed Sparse Tensor
//! Computations* (Yadav et al.), distributes sparse tensors through the
//! same scheduling and distribution language as the dense compiler; the
//! per-dimension level-format interface follows *Format Abstraction for
//! Sparse Tensor Algebra Compilers* (Chou et al.). This crate supplies the
//! storage half of that design for the rest of the workspace:
//!
//! * [`SparseBuffer`] — a CSR-style compressed buffer (`pos`/`crd`/`vals`
//!   arrays over the innermost dimension) with lossless dense↔sparse
//!   conversion and exact payload-byte accounting;
//! * [`kernels`] — sparse leaf kernels for SpMV, SpMM, and SDDMM, both as
//!   pure functions over [`SparseBuffer`]s (the reference) and as the
//!   generated [`distal_runtime::kernel::Kernel`] implementations the
//!   compiler picks for leaves whose first operand is compressed. The kernels
//!   iterate only stored coordinates and are bit-identical to the dense
//!   leaves on the same data (skipped entries are exact zeros, whose
//!   products contribute `±0.0` that never changes an accumulator that is
//!   itself never `-0.0`);
//! * accounting helpers ([`stored_entries`], [`csr_payload_bytes`],
//!   [`estimated_payload_bytes`]) shared by the runtime's copy accounting
//!   and the SPMD backend's nnz-sized messages.

#![forbid(unsafe_code)]

pub mod buffer;
pub mod kernels;

pub use buffer::{
    csr_payload_bytes, csr_payload_scale, estimated_payload_bytes, stored_entries, SparseBuffer,
};
pub use kernels::{SddmmGenLeaf, SpmmGenLeaf, SpmvGenLeaf};

/// Bytes of one `pos` array entry (row offsets, `u64`-sized on the wire).
pub const POS_BYTES: u64 = 8;

/// Bytes of one `crd` array entry (stored coordinates, `i64`-sized).
pub const CRD_BYTES: u64 = 8;
