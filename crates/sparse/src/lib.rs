//! Compressed tensor storage and the reference sparse kernels (the
//! SpDISTAL layer).
//!
//! Pipeline layers 1 and 5 (storage formats, sparse leaves) —
//! `ARCHITECTURE.md` at the workspace root maps all six layers.
//!
//! DISTAL's sequel, *SpDISTAL: Compiling Distributed Sparse Tensor
//! Computations* (Yadav et al.), distributes sparse tensors through the
//! same scheduling and distribution language as the dense compiler and
//! keeps `pos`/`crd`/`vals` as the distributed data structure; the
//! per-dimension level-format interface follows *Format Abstraction for
//! Sparse Tensor Algebra Compilers* (Chou et al.). This crate is the
//! storage half of that design and nothing else — no `Kernel`
//! implementation lives here:
//!
//! * [`SparseBuffer`] — the workspace's one compressed type, a CSR-style
//!   buffer (`pos`/`crd`/`vals` arrays over the innermost dimension) with
//!   lossless dense↔sparse conversion and exact payload-byte accounting.
//!   It is *defined* in `distal_runtime::csr`, because a runtime region
//!   holds one as its data image, and re-exported here under the paths
//!   it has always had;
//! * [`kernels`] — SpMV, SpMM and SDDMM as pure functions over whole
//!   [`SparseBuffer`]s: a reference the sparse leaf is tested against,
//!   with the `±0.0` argument for why iterating only stored coordinates
//!   is bit-identical to the dense leaves on the same data. The leaf
//!   itself, `csr.gen`, one driver for every statement it takes, lives in
//!   `distal_core::kernelgen`, which decides — once, at plan time — which
//!   tensor it reads as CSR;
//! * accounting helpers ([`stored_entries`], [`csr_payload_bytes`],
//!   [`estimated_payload_bytes`], [`csr_payload_scale`]) shared by the
//!   runtime's copy accounting and the SPMD backend's nnz-sized messages.

#![forbid(unsafe_code)]

pub mod kernels;

pub use distal_runtime::csr::{
    csr_payload_bytes, csr_payload_scale, estimated_payload_bytes, stored_entries, SparseBuffer,
    CRD_BYTES, POS_BYTES,
};
