//! Re-implementations of the systems the paper compares against (§7.1).
//!
//! Comparison systems beside the pipeline — `ARCHITECTURE.md` at the
//! workspace root maps the six layers they are measured against.
//!
//! The systems:
//! ScaLAPACK, the Cyclops Tensor Framework (CTF), and COSMA — each running
//! on the same simulated substrate as DISTAL so that the comparison isolates
//! the *distribution strategy*, which is exactly what the paper evaluates.
//!
//! Per the paper's own analysis, the baselines differ from DISTAL in:
//!
//! * **ScaLAPACK** — SUMMA with bulk-synchronous phases (no overlap of
//!   communication and computation, §7.1.1) on a 2D block distribution;
//! * **CTF** — the 2.5D algorithm for GEMM, also bulk-synchronous; for
//!   higher-order expressions, every contraction is *matricized*: tensors
//!   are redistributed/reshaped into matrices, multiplied with the internal
//!   distributed GEMM, and reshaped back (§8: "CTF casts tensor contractions
//!   into a series of distributed matrix-multiplication operations and
//!   transposes") — the redistribution of the large 3-tensor is the
//!   "unnecessary communication" behind Figure 16's gaps;
//! * **COSMA** — the communication-optimal grid from its cost model with
//!   full compute/communication overlap; it uses all 40 cores per node
//!   where DISTAL reserves 4 for the runtime (the "Restricted CPUs" variant
//!   levels that field), and on GPUs it stages tiles through host memory
//!   (out-of-core), avoiding the framebuffer DMA penalty but paying
//!   host↔device transfers.

#![forbid(unsafe_code)]

pub mod common;
pub mod cosma;
pub mod ctf;
pub mod scalapack;

pub use common::{BaselineSystem, Phase, PhasedRun};
