//! # DISTAL: The Distributed Tensor Algebra Compiler
//!
//! A Rust reproduction of *DISTAL: The Distributed Tensor Algebra Compiler*
//! (Yadav, Aiken, Kjolstad — PLDI 2022), including the Legion-like
//! task-based runtime substrate it targets, the ScaLAPACK/CTF/COSMA
//! comparison systems, and the full evaluation harness.
//!
//! This crate is a façade re-exporting the workspace's crates:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`machine`] | `distal-machine` | machine grids, hierarchies, cost model |
//! | [`runtime`] | `distal-runtime` | Legion-like runtime (regions, tasks, mapper, simulator) |
//! | [`ir`] | `distal-ir` | tensor index notation, concrete index notation, scheduling rewrites |
//! | [`mod@format`] | `distal-format` | tensor distribution notation (`T xy ↦ xy0 M`) + per-dimension level formats |
//! | [`sparse`] | `distal-sparse` | CSR-style compressed storage and sparse leaf kernels (SpMV/SpMM/SDDMM) |
//! | [`core`] | `distal-core` | the compiler: problems, schedules, the nest analysis, lowering, plans and the plan cache |
//! | [`lint`] | `distal-core` (`distal_core::lint`) | schedule admission: legality typechecker + performance lints |
//! | [`algs`] | `distal-algs` | Figure 9 algorithms + §7.2 higher-order kernels |
//! | [`baselines`] | `distal-baselines` | ScaLAPACK / CTF / COSMA re-implementations |
//! | [`spmd`] | `distal-spmd` | static SPMD/MPI-style backend with compile-time communication (§8) |
//! | [`autosched`] | `distal-autosched` | automatic schedule + format selection (§9) |
//! | [`serve`] | `distal-serve` | concurrent serving engine: sharded plan cache + batched admission |
//!
//! # Quickstart (Figure 2)
//!
//! One [`Problem`](distal_core::Problem) — statement + tensors + machine —
//! compiles onto any backend and runs behind the same
//! [`Instance`](distal_core::Instance) surface:
//!
//! ```
//! use distal::prelude::*;
//!
//! // A 2x2 grid of abstract processors over one node's CPU sockets.
//! let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
//! let mut problem = Problem::new(MachineSpec::small(2), machine);
//! problem.statement("A(i,j) = B(i,k) * C(k,j)")?;
//!
//! // Tensors are distributed in 2D tiles (the `Distribution tiles` of
//! // Figure 2, lines 4-15).
//! let tiles = Format::parse("xy->xy", MemKind::Sys)?;
//! for name in ["A", "B", "C"] {
//!     problem.tensor(TensorSpec::new(name, vec![64, 64], tiles.clone()))?;
//! }
//! problem.fill_random("B", 1)?.fill_random("C", 2)?;
//!
//! // The SUMMA schedule of Figure 2, lines 23-40, on the dynamic
//! // runtime...
//! let schedule = Schedule::summa(2, 2, 16);
//! let mut dynamic = problem.compile(&RuntimeBackend::functional(), &schedule)?;
//! dynamic.run()?;
//!
//! // ...and the *same problem* on the static SPMD (MPI-style) backend.
//! let mut statik = problem.compile(&SpmdBackend::new(), &schedule)?;
//! statik.run()?;
//! assert_eq!(dynamic.read("A")?, statik.read("A")?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub use distal_algs as algs;
pub use distal_autosched as autosched;
pub use distal_baselines as baselines;
pub use distal_core as core;
pub use distal_core::lint;
pub use distal_format as format;
pub use distal_ir as ir;
pub use distal_machine as machine;
pub use distal_runtime as runtime;
pub use distal_serve as serve;
pub use distal_sparse as sparse;
pub use distal_spmd as spmd;

/// Commonly used items for examples and applications.
pub mod prelude {
    pub use distal_algs::higher_order::HigherOrderKernel;
    pub use distal_algs::matmul::MatmulAlgorithm;
    pub use distal_algs::setup::RunConfig;
    pub use distal_core::{
        Backend, BackendError, Bindings, CacheStats, CompileError, CompiledKernel, Diagnostic,
        DiagnosticKind, DistalMachine, Instance, LeafKind, Lint, LintConfig, LintLevel, Plan,
        PlanKey, Problem, Provenance, Report, RuntimeBackend, RuntimeInstance, Schedule, Severity,
        ShardedPlanCache, TensorInit, TensorSpec,
    };
    pub use distal_format::{Format, LevelFormat, TensorDistribution};
    pub use distal_ir::expr::Assignment;
    pub use distal_machine::geom::{Point, Rect};
    pub use distal_machine::grid::{Grid, MachineHierarchy};
    pub use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
    pub use distal_runtime::{
        Executor, ExecutorKind, Mode, ParallelExecutor, RunStats, Runtime, SerialExecutor,
    };
    pub use distal_serve::{ServeConfig, ServeRequest, ServeResponse, ServingEngine};
    pub use distal_sparse::SparseBuffer;
    pub use distal_spmd::{AlphaBeta, CostBackend, SpmdBackend, ThreadedConfig, Transport};
}

/// Runs the code snippets in `ARCHITECTURE.md` as doctests, so the
/// architecture guide can never drift from the compiling API.
#[doc = include_str!("../ARCHITECTURE.md")]
#[cfg(doctest)]
pub struct ArchitectureDoctests;
