//! The DISTAL compiler: from tensor index notation + formats + schedules to
//! distributed task programs.
//!
//! Pipeline layers 1–3 and 5 (problem, schedule, plan/instance, kernel
//! specialization) — `ARCHITECTURE.md` at the workspace root maps all
//! six layers.
//!
//! This crate ties the workspace together, mirroring the pipeline of paper
//! Figure 3:
//!
//! ```text
//! tensor index notation ──► concrete index notation ──► scheduling rewrites
//!        (distal-ir)               (distal-ir)             (distal-ir)
//!                                                                │
//! tensor distribution notation ──► placement map                 ▼
//!        (distal-format)                └──────────► task creation + comm.
//!                                                    analysis (this crate)
//!                                                                │
//!                                                                ▼
//!                                       Legion-like runtime program
//!                                             (distal-runtime)
//! ```
//!
//! The main entry points are:
//!
//! * [`Problem`] — statement + registered tensors + abstract machine, the
//!   target-agnostic front door: one problem compiles onto any
//!   [`Backend`] (the dynamic [`RuntimeBackend`] here, the static SPMD
//!   and cost backends in `distal-spmd`) into a cacheable [`Plan`],
//!   which binds per-request data into an [`Instance`] with a common
//!   `place`/`execute`/`read`/[`Report`] surface;
//! * [`Schedule`] — the chainable scheduling language of Figure 2
//!   (`divide`, `split`, `reorder`, `distribute`, `communicate`, `rotate`);
//! * [`CompiledKernel`] — what a [`RuntimePlan`] lowers a scheduled
//!   statement to: placement + compute [`distal_runtime::Program`]s.
//!
//! # Example: Figure 2 (SUMMA on a 2×2 grid), on the unified pipeline
//!
//! ```
//! use distal_core::{Backend, DistalMachine, Problem, RuntimeBackend, Schedule, TensorSpec};
//! use distal_format::Format;
//! use distal_machine::{Grid, spec::{MachineSpec, MemKind, ProcKind}};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
//! let mut problem = Problem::new(MachineSpec::small(2), machine);
//! problem.statement("A(i,j) = B(i,k) * C(k,j)")?;
//! let tiled = Format::parse("xy->xy", MemKind::Sys)?;
//! let n = 8;
//! for name in ["A", "B", "C"] {
//!     problem.tensor(TensorSpec::new(name, vec![n, n], tiled.clone()))?;
//! }
//! problem.fill_random("B", 1)?.fill_random("C", 2)?;
//!
//! let schedule = Schedule::summa(2, 2, 4);
//! let mut instance = RuntimeBackend::functional().compile(&problem, &schedule)?;
//! let report = instance.run()?;
//! let a = instance.read("A")?;
//! assert_eq!(a.len(), 64);
//! assert!(report.flops > 0.0);
//! # Ok(())
//! # }
//! ```

// Denied rather than forbidden: `kernelgen::gemm`'s entry into its
// `#[target_feature]` instantiation allows it by name, the one exception in
// the workspace (every other crate forbids it).
#![deny(unsafe_code)]

pub mod backend;
mod cache;
mod diagnostic;
mod error;
pub mod kernelgen;
pub mod kernels;
pub mod lint;
pub mod lower;
mod machine;
pub(crate) mod mapper;
pub mod nest;
pub mod oracle;
pub mod plan;
pub mod problem;
mod report;
mod schedule;

pub use backend::{Backend, BackendError, RuntimeBackend, RuntimeInstance, RuntimePlan};
pub use cache::{CacheStats, PlanKey, ShardedPlanCache};
pub use diagnostic::{verified_clean, Diagnostic, DiagnosticKind, Severity};
pub use error::CompileError;
pub use lint::{admit, lint_schedule, Lint, LintConfig, LintLevel};
pub use lower::{CompileOptions, CompiledKernel};
pub use machine::DistalMachine;
pub use nest::lowering_count;
pub use plan::{init_nnz, Bindings, Instance, Plan};
pub use problem::{random_data, sparse_random_data, Problem, TensorId, TensorInit, TensorSpec};
pub use report::{Provenance, Report};
pub use schedule::{LeafKind, SchedCmd, Schedule};
