//! Automatic schedule and format selection for DISTAL.
//!
//! Searches over pipeline layers 2–3 (schedules, scored plans) —
//! `ARCHITECTURE.md` at the workspace root maps all six layers.
//!
//! The paper's future-work section (§9) envisions "auto-scheduling and
//! auto-formatting frameworks for DISTAL ... With automatic schedule and
//! format selection, application developers could independently achieve
//! high performance". This crate builds that framework on top of the
//! reproduction's compiler and cost-model simulator:
//!
//! 1. [`enumerate_candidates`] lists *candidates* — joint (machine grid,
//!    tensor formats, schedule) choices — from three generic families that
//!    span the paper's design space:
//!    * **owner-computes** (2D-style): distribute a subset of the output's
//!      free variables, keep the output stationary, and stream reduction
//!      chunks (SUMMA's shape, Figure 2);
//!    * **systolic** (Cannon-style): the same, plus a `rotate` of the
//!      reduction loop so transfers become neighbour shifts;
//!    * **reduction-distributed** (3D/Johnson-style): also distribute a
//!      reduction variable, fixing tensors to faces of the processor grid
//!      and folding partial outputs at the end.
//! 2. [`AutoScheduler`] compiles every candidate through the unified
//!    `Problem` → `Backend` → `Plan` → `Instance` pipeline and scores the backend's
//!    normalized report. The default backend is the runtime's cost-model
//!    simulator (`Mode::Model`); [`AutoScheduler::search_with`] /
//!    [`AutoScheduler::score_with`] accept any other
//!    [`distal_core::Backend`] — notably the SPMD α-β model
//!    (`distal_spmd::CostBackend::alpha_beta`), which prices each
//!    candidate's exact static message schedule. Candidates that exceed
//!    memory (the 3D algorithms at scale, §7.1.2) are reported infeasible
//!    rather than silently dropped.
//!
//! Both steps report a malformed input — an expression that does not
//! parse, a tensor without a shape, shapes that disagree on an extent —
//! as the [`distal_core::CompileError`] compiling it would give.
//!
//! The search therefore *rediscovers* the classic algorithms from the
//! machine description: square grids favour the 2D family, cubes with
//! spare memory favour the 3D family, and tight framebuffers knock the 3D
//! family out — the same trade-offs the paper's Figure 15 shows.
//!
//! # Example
//!
//! ```
//! use distal_autosched::{AutoScheduler, SearchConfig};
//! use distal_machine::spec::MachineSpec;
//! use std::collections::BTreeMap;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut dims = BTreeMap::new();
//! for t in ["A", "B", "C"] {
//!     dims.insert(t.to_string(), vec![64, 64]);
//! }
//! let scheduler = AutoScheduler::new(SearchConfig::cpu(MachineSpec::small(2)));
//! let result = scheduler.search("A(i,j) = B(i,k) * C(k,j)", &dims)?;
//! let best = result.best().expect("at least the sequential candidate");
//! println!("picked {} ({:.3} ms simulated)", best.candidate.name, best.makespan_s * 1e3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod search;
mod space;

pub use search::{AutoScheduler, Evaluation, SearchConfig, SearchResult};
pub use space::{enumerate_candidates, Candidate, SpaceOptions};
