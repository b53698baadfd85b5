//! A concurrent serving engine for DISTAL plans.
//!
//! The serving layer above the six compile/execute layers —
//! `ARCHITECTURE.md` at the workspace root maps the full pipeline, and
//! README's "Serving" section shows the engine end to end.
//!
//! DISTAL's compile-once/execute-many split (paper §3–§6;
//! [`Plan`](distal_core::Plan) / [`Bindings`](distal_core::Bindings) /
//! `Instance` in `distal-core`) makes compilation
//! data-independent, but until here everything bound plans from one
//! thread. This crate is the production-shaped front:
//!
//! 1. [`ServingEngine::submit`] computes the request's
//!    [`PlanKey`](distal_core::PlanKey) and enqueues it on a **bounded
//!    queue** — a full queue blocks submitters (backpressure) instead of
//!    growing an unbounded backlog.
//! 2. Worker threads (sized by
//!    [`host_worker_count`](distal_runtime::executor::host_worker_count))
//!    drain the queue, claiming the oldest request **plus every queued
//!    request with the same key** (micro-batching, capped by
//!    [`ServeConfig::max_batch`]).
//! 3. The batch's plan resolves through a
//!    [`ShardedPlanCache`](distal_core::ShardedPlanCache): per-shard
//!    locks keep distinct keys contention-free, and single-flight
//!    guarantees a cold-key stampede runs
//!    [`Backend::plan`](distal_core::Backend::plan) exactly once.
//! 4. Each request [`bind`](distal_core::Plan::bind)s its own
//!    [`Bindings`](distal_core::Bindings) against the shared
//!    `Arc<dyn Plan>` and executes under
//!    a per-worker thread budget
//!    ([`with_thread_budget`](distal_runtime::executor::with_thread_budget)),
//!    so nested executor/rank pools divide the host instead of
//!    multiplying against it.
//!
//! Results come back through [`Ticket::wait`] as [`ServeResponse`]s —
//! per-request [`Report`](distal_core::Report)s (with coherent cache
//! snapshots) plus any tensors the request asked to read, bit-identical
//! to single-threaded execution of the same bindings.
//!
//! ```
//! use distal_core::{Bindings, DistalMachine, Problem, RuntimeBackend, TensorSpec, Schedule};
//! use distal_format::Format;
//! use distal_machine::{Grid, spec::{MachineSpec, MemKind, ProcKind}};
//! use distal_serve::{ServeConfig, ServeRequest, ServingEngine};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
//! let mut problem = Problem::new(MachineSpec::small(2), machine);
//! problem.statement("A(i,j) = B(i,k) * C(k,j)")?;
//! let tiles = Format::parse("xy->xy", MemKind::Sys)?;
//! for t in ["A", "B", "C"] {
//!     problem.tensor(TensorSpec::new(t, vec![8, 8], tiles.clone()))?;
//! }
//! let problem = Arc::new(problem);
//!
//! let engine = ServingEngine::new(RuntimeBackend::functional(), ServeConfig::default());
//! let tickets: Vec<_> = (0..4u64)
//!     .map(|seed| {
//!         let mut bindings = Bindings::new();
//!         bindings.fill_random("B", seed + 1).fill_random("C", seed + 100);
//!         engine.submit(ServeRequest {
//!             problem: Arc::clone(&problem),
//!             schedule: Schedule::summa(2, 2, 4),
//!             bindings,
//!             read: vec!["A".to_string()],
//!         })
//!     })
//!     .collect();
//! for ticket in tickets {
//!     assert_eq!(ticket.wait()?.outputs["A"].len(), 64);
//! }
//! let stats = engine.shutdown();
//! // One key → one compilation, no matter how many requests or workers.
//! assert_eq!(stats.cache.misses, 1);
//! assert_eq!(stats.cache.hits + stats.cache.misses, stats.cache.requests());
//! assert_eq!(stats.bind_lowerings, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod engine;
mod queue;

pub use engine::{
    EngineStats, ServeConfig, ServeRequest, ServeResponse, ServingEngine, Ticket, WorkCounter,
};
