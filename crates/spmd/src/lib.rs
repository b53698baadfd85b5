//! A static SPMD (MPI-style) backend for DISTAL schedules.
//!
//! Pipeline layers 4 and 6 (collective lowering, rank execution) —
//! `ARCHITECTURE.md` at the workspace root maps all six layers.
//!
//! The paper targets the Legion runtime, which discovers communication
//! *dynamically* from region requirements (§6). Its related-work section
//! (§8) observes that the polyhedral communication analyses of Amarasinghe
//! & Lam and of Bondhugula "could be used as analysis passes for an
//! MPI-based backend for DISTAL and are thus orthogonal to our approach".
//! This crate builds that orthogonal backend:
//!
//! 1. [`lower_problem`] takes the *same* inputs as the Legion-style
//!    backend — a `distal_core::Problem` (statement, tensor formats,
//!    machine grid) and a schedule — and derives, entirely at compile
//!    time, a per-rank program of explicit [`Send`]/[`Recv`]
//!    pairs, leaf [`Compute`] blocks, and reduction folds. Communication
//!    partners are exact (Bondhugula-style), not over-approximated.
//! 2. [`collective`] patterns are recorded by that lowering as it
//!    sources each transfer — one root fanning the same `(tensor, rect)`
//!    to a grid row/column/plane is a `Broadcast`, fan-ins of partial
//!    results a `Reduce`, complete broadcast families an `AllGather` —
//!    and each step is emitted in its final form, every collective as a
//!    binomial-tree or ring schedule over the torus: SUMMA's O(p)
//!    serialized owner fan-outs become O(log p) critical paths at
//!    identical byte volume. [`lower_problem`] with
//!    [`CollectiveConfig::point_to_point`](collective::CollectiveConfig::point_to_point)
//!    records the fans and keeps the naive program.
//! 3. [`cost`] prices any of these programs under an α-β model
//!    (`α · hops + bytes/β` per message, serialized injection per rank),
//!    producing per-rank timelines and a makespan so tree vs. naive vs.
//!    systolic schedules are quantitatively comparable alongside
//!    [`CommStats`].
//! 4. [`SpmdProgram::execute_with`](program::SpmdProgram::execute_with)
//!    runs the per-rank programs on a deterministic rank virtual machine
//!    with real numerics, over either [`Transport`]: the sequential
//!    simulation (the oracle the parity suites trust) or real rank
//!    threads exchanging tagged messages over channels, which measures
//!    wall-clock makespans the α-β model can be validated against.
//! 5. The backend plugs all of it into the unified compile pipeline:
//!    [`SpmdBackend`] compiles a `distal_core::Problem` to an SPMD plan
//!    behind the shared `Backend`/`Plan`/`Instance` traits (deriving
//!    tensors and machine from the problem registry); in model mode
//!    ([`SpmdBackend::alpha_beta`]) it prices candidates under the α-β
//!    model without numerics.
//!
//! The interesting property of the source-selection policy (nearest rank
//! currently holding a valid copy, falling back to the home owner) is that
//! *systolic* patterns emerge from the analysis rather than being
//! special-cased: under Cannon's `rotate` schedule the tile a rank needs at
//! step `s` is exactly the tile its grid neighbour fetched at step `s-1`,
//! so every generated transfer has torus distance 1, while SUMMA's
//! broadcast schedule keeps sourcing from the (farther) home owners.
//!
//! [`Send`]: ops::SpmdOp::Send
//! [`Recv`]: ops::SpmdOp::Recv
//! [`Compute`]: ops::SpmdOp::Compute
//!
//! # Example
//!
//! The same `Problem` that runs on the dynamic runtime compiles here:
//!
//! ```
//! use distal_core::{Backend, DistalMachine, Problem, Schedule, TensorSpec};
//! use distal_format::Format;
//! use distal_machine::grid::Grid;
//! use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
//! use distal_spmd::SpmdBackend;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
//! let mut problem = Problem::new(MachineSpec::small(2), machine);
//! problem.statement("A(i,j) = B(i,k) * C(k,j)")?;
//! let tiled = Format::parse("xy->xy", MemKind::Sys)?;
//! for name in ["A", "B", "C"] {
//!     problem.tensor(TensorSpec::new(name, vec![8, 8], tiled.clone()))?;
//! }
//! problem.fill("B", 1.0)?.fill("C", 2.0)?;
//!
//! let mut instance = SpmdBackend::new().compile(&problem, &Schedule::summa(2, 2, 4))?;
//! let report = instance.run()?;
//! assert!(instance.read("A")?.iter().all(|&v| (v - 16.0).abs() < 1e-9));
//! assert!(report.messages > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod backend;
pub mod collective;
pub mod cost;
pub mod lower;
mod ops;
pub mod program;
mod resolve;
mod stats;
mod transport;
pub mod verify;
mod vm;

pub use backend::{lower_problem, CostBackend, SpmdBackend};
pub use collective::{Collective, CollectiveConfig, CollectiveKind};
pub use cost::{AlphaBeta, CostReport};
pub use lower::SpmdError;
pub use ops::{Message, Named, SpmdOp};
pub use program::{SpmdProgram, SpmdResult};
pub use resolve::resolve_count;
pub use stats::CommStats;
pub use transport::{ThreadedConfig, Transport};
pub use verify::{to_verify_ir, verify_program};
