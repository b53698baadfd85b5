//! Intermediate representations for DISTAL.
//!
//! Pipeline layers 1–2 (statement + scheduling rewrites) —
//! `ARCHITECTURE.md` at the workspace root maps all six layers.
//!
//! This crate implements the compiler-side languages of the paper:
//!
//! * [`expr`] — *tensor index notation* (§2): `A(i,j) = B(i,k) * C(k,j)`,
//!   with validation and a small parser for the examples;
//! * [`cin`] — *concrete index notation* (§5.1): an ordered ∀-loop nest over
//!   index variables with scheduling relations tracked in `s.t.` clauses;
//! * [`provenance`] — how derived index variables (from `split`, `divide`,
//!   `rotate`) relate to the original iteration space, and the interval
//!   arithmetic used by bounds analysis (§6.2);
//! * [`transform`] — the scheduling rewrites (§5.2): `split`, `divide`,
//!   `reorder`, `distribute`, `communicate`, `rotate`;
//! * [`precompute`] — the `precompute` transformation (§2): hoist a
//!   subexpression into a workspace tensor, factoring one statement into
//!   two;
//! * [`execspace`] — the execution-space model of §3.3 (Figures 6–8), used
//!   to test `distribute` and `rotate` semantics against the paper exactly.

#![forbid(unsafe_code)]

pub mod cin;
pub mod execspace;
pub mod expr;
pub mod precompute;
pub mod provenance;
pub mod transform;

pub use cin::{ConcreteNotation, Loop};
pub use expr::{Access, Assignment, Expr, IndexVar, TensorRef};
pub use precompute::{precompute_product, PrecomputeError};
pub use provenance::{Interval, VarDef, VarSolver};
pub use transform::ScheduleError;
