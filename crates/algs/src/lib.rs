//! The algorithm case studies of the paper.
//!
//! Pipeline layer 2 (schedules as reusable builders) —
//! `ARCHITECTURE.md` at the workspace root maps all six layers.
//!
//! * [`matmul`] — the six distributed matrix-multiplication algorithms of
//!   Figure 9 (Cannon, PUMMA, SUMMA, Johnson, Solomonik 2.5D, COSMA), each
//!   expressed exactly as a target machine grid + tensor distribution
//!   notation + schedule;
//! * [`higher_order`] — the §7.2 kernels (TTV, Innerprod, TTM, MTTKRP) with
//!   the communication-minimizing schedules the paper describes;
//! * [`setup`] — helpers that build the ready-to-compile
//!   [`distal_core::Problem`] + [`distal_core::Schedule`] of either family.

#![forbid(unsafe_code)]

pub mod higher_order;
pub mod matmul;
pub mod setup;

pub use higher_order::HigherOrderKernel;
pub use matmul::MatmulAlgorithm;
