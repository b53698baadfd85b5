//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§7).
//!
//! Measures the whole pipeline end to end — `ARCHITECTURE.md` at the
//! workspace root maps the six layers under test.
//!
//! Each module reproduces one artifact:
//!
//! * [`fig9`] — the Figure 9 algorithm table: per-algorithm communication
//!   pattern (broadcast-tree vs systolic neighbour traffic) + correctness;
//! * [`fig15`] — Figures 15a/15b: weak-scaling GEMM on CPUs and GPUs
//!   against ScaLAPACK, CTF, and COSMA;
//! * [`fig16`] — Figures 16a–d: weak-scaling TTV / Innerprod / TTM / MTTKRP
//!   against CTF;
//! * [`headline`] — the abstract's headline numbers (speedups vs CTF,
//!   ScaLAPACK, COSMA);
//! * [`ablations`] — design-choice studies: `rotate` on/off, `communicate`
//!   granularity, overlap vs bulk-synchronous execution;
//! * [`series`] — sweep infrastructure and table rendering.
//!
//! Binaries: `fig9`, `fig15a`, `fig15b`, `fig16`, `headline`, `ablations`,
//! `all` regenerate the paper; `exec`, `spmd`, `kernels`, `sparse` and
//! `serving` print one table each and hold the `--assert-*` ratio gates
//! CI runs (README "Gates" lists each flag with its property and
//! threshold). None of them is what a change is measured with: that is
//! `bash benchmark/run.sh`.

#![forbid(unsafe_code)]

pub mod ablations;
pub mod exec;
pub mod fig15;
pub mod fig16;
pub mod fig9;
pub mod headline;
pub mod kernels;
pub mod series;
pub mod serving;
pub mod sparse;
pub mod spmd;
