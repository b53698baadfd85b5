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
//! Binaries: `fig9`, `fig15a`, `fig15b`, `fig16`, `headline`, `all`,
//! `exec` (serial-vs-parallel executor wall-clock; writes
//! `BENCH_exec.json`), `spmd` (collective recognition/lowering gate:
//! naive vs tree vs ring schedules under the α-β model; writes
//! `BENCH_spmd.json`), `backends` (runtime-sim vs SPMD α-β cost
//! models over the unified `Problem` pipeline for SUMMA/Cannon at
//! p ∈ {4, 9, 16}; writes `BENCH_backends.json`), and `sparse`
//! (dense vs CSR-compressed bytes moved and α-β makespan for SpMV/SpMM
//! at density ∈ {0.01, 0.1, 0.5} on p ∈ {4, 16}, with the <10%
//! compression gate; writes `BENCH_sparse.json`), and `serving`
//! (compile-once/execute-many: N fresh-data requests over fixed shapes,
//! recompile-per-request vs the keyed plan-cache path on both executable
//! backends, with the `--assert-cache` gate — 100% hits after warm-up,
//! zero bind-path lowerings, amortized compile strictly below recompile;
//! writes `BENCH_serving.json`).
//! Criterion benches (`benches/paper_figures.rs`) run reduced-scale
//! versions of the same harnesses.

#![forbid(unsafe_code)]

pub mod ablations;
pub mod backends;
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
