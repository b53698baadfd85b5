//! Cross-backend cost comparison: the same `Problem` + schedule priced by
//! the dynamic runtime's model-mode simulator and by the static SPMD
//! backend's α-β model, for SUMMA and Cannon at p ∈ {4, 9, 16}.
//!
//! Both estimates flow through the unified `Problem` → `Backend` →
//! `Plan` → `Instance` pipeline (`distal_spmd::CostBackend`), so this sweep is
//! also an end-to-end exercise of the backend abstraction: one problem
//! definition, two cost models, one normalized `Report` schema. The two
//! models price different machines abstractions (simulated channels +
//! task DAG vs. α-β messages on a torus), so the sweep reports both
//! makespans and their ratio rather than gating on agreement — the gate
//! is that every candidate compiles, prices finite and positive on both,
//! and moves a consistent byte volume.

use distal_algs::matmul::MatmulAlgorithm;
use distal_algs::setup::matmul_problem_on;
use distal_core::{Backend, Problem, Report, RuntimeBackend, Schedule};
use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
use distal_spmd::{AlphaBeta, CostBackend};
use std::fmt::Write as _;

/// One (algorithm, processor count) comparison.
#[derive(Clone, Debug)]
pub struct BackendBenchRow {
    /// Algorithm name (Figure 9 naming).
    pub algorithm: String,
    /// Requested processor count.
    pub p: i64,
    /// Matrix side length.
    pub n: i64,
    /// The grid the algorithm factored `p` into.
    pub grid: Vec<i64>,
    /// Model-mode simulator makespan (seconds).
    pub sim_makespan_s: f64,
    /// Compute-phase bytes the simulator's coherence analysis moved.
    pub sim_bytes: u64,
    /// SPMD α-β makespan (seconds).
    pub ab_makespan_s: f64,
    /// Bytes of the static message schedule.
    pub ab_bytes: u64,
    /// `sim_makespan_s / ab_makespan_s` — how the two models relate.
    pub ratio: f64,
}

/// Builds the shared matmul problem + schedule of `alg` on `p`
/// processors (cost backends hold no numerics; a zero fill marks the
/// inputs valid for the model-mode simulator).
fn problem_for(alg: MatmulAlgorithm, p: i64, n: i64) -> (Problem, Schedule) {
    let (mut problem, schedule) = matmul_problem_on(
        alg,
        MachineSpec::small(p.max(1) as usize),
        ProcKind::Cpu,
        MemKind::Sys,
        p,
        n,
        (n / 4).max(1),
    )
    .unwrap();
    for t in ["B", "C"] {
        problem.fill(t, 0.0).unwrap();
    }
    (problem, schedule)
}

/// Prices one problem on one cost backend, returning the compute report.
fn price(problem: &Problem, backend: &dyn Backend, schedule: &Schedule) -> Report {
    let mut artifact = problem
        .compile(backend, schedule)
        .unwrap_or_else(|e| panic!("cost compile failed: {e}"));
    artifact
        .place()
        .unwrap_or_else(|e| panic!("cost placement failed: {e}"));
    artifact
        .execute()
        .unwrap_or_else(|e| panic!("cost execution failed: {e}"))
}

/// The sweep: SUMMA and Cannon at each processor count.
pub fn backends_bench(n: i64, ps: &[i64]) -> Vec<BackendBenchRow> {
    let mut rows = Vec::new();
    for &p in ps {
        for alg in [MatmulAlgorithm::Summa, MatmulAlgorithm::Cannon] {
            let (problem, schedule) = problem_for(alg, p, n);
            // Both α-β parameters derive from the same physical spec the
            // simulator prices, so the models disagree only where their
            // abstractions do.
            let ab_model = AlphaBeta::from_spec(problem.spec());
            let sim = price(&problem, &RuntimeBackend::model(), &schedule);
            let ab = price(&problem, &CostBackend::alpha_beta(ab_model), &schedule);
            rows.push(BackendBenchRow {
                algorithm: alg.name(),
                p,
                n,
                grid: problem.machine().grid().dims().to_vec(),
                sim_makespan_s: sim.critical_path_s,
                sim_bytes: sim.bytes_moved,
                ab_makespan_s: ab.critical_path_s,
                ab_bytes: ab.bytes_moved,
                ratio: sim.critical_path_s / ab.critical_path_s,
            });
        }
    }
    rows
}

/// Renders the sweep as a table.
pub fn render(rows: &[BackendBenchRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>4} {:>6} {:>7} {:>13} {:>11} {:>13} {:>11} {:>7}",
        "algorithm",
        "p",
        "n",
        "grid",
        "sim makespan",
        "sim bytes",
        "αβ makespan",
        "αβ bytes",
        "ratio"
    );
    for r in rows {
        let grid = r
            .grid
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("x");
        let _ = writeln!(
            out,
            "{:<16} {:>4} {:>6} {:>7} {:>11.1}us {:>11} {:>11.1}us {:>11} {:>7.2}",
            r.algorithm,
            r.p,
            r.n,
            grid,
            r.sim_makespan_s * 1e6,
            r.sim_bytes,
            r.ab_makespan_s * 1e6,
            r.ab_bytes,
            r.ratio
        );
    }
    out
}

/// Serializes the rows as JSON (hand-rolled; no serde in the workspace).
pub fn to_json(rows: &[BackendBenchRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"algorithm\": \"{}\", \"p\": {}, \"n\": {}, \"grid\": {:?}, \
             \"sim_makespan_s\": {:.9}, \"sim_bytes\": {}, \
             \"ab_makespan_s\": {:.9}, \"ab_bytes\": {}, \"ratio\": {:.4}}}{comma}",
            r.algorithm,
            r.p,
            r.n,
            r.grid,
            r.sim_makespan_s,
            r.sim_bytes,
            r.ab_makespan_s,
            r.ab_bytes,
            r.ratio
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_prices_every_cell_finite() {
        let rows = backends_bench(24, &[4, 9]);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                r.sim_makespan_s.is_finite() && r.sim_makespan_s > 0.0,
                "{r:?}"
            );
            assert!(
                r.ab_makespan_s.is_finite() && r.ab_makespan_s > 0.0,
                "{r:?}"
            );
            assert!(r.ab_bytes > 0, "{r:?}");
            assert!(r.ratio.is_finite() && r.ratio > 0.0, "{r:?}");
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let rows = backends_bench(12, &[4]);
        let j = to_json(&rows);
        assert!(j.contains("\"ab_makespan_s\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
