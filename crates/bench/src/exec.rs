//! Serial-vs-parallel executor benchmark: host wall-clock time of
//! functional-mode matmul runs under both executors.
//!
//! The paper's performance story rests on the runtime overlapping
//! communication and computation (§6). In this reproduction the simulated
//! timing already models that overlap; this harness measures the *host*
//! side — how much faster the functional numerics complete when the
//! work-stealing [`ParallelExecutor`] runs DAG-ready leaf kernels and
//! copies on all cores, against the [`distal_runtime::SerialExecutor`]
//! baseline. Parity of
//! results is asserted on every row (bit-identical output, equal stats).
//!
//! Beside it, per row, what the runtime's trace slots save: model mode
//! runs no kernels, so `bind → place → execute` of a plan's first instance
//! is the dependence analysis and the timing pass, and the same three
//! calls on its second instance are what is left once both are replayed.

use distal_algs::matmul::MatmulAlgorithm;
use distal_algs::setup::{matmul_problem, RunConfig};
use distal_core::{Instance, Plan};
use distal_machine::spec::MachineSpec;
use distal_runtime::{ExecutorKind, Mode, ParallelExecutor, RunStats};
use std::fmt::Write as _;
use std::time::Instant;

/// One serial-vs-parallel comparison.
#[derive(Clone, Debug)]
pub struct ExecBenchRow {
    /// Algorithm name (Figure 9 naming).
    pub algorithm: String,
    /// Matrix side length.
    pub n: i64,
    /// Simulated node count.
    pub nodes: usize,
    /// Wall-clock seconds of the compute program under the serial executor.
    pub serial_s: f64,
    /// Wall-clock seconds under the parallel executor.
    pub parallel_s: f64,
    /// `serial_s / parallel_s`.
    pub speedup: f64,
    /// Model-mode `bind → place → execute` of a plan's first instance,
    /// which records both programs' traces.
    pub record_s: f64,
    /// The same of the plan's second instance, which replays them.
    pub replay_s: f64,
    /// Whether both executors produced bit-identical outputs and stats.
    pub verified: bool,
}

fn timed_run(
    alg: MatmulAlgorithm,
    kind: ExecutorKind,
    nodes: usize,
    n: i64,
) -> (f64, Vec<f64>, RunStats) {
    let mut config = RunConfig::cpu(nodes, Mode::Functional);
    config.spec = MachineSpec::small(nodes);
    config.executor = kind;
    let (problem, schedule) = matmul_problem(alg, &config, n, (n / 4).max(1)).expect("problem");
    let mut instance = config
        .backend()
        .compile_typed(&problem, &schedule)
        .expect("bench instance");
    instance.place_stats().expect("placement");
    let t0 = Instant::now();
    let stats = instance.execute_stats().expect("compute");
    let elapsed = t0.elapsed().as_secs_f64();
    (elapsed, instance.read("A").expect("output"), stats)
}

/// Seconds of a model-mode request on a plan's first and second instance,
/// each the fastest over a few fresh plans.
fn record_and_replay(alg: MatmulAlgorithm, nodes: usize, n: i64) -> (f64, f64) {
    let mut config = RunConfig::cpu(nodes, Mode::Model);
    config.spec = MachineSpec::small(nodes);
    let (problem, schedule) = matmul_problem(alg, &config, n, (n / 4).max(1)).expect("problem");
    let bindings = problem.bindings();
    let mut best = (f64::MAX, f64::MAX);
    for _ in 0..5 {
        let plan = config
            .backend()
            .plan_typed(&problem, &schedule)
            .expect("bench plan");
        let request = || {
            let t0 = Instant::now();
            let mut instance = plan.bind(&bindings).expect("bench instance");
            instance.run().expect("model run");
            t0.elapsed().as_secs_f64()
        };
        best = (best.0.min(request()), best.1.min(request()));
    }
    best
}

/// Benchmarks one algorithm at one size, verifying executor parity.
pub fn bench_one(alg: MatmulAlgorithm, nodes: usize, n: i64) -> ExecBenchRow {
    let (serial_s, serial_a, serial_stats) = timed_run(alg, ExecutorKind::Serial, nodes, n);
    let (parallel_s, parallel_a, parallel_stats) = timed_run(alg, ExecutorKind::Parallel, nodes, n);
    let verified = serial_stats == parallel_stats
        && serial_a.len() == parallel_a.len()
        && serial_a
            .iter()
            .zip(&parallel_a)
            .all(|(s, p)| s.to_bits() == p.to_bits());
    let (record_s, replay_s) = record_and_replay(alg, nodes, n);
    ExecBenchRow {
        algorithm: alg.name(),
        n,
        nodes,
        serial_s,
        parallel_s,
        speedup: serial_s / parallel_s.max(1e-12),
        record_s,
        replay_s,
        verified,
    }
}

/// The default sweep: SUMMA and Cannon at a few sizes on 4 simulated nodes.
pub fn exec_bench(sizes: &[i64]) -> Vec<ExecBenchRow> {
    let nodes = 4;
    let mut rows = Vec::new();
    for alg in [MatmulAlgorithm::Summa, MatmulAlgorithm::Cannon] {
        for &n in sizes {
            rows.push(bench_one(alg, nodes, n));
        }
    }
    rows
}

/// Renders the comparison as a table.
pub fn render(rows: &[ExecBenchRow]) -> String {
    let workers = ParallelExecutor::new(0).worker_count();
    let mut out = String::new();
    let _ = writeln!(out, "parallel executor workers: {workers}");
    let _ = writeln!(
        out,
        "{:<16} {:>6} {:>6} {:>12} {:>12} {:>9} {:>10} {:>10} {:>9}",
        "algorithm",
        "n",
        "nodes",
        "serial s",
        "parallel s",
        "speedup",
        "record ms",
        "replay ms",
        "parity"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>6} {:>12.4} {:>12.4} {:>8.2}x {:>10.3} {:>10.3} {:>9}",
            r.algorithm,
            r.n,
            r.nodes,
            r.serial_s,
            r.parallel_s,
            r.speedup,
            r.record_s * 1e3,
            r.replay_s * 1e3,
            if r.verified { "ok" } else { "MISMATCH" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_rows_verify_parity() {
        let row = bench_one(MatmulAlgorithm::Summa, 2, 32);
        assert!(row.verified, "executor parity violated in bench run");
        assert!(row.serial_s > 0.0 && row.parallel_s > 0.0);
        assert!(row.record_s > 0.0 && row.replay_s > 0.0);
    }
}
