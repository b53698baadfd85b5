//! Serial-vs-parallel executor benchmark: host wall-clock time of
//! functional-mode matmul runs under both [`ExecutorKind`]s.
//!
//! The paper's performance story rests on the runtime overlapping
//! communication and computation (§6). In this reproduction the simulated
//! timing already models that overlap; this harness measures the *host*
//! side — how much faster the functional numerics complete when the
//! work-stealing pool of [`ExecutorKind::Parallel`] runs DAG-ready leaf
//! kernels and copies on all cores, against [`ExecutorKind::Serial`].
//! Parity of results is asserted on every row (bit-identical output,
//! equal stats).
//!
//! Beside it, per row, what the runtime's trace slots save: model mode
//! runs no kernels, so `bind → place → execute` of a plan's first instance
//! is the dependence analysis and the timing pass, and the same three
//! calls on its second instance are what is left once both are replayed.
//!
//! Usage: `distal-bench exec [--assert-speedup X] [--assert-replay R]
//! [sizes...]` (sizes default to 64 128 256).
//!
//! `--assert-speedup X` exits nonzero unless the best SUMMA speedup at the
//! largest benched size reaches `X` — the executor-regression gate CI runs
//! on multi-core runners (skipped, with a note, on single-core hosts where
//! no speedup is physically possible).
//!
//! `--assert-replay R` exits nonzero unless, on every row, a model-mode
//! `bind → place → execute` of a plan's second instance (which replays the
//! recorded dependence analysis) costs at most `R` × its first instance's
//! (which records it) — a ratio taken on one host, like the other.

use crate::args::Args;
use distal_algs::matmul::MatmulAlgorithm;
use distal_algs::setup::{matmul_problem, RunConfig};
use distal_core::{Instance, Plan};
use distal_machine::spec::MachineSpec;
use distal_runtime::executor::host_worker_count;
use distal_runtime::{ExecutorKind, Mode, RunStats};
use std::fmt::Write as _;
use std::time::Instant;

/// One serial-vs-parallel comparison.
#[derive(Clone, Debug)]
struct ExecBenchRow {
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
fn bench_one(alg: MatmulAlgorithm, nodes: usize, n: i64) -> ExecBenchRow {
    let (serial_s, serial_a, serial_stats) = timed_run(alg, ExecutorKind::Serial, nodes, n);
    let (parallel_s, parallel_a, parallel_stats) = timed_run(alg, ExecutorKind::Parallel, nodes, n);
    let verified = serial_stats == parallel_stats && crate::bits_equal(&serial_a, &parallel_a);
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
fn exec_bench(sizes: &[i64]) -> Vec<ExecBenchRow> {
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
fn render(rows: &[ExecBenchRow]) -> String {
    let workers = host_worker_count(0);
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

/// The `exec` command.
pub(crate) fn run(mut args: Args) -> Result<(), String> {
    let assert_speedup: Option<f64> = args.value("--assert-speedup")?;
    let assert_replay: Option<f64> = args.value("--assert-replay")?;
    let mut sizes: Vec<i64> = args.positionals()?;
    if sizes.is_empty() {
        sizes = vec![64, 128, 256];
    }

    let rows = exec_bench(&sizes);
    print!("{}", render(&rows));
    if rows.iter().any(|r| !r.verified) {
        eprintln!("executor parity violated; see table");
        std::process::exit(1);
    }
    if let Some(threshold) = assert_replay {
        for r in &rows {
            let ratio = r.replay_s / r.record_s;
            if ratio > threshold {
                eprintln!(
                    "trace replay regression: {} n={} replays at {ratio:.2} of its recording \
                     run, allowed {threshold:.2}",
                    r.algorithm, r.n
                );
                std::process::exit(4);
            }
        }
        println!("replay assertion passed: every row within {threshold:.2} of its recording run");
    }
    if let Some(threshold) = assert_speedup {
        let host_cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if host_cores < 2 {
            println!("speedup assertion skipped: single-core host ({host_cores} core)");
            return Ok(());
        }
        let largest = rows.iter().map(|r| r.n).max().unwrap_or(0);
        let best = rows
            .iter()
            .filter(|r| r.n == largest && r.algorithm.contains("SUMMA"))
            .map(|r| r.speedup)
            .fold(f64::MIN, f64::max);
        if best < threshold {
            eprintln!(
                "parallel executor speedup regression: best SUMMA speedup at n={largest} \
                 is {best:.2}x, required {threshold:.2}x"
            );
            std::process::exit(3);
        }
        println!("speedup assertion passed: {best:.2}x >= {threshold:.2}x at n={largest}");
    }
    Ok(())
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
