//! Executor determinism/parity: applying node effects on the work-stealing
//! pool must be observationally identical to applying them in scheduled
//! order — bit-identical output buffers and equal `RunStats` (task/copy
//! counts, bytes per channel class, makespan, copy log) — for every
//! Figure 9 algorithm and for a batch of random einsums. Three arms:
//! `Serial`, `Parallel` resolved to one worker, and `Parallel` on four.
//!
//! This is the safety net for the runtime's concurrency story: the
//! dependence DAG serializes every conflicting access, so applying node
//! side effects in *any* topological order (or concurrently) must not
//! change a single bit of the result.

use distal::algs::matmul::MatmulAlgorithm;
use distal::algs::setup::{matmul_problem, RunConfig};
use distal::prelude::*;

mod common;
use common::{format_1d, generate, schedule_1d, Case, Rng};

/// `(executor, set_executor_threads)`: the first arm is the reference.
const ARMS: [(ExecutorKind, usize); 3] = [
    (ExecutorKind::Serial, 4),
    (ExecutorKind::Parallel, 1),
    (ExecutorKind::Parallel, 4),
];

/// One arm's output and its placement and compute statistics.
type Run = (Vec<f64>, RunStats, RunStats);

/// Asserts every arm's run equals the first's, bit for bit.
fn assert_arms_agree(runs: &[Run], what: &str) {
    let (out, place, compute) = &runs[0];
    for ((kind, threads), run) in ARMS.iter().zip(runs).skip(1) {
        let what = format!("{what} under {kind:?} on {threads} thread(s)");
        assert_bits_equal(out, &run.0, &what);
        assert_eq!(place, &run.1, "{what}: placement stats differ");
        assert_eq!(compute, &run.2, "{what}: compute stats differ");
    }
}

fn assert_bits_equal(serial: &[f64], parallel: &[f64], what: &str) {
    assert_eq!(serial.len(), parallel.len(), "{what}: length mismatch");
    for (i, (s, p)) in serial.iter().zip(parallel).enumerate() {
        assert!(
            s.to_bits() == p.to_bits(),
            "{what}: bit mismatch at {i}: {s} vs {p}"
        );
    }
}

/// Runs one Figure 9 algorithm under every arm (four worker threads
/// exercise real concurrency even on a single-core host).
fn run_matmul(alg: MatmulAlgorithm, nodes: usize, n: i64) -> Vec<Run> {
    let mut config = RunConfig::cpu(nodes, Mode::Functional);
    config.spec = MachineSpec::small(nodes);
    let (problem, schedule) = matmul_problem(alg, &config, n, (n / 4).max(1)).unwrap();
    run_arms(&problem, &schedule)
}

/// Binds a problem under every arm, then places and executes it with copy
/// logging on; returns the output and both phases' statistics.
fn run_arms(problem: &Problem, schedule: &Schedule) -> Vec<Run> {
    ARMS.map(|(kind, threads)| run_logged(kind, threads, problem, schedule))
        .into()
}

fn run_logged(kind: ExecutorKind, threads: usize, problem: &Problem, schedule: &Schedule) -> Run {
    let backend = RuntimeBackend::functional().with_executor(kind);
    let mut instance = backend
        .compile_typed(problem, schedule)
        .unwrap_or_else(|e| panic!("{}: {e}", problem.assignment().unwrap()));
    instance.runtime_mut().set_executor_threads(threads);
    instance.runtime_mut().record_copies(true);
    let place = instance.place_stats().unwrap();
    let compute = instance.execute_stats().unwrap();
    let out = &problem.assignment().unwrap().lhs.tensor;
    (instance.read(out).unwrap(), place, compute)
}

#[test]
fn figure9_algorithms_are_executor_invariant() {
    let nodes = 4;
    let n = 24;
    let p = RunConfig::cpu(nodes, Mode::Functional).processors();
    for alg in MatmulAlgorithm::all(p) {
        assert_arms_agree(&run_matmul(alg, nodes, n), &alg.name());
    }
}

/// `RunStats` equality must also hold for runs that fold reductions —
/// Johnson's 3-D algorithm exercises reduction instances heavily.
#[test]
fn reduction_heavy_runs_are_executor_invariant() {
    let runs = run_matmul(MatmulAlgorithm::Johnson, 8, 16);
    assert!(
        runs[0].2.reductions_applied > 0,
        "Johnson should fold reductions"
    );
    assert_arms_agree(&runs, "Johnson");
}

/// Runs one generated case under every arm and returns the outputs plus
/// placement/compute statistics.
fn run_case(case: &Case, p: i64) -> Vec<Run> {
    let machine = DistalMachine::flat(Grid::line(p), ProcKind::Cpu);
    let mut problem = Problem::new(MachineSpec::small(2), machine);
    problem
        .statement(&case.expr)
        .unwrap_or_else(|e| panic!("generated invalid expression '{}': {e}", case.expr));
    let assignment = problem.assignment().unwrap();
    let all_vars: Vec<String> = assignment.all_vars().iter().map(|v| v.0.clone()).collect();
    let dist_var = case
        .out_vars
        .first()
        .cloned()
        .unwrap_or_else(|| all_vars[0].clone());
    let schedule = schedule_1d(case, &all_vars, &dist_var, p);

    // Seed data deterministically per case (same for every arm).
    let mut data_rng = Rng(0x5EED ^ case.expr.len() as u64);
    for (name, dims) in &case.dims {
        let format = if name == &case.out && case.out_vars.is_empty() {
            Format::undistributed()
        } else if name == &case.out {
            format_1d(&case.out_vars, &dist_var)
        } else {
            let idx = if name == "B" { 0 } else { 1 };
            format_1d(&case.input_vars[idx], &dist_var)
        };
        problem
            .tensor(TensorSpec::new(name.clone(), dims.clone(), format))
            .unwrap_or_else(|e| panic!("{}: {e}", case.expr));
        if name != &case.out {
            let len = dims.iter().product::<i64>().max(1) as usize;
            problem.set_data(name, data_rng.data(len)).unwrap();
        }
    }
    run_arms(&problem, &schedule)
}

#[test]
fn random_einsums_are_executor_invariant() {
    let mut rng = Rng(0xD157_A1BE_EF01);
    let p = 3i64;
    for round in 0..24 {
        let case = generate(&mut rng);
        let what = format!("round {round} '{}'", case.expr);
        assert_arms_agree(&run_case(&case, p), &what);
    }
}
