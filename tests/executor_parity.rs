//! Executor determinism/parity: the work-stealing parallel executor must be
//! observationally identical to the serial executor — bit-identical output
//! buffers and equal `RunStats` (task/copy counts, bytes per channel class,
//! makespan, copy log) — for every Figure 9 algorithm and for a batch of
//! random einsums.
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

fn assert_bits_equal(serial: &[f64], parallel: &[f64], what: &str) {
    assert_eq!(serial.len(), parallel.len(), "{what}: length mismatch");
    for (i, (s, p)) in serial.iter().zip(parallel).enumerate() {
        assert!(
            s.to_bits() == p.to_bits(),
            "{what}: bit mismatch at {i}: {s} vs {p}"
        );
    }
}

/// Runs one Figure 9 algorithm under an executor kind, with enough worker
/// threads to exercise real concurrency even on a single-core host.
fn run_matmul(
    alg: MatmulAlgorithm,
    kind: ExecutorKind,
    nodes: usize,
    n: i64,
) -> (Vec<f64>, RunStats, RunStats) {
    let mut config = RunConfig::cpu(nodes, Mode::Functional);
    config.spec = MachineSpec::small(nodes);
    config.executor = kind;
    let (problem, schedule) = matmul_problem(alg, &config, n, (n / 4).max(1)).unwrap();
    run_logged(&config.backend(), &problem, &schedule)
}

/// Binds a problem, then places and executes it on four worker threads
/// with copy logging on; returns the output and both phases' statistics.
fn run_logged(
    backend: &RuntimeBackend,
    problem: &Problem,
    schedule: &Schedule,
) -> (Vec<f64>, RunStats, RunStats) {
    let mut instance = backend
        .compile_typed(problem, schedule)
        .unwrap_or_else(|e| panic!("{}: {e}", problem.assignment().unwrap()));
    instance.runtime_mut().set_executor_threads(4);
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
        let (serial_a, serial_place, serial_compute) =
            run_matmul(alg, ExecutorKind::Serial, nodes, n);
        let (parallel_a, parallel_place, parallel_compute) =
            run_matmul(alg, ExecutorKind::Parallel, nodes, n);
        assert_bits_equal(&serial_a, &parallel_a, &alg.name());
        assert_eq!(
            serial_place,
            parallel_place,
            "{}: placement stats differ across executors",
            alg.name()
        );
        assert_eq!(
            serial_compute,
            parallel_compute,
            "{}: compute stats differ across executors",
            alg.name()
        );
    }
}

/// `RunStats` equality must also hold for runs that fold reductions —
/// Johnson's 3-D algorithm exercises reduction instances heavily.
#[test]
fn reduction_heavy_runs_are_executor_invariant() {
    let (serial_a, _, serial_stats) =
        run_matmul(MatmulAlgorithm::Johnson, ExecutorKind::Serial, 8, 16);
    let (parallel_a, _, parallel_stats) =
        run_matmul(MatmulAlgorithm::Johnson, ExecutorKind::Parallel, 8, 16);
    assert!(
        serial_stats.reductions_applied > 0,
        "Johnson should fold reductions"
    );
    assert_eq!(serial_stats, parallel_stats);
    assert_bits_equal(&serial_a, &parallel_a, "Johnson");
}

/// Runs one generated case under an executor kind and returns the output
/// plus placement/compute statistics.
fn run_case(case: &Case, kind: ExecutorKind, p: i64) -> (Vec<f64>, RunStats, RunStats) {
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

    // Seed data deterministically per case (same for both executors).
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
    let backend = RuntimeBackend::functional().with_executor(kind);
    run_logged(&backend, &problem, &schedule)
}

#[test]
fn random_einsums_are_executor_invariant() {
    let mut rng = Rng(0xD157_A1BE_EF01);
    let p = 3i64;
    for round in 0..24 {
        let case = generate(&mut rng);
        let (serial_out, serial_place, serial_compute) = run_case(&case, ExecutorKind::Serial, p);
        let (parallel_out, parallel_place, parallel_compute) =
            run_case(&case, ExecutorKind::Parallel, p);
        assert_bits_equal(&serial_out, &parallel_out, &case.expr);
        assert_eq!(
            serial_place, parallel_place,
            "round {round} '{}': placement stats differ",
            case.expr
        );
        assert_eq!(
            serial_compute, parallel_compute,
            "round {round} '{}': compute stats differ",
            case.expr
        );
    }
}
