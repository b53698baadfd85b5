//! Problem builders for the algorithm case studies.

use crate::higher_order::HigherOrderKernel;
use crate::matmul::MatmulAlgorithm;
use distal_core::{CompileError, DistalMachine, Problem, RuntimeBackend, Schedule, TensorSpec};
use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
use distal_runtime::{ExecutorKind, Mode};

/// Configuration shared by the benchmark drivers.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Physical machine.
    pub spec: MachineSpec,
    /// CPU sockets or GPUs as abstract processors.
    pub proc_kind: ProcKind,
    /// Memory kind tiles live in (Sys for CPU runs, Fb for GPU runs).
    pub mem: MemKind,
    /// Execution mode.
    pub mode: Mode,
    /// How the runtime executes DAG nodes (serial, parallel, or auto).
    pub executor: ExecutorKind,
}

impl RunConfig {
    /// A CPU-socket configuration on a Lassen-like machine.
    pub fn cpu(nodes: usize, mode: Mode) -> Self {
        RunConfig {
            spec: MachineSpec::lassen(nodes),
            proc_kind: ProcKind::Cpu,
            mem: MemKind::Sys,
            mode,
            executor: ExecutorKind::Auto,
        }
    }

    /// A GPU configuration on a Lassen-like machine.
    pub fn gpu(nodes: usize, mode: Mode) -> Self {
        RunConfig {
            spec: MachineSpec::lassen(nodes),
            proc_kind: ProcKind::Gpu,
            mem: MemKind::Fb,
            mode,
            executor: ExecutorKind::Auto,
        }
    }

    /// Abstract processors available under this configuration.
    pub fn processors(&self) -> i64 {
        match self.proc_kind {
            ProcKind::Cpu => self.spec.total_cpu_sockets() as i64,
            ProcKind::Gpu => self.spec.total_gpus() as i64,
        }
    }

    /// The runtime backend this configuration runs problems on: its mode
    /// and executor selection, default options and lints.
    pub fn backend(&self) -> RuntimeBackend {
        let backend = match self.mode {
            Mode::Functional => RuntimeBackend::functional(),
            Mode::Model => RuntimeBackend::model(),
        };
        backend.with_executor(self.executor)
    }
}

/// The low-level builder behind [`matmul_problem`]: grid, formats,
/// statement, and schedule of a Figure 9 algorithm for an explicit
/// processor count — no input seeding (callers choose). This is the one
/// place the `(machine, A/B/C registration, schedule)` recipe lives;
/// benches and tests parameterize it rather than re-deriving it.
///
/// # Errors
///
/// Propagates format validation errors.
pub fn matmul_problem_on(
    alg: MatmulAlgorithm,
    spec: MachineSpec,
    proc_kind: ProcKind,
    mem: MemKind,
    p: i64,
    n: i64,
    chunk: i64,
) -> Result<(Problem, Schedule), CompileError> {
    let machine = DistalMachine::flat(alg.grid(p), proc_kind);
    let mut problem = Problem::new(spec, machine);
    problem.statement("A(i,j) = B(i,k) * C(k,j)")?;
    for (name, format) in ["A", "B", "C"].iter().zip(alg.formats(mem)) {
        problem.tensor(TensorSpec::new(*name, vec![n, n], format))?;
    }
    Ok((problem, alg.schedule(p, n, chunk)))
}

/// Builds the target-agnostic [`Problem`] + [`Schedule`] of a Figure 9
/// matmul algorithm on `n × n` matrices: grid, formats, statement, and
/// deterministic random inputs (seeds `0xB`/`0xC`; model-mode backends
/// only mark them valid), ready for `Problem::compile` on any backend —
/// [`RunConfig::backend`] is the one the configuration describes.
///
/// # Errors
///
/// Propagates format validation errors.
pub fn matmul_problem(
    alg: MatmulAlgorithm,
    config: &RunConfig,
    n: i64,
    chunk: i64,
) -> Result<(Problem, Schedule), CompileError> {
    let (mut problem, schedule) = matmul_problem_on(
        alg,
        config.spec.clone(),
        config.proc_kind,
        config.mem,
        config.processors(),
        n,
        chunk,
    )?;
    problem.fill_random("B", 0xB)?.fill_random("C", 0xC)?;
    Ok((problem, schedule))
}

/// Builds the target-agnostic [`Problem`] + [`Schedule`] of a §7.2
/// higher-order kernel with side length `n` (inputs seeded `0x51ED + i`).
///
/// # Errors
///
/// Propagates format validation errors.
pub fn higher_order_problem(
    kernel: HigherOrderKernel,
    config: &RunConfig,
    n: i64,
) -> Result<(Problem, Schedule), CompileError> {
    let p = config.processors();
    let machine = DistalMachine::flat(kernel.grid(p), config.proc_kind);
    let mut problem = Problem::new(config.spec.clone(), machine);
    problem.statement(kernel.expression())?;
    let shapes = kernel.shapes(n);
    let formats = kernel.formats(config.mem);
    for ((name, dims), format) in shapes.iter().zip(formats) {
        problem.tensor(TensorSpec::new(*name, dims.clone(), format))?;
    }
    for (idx, (name, _)) in shapes.iter().enumerate().skip(1) {
        problem.fill_random(name, 0x51ED + idx as u64)?;
    }
    Ok((problem, kernel.schedule(p)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use distal_core::oracle;
    use std::collections::BTreeMap;

    /// Runs a problem on the configuration's backend and checks its
    /// output against the sequential oracle.
    fn check(config: &RunConfig, problem: &Problem, schedule: &Schedule, tol: f64, what: &str) {
        let mut instance = problem.compile(&config.backend(), schedule).unwrap();
        instance.run().unwrap();
        let assignment = problem.assignment().unwrap();
        let got = instance.read(&assignment.lhs.tensor).unwrap();
        let inputs: BTreeMap<String, Vec<f64>> = assignment
            .input_accesses()
            .iter()
            .map(|acc| (acc.tensor.clone(), instance.read(&acc.tensor).unwrap()))
            .collect();
        let want = oracle::evaluate(assignment, &problem.dims_map(), &inputs).unwrap();
        for (idx, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            assert!(
                (g - w).abs() < tol * (1.0 + w.abs()),
                "{what} at {idx}: {g} vs {w}"
            );
        }
    }

    fn check_matmul(alg: MatmulAlgorithm, nodes: usize, n: i64) {
        let mut config = RunConfig::cpu(nodes, Mode::Functional);
        config.spec = MachineSpec::small(nodes);
        let (problem, schedule) = matmul_problem(alg, &config, n, (n / 2).max(1)).unwrap();
        check(&config, &problem, &schedule, 1e-9, &alg.name());
    }

    #[test]
    fn summa_correct_on_4_sockets() {
        check_matmul(MatmulAlgorithm::Summa, 2, 12);
    }

    #[test]
    fn cannon_correct_on_4_sockets() {
        check_matmul(MatmulAlgorithm::Cannon, 2, 12);
    }

    #[test]
    fn pumma_correct_on_4_sockets() {
        check_matmul(MatmulAlgorithm::Pumma, 2, 12);
    }

    #[test]
    fn johnson_correct_on_8_sockets() {
        check_matmul(MatmulAlgorithm::Johnson, 4, 12);
    }

    #[test]
    fn solomonik_correct_on_8_sockets() {
        check_matmul(MatmulAlgorithm::Solomonik { c: 2 }, 4, 12);
    }

    #[test]
    fn cosma_correct_on_8_sockets() {
        check_matmul(MatmulAlgorithm::Cosma, 4, 12);
    }

    fn check_higher_order(k: HigherOrderKernel, nodes: usize, n: i64) {
        let mut config = RunConfig::cpu(nodes, Mode::Functional);
        config.spec = MachineSpec::small(nodes);
        let (problem, schedule) = higher_order_problem(k, &config, n).unwrap();
        check(&config, &problem, &schedule, 1e-6, k.name());
    }

    #[test]
    fn ttv_correct() {
        check_higher_order(HigherOrderKernel::Ttv, 2, 8);
    }

    #[test]
    fn innerprod_correct() {
        check_higher_order(HigherOrderKernel::Innerprod, 2, 8);
    }

    #[test]
    fn ttm_correct() {
        check_higher_order(HigherOrderKernel::Ttm, 2, 8);
    }

    #[test]
    fn mttkrp_correct() {
        check_higher_order(HigherOrderKernel::Mttkrp, 2, 8);
    }
}
