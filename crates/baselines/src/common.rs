//! Shared baseline machinery: a baseline is a sequence of stages, each a
//! `(Problem, Schedule)` planned on the runtime backend, and a run binds
//! each stage's inputs to what earlier stages produced.

use distal_algs::matmul::MatmulAlgorithm;
use distal_algs::setup::{matmul_problem, RunConfig};
use distal_core::kernels::peak_fraction;
use distal_core::{BackendError, Instance};
use distal_core::{
    Bindings, CompileOptions, Plan, Problem, RuntimeInstance, RuntimePlan, Schedule,
};
use distal_ir::expr::Assignment;
use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
use distal_runtime::stats::RunStats;
use distal_runtime::Mode;

/// How one system runs a stage, beyond its schedule.
#[derive(Clone, Copy, Debug)]
pub(crate) struct System {
    /// Fraction of peak its leaf reaches.
    pub(crate) efficiency: f64,
    /// No overlap of communication and computation (MPI codes).
    pub(crate) bulk_synchronous: bool,
    /// The memory compute tasks stage their data in, when it is not the
    /// tensors' own (COSMA's out-of-core GPU GEMM).
    pub(crate) compute_mem: Option<MemKind>,
}

impl System {
    /// The machine this system runs `statement` on: `config`'s, with the
    /// processors' peak scaled so that the lowering's price for the leaf
    /// ([`peak_fraction`]) times the peak is the system's own rate.
    pub(crate) fn spec(&self, config: &RunConfig, statement: &Assignment) -> MachineSpec {
        let mut spec = config.spec.clone();
        let scale = self.efficiency / peak_fraction(statement);
        match config.proc_kind {
            ProcKind::Cpu => spec.node.cpu_socket_gflops *= scale,
            ProcKind::Gpu => spec.node.gpu_gflops *= scale,
        }
        spec
    }

    /// The compile options of this system's stage.
    pub(crate) fn options(&self) -> CompileOptions {
        CompileOptions {
            bulk_synchronous: self.bulk_synchronous,
            compute_mem: self.compute_mem,
        }
    }
}

/// One planned stage and the data its own problem binds (user inputs at
/// rest); every other input is an earlier stage's output.
#[derive(Debug)]
struct Stage {
    plan: RuntimePlan,
    bindings: Bindings,
}

/// A baseline ready to run: its stages, in order.
#[derive(Debug)]
pub struct PhasedRun {
    stages: Vec<Stage>,
    /// The instances of the last run, one per stage.
    instances: Vec<RuntimeInstance>,
    /// Name of the output tensor (for correctness checks).
    pub output: String,
}

impl PhasedRun {
    /// A run with no stages yet.
    pub(crate) fn new(output: &str) -> Self {
        PhasedRun {
            stages: Vec::new(),
            instances: Vec::new(),
            output: output.to_string(),
        }
    }

    /// Plans `problem` under `schedule` on `config`'s backend with
    /// `options` and appends it as the next stage.
    ///
    /// # Errors
    ///
    /// Admission and lowering errors.
    pub(crate) fn stage(
        &mut self,
        config: &RunConfig,
        options: CompileOptions,
        problem: &Problem,
        schedule: &Schedule,
    ) -> Result<(), BackendError> {
        let plan = config
            .backend()
            .with_options(options)
            .plan_typed(problem, schedule)?;
        self.stages.push(Stage {
            plan,
            bindings: problem.bindings(),
        });
        Ok(())
    }

    /// A distributed GEMM baseline: `A(i,j) = B(i,k) * C(k,j)` on `alg`'s
    /// grid and formats, inputs seeded like
    /// `distal_algs::setup::matmul_problem`, run by `system` under
    /// `schedule`, in one stage.
    pub(crate) fn gemm(
        config: &RunConfig,
        alg: MatmulAlgorithm,
        n: i64,
        schedule: &Schedule,
        system: System,
    ) -> Result<PhasedRun, BackendError> {
        let mut staged = config.clone();
        staged.spec = system.spec(config, &distal_ir::expr::kernels::matmul());
        let (problem, _) = matmul_problem(alg, &staged, n, 1)?;
        let mut run = PhasedRun::new("A");
        run.stage(config, system.options(), &problem, schedule)?;
        Ok(run)
    }

    /// Runs every stage in order, summing the statistics of their compute
    /// programs: each stage binds its own inputs and the outputs of
    /// earlier stages, then places them untimed (input staging the
    /// paper's timers exclude; a handed-off tensor's every element is
    /// already on the rank its next stage places it) and executes timed.
    ///
    /// # Errors
    ///
    /// Runtime errors from any stage as [`BackendError::Runtime`], and a
    /// handed-off buffer whose length disagrees with the tensor of the
    /// stage it binds as a `CompileError::DataSize` naming that tensor.
    pub fn run(&mut self) -> Result<RunStats, BackendError> {
        self.instances.clear();
        let mut total = RunStats::default();
        for stage in &self.stages {
            let mut bindings = stage.bindings.clone();
            for earlier in &self.instances {
                let handed = &earlier.kernel().output;
                if !stage.plan.tensors().contains_key(handed) {
                    continue;
                }
                match earlier.runtime().mode() {
                    Mode::Functional => bindings.set_data(handed.clone(), earlier.read(handed)?),
                    // Model mode holds no numerics: binding marks it valid.
                    Mode::Model => bindings.fill(handed.clone(), 0.0),
                };
            }
            let mut instance = stage.plan.bind_typed(&bindings)?;
            instance.place_stats()?;
            total.merge(&instance.execute_stats()?);
            self.instances.push(instance);
        }
        Ok(total)
    }

    /// The stages' plans, in order.
    #[cfg(test)]
    pub(crate) fn plans(&self) -> impl Iterator<Item = &RuntimePlan> {
        self.stages.iter().map(|stage| &stage.plan)
    }

    /// The instance of stage `i` of the last run.
    #[cfg(test)]
    pub(crate) fn instance(&self, i: usize) -> &RuntimeInstance {
        &self.instances[i]
    }

    /// Reads a tensor's contents after a run (functional mode), from the
    /// last stage that holds it.
    ///
    /// # Errors
    ///
    /// Unknown tensors and runtime read errors (model mode).
    pub fn read(&self, name: &str) -> Result<Vec<f64>, BackendError> {
        self.instances
            .iter()
            .rev()
            .find(|instance| instance.region(name).is_some())
            .ok_or_else(|| BackendError::UnknownTensor(name.into()))?
            .read(name)
    }
}

/// A functional configuration on `nodes` small nodes.
#[cfg(test)]
pub(crate) fn functional(nodes: usize) -> RunConfig {
    let mut config = RunConfig::cpu(nodes, Mode::Functional);
    config.spec = MachineSpec::small(nodes);
    config
}

/// Checks a GEMM baseline's functional output against the oracle.
#[cfg(test)]
pub(crate) fn assert_gemm_matches_oracle(run: &mut PhasedRun, n: i64) {
    run.run().unwrap();
    let assignment = distal_ir::expr::kernels::matmul();
    let dims = ["A", "B", "C"].map(|t| (t.to_string(), vec![n, n])).into();
    let inputs = ["B", "C"]
        .map(|t| (t.to_string(), run.read(t).unwrap()))
        .into();
    let want = distal_core::oracle::evaluate(&assignment, &dims, &inputs).unwrap();
    for (g, w) in run.read("A").unwrap().iter().zip(want.iter()) {
        assert!((g - w).abs() < 1e-9, "{g} vs {w}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distal_core::{CompileError, DistalMachine, TensorSpec};
    use distal_format::Format;
    use distal_machine::grid::Grid;
    use distal_machine::spec::MemKind;

    #[test]
    fn a_hand_off_of_the_wrong_length_is_a_typed_error() {
        let config = functional(1);
        let stage = |expr: &str, dims: [(&str, i64); 2]| {
            let machine = DistalMachine::flat(Grid::line(2), ProcKind::Cpu);
            let mut problem = Problem::new(config.spec.clone(), machine);
            problem.statement(expr).unwrap();
            let rows = Format::parse("x->x", MemKind::Sys).unwrap();
            for (name, n) in dims {
                problem
                    .tensor(TensorSpec::new(name, vec![n], rows.clone()))
                    .unwrap();
            }
            problem
        };
        let schedule = Schedule::new()
            .divide("i", "io", "ii", 2)
            .distribute(&["io"]);
        let mut first = stage("T(i) = B(i)", [("T", 8), ("B", 8)]);
        first.fill_random("B", 1).unwrap();
        // The next stage declares `T` with another extent.
        let second = stage("A(i) = T(i)", [("A", 6), ("T", 6)]);
        let mut run = PhasedRun::new("A");
        for problem in [&first, &second] {
            run.stage(&config, CompileOptions::default(), problem, &schedule)
                .unwrap();
        }
        assert_eq!(
            run.run().unwrap_err(),
            BackendError::Compile(CompileError::DataSize {
                tensor: "T".into(),
                expected: 6,
                got: 8
            })
        );
    }
}
