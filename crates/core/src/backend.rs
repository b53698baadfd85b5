//! The target abstraction: one [`Problem`] compiles onto any [`Backend`].
//!
//! DISTAL's central claim (§3–§6) is that one (statement, formats,
//! machine, schedule) bundle is portable across mappings *and* lowering
//! targets; §8 frames an MPI-style static backend as orthogonal to the
//! Legion-style dynamic runtime. This module is that claim as an API:
//!
//! * [`Backend`] — a compilation target. Implementations:
//!   [`RuntimeBackend`] (this crate: the dynamic runtime, functional or
//!   model mode), `SpmdBackend` and `CostBackend` (in `distal-spmd`:
//!   static MPI-style lowering, and pure cost estimation under either the
//!   model-mode simulator or the SPMD α-β model).
//! * [`Plan`] — what [`Backend::plan`] compiles to: a **data-independent**
//!   lowered object (launch domain, programs, cost model — no operand
//!   values). Plans are cacheable ([`crate::cache::ShardedPlanCache`])
//!   and reusable: serving many requests over the same shapes pays for
//!   lowering once.
//! * [`Instance`] — a plan bound to per-request [`Bindings`] via
//!   [`Plan::bind`]. Every instance exposes the same surface (`place`,
//!   `execute`, `read`, [`Report`]s), so callers never special-case the
//!   backend they run on.
//!
//! [`Backend::compile`] (and [`Problem::compile`]) is the one-shot shim:
//! exactly `plan(...)` then `bind(problem's own initializers)`.
//!
//! ```
//! use distal_core::{DistalMachine, Problem, RuntimeBackend, Schedule, TensorSpec};
//! use distal_format::Format;
//! use distal_machine::{Grid, spec::{MachineSpec, MemKind, ProcKind}};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
//! let mut problem = Problem::new(MachineSpec::small(2), machine);
//! problem.statement("A(i,j) = B(i,k) * C(k,j)")?;
//! let tiles = Format::parse("xy->xy", MemKind::Sys)?;
//! for t in ["A", "B", "C"] {
//!     problem.tensor(TensorSpec::new(t, vec![8, 8], tiles.clone()))?;
//! }
//! problem.fill_random("B", 1)?.fill_random("C", 2)?;
//!
//! let mut instance = problem.compile(&RuntimeBackend::functional(), &Schedule::summa(2, 2, 4))?;
//! let report = instance.run()?;
//! assert_eq!(instance.read("A")?.len(), 64);
//! assert!(report.flops > 0.0);
//! # Ok(())
//! # }
//! ```

use crate::error::CompileError;
use crate::lint::LintConfig;
use crate::lower::{CompileOptions, CompiledKernel};
use crate::plan::{init_nnz, Bindings, Instance, Plan};
use crate::problem::Problem;
use crate::problem::TensorSpec;
use crate::report::{Provenance, Report};
use crate::schedule::Schedule;
use crate::session::Session;
use distal_runtime::exec::{Mode, RuntimeError};
use distal_runtime::executor::ExecutorKind;
use distal_runtime::region::RegionId;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Errors from compiling or running a problem on a backend.
#[derive(Clone, Debug, PartialEq)]
pub enum BackendError {
    /// Compilation failed (parse, format, schedule, or lowering errors).
    Compile(CompileError),
    /// The dynamic runtime failed (OOM, uninitialized data).
    Runtime(RuntimeError),
    /// A tensor name is not registered on the problem.
    UnknownTensor(String),
    /// The instance holds no readable data (model/cost execution, or the
    /// instance was not executed yet).
    NoData(String),
    /// The problem/schedule combination is outside the backend's scope.
    Unsupported(String),
    /// A backend-specific execution failure.
    Backend(String),
    /// Plan-time static verification rejected the lowered program. The
    /// payload carries every finding (errors and warnings); each names
    /// the offending rank/tensor/tag where attributable.
    Verification(Vec<crate::diagnostic::Diagnostic>),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Compile(e) => write!(f, "compile error: {e}"),
            BackendError::Runtime(e) => write!(f, "runtime error: {e}"),
            BackendError::UnknownTensor(t) => write!(f, "unknown tensor '{t}'"),
            BackendError::NoData(m) => write!(f, "no data: {m}"),
            BackendError::Unsupported(m) => write!(f, "unsupported: {m}"),
            BackendError::Backend(m) => write!(f, "backend error: {m}"),
            BackendError::Verification(diags) => {
                let errors = diags.iter().filter(|d| d.is_error()).count();
                write!(f, "plan verification failed ({errors} error(s))")?;
                for d in diags.iter().filter(|d| d.is_error()).take(3) {
                    write!(f, "; {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for BackendError {}

impl From<CompileError> for BackendError {
    fn from(e: CompileError) -> Self {
        match e {
            CompileError::UnknownTensor(t) => BackendError::UnknownTensor(t),
            other => BackendError::Compile(other),
        }
    }
}

impl From<RuntimeError> for BackendError {
    fn from(e: RuntimeError) -> Self {
        BackendError::Runtime(e)
    }
}

/// A compilation target: lowers a [`Problem`] + [`Schedule`] to a
/// data-independent [`Plan`], which [`Bindings`] turn into executable
/// [`Instance`]s. See the [module docs](self).
pub trait Backend {
    /// Short stable name (`"runtime"`, `"spmd"`, `"cost"`), used in
    /// [`Report::backend`], [`crate::cache::PlanKey`]s, and diagnostics.
    fn name(&self) -> &str;

    /// A stable textual form of every knob that changes what
    /// [`Backend::plan`] produces (mode, compile options, collective
    /// configuration, cost-model parameters, …). [`crate::cache::PlanKey`]
    /// hashes it alongside [`Backend::name`], so two differently-configured
    /// instances of one backend never share cached plans. The default
    /// (empty) is only right for backends without compile-relevant
    /// configuration.
    fn config_fingerprint(&self) -> String {
        String::new()
    }

    /// Compiles the problem's *data-independent* part for this target:
    /// schedule application, lowering, launch-domain construction — no
    /// operand values. The resulting plan serves any number of
    /// [`Plan::bind`] calls without re-lowering.
    ///
    /// # Errors
    ///
    /// [`BackendError::Compile`] when the problem has no statement or the
    /// lowering rejects it; backend-specific errors otherwise.
    fn plan(&self, problem: &Problem, schedule: &Schedule) -> Result<Box<dyn Plan>, BackendError>;

    /// The compile-once/execute-once shim: [`Backend::plan`] followed by
    /// [`Plan::bind`] on the problem's own initializers.
    ///
    /// # Errors
    ///
    /// Errors from either half.
    fn compile(
        &self,
        problem: &Problem,
        schedule: &Schedule,
    ) -> Result<Box<dyn Instance>, BackendError> {
        self.plan(problem, schedule)?
            .bind(&Bindings::from_problem(problem))
    }
}

/// The dynamic-runtime target (the paper's Legion-style backend): tasks,
/// region coherence, work-stealing execution — functional numerics or the
/// pure timing model depending on [`Mode`].
#[derive(Clone, Debug)]
pub struct RuntimeBackend {
    /// Functional (real numerics) or model (timing only) execution.
    pub mode: Mode,
    /// Overrides the runtime's executor selection when set.
    pub executor: Option<ExecutorKind>,
    /// Compile options threaded into the lowering.
    pub options: CompileOptions,
    /// Schedule-admission lint configuration (see [`crate::lint`]):
    /// denied findings reject the plan, warned findings ride on it.
    pub lint: LintConfig,
}

impl RuntimeBackend {
    /// A backend with real numerics.
    pub fn functional() -> Self {
        RuntimeBackend {
            mode: Mode::Functional,
            executor: None,
            options: CompileOptions::default(),
            lint: LintConfig::default(),
        }
    }

    /// A backend that only simulates timing/communication.
    pub fn model() -> Self {
        RuntimeBackend {
            mode: Mode::Model,
            executor: None,
            options: CompileOptions::default(),
            lint: LintConfig::default(),
        }
    }

    /// Overrides the compile options.
    #[must_use]
    pub fn with_options(mut self, options: CompileOptions) -> Self {
        self.options = options;
        self
    }

    /// Overrides the executor selection.
    #[must_use]
    pub fn with_executor(mut self, kind: ExecutorKind) -> Self {
        self.executor = Some(kind);
        self
    }

    /// Overrides the schedule-admission lint configuration.
    #[must_use]
    pub fn with_lints(mut self, lint: LintConfig) -> Self {
        self.lint = lint;
        self
    }

    /// A fresh session with the given tensors registered, in the
    /// deterministic registry order the plan's kernel was compiled
    /// against.
    fn session_for(
        &self,
        spec: &distal_machine::spec::MachineSpec,
        machine: &crate::machine::DistalMachine,
        tensors: &BTreeMap<String, TensorSpec>,
    ) -> Result<Session, BackendError> {
        let mut session = Session::new(spec.clone(), machine.clone(), self.mode);
        if let Some(kind) = self.executor {
            session.set_executor(kind);
        }
        for spec in tensors.values() {
            session.tensor(spec.clone())?;
        }
        Ok(session)
    }
}

impl Backend for RuntimeBackend {
    fn name(&self) -> &str {
        "runtime"
    }

    fn config_fingerprint(&self) -> String {
        // Mode decides functional vs model plans, the executor is baked
        // into bound sessions, and the options steer the lowering — all
        // plan-relevant. The lint fingerprint keeps differently-configured
        // admissions from aliasing in the plan cache.
        format!(
            "{:?};{:?};{:?};lint={}",
            self.mode,
            self.executor,
            self.options,
            self.lint.fingerprint()
        )
    }

    fn plan(&self, problem: &Problem, schedule: &Schedule) -> Result<Box<dyn Plan>, BackendError> {
        let assignment = problem
            .assignment()
            .ok_or_else(|| {
                BackendError::Compile(CompileError::Expression("problem has no statement".into()))
            })?
            .clone();
        // Schedule admission: denied findings reject the plan before any
        // lowering; warned findings ride on the plan and its reports.
        let diagnostics = crate::lint::admit(problem, schedule, &self.lint)?;
        let tensors = problem.tensors().clone();
        // A throwaway planning session: registers the tensors (allocating
        // the region ids the kernel's programs will reference) and runs
        // schedule application + lowering exactly once. Bind-time
        // sessions re-register in the same deterministic order, so their
        // region ids coincide — asserted in `bind`.
        let session = self.session_for(problem.spec(), problem.machine(), &tensors)?;
        let regions = tensors
            .keys()
            .map(|name| {
                let region = session.region(name).expect("registered above");
                (name.clone(), region)
            })
            .collect();
        let kernel = session.compile_assignment(&assignment, schedule, &self.options)?;
        Ok(Box::new(RuntimePlan {
            backend: self.clone(),
            spec: problem.spec().clone(),
            machine: problem.machine().clone(),
            tensors,
            regions,
            kernel: Arc::new(kernel),
            diagnostics,
        }))
    }
}

/// A [`RuntimeBackend`] plan: the compiled kernel + the immutable
/// registry it was lowered against. Binding creates a fresh session
/// seeded with the request's data; the kernel is shared, never
/// recompiled.
pub struct RuntimePlan {
    backend: RuntimeBackend,
    spec: distal_machine::spec::MachineSpec,
    machine: crate::machine::DistalMachine,
    tensors: BTreeMap<String, TensorSpec>,
    regions: BTreeMap<String, RegionId>,
    // Shared with every instance the plan binds — binding never copies
    // the lowered programs.
    kernel: Arc<CompiledKernel>,
    // Admission warnings (denied findings never produce a plan).
    diagnostics: Vec<crate::diagnostic::Diagnostic>,
}

impl std::fmt::Debug for RuntimePlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimePlan")
            .field("tensors", &self.tensors.keys().collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

impl RuntimePlan {
    /// The compiled kernel (launch domain, programs, flops).
    pub fn kernel(&self) -> &CompiledKernel {
        &self.kernel
    }
}

impl Plan for RuntimePlan {
    fn backend(&self) -> &str {
        "runtime"
    }

    fn tensors(&self) -> &BTreeMap<String, TensorSpec> {
        &self.tensors
    }

    fn diagnostics(&self) -> &[crate::diagnostic::Diagnostic] {
        &self.diagnostics
    }

    fn bind(&self, bindings: &Bindings) -> Result<Box<dyn Instance>, BackendError> {
        bindings.validate(&self.tensors)?;
        let mut session = self
            .backend
            .session_for(&self.spec, &self.machine, &self.tensors)?;
        // The kernel's programs reference the planning session's region
        // ids; identical registration order makes the fresh session's ids
        // identical. Guard the invariant rather than assuming it.
        for (name, expected) in &self.regions {
            if session.region(name) != Some(*expected) {
                return Err(BackendError::Backend(format!(
                    "internal: region id drift for tensor '{name}' between plan and bind"
                )));
            }
        }
        for (name, init) in bindings.iter() {
            let dims = &self.tensors[name.as_str()].dims;
            match self.backend.mode {
                // The bound copy drops with the session's store, which
                // hands its buffers back to the pool this one comes from.
                Mode::Functional => {
                    session.set_data(name, init.materialize_pooled(dims))?;
                }
                // Model mode holds no data; filling marks regions valid.
                // Compressed-format tensors still get nnz-aware byte
                // accounting, derived from this binding's nnz (never an
                // earlier instance's).
                Mode::Model => {
                    session.fill(name, 0.0)?;
                    let spec = &self.tensors[name.as_str()];
                    if spec.format.has_compressed() {
                        let scale = distal_sparse::csr_payload_scale(dims, init_nnz(init, dims));
                        if let Some(region) = session.region(name) {
                            session
                                .runtime_mut()
                                .set_region_payload_scale(region, scale);
                        }
                    }
                }
            }
        }
        Ok(Box::new(RuntimeInstance {
            session,
            kernel: Arc::clone(&self.kernel),
            mode: self.backend.mode,
            diagnostics: self.diagnostics.clone(),
        }))
    }
}

/// A [`RuntimeBackend`] instance: a private session + shared compiled
/// kernel.
pub struct RuntimeInstance {
    session: Session,
    kernel: Arc<CompiledKernel>,
    mode: Mode,
    diagnostics: Vec<crate::diagnostic::Diagnostic>,
}

impl std::fmt::Debug for RuntimeInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeInstance")
            .field("mode", &self.mode)
            .finish_non_exhaustive()
    }
}

impl RuntimeInstance {
    /// The compiled kernel (launch domain, programs, flops).
    pub fn kernel(&self) -> &CompiledKernel {
        &self.kernel
    }

    /// The underlying session (runtime, regions, statistics).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The underlying session, mutably (tracing, executor knobs).
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    fn provenance(&self) -> Provenance {
        match self.mode {
            Mode::Functional => Provenance::Measured,
            Mode::Model => Provenance::Modeled,
        }
    }
}

impl Instance for RuntimeInstance {
    fn backend(&self) -> &str {
        "runtime"
    }

    fn place(&mut self) -> Result<Report, BackendError> {
        let stats = self.session.place(&self.kernel)?;
        Ok(Report::from_run_stats("runtime", self.provenance(), &stats))
    }

    fn execute(&mut self) -> Result<Report, BackendError> {
        let stats = self.session.execute(&self.kernel)?;
        let mut report = Report::from_run_stats("runtime", self.provenance(), &stats);
        report.diagnostics = self.diagnostics.clone();
        Ok(report)
    }

    fn read(&self, tensor: &str) -> Result<Vec<f64>, BackendError> {
        if self.session.region(tensor).is_none() {
            return Err(BackendError::UnknownTensor(tensor.into()));
        }
        if self.mode == Mode::Model {
            return Err(BackendError::NoData(format!(
                "model-mode instances hold no numerics; '{tensor}' cannot be read"
            )));
        }
        self.session.read(tensor).map_err(BackendError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::DistalMachine;
    use crate::problem::TensorSpec;
    use distal_format::Format;
    use distal_machine::grid::Grid;
    use distal_machine::spec::{MachineSpec, MemKind, ProcKind};

    fn matmul_problem(n: i64) -> Problem {
        let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
        let mut p = Problem::new(MachineSpec::small(2), machine);
        p.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
        let f = Format::parse("xy->xy", MemKind::Sys).unwrap();
        for t in ["A", "B", "C"] {
            p.tensor(TensorSpec::new(t, vec![n, n], f.clone())).unwrap();
        }
        p.fill_random("B", 1).unwrap();
        p.fill_random("C", 2).unwrap();
        p
    }

    #[test]
    fn functional_artifact_runs_and_reads() {
        let p = matmul_problem(8);
        let mut art = p
            .compile(&RuntimeBackend::functional(), &Schedule::summa(2, 2, 4))
            .unwrap();
        let report = art.run().unwrap();
        assert_eq!(report.backend, "runtime");
        assert_eq!(report.provenance, Provenance::Measured);
        assert!(report.flops > 0.0);
        assert!(report.tasks > 0);
        assert_eq!(art.read("A").unwrap().len(), 64);
        assert!(matches!(
            art.read("Z"),
            Err(BackendError::UnknownTensor(t)) if t == "Z"
        ));
    }

    #[test]
    fn model_artifact_reports_but_holds_no_data() {
        let p = matmul_problem(16);
        let mut art = p
            .compile(&RuntimeBackend::model(), &Schedule::summa(2, 2, 8))
            .unwrap();
        let report = art.run().unwrap();
        assert_eq!(report.provenance, Provenance::Modeled);
        assert!(report.critical_path_s > 0.0);
        assert!(matches!(art.read("A"), Err(BackendError::NoData(_))));
    }

    #[test]
    fn statementless_problem_rejected() {
        let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
        let p = Problem::new(MachineSpec::small(2), machine);
        assert!(matches!(
            p.compile(&RuntimeBackend::functional(), &Schedule::new()),
            Err(BackendError::Compile(_))
        ));
    }

    #[test]
    fn one_plan_binds_many_instances_without_recompiling() {
        let p = matmul_problem(8);
        let backend = RuntimeBackend::functional();
        let plan = backend.plan(&p, &Schedule::summa(2, 2, 4)).unwrap();
        assert_eq!(plan.backend(), "runtime");
        assert_eq!(plan.tensors().len(), 3);

        let lowerings = crate::lower::compile_count();
        let applications = crate::schedule::apply_count();
        let mut outputs = Vec::new();
        for seed in [7u64, 8u64] {
            let mut b = Bindings::new();
            b.fill_random("B", seed).fill_random("C", seed + 50);
            let mut inst = plan.bind(&b).unwrap();
            inst.run().unwrap();
            outputs.push(inst.read("A").unwrap());
        }
        // Binding performed zero schedule-application / lowering work.
        assert_eq!(crate::lower::compile_count(), lowerings);
        assert_eq!(crate::schedule::apply_count(), applications);
        assert_ne!(outputs[0], outputs[1]);

        // Bind-time validation: unknown tensors and mis-sized data.
        let mut bad = Bindings::new();
        bad.fill("Z", 1.0);
        assert!(matches!(
            plan.bind(&bad),
            Err(BackendError::UnknownTensor(t)) if t == "Z"
        ));
        let mut short = Bindings::new();
        short.set_data("B", vec![1.0; 3]);
        assert!(matches!(
            plan.bind(&short),
            Err(BackendError::Compile(CompileError::DataSize { .. }))
        ));
    }
}
