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

use crate::diagnostic::Diagnostic;
use crate::error::CompileError;
use crate::lint::LintConfig;
use crate::lower::{registry_bindings, CompileOptions, CompiledKernel};
use crate::plan::{init_nnz, Bindings, Instance, Plan};
use crate::problem::{Problem, TensorSpec};
use crate::report::{Provenance, Report};
use crate::schedule::Schedule;
use distal_machine::geom::Rect;
use distal_machine::spec::MachineSpec;
use distal_runtime::exec::{Mode, Runtime, RuntimeError};
use distal_runtime::executor::ExecutorKind;
use distal_runtime::region::RegionId;
use distal_runtime::stats::RunStats;
use distal_runtime::topology::PhysicalMachine;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

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

    /// [`Backend::plan`] with the concrete plan type: admission, then one
    /// lowering against bindings whose region ids are registry positions
    /// — no runtime exists yet.
    ///
    /// # Errors
    ///
    /// Same as [`Backend::plan`].
    pub fn plan_typed(
        &self,
        problem: &Problem,
        schedule: &Schedule,
    ) -> Result<RuntimePlan, BackendError> {
        let assignment = problem.assignment().ok_or_else(|| {
            BackendError::Compile(CompileError::Expression("problem has no statement".into()))
        })?;
        // Schedule admission: denied findings reject the plan before any
        // lowering; warned findings ride on the plan and its reports.
        let diagnostics = crate::lint::admit(problem, schedule, &self.lint)?;
        let kernel = crate::lower::compile(
            assignment,
            &registry_bindings(problem.tensors()),
            problem.machine(),
            &PhysicalMachine::new(problem.spec().clone()),
            schedule,
            &self.options,
        )?;
        Ok(RuntimePlan {
            backend: self.clone(),
            spec: problem.spec().clone(),
            tensors: problem.tensors().clone(),
            kernel: Arc::new(kernel),
            diagnostics,
        })
    }

    /// [`Backend::compile`] with the concrete instance type:
    /// [`RuntimeBackend::plan_typed`] then [`RuntimePlan::bind_typed`] on
    /// the problem's own initializers.
    ///
    /// # Errors
    ///
    /// Errors from either half.
    pub fn compile_typed(
        &self,
        problem: &Problem,
        schedule: &Schedule,
    ) -> Result<RuntimeInstance, BackendError> {
        self.plan_typed(problem, schedule)?
            .bind_typed(&problem.bindings())
    }
}

impl Backend for RuntimeBackend {
    fn name(&self) -> &str {
        "runtime"
    }

    fn config_fingerprint(&self) -> String {
        // Mode decides functional vs model plans, the executor is baked
        // into bound instances, and the options steer the lowering — all
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
        Ok(Box::new(self.plan_typed(problem, schedule)?))
    }
}

/// A [`RuntimeBackend`] plan: the compiled kernel + the immutable
/// registry it was lowered against. Binding creates a fresh runtime
/// seeded with the request's data; the kernel is shared, never
/// recompiled.
pub struct RuntimePlan {
    backend: RuntimeBackend,
    spec: MachineSpec,
    tensors: BTreeMap<String, TensorSpec>,
    // Shared with every instance the plan binds — binding never copies
    // the lowered programs.
    kernel: Arc<CompiledKernel>,
    // Admission warnings (denied findings never produce a plan).
    diagnostics: Vec<Diagnostic>,
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

    /// [`Plan::bind`] with the concrete instance type: a fresh runtime
    /// whose regions are created in registry order — the ids the kernel
    /// was lowered against — then seeded from `bindings`.
    ///
    /// # Errors
    ///
    /// Same as [`Plan::bind`].
    pub fn bind_typed(&self, bindings: &Bindings) -> Result<RuntimeInstance, BackendError> {
        bindings.validate(&self.tensors)?;
        let mode = self.backend.mode;
        let mut runtime = Runtime::new(PhysicalMachine::new(self.spec.clone()), mode);
        if let Some(kind) = self.backend.executor {
            runtime.set_executor(kind);
        }
        let mut regions = BTreeMap::new();
        for (position, (name, spec)) in self.tensors.iter().enumerate() {
            let region = runtime.create_region(name.clone(), Rect::sized(&spec.dims));
            // Guard the invariant `registry_bindings` states rather than
            // assuming it.
            if region != RegionId(position as u32) {
                return Err(BackendError::Backend(format!(
                    "internal: region id drift for tensor '{name}' between plan and bind"
                )));
            }
            regions.insert(name.clone(), region);
        }
        for (name, init) in bindings.iter() {
            let spec = &self.tensors[name.as_str()];
            let region = regions[name.as_str()];
            let compressed = spec.format.has_compressed();
            // The tensor this plan's leaf reads as CSR, decided at plan
            // time; every other tensor binds dense.
            let csr = self.kernel.csr_operand.as_deref() == Some(name.as_str());
            let nnz = match mode {
                // One pass over the caller's data, straight into the image
                // the region holds and the leaf walks.
                Mode::Functional if csr => {
                    let image = init.compress(&spec.dims);
                    let nnz = image.nnz();
                    runtime.set_region_sparse(region, image)?;
                    Some(nnz)
                }
                // The staging instance shares the caller's vector: the
                // one copy of a bound operand is `place`'s, into its tiles.
                Mode::Functional => {
                    let data = init.share(&spec.dims);
                    let nnz = compressed.then(|| distal_sparse::stored_entries(&data));
                    runtime.set_region_shared(region, data)?;
                    nnz
                }
                // Model mode holds no data; filling marks regions valid.
                Mode::Model => {
                    runtime.fill_region(region, 0.0)?;
                    compressed.then(|| init_nnz(init, &spec.dims))
                }
            };
            // Compressed-format tensors get nnz-aware accounting, derived
            // from this binding's nnz (never an earlier instance's):
            // copies charge `pos`/`crd`/`vals` bytes instead of dense
            // volume, and tasks whose leaf walks the stored entries charge
            // that share of their flops — the global density, so two
            // bindings with equal nnz model the same makespan.
            if let Some(nnz) = nnz {
                let scale = distal_sparse::csr_payload_scale(&spec.dims, nnz);
                runtime.set_region_payload_scale(region, scale);
                if csr {
                    let volume = spec.dims.iter().product::<i64>().max(1);
                    runtime.set_region_flops_scale(region, nnz as f64 / volume as f64);
                }
            }
        }
        Ok(RuntimeInstance {
            runtime,
            regions,
            kernel: Arc::clone(&self.kernel),
            diagnostics: self.diagnostics.clone(),
        })
    }
}

impl Plan for RuntimePlan {
    fn backend(&self) -> &str {
        "runtime"
    }

    fn tensors(&self) -> &BTreeMap<String, TensorSpec> {
        &self.tensors
    }

    fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    fn bind(&self, bindings: &Bindings) -> Result<Box<dyn Instance>, BackendError> {
        Ok(Box::new(self.bind_typed(bindings)?))
    }
}

/// A [`RuntimeBackend`] instance: the live runtime (one region per
/// registered tensor) + the shared compiled kernel. Beyond the
/// [`Instance`] surface it exposes the runtime's own statistics and
/// knobs, which the communication-pattern tests and figure benches read.
pub struct RuntimeInstance {
    runtime: Runtime,
    regions: BTreeMap<String, RegionId>,
    kernel: Arc<CompiledKernel>,
    diagnostics: Vec<Diagnostic>,
}

impl std::fmt::Debug for RuntimeInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeInstance")
            .field("mode", &self.runtime.mode())
            .field("regions", &self.regions.keys().collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

impl RuntimeInstance {
    /// The compiled kernel (launch domain, programs, flops).
    pub fn kernel(&self) -> &CompiledKernel {
        &self.kernel
    }

    /// The underlying runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// The underlying runtime, mutably (copy logging, executor threads,
    /// running hand-modified programs against the bound regions).
    pub fn runtime_mut(&mut self) -> &mut Runtime {
        &mut self.runtime
    }

    /// The backing region of a registered tensor.
    pub fn region(&self, name: &str) -> Option<RegionId> {
        self.regions.get(name).copied()
    }

    /// Runs the kernel's placement program (moves tensors into their
    /// formats' distributions), returning the runtime's own statistics.
    ///
    /// # Errors
    ///
    /// Runtime errors (OOM, uninitialized data).
    pub fn place_stats(&mut self) -> Result<RunStats, RuntimeError> {
        self.runtime.run_traced(&self.kernel.placement)
    }

    /// Runs the kernel's compute program, returning the runtime's own
    /// statistics.
    ///
    /// # Errors
    ///
    /// Runtime errors (OOM, uninitialized data).
    pub fn execute_stats(&mut self) -> Result<RunStats, RuntimeError> {
        self.runtime.run_traced(&self.kernel.compute)
    }

    /// Runs one phase and normalizes its statistics. A functional phase
    /// really ran, so its headline is the wall clock of the call and the
    /// simulator's makespan moves to `modeled_s` (as on the threaded SPMD
    /// transport); a model phase has only the simulator's.
    fn timed(
        &mut self,
        phase: fn(&mut Self) -> Result<RunStats, RuntimeError>,
    ) -> Result<Report, BackendError> {
        let start = Instant::now();
        let stats = phase(self)?;
        let wall_s = start.elapsed().as_secs_f64();
        let mut report = Report::from_run_stats("runtime", Provenance::Modeled, &stats);
        if self.runtime.mode() == Mode::Functional {
            report.modeled_s = Some(report.critical_path_s);
            report.critical_path_s = wall_s;
            report.provenance = Provenance::Measured;
        }
        Ok(report)
    }
}

impl Instance for RuntimeInstance {
    fn backend(&self) -> &str {
        "runtime"
    }

    fn place(&mut self) -> Result<Report, BackendError> {
        self.timed(Self::place_stats)
    }

    fn execute(&mut self) -> Result<Report, BackendError> {
        let mut report = self.timed(Self::execute_stats)?;
        report.diagnostics = self.diagnostics.clone();
        Ok(report)
    }

    fn read(&self, tensor: &str) -> Result<Vec<f64>, BackendError> {
        let region = self
            .region(tensor)
            .ok_or_else(|| BackendError::UnknownTensor(tensor.into()))?;
        if self.runtime.mode() == Mode::Model {
            return Err(BackendError::NoData(format!(
                "model-mode instances hold no numerics; '{tensor}' cannot be read"
            )));
        }
        Ok(self.runtime.read_region(region)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::DistalMachine;
    use crate::problem::TensorInit;
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
    fn functional_instance_runs_reads_and_matches_oracle() {
        let p = matmul_problem(8);
        let mut inst = p
            .compile(&RuntimeBackend::functional(), &Schedule::summa(2, 2, 4))
            .unwrap();
        let start = Instant::now();
        let report = inst.run().unwrap();
        let wall_s = start.elapsed().as_secs_f64();
        assert_eq!(report.backend, "runtime");
        assert_eq!(report.provenance, Provenance::Measured);
        // The headline is the wall clock of place + execute; the simulated
        // makespan — what a model-mode run of the same plan reports — sits
        // beside it.
        assert!(report.critical_path_s > 0.0 && report.critical_path_s <= wall_s);
        let modeled = p
            .compile(&RuntimeBackend::model(), &Schedule::summa(2, 2, 4))
            .and_then(|mut model| model.run())
            .unwrap();
        assert_eq!(report.modeled_s, Some(modeled.critical_path_s));
        assert!(report.flops > 0.0);
        assert!(report.tasks > 0);
        let inputs = ["B", "C"]
            .map(|t| (t.to_string(), inst.read(t).unwrap()))
            .into();
        let want = crate::oracle::evaluate(p.assignment().unwrap(), &p.dims_map(), &inputs);
        for (g, w) in inst.read("A").unwrap().iter().zip(want.unwrap()) {
            assert!((g - w).abs() < 1e-9, "{g} vs {w}");
        }
        assert!(matches!(
            inst.read("Z"),
            Err(BackendError::UnknownTensor(t)) if t == "Z"
        ));
    }

    #[test]
    fn model_instance_reports_but_holds_no_data() {
        let p = matmul_problem(16);
        let mut inst = p
            .compile(&RuntimeBackend::model(), &Schedule::summa(2, 2, 8))
            .unwrap();
        let report = inst.run().unwrap();
        assert_eq!(report.provenance, Provenance::Modeled);
        assert!(report.critical_path_s > 0.0);
        assert!(matches!(inst.read("A"), Err(BackendError::NoData(_))));
    }

    #[test]
    fn region_ids_are_registry_positions() {
        use distal_runtime::program::Op;
        // Registered out of order; the registry sorts by name.
        let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
        let mut p = Problem::new(MachineSpec::small(2), machine);
        p.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
        let f = Format::parse("xy->xy", MemKind::Sys).unwrap();
        p.tensor(TensorSpec::new("C", vec![8, 8], f.clone()))
            .unwrap();
        p.tensor(TensorSpec::new("A", vec![8, 8], f.clone()))
            .unwrap();
        p.tensor(TensorSpec::scalar("a")).unwrap();
        p.tensor(TensorSpec::new("B", vec![8, 8], f)).unwrap();
        p.fill_random("B", 1).unwrap();
        p.fill_random("C", 2).unwrap();
        p.set_data("a", vec![3.5]).unwrap();

        let plan = RuntimeBackend::functional()
            .plan_typed(&p, &Schedule::summa(2, 2, 4))
            .unwrap();
        // Compute tasks name their regions destination first, then inputs.
        let launch = plan.kernel().compute.ops.iter().find_map(|op| match op {
            Op::IndexLaunch(l) => Some(l),
            _ => None,
        });
        let reqs = &launch.expect("a compute launch").tasks[0].reqs;
        let lowered: Vec<RegionId> = reqs.iter().map(|r| r.region).collect();
        assert_eq!(lowered, [RegionId(0), RegionId(1), RegionId(2)]);

        let mut inst = plan.bind_typed(&p.bindings()).unwrap();
        for (position, name) in p.tensors().keys().enumerate() {
            assert_eq!(inst.region(name), Some(RegionId(position as u32)), "{name}");
        }
        assert_eq!(inst.region("nope"), None);
        inst.run().unwrap();
        // A scalar is a one-element region like any other.
        assert_eq!(inst.read("a").unwrap(), vec![3.5]);
    }

    #[test]
    fn compressed_seeding_paths_account_identically() {
        // A fully dense CSR operand: seeded as `Random`, as `RandomSparse`
        // at density 1, or as the same explicit data, its copies must
        // charge the same pos/crd/vals payload in both modes.
        let machine = DistalMachine::flat(Grid::line(2), ProcKind::Cpu);
        let mut p = Problem::new(MachineSpec::small(1), machine);
        p.statement("a(i) = B(i,j) * c(j)").unwrap();
        let csr = Format::parse_levels("xy->x", "ds", MemKind::Sys).unwrap();
        let blocked = Format::parse("x->x", MemKind::Sys).unwrap();
        p.tensor(TensorSpec::new("B", vec![16, 16], csr)).unwrap();
        p.tensor(TensorSpec::new("a", vec![16], blocked.clone()))
            .unwrap();
        p.tensor(TensorSpec::new("c", vec![16], blocked)).unwrap();
        p.fill_random("c", 3).unwrap();
        let schedule = Schedule::new()
            .divide("i", "io", "ii", 2)
            .reorder(&["io", "ii", "j"])
            .distribute(&["io"]);
        for backend in [RuntimeBackend::functional(), RuntimeBackend::model()] {
            let plan = backend.plan_typed(&p, &schedule).unwrap();
            let bytes = |init: TensorInit| {
                let mut b = p.bindings();
                b.set_init("B", init);
                plan.bind(&b).unwrap().run().unwrap().bytes_moved
            };
            let random = bytes(TensorInit::Random(7));
            let sparse = bytes(TensorInit::RandomSparse {
                seed: 7,
                density: 1.0,
            });
            let data = bytes(TensorInit::Data(crate::problem::random_data(256, 7).into()));
            assert!(random > 0);
            assert_eq!(random, sparse, "{:?}", backend.mode);
            assert_eq!(random, data, "{:?}", backend.mode);
        }
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
