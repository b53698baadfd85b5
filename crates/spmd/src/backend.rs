//! The [`Backend`] over the static SPMD lowering: [`SpmdBackend`], which
//! executes on the rank VM in [`Mode::Functional`] and only prices the
//! lowered program under its α-β model in [`Mode::Model`]
//! ([`SpmdBackend::alpha_beta`]; [`CostBackend`] is its old name).
//!
//! It lowers over the shared [`Problem`] registry's tensors and machine
//! hierarchy — callers never hand-build tensor descriptions or rebuild
//! grids. Together with `distal_core::RuntimeBackend`
//! it closes the paper's portability claim: the same `Problem` + `Schedule`
//! compiles onto the dynamic runtime or the static MPI-style program, each
//! run or modelled, all behind one [`Plan`]/[`Instance`] surface. The two
//! place alike — a rank's home pieces are what runtime placement gives its
//! machine point, hierarchical formats included, and a launch point runs
//! on the rank of its row-major index — so what plans on one plans on the
//! other. The one binding only the runtime honours is a nonzero output
//! initializer under `+=` (the rank VM starts outputs at zero).
//!
//! The plan/bind split maps exactly onto this backend's structure: the
//! lowered [`SpmdProgram`] — message schedule, collectives, per-rank
//! programs — is data-independent, so [`SpmdBackend::plan`] lowers once
//! and [`Plan::bind`] only tiles the bound inputs into the ranks' home
//! pieces (the one copy of an input element on its way to a leaf; an
//! instance executes against them as often as asked) and counts each
//! binding's nnz for its byte accounting; the program is shared, never
//! re-lowered or copied.
//!
//! ```
//! use distal_core::{Backend, DistalMachine, Problem, Schedule, TensorSpec};
//! use distal_format::Format;
//! use distal_machine::{Grid, spec::{MachineSpec, MemKind, ProcKind}};
//! use distal_spmd::SpmdBackend;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
//! let mut problem = Problem::new(MachineSpec::small(2), machine);
//! problem.statement("A(i,j) = B(i,k) * C(k,j)")?;
//! let tiled = Format::parse("xy->xy", MemKind::Sys)?;
//! for t in ["A", "B", "C"] {
//!     problem.tensor(TensorSpec::new(t, vec![8, 8], tiled.clone()))?;
//! }
//! problem.fill("B", 1.0)?.fill("C", 2.0)?;
//!
//! let mut instance = SpmdBackend::new().compile(&problem, &Schedule::summa(2, 2, 4))?;
//! let report = instance.run()?;
//! assert!(instance.read("A")?.iter().all(|&v| (v - 16.0).abs() < 1e-9));
//! assert!(report.messages > 0);
//! # Ok(())
//! # }
//! ```

use crate::collective::CollectiveConfig;
use crate::cost::{AlphaBeta, CostReport};
use crate::lower::{lower_with, SpmdError};
use crate::program::SpmdProgram;
use crate::stats::CommStats;
use crate::transport::Transport;
use crate::vm::Homes;
use distal_core::backend::{Backend, BackendError};
use distal_core::nest::Nest;
use distal_core::plan::{init_nnz, Bindings, Instance, Plan};
use distal_core::{
    CompileError, Diagnostic, LintConfig, Problem, Provenance, Report, Schedule, TensorInit,
    TensorSpec,
};
use distal_ir::expr::Assignment;
use distal_machine::geom::Rect;
use distal_runtime::Mode;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The problem's statement, or the error both backends report without one.
fn statement(problem: &Problem) -> Result<&Assignment, CompileError> {
    problem
        .assignment()
        .ok_or_else(|| CompileError::Expression("problem has no statement".into()))
}

/// Lowers `nest` — `assignment`, the problem's statement, under
/// `schedule` — over the registry's *data-independent* tensor specs
/// (shapes + formats, in registry order, nnz unknown) onto the machine's
/// hierarchy, one rank per point of its flattened grid. nnz never shapes
/// the lowering, only the pricing: binding attaches each request's nnz
/// afterwards.
fn lower_shapes(
    problem: &Problem,
    assignment: &Assignment,
    nest: Nest,
    schedule: &Schedule,
    collectives: &CollectiveConfig,
) -> Result<SpmdProgram, SpmdError> {
    let tensors: Vec<TensorSpec> = problem.tensors().values().cloned().collect();
    let machine = &problem.machine().hierarchy;
    lower_with(nest, assignment, &tensors, machine, schedule, collectives)
}

/// Lowers a problem's statement for a schedule onto the problem machine's
/// (flattened) grid, with explicit collective configuration. The shared
/// registry path every test/bench lowers through. It is the plan's
/// lowering, applying the schedule itself ([`Nest::new`]) where a plan
/// starts from the notation admission applied, with the problem's own
/// initializer nnz attached to the program's static accounting.
///
/// # Errors
///
/// [`SpmdError::Compile`] with the [`CompileError`] the runtime backend
/// reports for the same problem and schedule: no statement, an
/// unregistered tensor, disagreeing shapes, a failing command, a launch
/// domain with more points than the machine
/// ([`CompileError::GridTooLarge`]), a refused `substitute`, ….
pub fn lower_problem(
    problem: &Problem,
    schedule: &Schedule,
    collectives: &CollectiveConfig,
) -> Result<SpmdProgram, SpmdError> {
    let assignment = statement(problem).map_err(SpmdError::Compile)?;
    let nest = Nest::new(assignment, &problem.dims_map(), schedule).map_err(SpmdError::Compile)?;
    let mut program = lower_shapes(problem, assignment, nest, schedule, collectives)?;
    let names = problem.tensors().keys();
    program.nnz = names.map(|name| problem.nnz_of(name)).collect();
    Ok(program)
}

fn backend_err(e: SpmdError) -> BackendError {
    match e {
        SpmdError::Compile(e) => e.into(),
        SpmdError::Data(m) => BackendError::Backend(format!("data error: {m}")),
        other => BackendError::Backend(other.to_string()),
    }
}

/// Rejects the one output initializer the rank VM would silently drop: it
/// starts output accumulators and home pieces at zero, which `=` means on
/// both backends, but a `+=` adds to the bound output, so there only an
/// absent initializer or an explicit zero fill is faithful.
fn check_output_binding(assignment: &Assignment, bindings: &Bindings) -> Result<(), BackendError> {
    let out = &assignment.lhs.tensor;
    match bindings.get(out).filter(|_| assignment.increment) {
        None => Ok(()),
        // A zero fill matches the VM's starting state exactly.
        Some(TensorInit::Value(v)) if *v == 0.0 => Ok(()),
        Some(init) => Err(BackendError::Unsupported(format!(
            "the SPMD backend starts output '{out}' at zero; the initializer \
             ({init:?}) its `+=` adds to would be ignored"
        ))),
    }
}

/// A binding's inputs, seeded: every right-hand-side tensor tiled into
/// the ranks' home pieces straight out of the borrowed
/// [`TensorInit::Data`] slice (any other initializer materializes once and
/// is tiled the same way), and — for a plan with a compressed tensor —
/// each one's stored-entry count, taken from the same slice. Tensors
/// without a binding are reported back so the instance can fail at
/// `execute()` — exactly where the dynamic runtime surfaces uninitialized
/// data — instead of silently zero-filling. A model-mode binding seeds
/// nothing: it is the default.
#[derive(Default)]
struct SeededInputs {
    homes: Homes,
    /// Per tensor id, the stored entries counted while seeding.
    nnz: Vec<Option<u64>>,
    missing: Vec<String>,
}

fn seed_inputs(program: &SpmdProgram, bindings: &Bindings) -> Result<SeededInputs, BackendError> {
    let mut seeded = SeededInputs {
        homes: Homes::new(program.tensors.len()),
        nnz: vec![None; program.tensors.len()],
        missing: Vec::new(),
    };
    let count_nnz = program.compressed();
    for &id in &program.accessed[1..] {
        let spec = &program.tensors[id.index()];
        let done = id == program.output()
            || seeded.homes.holds(id.index())
            || seeded.missing.contains(&spec.name);
        if done {
            continue;
        }
        let Some(init) = bindings.get(&spec.name) else {
            seeded.missing.push(spec.name.clone());
            continue;
        };
        let materialized;
        let data: &[f64] = match init {
            TensorInit::Data(data) => {
                program
                    .lend(&mut seeded.homes, id, data)
                    .map_err(backend_err)?;
                data
            }
            other => {
                materialized = other.materialize(&spec.dims);
                program
                    .seed(&mut seeded.homes, id, &materialized)
                    .map_err(backend_err)?;
                &materialized
            }
        };
        if count_nnz {
            seeded.nnz[id.index()] = Some(distal_sparse::stored_entries(data));
        }
    }
    Ok(seeded)
}

/// A modeled report of `program`: its α-β prices (`cost`) beside
/// message/byte counts (`stats`: the static nnz-density estimate, or a run's
/// exact statistics) and the peak scratch.
fn report(program: &SpmdProgram, cost: &CostReport, stats: &CommStats, peak_bytes: u64) -> Report {
    let mut kernel_classes = BTreeMap::new();
    if program.tasks > 0 {
        kernel_classes.insert(
            program.leaf.0.name().to_string(),
            distal_runtime::stats::KernelClassStats {
                tasks: program.tasks,
                flops: program.total_flops,
                busy_s: cost.compute_s,
            },
        );
    }
    Report {
        backend: "spmd".into(),
        provenance: Provenance::Modeled,
        bytes_moved: stats.bytes,
        messages: stats.messages,
        critical_path_s: cost.makespan_s,
        modeled_s: None,
        flops: program.total_flops,
        tasks: program.tasks,
        peak_bytes,
        cache: None,
        kernel_classes,
        diagnostics: Vec::new(),
    }
}

/// Runs the static verifier over a freshly lowered plan program, reading
/// its rank lists in place.
/// Error-severity findings reject the plan — executing it would hang,
/// corrupt data, or index out of bounds — and warnings ride along on the
/// plan for reports to surface.
fn verify_plan_program(program: &SpmdProgram) -> Result<Vec<Diagnostic>, BackendError> {
    let diags = crate::verify::verify_program(program);
    if diags.iter().any(|d| d.is_error()) {
        return Err(BackendError::Verification(diags));
    }
    Ok(diags)
}

/// The static SPMD target (§8's "MPI-based backend for DISTAL"): lowers to
/// explicit per-rank send/recv programs with compile-time-exact
/// communication, emits its collectives as trees or rings per
/// [`CollectiveConfig`], statically verifies every lowered plan
/// (communication matching, deadlock freedom, buffer hazards, bounds),
/// executes on the deterministic rank VM, and prices the critical path
/// under the α-β model.
///
/// In [`Mode::Model`] ([`SpmdBackend::alpha_beta`]) it plans the same
/// program and stops there: `bind` only validates the bindings and attaches
/// their nnz accounting, `execute` returns the α-β report of the bound
/// program, and `read` fails with [`BackendError::NoData`]. This is the
/// backend the autoscheduler's `search_with` plugs in to rank candidates;
/// the runtime's simulator is the other model (`RuntimeBackend::model()`).
#[derive(Clone, Debug, Default)]
pub struct SpmdBackend {
    /// Run on the rank VM, or price the lowered program only. Like every
    /// field, part of the `Debug` form a plan key hashes, so the two never
    /// share a plan.
    pub mode: Mode,
    /// How the lowering emits the collectives it records.
    pub collectives: CollectiveConfig,
    /// The α-β model pricing [`Report::critical_path_s`] (sequential
    /// transport) or [`Report::modeled_s`] (threaded transport, where the
    /// headline number is measured wall clock).
    pub model: AlphaBeta,
    /// How bound instances run the rank programs: the sequential
    /// simulation (default) or real rank threads (see
    /// [`Transport`]).
    pub transport: Transport,
    /// Schedule-admission lint configuration (`distal_core::lint`):
    /// denied findings reject the plan before lowering, warned findings
    /// ride on the plan and its reports.
    pub lint: LintConfig,
}

/// The α-β estimation target's old name: [`SpmdBackend`] in
/// [`Mode::Model`], built by [`SpmdBackend::alpha_beta`].
pub type CostBackend = SpmdBackend;

impl SpmdBackend {
    /// A backend with default collectives (binomial trees, ring
    /// all-gathers) and the default α-β model.
    pub fn new() -> Self {
        SpmdBackend::default()
    }

    /// Estimation only ([`Mode::Model`]) under the α-β parameters `model`.
    pub fn alpha_beta(model: AlphaBeta) -> Self {
        SpmdBackend {
            mode: Mode::Model,
            model,
            ..SpmdBackend::default()
        }
    }

    /// Overrides the collective configuration.
    #[must_use]
    pub fn with_collectives(mut self, collectives: CollectiveConfig) -> Self {
        self.collectives = collectives;
        self
    }

    /// Overrides the execution transport.
    #[must_use]
    pub fn with_transport(mut self, transport: Transport) -> Self {
        self.transport = transport;
        self
    }

    /// Overrides the schedule-admission lint configuration.
    #[must_use]
    pub fn with_lints(mut self, lint: LintConfig) -> Self {
        self.lint = lint;
        self
    }
}

impl Backend for SpmdBackend {
    fn name(&self) -> &str {
        "spmd"
    }

    fn plan(&self, problem: &Problem, schedule: &Schedule) -> Result<Box<dyn Plan>, BackendError> {
        let assignment = statement(problem)?;
        // Schedule admission first, which applies the schedule: denied
        // findings and rejected commands fail the plan before any
        // lowering happens, and the lowering starts from its notation.
        let (cin, mut diagnostics) = distal_core::lint::admit(problem, schedule, &self.lint)?;
        let program = lower_shapes(
            problem,
            assignment,
            Nest::from_cin(cin)?,
            schedule,
            &self.collectives,
        )
        .map_err(backend_err)?;
        diagnostics.extend(verify_plan_program(&program)?);
        Ok(Box::new(SpmdPlan {
            mode: self.mode,
            tensors: problem.tensors().clone(),
            program: Arc::new(program),
            model: self.model,
            transport: self.transport.clone(),
            diagnostics,
        }))
    }
}

/// A data-independent SPMD plan: the lowered per-rank message schedule +
/// the registry it was lowered against. Binding seeds the ranks' input
/// homes (functional mode only) and counts the request's nnz; every
/// instance shares the one program, never re-lowered or copied. What the
/// program derives from itself — its resolution for the rank VM and, with
/// no compressed tensor, its prices — it works out on the first `execute`
/// of any instance and keeps (the runtime's `TracedProgram` shape).
pub(crate) struct SpmdPlan {
    mode: Mode,
    tensors: BTreeMap<String, TensorSpec>,
    program: Arc<SpmdProgram>,
    model: AlphaBeta,
    transport: Transport,
    // Warning-severity verifier findings (errors rejected the plan).
    diagnostics: Vec<Diagnostic>,
}

impl Plan for SpmdPlan {
    fn tensors(&self) -> &BTreeMap<String, TensorSpec> {
        &self.tensors
    }

    fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    fn bind(&self, bindings: &Bindings) -> Result<Box<dyn Instance>, BackendError> {
        bindings.validate(&self.tensors)?;
        let seeded = match self.mode {
            // Nothing runs, so nothing is seeded and the output's
            // initializer cannot be dropped.
            Mode::Model => SeededInputs::default(),
            Mode::Functional => {
                check_output_binding(&self.program.assignment, bindings)?;
                seed_inputs(&self.program, bindings)?
            }
        };
        // Bound tensors get their request's nnz, unbound ones stay dense;
        // seeded inputs were counted where they lay, so a RandomSparse
        // stream materializes once. Only a compressed plan counts any.
        let compressed = self.program.compressed();
        let specs = self.program.tensors.iter().enumerate();
        let nnz = specs.filter(|_| compressed).map(|(t, spec)| {
            let counted = seeded.nnz.get(t).copied().flatten();
            counted.or_else(|| bindings.get(&spec.name).map(|i| init_nnz(i, &spec.dims)))
        });
        let nnz = nnz.collect();
        Ok(Box::new(SpmdInstance {
            mode: self.mode,
            program: Arc::clone(&self.program),
            nnz,
            homes: seeded.homes,
            missing_inputs: seeded.missing,
            model: self.model,
            transport: self.transport.clone(),
            diagnostics: self.diagnostics.clone(),
            output: None,
        }))
    }
}

/// A binding of the plan's shared program: its inputs — tiled into the
/// ranks' home pieces, which executions only read — its per-tensor nnz,
/// and (after execution) its output. In model mode it holds no data.
pub(crate) struct SpmdInstance {
    mode: Mode,
    program: Arc<SpmdProgram>,
    /// Per tensor id, this binding's stored entries (`None`: priced
    /// dense); empty for a plan with no compressed tensor.
    nnz: Vec<Option<u64>>,
    homes: Homes,
    missing_inputs: Vec<String>,
    model: AlphaBeta,
    transport: Transport,
    diagnostics: Vec<Diagnostic>,
    output: Option<Vec<f64>>,
}

impl SpmdInstance {
    /// The report of this binding: the prices the program keeps when every
    /// tensor is dense, else this binding's nnz priced now beside
    /// `stats()`.
    fn report(&self, stats: impl FnOnce() -> CommStats, peak: u64) -> Report {
        let program = &self.program;
        match program.dense_prices(&self.model) {
            Some((cost, dense)) => report(program, cost, dense, peak),
            None => report(
                program,
                &program.cost_with(&self.model, &self.nnz),
                &stats(),
                peak,
            ),
        }
    }

    /// Hands the assembled output back to the pool the next execution
    /// assembles into.
    fn recycle_output(&mut self) {
        if let Some(output) = self.output.take() {
            distal_runtime::pool::give(output);
        }
    }
}

impl Drop for SpmdInstance {
    fn drop(&mut self) {
        self.recycle_output();
    }
}

impl Instance for SpmdInstance {
    fn place(&mut self) -> Result<Report, BackendError> {
        // Data starts at rest in its distribution: home pieces are
        // installed directly from the initializers, so placement is free.
        let provenance = match self.mode {
            Mode::Functional => Provenance::Measured,
            Mode::Model => Provenance::Modeled,
        };
        Ok(Report::empty("spmd", provenance))
    }

    fn execute(&mut self) -> Result<Report, BackendError> {
        if self.mode == Mode::Model {
            // The static nnz-density estimate of the bound program.
            return Ok(self.report(|| self.program.stats_with(&self.nnz), 0));
        }
        if let Some(name) = self.missing_inputs.first() {
            // Same failure point as the dynamic runtime's uninitialized
            // regions: at execution, not as a silent zero-fill.
            return Err(BackendError::NoData(format!(
                "input '{name}' has no initializer on the problem"
            )));
        }
        let resolved = self.program.resolved();
        let run = self
            .program
            .run(resolved, &self.homes, &self.transport)
            .map_err(backend_err)?;
        // Bytes, messages, flops, and the numerics behind `read` are
        // exact properties of the executed program — compressed operand
        // tiles are charged their actual per-tile pos/crd/vals payloads;
        // dense ones are what the program priced on its first execute.
        // On the sequential transport the headline `critical_path_s`
        // comes from the α-β model (whose serialized-injection assumption
        // matches that transport exactly), so the phase reports as
        // modeled. The threaded transport measured real rank threads: the
        // headline becomes the wall-clock makespan, the α-β prediction
        // moves to `modeled_s`, and `Report::modeled_vs_measured` exposes
        // the calibration ratio.
        let exact = || run.stats(&self.program, resolved);
        let mut report = self.report(exact, resolved.peak_scratch_bytes);
        if let Some(m) = &run.measured {
            report.modeled_s = Some(report.critical_path_s);
            report.critical_path_s = m.wall_s;
            report.provenance = Provenance::Measured;
        }
        report.diagnostics = self.diagnostics.clone();
        self.recycle_output();
        self.output = Some(run.output);
        Ok(report)
    }

    fn read(&self, tensor: &str) -> Result<Vec<f64>, BackendError> {
        let Some(t) = self.program.tensors.iter().position(|t| t.name == tensor) else {
            return Err(BackendError::UnknownTensor(tensor.into()));
        };
        if self.mode == Mode::Model {
            return Err(BackendError::NoData(format!(
                "model-mode instances hold no numerics; '{tensor}' cannot be read"
            )));
        }
        if t == self.program.output().index() {
            return self.output.clone().ok_or_else(|| {
                BackendError::NoData(format!("'{tensor}' is unavailable before execute()"))
            });
        }
        let whole = Rect::sized(&self.program.tensors[t].dims);
        self.homes.assemble(t, &whole).ok_or_else(|| {
            // Registered but neither the output nor a seeded input.
            BackendError::NoData(format!("'{tensor}' has no initializer on this instance"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::SpmdOp;
    use distal_core::{DistalMachine, Lint, RuntimeBackend, TensorSpec};
    use distal_format::Format;
    use distal_machine::grid::Grid;
    use distal_machine::spec::{MachineSpec, MemKind, ProcKind};

    /// The leaves of `program`, counted over its ops.
    fn count_tasks(program: &SpmdProgram) -> u64 {
        let computes = program
            .in_order()
            .filter(|(_, op)| matches!(op, SpmdOp::Compute { .. }));
        computes.count() as u64
    }

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
    fn spmd_instance_executes_and_reads() {
        let p = matmul_problem(8);
        let mut inst = SpmdBackend::new()
            .compile(&p, &Schedule::summa(2, 2, 4))
            .unwrap();
        assert!(matches!(inst.read("A"), Err(BackendError::NoData(_))));
        let report = inst.run().unwrap();
        assert_eq!(report.backend, "spmd");
        assert!(report.messages > 0);
        assert!(report.critical_path_s > 0.0);
        assert_eq!(inst.read("A").unwrap().len(), 64);
        assert_eq!(inst.read("B").unwrap(), p.initial_data("B").unwrap());
        assert!(matches!(
            inst.read("Z"),
            Err(BackendError::UnknownTensor(t)) if t == "Z"
        ));
    }

    #[test]
    fn one_spmd_plan_binds_many_without_relowering() {
        let p = matmul_problem(8);
        let plan = SpmdBackend::new()
            .plan(&p, &Schedule::summa(2, 2, 4))
            .unwrap();
        let lowerings = distal_core::lowering_count();
        let mut outputs = Vec::new();
        for seed in [3u64, 4u64] {
            let mut b = Bindings::new();
            b.fill_random("B", seed).fill_random("C", seed + 10);
            let mut inst = plan.bind(&b).unwrap();
            inst.run().unwrap();
            outputs.push(inst.read("A").unwrap());
        }
        assert_eq!(distal_core::lowering_count(), lowerings);
        assert_ne!(outputs[0], outputs[1]);
    }

    #[test]
    fn differently_configured_backends_never_share_cached_plans() {
        // Nothing lists what a plan key covers: changing any one field of
        // either backend — a mode, a collective topology, one α-β
        // parameter, a transport's watchdog, a lint level — splits it, so
        // every caller is served its own lowering.
        let p = matmul_problem(8);
        let schedule = Schedule::summa(2, 2, 4);
        let key = |b: &dyn Backend| distal_core::PlanKey::new(b, &p, &schedule);
        let lints = |lint| LintConfig::new().allow(lint);
        let rt = RuntimeBackend::functional;
        let options = |edit: fn(&mut distal_core::CompileOptions)| {
            let mut options = distal_core::CompileOptions::default();
            edit(&mut options);
            rt().with_options(options)
        };
        let model = |edit: fn(&mut AlphaBeta)| {
            let mut model = AlphaBeta::default();
            edit(&mut model);
            SpmdBackend {
                model,
                ..SpmdBackend::new()
            }
        };
        let watchdog = crate::ThreadedConfig {
            watchdog: std::time::Duration::from_secs(1),
            ..crate::ThreadedConfig::default()
        };
        let backends: Vec<Box<dyn Backend>> = vec![
            Box::new(rt()),
            Box::new(RuntimeBackend::model()),
            Box::new(rt().with_executor(distal_runtime::ExecutorKind::Serial)),
            Box::new(options(|o| o.bulk_synchronous = true)),
            Box::new(options(|o| o.compute_mem = Some(MemKind::Fb))),
            Box::new(rt().with_lints(lints(Lint::GridMismatch))),
            Box::new(SpmdBackend::new()),
            Box::new(SpmdBackend {
                mode: Mode::Model,
                ..SpmdBackend::new()
            }),
            Box::new(SpmdBackend::new().with_collectives(CollectiveConfig::point_to_point())),
            Box::new(SpmdBackend::new().with_collectives(CollectiveConfig::rings())),
            Box::new(model(|m| m.alpha_s *= 2.0)),
            Box::new(model(|m| m.beta_bytes_per_s *= 2.0)),
            Box::new(model(|m| m.flops_per_s *= 2.0)),
            Box::new(SpmdBackend::new().with_transport(Transport::threaded())),
            Box::new(SpmdBackend::new().with_transport(Transport::threaded_with(2))),
            Box::new(SpmdBackend::new().with_transport(Transport::Threaded(watchdog))),
            Box::new(SpmdBackend::new().with_lints(lints(Lint::LoadImbalance))),
        ];
        let keys: Vec<_> = backends.iter().map(|b| key(b.as_ref())).collect();
        for (i, a) in keys.iter().enumerate() {
            for (b, other) in backends.iter().zip(&keys).skip(i + 1) {
                assert_ne!(a, other, "{:?} and {b:?} share a key", backends[i]);
            }
        }
        let cache = distal_core::ShardedPlanCache::new(backends.len(), 1);
        for backend in &backends {
            cache.get_or_plan(backend.as_ref(), &p, &schedule).unwrap();
        }
        assert_eq!(cache.stats().misses, backends.len() as u64);
        // ...and configurations that behave alike share one: restating a
        // lint's default level is no change.
        let restated = LintConfig::new().deny(Lint::GridMismatch);
        assert_eq!(key(&rt().with_lints(restated.clone())), key(&rt()));
        let spmd = SpmdBackend::new();
        assert_eq!(key(&spmd.clone().with_lints(restated)), key(&spmd));
    }

    #[test]
    fn cost_backends_estimate_without_numerics() {
        let p = matmul_problem(16);
        let schedule = Schedule::summa(2, 2, 8);
        let sim = RuntimeBackend::model();
        let alpha_beta = CostBackend::alpha_beta(AlphaBeta::default());
        for backend in [&sim as &dyn Backend, &alpha_beta] {
            let mut inst = backend.compile(&p, &schedule).unwrap();
            let report = inst.run().unwrap();
            assert_eq!(report.backend, backend.name());
            assert_eq!(report.provenance, Provenance::Modeled);
            assert!(report.critical_path_s > 0.0, "{}", backend.name());
            assert!(report.bytes_moved > 0);
            assert!(matches!(inst.read("A"), Err(BackendError::NoData(_))));
            assert!(matches!(
                inst.read("Z"),
                Err(BackendError::UnknownTensor(t)) if t == "Z"
            ));
        }
    }

    /// An `n x n` matmul whose `B` is stored CSR at `density`.
    fn csr_matmul_problem(n: i64, density: f64) -> Problem {
        let mut p = matmul_problem(n);
        let csr = Format::parse_levels("xy->xy", "ds", MemKind::Sys).unwrap();
        p.tensor(TensorSpec::new("B", vec![n, n], csr)).unwrap();
        p.fill_random_sparse("B", 1, density).unwrap();
        p
    }

    #[test]
    fn a_model_mode_instance_reports_its_bound_program_and_binds_nothing() {
        let model = AlphaBeta::default();
        let schedule = Schedule::summa(2, 2, 4);
        for mut p in [matmul_problem(8), csr_matmul_problem(8, 0.25)] {
            // The output's initializer is not checked: nothing runs.
            p.fill("A", 1.0).unwrap();
            let plan = CostBackend::alpha_beta(model).plan(&p, &schedule).unwrap();
            let lowerings = distal_core::lowering_count();
            let mut inst = plan.bind(&p.bindings()).unwrap();
            assert_eq!(distal_core::lowering_count(), lowerings, "bind lowered");

            // The plan's program with this binding's nnz, priced.
            let program = lower_problem(&p, &schedule, &CollectiveConfig::default()).unwrap();
            let (stats, cost) = (program.stats(), program.cost(&model));
            assert_eq!(inst.place().unwrap().provenance, Provenance::Modeled);
            let report = inst.execute().unwrap();
            assert_eq!(report.backend, "spmd");
            assert_eq!(report.provenance, Provenance::Modeled);
            assert_eq!(report.bytes_moved, stats.bytes);
            assert_eq!(report.messages, stats.messages);
            assert_eq!(report.critical_path_s, cost.makespan_s);
            assert_eq!(report.flops, program.total_flops);
            assert_eq!(report.tasks, count_tasks(&program));
            assert!(matches!(inst.read("A"), Err(BackendError::NoData(_))));
        }
    }

    #[test]
    fn every_report_of_a_plan_is_the_one_a_fresh_execute_prices() {
        // A plan's first execute resolves its program and prices its
        // report; later ones reuse both. Every field must stay what the
        // one-shot path gives the same bound program: the α-β pricing and
        // leaf count of the program, and the statistics and peak scratch
        // of executing it — static bytes for dense tensors, the run's
        // exact ones for a compressed operand.
        let model = AlphaBeta::default();
        let schedule = Schedule::summa(2, 2, 4);
        for p in [matmul_problem(8), csr_matmul_problem(8, 0.25)] {
            let program = lower_problem(&p, &schedule, &CollectiveConfig::default()).unwrap();
            let inputs = ["B", "C"].map(|t| (t.to_string(), p.initial_data(t).unwrap()));
            let fresh = program.execute(&inputs.into_iter().collect()).unwrap();
            let cost = program.cost(&model);
            let tasks = count_tasks(&program);
            assert!(tasks > 0);
            for transport in [Transport::Sequential, Transport::threaded_with(2)] {
                let backend = SpmdBackend::new().with_transport(transport.clone());
                let plan = backend.plan(&p, &schedule).unwrap();
                for request in 1..=5 {
                    let what = format!("{transport:?}, request {request}");
                    let mut inst = plan.bind(&p.bindings()).unwrap();
                    let report = inst.execute().unwrap();
                    assert_eq!(report.backend, "spmd");
                    assert_eq!(report.bytes_moved, fresh.stats.bytes, "{what}");
                    assert_eq!(report.messages, fresh.stats.messages, "{what}");
                    assert_eq!(report.flops, program.total_flops, "{what}");
                    assert_eq!(report.tasks, tasks, "{what}");
                    assert_eq!(report.peak_bytes, fresh.peak_scratch_bytes, "{what}");
                    let class = distal_runtime::stats::KernelClassStats {
                        tasks,
                        flops: program.total_flops,
                        busy_s: cost.compute_s,
                    };
                    let classes = BTreeMap::from([(program.leaf.0.name().to_string(), class)]);
                    assert_eq!(report.kernel_classes, classes, "{what}");
                    assert!(report.cache.is_none());
                    assert_eq!(report.diagnostics, plan.diagnostics(), "{what}");
                    match transport {
                        Transport::Sequential => {
                            assert_eq!(report.critical_path_s, cost.makespan_s, "{what}");
                            assert_eq!(report.modeled_s, None, "{what}");
                            assert_eq!(report.provenance, Provenance::Modeled, "{what}");
                        }
                        Transport::Threaded(_) => {
                            assert_eq!(report.modeled_s, Some(cost.makespan_s), "{what}");
                            assert_eq!(report.provenance, Provenance::Measured, "{what}");
                        }
                    }
                    assert_eq!(inst.read("A").unwrap(), fresh.output, "{what}");
                }
            }
        }
    }

    #[test]
    fn corrupted_program_is_a_verification_error() {
        // A dropped send must reject the plan with structured diagnostics.
        let p = matmul_problem(8);
        let mut program =
            lower_problem(&p, &Schedule::summa(2, 2, 4), &CollectiveConfig::default()).unwrap();
        let tag = program.messages().first().unwrap().tag;
        let dropped = |op: &SpmdOp| op.is_send() && op.message().is_some_and(|m| m.tag == tag);
        program.rewrite(|stream| stream.retain(|(_, op)| !dropped(op)));
        match verify_plan_program(&program) {
            Err(BackendError::Verification(diags)) => {
                assert!(diags.iter().any(|d| d.is_error()));
                let shown = format!("{}", BackendError::Verification(diags));
                assert!(shown.contains("lost-message"), "{shown}");
            }
            other => panic!("expected a verification rejection, got {other:?}"),
        }
    }

    #[test]
    fn an_uncovered_need_surfaces_as_a_backend_error_naming_its_cause() {
        let err = backend_err(SpmdError::Uncovered {
            tensor: "B".into(),
            rank: 5,
            step: 2,
            rect: Box::new(distal_machine::geom::Rect::sized(&[2, 2])),
        });
        let BackendError::Backend(shown) = &err else {
            panic!("expected BackendError::Backend, got {err:?}");
        };
        for part in ["B[(0, 0)..(1, 1)]", "rank 5", "step 2"] {
            assert!(shown.contains(part), "missing {part:?}: {shown}");
        }
    }

    #[test]
    fn clean_plans_carry_no_diagnostics() {
        let p = matmul_problem(8);
        let plan = SpmdBackend::new()
            .plan(&p, &Schedule::summa(2, 2, 4))
            .unwrap();
        assert!(plan.diagnostics().is_empty());
        let mut inst = SpmdBackend::new()
            .compile(&p, &Schedule::summa(2, 2, 4))
            .unwrap();
        let report = inst.run().unwrap();
        assert!(distal_core::verified_clean(&report.diagnostics));
    }

    #[test]
    fn uninitialized_input_fails_at_execute() {
        // Mirror of the dynamic runtime's uninitialized-region failure:
        // no silent zero-fill.
        let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
        let mut p = Problem::new(MachineSpec::small(2), machine);
        p.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
        let f = Format::parse("xy->xy", MemKind::Sys).unwrap();
        for t in ["A", "B", "C"] {
            p.tensor(TensorSpec::new(t, vec![8, 8], f.clone())).unwrap();
        }
        p.fill_random("B", 1).unwrap(); // C left uninitialized
        let mut inst = SpmdBackend::new()
            .compile(&p, &Schedule::summa(2, 2, 4))
            .unwrap();
        assert!(matches!(inst.execute(), Err(BackendError::NoData(m)) if m.contains("'C'")));
    }

    #[test]
    fn a_nonzero_output_initializer_is_refused_only_under_increment() {
        // The VM starts outputs at zero, which is what `=` means; a `+=`
        // would silently drop a nonzero initializer, so binding refuses it
        // (a zero fill is fine).
        let summa = Schedule::summa(2, 2, 4);
        let mut p = matmul_problem(8);
        p.fill("A", 1.0).unwrap();
        assert!(SpmdBackend::new().compile(&p, &summa).is_ok());
        p.statement("A(i,j) += B(i,k) * C(k,j)").unwrap();
        assert!(matches!(
            SpmdBackend::new().compile(&p, &summa),
            Err(BackendError::Unsupported(m)) if m.contains("'A'")
        ));
        p.fill("A", 0.0).unwrap();
        assert!(SpmdBackend::new().compile(&p, &summa).is_ok());
    }

    #[test]
    fn grid_mismatch_is_caught_at_admission() {
        let machine = DistalMachine::flat(Grid::grid2(4, 1), ProcKind::Cpu);
        let mut p = Problem::new(MachineSpec::small(2), machine);
        p.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
        let f = Format::parse("xy->xy", MemKind::Sys).unwrap();
        for t in ["A", "B", "C"] {
            p.tensor(TensorSpec::new(t, vec![8, 8], f.clone())).unwrap();
        }
        // Admission rejects the mismatched grid before lowering, with a
        // structured fix-it naming the machine shape.
        match SpmdBackend::new().compile(&p, &Schedule::summa(2, 2, 4)) {
            Err(BackendError::Verification(diags)) => {
                let d = diags
                    .iter()
                    .find(|d| d.kind == distal_core::DiagnosticKind::GridMismatch)
                    .expect("grid-mismatch diagnostic");
                assert_eq!(d.command, Some(0));
                assert_eq!(
                    d.fixit.as_deref(),
                    Some("distribute onto 4x1 (the machine grid)")
                );
            }
            Err(other) => panic!("expected an admission rejection, got {other:?}"),
            Ok(_) => panic!("expected an admission rejection, got a plan"),
        }
    }
}
