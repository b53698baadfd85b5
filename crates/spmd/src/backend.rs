//! [`Backend`] implementations over the static SPMD lowering: the
//! executable [`SpmdBackend`] and the estimation-only [`CostBackend`].
//!
//! Both derive their [`SpmdTensor`] lists and machine grid from the shared
//! [`Problem`] registry — callers never hand-build tensor descriptions or
//! rebuild grids. Together with `distal_core::RuntimeBackend` they close
//! the paper's portability claim: the same `Problem` + `Schedule` compiles
//! onto the dynamic runtime, the static MPI-style program, or a pure cost
//! model, all behind one [`Plan`]/[`Instance`] surface.
//!
//! The plan/bind split maps exactly onto this backend's structure: the
//! lowered [`SpmdProgram`] — message schedule, collectives, per-rank
//! programs — is data-independent, so [`SpmdBackend::plan`] lowers once
//! and [`Plan::bind`] only tiles the bound inputs into the ranks' home
//! pieces (the one copy of an input element on its way to a leaf; an
//! instance executes against them as often as asked) and recomputes each
//! binding's nnz-derived byte accounting
//! ([`SpmdProgram::set_tensor_nnz`]); the message schedule is shared,
//! never re-lowered.
//!
//! ```
//! use distal_core::{DistalMachine, Problem, Schedule, TensorSpec};
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
//! let mut instance = problem.compile(&SpmdBackend::new(), &Schedule::summa(2, 2, 4))?;
//! let report = instance.run()?;
//! assert!(instance.read("A")?.iter().all(|&v| (v - 16.0).abs() < 1e-9));
//! assert!(report.messages > 0);
//! # Ok(())
//! # }
//! ```

use crate::collective::CollectiveConfig;
use crate::cost::AlphaBeta;
use crate::lower::{lower_with, SpmdError, SpmdTensor};
use crate::ops::SpmdOp;
use crate::program::{SpmdProgram, SpmdResult};
use crate::transport::Transport;
use crate::vm::Homes;
use distal_core::backend::{Backend, BackendError};
use distal_core::plan::{init_nnz, Bindings, Instance, Plan};
use distal_core::{
    Diagnostic, LintConfig, Problem, Provenance, Report, Schedule, TensorInit, TensorSpec,
};
use distal_machine::geom::Rect;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Derives the SPMD tensor descriptions from a problem's registry,
/// including each initialized tensor's nnz (the input to nnz-sized
/// message accounting for compressed level formats).
pub fn problem_tensors(problem: &Problem) -> Vec<SpmdTensor> {
    let mut tensors = problem_tensor_shapes(problem);
    for t in &mut tensors {
        t.nnz = problem.nnz_of(&t.name);
    }
    tensors
}

/// The *data-independent* SPMD tensor descriptions of a problem's
/// registry: shapes + formats, nnz unknown. This is what plans lower
/// against — binding attaches each request's nnz afterwards.
fn problem_tensor_shapes(problem: &Problem) -> Vec<SpmdTensor> {
    problem
        .tensors()
        .values()
        .map(|s| SpmdTensor::new(s.name.clone(), s.dims.clone(), s.format.clone()))
        .collect()
}

/// Lowers a problem's statement for a schedule onto the problem machine's
/// (flattened) grid, with explicit collective configuration. The shared
/// registry path every test/bench should use instead of hand-building
/// [`SpmdTensor`] lists. (Unlike the plan path, this bakes the problem's
/// own initializer nnz into the program's static accounting.)
///
/// # Errors
///
/// [`SpmdError::Schedule`] when the problem has no statement,
/// [`SpmdError::UnknownTensor`] when a statement tensor is unregistered,
/// plus the other [`lower_with`] errors.
pub fn lower_problem(
    problem: &Problem,
    schedule: &Schedule,
    collectives: &CollectiveConfig,
) -> Result<SpmdProgram, SpmdError> {
    let assignment = problem
        .assignment()
        .ok_or_else(|| SpmdError::Schedule("problem has no statement".into()))?;
    lower_with(
        assignment,
        &problem_tensors(problem),
        &problem.machine().grid(),
        schedule,
        collectives,
    )
}

fn backend_err(e: SpmdError) -> BackendError {
    match e {
        SpmdError::UnknownTensor(t) => BackendError::UnknownTensor(t),
        SpmdError::Unsupported(m) => BackendError::Unsupported(m),
        SpmdError::Leaf(e) => BackendError::Compile(e),
        SpmdError::Data(m) => BackendError::Backend(format!("data error: {m}")),
        other => BackendError::Backend(other.to_string()),
    }
}

/// The shared plan-side lowering of [`SpmdBackend`] and the α-β
/// [`CostBackend`]: the problem's statement over its *data-independent*
/// tensor shapes on the machine's flattened grid.
fn plan_program(
    problem: &Problem,
    schedule: &Schedule,
    collectives: &CollectiveConfig,
) -> Result<SpmdProgram, BackendError> {
    let assignment = problem.assignment().ok_or_else(|| {
        BackendError::Compile(distal_core::CompileError::Expression(
            "problem has no statement".into(),
        ))
    })?;
    lower_with(
        assignment,
        &problem_tensor_shapes(problem),
        &problem.machine().grid(),
        schedule,
        collectives,
    )
    .map_err(backend_err)
}

/// Rejects output initializers the rank VM would silently drop: it
/// always starts output accumulators and home pieces at zero, so only an
/// absent initializer or an explicit zero fill is faithful.
fn check_output_binding(out: &str, bindings: &Bindings) -> Result<(), BackendError> {
    match bindings.get(out) {
        None => Ok(()),
        // A zero fill matches the VM's starting state exactly.
        Some(TensorInit::Value(v)) if *v == 0.0 => Ok(()),
        Some(init) => Err(BackendError::Unsupported(format!(
            "the SPMD backend starts output '{out}' at zero; its initializer \
             ({init:?}) would be ignored"
        ))),
    }
}

/// The program a binding executes and prices against: the plan's shared
/// program as-is when every tensor is dense (nnz cannot affect message
/// pricing then), otherwise a copy carrying this binding's exact
/// per-tensor stored-entry counts — bound tensors get their request's
/// nnz (via `nnz_of`, so callers that already materialized the data can
/// count from the buffer instead of regenerating the stream), unbound
/// tensors keep the dense assumption. Purely an accounting update; never
/// re-lowers, and never mutates the shared plan. (The copy is
/// O(program); a per-instance sparsity overlay consulted by the pricing
/// paths would make this O(tensors), at the cost of threading the
/// overlay through `message_bytes`/`stats`/`cost`.)
fn bound_program(
    shared: &Arc<SpmdProgram>,
    tensors: &BTreeMap<String, TensorSpec>,
    nnz_of: impl Fn(&str, &TensorSpec) -> Option<u64>,
) -> Arc<SpmdProgram> {
    if !tensors.values().any(|s| s.format.has_compressed()) {
        return Arc::clone(shared);
    }
    let mut program = (**shared).clone();
    for (name, spec) in tensors {
        program.set_tensor_nnz(name, nnz_of(name, spec));
    }
    Arc::new(program)
}

/// A binding's inputs, seeded: every right-hand-side tensor tiled into
/// the ranks' home pieces straight out of the borrowed
/// [`TensorInit::Data`] slice (any other initializer materializes once and
/// is tiled the same way), and — for a plan with a compressed tensor —
/// each one's stored-entry count, taken from the same slice. Tensors
/// without a binding are reported back so the instance can fail at
/// `execute()` — exactly where the dynamic runtime surfaces uninitialized
/// data — instead of silently zero-filling.
struct SeededInputs {
    homes: Homes,
    nnz: BTreeMap<String, u64>,
    missing: Vec<String>,
}

fn seed_inputs(
    tensors: &BTreeMap<String, TensorSpec>,
    program: &SpmdProgram,
    bindings: &Bindings,
) -> Result<SeededInputs, BackendError> {
    let mut seeded = SeededInputs {
        homes: Homes::new(program.ranks()),
        nnz: BTreeMap::new(),
        missing: Vec::new(),
    };
    let count_nnz = tensors.values().any(|s| s.format.has_compressed());
    for acc in program.assignment.input_accesses() {
        let name = &acc.tensor;
        let done = seeded.homes.holds(name)
            || seeded.missing.contains(name)
            || *name == program.assignment.lhs.tensor;
        let Some(spec) = tensors.get(name).filter(|_| !done) else {
            continue;
        };
        let Some(init) = bindings.get(name) else {
            seeded.missing.push(name.clone());
            continue;
        };
        let materialized;
        let data: &[f64] = match init {
            TensorInit::Data(data) => data,
            other => {
                materialized = other.materialize(&spec.dims);
                &materialized
            }
        };
        program
            .seed(&mut seeded.homes, name, data)
            .map_err(backend_err)?;
        if count_nnz {
            let stored = distal_sparse::stored_entries(data);
            seeded.nnz.insert(name.clone(), stored);
        }
    }
    Ok(seeded)
}

fn count_tasks(program: &SpmdProgram) -> u64 {
    program
        .in_order()
        .filter(|(_, op)| matches!(op, SpmdOp::Compute { .. }))
        .count() as u64
}

/// A report for a lowered program: message/byte counts (the static
/// nnz-density estimate, unless the caller supplies the executed exact
/// statistics) plus the α-β critical path.
fn program_report(
    backend: &str,
    provenance: Provenance,
    program: &SpmdProgram,
    model: &AlphaBeta,
    peak_bytes: u64,
    stats: Option<&crate::stats::CommStats>,
) -> Report {
    let static_stats;
    let stats = match stats {
        Some(s) => s,
        None => {
            static_stats = program.stats();
            &static_stats
        }
    };
    let cost = program.cost(model);
    let tasks = count_tasks(program);
    let mut kernel_classes = std::collections::BTreeMap::new();
    if tasks > 0 {
        kernel_classes.insert(
            program.leaf.0.name().to_string(),
            distal_runtime::stats::KernelClassStats {
                tasks,
                flops: program.total_flops,
                busy_s: cost.compute_s,
            },
        );
    }
    Report {
        backend: backend.into(),
        provenance,
        bytes_moved: stats.bytes,
        messages: stats.messages,
        critical_path_s: cost.makespan_s,
        modeled_s: None,
        flops: program.total_flops,
        tasks,
        peak_bytes,
        cache: None,
        kernel_classes,
        diagnostics: Vec::new(),
    }
}

/// Runs the static verifier over a freshly lowered plan program.
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
/// communication, recognizes and tree/ring-lowers collectives per
/// [`CollectiveConfig`], statically verifies every lowered plan
/// (communication matching, deadlock freedom, buffer hazards, bounds),
/// executes on the deterministic rank VM, and prices the critical path
/// under the α-β model.
#[derive(Clone, Debug, Default)]
pub struct SpmdBackend {
    /// Collective recognition/lowering configuration.
    pub collectives: CollectiveConfig,
    /// The α-β model pricing [`Report::critical_path_s`] (sequential
    /// transport) or [`Report::modeled_s`] (threaded transport, where the
    /// headline number is measured wall clock).
    pub model: AlphaBeta,
    /// How bound instances run the rank programs: the sequential
    /// simulation (default) or real rank threads (see
    /// [`crate::transport`]).
    pub transport: Transport,
    /// Schedule-admission lint configuration (`distal_core::lint`):
    /// denied findings reject the plan before lowering, warned findings
    /// ride on the plan and its reports.
    pub lint: LintConfig,
}

impl SpmdBackend {
    /// A backend with default collectives (binomial trees, ring
    /// all-gathers) and the default α-β model.
    pub fn new() -> Self {
        SpmdBackend::default()
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

    fn config_fingerprint(&self) -> String {
        // Collectives shape the lowered message schedule; the α-β model
        // prices every bound instance's reports; the transport changes
        // how a bound instance runs.
        format!(
            "{:?};{:?};transport={};lint={}",
            self.collectives,
            self.model,
            self.transport.label(),
            self.lint.fingerprint()
        )
    }

    fn plan(&self, problem: &Problem, schedule: &Schedule) -> Result<Box<dyn Plan>, BackendError> {
        // Schedule admission first: denied findings reject the plan
        // before any lowering happens.
        let mut diagnostics = distal_core::lint::admit(problem, schedule, &self.lint)?;
        let program = plan_program(problem, schedule, &self.collectives)?;
        diagnostics.extend(verify_plan_program(&program)?);
        Ok(Box::new(SpmdPlan {
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
/// homes and attaches per-request nnz accounting — the program is never
/// re-lowered.
pub struct SpmdPlan {
    tensors: BTreeMap<String, TensorSpec>,
    // Shared with every all-dense instance; compressed bindings get a
    // per-instance copy carrying their nnz (see `bound_program`).
    program: Arc<SpmdProgram>,
    model: AlphaBeta,
    transport: Transport,
    // Warning-severity verifier findings (errors rejected the plan).
    diagnostics: Vec<Diagnostic>,
}

impl std::fmt::Debug for SpmdPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpmdPlan")
            .field("tensors", &self.tensors.keys().collect::<Vec<_>>())
            .field("ranks", &self.program.ranks())
            .field("diagnostics", &self.diagnostics.len())
            .finish_non_exhaustive()
    }
}

impl SpmdPlan {
    /// The shared lowered program (messages, collectives, cost).
    pub fn program(&self) -> &SpmdProgram {
        &self.program
    }
}

impl Plan for SpmdPlan {
    fn backend(&self) -> &str {
        "spmd"
    }

    fn tensors(&self) -> &BTreeMap<String, TensorSpec> {
        &self.tensors
    }

    fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    fn bind(&self, bindings: &Bindings) -> Result<Box<dyn Instance>, BackendError> {
        bindings.validate(&self.tensors)?;
        check_output_binding(&self.program.assignment.lhs.tensor, bindings)?;
        let seeded = seed_inputs(&self.tensors, &self.program, bindings)?;
        // Seeded inputs were counted where they lay — a RandomSparse
        // stream materializes once, not twice.
        let program = bound_program(&self.program, &self.tensors, |name, spec| {
            let counted = seeded.nnz.get(name).copied();
            counted.or_else(|| bindings.get(name).map(|init| init_nnz(init, &spec.dims)))
        });
        Ok(Box::new(SpmdInstance {
            program,
            homes: seeded.homes,
            missing_inputs: seeded.missing,
            model: self.model,
            transport: self.transport.clone(),
            diagnostics: self.diagnostics.clone(),
            result: None,
        }))
    }
}

/// A bound SPMD program plus its inputs — tiled into the ranks' home
/// pieces, which executions only read — and (after execution) result.
pub struct SpmdInstance {
    program: Arc<SpmdProgram>,
    homes: Homes,
    missing_inputs: Vec<String>,
    model: AlphaBeta,
    transport: Transport,
    diagnostics: Vec<Diagnostic>,
    result: Option<SpmdResult>,
}

impl std::fmt::Debug for SpmdInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpmdInstance")
            .field("ranks", &self.program.ranks())
            .field("inputs", &self.homes.tensors().collect::<Vec<_>>())
            .field("executed", &self.result.is_some())
            .finish_non_exhaustive()
    }
}

impl SpmdInstance {
    /// The lowered per-rank program (messages, collectives, cost), with
    /// this binding's nnz accounting applied.
    pub fn program(&self) -> &SpmdProgram {
        &self.program
    }

    /// The VM result, once [`Instance::execute`] ran.
    pub fn result(&self) -> Option<&SpmdResult> {
        self.result.as_ref()
    }

    /// Hands the assembled output back to the pool the next execution
    /// assembles into.
    fn recycle_output(&mut self) {
        if let Some(result) = self.result.take() {
            distal_runtime::pool::give(result.output);
        }
    }
}

impl Drop for SpmdInstance {
    fn drop(&mut self) {
        self.recycle_output();
    }
}

impl Instance for SpmdInstance {
    fn backend(&self) -> &str {
        "spmd"
    }

    fn place(&mut self) -> Result<Report, BackendError> {
        // Data starts at rest in its distribution: home pieces are
        // installed directly from the initializers, so placement is free.
        Ok(Report::empty("spmd", Provenance::Measured))
    }

    fn execute(&mut self) -> Result<Report, BackendError> {
        if let Some(name) = self.missing_inputs.first() {
            // Same failure point as the dynamic runtime's uninitialized
            // regions: at execution, not as a silent zero-fill.
            return Err(BackendError::NoData(format!(
                "input '{name}' has no initializer on the problem"
            )));
        }
        let result = self
            .program
            .run(&self.homes, &self.transport)
            .map_err(backend_err)?;
        let peak = result.peak_scratch_bytes;
        let measured = result.measured.clone();
        self.recycle_output();
        self.result = Some(result);
        // Bytes, messages, flops, and the numerics behind `read` are
        // exact properties of the executed program — compressed operand
        // tiles are charged their actual per-tile pos/crd/vals payloads.
        // On the sequential transport the headline `critical_path_s`
        // comes from the α-β model (whose serialized-injection assumption
        // matches that transport exactly), so the phase reports as
        // modeled. The threaded transport measured real rank threads: the
        // headline becomes the wall-clock makespan, the α-β prediction
        // moves to `modeled_s`, and `Report::modeled_vs_measured` exposes
        // the calibration ratio.
        let exact = self.result.as_ref().map(|r| &r.stats);
        let mut report = program_report(
            "spmd",
            Provenance::Modeled,
            &self.program,
            &self.model,
            peak,
            exact,
        );
        if let Some(m) = measured {
            report.modeled_s = Some(report.critical_path_s);
            report.critical_path_s = m.wall_s;
            report.provenance = Provenance::Measured;
        }
        report.diagnostics = self.diagnostics.clone();
        Ok(report)
    }

    fn read(&self, tensor: &str) -> Result<Vec<f64>, BackendError> {
        let out = &self.program.assignment.lhs.tensor;
        if tensor == out {
            return self
                .result
                .as_ref()
                .map(|r| r.output.clone())
                .ok_or_else(|| {
                    BackendError::NoData(format!("'{tensor}' is unavailable before execute()"))
                });
        }
        let Some(spec) = self.program.tensors.iter().find(|t| t.name == tensor) else {
            return Err(BackendError::UnknownTensor(tensor.into()));
        };
        let whole = Rect::sized(&spec.dims);
        self.homes.assemble(tensor, &whole).ok_or_else(|| {
            // Registered but neither the output nor a seeded input.
            BackendError::NoData(format!("'{tensor}' has no initializer on this instance"))
        })
    }
}

/// A pure estimation target: lowers the problem to its static message
/// schedule and prices it under the SPMD α-β model without touching
/// numerics — `execute()` returns a modeled [`Report`], `read()` always
/// fails with [`BackendError::NoData`]. This is the backend the
/// autoscheduler's `search_with` path plugs in to rank candidates
/// (through its plan cache: candidates re-scored under the same key reuse
/// their lowering). The other cost model — the dynamic runtime's
/// model-mode simulator — is `RuntimeBackend::model()`.
#[derive(Clone, Debug)]
pub struct CostBackend {
    /// The α-β parameters.
    pub model: AlphaBeta,
    /// Collective recognition/lowering configuration.
    pub collectives: CollectiveConfig,
    /// Schedule-admission lint configuration (`distal_core::lint`).
    pub lint: LintConfig,
}

impl CostBackend {
    /// Estimation via the SPMD α-β model.
    pub fn alpha_beta(model: AlphaBeta) -> Self {
        CostBackend {
            model,
            collectives: CollectiveConfig::default(),
            lint: LintConfig::default(),
        }
    }

    /// Overrides the collective configuration.
    #[must_use]
    pub fn with_collectives(mut self, collectives: CollectiveConfig) -> Self {
        self.collectives = collectives;
        self
    }

    /// Overrides the schedule-admission lint configuration.
    #[must_use]
    pub fn with_lints(mut self, lint: LintConfig) -> Self {
        self.lint = lint;
        self
    }
}

impl Backend for CostBackend {
    fn name(&self) -> &str {
        "cost"
    }

    fn config_fingerprint(&self) -> String {
        // The α-β parameters price every report and the collectives shape
        // the lowering.
        format!(
            "{:?};{:?};lint={}",
            self.model,
            self.collectives,
            self.lint.fingerprint()
        )
    }

    fn plan(&self, problem: &Problem, schedule: &Schedule) -> Result<Box<dyn Plan>, BackendError> {
        let mut diagnostics = distal_core::lint::admit(problem, schedule, &self.lint)?;
        let program = plan_program(problem, schedule, &self.collectives)?;
        diagnostics.extend(verify_plan_program(&program)?);
        Ok(Box::new(CostPlan {
            tensors: problem.tensors().clone(),
            program: Arc::new(program),
            model: self.model,
            diagnostics,
        }))
    }
}

/// A [`CostBackend`] plan: a statically lowered program awaiting
/// per-binding nnz accounting.
pub struct CostPlan {
    tensors: BTreeMap<String, TensorSpec>,
    // Shared; instances with compressed bindings get a per-instance copy
    // (see `bound_program`).
    program: Arc<SpmdProgram>,
    model: AlphaBeta,
    // Warning-severity verifier findings (errors rejected the plan).
    diagnostics: Vec<Diagnostic>,
}

impl std::fmt::Debug for CostPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CostPlan")
            .field("ranks", &self.program.ranks())
            .finish_non_exhaustive()
    }
}

impl Plan for CostPlan {
    fn backend(&self) -> &str {
        "cost"
    }

    fn tensors(&self) -> &BTreeMap<String, TensorSpec> {
        &self.tensors
    }

    fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    fn bind(&self, bindings: &Bindings) -> Result<Box<dyn Instance>, BackendError> {
        bindings.validate(&self.tensors)?;
        let program = bound_program(&self.program, &self.tensors, |name, spec| {
            bindings.get(name).map(|init| init_nnz(init, &spec.dims))
        });
        Ok(Box::new(CostInstance {
            program,
            model: self.model,
        }))
    }
}

/// A [`CostBackend`] instance: prices its lowered program (this
/// binding's nnz accounting applied) without running the VM.
pub struct CostInstance {
    program: Arc<SpmdProgram>,
    model: AlphaBeta,
}

impl std::fmt::Debug for CostInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CostInstance")
            .field("ranks", &self.program.ranks())
            .finish_non_exhaustive()
    }
}

impl Instance for CostInstance {
    fn backend(&self) -> &str {
        "cost"
    }

    fn place(&mut self) -> Result<Report, BackendError> {
        Ok(Report::empty("cost", Provenance::Modeled))
    }

    fn execute(&mut self) -> Result<Report, BackendError> {
        Ok(program_report(
            "cost",
            Provenance::Modeled,
            &self.program,
            &self.model,
            0,
            None,
        ))
    }

    fn read(&self, tensor: &str) -> Result<Vec<f64>, BackendError> {
        // Honor the Instance contract: unknown names are unknown-tensor
        // errors; only registered tensors report no-data.
        if self.program.tensors.iter().any(|t| t.name == tensor) {
            Err(BackendError::NoData(format!(
                "cost instances hold no numerics; '{tensor}' cannot be read"
            )))
        } else {
            Err(BackendError::UnknownTensor(tensor.into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distal_core::{DistalMachine, RuntimeBackend, TensorSpec};
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
    fn spmd_instance_executes_and_reads() {
        let p = matmul_problem(8);
        let mut inst = p
            .compile(&SpmdBackend::new(), &Schedule::summa(2, 2, 4))
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
        let lowerings = crate::lower::lower_count();
        let mut outputs = Vec::new();
        for seed in [3u64, 4u64] {
            let mut b = Bindings::new();
            b.fill_random("B", seed).fill_random("C", seed + 10);
            let mut inst = plan.bind(&b).unwrap();
            inst.run().unwrap();
            outputs.push(inst.read("A").unwrap());
        }
        assert_eq!(crate::lower::lower_count(), lowerings);
        assert_ne!(outputs[0], outputs[1]);
    }

    #[test]
    fn differently_configured_backends_never_share_cached_plans() {
        // Same backend *name*, different collective configuration: the
        // cache must miss twice and serve each caller its own lowering
        // (the point-to-point program keeps the naive owner fans).
        let p = matmul_problem(8);
        let schedule = Schedule::summa(2, 2, 4);
        let tree = SpmdBackend::new();
        let naive = SpmdBackend::new().with_collectives(CollectiveConfig::point_to_point());
        let cache = distal_core::ShardedPlanCache::new(8, 1);
        cache.get_or_plan(&tree, &p, &schedule).unwrap();
        cache.get_or_plan(&naive, &p, &schedule).unwrap();
        assert_eq!(cache.stats().misses, 2, "configs must split keys");
        assert_eq!(cache.stats().hits, 0);
        // And runtime functional vs model likewise.
        let cache = distal_core::ShardedPlanCache::new(8, 1);
        cache
            .get_or_plan(&RuntimeBackend::functional(), &p, &schedule)
            .unwrap();
        cache
            .get_or_plan(&RuntimeBackend::model(), &p, &schedule)
            .unwrap();
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn cost_backends_estimate_without_numerics() {
        let p = matmul_problem(16);
        let schedule = Schedule::summa(2, 2, 8);
        let sim = RuntimeBackend::model();
        let alpha_beta = CostBackend::alpha_beta(AlphaBeta::default());
        for backend in [&sim as &dyn Backend, &alpha_beta] {
            let mut inst = p.compile(backend, &schedule).unwrap();
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
            rect: distal_machine::geom::Rect::sized(&[2, 2]),
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
        let mut inst = p
            .compile(&SpmdBackend::new(), &Schedule::summa(2, 2, 4))
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
        let mut inst = p
            .compile(&SpmdBackend::new(), &Schedule::summa(2, 2, 4))
            .unwrap();
        assert!(matches!(inst.execute(), Err(BackendError::NoData(m)) if m.contains("'C'")));
    }

    #[test]
    fn nonzero_output_initializer_rejected() {
        // The VM starts outputs at zero; a nonzero initializer would be
        // silently dropped, so binding refuses it (a zero fill is fine).
        let mut p = matmul_problem(8);
        p.fill("A", 0.0).unwrap();
        assert!(p
            .compile(&SpmdBackend::new(), &Schedule::summa(2, 2, 4))
            .is_ok());
        p.fill("A", 1.0).unwrap();
        assert!(matches!(
            p.compile(&SpmdBackend::new(), &Schedule::summa(2, 2, 4)),
            Err(BackendError::Unsupported(_))
        ));
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
        match p.compile(&SpmdBackend::new(), &Schedule::summa(2, 2, 4)) {
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
        // With the lint allowed, the lowering's own guard still refuses.
        assert!(matches!(
            p.compile(
                &SpmdBackend::new().with_lints(LintConfig::allow_all()),
                &Schedule::summa(2, 2, 4)
            ),
            Err(BackendError::Unsupported(_))
        ));
    }
}
