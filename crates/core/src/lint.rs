//! Schedule admission: a static typechecker + performance linter over
//! `(Problem, Schedule, Format, Machine)`, run in every `Backend::plan`
//! *before* lowering (pipeline layer 1½ — see `ARCHITECTURE.md`).
//!
//! Admission is the compiler's own interpretation of the schedule: it
//! applies each command to the statement's concrete index notation with
//! the rewrite [`Schedule::apply`] runs and lints it against the notation
//! (the solver's extents, distributed flags and roots) before and after.
//! It stops at the first command the compiler rejects, so an admitted
//! schedule applies by construction, and the plan's lowering starts from
//! the notation admission applied ([`crate::nest::Nest::from_cin`]).
//!
//! Two pass families, both emitting the [`crate::Diagnostic`] machinery
//! with the offending command index, loop variable, tensor, and a fix-it
//! hint:
//!
//! * **legality** — schedules that cannot lower or would execute wrongly:
//!   the compiler's own rejections, each as the lint that owns it
//!   (unknown/duplicated loop variables, non-positive chunk/part counts,
//!   `communicate` at a nonexistent loop, `distribute_onto` lists that
//!   disagree), `distribute_onto` grids that disagree with the machine
//!   shape, and re-distribution of an already-distributed dimension;
//! * **performance** — schedules that lower but waste the machine: load
//!   imbalance from non-dividing or overpartitioned part counts (with
//!   the computed imbalance ratio), coordinate-range distribution over a
//!   `Compressed` level (data-dependent positions land uneven nonzero
//!   counts), replication blowup past 1 MiB, communication
//!   fans the collective recognizer provably cannot rewrite, large
//!   tensors left undistributed on a multi-processor machine, and shape-
//!   specialized chunks that make the serving `PlanKey` cardinality
//!   unbounded.
//!
//! Severity is configured per lint through [`LintConfig`], rustc-style
//! (`-A`/`-W`/`-D`): denied lints fail `plan` with
//! [`BackendError::Verification`]; warned lints ride on the plan's
//! diagnostics into [`crate::report::Report::diagnostics`]. The config is
//! a field of every backend, so it is part of the backend's `Debug` form
//! that [`crate::cache::PlanKey`] hashes: differently-configured plans
//! never alias in the [`crate::cache::ShardedPlanCache`]. The
//! autoscheduler runs the same analysis as a pre-cost pruner: candidates
//! with denied findings are dropped before any lowering or α-β costing.

use crate::backend::BackendError;
use crate::diagnostic::{Diagnostic, DiagnosticKind};
use crate::error::CompileError;
use crate::nest::statement_cin;
use crate::problem::Problem;
use crate::schedule::{SchedCmd, Schedule};
use distal_format::{DimName, Format, LevelFormat, PartitionKind};
use distal_ir::cin::ConcreteNotation;
use distal_ir::expr::IndexVar;
use distal_ir::provenance::SolverError;
use distal_ir::transform::ScheduleError;
use distal_machine::ELEM_BYTES;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// What a configured lint does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintLevel {
    /// Drop the finding entirely.
    Allow,
    /// Report the finding on the plan (and its executions' reports).
    Warn,
    /// Reject the plan with [`BackendError::Verification`].
    Deny,
}

impl fmt::Display for LintLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LintLevel::Allow => "allow",
            LintLevel::Warn => "warn",
            LintLevel::Deny => "deny",
        })
    }
}

/// One admission lint. Legality lints default to [`LintLevel::Deny`],
/// performance lints to [`LintLevel::Warn`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// A command names a loop variable that does not exist (legality).
    UnknownLoopVar,
    /// A command introduces a name that already exists, or lists one
    /// variable twice (legality).
    DuplicateLoopVar,
    /// The distributed shape disagrees with the machine grid (legality).
    GridMismatch,
    /// A non-positive chunk or part count (legality).
    BadChunk,
    /// `communicate` at a nonexistent loop or over a tensor the statement
    /// never accesses (legality).
    BadCommunicate,
    /// A dimension distributed more than once (legality).
    Redistribution,
    /// A coordinate-range distribution over a `Compressed` level:
    /// positions are data-dependent, so range partitions land wildly
    /// uneven nonzero counts per processor (performance).
    CompressedDistribution,
    /// Part counts that leave some processors with larger tiles — or,
    /// when the count exceeds the extent, with no work at all
    /// (performance).
    LoadImbalance,
    /// Broadcast machine dimensions replicate a tensor to more than 1 MiB
    /// in all (performance).
    ReplicationBlowup,
    /// A communication fan whose per-destination payloads provably differ,
    /// so the collective recognizer cannot rewrite it into a tree or ring
    /// (performance).
    UnrewritableFan,
    /// A tensor of more than 1 MiB left undistributed on a
    /// multi-processor machine (performance).
    UndistributedTensor,
    /// A schedule parameter tied to the data shape makes the serving
    /// `PlanKey` cardinality unbounded (performance).
    PlanCardinality,
}

impl Lint {
    /// Every lint, in the stable order configs and docs use.
    pub(crate) fn all() -> [Lint; 12] {
        [
            Lint::UnknownLoopVar,
            Lint::DuplicateLoopVar,
            Lint::GridMismatch,
            Lint::BadChunk,
            Lint::BadCommunicate,
            Lint::Redistribution,
            Lint::CompressedDistribution,
            Lint::LoadImbalance,
            Lint::ReplicationBlowup,
            Lint::UnrewritableFan,
            Lint::UndistributedTensor,
            Lint::PlanCardinality,
        ]
    }

    /// The diagnostic kind this lint emits.
    pub(crate) fn kind(self) -> DiagnosticKind {
        match self {
            Lint::UnknownLoopVar => DiagnosticKind::UnknownLoopVar,
            Lint::DuplicateLoopVar => DiagnosticKind::DuplicateLoopVar,
            Lint::GridMismatch => DiagnosticKind::GridMismatch,
            Lint::BadChunk => DiagnosticKind::BadChunk,
            Lint::BadCommunicate => DiagnosticKind::BadCommunicate,
            Lint::Redistribution => DiagnosticKind::Redistribution,
            Lint::CompressedDistribution => DiagnosticKind::CompressedDistribution,
            Lint::LoadImbalance => DiagnosticKind::LoadImbalance,
            Lint::ReplicationBlowup => DiagnosticKind::ReplicationBlowup,
            Lint::UnrewritableFan => DiagnosticKind::UnrewritableFan,
            Lint::UndistributedTensor => DiagnosticKind::UndistributedTensor,
            Lint::PlanCardinality => DiagnosticKind::PlanCardinality,
        }
    }

    /// True for the legality family (schedules that cannot lower or would
    /// execute wrongly); false for performance lints.
    pub(crate) fn is_legality(self) -> bool {
        matches!(
            self,
            Lint::UnknownLoopVar
                | Lint::DuplicateLoopVar
                | Lint::GridMismatch
                | Lint::BadChunk
                | Lint::BadCommunicate
                | Lint::Redistribution
        )
    }

    /// The out-of-the-box level: legality denies, performance warns.
    pub(crate) fn default_level(self) -> LintLevel {
        if self.is_legality() {
            LintLevel::Deny
        } else {
            LintLevel::Warn
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.kind().fmt(f)
    }
}

/// Bytes past which a broadcast machine dimension's replication of a
/// tensor fires [`Lint::ReplicationBlowup`].
const REPLICATION_THRESHOLD_BYTES: u64 = 1 << 20;

/// Bytes past which an undistributed tensor on a multi-processor machine
/// fires [`Lint::UndistributedTensor`].
const UNDISTRIBUTED_THRESHOLD_BYTES: u64 = 1 << 20;

/// Per-lint severity configuration, rustc-style (`-A`/`-W`/`-D` per
/// lint).
///
/// The config participates in plan identity through its `Debug` form,
/// which [`crate::cache::PlanKey`] hashes with the backend holding it. It
/// stores every lint's effective level, so two configs that behave alike
/// — say [`LintConfig::new`] and `LintConfig::new().deny(Lint::GridMismatch)`
/// — print, compare and key alike.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintConfig {
    levels: BTreeMap<Lint, LintLevel>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig::new()
    }
}

impl LintConfig {
    /// The default configuration: legality lints deny, performance lints
    /// warn.
    pub fn new() -> Self {
        LintConfig::every(Lint::default_level)
    }

    /// Every lint at [`LintLevel::Deny`] (warnings become errors).
    pub fn deny_all() -> Self {
        LintConfig::every(|_| LintLevel::Deny)
    }

    /// Every lint at [`LintLevel::Allow`] (admission is a no-op).
    pub fn allow_all() -> Self {
        LintConfig::every(|_| LintLevel::Allow)
    }

    /// Each lint at `level(lint)`.
    fn every(level: impl Fn(Lint) -> LintLevel) -> Self {
        LintConfig {
            levels: Lint::all().into_iter().map(|l| (l, level(l))).collect(),
        }
    }

    /// Sets one lint to [`LintLevel::Deny`].
    #[must_use]
    pub fn deny(mut self, lint: Lint) -> Self {
        self.levels.insert(lint, LintLevel::Deny);
        self
    }

    /// Sets one lint to [`LintLevel::Warn`].
    #[must_use]
    pub fn warn(mut self, lint: Lint) -> Self {
        self.levels.insert(lint, LintLevel::Warn);
        self
    }

    /// Sets one lint to [`LintLevel::Allow`].
    #[must_use]
    pub fn allow(mut self, lint: Lint) -> Self {
        self.levels.insert(lint, LintLevel::Allow);
        self
    }

    /// The effective level of a lint.
    pub(crate) fn level(&self, lint: Lint) -> LintLevel {
        self.levels[&lint]
    }
}

/// Runs every configured pass and returns the findings (errors and
/// warnings, in schedule order then format order). Allowed lints are
/// dropped. The schedule's passes stop at the first command the compiler
/// rejects (see [`admit`]).
pub fn lint_schedule(
    problem: &Problem,
    schedule: &Schedule,
    config: &LintConfig,
) -> Vec<Diagnostic> {
    lint(problem, schedule, config).0
}

/// The admission gate every `Backend::plan` calls before lowering. It
/// applies the schedule to the statement's concrete index notation with
/// the compiler's own rewrites, one command at a time, and lints each
/// command against the notation before and after it applies. The walk
/// stops at the first command the compiler rejects; that command's
/// finding, if a lint owns the failure, is the walk's last.
///
/// # Errors
///
/// [`BackendError::Verification`] carrying the findings when any denied
/// lint fired. Otherwise the compiler's error when it rejects the
/// statement, or a command: [`BackendError::Compile`] with the
/// [`CompileError::Schedule`] the lowering would report.
///
/// On success, the notation with the schedule applied — the plan's
/// lowering starts from it ([`crate::nest::Nest::from_cin`]) — and the
/// warnings, to ride on the plan.
pub fn admit(
    problem: &Problem,
    schedule: &Schedule,
    config: &LintConfig,
) -> Result<(ConcreteNotation, Vec<Diagnostic>), BackendError> {
    let (diags, applied) = lint(problem, schedule, config);
    if diags.iter().any(Diagnostic::is_error) {
        return Err(BackendError::Verification(diags));
    }
    Ok((applied?, diags))
}

/// The one walk behind [`lint_schedule`] and [`admit`]: the findings,
/// and the statement's notation under the schedule or the compiler's
/// reason there is none.
fn lint(
    problem: &Problem,
    schedule: &Schedule,
    config: &LintConfig,
) -> (Vec<Diagnostic>, Result<ConcreteNotation, CompileError>) {
    let mut linter = Linter {
        config,
        diags: Vec::new(),
    };
    let applied = problem
        .assignment()
        .ok_or_else(|| CompileError::Expression("problem has no statement".into()))
        .and_then(|assignment| statement_cin(assignment, &problem.dims_map()))
        .and_then(|cin| linter.apply(problem, schedule, cin));
    linter.lint_formats(problem);
    (linter.diags, applied)
}

struct Linter<'a> {
    config: &'a LintConfig,
    diags: Vec<Diagnostic>,
}

impl Linter<'_> {
    fn emit(
        &mut self,
        lint: Lint,
        message: String,
        decorate: impl FnOnce(Diagnostic) -> Diagnostic,
    ) {
        let d = match self.config.level(lint) {
            LintLevel::Allow => return,
            LintLevel::Warn => Diagnostic::warning(lint.kind(), message),
            LintLevel::Deny => Diagnostic::error(lint.kind(), message),
        };
        self.diags.push(decorate(d));
    }

    /// Applies the schedule's commands to `cin` with the rewrite
    /// [`Schedule::apply`] runs, linting each before and after it
    /// applies; stops at the first the compiler rejects.
    fn apply(
        &mut self,
        problem: &Problem,
        schedule: &Schedule,
        mut cin: ConcreteNotation,
    ) -> Result<ConcreteNotation, CompileError> {
        for (idx, cmd) in schedule.commands().iter().enumerate() {
            self.before(problem, &cin, idx, cmd);
            if let Err(e) = Schedule::apply_command(&mut cin, idx, cmd) {
                self.rejected(&cin, idx, cmd, e.root());
                return Err(e.into());
            }
            self.after(problem, &cin, idx, cmd);
        }
        Ok(cin)
    }

    /// The checks a command's arguments and the loops it starts from
    /// decide: lists that disagree, a grid that is not the machine's, a
    /// loop distributed twice.
    fn before(&mut self, problem: &Problem, cin: &ConcreteNotation, idx: usize, cmd: &SchedCmd) {
        let levels = problem.machine().hierarchy.levels().len();
        match cmd {
            SchedCmd::Distribute(vars) => {
                self.check_redistribution(cin, idx, vars.iter().zip(vars), levels);
            }
            SchedCmd::DistributeOnto {
                targets,
                dist,
                local,
                dims,
            } => {
                let [nt, nd, nl, ng] = [targets.len(), dist.len(), local.len(), dims.len()];
                if [nd, nl, ng] != [nt; 3] {
                    // The compiler rejects the command; this is its finding.
                    let message = format!(
                        "distribute_onto argument lists disagree: {nt} targets, {nd} dist, \
                         {nl} local, {ng} grid dims"
                    );
                    let fixit = "give each target one dist var, one local var, and one grid dim";
                    self.emit(Lint::GridMismatch, message, |d| {
                        d.with_command(idx).with_fixit(fixit)
                    });
                    return;
                }
                let (want, got) = (grid(problem.machine().grid().dims()), grid(dims));
                if want != got {
                    let message = format!(
                        "schedule distributes onto a {got} grid but the machine grid is {want}"
                    );
                    let fixit = format!("distribute onto {want} (the machine grid)");
                    self.emit(Lint::GridMismatch, message, |d| {
                        d.with_command(idx).with_fixit(fixit)
                    });
                }
                self.check_redistribution(cin, idx, targets.iter().zip(dist), levels);
            }
            _ => {}
        }
    }

    /// The checks the loops a command leaves decide: tile balance, the
    /// launch domain's size, communication fans.
    fn after(&mut self, problem: &Problem, cin: &ConcreteNotation, idx: usize, cmd: &SchedCmd) {
        let machine_size = problem.machine().size();
        match cmd {
            SchedCmd::Divide { var, parts, .. } => self.check_extent(cin, idx, var, *parts, true),
            SchedCmd::Split { var, chunk, .. } => self.check_extent(cin, idx, var, *chunk, false),
            SchedCmd::Distribute(_) => self.check_launch_volume(cin, idx, machine_size),
            SchedCmd::DistributeOnto { targets, dims, .. } => {
                for (target, &parts) in targets.iter().zip(dims) {
                    self.check_extent(cin, idx, target, parts, true);
                }
                self.check_launch_volume(cin, idx, machine_size);
            }
            SchedCmd::Communicate { tensors, var } => {
                for t in tensors {
                    if let Some(spec) = problem.tensor_spec(t) {
                        self.check_fan(idx, t, var, &spec.format);
                    }
                }
            }
            _ => {}
        }
    }

    /// A finding at command `idx` that names loop variable `var`.
    fn emit_var(&mut self, lint: Lint, idx: usize, var: &str, message: String, fixit: String) {
        self.emit(lint, message, |d| {
            d.with_command(idx).with_var(var).with_fixit(fixit)
        });
    }

    /// The finding of the lint that owns the compiler's rejection of
    /// `cmd`, if one does (a `distribute_onto` whose lists disagree got
    /// its finding before it applied). A distribution that leaves
    /// distributed loops apart and a collapse of loops that are not
    /// adjacent are the compiler's alone.
    fn rejected(&mut self, cin: &ConcreteNotation, idx: usize, cmd: &SchedCmd, e: &ScheduleError) {
        let (lint, var, message, fixit) = match (e, cmd) {
            (ScheduleError::UnknownLoopVar(v), SchedCmd::Communicate { .. }) => (
                Lint::BadCommunicate,
                v,
                format!("communicate at '{v}', which is not a loop of the schedule"),
                format!("aggregate at one of: {}", live_vars(cin)),
            ),
            (ScheduleError::UnknownLoopVar(v), _) => (
                Lint::UnknownLoopVar,
                v,
                format!("'{v}' is not a loop variable at this point in the schedule"),
                format!("available loop variables: {}", live_vars(cin)),
            ),
            (ScheduleError::Solver(SolverError::Redefinition(v)), _) => (
                Lint::DuplicateLoopVar,
                v,
                format!("'{v}' already names a loop"),
                format!("pick a fresh name for '{v}'"),
            ),
            (ScheduleError::BadReorder(_), SchedCmd::Reorder(order)) => {
                let mut twice = (1..order.len()).filter(|&i| order[..i].contains(&order[i]));
                let Some(v) = twice.next().map(|i| &order[i]) else {
                    return;
                };
                let message = format!("reorder lists '{v}' more than once");
                let fixit = "list each variable once".to_string();
                (Lint::DuplicateLoopVar, v, message, fixit)
            }
            (ScheduleError::Solver(SolverError::NonPositiveFactor(count)), _) => {
                let (what, var) = match cmd {
                    SchedCmd::Split { var, .. } => ("chunk", var),
                    SchedCmd::Divide { var, .. } => ("part count", var),
                    SchedCmd::DistributeOnto { targets, dims, .. } => {
                        let bad = targets.iter().zip(dims).find(|(_, parts)| **parts <= 0);
                        let Some((target, _)) = bad else { return };
                        ("part count", target)
                    }
                    _ => return,
                };
                let message = format!("{what} {count} is not positive");
                (Lint::BadChunk, var, message, "use a positive count".into())
            }
            (ScheduleError::UnknownTensor(t), _) => {
                let known = cin.body.accesses().into_iter().map(|a| a.tensor.as_str());
                let known = known
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect::<Vec<_>>();
                let message = format!("communicate of '{t}', which the statement never accesses");
                let fixit = format!("communicate one of: {}", known.join(", "));
                self.emit(Lint::BadCommunicate, message, |d| {
                    d.with_command(idx)
                        .with_tensor(t.as_str())
                        .with_fixit(fixit)
                });
                return;
            }
            _ => return,
        };
        self.emit_var(lint, idx, var, message, fixit);
    }

    /// [`Lint::LoadImbalance`] and [`Lint::PlanCardinality`] of a divide
    /// of `var` into `count` parts, or a split of it into chunks of
    /// `count`, read from the solver after the rewrite.
    fn check_extent(
        &mut self,
        cin: &ConcreteNotation,
        idx: usize,
        var: &str,
        count: i64,
        is_divide: bool,
    ) {
        let what = if is_divide { "part count" } else { "chunk" };
        let e = cin.solver.extent(&IndexVar::new(var));
        let (lint, message, fixit) = if is_divide && count > e {
            // Empty parts lower fine (they become zero-iteration tiles),
            // so this is the extreme of load imbalance — some processors
            // get no work at all — not a legality violation.
            (
                Lint::LoadImbalance,
                format!("divide of '{var}' (extent {e}) into {count} parts leaves empty parts"),
                format!("reduce the part count to at most {e}"),
            )
        } else if !is_divide && count >= e && e > 1 {
            (
                Lint::PlanCardinality,
                format!(
                    "chunk {count} covers the whole extent {e}: the schedule is specialized \
                     to this shape, so serving over varied shapes compiles a fresh plan per \
                     shape (unbounded PlanKey cardinality)"
                ),
                format!("use a chunk smaller than the extent {e}"),
            )
        } else if e % count != 0 {
            let parts = if is_divide { count } else { ceil_div(e, count) };
            let tile = ceil_div(e, parts);
            let ratio = (tile * parts) as f64 / e as f64;
            (
                Lint::LoadImbalance,
                format!(
                    "{what} {count} does not divide extent {e} of '{var}': the largest tile \
                     does {ratio:.2}x the work of a balanced one"
                ),
                format!("use a count dividing {e}"),
            )
        } else {
            return;
        };
        self.emit_var(lint, idx, var, message, fixit);
    }

    /// [`Lint::Redistribution`] for each `(loop, distributed as)` pair a
    /// distribute marks, in order, against the loops `cin` distributes
    /// and those marked before it: a loop already distributed, or one
    /// more distributed loop over a statement dimension than the machine
    /// has levels (a dimension may be distributed once per level: nodes,
    /// then the GPUs of a node). Loops the compiler will reject are left
    /// to it.
    fn check_redistribution<'a>(
        &mut self,
        cin: &'a ConcreteNotation,
        idx: usize,
        marked: impl Iterator<Item = (&'a String, &'a String)>,
        levels: usize,
    ) {
        let roots = |v: &IndexVar| {
            let mut roots = cin.solver.roots_of(v);
            roots.sort_unstable();
            roots
        };
        // The distributed loops, by name, with the statement variables
        // each derives from.
        let mut distributed: BTreeMap<&str, Vec<IndexVar>> = cin
            .loops
            .iter()
            .filter(|l| l.distributed)
            .map(|l| (l.var.name(), roots(&l.var)))
            .collect();
        for (v, distributed_as) in marked {
            let var = IndexVar::new(v.as_str());
            if cin.position(&var).is_none() {
                continue;
            }
            let own = roots(&var);
            let root = || own.iter().map(IndexVar::name).collect::<Vec<_>>().join(",");
            let mut siblings = distributed
                .iter()
                .filter(|(other, o)| **other != v && o.iter().any(|r| own.contains(r)));
            let message = if distributed.contains_key(v.as_str()) {
                Some(format!("'{v}' is already distributed"))
            } else {
                let first = siblings.next().map(|(other, _)| *other);
                first
                    .filter(|_| 1 + siblings.count() >= levels)
                    .map(|other| {
                        let root = root();
                        format!("'{v}' derives from '{root}', which '{other}' already distributes")
                    })
            };
            if let Some(message) = message {
                let fixit = format!("distribute '{}' once", root());
                self.emit_var(Lint::Redistribution, idx, v, message, fixit);
            }
            distributed.remove(v.as_str());
            distributed.insert(distributed_as, own);
        }
    }

    /// After a distribute, the launch domain (product of distributed loop
    /// extents) must fit the machine.
    fn check_launch_volume(&mut self, cin: &ConcreteNotation, idx: usize, machine_size: i64) {
        let mut named: Vec<&IndexVar> = cin
            .loops
            .iter()
            .filter(|l| l.distributed)
            .map(|l| &l.var)
            .collect();
        named.sort_unstable();
        let product = named
            .iter()
            .fold(1i64, |p, v| p.saturating_mul(cin.solver.extent(v)));
        if product > machine_size {
            let named = named.iter().map(|v| v.name()).collect::<Vec<_>>().join(",");
            self.emit(
                Lint::GridMismatch,
                format!(
                    "distributing {named} launches {product} tasks but the machine has \
                     {machine_size} processors"
                ),
                |d| {
                    d.with_command(idx)
                        .with_fixit(format!("distribute at most {machine_size} iterations"))
                },
            );
        }
    }

    /// Fans of cyclic/block-cyclic tiles send a different stripe set to
    /// every destination, which the collective recognizer (same
    /// `(tensor, rect)` payload across destinations) provably cannot
    /// rewrite into a broadcast tree or ring.
    fn check_fan(&mut self, idx: usize, tensor: &str, var: &str, format: &Format) {
        for dist in &format.distributions {
            if matches!(
                dist.partition,
                PartitionKind::Cyclic | PartitionKind::BlockCyclic { .. }
            ) {
                self.emit(
                    Lint::UnrewritableFan,
                    format!(
                        "communicating '{tensor}' at '{var}' fans out per-destination stripe \
                         sets ({} partitioning), which the collective recognizer cannot \
                         rewrite into a tree or ring",
                        match dist.partition {
                            PartitionKind::Cyclic => "cyclic".to_string(),
                            PartitionKind::BlockCyclic { block } =>
                                format!("block-cyclic({block})"),
                            PartitionKind::Blocked => unreachable!("matched above"),
                        }
                    ),
                    |d| {
                        d.with_command(idx)
                            .with_tensor(tensor.to_string())
                            .with_var(var.to_string())
                            .with_fixit(format!("use a blocked partition for '{tensor}'"))
                    },
                );
                return;
            }
        }
    }

    /// The format passes: compressed-level distribution legality plus the
    /// replication and undistributed-size performance lints.
    fn lint_formats(&mut self, problem: &Problem) {
        let machine = problem.machine();
        let levels = machine.hierarchy.levels().to_vec();
        let machine_size = machine.size();
        for (name, spec) in problem.tensors() {
            let volume_bytes = spec.dims.iter().product::<i64>().unsigned_abs() * ELEM_BYTES;
            for (li, dist) in spec.format.distributions.iter().enumerate() {
                for (ti, _mi) in dist.partitioned_pairs() {
                    if spec.format.level(ti) == LevelFormat::Compressed {
                        self.emit(
                            Lint::CompressedDistribution,
                            format!(
                                "tensor '{name}' partitions dimension {ti} by coordinate \
                                 ranges, but that dimension is stored Compressed (its \
                                 coordinates are positions, not ranges)"
                            ),
                            |d| {
                                d.with_tensor(name.clone()).with_fixit(format!(
                                    "store dimension {ti} as Dense or partition a dense dimension"
                                ))
                            },
                        );
                    }
                }
                let Some(grid) = levels.get(li) else { continue };
                let mut factor: i64 = 1;
                for (mi, d) in dist.machine_dims.iter().enumerate() {
                    if *d == DimName::Broadcast && mi < grid.dim() {
                        factor = factor.saturating_mul(grid.extent(mi));
                    }
                }
                let replicated = volume_bytes.saturating_mul(factor.unsigned_abs());
                if factor > 1 && replicated > REPLICATION_THRESHOLD_BYTES {
                    self.emit(
                        Lint::ReplicationBlowup,
                        format!(
                            "tensor '{name}' ({volume_bytes} bytes) is replicated {factor}x \
                             by broadcast machine dimensions ({replicated} bytes total)"
                        ),
                        |d| {
                            d.with_tensor(name.clone())
                                .with_fixit("partition the broadcast machine dimension")
                        },
                    );
                }
            }
            if machine_size > 1
                && !spec.format.is_distributed()
                && volume_bytes > UNDISTRIBUTED_THRESHOLD_BYTES
            {
                self.emit(
                    Lint::UndistributedTensor,
                    format!(
                        "tensor '{name}' ({volume_bytes} bytes) is undistributed on a \
                         {machine_size}-processor machine: all of its traffic funnels \
                         through one rank"
                    ),
                    |d| {
                        d.with_tensor(name.clone())
                            .with_fixit(format!("distribute '{name}' across the machine"))
                    },
                );
            }
        }
    }
}

/// A grid's extents as the diagnostics print them, e.g. `4x2`.
fn grid(dims: &[i64]) -> String {
    dims.iter()
        .map(i64::to_string)
        .collect::<Vec<_>>()
        .join("x")
}

fn ceil_div(a: i64, b: i64) -> i64 {
    (a + b - 1) / b
}

/// The loops of `cin`, by name.
fn live_vars(cin: &ConcreteNotation) -> String {
    let mut names: Vec<&str> = cin.loops.iter().map(|l| l.var.name()).collect();
    names.sort_unstable();
    names.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::DistalMachine;
    use crate::problem::TensorSpec;
    use distal_machine::grid::Grid;
    use distal_machine::spec::{MachineSpec, MemKind, ProcKind};

    fn matmul_problem(n: i64, gx: i64, gy: i64) -> Problem {
        let machine = DistalMachine::flat(Grid::grid2(gx, gy), ProcKind::Cpu);
        let mut p = Problem::new(MachineSpec::small(4), machine);
        p.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
        let f = Format::parse("xy->xy", MemKind::Sys).unwrap();
        for t in ["A", "B", "C"] {
            p.tensor(TensorSpec::new(t, vec![n, n], f.clone())).unwrap();
        }
        p
    }

    #[test]
    fn summa_is_clean_under_deny_all() {
        let p = matmul_problem(8, 2, 2);
        let diags = lint_schedule(&p, &Schedule::summa(2, 2, 4), &LintConfig::deny_all());
        assert!(diags.is_empty(), "{diags:?}");
        assert!(admit(&p, &Schedule::summa(2, 2, 4), &LintConfig::deny_all()).is_ok());
    }

    #[test]
    fn grid_mismatch_names_machine_shape() {
        let p = matmul_problem(8, 4, 1);
        let err = admit(&p, &Schedule::summa(2, 2, 4), &LintConfig::new()).unwrap_err();
        let BackendError::Verification(diags) = err else {
            panic!("expected verification failure")
        };
        let d = &diags[0];
        assert_eq!(d.kind, DiagnosticKind::GridMismatch);
        assert_eq!(d.command, Some(0));
        assert_eq!(
            d.fixit.as_deref(),
            Some("distribute onto 4x1 (the machine grid)")
        );
    }

    #[test]
    fn levels_gate_severity_and_allow_drops() {
        let p = matmul_problem(8, 4, 1);
        let s = Schedule::summa(2, 2, 4);
        let warned = lint_schedule(&p, &s, &LintConfig::new().warn(Lint::GridMismatch));
        assert!(warned.iter().all(|d| !d.is_error()));
        assert!(!warned.is_empty());
        assert!(admit(&p, &s, &LintConfig::new().warn(Lint::GridMismatch)).is_ok());
        let allowed = lint_schedule(&p, &s, &LintConfig::allow_all());
        assert!(allowed.is_empty());
    }

    #[test]
    fn load_imbalance_reports_the_ratio() {
        let p = matmul_problem(10, 2, 2);
        // 10 does not divide by 4: largest tile 3 vs balanced 2.5 = 1.2x.
        let s = Schedule::new().divide("k", "ko", "ki", 4);
        let diags = lint_schedule(&p, &s, &LintConfig::new());
        let d = diags
            .iter()
            .find(|d| d.kind == DiagnosticKind::LoadImbalance)
            .unwrap();
        assert!(!d.is_error());
        assert!(d.message.contains("1.20x"), "{}", d.message);
        assert_eq!(d.fixit.as_deref(), Some("use a count dividing 10"));
    }

    #[test]
    fn configs_that_behave_alike_print_alike() {
        let a = LintConfig::new();
        // Restating a default changes nothing, in behaviour or in print.
        let restated = LintConfig::new().deny(Lint::GridMismatch);
        assert_eq!(a, restated);
        assert_eq!(format!("{a:?}"), format!("{restated:?}"));
        assert_ne!(a, LintConfig::deny_all());
        assert_ne!(a, LintConfig::new().allow(Lint::GridMismatch));
        let shown = format!("{a:?}");
        assert!(shown.contains("GridMismatch: Deny"), "{shown}");
        assert!(shown.contains("LoadImbalance: Warn"), "{shown}");
    }

    #[test]
    fn legality_partition_matches_defaults() {
        for l in Lint::all() {
            assert_eq!(
                l.default_level(),
                if l.is_legality() {
                    LintLevel::Deny
                } else {
                    LintLevel::Warn
                }
            );
        }
        assert_eq!(Lint::all().len(), 12);
    }
}
