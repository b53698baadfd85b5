//! Schedule admission: a static typechecker + performance linter over
//! `(Problem, Schedule, Format, Machine)`, run in every `Backend::plan`
//! *before* lowering (pipeline layer 1½ — see `ARCHITECTURE.md`).
//!
//! Two pass families, both emitting the [`crate::diagnostic`] machinery
//! with the offending command index, loop variable, tensor, and a fix-it
//! hint:
//!
//! * **legality** — schedules that cannot lower or would execute wrongly:
//!   unknown/duplicated loop variables, `distribute_onto` grids that
//!   disagree with the machine shape, non-positive chunk/part counts,
//!   `communicate` at a nonexistent loop level, and re-distribution of
//!   an already-distributed dimension;
//! * **performance** — schedules that lower but waste the machine: load
//!   imbalance from non-dividing or overpartitioned part counts (with
//!   the computed imbalance ratio), coordinate-range distribution over a
//!   `Compressed` level (data-dependent positions land uneven nonzero
//!   counts), replication blowup past a byte threshold, communication
//!   fans the collective recognizer provably cannot rewrite, large
//!   tensors left undistributed on a multi-processor machine, and shape-
//!   specialized chunks that make the serving `PlanKey` cardinality
//!   unbounded.
//!
//! Severity is configured per lint through [`LintConfig`], rustc-style
//! (`-A`/`-W`/`-D`): denied lints fail `plan` with
//! [`BackendError::Verification`]; warned lints ride on the plan's
//! diagnostics into [`crate::report::Report::diagnostics`]. The config's
//! [`LintConfig::fingerprint`] is part of every backend's
//! `config_fingerprint`, so differently-configured plans never alias in
//! the [`crate::cache::ShardedPlanCache`]. The autoscheduler runs the same
//! analysis as a pre-cost pruner: candidates with denied findings are
//! dropped before any lowering or α-β costing.

use crate::backend::BackendError;
use crate::diagnostic::{Diagnostic, DiagnosticKind};
use crate::problem::Problem;
use crate::schedule::{SchedCmd, Schedule};
use distal_format::{DimName, Format, LevelFormat, PartitionKind};
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
    /// A broadcast machine dimension replicates a tensor past
    /// [`LintConfig::replication_threshold_bytes`] (performance).
    ReplicationBlowup,
    /// A communication fan whose per-destination payloads provably differ,
    /// so the collective recognizer cannot rewrite it into a tree or ring
    /// (performance).
    UnrewritableFan,
    /// A large tensor left undistributed on a multi-processor machine
    /// (performance).
    UndistributedTensor,
    /// A schedule parameter tied to the data shape makes the serving
    /// `PlanKey` cardinality unbounded (performance).
    PlanCardinality,
}

impl Lint {
    /// Every lint, in the stable order fingerprints and docs use.
    pub fn all() -> [Lint; 12] {
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
    pub fn kind(self) -> DiagnosticKind {
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
    pub fn is_legality(self) -> bool {
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
    pub fn default_level(self) -> LintLevel {
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

/// Per-lint severity configuration, rustc-style (`-A`/`-W`/`-D` per
/// lint), plus the byte thresholds the performance lints compare against.
///
/// The config participates in plan identity: every backend appends
/// [`LintConfig::fingerprint`] to its `config_fingerprint`, so plans
/// admitted under different configurations never alias in the
/// [`crate::cache::ShardedPlanCache`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintConfig {
    levels: BTreeMap<Lint, LintLevel>,
    /// Bytes past which a broadcast machine dimension's replication of a
    /// tensor fires [`Lint::ReplicationBlowup`].
    pub replication_threshold_bytes: u64,
    /// Bytes past which an undistributed tensor on a multi-processor
    /// machine fires [`Lint::UndistributedTensor`].
    pub undistributed_threshold_bytes: u64,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig::new()
    }
}

impl LintConfig {
    /// The default configuration: legality lints deny, performance lints
    /// warn, 1 MiB thresholds.
    pub fn new() -> Self {
        LintConfig {
            levels: BTreeMap::new(),
            replication_threshold_bytes: 1 << 20,
            undistributed_threshold_bytes: 1 << 20,
        }
    }

    /// Every lint at [`LintLevel::Deny`] (warnings become errors).
    pub fn deny_all() -> Self {
        let mut c = LintConfig::new();
        for l in Lint::all() {
            c.levels.insert(l, LintLevel::Deny);
        }
        c
    }

    /// Every lint at [`LintLevel::Allow`] (admission is a no-op).
    pub fn allow_all() -> Self {
        let mut c = LintConfig::new();
        for l in Lint::all() {
            c.levels.insert(l, LintLevel::Allow);
        }
        c
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

    /// The effective level of a lint (explicit setting or the lint's
    /// default).
    pub fn level(&self, lint: Lint) -> LintLevel {
        self.levels
            .get(&lint)
            .copied()
            .unwrap_or_else(|| lint.default_level())
    }

    /// A stable textual identity of the whole configuration: every lint's
    /// effective level (in [`Lint::all`] order) plus the byte thresholds.
    /// Backends append this to their `config_fingerprint` so the plan
    /// cache never aliases differently-configured plans.
    pub fn fingerprint(&self) -> String {
        let mut s = String::new();
        for l in Lint::all() {
            if !s.is_empty() {
                s.push(',');
            }
            s.push_str(&format!("{l}={}", self.level(l)));
        }
        s.push_str(&format!(
            ";rep={};undist={}",
            self.replication_threshold_bytes, self.undistributed_threshold_bytes
        ));
        s
    }
}

/// Runs every configured pass and returns the findings (errors and
/// warnings, in schedule order then format order). Allowed lints are
/// dropped.
pub fn lint_schedule(
    problem: &Problem,
    schedule: &Schedule,
    config: &LintConfig,
) -> Vec<Diagnostic> {
    let mut linter = Linter {
        config,
        diags: Vec::new(),
    };
    linter.walk_schedule(problem, schedule);
    linter.lint_formats(problem);
    linter.diags
}

/// The admission gate every `Backend::plan` calls before lowering.
///
/// # Errors
///
/// [`BackendError::Verification`] carrying *all* findings when any denied
/// lint fired; otherwise `Ok` with the warnings (to ride on the plan).
pub fn admit(
    problem: &Problem,
    schedule: &Schedule,
    config: &LintConfig,
) -> Result<Vec<Diagnostic>, BackendError> {
    let diags = lint_schedule(problem, schedule, config);
    if diags.iter().any(Diagnostic::is_error) {
        return Err(BackendError::Verification(diags));
    }
    Ok(diags)
}

/// What the linter knows about one live loop variable while walking the
/// schedule.
#[derive(Clone, Debug)]
struct VarState {
    /// Iteration count, when the statement's extents determine it.
    extent: Option<i64>,
    /// Whether the loop is distributed (directly or inherited from the
    /// variable it derives from).
    distributed: bool,
    /// The original statement variables this loop derives from.
    roots: BTreeSet<String>,
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

    /// The legality/performance walk over the schedule's commands,
    /// simulating the loop-variable environment the commands build up.
    fn walk_schedule(&mut self, problem: &Problem, schedule: &Schedule) {
        let Some(assignment) = problem.assignment() else {
            return; // nothing to check; planning reports the missing statement
        };
        let extents = assignment.infer_extents(&problem.dims_map());
        let mut vars: BTreeMap<String, VarState> = BTreeMap::new();
        for v in assignment.all_vars() {
            vars.insert(
                v.0.clone(),
                VarState {
                    extent: extents.as_ref().and_then(|e| e.get(&v).copied()),
                    distributed: false,
                    roots: BTreeSet::from([v.0.clone()]),
                },
            );
        }
        let statement_tensors: BTreeSet<String> = assignment
            .accesses()
            .iter()
            .map(|a| a.tensor.clone())
            .collect();
        let machine_dims: Vec<i64> = problem.machine().grid().dims().to_vec();
        let machine_size = problem.machine().size();
        let machine_levels = problem.machine().hierarchy.levels().len();

        for (idx, cmd) in schedule.commands().iter().enumerate() {
            match cmd {
                SchedCmd::Divide {
                    var,
                    outer,
                    inner,
                    parts,
                } => {
                    self.check_derive(&mut vars, idx, var, outer, inner, *parts, true);
                }
                SchedCmd::Split {
                    var,
                    outer,
                    inner,
                    chunk,
                } => {
                    self.check_derive(&mut vars, idx, var, outer, inner, *chunk, false);
                }
                SchedCmd::Reorder(order) => {
                    let mut seen = BTreeSet::new();
                    for v in order {
                        if !seen.insert(v.clone()) {
                            self.emit(
                                Lint::DuplicateLoopVar,
                                format!("reorder lists '{v}' more than once"),
                                |d| {
                                    d.with_command(idx)
                                        .with_var(v.clone())
                                        .with_fixit("list each variable once")
                                },
                            );
                        } else if !vars.contains_key(v) {
                            self.unknown_var(&vars, idx, v);
                        }
                    }
                }
                SchedCmd::Distribute(list) => {
                    for v in list {
                        if !vars.contains_key(v) {
                            self.unknown_var(&vars, idx, v);
                            continue;
                        }
                        self.check_redistribution(&vars, idx, v, machine_levels);
                        vars.get_mut(v).expect("checked above").distributed = true;
                    }
                    self.check_distributed_volume(&vars, idx, machine_size);
                }
                SchedCmd::DistributeOnto {
                    targets,
                    dist,
                    local,
                    dims,
                } => {
                    if targets.len() != dist.len()
                        || targets.len() != local.len()
                        || targets.len() != dims.len()
                    {
                        self.emit(
                            Lint::GridMismatch,
                            format!(
                                "distribute_onto argument lists disagree: {} targets, {} dist, \
                                 {} local, {} grid dims",
                                targets.len(),
                                dist.len(),
                                local.len(),
                                dims.len()
                            ),
                            |d| {
                                d.with_command(idx).with_fixit(
                                    "give each target one dist var, one local var, and one grid dim",
                                )
                            },
                        );
                        continue;
                    }
                    if dims.as_slice() != machine_dims.as_slice() {
                        let grid = |ds: &[i64]| {
                            ds.iter()
                                .map(|d| d.to_string())
                                .collect::<Vec<_>>()
                                .join("x")
                        };
                        let (want, got) = (grid(&machine_dims), grid(dims));
                        self.emit(
                            Lint::GridMismatch,
                            format!(
                                "schedule distributes onto a {got} grid but the machine \
                                 grid is {want}"
                            ),
                            |d| {
                                d.with_command(idx).with_fixit(format!(
                                    "distribute onto {want} (the machine grid)"
                                ))
                            },
                        );
                    }
                    for i in 0..targets.len() {
                        if vars.contains_key(&targets[i]) {
                            self.check_redistribution(&vars, idx, &targets[i], machine_levels);
                        }
                        self.check_derive(
                            &mut vars,
                            idx,
                            &targets[i],
                            &dist[i],
                            &local[i],
                            dims[i],
                            true,
                        );
                        if let Some(s) = vars.get_mut(&dist[i]) {
                            s.distributed = true;
                        }
                    }
                    self.check_distributed_volume(&vars, idx, machine_size);
                }
                SchedCmd::Communicate { tensors, var } => {
                    if !vars.contains_key(var) {
                        let available = live_vars(&vars);
                        self.emit(
                            Lint::BadCommunicate,
                            format!("communicate at '{var}', which is not a loop of the schedule"),
                            |d| {
                                d.with_command(idx)
                                    .with_var(var.clone())
                                    .with_fixit(format!("aggregate at one of: {available}"))
                            },
                        );
                    }
                    for t in tensors {
                        if !statement_tensors.contains(t) {
                            let known = statement_tensors
                                .iter()
                                .cloned()
                                .collect::<Vec<_>>()
                                .join(", ");
                            self.emit(
                                Lint::BadCommunicate,
                                format!("communicate of '{t}', which the statement never accesses"),
                                |d| {
                                    d.with_command(idx)
                                        .with_tensor(t.clone())
                                        .with_fixit(format!("communicate one of: {known}"))
                                },
                            );
                        } else if let Some(spec) = problem.tensor_spec(t) {
                            self.check_fan(idx, t, var, &spec.format);
                        }
                    }
                }
                SchedCmd::Rotate {
                    target,
                    over,
                    result,
                } => {
                    for v in std::iter::once(target).chain(over.iter()) {
                        if !vars.contains_key(v) {
                            self.unknown_var(&vars, idx, v);
                        }
                    }
                    if vars.contains_key(result) {
                        self.duplicate_var(idx, result);
                    } else if let Some(state) = vars.remove(target) {
                        vars.insert(result.clone(), state);
                    }
                }
                SchedCmd::Parallelize(var) => {
                    if !vars.contains_key(var) {
                        self.unknown_var(&vars, idx, var);
                    }
                }
                SchedCmd::Collapse { a, b, fused } => {
                    for v in [a, b] {
                        if !vars.contains_key(v) {
                            self.unknown_var(&vars, idx, v);
                        }
                    }
                    if vars.contains_key(fused) {
                        self.duplicate_var(idx, fused);
                        continue;
                    }
                    let sa = vars.remove(a);
                    let sb = vars.remove(b);
                    if let (Some(sa), Some(sb)) = (sa, sb) {
                        let mut roots = sa.roots;
                        roots.extend(sb.roots);
                        vars.insert(
                            fused.clone(),
                            VarState {
                                extent: sa.extent.zip(sb.extent).map(|(x, y)| x * y),
                                distributed: sa.distributed || sb.distributed,
                                roots,
                            },
                        );
                    }
                }
                SchedCmd::Substitute {
                    vars: leaf_vars, ..
                } => {
                    for v in leaf_vars {
                        if !vars.contains_key(v) {
                            self.unknown_var(&vars, idx, v);
                        }
                    }
                }
            }
        }
    }

    /// Shared `divide`/`split` checks + state update. `count` is the part
    /// count (divide) or chunk size (split).
    #[allow(clippy::too_many_arguments)]
    fn check_derive(
        &mut self,
        vars: &mut BTreeMap<String, VarState>,
        idx: usize,
        var: &str,
        outer: &str,
        inner: &str,
        count: i64,
        is_divide: bool,
    ) {
        let what = if is_divide { "part count" } else { "chunk" };
        if count <= 0 {
            self.emit(
                Lint::BadChunk,
                format!("{what} {count} is not positive"),
                |d| {
                    d.with_command(idx)
                        .with_var(var.to_string())
                        .with_fixit("use a positive count")
                },
            );
        }
        let Some(state) = vars.remove(var) else {
            self.unknown_var(vars, idx, var);
            // Keep walking with unknown-extent halves to avoid cascades.
            for v in [outer, inner] {
                vars.entry(v.to_string()).or_insert(VarState {
                    extent: None,
                    distributed: false,
                    roots: BTreeSet::from([var.to_string()]),
                });
            }
            return;
        };
        for (i, v) in [outer, inner].into_iter().enumerate() {
            if vars.contains_key(v) || (i == 1 && outer == inner) {
                self.duplicate_var(idx, v);
            }
        }
        let mut outer_extent = None;
        let mut inner_extent = None;
        if count > 0 {
            if let Some(e) = state.extent {
                if is_divide && count > e {
                    // Empty parts lower fine (they become zero-iteration
                    // tiles), so this is the extreme of load imbalance —
                    // some processors get no work at all — not a legality
                    // violation.
                    self.emit(
                        Lint::LoadImbalance,
                        format!(
                            "divide of '{var}' (extent {e}) into {count} parts leaves empty parts"
                        ),
                        |d| {
                            d.with_command(idx)
                                .with_var(var.to_string())
                                .with_fixit(format!("reduce the part count to at most {e}"))
                        },
                    );
                } else if !is_divide && count >= e && e > 1 {
                    self.emit(
                        Lint::PlanCardinality,
                        format!(
                            "chunk {count} covers the whole extent {e}: the schedule is \
                             specialized to this shape, so serving over varied shapes compiles \
                             a fresh plan per shape (unbounded PlanKey cardinality)"
                        ),
                        |d| {
                            d.with_command(idx)
                                .with_var(var.to_string())
                                .with_fixit(format!("use a chunk smaller than the extent {e}"))
                        },
                    );
                } else if e % count != 0 {
                    let parts = if is_divide { count } else { ceil_div(e, count) };
                    let tile = ceil_div(e, parts);
                    let ratio = (tile * parts) as f64 / e as f64;
                    self.emit(
                        Lint::LoadImbalance,
                        format!(
                            "{what} {count} does not divide extent {e} of '{var}': the largest \
                             tile does {ratio:.2}x the work of a balanced one"
                        ),
                        |d| {
                            d.with_command(idx)
                                .with_var(var.to_string())
                                .with_fixit(format!("use a count dividing {e}"))
                        },
                    );
                }
                if is_divide {
                    outer_extent = Some(count.min(e));
                    inner_extent = Some(ceil_div(e, count.max(1)));
                } else {
                    outer_extent = Some(ceil_div(e, count.max(1)));
                    inner_extent = Some(count.min(e));
                }
            } else if is_divide {
                outer_extent = Some(count);
            } else {
                inner_extent = Some(count);
            }
        }
        // Mirror the rewrite: the outer half inherits the distributed tag.
        vars.insert(
            outer.to_string(),
            VarState {
                extent: outer_extent,
                distributed: state.distributed,
                roots: state.roots.clone(),
            },
        );
        vars.insert(
            inner.to_string(),
            VarState {
                extent: inner_extent,
                distributed: false,
                roots: state.roots,
            },
        );
    }

    fn check_redistribution(
        &mut self,
        vars: &BTreeMap<String, VarState>,
        idx: usize,
        v: &str,
        machine_levels: usize,
    ) {
        let Some(state) = vars.get(v) else { return };
        if state.distributed {
            let root = state.roots.iter().cloned().collect::<Vec<_>>().join(",");
            self.emit(
                Lint::Redistribution,
                format!("'{v}' is already distributed"),
                |d| {
                    d.with_command(idx)
                        .with_var(v.to_string())
                        .with_fixit(format!("distribute '{root}' once"))
                },
            );
            return;
        }
        // Sibling loops derived from the same statement dimension that are
        // already distributed. A dimension may be distributed once per
        // machine level (nodes, then the GPUs of a node); one more would
        // distribute it twice over the same level.
        let mut siblings = vars.iter().filter(|(other, o)| {
            *other != v && o.distributed && o.roots.intersection(&state.roots).next().is_some()
        });
        if let Some((other, _)) = siblings.next() {
            if 1 + siblings.count() < machine_levels {
                return;
            }
            let root = state.roots.iter().cloned().collect::<Vec<_>>().join(",");
            self.emit(
                Lint::Redistribution,
                format!("'{v}' derives from '{root}', which '{other}' already distributes"),
                |d| {
                    d.with_command(idx)
                        .with_var(v.to_string())
                        .with_fixit(format!("distribute '{root}' once"))
                },
            );
        }
    }

    /// After a distribute, the launch domain (product of distributed loop
    /// extents) must fit the machine.
    fn check_distributed_volume(
        &mut self,
        vars: &BTreeMap<String, VarState>,
        idx: usize,
        machine_size: i64,
    ) {
        let mut product: i64 = 1;
        let mut named = Vec::new();
        for (v, s) in vars {
            if s.distributed {
                let Some(e) = s.extent else { return }; // unknown: stay conservative
                product = product.saturating_mul(e);
                named.push(v.clone());
            }
        }
        if product > machine_size {
            self.emit(
                Lint::GridMismatch,
                format!(
                    "distributing {} launches {product} tasks but the machine has \
                     {machine_size} processors",
                    named.join(",")
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
                if factor > 1 && replicated > self.config.replication_threshold_bytes {
                    self.emit(
                        Lint::ReplicationBlowup,
                        format!(
                            "tensor '{name}' ({volume_bytes} bytes) is replicated {factor}x \
                             by broadcast machine dimensions ({replicated} bytes total)"
                        ),
                        |d| {
                            d.with_tensor(name.clone()).with_fixit(
                                "partition the broadcast machine dimension or raise \
                                 replication_threshold_bytes",
                            )
                        },
                    );
                }
            }
            if machine_size > 1
                && !spec.format.is_distributed()
                && volume_bytes > self.config.undistributed_threshold_bytes
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

    fn unknown_var(&mut self, vars: &BTreeMap<String, VarState>, idx: usize, v: &str) {
        let available = live_vars(vars);
        self.emit(
            Lint::UnknownLoopVar,
            format!("'{v}' is not a loop variable at this point in the schedule"),
            |d| {
                d.with_command(idx)
                    .with_var(v.to_string())
                    .with_fixit(format!("available loop variables: {available}"))
            },
        );
    }

    fn duplicate_var(&mut self, idx: usize, v: &str) {
        self.emit(
            Lint::DuplicateLoopVar,
            format!("'{v}' already names a loop"),
            |d| {
                d.with_command(idx)
                    .with_var(v.to_string())
                    .with_fixit(format!("pick a fresh name for '{v}'"))
            },
        );
    }
}

fn ceil_div(a: i64, b: i64) -> i64 {
    (a + b - 1) / b
}

fn live_vars(vars: &BTreeMap<String, VarState>) -> String {
    vars.keys().cloned().collect::<Vec<_>>().join(", ")
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
    fn fingerprint_is_stable_and_config_sensitive() {
        let a = LintConfig::new();
        let b = LintConfig::new();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), LintConfig::deny_all().fingerprint());
        assert_ne!(
            a.fingerprint(),
            LintConfig::new().allow(Lint::GridMismatch).fingerprint()
        );
        let mut thick = LintConfig::new();
        thick.replication_threshold_bytes = 42;
        assert_ne!(a.fingerprint(), thick.fingerprint());
        assert!(a.fingerprint().contains("grid-mismatch=deny"));
        assert!(a.fingerprint().contains("load-imbalance=warn"));
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
