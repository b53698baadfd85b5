//! Cost-model search over the candidate space.
//!
//! The search is backend-parameterized: [`AutoScheduler::score_with`] and
//! [`AutoScheduler::search_with`] accept any
//! [`distal_core::Backend`], so candidates can be ranked by the
//! dynamic runtime's model-mode simulator (the default), the SPMD α-β
//! makespan (`distal_spmd::CostBackend::alpha_beta`), or even functional
//! execution. Each candidate becomes one [`Problem`] (its grid + formats)
//! compiled through the shared pipeline; whatever the backend's
//! [`Report`](distal_core::Report) says is the score. A search fails only
//! where its input does, with the compiler's own [`CompileError`]; a
//! candidate that fails to plan or run is scored infeasible instead.

use crate::space::{enumerate_candidates, Candidate, SpaceOptions};
use distal_core::{
    Backend, CacheStats, CompileError, DistalMachine, Lint, LintConfig, Problem, RuntimeBackend,
    ShardedPlanCache, TensorSpec,
};
use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
use std::collections::BTreeMap;
use std::fmt;

/// What machine the search targets, which candidates it enumerates, and
/// which it prunes before costing. Every candidate is scored by its
/// compute phase alone (see [`AutoScheduler::score_with`]).
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// The physical machine model.
    pub spec: MachineSpec,
    /// Abstract processor kind (CPU sockets or GPUs).
    pub proc_kind: ProcKind,
    /// Enumeration knobs.
    pub space: SpaceOptions,
    /// Schedule-admission lints (`distal_core::lint`) used as a pre-cost
    /// pruner: candidates with denied findings are rejected before any
    /// lowering or cost modelling is spent on them. The stock configs
    /// additionally deny [`Lint::LoadImbalance`] — an imbalanced (or
    /// empty-part) candidate never beats its balanced sibling from the
    /// same enumeration, so costing it is pure waste.
    pub lint: LintConfig,
}

impl SearchConfig {
    /// CPU-socket search on `spec` with system-memory tiles.
    pub fn cpu(spec: MachineSpec) -> Self {
        SearchConfig {
            spec,
            proc_kind: ProcKind::Cpu,
            space: SpaceOptions::new(MemKind::Sys),
            lint: LintConfig::new().deny(Lint::LoadImbalance),
        }
    }

    /// GPU search on `spec` with framebuffer tiles (memory-constrained:
    /// replication-heavy candidates can go infeasible, §7.1.2).
    pub fn gpu(spec: MachineSpec) -> Self {
        SearchConfig {
            spec,
            proc_kind: ProcKind::Gpu,
            space: SpaceOptions::new(MemKind::Fb),
            lint: LintConfig::new().deny(Lint::LoadImbalance),
        }
    }

    /// Abstract processors available.
    pub fn processors(&self) -> i64 {
        match self.proc_kind {
            ProcKind::Cpu => self.spec.total_cpu_sockets() as i64,
            ProcKind::Gpu => self.spec.total_gpus() as i64,
        }
    }
}

/// The outcome of scoring one candidate.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// The candidate.
    pub candidate: Candidate,
    /// Simulated makespan in seconds (`f64::INFINITY` when infeasible).
    pub makespan_s: f64,
    /// Bytes communicated during compute.
    pub comm_bytes: u64,
    /// `None` when the candidate compiled and ran; `Some(reason)` when it
    /// was rejected (out of memory, oversized grid, failing schedule).
    pub infeasible: Option<String>,
    /// True when the admission linter's legality passes rejected the
    /// candidate *before* costing — no lowering or model time was spent.
    pub pruned: bool,
}

impl Evaluation {
    /// True when the candidate compiled and ran within memory.
    pub fn feasible(&self) -> bool {
        self.infeasible.is_none()
    }
}

impl fmt::Display for Evaluation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.infeasible {
            None => write!(
                f,
                "{:<28} {:>10.3} ms  {:>12} B",
                self.candidate.name,
                self.makespan_s * 1e3,
                self.comm_bytes
            ),
            Some(reason) => write!(f, "{:<28} infeasible: {reason}", self.candidate.name),
        }
    }
}

/// All evaluations of one search, sorted best-first.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// Evaluations sorted by (feasibility, makespan, bytes, name).
    pub evaluations: Vec<Evaluation>,
}

impl SearchResult {
    /// The winning evaluation, if any candidate was feasible.
    pub fn best(&self) -> Option<&Evaluation> {
        self.evaluations.first().filter(|e| e.feasible())
    }

    /// How many candidates the admission linter pruned before costing
    /// (the `search` stat the benches report and CI gates).
    pub fn pruned_candidates(&self) -> usize {
        self.evaluations.iter().filter(|e| e.pruned).count()
    }
}

/// Automatic schedule and format selection (paper §9).
///
/// The scheduler scores candidates through an internal
/// [`ShardedPlanCache`]: each candidate's (grid, formats, schedule) bundle
/// is planned once — also when several threads score it at the same time
/// — and the plan reused on every later scoring with the same key, so
/// re-running a search, or sweeping overlapping candidate sets, never
/// re-lowers a candidate it has already seen.
#[derive(Debug)]
pub struct AutoScheduler {
    config: SearchConfig,
    cache: ShardedPlanCache,
}

/// Candidate spaces are tens of entries; a few searches' worth fit
/// comfortably.
const SCORE_CACHE_CAPACITY: usize = 256;

impl AutoScheduler {
    /// A scheduler for the given target.
    pub fn new(config: SearchConfig) -> Self {
        AutoScheduler {
            config,
            cache: ShardedPlanCache::new(SCORE_CACHE_CAPACITY, 1),
        }
    }

    /// The search configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// The internal plan cache's counters (hits = candidates scored
    /// without re-lowering).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Enumerates and scores every candidate for `expr` under the default
    /// backend (the dynamic runtime's model-mode simulator), returning
    /// them best-first. Infeasible candidates are kept (sorted last) so
    /// callers can see *why* e.g. a 3D algorithm lost: OOM, not slowness.
    ///
    /// # Errors
    ///
    /// Enumeration errors ([`enumerate_candidates`]): a
    /// [`CompileError`] for an expression that does not parse, a tensor
    /// without a shape, or shapes that disagree. Evaluation failures are
    /// per-candidate infeasibility, not errors.
    pub fn search(
        &self,
        expr: &str,
        dims: &BTreeMap<String, Vec<i64>>,
    ) -> Result<SearchResult, CompileError> {
        self.search_with(&RuntimeBackend::model(), expr, dims)
    }

    /// [`AutoScheduler::search`] under an explicit scoring backend —
    /// e.g. `distal_spmd::CostBackend::alpha_beta` to rank candidates by
    /// the static SPMD α-β makespan instead of the runtime simulator.
    ///
    /// # Errors
    ///
    /// Enumeration errors, as [`AutoScheduler::search`].
    pub fn search_with(
        &self,
        backend: &dyn Backend,
        expr: &str,
        dims: &BTreeMap<String, Vec<i64>>,
    ) -> Result<SearchResult, CompileError> {
        let p = self.config.processors();
        let (_, candidates) = enumerate_candidates(expr, dims, p, &self.config.space)?;
        let mut evaluations: Vec<Evaluation> = candidates
            .into_iter()
            .map(|c| self.score_with(backend, expr, dims, c))
            .collect();
        evaluations.sort_by(|a, b| {
            (!a.feasible(), a.makespan_s, a.comm_bytes, &a.candidate.name)
                .partial_cmp(&(!b.feasible(), b.makespan_s, b.comm_bytes, &b.candidate.name))
                .expect("makespans are never NaN")
        });
        Ok(SearchResult { evaluations })
    }

    /// Scores one candidate on an explicit backend: builds the candidate's
    /// [`Problem`] (its grid + formats over the shared spec), fetches its
    /// plan from the internal [`ShardedPlanCache`] (planning only on the
    /// first encounter of the key), binds the problem's data, and reads
    /// the score off the backend's normalized report of the compute
    /// phase. Placement runs but is not scored: the paper's framing is
    /// that data is already distributed and computation shapes to it.
    pub fn score_with(
        &self,
        backend: &dyn Backend,
        expr: &str,
        dims: &BTreeMap<String, Vec<i64>>,
        candidate: Candidate,
    ) -> Evaluation {
        match self.cost(backend, expr, dims, &candidate) {
            Ok((makespan_s, comm_bytes)) => Evaluation {
                candidate,
                makespan_s,
                comm_bytes,
                infeasible: None,
                pruned: false,
            },
            Err((reason, pruned)) => Evaluation {
                candidate,
                makespan_s: f64::INFINITY,
                comm_bytes: 0,
                infeasible: Some(reason),
                pruned,
            },
        }
    }

    /// The (makespan, compute bytes) of one candidate — or why it has
    /// none, and whether the admission linter pruned it before costing.
    fn cost(
        &self,
        backend: &dyn Backend,
        expr: &str,
        dims: &BTreeMap<String, Vec<i64>>,
        candidate: &Candidate,
    ) -> Result<(f64, u64), (String, bool)> {
        fn failed(e: impl ToString) -> (String, bool) {
            (e.to_string(), false)
        }
        let machine = DistalMachine::flat(candidate.grid.clone(), self.config.proc_kind);
        let mut problem = Problem::new(self.config.spec.clone(), machine);
        problem.statement(expr).map_err(failed)?;
        for (name, shape) in dims {
            let format = candidate
                .formats
                .get(name)
                .ok_or_else(|| failed(format!("no format for tensor '{name}'")))?;
            problem
                .tensor(TensorSpec::new(name.clone(), shape.clone(), format.clone()))
                .map_err(failed)?;
            problem.fill(name, 0.0).map_err(failed)?;
        }
        // Pre-cost pruning: run the admission linter's passes over the
        // candidate. A denied finding means the schedule cannot lower (or
        // would execute wrongly), so neither a lowering nor a cost-model
        // evaluation is spent on it.
        let lint = distal_core::lint_schedule(&problem, &candidate.schedule, &self.config.lint);
        if let Some(first) = lint.iter().find(|d| d.is_error()) {
            return Err((format!("lint: {first}"), true));
        }
        let plan = self
            .cache
            .get_or_plan(backend, &problem, &candidate.schedule)
            .map_err(failed)?;
        let mut instance = plan.bind(&problem.bindings()).map_err(failed)?;
        instance
            .place()
            .map_err(|e| failed(format!("placement: {e}")))?;
        let compute = instance
            .execute()
            .map_err(|e| failed(format!("compute: {e}")))?;
        Ok((compute.critical_path_s, compute.bytes_moved))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matmul_dims(n: i64) -> BTreeMap<String, Vec<i64>> {
        ["A", "B", "C"]
            .iter()
            .map(|t| (t.to_string(), vec![n, n]))
            .collect()
    }

    #[test]
    fn search_runs_and_sorts() {
        let scheduler = AutoScheduler::new(SearchConfig::cpu(MachineSpec::small(2)));
        let result = scheduler
            .search("A(i,j) = B(i,k) * C(k,j)", &matmul_dims(128))
            .unwrap();
        let best = result.best().expect("feasible candidate exists");
        assert!(best.makespan_s.is_finite());
        // Sorted: every feasible candidate precedes every infeasible one,
        // and makespans are non-decreasing among the feasible.
        let mut last = 0.0;
        for e in &result.evaluations {
            if e.feasible() {
                assert!(e.makespan_s >= last);
                last = e.makespan_s;
            }
        }
    }

    #[test]
    fn distributed_beats_sequential_at_scale() {
        // On 8 sockets with a big matrix, any sane search must beat the
        // single-socket baseline.
        let scheduler = AutoScheduler::new(SearchConfig::cpu(MachineSpec::small(4)));
        let result = scheduler
            .search("A(i,j) = B(i,k) * C(k,j)", &matmul_dims(512))
            .unwrap();
        let best = result.best().unwrap();
        let sequential = result
            .evaluations
            .iter()
            .find(|e| e.candidate.name == "sequential")
            .unwrap();
        assert_ne!(best.candidate.name, "sequential");
        assert!(best.makespan_s < sequential.makespan_s / 2.0);
    }

    #[test]
    fn alpha_beta_backend_ranks_candidates() {
        // The same enumeration scored under the SPMD α-β cost model: the
        // static backend lowers each candidate to its exact message
        // schedule and prices the critical path — no runtime simulation,
        // no numerics.
        let scheduler = AutoScheduler::new(SearchConfig::cpu(MachineSpec::small(2)));
        let backend = distal_spmd::CostBackend::alpha_beta(distal_spmd::AlphaBeta::default());
        let result = scheduler
            .search_with(&backend, "A(i,j) = B(i,k) * C(k,j)", &matmul_dims(64))
            .unwrap();
        let best = result.best().expect("α-β-feasible candidate exists");
        assert!(best.makespan_s.is_finite());
        assert!(best.makespan_s > 0.0);
        // The α-β model still sees real communication volume.
        assert!(result
            .evaluations
            .iter()
            .filter(|e| e.feasible())
            .any(|e| e.comm_bytes > 0));
        // Both backends agree on *feasible schedules*, even where their
        // cost models differ: every α-β-feasible candidate also compiles
        // and runs under the default simulator.
        let sim = scheduler
            .search("A(i,j) = B(i,k) * C(k,j)", &matmul_dims(64))
            .unwrap();
        for e in result.evaluations.iter().filter(|e| e.feasible()) {
            let other = sim
                .evaluations
                .iter()
                .find(|o| o.candidate.name == e.candidate.name)
                .unwrap();
            assert!(
                other.feasible(),
                "{} feasible under α-β but not the simulator",
                e.candidate.name
            );
        }
    }

    #[test]
    fn repeat_searches_reuse_cached_plans() {
        let scheduler = AutoScheduler::new(SearchConfig::cpu(MachineSpec::small(2)));
        let first = scheduler
            .search("A(i,j) = B(i,k) * C(k,j)", &matmul_dims(64))
            .unwrap();
        let after_first = scheduler.cache_stats();
        assert!(after_first.misses > 0);
        let feasible = first.evaluations.iter().filter(|e| e.feasible()).count();
        // Every feasible candidate planned exactly once (infeasible ones
        // may fail before/at planning and are not cached).
        assert!(after_first.len >= feasible);

        // The second identical search performs ZERO new lowering work:
        // every feasible candidate is a cache hit.
        let lowerings = distal_core::lowering_count();
        let second = scheduler
            .search("A(i,j) = B(i,k) * C(k,j)", &matmul_dims(64))
            .unwrap();
        let after_second = scheduler.cache_stats();
        assert!(after_second.hits >= feasible as u64);
        assert_eq!(after_second.misses, after_first.misses);
        // Infeasible candidates that fail *during* planning still pay a
        // (failed, uncached) lowering attempt; the feasible set must not
        // add any. Bound: new lowerings <= infeasible candidates.
        let infeasible = first.evaluations.len() - feasible;
        assert!(
            distal_core::lowering_count() - lowerings <= infeasible as u64,
            "feasible candidates re-lowered on a warm cache"
        );
        // And scoring is unchanged by the cache.
        for (a, b) in first.evaluations.iter().zip(second.evaluations.iter()) {
            assert_eq!(a.candidate.name, b.candidate.name);
            assert_eq!(a.makespan_s, b.makespan_s);
            assert_eq!(a.comm_bytes, b.comm_bytes);
        }
    }

    #[test]
    fn concurrent_scorers_of_one_candidate_plan_once() {
        use std::sync::Barrier;
        const THREADS: usize = 8;
        let scheduler = AutoScheduler::new(SearchConfig::cpu(MachineSpec::small(2)));
        let backend = distal_spmd::CostBackend::alpha_beta(distal_spmd::AlphaBeta::default());
        let (expr, dims) = ("A(i,j) = B(i,k) * C(k,j)", matmul_dims(64));
        let tiles = distal_format::Format::parse("xy->xy", MemKind::Sys).unwrap();
        let candidate = Candidate {
            name: "summa".into(),
            grid: distal_machine::grid::Grid::grid2(2, 2),
            formats: dims.keys().map(|t| (t.clone(), tiles.clone())).collect(),
            schedule: distal_core::Schedule::summa(2, 2, 16),
        };
        let barrier = Barrier::new(THREADS);
        // `lowering_count` is thread-local: summing each thread's delta
        // counts every lowering wherever it ran.
        let lowered: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        let before = distal_core::lowering_count();
                        barrier.wait();
                        let e = scheduler.score_with(&backend, expr, &dims, candidate.clone());
                        assert!(e.feasible(), "{e}");
                        distal_core::lowering_count() - before
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let stats = scheduler.cache_stats();
        assert_eq!(stats.misses, 1, "one candidate, one plan");
        assert_eq!(stats.hits, THREADS as u64 - 1);
        assert_eq!(lowered, 1, "single-flight must lower exactly once");
    }

    #[test]
    fn illegal_candidates_are_pruned_before_costing() {
        // Exhaustive 8-way grids over extent-4 loops necessarily contain divides
        // with more parts than iterations: the admission linter rejects
        // those before any planning happens.
        let mut config = SearchConfig::cpu(MachineSpec::small(4));
        config.space.exhaustive_grids = true;
        let scheduler = AutoScheduler::new(config);
        let result = scheduler
            .search("A(i,j) = B(i,k) * C(k,j)", &matmul_dims(4))
            .unwrap();
        let pruned = result.pruned_candidates();
        assert!(
            pruned >= 1,
            "an 8-way grid dimension over an extent-4 loop must be pruned"
        );
        for e in result.evaluations.iter().filter(|e| e.pruned) {
            assert!(!e.feasible());
            let reason = e.infeasible.as_deref().unwrap();
            assert!(reason.starts_with("lint: "), "unexpected reason {reason:?}");
        }
        // Zero lowering work on pruned candidates: they never even reach
        // the plan cache, so cache traffic is bounded by the survivors.
        let stats = scheduler.cache_stats();
        let survivors = result.evaluations.len() - pruned;
        assert!(
            (stats.hits + stats.misses) as usize <= survivors,
            "pruned candidates consulted the plan cache"
        );
        // The legal candidates are unaffected by the pruner.
        assert!(result.best().expect("legal candidates remain").feasible());
    }

    #[test]
    fn determinism() {
        let scheduler = AutoScheduler::new(SearchConfig::cpu(MachineSpec::small(2)));
        let a = scheduler
            .search("A(i,j) = B(i,k) * C(k,j)", &matmul_dims(64))
            .unwrap();
        let b = scheduler
            .search("A(i,j) = B(i,k) * C(k,j)", &matmul_dims(64))
            .unwrap();
        let names_a: Vec<&str> = a
            .evaluations
            .iter()
            .map(|e| e.candidate.name.as_str())
            .collect();
        let names_b: Vec<&str> = b
            .evaluations
            .iter()
            .map(|e| e.candidate.name.as_str())
            .collect();
        assert_eq!(names_a, names_b);
    }
}
