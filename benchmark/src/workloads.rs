//! The five workloads: which problems, schedules, backends and inputs
//! each one drives through the pipeline. Everything built here is the
//! benchmark's *set-up* (`setup_s`): problems, generated inputs and
//! reference samples. Why each workload exists is in `README.md` and in
//! `BENCHMARK.json`.

use crate::reference::{matmul_at, Csr, Samples, SAMPLE_POSITIONS};
use crate::rng::{self, XorShift};
use distal::prelude::*;
use distal::spmd::CollectiveConfig;
use std::sync::Arc;

pub const NAMES: [&str; 5] = [
    "dense_runtime",
    "dense_spmd",
    "plan_scale",
    "serve_mix",
    "sparse_spmv",
];

pub type SharedBackend = Arc<dyn Backend + Send + Sync>;

/// One compilation: what `Backend::plan` is called with.
#[derive(Clone)]
pub struct PlanSpec {
    pub label: String,
    pub statement: &'static str,
    pub backend: SharedBackend,
    pub problem: Arc<Problem>,
    pub schedule: Schedule,
}

/// One generated operand set of a key, with the reference's expectation.
pub struct InputSet {
    pub bindings: Bindings,
    pub samples: Samples,
}

/// Whether the serving cache is expected to hold a key's plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyClass {
    Hot,
    Cold,
}

/// A plan key that requests are sent to.
pub struct RequestKey {
    pub plan: PlanSpec,
    pub output: &'static str,
    pub inputs: Vec<InputSet>,
    /// Flops a hand-written kernel would need (2n³, 2·nnz): the numerator
    /// of every GFLOP/s figure, never `Report::flops`.
    pub useful_flops: f64,
    pub class: KeyClass,
}

pub struct Workload {
    /// Human-readable sizes for the output header.
    pub sizes: String,
    /// Keys whose uncached `Backend::plan` makes up `cold_plan_ms`.
    pub plans: Vec<PlanSpec>,
    /// The share of the run given to uncached plans; the rest goes to
    /// requests.
    pub plan_share: f64,
    pub keys: Vec<RequestKey>,
    /// `Some` for the closed-loop serving workload.
    pub serve: Option<ServeMix>,
}

impl Workload {
    /// Requests after which a client's schedule repeats its mix of keys.
    pub fn cycle(&self) -> usize {
        match &self.serve {
            Some(_) => ServeMix::COLD_EVERY,
            None => self.keys.len(),
        }
    }
}

/// Problem sizes. `full` is what `BENCHMARK.json` describes; `smoke`
/// keeps every code path but shrinks every extent.
#[derive(Clone, Debug)]
pub struct Sizes {
    pub dense_n: i64,
    pub dense_p: i64,
    pub dense_chunk: i64,
    pub dense_sets: usize,
    pub plan_ps: Vec<i64>,
    pub plan_n: i64,
    pub plan_mid_p: i64,
    pub plan_ho_n: i64,
    pub plan_req_n: i64,
    pub hot_p: i64,
    pub hot_n: i64,
    pub cold_p: i64,
    pub cold_ns: [i64; 4],
    pub cold_chunks: [i64; 2],
    pub cache_capacity: usize,
    pub sparse_n: i64,
    pub sparse_p: i64,
    pub sparse_density: f64,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            dense_n: 640,
            dense_p: 16,
            dense_chunk: 160,
            dense_sets: 4,
            plan_ps: vec![16, 64, 256],
            plan_n: 512,
            plan_mid_p: 64,
            plan_ho_n: 64,
            plan_req_n: 256,
            hot_p: 16,
            hot_n: 128,
            cold_p: 64,
            cold_ns: [128, 144, 160, 176],
            cold_chunks: [16, 32],
            cache_capacity: 16,
            sparse_n: 2048,
            sparse_p: 4,
            sparse_density: 0.01,
        }
    }

    pub fn smoke() -> Self {
        Sizes {
            dense_n: 64,
            dense_p: 4,
            dense_chunk: 16,
            dense_sets: 2,
            plan_ps: vec![4, 16],
            plan_n: 32,
            plan_mid_p: 16,
            plan_ho_n: 8,
            plan_req_n: 32,
            hot_p: 4,
            hot_n: 16,
            cold_p: 16,
            cold_ns: [16, 20, 24, 28],
            cold_chunks: [4, 8],
            cache_capacity: 16,
            sparse_n: 128,
            sparse_p: 4,
            sparse_density: 0.05,
        }
    }
}

const MATMUL: &str = "A(i,j) = B(i,k) * C(k,j)";
const SPMV: &str = "a(i) = B(i,j) * c(j)";

fn spec_for(p: i64) -> MachineSpec {
    MachineSpec::small((p as usize).div_ceil(2))
}

/// `A(i,j) = B(i,k) * C(k,j)` on `alg`'s grid and formats for `p`
/// processors. This is the statement parse + tensor/format registration
/// that `core.problem.build_us` times.
pub fn matmul_problem(
    alg: MatmulAlgorithm,
    spec: MachineSpec,
    p: i64,
    n: i64,
    chunk: i64,
) -> (Problem, Schedule) {
    let machine = DistalMachine::flat(alg.grid(p), ProcKind::Cpu);
    let mut problem = Problem::new(spec, machine);
    problem.statement(MATMUL).expect("matmul statement parses");
    for (name, format) in ["A", "B", "C"].into_iter().zip(alg.formats(MemKind::Sys)) {
        problem
            .tensor(TensorSpec::new(name, vec![n, n], format))
            .expect("Figure 9 formats are valid");
    }
    (problem, alg.schedule(p, n, chunk))
}

fn higher_order_problem(kernel: HigherOrderKernel, p: i64, n: i64) -> (Problem, Schedule) {
    let machine = DistalMachine::flat(kernel.grid(p), ProcKind::Cpu);
    let mut problem = Problem::new(spec_for(p), machine);
    problem
        .statement(kernel.expression())
        .expect("higher-order statement parses");
    for ((name, dims), format) in kernel
        .shapes(n)
        .into_iter()
        .zip(kernel.formats(MemKind::Sys))
    {
        problem
            .tensor(TensorSpec::new(name, dims, format))
            .expect("higher-order formats are valid");
    }
    (problem, kernel.schedule(p))
}

/// `a(i) = B(i,j) * c(j)` with B in `ds` (CSR) levels, whole on rank 0's
/// global memory; rows of `a` are distributed over a line of `p` ranks.
pub fn spmv_problem(p: i64, n: i64) -> (Problem, Schedule) {
    let machine = DistalMachine::flat(Grid::line(p), ProcKind::Cpu);
    let mut problem = Problem::new(spec_for(p), machine);
    problem.statement(SPMV).expect("SpMV statement parses");
    let rows = Format::parse("x->x", MemKind::Sys).expect("valid notation");
    let csr = Format::undistributed_in(MemKind::Global)
        .with_levels(vec![LevelFormat::Dense, LevelFormat::Compressed]);
    let whole = Format::undistributed_in(MemKind::Global);
    for spec in [
        TensorSpec::new("a", vec![n], rows),
        TensorSpec::new("B", vec![n, n], csr),
        TensorSpec::new("c", vec![n], whole),
    ] {
        problem.tensor(spec).expect("SpMV formats are valid");
    }
    let schedule = Schedule::new()
        .divide("i", "io", "ii", p)
        .reorder(&["io", "ii"])
        .distribute(&["io"]);
    (problem, schedule)
}

fn plan_spec(
    label: String,
    statement: &'static str,
    backend: &SharedBackend,
    (problem, schedule): (Problem, Schedule),
) -> PlanSpec {
    PlanSpec {
        label,
        statement,
        backend: Arc::clone(backend),
        problem: Arc::new(problem),
        schedule,
    }
}

impl PlanSpec {
    /// Builds the problem again from scratch — statement parse plus
    /// tensor/format registration — which is what
    /// `core.problem.build_us` times.
    pub fn rebuild_problem(&self) -> Problem {
        let mut problem = Problem::new(self.problem.spec().clone(), self.problem.machine().clone());
        problem
            .statement(self.statement)
            .expect("the statement parsed when the workload was built");
        for spec in self.problem.tensors().values() {
            problem
                .tensor(spec.clone())
                .expect("the tensor registered when the workload was built");
        }
        problem
    }
}

/// Generated B and C for an n×n matmul, with the naive reference sampled
/// at [`SAMPLE_POSITIONS`] output positions.
fn matmul_inputs(rng: &mut XorShift, n: i64, sets: usize) -> Vec<InputSet> {
    let n = n as usize;
    (0..sets)
        .map(|_| {
            let b = rng::dense(rng, n * n);
            let c = rng::dense(rng, n * n);
            let at = rng::positions(rng, n * n, SAMPLE_POSITIONS);
            let samples = Samples::new(at, |p| matmul_at(&b, &c, n, n, p));
            let mut bindings = Bindings::new();
            bindings.set_data("B", b).set_data("C", c);
            InputSet { bindings, samples }
        })
        .collect()
}

fn matmul_key(
    rng: &mut XorShift,
    plan: PlanSpec,
    n: i64,
    sets: usize,
    class: KeyClass,
) -> RequestKey {
    RequestKey {
        plan,
        output: "A",
        inputs: matmul_inputs(rng, n, sets),
        useful_flops: 2.0 * (n as f64).powi(3),
        class,
    }
}

fn plans_of(keys: &[RequestKey]) -> Vec<PlanSpec> {
    keys.iter().map(|k| k.plan.clone()).collect()
}

fn dense(backend: SharedBackend, seed: u64, s: &Sizes) -> Workload {
    let mut rng = XorShift::new(seed);
    let plan = plan_spec(
        format!("summa p={} n={}", s.dense_p, s.dense_n),
        MATMUL,
        &backend,
        matmul_problem(
            MatmulAlgorithm::Summa,
            spec_for(s.dense_p),
            s.dense_p,
            s.dense_n,
            s.dense_chunk,
        ),
    );
    let keys = vec![matmul_key(
        &mut rng,
        plan,
        s.dense_n,
        s.dense_sets,
        KeyClass::Hot,
    )];
    Workload {
        sizes: format!(
            "A(i,j)=B(i,k)*C(k,j) f64, n={}, SUMMA p={} chunk={}, {} input sets",
            s.dense_n, s.dense_p, s.dense_chunk, s.dense_sets
        ),
        plans: plans_of(&keys),
        // One plan takes microseconds to a millisecond: little is enough.
        plan_share: 0.1,
        keys,
        serve: None,
    }
}

fn plan_scale(seed: u64, s: &Sizes) -> Workload {
    let mut rng = XorShift::new(seed);
    let trees: SharedBackend = Arc::new(SpmdBackend::new());
    let runtime: SharedBackend = Arc::new(RuntimeBackend::functional());
    let chunk = (s.plan_n / 4).max(1);
    let mut plans = Vec::new();
    // The six Figure 9 algorithms at every scale, default (tree) collectives.
    for &p in &s.plan_ps {
        for alg in MatmulAlgorithm::all(p) {
            plans.push(plan_spec(
                format!("spmd/trees {} p={p}", alg.name()),
                MATMUL,
                &trees,
                matmul_problem(alg, spec_for(p), p, s.plan_n, chunk),
            ));
        }
    }
    // SUMMA again under the other two collective lowerings.
    let p = s.plan_mid_p;
    for (label, config) in [
        ("p2p", CollectiveConfig::point_to_point()),
        ("rings", CollectiveConfig::rings()),
    ] {
        let backend: SharedBackend = Arc::new(SpmdBackend::new().with_collectives(config));
        plans.push(plan_spec(
            format!("spmd/{label} Our SUMMA p={p}"),
            MATMUL,
            &backend,
            matmul_problem(MatmulAlgorithm::Summa, spec_for(p), p, s.plan_n, chunk),
        ));
    }
    // The §7.2 higher-order kernels on both executable backends.
    for kernel in HigherOrderKernel::all() {
        for (label, backend) in [("runtime", &runtime), ("spmd/trees", &trees)] {
            plans.push(plan_spec(
                format!("{label} {} p={p}", kernel.name()),
                kernel.expression(),
                backend,
                higher_order_problem(kernel, p, s.plan_ho_n),
            ));
        }
    }
    // Requests: three equal-shape systolic/broadcast programs on the
    // sequential rank VM — tiny tiles, so per-message overhead dominates.
    let n = s.plan_req_n;
    let keys = [
        MatmulAlgorithm::Cannon,
        MatmulAlgorithm::Pumma,
        MatmulAlgorithm::Summa,
    ]
    .into_iter()
    .map(|alg| {
        let plan = plan_spec(
            format!("spmd/trees {} p={p} n={n}", alg.name()),
            MATMUL,
            &trees,
            matmul_problem(alg, spec_for(p), p, n, (n / 4).max(1)),
        );
        matmul_key(&mut rng, plan, n, 2, KeyClass::Hot)
    })
    .collect();
    Workload {
        sizes: format!(
            "cold SpmdBackend::plan of Figure 9 at p={:?} n={}, SUMMA p2p/rings and 4 higher-order \
             kernels (n={}) on runtime+spmd at p={p}: {} plan keys; requests Cannon/PUMMA/SUMMA \
             p={p} n={n} on the sequential VM",
            s.plan_ps,
            s.plan_n,
            s.plan_ho_n,
            plans.len()
        ),
        plans,
        // Compile-dominated: half the run.
        plan_share: 0.5,
        keys,
        serve: None,
    }
}

fn sparse_spmv(seed: u64, s: &Sizes) -> Workload {
    let mut rng = XorShift::new(seed);
    let backend: SharedBackend = Arc::new(RuntimeBackend::functional());
    let n = s.sparse_n as usize;
    let nnz = (s.sparse_density * (n * n) as f64).round() as usize;
    let plan = plan_spec(
        format!("spmv ds p={} n={n}", s.sparse_p),
        SPMV,
        &backend,
        spmv_problem(s.sparse_p, s.sparse_n),
    );
    let inputs = (0..2)
        .map(|_| {
            let b = rng::sparse(&mut rng, n, n, nnz);
            let c = rng::dense(&mut rng, n);
            let csr = Csr::from_dense(n, n, &b);
            assert_eq!(csr.nnz(), nnz);
            let at = rng::positions(&mut rng, n, SAMPLE_POSITIONS);
            let samples = Samples::new(at, |row| csr.spmv_at(&c, row));
            let mut bindings = Bindings::new();
            bindings.set_data("B", b).set_data("c", c);
            InputSet { bindings, samples }
        })
        .collect();
    let keys = vec![RequestKey {
        plan,
        output: "a",
        inputs,
        useful_flops: 2.0 * nnz as f64,
        class: KeyClass::Hot,
    }];
    Workload {
        sizes: format!(
            "a(i)=B(i,j)*c(j) f64, B {n}x{n} 'ds' with exactly {nnz} nonzeros (density {}), \
             Grid::line({}), 2 input sets",
            s.sparse_density, s.sparse_p
        ),
        plans: plans_of(&keys),
        plan_share: 0.1,
        keys,
        serve: None,
    }
}

/// The closed-loop request schedule of `serve_mix`: which key and input
/// set client `c` sends as its `r`-th request.
///
/// Every fifth request of a client goes to the next key of that client's
/// own cold rotation; the others walk the hot keys round-robin. Each
/// client owns a disjoint slice of the (seed-shuffled) cold keys, and the
/// cold set plus the hot set exceeds the cache, so under LRU a cold key
/// is always evicted before its owner comes back to it — whatever the
/// relative progress of the clients — while a hot key never is.
#[derive(Clone, Debug)]
pub struct ServeMix {
    pub clients: usize,
    pub cache_capacity: usize,
    hot: Vec<usize>,
    /// `cold[c]` is client `c`'s rotation (indices into `Workload::keys`).
    cold: Vec<Vec<usize>>,
    sets: usize,
}

impl ServeMix {
    pub const COLD_EVERY: usize = 5;

    pub fn new(
        rng: &mut XorShift,
        hot: Vec<usize>,
        mut cold: Vec<usize>,
        clients: usize,
        cache_capacity: usize,
        sets: usize,
    ) -> ServeMix {
        // Fisher–Yates: the seed decides which client owns which cold key
        // and in what order it visits them.
        for i in (1..cold.len()).rev() {
            cold.swap(i, rng.below(i + 1));
        }
        let clients = clients.clamp(1, cold.len());
        let rotations = (0..clients)
            .map(|c| cold.iter().copied().skip(c).step_by(clients).collect())
            .collect();
        ServeMix {
            clients,
            cache_capacity,
            hot,
            cold: rotations,
            sets,
        }
    }

    /// Requests after which every client has visited each of its cold
    /// keys once, so that per-key totals (`comm_bytes`) cover the whole
    /// key set however short the timed section is.
    pub fn requests_per_rotation(&self) -> usize {
        Self::COLD_EVERY * self.cold.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// `(key index, input set index)` of client `c`'s request number `r`.
    pub fn pick(&self, c: usize, r: usize) -> (usize, usize) {
        let set = (r / Self::COLD_EVERY + c) % self.sets;
        if (r + 1).is_multiple_of(Self::COLD_EVERY) {
            let mine = &self.cold[c];
            (mine[(r / Self::COLD_EVERY) % mine.len()], set)
        } else {
            (self.hot[(r + c) % self.hot.len()], set)
        }
    }
}

fn serve_mix(seed: u64, s: &Sizes, nproc: usize) -> Workload {
    let mut rng = XorShift::new(seed);
    let backend: SharedBackend = Arc::new(SpmdBackend::new());
    let sets = 2;
    let mut keys = Vec::new();
    // Four tenants with identical shapes and schedule on clusters of
    // different node counts: distinct plan keys, exactly equal cost.
    for tenant in 0..4usize {
        let spec = MachineSpec::small((s.hot_p as usize).div_ceil(2) + tenant);
        let plan = plan_spec(
            format!("hot{tenant} summa p={} n={}", s.hot_p, s.hot_n),
            MATMUL,
            &backend,
            matmul_problem(
                MatmulAlgorithm::Summa,
                spec,
                s.hot_p,
                s.hot_n,
                (s.hot_n / 4).max(1),
            ),
        );
        keys.push(matmul_key(&mut rng, plan, s.hot_n, sets, KeyClass::Hot));
    }
    for alg in [
        MatmulAlgorithm::Cannon,
        MatmulAlgorithm::Pumma,
        MatmulAlgorithm::Summa,
    ] {
        for n in s.cold_ns {
            // The chunk only reaches SUMMA's schedule; the node count
            // keeps the two variants of Cannon and PUMMA distinct keys too.
            for (variant, chunk) in s.cold_chunks.into_iter().enumerate() {
                let spec = MachineSpec::small((s.cold_p as usize).div_ceil(2) + variant);
                let plan = plan_spec(
                    format!("cold {} p={} n={n} chunk={chunk}", alg.name(), s.cold_p),
                    MATMUL,
                    &backend,
                    matmul_problem(alg, spec, s.cold_p, n, chunk),
                );
                keys.push(matmul_key(&mut rng, plan, n, sets, KeyClass::Cold));
            }
        }
    }
    let (hot, cold): (Vec<usize>, Vec<usize>) =
        (0..keys.len()).partition(|&i| keys[i].class == KeyClass::Hot);
    let mix = ServeMix::new(&mut rng, hot, cold, nproc, s.cache_capacity, sets);
    Workload {
        sizes: format!(
            "closed loop, {} clients x 1 outstanding, ServingEngine(SpmdBackend, workers={}, \
             cache_capacity={}): 4 hot keys (SUMMA p={} n={}) + 24 cold keys \
             ({{Cannon,PUMMA,SUMMA}} x n={:?} x chunk={:?}, p={}), every 5th request cold",
            mix.clients,
            mix.clients,
            s.cache_capacity,
            s.hot_p,
            s.hot_n,
            s.cold_ns,
            s.cold_chunks,
            s.cold_p
        ),
        plans: plans_of(&keys),
        // A sweep over the 28 keys takes most of a second.
        plan_share: 0.25,
        keys,
        serve: Some(mix),
    }
}

/// Builds a workload from the seed. `nproc` bounds every thread count.
pub fn build(name: &str, seed: u64, sizes: &Sizes, nproc: usize) -> Option<Workload> {
    Some(match name {
        "dense_runtime" => dense(Arc::new(RuntimeBackend::functional()), seed, sizes),
        "dense_spmd" => dense(
            Arc::new(SpmdBackend::new().with_transport(Transport::threaded_with(nproc))),
            seed,
            sizes,
        ),
        "plan_scale" => plan_scale(seed, sizes),
        "serve_mix" => serve_mix(seed, sizes, nproc),
        "sparse_spmv" => sparse_spmv(seed, sizes),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(clients: usize) -> ServeMix {
        ServeMix::new(
            &mut XorShift::new(11),
            (0..4).collect(),
            (4..28).collect(),
            clients,
            16,
            2,
        )
    }

    #[test]
    fn serve_schedule_sends_exactly_one_request_in_five_to_a_cold_key() {
        for clients in [1, 2, 3, 8] {
            let m = mix(clients);
            for c in 0..m.clients {
                let cold = (0..1000).filter(|&r| m.pick(c, r).0 >= 4).count();
                assert_eq!(cold, 200, "client {c} of {clients}");
            }
        }
    }

    #[test]
    fn cold_rotations_are_disjoint_and_cover_every_cold_key() {
        let m = mix(2);
        let mut seen: Vec<usize> = m.cold.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (4..28).collect::<Vec<_>>());
        // A client's rotation visits all of its keys before repeating one.
        let first: Vec<usize> = (0..12).map(|i| m.pick(0, i * 5 + 4).0).collect();
        let mut distinct = first.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 12);
        assert_eq!(m.pick(0, 12 * 5 + 4).0, first[0]);
    }

    #[test]
    fn seed_changes_the_cold_rotation_but_not_the_key_set() {
        let a = ServeMix::new(&mut XorShift::new(1), vec![0], (1..25).collect(), 2, 16, 2);
        let b = ServeMix::new(&mut XorShift::new(2), vec![0], (1..25).collect(), 2, 16, 2);
        assert_ne!(a.cold, b.cold);
    }

    #[test]
    fn every_workload_builds_at_smoke_size_with_passing_references() {
        let sizes = Sizes::smoke();
        for name in NAMES {
            let w = build(name, 42, &sizes, 2).expect("known name");
            assert!(!w.plans.is_empty() && !w.keys.is_empty());
            assert_eq!(w.serve.is_some(), name == "serve_mix");
        }
        assert!(build("nope", 42, &sizes, 2).is_none());
    }
}
