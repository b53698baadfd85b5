//! Compile-once / execute-many: one plan bound repeatedly must (a) do
//! zero schedule-application / lowering work per binding, (b) produce
//! bit-identical results to a fresh `Backend::compile` with the same
//! data, and (c) recompute nnz-derived byte accounting per instance —
//! never inherit an earlier binding's sparsity.
//!
//! Plan-time work has one witness, `distal_core::lowering_count()`: one
//! `Backend::plan` is exactly one count on every backend and mode.

use distal_core::{
    lowering_count, Backend, Bindings, DistalMachine, LeafKind, LintConfig, Plan, Problem,
    RuntimeBackend, Schedule, TensorSpec,
};
use distal_format::Format;
use distal_machine::grid::Grid;
use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
use distal_spmd::{AlphaBeta, CostBackend, SpmdBackend};
use std::collections::BTreeMap;

/// A SUMMA matmul problem with *no initializers*: the data arrives per
/// request through `Bindings`.
fn matmul_shapes(n: i64) -> (Problem, Schedule) {
    let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
    let mut p = Problem::new(MachineSpec::small(2), machine);
    p.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
    let f = Format::parse("xy->xy", MemKind::Sys).unwrap();
    for t in ["A", "B", "C"] {
        p.tensor(TensorSpec::new(t, vec![n, n], f.clone())).unwrap();
    }
    (p, Schedule::summa(2, 2, (n / 2).max(1)))
}

/// The same shapes with B CSR-compressed (`ds`) — the nnz-accounting
/// probe: message pricing must follow each binding's density.
fn sparse_matmul_shapes(n: i64) -> (Problem, Schedule) {
    let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
    let mut p = Problem::new(MachineSpec::small(2), machine);
    p.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
    let tiles = Format::parse("xy->xy", MemKind::Sys).unwrap();
    let b_fmt = Format::parse_levels("xy->xy", "ds", MemKind::Sys).unwrap();
    p.tensor(TensorSpec::new("A", vec![n, n], tiles.clone()))
        .unwrap();
    p.tensor(TensorSpec::new("B", vec![n, n], b_fmt)).unwrap();
    p.tensor(TensorSpec::new("C", vec![n, n], tiles)).unwrap();
    (p, Schedule::summa(2, 2, (n / 2).max(1)))
}

fn seeded_bindings(b_seed: u64, c_seed: u64) -> Bindings {
    let mut b = Bindings::new();
    b.fill_random("B", b_seed).fill_random("C", c_seed);
    b
}

fn bits(data: &[f64]) -> Vec<u64> {
    data.iter().map(|v| v.to_bits()).collect()
}

/// `A` of the one-shot path: a fresh `Backend::compile` of `shapes` with
/// the data `seeded_bindings(b_seed, c_seed)` binds.
fn fresh_output(
    shapes: &Problem,
    backend: &dyn Backend,
    schedule: &Schedule,
    b_seed: u64,
    c_seed: u64,
) -> Vec<u64> {
    let mut problem = shapes.clone();
    problem.fill_random("B", b_seed).unwrap();
    problem.fill_random("C", c_seed).unwrap();
    let mut fresh = backend.compile(&problem, schedule).unwrap();
    fresh.run().unwrap();
    bits(&fresh.read("A").unwrap())
}

#[test]
fn runtime_plan_rebinds_match_fresh_compiles() {
    let (shapes, schedule) = matmul_shapes(8);
    let backend = RuntimeBackend::functional();
    let plan = backend.plan_typed(&shapes, &schedule).unwrap();
    // (recorded, replayed) over the plan's two programs.
    let traces = || {
        let kernel = plan.kernel();
        let counters = [kernel.placement.counters(), kernel.compute.counters()];
        counters.iter().fold((0, 0), |(recorded, replayed), c| {
            (recorded + c.recorded, replayed + c.replayed)
        })
    };

    let seeds = [(11u64, 12u64), (21u64, 22u64), (31u64, 32u64)];
    for (round, (b_seed, c_seed)) in seeds.into_iter().enumerate() {
        let lowerings = lowering_count();
        let mut inst = plan.bind(&seeded_bindings(b_seed, c_seed)).unwrap();
        inst.run().unwrap();
        // Nor any dependence analysis after the first binding's: place
        // and execute each replay what that one recorded.
        assert_eq!(traces(), (2, 2 * round as u64), "bind #{round}");
        // Binding + running performs no lowering — hence no schedule
        // application and no leaf-kernel specialization — on every
        // binding (the second is the acceptance gate; the first already
        // holds because planning did the work).
        assert_eq!(lowering_count(), lowerings, "bind #{round} re-lowered");

        // Bit-identical to the one-shot path with the same data.
        assert_eq!(
            bits(&inst.read("A").unwrap()),
            fresh_output(&shapes, &backend, &schedule, b_seed, c_seed),
            "round {round}"
        );
    }
}

#[test]
fn spmd_plan_rebinds_match_fresh_compiles() {
    let (shapes, schedule) = matmul_shapes(8);
    let backend = SpmdBackend::new();
    let plan = backend.plan(&shapes, &schedule).unwrap();

    for (b_seed, c_seed) in [(31u64, 32u64), (41u64, 42u64)] {
        let lowerings = lowering_count();
        let mut inst = plan.bind(&seeded_bindings(b_seed, c_seed)).unwrap();
        inst.run().unwrap();
        assert_eq!(
            lowering_count(),
            lowerings,
            "binding an SPMD plan re-lowered"
        );

        assert_eq!(
            bits(&inst.read("A").unwrap()),
            fresh_output(&shapes, &backend, &schedule, b_seed, c_seed)
        );
    }
}

#[test]
fn an_spmd_program_resolves_once_for_every_binding_and_execute() {
    // A program resolves for the rank VM on its first execution and keeps
    // the result: every later request on its plan replays it, whatever
    // each binding's nnz, and so does a program executed outside a plan.
    // Nothing resolves in model mode, where nothing runs. A rewrite drops
    // the resolution, so a rewritten program runs what it now says.
    let (shapes, schedule) = matmul_shapes(8);
    let seeds = [(51u64, 52u64), (61, 62), (71, 72), (81, 82)];
    let fresh: Vec<Vec<u64>> = seeds
        .iter()
        .map(|&(b, c)| fresh_output(&shapes, &SpmdBackend::new(), &schedule, b, c))
        .collect();
    let plan = SpmdBackend::new().plan(&shapes, &schedule).unwrap();
    let before = distal_spmd::resolve_count();
    for ((b_seed, c_seed), want) in seeds.into_iter().zip(&fresh) {
        let mut inst = plan.bind(&seeded_bindings(b_seed, c_seed)).unwrap();
        inst.run().unwrap();
        assert_eq!(distal_spmd::resolve_count(), before + 1);
        assert_eq!(&bits(&inst.read("A").unwrap()), want);
    }
    let priced = CostBackend::alpha_beta(AlphaBeta::default());
    let modeled = priced.plan(&shapes, &schedule).unwrap();
    modeled.bind(&seeded_bindings(1, 2)).unwrap().run().unwrap();
    assert_eq!(
        distal_spmd::resolve_count(),
        before + 1,
        "model mode resolved"
    );

    // A binding whose compressed operand is full and one whose operand is
    // sparse share one resolution of their plan's program.
    let (sparse_shapes, _) = sparse_matmul_shapes(8);
    let plan = SpmdBackend::new().plan(&sparse_shapes, &schedule).unwrap();
    let mut sparse = Bindings::new();
    sparse
        .fill_random_sparse("B", 0xB, 0.25)
        .fill_random("C", 0xC);
    let resolved = distal_spmd::resolve_count();
    for bindings in [seeded_bindings(91, 92), sparse] {
        plan.bind(&bindings).unwrap().run().unwrap();
    }
    assert_eq!(distal_spmd::resolve_count(), resolved + 1);

    let mut problem = shapes.clone();
    problem
        .fill_random("B", 3)
        .unwrap()
        .fill_random("C", 4)
        .unwrap();
    let collectives = distal_spmd::CollectiveConfig::default();
    let mut program = distal_spmd::lower_problem(&problem, &schedule, &collectives).unwrap();
    let inputs: BTreeMap<String, Vec<f64>> = ["B", "C"]
        .map(|t| (t.to_string(), problem.initial_data(t).unwrap()))
        .into_iter()
        .collect();
    let resolved = distal_spmd::resolve_count();
    let whole = program.execute(&inputs).unwrap().output;
    assert_eq!(program.execute(&inputs).unwrap().output, whole);
    assert_eq!(distal_spmd::resolve_count(), resolved + 1);
    // Without rank 0's last leaf, its part of the output is missing.
    let dropped = program
        .rank_ops(0)
        .iter()
        .rposition(|op| matches!(op, distal_spmd::SpmdOp::Compute { .. }))
        .expect("rank 0 computes");
    let mut seen = 0;
    program.rewrite(|stream| {
        stream.retain(|(rank, _)| {
            let keep = *rank != 0 || seen != dropped;
            seen += usize::from(*rank == 0);
            keep
        })
    });
    let rewritten = program.execute(&inputs).unwrap().output;
    assert_eq!(program.execute(&inputs).unwrap().output, rewritten);
    assert_eq!(distal_spmd::resolve_count(), resolved + 2);
    assert_ne!(bits(&rewritten), bits(&whole));
}

#[test]
fn cross_backend_parity_through_one_plan_each() {
    // The two backends' plans, bound to the same request, agree bit for
    // bit — the PR-3 parity claim carried over to the plan/bind path.
    let (shapes, schedule) = matmul_shapes(8);
    let runtime_plan = RuntimeBackend::functional()
        .plan(&shapes, &schedule)
        .unwrap();
    let spmd_plan = SpmdBackend::new().plan(&shapes, &schedule).unwrap();
    let bindings = seeded_bindings(5, 6);
    let mut a = runtime_plan.bind(&bindings).unwrap();
    let mut b = spmd_plan.bind(&bindings).unwrap();
    a.run().unwrap();
    b.run().unwrap();
    assert_eq!(a.read("A").unwrap(), b.read("A").unwrap());
}

#[test]
fn sparse_bindings_recompute_nnz_bytes_per_instance() {
    let (shapes, schedule) = sparse_matmul_shapes(16);
    let backend = SpmdBackend::new();
    let plan = backend.plan(&shapes, &schedule).unwrap();

    let mut reports = Vec::new();
    for density in [0.01, 0.5] {
        let mut bindings = Bindings::new();
        bindings
            .fill_random_sparse("B", 0xB, density)
            .fill_random("C", 0xC);
        let mut inst = plan.bind(&bindings).unwrap();
        let report = inst.run().unwrap();

        // Each instance matches a fresh compile of the same data: bytes
        // (exact executed pos/crd/vals payloads), messages, and the α-β
        // critical path (priced off the *static* nnz estimate — the part
        // that would go stale if a binding inherited the previous
        // instance's sparsity metadata).
        let mut fresh_problem = shapes.clone();
        fresh_problem.fill_random_sparse("B", 0xB, density).unwrap();
        fresh_problem.fill_random("C", 0xC).unwrap();
        let mut fresh = backend.compile(&fresh_problem, &schedule).unwrap();
        let fresh_report = fresh.run().unwrap();
        assert_eq!(report.bytes_moved, fresh_report.bytes_moved, "d={density}");
        assert_eq!(report.messages, fresh_report.messages, "d={density}");
        assert_eq!(
            report.critical_path_s, fresh_report.critical_path_s,
            "d={density}"
        );
        assert_eq!(inst.read("A").unwrap(), fresh.read("A").unwrap());
        reports.push(report);
    }
    // Densities 0.01 and 0.5 move very different byte volumes; had the
    // second binding inherited the first's nnz, these would coincide.
    assert!(
        reports[0].bytes_moved < reports[1].bytes_moved,
        "1% density must move fewer bytes than 50% ({} vs {})",
        reports[0].bytes_moved,
        reports[1].bytes_moved
    );
    assert!(reports[0].critical_path_s < reports[1].critical_path_s);
}

#[test]
fn cost_plan_static_pricing_follows_each_binding() {
    // The α-β cost plan never executes — its report is purely the static
    // nnz-density estimate, so it directly witnesses the per-binding
    // sparsity recomputation.
    let (shapes, schedule) = sparse_matmul_shapes(16);
    let backend = CostBackend::alpha_beta(AlphaBeta::default());
    let plan = backend.plan(&shapes, &schedule).unwrap();
    let mut bytes = Vec::new();
    for density in [0.01, 0.5] {
        let mut bindings = Bindings::new();
        bindings
            .fill_random_sparse("B", 0xB, density)
            .fill_random("C", 0xC);
        let mut inst = plan.bind(&bindings).unwrap();
        let report = inst.run().unwrap();

        let mut fresh_problem = shapes.clone();
        fresh_problem.fill_random_sparse("B", 0xB, density).unwrap();
        fresh_problem.fill_random("C", 0xC).unwrap();
        let fresh_report = backend
            .compile(&fresh_problem, &schedule)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(report.bytes_moved, fresh_report.bytes_moved, "d={density}");
        bytes.push(report.bytes_moved);
    }
    assert!(bytes[0] < bytes[1]);
}

/// The four backend modes — runtime functional and model, SPMD on the
/// sequential rank VM and priced under α-β — admitting under `lint`.
fn backend_modes(lint: &LintConfig) -> [Box<dyn Backend>; 4] {
    [
        Box::new(RuntimeBackend::functional().with_lints(lint.clone())),
        Box::new(RuntimeBackend::model().with_lints(lint.clone())),
        Box::new(SpmdBackend::new().with_lints(lint.clone())),
        Box::new(CostBackend::alpha_beta(AlphaBeta::default()).with_lints(lint.clone())),
    ]
}

#[test]
fn a_plan_is_one_lowering_and_a_request_none_on_every_backend_mode() {
    // The counting contract, per backend mode and leaf choice: one
    // `plan` is exactly +1, `bind` plus `run` +0, a plan admission
    // denies +0, and a plan that fails inside its lowering +1 (the
    // autoscheduler's failed lowering attempt).
    let (shapes, summa) = matmul_shapes(8);
    // A 4x4 launch domain on the 2x2 machine: admission denies it as a
    // grid mismatch; with the lints allowed, the runtime lowering refuses
    // a domain larger than the machine and the SPMD lowering one that
    // differs from its grid.
    let oversized = Schedule::summa(4, 4, 2);
    let admitting = backend_modes(&LintConfig::default());
    let permissive = backend_modes(&LintConfig::allow_all());
    for (backend, unchecked) in admitting.iter().zip(&permissive) {
        for leaf in [None, Some(LeafKind::Interpreter)] {
            let leafed = |s: &Schedule| match leaf {
                Some(kind) => s.clone().substitute(&["ii"], kind),
                None => s.clone(),
            };
            let what = format!("{} {backend:?}, leaf {leaf:?}", backend.name());

            let before = lowering_count();
            let plan = backend.plan(&shapes, &leafed(&summa)).unwrap();
            assert_eq!(lowering_count(), before + 1, "{what}: plan");

            let before = lowering_count();
            plan.bind(&seeded_bindings(1, 2)).unwrap().run().unwrap();
            assert_eq!(lowering_count(), before, "{what}: bind + run");

            let before = lowering_count();
            let denied = backend.plan(&shapes, &leafed(&oversized));
            assert!(
                matches!(denied, Err(distal_core::BackendError::Verification(_))),
                "{what}: admission let the oversized domain through"
            );
            assert_eq!(lowering_count(), before, "{what}: denied plan");

            let before = lowering_count();
            assert!(
                unchecked.plan(&shapes, &leafed(&oversized)).is_err(),
                "{what}"
            );
            assert_eq!(lowering_count(), before + 1, "{what}: failed lowering");
        }
    }
}

#[test]
fn plan_cache_serves_identical_results() {
    // The cache front door, on both executable backends: 8 fresh-data
    // requests over fixed shapes are 1 miss and 7 hits, a hit request
    // (look-up, bind, run) lowers nothing, and every output is the one a
    // fresh `Backend::compile` of the same bindings produces.
    let (shapes, schedule) = matmul_shapes(8);
    let backends: [&dyn Backend; 2] = [&RuntimeBackend::functional(), &SpmdBackend::new()];
    for backend in backends {
        let name = backend.name();
        let cache = distal_core::ShardedPlanCache::new(4, 1);
        for r in 0..8u64 {
            let before = lowering_count();
            let plan = cache.get_or_plan(backend, &shapes, &schedule).unwrap();
            let mut inst = plan.bind(&seeded_bindings(2 * r + 1, 2 * r + 2)).unwrap();
            let mut report = inst.run().unwrap();
            let lowered = u64::from(r == 0);
            assert_eq!(lowering_count(), before + lowered, "{name}: request {r}");

            assert_eq!(
                bits(&inst.read("A").unwrap()),
                fresh_output(&shapes, backend, &schedule, 2 * r + 1, 2 * r + 2),
                "{name}: request {r}"
            );

            // Stats land on annotated reports.
            cache.annotate(&mut report);
            let stats = report.cache.expect("annotated");
            assert_eq!((stats.hits, stats.misses), (r, 1), "{name}");
        }
    }
}

#[test]
fn cold_stampede_plans_each_key_once() {
    // 16 threads race 3 keys through a cold cache, each thread asking for
    // every key in its own rotation. Single-flight: one miss and one
    // lowering per key, however the race interleaves.
    const THREADS: usize = 16;
    let (shapes, _) = matmul_shapes(8);
    let schedules = [1, 2, 4].map(|chunk| Schedule::summa(2, 2, chunk));
    let backends: [&(dyn Backend + Sync); 2] = [&RuntimeBackend::functional(), &SpmdBackend::new()];
    for backend in backends {
        let name = backend.name();
        // Capacity for every key in one shard: an eviction would re-miss.
        let cache = distal_core::ShardedPlanCache::new(schedules.len() * 8, 8);
        let barrier = std::sync::Barrier::new(THREADS);
        let lowered: u64 = std::thread::scope(|s| {
            let racers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (cache, shapes, schedules, barrier) =
                        (&cache, &shapes, &schedules, &barrier);
                    s.spawn(move || {
                        let before = lowering_count();
                        barrier.wait();
                        for k in 0..schedules.len() {
                            let schedule = &schedules[(k + t) % schedules.len()];
                            cache.get_or_plan(backend, shapes, schedule).unwrap();
                        }
                        lowering_count() - before
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).sum()
        });
        let stats = cache.stats();
        assert_eq!(stats.misses, schedules.len() as u64, "{name}: {stats}");
        assert_eq!(stats.requests(), (THREADS * schedules.len()) as u64);
        assert_eq!(stats.hits + stats.misses, stats.requests(), "{name}");
        assert_eq!(lowered, schedules.len() as u64, "{name}");
    }
}
