//! Compile-once / execute-many: one plan bound repeatedly must (a) do
//! zero schedule-application / lowering work per binding, (b) produce
//! bit-identical results to a fresh `Problem::compile` with the same
//! data, and (c) recompute nnz-derived byte accounting per instance —
//! never inherit an earlier binding's sparsity.

use distal_core::{
    Backend, Bindings, DistalMachine, Problem, RuntimeBackend, Schedule, TensorSpec,
};
use distal_format::Format;
use distal_machine::grid::Grid;
use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
use distal_spmd::{AlphaBeta, CostBackend, SpmdBackend};

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

#[test]
fn runtime_plan_rebinds_match_fresh_compiles() {
    let (shapes, schedule) = matmul_shapes(8);
    let backend = RuntimeBackend::functional();
    let plan = backend.plan(&shapes, &schedule).unwrap();

    for (round, (b_seed, c_seed)) in [(11u64, 12u64), (21u64, 22u64)].into_iter().enumerate() {
        let lowerings = distal_core::lower::compile_count();
        let applications = distal_core::schedule::apply_count();
        let specializations = distal_core::kernelgen::specialize_count();
        let mut inst = plan.bind(&seeded_bindings(b_seed, c_seed)).unwrap();
        inst.run().unwrap();
        // Binding + running performs no lowering, no schedule
        // application, and no leaf-kernel specialization, on every
        // binding (the second is the acceptance gate; the first already
        // holds because planning did the work).
        assert_eq!(
            distal_core::lower::compile_count(),
            lowerings,
            "bind #{round} re-lowered"
        );
        assert_eq!(
            distal_core::schedule::apply_count(),
            applications,
            "bind #{round} re-applied the schedule"
        );
        assert_eq!(
            distal_core::kernelgen::specialize_count(),
            specializations,
            "bind #{round} re-specialized a leaf kernel"
        );

        // Bit-identical to the one-shot path with the same data.
        let mut fresh_problem = shapes.clone();
        fresh_problem.fill_random("B", b_seed).unwrap();
        fresh_problem.fill_random("C", c_seed).unwrap();
        let mut fresh = fresh_problem.compile(&backend, &schedule).unwrap();
        fresh.run().unwrap();
        let got = inst.read("A").unwrap();
        let want = fresh.read("A").unwrap();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.to_bits(), w.to_bits(), "round {round}");
        }
    }
}

#[test]
fn spmd_plan_rebinds_match_fresh_compiles() {
    let (shapes, schedule) = matmul_shapes(8);
    let backend = SpmdBackend::new();
    let plan = backend.plan(&shapes, &schedule).unwrap();

    for (b_seed, c_seed) in [(31u64, 32u64), (41u64, 42u64)] {
        let lowerings = distal_spmd::lower_count();
        let specializations = distal_core::kernelgen::specialize_count();
        let mut inst = plan.bind(&seeded_bindings(b_seed, c_seed)).unwrap();
        inst.run().unwrap();
        assert_eq!(
            distal_spmd::lower_count(),
            lowerings,
            "binding an SPMD plan re-lowered"
        );
        assert_eq!(
            distal_core::kernelgen::specialize_count(),
            specializations,
            "binding an SPMD plan re-specialized a leaf kernel"
        );

        let mut fresh_problem = shapes.clone();
        fresh_problem.fill_random("B", b_seed).unwrap();
        fresh_problem.fill_random("C", c_seed).unwrap();
        let mut fresh = fresh_problem.compile(&backend, &schedule).unwrap();
        fresh.run().unwrap();
        let got = inst.read("A").unwrap();
        let want = fresh.read("A").unwrap();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }
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
        let mut fresh = fresh_problem.compile(&backend, &schedule).unwrap();
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
        let fresh_report = fresh_problem
            .compile(&backend, &schedule)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(report.bytes_moved, fresh_report.bytes_moved, "d={density}");
        bytes.push(report.bytes_moved);
    }
    assert!(bytes[0] < bytes[1]);
}

#[test]
fn plan_cache_serves_identical_results() {
    // The cache front door: a hit plan and a miss plan bind to
    // bit-identical instances, and stats land on annotated reports.
    let (mut shapes, schedule) = matmul_shapes(8);
    shapes.fill_random("B", 71).unwrap();
    shapes.fill_random("C", 72).unwrap();
    let backend = RuntimeBackend::functional();
    let cache = distal_core::ShardedPlanCache::new(4, 1);

    let miss_plan = cache.get_or_plan(&backend, &shapes, &schedule).unwrap();
    let hit_plan = cache.get_or_plan(&backend, &shapes, &schedule).unwrap();
    // Specialization is paid at plan time; binding a cached plan (and
    // re-binding it) performs zero further kernel generation.
    let specializations = distal_core::kernelgen::specialize_count();
    let mut a = miss_plan.bind(&shapes.bindings()).unwrap();
    let mut b = hit_plan.bind(&shapes.bindings()).unwrap();
    assert_eq!(
        distal_core::kernelgen::specialize_count() - specializations,
        0,
        "binding cached plans specialized kernels"
    );
    let mut report = a.run().unwrap();
    b.run().unwrap();
    assert_eq!(a.read("A").unwrap(), b.read("A").unwrap());

    cache.annotate(&mut report);
    let stats = report.cache.expect("annotated");
    assert_eq!((stats.hits, stats.misses), (1, 1));
}
