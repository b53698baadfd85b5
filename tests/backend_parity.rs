//! Cross-backend parity: the same `Problem` + schedule, compiled through
//! `RuntimeBackend` (dynamic runtime, functional numerics) and
//! `SpmdBackend` (static MPI-style lowering + rank VM), must produce
//! bit-identical tensor reads and consistent normalized reports — the
//! paper's portability claim (§3, §8) as an executable test, on flat and
//! hierarchical machines, over launch domains of any admitted shape.

use distal::algs::matmul::MatmulAlgorithm;
use distal::algs::setup::{matmul_problem, RunConfig};
use distal::core::{BackendError, Problem, RuntimeBackend, Schedule};
use distal::prelude::*;
use distal::spmd::SpmdBackend;

mod common;
use common::{format_1d, generate, schedule_1d, Rng};

/// Builds the shared problem of one Figure 9 algorithm on `nodes`
/// small-machine nodes.
fn problem_for(alg: MatmulAlgorithm, nodes: usize, n: i64) -> (Problem, Schedule) {
    let mut config = RunConfig::cpu(nodes, Mode::Functional);
    config.spec = MachineSpec::small(nodes);
    matmul_problem(alg, &config, n, (n / 2).max(1)).unwrap()
}

/// [`problem_for`] as `A += B * C` over an `A` bound to zero: the same
/// numbers, and a program without the output pre-fill, since a `+=` adds
/// to its bound output instead of zero-filling it (the SPMD model starts
/// accumulators at zero).
fn unfilled_problem_for(alg: MatmulAlgorithm, nodes: usize, n: i64) -> (Problem, Schedule) {
    let (mut problem, schedule) = problem_for(alg, nodes, n);
    problem.statement("A(i,j) += B(i,k) * C(k,j)").unwrap();
    problem.fill("A", 0.0).unwrap();
    (problem, schedule)
}

/// Compiles + runs the problem on both executable backends, returning the
/// two `A` reads and the two compute-phase reports.
fn run_both(
    problem: &Problem,
    schedule: &Schedule,
    runtime: &RuntimeBackend,
) -> ((Vec<f64>, Report), (Vec<f64>, Report)) {
    run_both_tensor(problem, schedule, runtime, "A")
}

/// [`run_both`] reading an arbitrary output tensor.
fn run_both_tensor(
    problem: &Problem,
    schedule: &Schedule,
    runtime: &RuntimeBackend,
    out: &str,
) -> ((Vec<f64>, Report), (Vec<f64>, Report)) {
    let mut rt = runtime.compile(problem, schedule).unwrap();
    rt.place().unwrap();
    let rt_report = rt.execute().unwrap();
    let rt_a = rt.read(out).unwrap();

    let mut sp = SpmdBackend::new().compile(problem, schedule).unwrap();
    sp.place().unwrap();
    let sp_report = sp.execute().unwrap();
    let sp_a = sp.read(out).unwrap();
    ((rt_a, rt_report), (sp_a, sp_report))
}

fn assert_bit_identical(alg: MatmulAlgorithm, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{alg:?}: output lengths differ");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{alg:?} idx {i}: runtime {x} vs spmd {y}"
        );
    }
}

#[test]
fn summa_and_cannon_bit_identical_and_same_bytes() {
    // The dynamic runtime's coherence analysis and the static lowering
    // discover the *same* communication; without the output pre-fill the
    // byte totals are equal, not merely close.
    for alg in [MatmulAlgorithm::Summa, MatmulAlgorithm::Cannon] {
        let (problem, schedule) = unfilled_problem_for(alg, 2, 12);
        let ((rt_a, rt_report), (sp_a, sp_report)) =
            run_both(&problem, &schedule, &RuntimeBackend::functional());
        assert_bit_identical(alg, &rt_a, &sp_a);
        assert_eq!(
            rt_report.bytes_moved, sp_report.bytes_moved,
            "{alg:?}: compute-phase bytes"
        );
        assert!(rt_report.bytes_moved > 0, "{alg:?} must communicate");
        assert!((rt_report.flops - sp_report.flops).abs() < 1.0, "{alg:?}");
        assert_eq!(rt_report.backend, "runtime");
        assert_eq!(sp_report.backend, "spmd");
        // `bytes_moved` leaves staging copies out, and a pre-fill's
        // re-fetch of the placed output tiles is one: the runtime's every
        // byte class together must match too.
        let mut rt = RuntimeBackend::functional()
            .compile_typed(&problem, &schedule)
            .unwrap();
        rt.place_stats().unwrap();
        let staged: u64 = rt.execute_stats().unwrap().bytes_by_class.values().sum();
        assert_eq!(
            staged, sp_report.bytes_moved,
            "{alg:?}: compute-phase bytes, staging included"
        );
    }
}

#[test]
fn johnson_bit_identical_with_consistent_bytes() {
    // Johnson's distributed reduction: the runtime folds through Legion
    // reduction instances (whose final owner gather counts both the
    // partial pull and the fold apply), the static backend through
    // reduce-tree messages; the numerics are still bit-identical and the
    // byte totals agree within the reduction-accounting factor of 2.
    let alg = MatmulAlgorithm::Johnson;
    let (problem, schedule) = unfilled_problem_for(alg, 4, 12);
    let ((rt_a, rt_report), (sp_a, sp_report)) =
        run_both(&problem, &schedule, &RuntimeBackend::functional());
    assert_bit_identical(alg, &rt_a, &sp_a);
    assert!(rt_report.bytes_moved > 0 && sp_report.bytes_moved > 0);
    let ratio = rt_report.bytes_moved as f64 / sp_report.bytes_moved as f64;
    assert!(
        (1.0..=2.0).contains(&ratio),
        "byte accounting diverged: runtime {} vs spmd {} (ratio {ratio:.3})",
        rt_report.bytes_moved,
        sp_report.bytes_moved
    );
}

#[test]
fn default_compile_options_also_bit_identical() {
    // The plain front door (no option tweaks): same reads on both
    // backends for all three algorithm families.
    for (alg, nodes) in [
        (MatmulAlgorithm::Summa, 2),
        (MatmulAlgorithm::Cannon, 2),
        (MatmulAlgorithm::Johnson, 4),
    ] {
        let (problem, schedule) = problem_for(alg, nodes, 12);
        let ((rt_a, _), (sp_a, _)) = run_both(&problem, &schedule, &RuntimeBackend::functional());
        assert_bit_identical(alg, &rt_a, &sp_a);
    }
}

#[test]
fn both_backends_match_the_oracle() {
    let (problem, schedule) = problem_for(MatmulAlgorithm::Summa, 2, 12);
    let ((rt_a, _), (sp_a, _)) = run_both(&problem, &schedule, &RuntimeBackend::functional());
    let dims = problem.dims_map();
    let mut inputs = std::collections::BTreeMap::new();
    for t in ["B", "C"] {
        inputs.insert(t.to_string(), problem.initial_data(t).unwrap());
    }
    let want =
        distal::core::oracle::evaluate(problem.assignment().unwrap(), &dims, &inputs).unwrap();
    for (got, which) in [(&rt_a, "runtime"), (&sp_a, "spmd")] {
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g - w).abs() < 1e-9, "{which}: {g} vs {w}");
        }
    }
}

/// `A(i,j) = B(i,k) * C(k,j)` with `n x n` tensors in format `notation`
/// on a flat `grid`, `B` and `C` seeded.
fn matmul_on(grid: Grid, notation: &str, n: i64) -> Problem {
    let machine = DistalMachine::flat(grid, ProcKind::Cpu);
    let mut problem = Problem::new(MachineSpec::small(2), machine);
    problem.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
    let format = Format::parse(notation, MemKind::Sys).unwrap();
    for name in ["A", "B", "C"] {
        let spec = TensorSpec::new(name, vec![n, n], format.clone());
        problem.tensor(spec).unwrap();
    }
    problem.fill_random("B", 0xB).unwrap();
    problem.fill_random("C", 0xC).unwrap();
    problem
}

#[test]
fn two_level_machine_bit_identical_on_every_executor() {
    // Node tiles column-split across each node's GPUs: ranks own the
    // pieces runtime placement gives their point of the hierarchy.
    let (problem, schedule) = common::two_level_matmul(16, "xy->y");
    common::assert_every_executor_agrees(&problem, &schedule, &LintConfig::new(), "A");
}

#[test]
fn launch_domain_smaller_than_the_machine_bit_identical_on_every_executor() {
    // Two launch points on four ranks: ranks 2 and 3 own rows of every
    // tensor and compute nothing. Default admission accepts it.
    let problem = matmul_on(Grid::line(4), "xy->x", 8);
    let schedule = Schedule::new()
        .divide("i", "io", "ii", 2)
        .distribute(&["io"])
        .communicate(&["A", "B", "C"], "io");
    common::assert_every_executor_agrees(&problem, &schedule, &LintConfig::new(), "A");
}

#[test]
fn summa_on_a_differently_shaped_machine_bit_identical_on_every_executor() {
    // SUMMA's 2x2 launch on a 4x1 machine: point (x, y) runs on rank
    // 2x + y. Admission denies the shape mismatch by default.
    let problem = matmul_on(Grid::grid2(4, 1), "xy->xy", 8);
    let schedule = Schedule::summa(2, 2, 4);
    assert!(SpmdBackend::new().plan(&problem, &schedule).is_err());
    common::assert_every_executor_agrees(&problem, &schedule, &LintConfig::allow_all(), "A");
}

#[test]
fn assignment_ignores_its_output_initializer_on_every_executor() {
    // `=` overwrites the output on both backends, so a nonzero initializer
    // changes no bit of the result.
    let mut problem = matmul_on(Grid::grid2(2, 2), "xy->xy", 8);
    let schedule = Schedule::summa(2, 2, 4);
    let lints = LintConfig::new();
    let unbound = common::assert_every_executor_agrees(&problem, &schedule, &lints, "A");
    problem.fill("A", 1.0).unwrap();
    let bound = common::assert_every_executor_agrees(&problem, &schedule, &lints, "A");
    assert_eq!(unbound, bound);
}

#[test]
fn artifact_error_surface_is_uniform() {
    let (problem, schedule) = problem_for(MatmulAlgorithm::Summa, 2, 8);

    // Unknown tensors are unknown-tensor errors on every backend (the
    // runtime used to misreport them as a mode error).
    let mut rt = RuntimeBackend::functional()
        .compile(&problem, &schedule)
        .unwrap();
    rt.run().unwrap();
    assert!(matches!(rt.read("Z"), Err(BackendError::UnknownTensor(t)) if t == "Z"));

    let mut sp = SpmdBackend::new().compile(&problem, &schedule).unwrap();
    // Reading the output before execute() is a no-data error, not junk.
    assert!(matches!(sp.read("A"), Err(BackendError::NoData(_))));
    sp.run().unwrap();
    assert!(matches!(sp.read("Z"), Err(BackendError::UnknownTensor(t)) if t == "Z"));

    // Model-mode artifacts hold no numerics.
    let mut model = RuntimeBackend::model()
        .compile(&problem, &schedule)
        .unwrap();
    model.run().unwrap();
    assert!(matches!(model.read("A"), Err(BackendError::NoData(_))));
}

/// Builds SpMV (`a(i) = B(i,j) * c(j)`) problems on a `p`-rank line
/// machine at the given B density, with B either dense or CSR-compressed
/// (`ds` levels). B lives whole on rank 0 so every rank pulls its row
/// block — the message stream the nnz-sized accounting must shrink.
fn spmv_problem(p: i64, n: i64, density: f64, compressed: bool) -> (Problem, Schedule) {
    let machine = DistalMachine::flat(Grid::line(p), ProcKind::Cpu);
    let mut problem = Problem::new(MachineSpec::small(p as usize), machine);
    problem.statement("a(i) = B(i,j) * c(j)").unwrap();
    let b_fmt = if compressed {
        Format::parse_levels("xy->x", "ds", MemKind::Sys).unwrap()
    } else {
        Format::parse("xy->x", MemKind::Sys).unwrap()
    };
    problem
        .tensor(TensorSpec::new(
            "a",
            vec![n],
            Format::parse("x->x", MemKind::Sys).unwrap(),
        ))
        .unwrap();
    problem
        .tensor(TensorSpec::new("B", vec![n, n], b_fmt))
        .unwrap();
    problem
        .tensor(TensorSpec::new(
            "c",
            vec![n],
            Format::undistributed_in(MemKind::Global),
        ))
        .unwrap();
    problem.fill_random_sparse("B", 0xB, density).unwrap();
    problem.fill_random("c", 0xC).unwrap();
    let schedule = Schedule::new()
        .divide("i", "io", "ii", p)
        .reorder(&["io", "ii"])
        .distribute(&["io"]);
    (problem, schedule)
}

/// Builds SUMMA SpMM problems at the given B density with B dense or
/// CSR-compressed; B and C are both communicated per k-chunk, so the
/// compressed registration must shrink the B half of the traffic.
fn spmm_problem(n: i64, density: f64, compressed: bool) -> (Problem, Schedule) {
    let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
    let mut problem = Problem::new(MachineSpec::small(2), machine);
    problem.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
    let tiles = Format::parse("xy->xy", MemKind::Sys).unwrap();
    let b_fmt = if compressed {
        Format::parse_levels("xy->xy", "ds", MemKind::Sys).unwrap()
    } else {
        tiles.clone()
    };
    problem
        .tensor(TensorSpec::new("A", vec![n, n], tiles.clone()))
        .unwrap();
    problem
        .tensor(TensorSpec::new("B", vec![n, n], b_fmt))
        .unwrap();
    problem
        .tensor(TensorSpec::new("C", vec![n, n], tiles))
        .unwrap();
    problem.fill_random_sparse("B", 0xB, density).unwrap();
    problem.fill_random("C", 0xC).unwrap();
    (problem, Schedule::summa(2, 2, (n / 2).max(1)))
}

#[test]
fn sparse_spmv_bit_identical_to_dense_on_both_backends() {
    for density in [0.01, 0.3, 1.0] {
        let (dense, schedule) = spmv_problem(4, 24, density, false);
        let (sparse, _) = spmv_problem(4, 24, density, true);
        let ((rt_dense, _), (sp_dense, _)) =
            run_both_tensor(&dense, &schedule, &RuntimeBackend::functional(), "a");
        let ((rt_sparse, _), (sp_sparse, _)) =
            run_both_tensor(&sparse, &schedule, &RuntimeBackend::functional(), "a");
        // Sparse executions (CSR leaf on the runtime, stored-coordinate
        // pruning on the SPMD VM) match the dense executions bit for bit.
        for (which, got) in [
            ("runtime sparse", &rt_sparse),
            ("spmd dense", &sp_dense),
            ("spmd sparse", &sp_sparse),
        ] {
            assert_eq!(rt_dense.len(), got.len(), "{which} at density {density}");
            for (i, (x, y)) in rt_dense.iter().zip(got.iter()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{which} idx {i} at density {density}: {x} vs {y}"
                );
            }
        }
    }
}

#[test]
fn sparse_spmm_bit_identical_and_bytes_shrink() {
    let density = 0.05;
    let (dense, schedule) = spmm_problem(16, density, false);
    let (sparse, _) = spmm_problem(16, density, true);
    let ((rt_dense, rt_dense_rep), (sp_dense, sp_dense_rep)) =
        run_both_tensor(&dense, &schedule, &RuntimeBackend::functional(), "A");
    let ((rt_sparse, rt_sparse_rep), (sp_sparse, sp_sparse_rep)) =
        run_both_tensor(&sparse, &schedule, &RuntimeBackend::functional(), "A");
    for (which, got) in [
        ("runtime sparse", &rt_sparse),
        ("spmd dense", &sp_dense),
        ("spmd sparse", &sp_sparse),
    ] {
        for (i, (x, y)) in rt_dense.iter().zip(got.iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{which} idx {i}: {x} vs {y}");
        }
    }
    // Compressed B at 5% density must shrink reported traffic on both
    // backends (C stays dense, so totals shrink but don't vanish).
    assert!(
        sp_sparse_rep.bytes_moved < sp_dense_rep.bytes_moved,
        "spmd: {} !< {}",
        sp_sparse_rep.bytes_moved,
        sp_dense_rep.bytes_moved
    );
    assert!(
        rt_sparse_rep.bytes_moved < rt_dense_rep.bytes_moved,
        "runtime: {} !< {}",
        rt_sparse_rep.bytes_moved,
        rt_dense_rep.bytes_moved
    );
    assert!(sp_sparse_rep.bytes_moved > 0 && rt_sparse_rep.bytes_moved > 0);
}

#[test]
fn cost_backend_prices_density() {
    // The α-β cost model must price the same schedule differently as the
    // sparse operand's density changes: cheaper at 1% than at 50%, and
    // both at most the dense registration's cost.
    use distal::spmd::{AlphaBeta, CostBackend};
    let schedule = spmm_problem(16, 1.0, false).1;
    let makespan = |density: f64, compressed: bool| {
        let (p, _) = spmm_problem(16, density, compressed);
        let mut art = CostBackend::alpha_beta(AlphaBeta::default())
            .compile(&p, &schedule)
            .unwrap();
        art.run().unwrap().critical_path_s
    };
    let dense = makespan(0.5, false);
    let half = makespan(0.5, true);
    let one_pct = makespan(0.01, true);
    assert!(
        one_pct < half,
        "1% density must be cheaper than 50%: {one_pct} vs {half}"
    );
    assert!(
        one_pct < dense,
        "1% compressed must beat dense: {one_pct} vs {dense}"
    );
}

/// Runs `problem` six ways — the runtime, the SPMD rank VM and its
/// threaded transport, each under `schedule` (generated leaves) and
/// `interpreter_schedule` (its `substitute(.., LeafKind::Interpreter)`
/// twin, which every backend must honour) — and asserts the reads of `out`
/// are bit-identical within each backend (generated vs interpreter is the
/// kernelgen correctness contract; cross-backend equality is asserted
/// where the existing tests already guarantee it). Returns the generated
/// runtime report so callers can check which kernel variant actually ran.
fn assert_generated_matches_interpreter(
    problem: &Problem,
    schedule: &Schedule,
    interpreter_schedule: &Schedule,
    out: &str,
    label: &str,
) -> Report {
    let run = |backend: &dyn Backend, schedule: &Schedule| {
        let mut art = backend
            .compile(problem, schedule)
            .unwrap_or_else(|e| panic!("{label} [{}]: {e}", backend.name()));
        let report = art
            .run()
            .unwrap_or_else(|e| panic!("{label} [{}]: {e}", backend.name()));
        (art.read(out).unwrap(), report)
    };
    let threaded = SpmdBackend::new().with_transport(Transport::threaded_with(2));
    let (rt_gen, rt_report) = run(&RuntimeBackend::functional(), schedule);
    let (rt_interp, rt_interp_report) = run(&RuntimeBackend::functional(), interpreter_schedule);
    let (sp_gen, _) = run(&SpmdBackend::new(), schedule);
    let (sp_interp, sp_interp_report) = run(&SpmdBackend::new(), interpreter_schedule);
    let (th_gen, _) = run(&threaded, schedule);
    let (th_interp, th_interp_report) = run(&threaded, interpreter_schedule);
    for (which, report) in [
        ("runtime", &rt_interp_report),
        ("spmd", &sp_interp_report),
        ("threaded", &th_interp_report),
    ] {
        // (The runtime's placement launches run a `noop` kernel.)
        let leaves = report.kernel_classes.keys().filter(|k| *k != "noop");
        let leaves: Vec<_> = leaves.collect();
        assert_eq!(leaves, ["interpreter"], "{label}: {which} under substitute");
    }
    for (which, got) in [
        ("runtime interpreter", &rt_interp),
        ("spmd generated", &sp_gen),
        ("spmd interpreter", &sp_interp),
        ("spmd threaded generated", &th_gen),
        ("spmd threaded interpreter", &th_interp),
    ] {
        let want = if which.starts_with("runtime") {
            &rt_gen
        } else {
            &sp_gen
        };
        assert_eq!(want.len(), got.len(), "{label} {which}: lengths");
        for (i, (x, y)) in want.iter().zip(got.iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label} {which} idx {i}: {x} vs {y}"
            );
        }
    }
    // Cross-backend, generated vs generated: same values to 1e-9 always
    // (bitwise equality across backends is covered by the matmul suites
    // above, whose loop structures provably agree).
    for (i, (x, y)) in rt_gen.iter().zip(sp_gen.iter()).enumerate() {
        assert!(
            (x - y).abs() < 1e-9 * (1.0 + x.abs()),
            "{label} cross-backend idx {i}: {x} vs {y}"
        );
    }
    rt_report
}

#[test]
fn gemm_substitution_on_a_non_matmul_is_one_error_on_both_backends() {
    let (problem, schedule) = spmv_problem(4, 24, 1.0, false);
    let schedule = schedule.substitute(&["ii"], LeafKind::Gemm);
    let refusal = |backend: &dyn Backend| match backend.plan(&problem, &schedule) {
        Err(BackendError::Compile(e @ CompileError::BadSubstitution(_))) => e,
        other => panic!("{}: {:?}", backend.name(), other.err()),
    };
    let runtime = refusal(&RuntimeBackend::functional());
    assert_eq!(runtime, refusal(&SpmdBackend::new()));
}

#[test]
fn generated_kernels_match_interpreter_on_random_einsums() {
    // ~24 random statements (arity 1-3 inputs, scalar and tensor outputs,
    // reductions and pointwise maps): the tape-compiled leaves must be
    // bit-identical to the per-point interpreter on both backends.
    let mut rng = Rng(0x6E5E12A7);
    let p = 3i64;
    for round in 0..24 {
        let case = generate(&mut rng);
        let assignment = distal::ir::expr::Assignment::parse(&case.expr).unwrap();
        let all_vars: Vec<String> = assignment.all_vars().iter().map(|v| v.0.clone()).collect();
        let dist_var = case
            .out_vars
            .first()
            .cloned()
            .unwrap_or_else(|| all_vars[0].clone());
        let schedule = schedule_1d(&case, &all_vars, &dist_var, p);
        let interp = schedule
            .clone()
            .substitute(&[&format!("{dist_var}_i")], LeafKind::Interpreter);

        let machine = DistalMachine::flat(Grid::line(p), ProcKind::Cpu);
        let mut problem = Problem::new(MachineSpec::small(2), machine);
        problem.set_assignment(assignment);
        for (name, dims) in &case.dims {
            let format = if name == &case.out && case.out_vars.is_empty() {
                Format::undistributed()
            } else if name == &case.out {
                format_1d(&case.out_vars, &dist_var)
            } else {
                let idx = if name == "B" { 0 } else { 1 };
                format_1d(&case.input_vars[idx], &dist_var)
            };
            problem
                .tensor(TensorSpec::new(name.clone(), dims.clone(), format))
                .unwrap();
            if name != &case.out {
                let len = dims.iter().product::<i64>().max(1) as usize;
                problem.set_data(name, rng.data(len)).unwrap();
            }
        }
        let label = format!("round {round} '{}'", case.expr);
        assert_generated_matches_interpreter(&problem, &schedule, &interp, &case.out, &label);
    }
}

#[test]
fn generated_kernels_match_interpreter_on_figure9_matmuls() {
    for (alg, nodes) in [
        (MatmulAlgorithm::Summa, 2),
        (MatmulAlgorithm::Cannon, 2),
        (MatmulAlgorithm::Johnson, 4),
    ] {
        let (problem, schedule) = problem_for(alg, nodes, 12);
        // The last `substitute` wins: appending the interpreter choice
        // overrides the algorithms' built-in GEMM substitution.
        let interp = schedule.clone().substitute(&["ii"], LeafKind::Interpreter);
        let report = assert_generated_matches_interpreter(
            &problem,
            &schedule,
            &interp,
            "A",
            &format!("{alg:?}"),
        );
        // Figure 9 matmuls must actually dispatch the specialized GEMM.
        assert!(
            report.kernel_classes.contains_key("gemm.gen"),
            "{alg:?} dispatched {:?}",
            report.kernel_classes.keys().collect::<Vec<_>>()
        );
    }
}

#[test]
fn generated_sparse_kernels_match_interpreter_at_both_densities() {
    for density in [0.01, 0.5] {
        for compressed in [false, true] {
            let (spmv, spmv_sched) = spmv_problem(4, 24, density, compressed);
            let spmv_interp = spmv_sched
                .clone()
                .substitute(&["ii"], LeafKind::Interpreter);
            let report = assert_generated_matches_interpreter(
                &spmv,
                &spmv_sched,
                &spmv_interp,
                "a",
                &format!("spmv d={density} compressed={compressed}"),
            );
            if compressed {
                assert!(
                    report.kernel_classes.contains_key("csr.gen"),
                    "spmv d={density}: dispatched {:?}",
                    report.kernel_classes.keys().collect::<Vec<_>>()
                );
            }

            let (spmm, spmm_sched) = spmm_problem(16, density, compressed);
            let spmm_interp = spmm_sched
                .clone()
                .substitute(&["ii"], LeafKind::Interpreter);
            let report = assert_generated_matches_interpreter(
                &spmm,
                &spmm_sched,
                &spmm_interp,
                "A",
                &format!("spmm d={density} compressed={compressed}"),
            );
            if compressed {
                assert!(
                    report.kernel_classes.contains_key("csr.gen"),
                    "spmm d={density}: dispatched {:?}",
                    report.kernel_classes.keys().collect::<Vec<_>>()
                );
            }

            let (sddmm, sddmm_sched) = sddmm_problem(16, density, compressed);
            let sddmm_interp = sddmm_sched
                .clone()
                .substitute(&["ii"], LeafKind::Interpreter);
            let report = assert_generated_matches_interpreter(
                &sddmm,
                &sddmm_sched,
                &sddmm_interp,
                "A",
                &format!("sddmm d={density} compressed={compressed}"),
            );
            if compressed {
                assert!(
                    report.kernel_classes.contains_key("csr.gen"),
                    "sddmm d={density}: dispatched {:?}",
                    report.kernel_classes.keys().collect::<Vec<_>>()
                );
            }
        }
    }
}

/// The sampled dense-dense matmul `A(i,j) = B(i,j) * C(i,k) * D(k,j)` on a
/// 2×2 grid, with the sampling matrix B dense or CSR-compressed.
fn sddmm_problem(n: i64, density: f64, compressed: bool) -> (Problem, Schedule) {
    let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
    let mut problem = Problem::new(MachineSpec::small(2), machine);
    problem
        .statement("A(i,j) = B(i,j) * C(i,k) * D(k,j)")
        .unwrap();
    let tiles = Format::parse("xy->xy", MemKind::Sys).unwrap();
    let b_fmt = if compressed {
        Format::parse_levels("xy->xy", "ds", MemKind::Sys).unwrap()
    } else {
        tiles.clone()
    };
    problem
        .tensor(TensorSpec::new("A", vec![n, n], tiles.clone()))
        .unwrap();
    problem
        .tensor(TensorSpec::new("B", vec![n, n], b_fmt))
        .unwrap();
    problem
        .tensor(TensorSpec::new("C", vec![n, n], tiles.clone()))
        .unwrap();
    problem
        .tensor(TensorSpec::new("D", vec![n, n], tiles))
        .unwrap();
    problem.fill_random_sparse("B", 0xB, density).unwrap();
    problem.fill_random("C", 0xC).unwrap();
    problem.fill_random("D", 0xD).unwrap();
    let schedule = Schedule::new()
        .distribute_onto(&["i", "j"], &["io", "jo"], &["ii", "ji"], &[2, 2])
        .reorder(&["io", "jo", "ii", "ji", "k"])
        .communicate(&["A", "B", "C", "D"], "jo");
    (problem, schedule)
}

/// TTV or MTTKRP with rows of `i` distributed over a 2-rank line, every
/// variable of extent `n`, and `B` stored `dds` or dense — the same data
/// either way; the other inputs sit whole in staging memory.
fn higher_order_problem(
    statement: &str,
    n: i64,
    density: f64,
    compressed: bool,
) -> (Problem, Schedule) {
    let machine = DistalMachine::flat(Grid::line(2), ProcKind::Cpu);
    let mut problem = Problem::new(MachineSpec::small(2), machine);
    problem.statement(statement).unwrap();
    let assignment = problem.assignment().unwrap().clone();
    let b_fmt = match compressed {
        true => Format::parse_levels("xyz->x", "dds", MemKind::Sys).unwrap(),
        false => Format::parse("xyz->x", MemKind::Sys).unwrap(),
    };
    let rows = Format::parse("xy->x", MemKind::Sys).unwrap();
    for (position, access) in assignment.accesses().into_iter().enumerate() {
        let format = match position {
            0 => rows.clone(),
            1 => b_fmt.clone(),
            _ => Format::undistributed(),
        };
        let dims = vec![n; access.indices.len()];
        let spec = TensorSpec::new(access.tensor.clone(), dims, format);
        problem.tensor(spec).unwrap();
        if position > 1 {
            problem
                .fill_random(&access.tensor, position as u64)
                .unwrap();
        }
    }
    problem.fill_random_sparse("B", 0xB, density).unwrap();
    let schedule = Schedule::new()
        .divide("i", "io", "ii", 2)
        .reorder(&["io", "ii"])
        .distribute(&["io"]);
    (problem, schedule)
}

#[test]
fn compressed_ttv_and_mttkrp_run_the_sparse_leaf_on_every_backend() {
    let n: i64 = 6;
    let threaded = SpmdBackend::new().with_transport(Transport::threaded_with(2));
    let backends: [(&str, &dyn Backend); 3] = [
        ("runtime", &RuntimeBackend::functional()),
        ("spmd", &SpmdBackend::new()),
        ("spmd threaded", &threaded),
    ];
    // Arithmetic per point of the statement, and the points it spans.
    for (statement, flops_per_point, points) in [
        ("A(i,j) = B(i,j,k) * c(k)", 2.0, n.pow(3)),
        ("A(i,l) = B(i,j,k) * C(j,l) * D(k,l)", 3.0, n.pow(4)),
    ] {
        for density in [0.01, 0.5] {
            let (dense, schedule) = higher_order_problem(statement, n, density, false);
            let (sparse, _) = higher_order_problem(statement, n, density, true);
            let label = format!("`{statement}` at density {density}");
            let run = |problem: &Problem, backend: &dyn Backend| {
                let mut instance = backend.compile(problem, &schedule).unwrap();
                let report = instance.run().unwrap();
                (instance.read("A").unwrap(), report)
            };
            let (want, dense_report) = run(&dense, &RuntimeBackend::functional());
            assert!(!dense_report.kernel_classes.contains_key("csr.gen"));
            for (which, backend) in backends {
                let (got, report) = run(&sparse, backend);
                assert!(
                    report.kernel_classes.contains_key("csr.gen"),
                    "{label} [{which}]: dispatched {:?}",
                    report.kernel_classes.keys().collect::<Vec<_>>()
                );
                assert_eq!(want.len(), got.len(), "{label} [{which}]");
                for (i, (x, y)) in want.iter().zip(&got).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "{label} [{which}] idx {i}");
                }
            }
            // The runtime charges the leaf the share of the iteration
            // space `B` stores, as it does SpMV's.
            let nnz = sparse.nnz_of("B").unwrap() as f64;
            let (_, report) = run(&sparse, &RuntimeBackend::functional());
            let want_flops = flops_per_point * points as f64 * nnz / n.pow(3) as f64;
            assert!(
                (report.flops - want_flops).abs() < 1e-6 * want_flops.max(1.0),
                "{label}: {} flops, want {want_flops}",
                report.flops
            );
            assert_eq!(
                dense_report.flops,
                flops_per_point * points as f64,
                "{label}"
            );
        }
    }
}

#[test]
fn uninitialized_inputs_fail_on_both_backends() {
    // Neither backend papers over a missing input initializer: the
    // runtime hits uninitialized regions, the SPMD artifact refuses to
    // zero-fill — both surface the failure from execute().
    let (mut problem, schedule) = problem_for(MatmulAlgorithm::Summa, 2, 8);
    problem.set_data("C", vec![]).unwrap_err(); // C stays Random-seeded
    let machine = problem.machine().clone();
    let mut fresh = Problem::new(problem.spec().clone(), machine);
    fresh.set_assignment(problem.assignment().unwrap().clone());
    for spec in problem.tensors().values() {
        fresh.tensor(spec.clone()).unwrap();
    }
    fresh.fill_random("B", 0xB).unwrap(); // C left uninitialized

    let mut rt = RuntimeBackend::functional()
        .compile(&fresh, &schedule)
        .unwrap();
    // The runtime hits the uninitialized region as soon as placement
    // pulls C; run() covers both phases.
    assert!(rt.run().is_err(), "runtime must reject uninitialized C");

    let mut sp = SpmdBackend::new().compile(&fresh, &schedule).unwrap();
    sp.place().unwrap();
    assert!(
        matches!(sp.execute(), Err(BackendError::NoData(m)) if m.contains("'C'")),
        "spmd must reject uninitialized C, not zero-fill it"
    );
}

/// Compiles `problem` on the SPMD backend twice — sequential transport
/// and threaded rank pool — and asserts the two reads of `out` are
/// bit-identical. Returns the threaded report for provenance checks.
fn assert_threaded_matches_sequential(
    problem: &Problem,
    schedule: &Schedule,
    out: &str,
    label: &str,
) -> Report {
    let mut seq = SpmdBackend::new().compile(problem, schedule).unwrap();
    seq.run().unwrap();
    let seq_out = seq.read(out).unwrap();

    let threaded_backend = SpmdBackend::new().with_transport(Transport::threaded_with(4));
    let mut thr = threaded_backend.compile(problem, schedule).unwrap();
    thr.place().unwrap();
    let thr_report = thr.execute().unwrap();
    let thr_out = thr.read(out).unwrap();

    assert_eq!(seq_out.len(), thr_out.len(), "{label}: lengths");
    for (i, (x, y)) in seq_out.iter().zip(thr_out.iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label} idx {i}: sequential {x} vs threaded {y}"
        );
    }
    thr_report
}

#[test]
fn threaded_transport_bit_identical_on_figure9() {
    for (alg, nodes) in [
        (MatmulAlgorithm::Summa, 2),
        (MatmulAlgorithm::Cannon, 2),
        (MatmulAlgorithm::Johnson, 4),
    ] {
        let (problem, schedule) = problem_for(alg, nodes, 12);
        let report =
            assert_threaded_matches_sequential(&problem, &schedule, "A", &format!("{alg:?}"));
        // Threaded runs report measured wall clock as the headline
        // number, with the α-β prediction moved to `modeled_s` — the
        // serialized-injection model is never passed off as measurement.
        assert_eq!(report.provenance, Provenance::Measured, "{alg:?}");
        assert!(report.critical_path_s > 0.0, "{alg:?}: no wall clock");
        let ratio = report
            .modeled_vs_measured()
            .unwrap_or_else(|| panic!("{alg:?}: threaded report lacks the modeled ratio"));
        assert!(ratio.is_finite() && ratio > 0.0, "{alg:?}: ratio {ratio}");
    }
}

#[test]
fn threaded_transport_bit_identical_on_sparse_kernels() {
    for density in [0.01, 0.5] {
        let (spmv, spmv_sched) = spmv_problem(4, 24, density, true);
        assert_threaded_matches_sequential(&spmv, &spmv_sched, "a", &format!("spmv d={density}"));
        let (spmm, spmm_sched) = spmm_problem(16, density, true);
        assert_threaded_matches_sequential(&spmm, &spmm_sched, "A", &format!("spmm d={density}"));
    }
}

#[test]
fn sequential_transport_reports_stay_modeled() {
    // The sequential simulation has no wall clock worth reporting: its
    // headline stays the α-β makespan, flagged as modeled, with no
    // modeled-vs-measured ratio.
    let (problem, schedule) = problem_for(MatmulAlgorithm::Summa, 2, 8);
    let mut seq = SpmdBackend::new().compile(&problem, &schedule).unwrap();
    seq.place().unwrap();
    let report = seq.execute().unwrap();
    assert_eq!(report.provenance, Provenance::Modeled);
    assert_eq!(report.modeled_s, None);
    assert_eq!(report.modeled_vs_measured(), None);
}
