//! Record once, replay afterwards: a plan's first request records each
//! program's dependence analysis, every later one replays it, and nothing
//! a request returns or leaves behind tells the two apart — nor either
//! from a runtime that never saw a trace. A run that starts from any
//! other coherence state analyses for itself.

use distal::algs::matmul::MatmulAlgorithm;
use distal::algs::setup::matmul_problem_on;
use distal::core::RuntimePlan;
use distal::prelude::*;
use distal::runtime::program::{Op, Program};
use distal::runtime::{Coherence, RuntimeError, TracedProgram};

mod common;
use common::{case_problem, generate, Rng};

/// Everything one request returns and leaves behind.
#[derive(Debug, PartialEq)]
struct Observed {
    output: Vec<u64>,
    place: RunStats,
    execute: RunStats,
    /// `(used, peak)` bytes per memory.
    bytes: Vec<(u64, u64)>,
    coherence: Coherence,
}

fn observe(instance: &RuntimeInstance, place: RunStats, execute: RunStats) -> Observed {
    let runtime = instance.runtime();
    let output = instance.read(&instance.kernel().output).unwrap();
    Observed {
        output: output.iter().map(|v| v.to_bits()).collect(),
        place,
        execute,
        bytes: (runtime.machine().mems().iter())
            .map(|m| (runtime.used_bytes(m.id), runtime.peak_bytes(m.id)))
            .collect(),
        coherence: runtime.coherence().clone(),
    }
}

/// Binds, switches the logs on — after `bind`, so no trace is keyed by
/// them — and hands the instance over.
fn bind(plan: &RuntimePlan, bindings: &Bindings) -> RuntimeInstance {
    let mut instance = plan.bind_typed(bindings).unwrap();
    instance.runtime_mut().set_executor_threads(4);
    instance.runtime_mut().record_copies(true);
    instance
}

/// One request through the plan's trace slots.
fn request(plan: &RuntimePlan, bindings: &Bindings) -> Observed {
    let mut instance = bind(plan, bindings);
    let place = instance.place_stats().unwrap();
    let execute = instance.execute_stats().unwrap();
    observe(&instance, place, execute)
}

/// The same request on a runtime that is shown bare programs only
/// (`Runtime::run` takes the `Program` inside the pairing).
fn untraced_request(plan: &RuntimePlan, bindings: &Bindings) -> Observed {
    let mut instance = bind(plan, bindings);
    let kernel = plan.kernel();
    let runtime = instance.runtime_mut();
    let place = runtime.run(&kernel.placement).unwrap();
    let execute = runtime.run(&kernel.compute).unwrap();
    observe(&instance, place, execute)
}

fn counters(program: &TracedProgram) -> (u64, u64, u64) {
    let c = program.counters();
    (c.recorded, c.replayed, c.declined)
}

fn both_counters(plan: &RuntimePlan) -> [(u64, u64, u64); 2] {
    [&plan.kernel().placement, &plan.kernel().compute].map(counters)
}

fn executors() -> [RuntimeBackend; 2] {
    [ExecutorKind::Serial, ExecutorKind::Parallel]
        .map(|kind| RuntimeBackend::functional().with_executor(kind))
}

/// Instance 1 of a plan records, instances 2 and 3 replay, and all three
/// are instance 1 of a fresh plan and a never-traced request, under both
/// executors.
fn assert_replays(problem: &Problem, schedule: &Schedule, what: &str) -> Observed {
    let bindings = problem.bindings();
    let observations = executors().map(|backend| {
        let what = format!("{what} under {:?}", backend.executor);
        let plan = backend.plan_typed(problem, schedule).unwrap();
        assert_eq!(both_counters(&plan), [(0, 0, 0); 2], "{what}: planned");
        let recorded = request(&plan, &bindings);
        assert_eq!(both_counters(&plan), [(1, 0, 0); 2], "{what}: instance 1");
        assert!(recorded.execute.task_log.is_some(), "{what}: logs are on");
        assert_eq!(
            recorded.execute.peak_mem_bytes.values().max(),
            recorded.bytes.iter().map(|(_, peak)| peak).max(),
            "{what}: the statistics carry the peak"
        );
        for replayed in 1..=2 {
            assert_eq!(request(&plan, &bindings), recorded, "{what}: replay");
            assert_eq!(both_counters(&plan), [(1, replayed, 0); 2], "{what}");
        }
        let fresh = backend.plan_typed(problem, schedule).unwrap();
        assert_eq!(untraced_request(&fresh, &bindings), recorded, "{what}");
        assert_eq!(both_counters(&fresh), [(0, 0, 0); 2], "{what}: untraced");
        assert_eq!(request(&fresh, &bindings), recorded, "{what}: fresh plan");
        recorded
    });
    let [serial, _parallel] = observations;
    serial
}

#[test]
fn figure9_algorithms_replay_bit_for_bit() {
    let p = 8;
    for alg in MatmulAlgorithm::all(p) {
        let spec = MachineSpec::small(4);
        let (mut problem, schedule) =
            matmul_problem_on(alg, spec, ProcKind::Cpu, MemKind::Sys, p, 24, 6).unwrap();
        problem.fill_random("B", 0xB).unwrap();
        problem.fill_random("C", 0xC).unwrap();
        let recorded = assert_replays(&problem, &schedule, &alg.name());
        // The 3-D algorithms fold reductions, which a replay must too.
        if alg == MatmulAlgorithm::Johnson {
            assert!(recorded.execute.reductions_applied > 0);
        }
    }
}

#[test]
fn random_einsums_replay_bit_for_bit() {
    let mut rng = Rng(0xD157_A1BE_EF01);
    for round in 0..24 {
        let case = generate(&mut rng);
        let (problem, schedule) = case_problem(&case, 3);
        assert_replays(
            &problem,
            &schedule,
            &format!("round {round} '{}'", case.expr),
        );
    }
}

/// SpMV on a line of 4, SpMM under SUMMA and SDDMM on a 2×2 grid, `B` in
/// `ds` levels at the given density.
fn sparse_problems(n: i64, density: f64) -> Vec<(&'static str, Problem, Schedule)> {
    let tiles = Format::parse("xy->xy", MemKind::Sys).unwrap();
    let tiled_csr = Format::parse_levels("xy->xy", "ds", MemKind::Sys).unwrap();
    let grid = || DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
    let matrix = |name: &str, format: &Format| TensorSpec::new(name, vec![n, n], format.clone());

    let mut spmv = Problem::new(
        MachineSpec::small(4),
        DistalMachine::flat(Grid::line(4), ProcKind::Cpu),
    );
    spmv.statement("a(i) = B(i,j) * c(j)").unwrap();
    let rows = Format::parse("x->x", MemKind::Sys).unwrap();
    let row_csr = Format::parse_levels("xy->x", "ds", MemKind::Sys).unwrap();
    let whole = Format::undistributed_in(MemKind::Global);
    spmv.tensor(TensorSpec::new("a", vec![n], rows)).unwrap();
    spmv.tensor(matrix("B", &row_csr)).unwrap();
    spmv.tensor(TensorSpec::new("c", vec![n], whole)).unwrap();
    spmv.fill_random("c", 0xC).unwrap();
    let by_rows = Schedule::new()
        .divide("i", "io", "ii", 4)
        .reorder(&["io", "ii"])
        .distribute(&["io"]);

    let mut spmm = Problem::new(MachineSpec::small(2), grid());
    spmm.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
    spmm.tensor(matrix("A", &tiles)).unwrap();
    spmm.tensor(matrix("B", &tiled_csr)).unwrap();
    spmm.tensor(matrix("C", &tiles)).unwrap();
    spmm.fill_random("C", 0xC).unwrap();

    let mut sddmm = Problem::new(MachineSpec::small(2), grid());
    sddmm
        .statement("A(i,j) = B(i,j) * C(i,k) * D(k,j)")
        .unwrap();
    sddmm.tensor(matrix("A", &tiles)).unwrap();
    sddmm.tensor(matrix("B", &tiled_csr)).unwrap();
    sddmm.tensor(matrix("C", &tiles)).unwrap();
    sddmm.tensor(matrix("D", &tiles)).unwrap();
    sddmm.fill_random("C", 0xC).unwrap();
    sddmm.fill_random("D", 0xD).unwrap();
    let sampled = Schedule::new()
        .distribute_onto(&["i", "j"], &["io", "jo"], &["ii", "ji"], &[2, 2])
        .reorder(&["io", "jo", "ii", "ji", "k"])
        .communicate(&["A", "B", "C", "D"], "jo");

    let mut problems = vec![
        ("spmv", spmv, by_rows),
        ("spmm", spmm, Schedule::summa(2, 2, n / 2)),
        ("sddmm", sddmm, sampled),
    ];
    for (_, problem, _) in &mut problems {
        problem.fill_random_sparse("B", 0xB, density).unwrap();
    }
    problems
}

#[test]
fn csr_kernels_replay_bit_for_bit() {
    for (name, problem, schedule) in sparse_problems(16, 0.2) {
        let plan = executors()[0].plan_typed(&problem, &schedule).unwrap();
        assert_eq!(plan.kernel().csr_operand.as_deref(), Some("B"), "{name}");
        assert_replays(&problem, &schedule, name);
    }
}

#[test]
fn a_second_execute_on_one_instance_analyses_for_itself() {
    let (_, problem, schedule) = &sparse_problems(16, 1.0)[1];
    let bindings = problem.bindings();
    for backend in executors() {
        let plan = backend.plan_typed(problem, schedule).unwrap();
        request(&plan, &bindings);
        let mut instance = bind(&plan, &bindings);
        let place = instance.place_stats().unwrap();
        instance.execute_stats().unwrap();
        assert_eq!(both_counters(&plan), [(1, 1, 0); 2]);
        // The state `execute` left is not the one it was recorded from.
        let again = instance.execute_stats().unwrap();
        assert_eq!(both_counters(&plan), [(1, 1, 0), (1, 1, 1)]);

        let fresh = backend.plan_typed(problem, schedule).unwrap();
        let mut untraced = bind(&fresh, &bindings);
        let compute = &fresh.kernel().compute;
        let runtime = untraced.runtime_mut();
        let placed = runtime.run(&fresh.kernel().placement).unwrap();
        runtime.run(compute).unwrap();
        let second = runtime.run(compute).unwrap();
        assert_eq!(
            observe(&instance, place, again),
            observe(&untraced, placed, second)
        );
    }
}

#[test]
fn a_binding_with_another_nnz_never_inherits_the_recorded_accounting() {
    // Rule (c) of `plan_reuse.rs`, on the trace: a region's payload and
    // flop scales are part of the state a trace is recorded from. Under
    // the CSR leaves both follow the binding's nnz; under the interpreter
    // `B` binds dense and the payload scale alone does.
    let bound = |shapes: &Problem, density: f64| {
        let mut bindings = shapes.bindings();
        bindings.fill_random_sparse("B", 0xB, density);
        bindings
    };
    for (name, shapes, schedule) in sparse_problems(16, 0.0) {
        let interpreted = schedule.clone().substitute(&["ii"], LeafKind::Interpreter);
        for (schedule, csr) in [(schedule, true), (interpreted, false)] {
            let name = format!("{name}, CSR leaf: {csr}");
            let plan = executors()[1].plan_typed(&shapes, &schedule).unwrap();
            assert_eq!(plan.kernel().csr_operand.is_some(), csr, "{name}");
            let thin = request(&plan, &bound(&shapes, 0.05));
            assert_eq!(both_counters(&plan), [(1, 0, 0); 2], "{name}");
            let thick = request(&plan, &bound(&shapes, 0.5));
            assert_eq!(both_counters(&plan), [(1, 0, 1); 2], "{name}: declined");
            let fresh = executors()[1].plan_typed(&shapes, &schedule).unwrap();
            let untraced = untraced_request(&fresh, &bound(&shapes, 0.5));
            assert_eq!(thick, untraced, "{name}");
            // Staging included: SpMV's `B` moves nowhere else.
            let bytes = |o: &Observed| -> u64 {
                let classes = [&o.place.bytes_by_class, &o.execute.bytes_by_class];
                classes.iter().flat_map(|c| c.values()).sum()
            };
            assert!(bytes(&thin) < bytes(&thick), "{name}: payload bytes");
            let flops = |o: &Observed| o.execute.total_flops;
            assert_eq!(flops(&thin) < flops(&thick), csr, "{name}: flops");
            // The trace is still the first binding's, and still good.
            assert_eq!(request(&plan, &bound(&shapes, 0.05)), thin, "{name}");
            assert_eq!(both_counters(&plan), [(1, 1, 1); 2], "{name}");
        }
    }
}

#[test]
fn an_out_of_memory_plan_errs_the_same_on_every_bind_and_records_nothing() {
    // Figure 15b's shape in small: tiles that do not fit the framebuffer.
    let mut spec = MachineSpec::small(2);
    spec.node.fb_bytes = 1024;
    let p = spec.total_gpus() as i64;
    let (mut problem, schedule) = matmul_problem_on(
        MatmulAlgorithm::Summa,
        spec,
        ProcKind::Gpu,
        MemKind::Fb,
        p,
        32,
        8,
    )
    .unwrap();
    problem.fill_random("B", 0xB).unwrap();
    problem.fill_random("C", 0xC).unwrap();
    for backend in [RuntimeBackend::functional(), RuntimeBackend::model()] {
        let plan = backend.plan_typed(&problem, &schedule).unwrap();
        let mut errors = Vec::new();
        for _ in 0..3 {
            let mut instance = plan.bind_typed(&problem.bindings()).unwrap();
            let entry = instance.runtime().coherence().clone();
            let error = instance.place_stats().unwrap_err();
            assert!(matches!(error, RuntimeError::OutOfMemory { .. }), "{error}");
            assert_eq!(instance.runtime().coherence(), &entry);
            assert_eq!(both_counters(&plan), [(0, 0, 0); 2]);
            errors.push(error);
        }
        assert!(errors.iter().all(|e| *e == errors[0]), "{errors:?}");
    }
}

#[test]
fn a_hand_run_program_between_place_and_execute_declines_the_trace() {
    let (mut problem, schedule) = matmul_problem_on(
        MatmulAlgorithm::Cannon,
        MachineSpec::small(2),
        ProcKind::Cpu,
        MemKind::Sys,
        4,
        16,
        8,
    )
    .unwrap();
    problem.fill_random("B", 0xB).unwrap();
    problem.fill_random("C", 0xC).unwrap();
    let bindings = problem.bindings();
    for backend in executors() {
        let plan = backend.plan_typed(&problem, &schedule).unwrap();
        request(&plan, &bindings);

        // Re-seeding `C` by hand leaves its placed tiles stale.
        let mut refill = Program::new();
        refill.push(Op::Fill {
            region: plan.bind_typed(&bindings).unwrap().region("C").unwrap(),
            value: 0.5,
        });
        let mut instance = bind(&plan, &bindings);
        let place = instance.place_stats().unwrap();
        instance.runtime_mut().run(&refill).unwrap();
        let execute = instance.execute_stats().unwrap();
        assert_eq!(both_counters(&plan), [(1, 1, 0), (1, 0, 1)]);

        let fresh = backend.plan_typed(&problem, &schedule).unwrap();
        let mut untraced = bind(&fresh, &bindings);
        let runtime = untraced.runtime_mut();
        let placed = runtime.run(&fresh.kernel().placement).unwrap();
        runtime.run(&refill).unwrap();
        let executed = runtime.run(&fresh.kernel().compute).unwrap();
        let observed = observe(&instance, place, execute);
        assert_eq!(observed, observe(&untraced, placed, executed));
        assert_ne!(observed.output, request(&plan, &bindings).output);
    }
}
