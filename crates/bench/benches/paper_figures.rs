//! Criterion benchmarks: reduced-scale versions of every paper figure.
//!
//! Each benchmark measures the wall time of one harness invocation (which
//! itself includes the compiler, the dependence analysis, and the
//! discrete-event simulation), and prints the regenerated series so that
//! `cargo bench` doubles as a figure-regeneration smoke test.

use criterion::{criterion_group, criterion_main, Criterion};
use distal_algs::higher_order::HigherOrderKernel;
use distal_algs::matmul::MatmulAlgorithm;
use distal_algs::setup::{higher_order_problem, matmul_problem, RunConfig};
use distal_bench::{fig15, fig16, fig9};
use distal_core::{Problem, Schedule};
use distal_runtime::Mode;

/// Modeled compute makespan of a problem on the configuration's backend.
fn makespan(config: &RunConfig, (problem, schedule): (Problem, Schedule)) -> f64 {
    let mut instance = config.backend().compile_typed(&problem, &schedule).unwrap();
    instance.place_stats().unwrap();
    instance.execute_stats().unwrap().makespan_s
}

fn bench_fig9(c: &mut Criterion) {
    c.bench_function("fig9_comm_profile_cannon_16nodes", |b| {
        b.iter(|| fig9::profile(MatmulAlgorithm::Cannon, 16, 4096))
    });
}

fn bench_fig15a(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig15a_cpu_gemm");
    group.sample_size(10);
    for alg in [
        MatmulAlgorithm::Cannon,
        MatmulAlgorithm::Summa,
        MatmulAlgorithm::Johnson,
    ] {
        group.bench_function(alg.name().replace(' ', "_"), |b| {
            b.iter(|| {
                let config = RunConfig::cpu(8, Mode::Model);
                makespan(&config, matmul_problem(alg, &config, 16384, 1024).unwrap())
            })
        });
    }
    group.finish();
    // Print the reduced panel once for inspection.
    let fig = fig15::figure15(fig15::Panel::Cpu, 8, 4096);
    println!("{}", fig.to_table());
}

fn bench_fig15b(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig15b_gpu_gemm");
    group.sample_size(10);
    group.bench_function("Our_Cannon_8nodes", |b| {
        b.iter(|| {
            let config = RunConfig::gpu(8, Mode::Model);
            let cannon = matmul_problem(MatmulAlgorithm::Cannon, &config, 20000, 2500);
            makespan(&config, cannon.unwrap())
        })
    });
    group.finish();
}

fn bench_fig16(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig16_higher_order");
    group.sample_size(10);
    for kernel in HigherOrderKernel::all() {
        group.bench_function(kernel.name(), |b| {
            b.iter(|| {
                let config = RunConfig::cpu(8, Mode::Model);
                makespan(&config, higher_order_problem(kernel, &config, 512).unwrap())
            })
        });
    }
    group.finish();
    let fig = fig16::figure16(HigherOrderKernel::Ttv, fig16::Panel::Cpu, 4, 256);
    println!("{}", fig.to_table());
}

fn bench_compiler(c: &mut Criterion) {
    // Compilation itself (Figure 3 pipeline): schedule application, bounds
    // analysis, task creation for a 256-socket machine.
    c.bench_function("compile_summa_128nodes", |b| {
        b.iter(|| {
            let config = RunConfig::cpu(128, Mode::Model);
            let (problem, schedule) =
                matmul_problem(MatmulAlgorithm::Summa, &config, 92681, 5792).unwrap();
            let plan = config.backend().plan_typed(&problem, &schedule).unwrap();
            plan.kernel().compute.task_count()
        })
    });
}

fn bench_functional(c: &mut Criterion) {
    // Functional (real numerics) execution of a small SUMMA.
    c.bench_function("functional_summa_16x16", |b| {
        b.iter(|| {
            let mut config = RunConfig::cpu(2, Mode::Functional);
            config.spec = distal_machine::spec::MachineSpec::small(2);
            let (problem, schedule) =
                matmul_problem(MatmulAlgorithm::Summa, &config, 16, 8).unwrap();
            let mut instance = problem.compile(&config.backend(), &schedule).unwrap();
            instance.run().unwrap();
            instance.read("A").unwrap()
        })
    });
}

fn bench_spmd(c: &mut Criterion) {
    // Static SPMD lowering (§8 backend): full compile-time communication
    // analysis for Cannon on an 8x8 torus, through the shared registry.
    use distal_core::{DistalMachine, Problem, TensorSpec};
    use distal_machine::grid::Grid;
    use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
    use distal_spmd::{lower_problem, CollectiveConfig};

    c.bench_function("spmd_lower_cannon_8x8", |b| {
        let machine = DistalMachine::flat(Grid::grid2(8, 8), ProcKind::Cpu);
        let mut problem = Problem::new(MachineSpec::small(32), machine);
        problem.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
        let tiled = distal_format::Format::parse("xy->xy", MemKind::Sys).unwrap();
        for t in ["A", "B", "C"] {
            problem
                .tensor(TensorSpec::new(t, vec![4096, 4096], tiled.clone()))
                .unwrap();
        }
        let schedule = MatmulAlgorithm::Cannon.schedule(64, 4096, 512);
        b.iter(|| {
            let program = lower_problem(&problem, &schedule, &CollectiveConfig::default()).unwrap();
            program.stats().bytes
        })
    });
}

fn bench_autosched(c: &mut Criterion) {
    // The §9 search: enumerate + compile + simulate every candidate.
    use distal_autosched::{AutoScheduler, SearchConfig};
    use std::collections::BTreeMap;

    let mut group = c.benchmark_group("autosched");
    group.sample_size(10);
    group.bench_function("search_matmul_16sockets", |b| {
        let scheduler = AutoScheduler::new(SearchConfig::cpu(
            distal_machine::spec::MachineSpec::lassen(8),
        ));
        let dims: BTreeMap<String, Vec<i64>> = ["A", "B", "C"]
            .iter()
            .map(|t| (t.to_string(), vec![8192, 8192]))
            .collect();
        b.iter(|| {
            let result = scheduler.search("A(i,j) = B(i,k) * C(k,j)", &dims).unwrap();
            result.best().map(|e| e.makespan_s)
        })
    });
    group.finish();
}

fn bench_ablations(c: &mut Criterion) {
    use distal_bench::ablations;
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    group.bench_function("rotate_8nodes", |b| {
        b.iter(|| ablations::ablate_rotate(8, 8192))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fig9,
    bench_fig15a,
    bench_fig15b,
    bench_fig16,
    bench_compiler,
    bench_functional,
    bench_spmd,
    bench_autosched,
    bench_ablations
);
criterion_main!(benches);
