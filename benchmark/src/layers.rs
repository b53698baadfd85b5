//! The traced run: per-layer numbers, taken from outside each layer.
//!
//! Every timing here is a span around one public entry point of one
//! layer, recorded by [`crate::trace::Tracer`]; the metric is the median
//! (or, over several plan keys, the sum of per-key medians) of the spans
//! of that name. The probes run on the workload's *own* keys, so one
//! workload's numbers show which layer its end-to-end metrics depend on:
//!
//! * plan-side layers (problem build, admission lint, SPMD lowering,
//!   collective rewriting, verification, α-β costing) over every plan
//!   key of the workload;
//! * execution-side layers (bind/place/execute/read, executors,
//!   transports, the model-mode simulator) over its request keys, the
//!   single-key ones on the *subject* — the first request key;
//! * serving and the plan cache on the real closed loop for
//!   `serve_mix`, on a cold-then-warm engine over the subject elsewhere;
//! * leaf kernels, the autoscheduler and the host probes at fixed sizes,
//!   identical in every workload's traced run (denominators).

use crate::host;
use crate::metrics::Values;
use crate::pipeline::{self, serve_one, start_engine, DirectLoop, Repeats, ServeLoop, Tally};
use crate::reference::{matmul_at, Csr, Samples, SAMPLE_POSITIONS};
use crate::rng::{self, XorShift};
use crate::stats::{median, percentile};
use crate::trace::{durations, Span, Tracer};
use crate::workloads::{spmv_problem, KeyClass, PlanSpec, RequestKey, Sizes, Workload};
use distal::autosched::{AutoScheduler, SearchConfig};
use distal::core::{lint_schedule, LintConfig};
use distal::prelude::*;
use distal::spmd::{
    collective, lower_problem, to_verify_ir, verify_program, CollectiveConfig, SpmdProgram,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Repetitions of a probe on one key; a probe stops early once it has
/// spent `PROBE_BUDGET_S`, so a 0.7 s lowering runs once and a 1 ms one
/// three times.
const PROBE_REPS: usize = 3;
const PROBE_BUDGET_S: f64 = 0.3;
/// Samples of each executor/transport variant on the subject key.
const EXEC_SAMPLES: usize = 5;
/// Direct requests alternate between untraced and traced in blocks of
/// this many, so both populations see the same machine state.
const TRACE_BLOCK: usize = 4;

/// The result of one traced run.
pub struct Traced {
    pub values: Values,
    pub tally: Tally,
    pub spans: Vec<Span>,
    pub notes: Vec<String>,
}

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

fn median_ms(spans: &[Span], name: &str) -> f64 {
    ms(median(&durations(spans, name)))
}

/// Plan-side layers over every plan key: sums of per-key medians.
fn plan_layers(tracer: &Tracer, plans: &[PlanSpec], values: &mut Values, tally: &mut Tally) {
    let lints = LintConfig::default();
    let spmd = SpmdBackend::new();
    let mut sum: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut findings, mut rank_ops, mut messages) = (0usize, 0usize, 0u64);
    let (mut recognized, mut depth, mut events, mut diagnostics) = (0usize, 0usize, 0usize, 0usize);
    for spec in plans {
        let (problem, schedule) = (&*spec.problem, &spec.schedule);
        let mut probe = |name: &'static str, f: &mut dyn FnMut()| {
            *sum.entry(name).or_default() += tracer.measure(name, PROBE_REPS, PROBE_BUDGET_S, f);
        };
        probe("core.problem.build", &mut || {
            std::hint::black_box(spec.rebuild_problem());
        });
        let mut found = 0;
        probe("core.lint.admit", &mut || {
            found = lint_schedule(problem, schedule, &lints).len();
        });
        findings += found;
        let (mut naive, mut trees): (Option<SpmdProgram>, Option<SpmdProgram>) = (None, None);
        probe("spmd.lower.naive", &mut || {
            naive = lower_problem(problem, schedule, &CollectiveConfig::point_to_point()).ok();
        });
        probe("spmd.lower.trees", &mut || {
            trees = lower_problem(problem, schedule, &CollectiveConfig::trees()).ok();
        });
        let (Some(naive), Some(trees)) = (naive, trees) else {
            tally.record(false, || {
                format!("SPMD lowering of '{}' failed", spec.label)
            });
            continue;
        };
        tally.record(true, String::new);
        rank_ops += (0..naive.ranks())
            .map(|r| naive.rank_ops(r).len())
            .sum::<usize>();
        messages += naive.stats().messages;
        probe("spmd.collective.recognize", &mut || {
            found = collective::recognize(&naive).len();
        });
        recognized += found;
        depth = depth.max(trees.collective_depth());
        probe("verify.verify", &mut || {
            found = verify_program(&trees).len();
        });
        diagnostics += found;
        events += to_verify_ir(&trees)
            .ranks
            .iter()
            .map(Vec::len)
            .sum::<usize>();
        probe("spmd.cost.evaluate", &mut || {
            std::hint::black_box(trees.cost(&AlphaBeta::default()));
        });
        probe("spmd.backend.plan", &mut || {
            std::hint::black_box(spmd.plan(problem, schedule).is_ok());
        });
    }
    let of = |name: &str| sum.get(name).copied().unwrap_or(0.0);
    values.set("core.problem.build_us", of("core.problem.build") * 1e6);
    values.set("core.lint.admit_us", of("core.lint.admit") * 1e6);
    values.set("core.lint.findings", findings as f64);
    values.set("spmd.lower.naive_ms", ms(of("spmd.lower.naive")));
    values.set("spmd.lower.rank_ops", rank_ops as f64);
    values.set("spmd.lower.messages", messages as f64);
    values.set(
        "spmd.collective.rewrite_ms",
        ms(of("spmd.lower.trees") - of("spmd.lower.naive")),
    );
    values.set(
        "spmd.collective.recognize_ms",
        ms(of("spmd.collective.recognize")),
    );
    values.set("spmd.collective.recognized", recognized as f64);
    values.set("spmd.collective.depth", depth as f64);
    values.set("verify.verify_ms", ms(of("verify.verify")));
    values.set("verify.events", events as f64);
    values.set("verify.diagnostics", diagnostics as f64);
    values.set("spmd.cost.evaluate_ms", ms(of("spmd.cost.evaluate")));
    // What `SpmdBackend::plan` spends outside the three phases timed
    // above. (Costing is not part of `plan`: the α-β model is evaluated
    // when an instance executes, so it is not subtracted.)
    values.set(
        "spmd.backend.plan_unattributed_ms",
        ms(of("spmd.backend.plan")
            - of("core.lint.admit")
            - of("spmd.lower.trees")
            - of("verify.verify")),
    );
}

/// `execute()` of `key` on `backend`, `EXEC_SAMPLES` times, each inside
/// a span called `name`; bind and place are outside the span. Returns the
/// execute reports.
fn executions(
    tracer: &Tracer,
    name: &'static str,
    backend: &dyn Backend,
    key: &RequestKey,
    tally: &mut Tally,
) -> Vec<Report> {
    let mut reports = Vec::new();
    let plan = match backend.plan(&key.plan.problem, &key.plan.schedule) {
        Ok(plan) => plan,
        Err(e) => {
            tally.record(false, || format!("{name}: plan: {e}"));
            return reports;
        }
    };
    for sample in 0..EXEC_SAMPLES {
        let input = &key.inputs[sample % key.inputs.len()];
        let outcome = plan.bind(&input.bindings).and_then(|mut instance| {
            instance.place()?;
            let report = tracer.span(name, None, 0, |_| instance.execute())?;
            Ok((report, input.samples.check(&instance.read(key.output)?)))
        });
        match outcome {
            Ok((report, verified)) => {
                tally.record(verified, || format!("{name}: output misses the reference"));
                reports.push(report);
            }
            Err(e) => tally.record(false, || format!("{name}: {e}")),
        }
    }
    reports
}

/// Execution-side layers on the subject key: both runtime executors, both
/// SPMD transports, and the model-mode simulator.
fn execution_layers(
    tracer: &Tracer,
    keys: &[RequestKey],
    nproc: usize,
    values: &mut Values,
    tally: &mut Tally,
) {
    let subject = &keys[0];
    let runtime = RuntimeBackend::functional();
    values.set(
        "core.backend.runtime_plan_ms",
        ms(keys
            .iter()
            .map(|k| {
                tracer.measure(
                    "core.backend.runtime_plan",
                    PROBE_REPS,
                    PROBE_BUDGET_S,
                    || runtime.plan(&k.plan.problem, &k.plan.schedule).is_ok(),
                )
            })
            .sum()),
    );

    let serial = runtime.clone().with_executor(ExecutorKind::Serial);
    executions(tracer, "runtime.executor.serial", &serial, subject, tally);
    executions(
        tracer,
        "runtime.executor.parallel",
        &runtime,
        subject,
        tally,
    );
    let sequential = SpmdBackend::new();
    executions(tracer, "spmd.vm.sequential", &sequential, subject, tally);
    let threaded = SpmdBackend::new().with_transport(Transport::threaded_with(nproc));
    let reports = executions(tracer, "spmd.transport.threaded", &threaded, subject, tally);

    let model = RuntimeBackend::model();
    let modeled = tracer.measure("runtime.sim.model_run", PROBE_REPS, PROBE_BUDGET_S, || {
        model
            .plan(&subject.plan.problem, &subject.plan.schedule)
            .and_then(|plan| plan.bind(&subject.inputs[0].bindings))
            .and_then(|mut instance| instance.run())
            .is_ok()
    });

    let spans = tracer.snapshot();
    let wall = |name: &str| median(&durations(&spans, name));
    let makespans: Vec<f64> = reports.iter().map(|r| r.critical_path_s).collect();
    let outside: Vec<f64> = durations(&spans, "spmd.transport.threaded")
        .iter()
        .zip(&makespans)
        .map(|(wall, makespan)| wall - makespan)
        .collect();
    let ratios: Vec<f64> = reports
        .iter()
        .filter_map(Report::modeled_vs_measured)
        .collect();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    values.set(
        "runtime.executor.serial_execute_ms",
        ms(wall("runtime.executor.serial")),
    );
    values.set(
        "runtime.executor.parallel_speedup",
        ratio(
            wall("runtime.executor.serial"),
            wall("runtime.executor.parallel"),
        ),
    );
    values.set(
        "spmd.vm.sequential_execute_ms",
        ms(wall("spmd.vm.sequential")),
    );
    values.set("spmd.transport.rank_makespan_ms", ms(median(&makespans)));
    values.set("spmd.transport.outside_ranks_ms", ms(median(&outside)));
    values.set(
        "spmd.transport.threaded_speedup",
        ratio(wall("spmd.vm.sequential"), wall("spmd.transport.threaded")),
    );
    values.set("spmd.model_ratio", median(&ratios));
    values.set("runtime.sim.model_run_ms", ms(modeled));
}

/// Serving and plan-cache layers. `serve_mix` runs its real closed loop,
/// traced; every other workload sends its subject key through a fresh
/// engine three times — the first request of each engine misses and
/// plans, the next four hit.
#[allow(clippy::too_many_arguments)]
fn serving_layers(
    tracer: &Tracer,
    workload: &Workload,
    sizes: &Sizes,
    nproc: usize,
    seconds: f64,
    direct_p50_ms: f64,
    repeats: &mut Repeats,
    values: &mut Values,
    tally: &mut Tally,
    notes: &mut Vec<String>,
) {
    let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
    // Counter deltas over the timed part: (completed, failed, batches,
    // bind_lowerings, hits, misses, evictions), plus the peak batch.
    let mut delta = [0u64; 7];
    let mut peak_batch = 0u64;
    let mut add = |before: &distal::serve::EngineStats, after: &distal::serve::EngineStats| {
        let pairs = [
            (before.completed, after.completed),
            (before.failed, after.failed),
            (before.batches, after.batches),
            (before.bind_lowerings, after.bind_lowerings),
            (before.cache.hits, after.cache.hits),
            (before.cache.misses, after.cache.misses),
            (before.cache.evictions, after.cache.evictions),
        ];
        for (slot, (b, a)) in delta.iter_mut().zip(pairs) {
            *slot += a - b;
        }
        peak_batch = peak_batch.max(after.peak_batch);
    };
    match &workload.serve {
        Some(mix) => {
            let mut serving = ServeLoop::start(workload, mix);
            let round = serving.round(
                seconds,
                mix.requests_per_rotation(),
                Some(tracer),
                repeats,
                tally,
            );
            for sample in &round {
                match workload.keys[sample.key].class {
                    KeyClass::Hot => hit_ms.push(ms(sample.latency_s)),
                    KeyClass::Cold => miss_ms.push(ms(sample.latency_s)),
                }
            }
            let before = serving.before.clone();
            add(&before, &serving.finish());
            notes.push(format!(
                "serve.engine.*: traced closed loop, {} verified requests",
                round.len()
            ));
        }
        None => {
            let subject = &workload.keys[0];
            for _ in 0..3 {
                let engine = start_engine(&subject.plan.backend, nproc, sizes.cache_capacity);
                let before = engine.stats();
                for r in 0..5 {
                    let (name, into) = if r == 0 {
                        ("serve.engine.miss", &mut miss_ms)
                    } else {
                        ("serve.engine.hit", &mut hit_ms)
                    };
                    match tracer.span(name, None, 0, |_| serve_one(&engine, subject, r)) {
                        Ok(served) => {
                            tally.record(served.verified, || {
                                "served output misses the reference".into()
                            });
                            into.push(ms(served.latency_s));
                        }
                        Err(e) => tally.record(false, || format!("serve probe: {e}")),
                    }
                }
                add(&before, &engine.shutdown());
            }
            notes.push(
                "serve.engine.*: 3 fresh engines x (1 miss + 4 hits) on the subject key".into(),
            );
        }
    }
    let [completed, failed, batches, bind_lowerings, hits, misses, evictions] =
        delta.map(|d| d as f64);
    let all: Vec<f64> = hit_ms.iter().chain(&miss_ms).copied().collect();
    let hit_p50 = median(&hit_ms);
    values.set("serve.engine.hit_p50_ms", hit_p50);
    values.set("serve.engine.miss_p50_ms", median(&miss_ms));
    values.set("serve.engine.request_p99_ms", percentile(&all, 0.99));
    if workload.serve.is_some() {
        // On `serve_mix` a request is a `submit → wait` of the closed loop.
        values.set("request.raw_p50_ms", median(&all));
        values.set("request.raw_p90_ms", percentile(&all, 0.9));
    }
    // Queue wait + dispatch + reply: a hit through the engine minus the
    // same keys requested directly, serially, with the plan in hand.
    values.set("serve.engine.overhead_ms", hit_p50 - direct_p50_ms);
    values.set("serve.engine.batches", batches);
    values.set(
        "serve.engine.mean_batch",
        (completed + failed) / batches.max(1.0),
    );
    values.set("serve.engine.peak_batch", peak_batch as f64);
    values.set("serve.engine.bind_lowerings", bind_lowerings);
    values.set("serve.engine.failed", failed);
    values.set("core.cache.hits", hits);
    values.set("core.cache.misses", misses);
    values.set("core.cache.evictions", evictions);
    values.set("core.cache.hit_rate", hits / (hits + misses).max(1.0));
}

/// `PlanKey::new` and a resident-key lookup, averaged over many calls
/// (each is far below the clock's resolution).
fn cache_layers(tracer: &Tracer, subject: &PlanSpec, values: &mut Values) {
    const CALLS: usize = 2000;
    let (backend, problem, schedule) = (&*subject.backend, &*subject.problem, &subject.schedule);
    let keyed = tracer.measure("core.cache.plankey_x2000", 1, 0.0, || {
        for _ in 0..CALLS {
            std::hint::black_box(PlanKey::new(backend, problem, schedule));
        }
    });
    let cache = ShardedPlanCache::new(16, 8);
    let resident = cache.get_or_plan(backend, problem, schedule).is_ok();
    let hit = tracer.measure("core.cache.hit_x2000", 1, 0.0, || {
        for _ in 0..CALLS {
            std::hint::black_box(cache.get_or_plan(backend, problem, schedule).is_ok());
        }
    });
    values.set("core.cache.plankey_us", keyed / CALLS as f64 * 1e6);
    values.set(
        "core.cache.hit_us",
        if resident {
            hit / CALLS as f64 * 1e6
        } else {
            0.0
        },
    );
}

/// A one-processor problem with an empty schedule: the whole statement
/// is one leaf, so `execute` is the generated kernel and little else.
fn single_leaf(statement: &str, tensors: &[(&str, Vec<i64>, Format)]) -> Problem {
    let machine = DistalMachine::flat(Grid::line(1), ProcKind::Cpu);
    let mut problem = Problem::new(MachineSpec::small(1), machine);
    problem
        .statement(statement)
        .expect("probe statement parses");
    for (name, dims, format) in tensors {
        problem
            .tensor(TensorSpec::new(*name, dims.clone(), format.clone()))
            .expect("probe tensor registers");
    }
    problem
}

/// Median `execute()` seconds of a single-leaf problem over 7 runs, with
/// the output checked against `samples`.
fn leaf_seconds(
    tracer: &Tracer,
    name: &'static str,
    problem: &Problem,
    bindings: &Bindings,
    output: &str,
    samples: &Samples,
    tally: &mut Tally,
) -> f64 {
    let plan = match RuntimeBackend::functional().plan(problem, &Schedule::new()) {
        Ok(plan) => plan,
        Err(e) => {
            tally.record(false, || format!("{name}: plan: {e}"));
            return f64::NAN;
        }
    };
    for _ in 0..7 {
        let outcome = plan.bind(bindings).and_then(|mut instance| {
            instance.place()?;
            tracer.span(name, None, 0, |_| instance.execute())?;
            instance.read(output)
        });
        let ok = outcome.as_ref().is_ok_and(|out| samples.check(out));
        tally.record(ok, || format!("{name}: {:?}", outcome.err()));
    }
    median(&durations(&tracer.snapshot(), name))
}

/// Leaf kernels at fixed sizes: the generated GEMM on one SUMMA tile, a
/// three-input einsum through the tape compiler, and CSR SpMV.
fn kernel_layers(
    tracer: &Tracer,
    seed: u64,
    sizes: &Sizes,
    fma_gflops: f64,
    triad_gbs: f64,
    values: &mut Values,
    tally: &mut Tally,
) {
    let mut rng = XorShift::new(seed ^ 0x6b65_726e);
    let whole = Format::undistributed_in(MemKind::Sys);
    let t = sizes.dense_chunk as usize;
    let square = vec![t as i64, t as i64];
    let (b, c, d) = (
        rng::dense(&mut rng, t * t),
        rng::dense(&mut rng, t * t),
        rng::dense(&mut rng, t * t),
    );
    let at = rng::positions(&mut rng, t * t, SAMPLE_POSITIONS);

    let gemm = single_leaf(
        "A(i,j) = B(i,k) * C(k,j)",
        &["A", "B", "C"].map(|n| (n, square.clone(), whole.clone())),
    );
    let mut bindings = Bindings::new();
    bindings.set_data("B", b.clone()).set_data("C", c.clone());
    let samples = Samples::new(at.clone(), |p| matmul_at(&b, &c, t, t, p));
    let secs = leaf_seconds(
        tracer,
        "core.kernelgen.gemm_tile",
        &gemm,
        &bindings,
        "A",
        &samples,
        tally,
    );
    let gemm_gflops = 2.0 * (t as f64).powi(3) / secs / 1e9;
    values.set("core.kernelgen.gemm_tile_gflops", gemm_gflops);
    values.set(
        "core.kernelgen.gemm_tile_roofline_share",
        gemm_gflops / fma_gflops,
    );

    let einsum = single_leaf(
        "A(i,j) = B(i,k) * C(k,j) * D(i,j)",
        &["A", "B", "C", "D"].map(|n| (n, square.clone(), whole.clone())),
    );
    bindings.set_data("D", d.clone());
    let samples = Samples::new(at, |p| matmul_at(&b, &c, t, t, p) * d[p]);
    let secs = leaf_seconds(
        tracer,
        "core.kernelgen.tape",
        &einsum,
        &bindings,
        "A",
        &samples,
        tally,
    );
    values.set(
        "core.kernelgen.tape_gflops",
        3.0 * (t as f64).powi(3) / secs / 1e9,
    );

    let n = sizes.sparse_n as usize;
    let nnz = (sizes.sparse_density * (n * n) as f64).round() as usize;
    let b = rng::sparse(&mut rng, n, n, nnz);
    let c = rng::dense(&mut rng, n);
    let csr = Csr::from_dense(n, n, &b);
    let samples = Samples::new(rng::positions(&mut rng, n, SAMPLE_POSITIONS), |row| {
        csr.spmv_at(&c, row)
    });
    let from_dense = tracer.measure(
        "sparse.buffer.from_dense",
        PROBE_REPS,
        PROBE_BUDGET_S,
        || SparseBuffer::from_dense(&[n as i64, n as i64], &b).nnz(),
    );
    values.set("sparse.buffer.from_dense_ms", ms(from_dense));
    let (spmv, _) = spmv_problem(1, n as i64);
    let mut bindings = Bindings::new();
    bindings.set_data("B", b).set_data("c", c);
    let secs = leaf_seconds(
        tracer,
        "sparse.kernels.spmv",
        &spmv,
        &bindings,
        "a",
        &samples,
        tally,
    );
    // Computed, not counted: 8 B value + 8 B coordinate per stored entry,
    // the row-pointer array, one read of c and one write of a.
    let bytes = 16.0 * nnz as f64 + 8.0 * (n + 1) as f64 + 16.0 * n as f64;
    let gbs = bytes / secs / 1e9;
    values.set("sparse.kernels.spmv_gflops", 2.0 * nnz as f64 / secs / 1e9);
    values.set("sparse.kernels.spmv_gbs", gbs);
    values.set("sparse.kernels.spmv_triad_share", gbs / triad_gbs);
}

/// The autoscheduler's search over the dense matmul under both cost
/// models (nothing end to end depends on it today).
fn autosched_layers(tracer: &Tracer, sizes: &Sizes, values: &mut Values) {
    let n = sizes.dense_n;
    let dims: BTreeMap<String, Vec<i64>> = ["A", "B", "C"]
        .into_iter()
        .map(|t| (t.to_string(), vec![n, n]))
        .collect();
    let spec = MachineSpec::small((sizes.dense_p as usize).div_ceil(2));
    let expr = "A(i,j) = B(i,k) * C(k,j)";
    let (mut seconds, mut candidates, mut pruned, mut plans) = (0.0, 0usize, 0usize, 0u64);
    let backends: [(&'static str, Box<dyn Backend>); 2] = [
        (
            "autosched.search.runtime_sim",
            Box::new(RuntimeBackend::model()),
        ),
        (
            "autosched.search.alpha_beta",
            Box::new(CostBackend::alpha_beta(AlphaBeta::default())),
        ),
    ];
    for (name, backend) in backends {
        let scheduler = AutoScheduler::new(SearchConfig::cpu(spec.clone()));
        seconds += tracer.measure(name, 1, 0.0, || {
            if let Ok(result) = scheduler.search_with(backend.as_ref(), expr, &dims) {
                candidates = result.evaluations.len();
                pruned = result.pruned_candidates();
            }
        });
        plans += scheduler.cache_stats().misses;
    }
    values.set("autosched.search_ms", ms(seconds));
    values.set("autosched.candidates", candidates as f64);
    values.set("autosched.pruned", pruned as f64);
    values.set("autosched.plans", plans as f64);
}

/// The traced run: every per-layer metric of one workload.
pub fn run(name: &str, seed: u64, seconds: f64, sizes: &Sizes, nproc: usize) -> Option<Traced> {
    let tracer = Tracer::new();
    let mut values = Values::default();
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let (workload, _) = tracer.span("setup", None, 0, |_| {
        pipeline::setup(name, seed, sizes, nproc)
    })?;
    let subject = &workload.keys[0];

    // The first plan of the process pays one-time initialisation that the
    // later plans of the same key do not.
    let plan_subject = || {
        let start = Instant::now();
        let ok = subject
            .plan
            .backend
            .plan(&subject.plan.problem, &subject.plan.schedule)
            .is_ok();
        (start.elapsed().as_secs_f64(), ok)
    };
    let (first, ok) = tracer.span("core.kernelgen.first_plan", None, 0, |_| plan_subject());
    tally.record(ok, || "first plan of the subject key failed".into());
    let later: Vec<f64> = (0..7).map(|_| plan_subject().0).collect();
    values.set(
        "core.kernelgen.first_specialize_ms",
        ms(first - median(&later)),
    );

    // Direct requests, in alternating untraced and traced blocks: phase
    // spans, the tracing overhead, and the direct latency of hot keys.
    // Hot keys come first in every workload; only `serve_mix` has others.
    let hot = &workload.keys[..workload
        .keys
        .iter()
        .take_while(|k| k.class == KeyClass::Hot)
        .count()];
    let mut repeats = Repeats::new(workload.keys.len());
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut first_reports: Vec<Option<Report>> = vec![None; hot.len()];
    match DirectLoop::start(hot) {
        Ok(mut requests) => {
            let budget = seconds * 0.25;
            let mut spent = 0.0;
            for r in 0.. {
                if r >= 4 * TRACE_BLOCK && spent >= budget {
                    break;
                }
                let traced_block = (r / TRACE_BLOCK) % 2 == 1;
                let Some(served) =
                    requests.next(traced_block.then_some(&tracer), &mut repeats, &mut tally)
                else {
                    if r > 4 * TRACE_BLOCK {
                        break;
                    }
                    continue;
                };
                spent += served.latency_s;
                let latencies = if traced_block {
                    &mut traced
                } else {
                    &mut plain
                };
                latencies.push(ms(served.latency_s));
                first_reports[r % hot.len()].get_or_insert(served.report);
            }
        }
        Err(e) => tally.record(false, || format!("holding plans: {e}")),
    }
    let spans = tracer.snapshot();
    let direct_p50_ms = median(&plain);
    let execute_s = median(&durations(&spans, "core.instance.execute"));
    values.set("core.plan.bind_ms", median_ms(&spans, "core.plan.bind"));
    values.set(
        "core.instance.place_ms",
        median_ms(&spans, "core.instance.place"),
    );
    values.set("core.instance.execute_ms", ms(execute_s));
    values.set(
        "core.instance.read_ms",
        median_ms(&spans, "core.instance.read"),
    );
    // Hot keys of one workload all need the same useful flops.
    values.set(
        "core.instance.execute_gflops",
        subject.useful_flops / execute_s / 1e9,
    );
    // Plain percentiles over every untraced request, the host's
    // disturbances included: what the end-to-end floors leave out.
    values.set("request.raw_p50_ms", direct_p50_ms);
    values.set("request.raw_p90_ms", percentile(&plain, 0.9));
    values.set(
        "trace.overhead_share",
        median(&traced) / direct_p50_ms - 1.0,
    );
    notes.push(format!(
        "direct requests: {} untraced (p50 {direct_p50_ms:.3} ms) and {} traced, in blocks of \
         {TRACE_BLOCK}",
        plain.len(),
        traced.len()
    ));
    let reports: Vec<&Report> = first_reports.iter().flatten().collect();
    let useful: f64 = hot.iter().map(|k| k.useful_flops).sum();
    values.set(
        "core.report.flops_ratio",
        reports.iter().map(|r| r.flops).sum::<f64>() / useful,
    );
    values.set(
        "core.report.messages",
        reports.iter().map(|r| r.messages).sum::<u64>() as f64,
    );
    values.set(
        "core.report.tasks",
        reports.iter().map(|r| r.tasks).sum::<u64>() as f64,
    );
    values.set(
        "core.report.peak_bytes",
        reports.iter().map(|r| r.peak_bytes).max().unwrap_or(0) as f64,
    );

    serving_layers(
        &tracer,
        &workload,
        sizes,
        nproc,
        seconds * 0.25,
        direct_p50_ms,
        &mut repeats,
        &mut values,
        &mut tally,
        &mut notes,
    );
    values.set("modeled_makespan_ms", ms(repeats.totals().1));

    plan_layers(&tracer, &workload.plans, &mut values, &mut tally);
    execution_layers(&tracer, &workload.keys, nproc, &mut values, &mut tally);
    cache_layers(&tracer, &subject.plan, &mut values);
    autosched_layers(&tracer, sizes, &mut values);

    let fma = tracer.span("host.fma", None, 0, |_| host::fma_gflops());
    // Peak memory of the pipeline work, read before the triad probe
    // allocates its own 192 MiB.
    values.set("process.peak_rss_mib", host::peak_rss_mib());
    let triad = tracer.span("host.triad", None, 0, |_| host::triad_gbs());
    values.set("host.nproc", nproc as f64);
    values.set("host.fma_gflops", fma);
    values.set("host.triad_gbs", triad);
    kernel_layers(&tracer, seed, sizes, fma, triad, &mut values, &mut tally);

    values.set("failure_share", tally.failure_share());
    let spans = tracer.snapshot();
    values.set("trace.spans", spans.len() as f64);
    Some(Traced {
        values,
        tally,
        spans,
        notes,
    })
}
