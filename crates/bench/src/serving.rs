//! Serving benchmark: recompile-per-request vs the plan-cache path.
//!
//! A request stream of N matmuls over *fixed* shapes with *fresh* random
//! operands is served two ways on each executable backend (dynamic
//! runtime, static SPMD):
//!
//! * **recompile** — every request runs `Problem::compile` (full
//!   schedule application + lowering) and then executes;
//! * **plan cache** — every request goes through a keyed
//!   [`ShardedPlanCache`]: after the first miss the stream is 100% hits,
//!   each request paying only `Plan::bind` (data seeding, no lowering).
//!
//! Both paths verify bit-identical outputs per request. The row reports
//! amortized per-request compile time on both paths, end-to-end
//! requests/sec, the cache counters, and the per-thread lowering
//! counters — the CI gate (`--assert-cache`) requires a 100% hit rate
//! after warm-up, zero lowerings on the bound path after warm-up, and
//! the cached path's amortized compile time strictly below the recompile
//! path's.
//!
//! Two concurrent measurements ride alongside:
//!
//! * **concurrent** ([`concurrent_serve_one`]) — a closed loop of client
//!   threads submitting fresh-data requests to a
//!   [`ServingEngine`], reporting req/s and p50/p99 latency with every
//!   response verified bit-for-bit against a single-threaded reference.
//!   The `--assert-scaling` gate requires multi-worker req/s ≥ 1.5× the
//!   single-worker run on the runtime backend (skipped on single-core
//!   hosts), and `--threads N` sizes the engine.
//! * **stampede** ([`stampede_one`]) — racing threads through a cold
//!   [`ShardedPlanCache`] over several distinct keys; the
//!   `--assert-single-flight` gate requires misses == distinct keys and
//!   total lowering work == one plan's worth per key.

use distal_core::{
    Backend, Bindings, CacheStats, DistalMachine, Problem, RuntimeBackend, Schedule,
    ShardedPlanCache, TensorSpec,
};
use distal_format::Format;
use distal_machine::grid::Grid;
use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
use distal_serve::{ServeConfig, ServeRequest, ServingEngine};
use distal_spmd::SpmdBackend;
use std::fmt::Write as _;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// One (backend, request-count) serving measurement.
#[derive(Clone, Debug)]
pub struct ServingBenchRow {
    /// Backend name (`runtime` or `spmd`).
    pub backend: String,
    /// Requests served.
    pub requests: u64,
    /// Matrix side length.
    pub n: i64,
    /// Total compile time on the recompile path (seconds).
    pub recompile_compile_s: f64,
    /// Amortized per-request compile time, recompile path (seconds).
    pub recompile_amortized_s: f64,
    /// End-to-end wall clock of the recompile path (seconds).
    pub recompile_wall_s: f64,
    /// Requests/sec, recompile path.
    pub recompile_rps: f64,
    /// Total plan (cache miss) + bind time on the cached path (seconds).
    pub cached_compile_s: f64,
    /// Amortized per-request plan+bind time, cached path (seconds).
    pub cached_amortized_s: f64,
    /// End-to-end wall clock of the cached path (seconds).
    pub cached_wall_s: f64,
    /// Requests/sec, cached path.
    pub cached_rps: f64,
    /// Cache counters after the stream.
    pub cache: CacheStats,
    /// Lowerings performed by the cached path *after* the warm-up
    /// request (must be 0: binding never re-lowers).
    pub lowerings_after_warmup: u64,
    /// Whether both paths produced bit-identical outputs per request.
    pub verified: bool,
}

impl ServingBenchRow {
    /// Amortized-compile speedup of the cached path over recompiling.
    pub fn compile_speedup(&self) -> f64 {
        if self.cached_amortized_s <= 0.0 {
            return f64::INFINITY;
        }
        self.recompile_amortized_s / self.cached_amortized_s
    }
}

/// The fixed-shape problem the request stream serves (no initializers —
/// data arrives per request).
fn serving_shapes(n: i64) -> (Problem, Schedule) {
    let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
    let mut p = Problem::new(MachineSpec::small(2), machine);
    p.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
    let tiles = Format::parse("xy->xy", MemKind::Sys).unwrap();
    for t in ["A", "B", "C"] {
        p.tensor(TensorSpec::new(t, vec![n, n], tiles.clone()))
            .unwrap();
    }
    (p, Schedule::summa(2, 2, (n / 2).max(1)))
}

fn request_bindings(r: u64) -> Bindings {
    let mut b = Bindings::new();
    b.fill_random("B", 2 * r + 1).fill_random("C", 2 * r + 2);
    b
}

/// Total lowering work the calling thread has performed so far (runtime
/// compilations + SPMD lowerings; the bound path must not move either).
fn thread_lowerings() -> u64 {
    distal_core::lower::compile_count() + distal_spmd::lower_count()
}

/// Serves `requests` fresh-data requests on `backend` both ways and
/// measures them. Outputs are verified bit-identical request by request.
pub fn serve_one(backend: &dyn Backend, requests: u64, n: i64) -> ServingBenchRow {
    let (shapes, schedule) = serving_shapes(n);

    // --- Recompile path: full Problem::compile per request. -------------
    let mut recompile_outputs = Vec::new();
    let mut recompile_compile_s = 0.0;
    let recompile_start = Instant::now();
    for r in 0..requests {
        let mut problem = shapes.clone();
        problem.fill_random("B", 2 * r + 1).unwrap();
        problem.fill_random("C", 2 * r + 2).unwrap();
        let t = Instant::now();
        let mut artifact = problem
            .compile(backend, &schedule)
            .unwrap_or_else(|e| panic!("recompile path failed: {e}"));
        recompile_compile_s += t.elapsed().as_secs_f64();
        artifact.run().unwrap_or_else(|e| panic!("run failed: {e}"));
        recompile_outputs.push(artifact.read("A").unwrap());
    }
    let recompile_wall_s = recompile_start.elapsed().as_secs_f64();

    // --- Plan-cache path: keyed plan reuse + per-request bind. ----------
    let cache = ShardedPlanCache::new(8, 1);
    let mut cached_outputs = Vec::new();
    let mut cached_compile_s = 0.0;
    let mut lowerings_after_warmup = 0;
    let cached_start = Instant::now();
    for r in 0..requests {
        let lowerings = thread_lowerings();
        let t = Instant::now();
        let plan = cache
            .get_or_plan(backend, &shapes, &schedule)
            .unwrap_or_else(|e| panic!("plan failed: {e}"));
        let mut instance = plan
            .bind(&request_bindings(r))
            .unwrap_or_else(|e| panic!("bind failed: {e}"));
        cached_compile_s += t.elapsed().as_secs_f64();
        if r > 0 {
            lowerings_after_warmup += thread_lowerings() - lowerings;
        }
        instance.run().unwrap_or_else(|e| panic!("run failed: {e}"));
        cached_outputs.push(instance.read("A").unwrap());
    }
    let cached_wall_s = cached_start.elapsed().as_secs_f64();

    let verified = recompile_outputs
        .iter()
        .zip(cached_outputs.iter())
        .all(|(a, b)| {
            a.len() == b.len()
                && a.iter()
                    .zip(b.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        });

    let req = requests.max(1) as f64;
    ServingBenchRow {
        backend: backend.name().to_string(),
        requests,
        n,
        recompile_compile_s,
        recompile_amortized_s: recompile_compile_s / req,
        recompile_wall_s,
        recompile_rps: req / recompile_wall_s.max(f64::MIN_POSITIVE),
        cached_compile_s,
        cached_amortized_s: cached_compile_s / req,
        cached_wall_s,
        cached_rps: req / cached_wall_s.max(f64::MIN_POSITIVE),
        cache: cache.stats(),
        lowerings_after_warmup,
        verified,
    }
}

/// Runs the serving sweep on both executable backends.
pub fn serving_bench(requests: u64, n: i64) -> Vec<ServingBenchRow> {
    vec![
        serve_one(&RuntimeBackend::functional(), requests, n),
        serve_one(&SpmdBackend::new(), requests, n),
    ]
}

/// Distinct binding seeds cycled through the concurrent request stream —
/// small enough to precompute references, large enough that batching
/// can't trivially collapse the stream into one request.
const CONCURRENT_SEEDS: u64 = 4;

/// One concurrent closed-loop serving measurement: `clients` loops of
/// submit→wait against a [`ServingEngine`] running `workers` threads.
#[derive(Clone, Debug)]
pub struct ConcurrentServingRow {
    /// Backend name (`runtime` or `spmd`).
    pub backend: String,
    /// Engine worker threads.
    pub workers: usize,
    /// Closed-loop client threads (2× workers).
    pub clients: usize,
    /// Requests served in the measured phase.
    pub requests: u64,
    /// Matrix side length.
    pub n: i64,
    /// End-to-end wall clock of the measured phase (seconds).
    pub wall_s: f64,
    /// Requests/sec.
    pub rps: f64,
    /// Median request latency (µs).
    pub p50_us: f64,
    /// 99th-percentile request latency (µs).
    pub p99_us: f64,
    /// Batches the workers claimed (`requests / batches` ≥ 1 realized
    /// batching factor).
    pub batches: u64,
    /// Largest same-key batch served.
    pub peak_batch: u64,
    /// Bind-path lowering work after warm-up (must be 0).
    pub bind_lowerings: u64,
    /// Coherent cache counters at shutdown.
    pub cache: CacheStats,
    /// Whether every response matched the single-threaded reference
    /// bit-for-bit.
    pub verified: bool,
}

/// Bind-path work: everything a request is *not* allowed to redo once
/// its plan is cached (runtime lowering, schedule application, leaf
/// specialization, SPMD rank lowering).
fn bind_work() -> u64 {
    distal_core::lower::compile_count()
        + distal_core::schedule::apply_count()
        + distal_core::kernelgen::specialize_count()
        + distal_spmd::lower_count()
}

/// Serves a closed-loop stream of fresh-data requests through a
/// [`ServingEngine`] with `workers` threads, verifying every response
/// bit-for-bit against a single-threaded reference.
pub fn concurrent_serve_one<B>(
    backend: &B,
    workers: usize,
    requests: u64,
    n: i64,
) -> ConcurrentServingRow
where
    B: Backend + Send + Sync + Clone + 'static,
{
    let (shapes, schedule) = serving_shapes(n);
    let problem = Arc::new(shapes);

    // Single-threaded reference outputs, one per distinct seed.
    let plan: Arc<dyn distal_core::Plan> =
        Arc::from(backend.plan(&problem, &schedule).expect("reference plan"));
    let reference: Vec<Vec<f64>> = (0..CONCURRENT_SEEDS)
        .map(|seed| {
            let mut inst = plan.bind(&request_bindings(seed)).expect("reference bind");
            inst.run().expect("reference run");
            inst.read("A").expect("reference read")
        })
        .collect();

    let engine = ServingEngine::new(
        backend.clone(),
        ServeConfig {
            workers,
            bind_work_counter: Some(Arc::new(bind_work)),
            ..ServeConfig::default()
        },
    );
    let submit = |seed: u64| {
        engine.submit(ServeRequest {
            problem: Arc::clone(&problem),
            schedule: schedule.clone(),
            bindings: request_bindings(seed),
            read: vec!["A".to_string()],
        })
    };

    // Warm the cache so the measured phase is pure bind-and-execute.
    submit(0).wait().expect("warmup request");

    let clients = (workers.max(1) * 2).min(requests.max(1) as usize);
    let per_client = requests / clients as u64;
    let remainder = requests % clients as u64;
    let barrier = Barrier::new(clients + 1);
    let (mut latencies, verified, wall_s) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let submit = &submit;
                let reference = &reference;
                let barrier = &barrier;
                s.spawn(move || {
                    let mine = per_client + u64::from((c as u64) < remainder);
                    let mut lat = Vec::with_capacity(mine as usize);
                    let mut ok = true;
                    barrier.wait();
                    for r in 0..mine {
                        let seed = (c as u64 + r * clients as u64) % CONCURRENT_SEEDS;
                        let t = Instant::now();
                        let response = submit(seed).wait().expect("serve request");
                        lat.push(t.elapsed().as_secs_f64());
                        let want = &reference[seed as usize];
                        let got = &response.outputs["A"];
                        ok &= got.len() == want.len()
                            && got
                                .iter()
                                .zip(want.iter())
                                .all(|(x, y)| x.to_bits() == y.to_bits());
                    }
                    (lat, ok)
                })
            })
            .collect();
        // Release the clients and clock the whole closed-loop phase.
        barrier.wait();
        let start = Instant::now();
        let mut all_lat = Vec::with_capacity(requests as usize);
        let mut all_ok = true;
        for handle in handles {
            let (lat, ok) = handle.join().expect("client thread");
            all_lat.extend(lat);
            all_ok &= ok;
        }
        (all_lat, all_ok, start.elapsed().as_secs_f64())
    });

    let stats = engine.shutdown();
    latencies.sort_by(f64::total_cmp);
    let percentile = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() - 1) as f64 * p).round() as usize;
        latencies[idx] * 1e6
    };
    let served = latencies.len() as u64;
    ConcurrentServingRow {
        backend: backend.name().to_string(),
        workers: stats.workers,
        clients,
        requests: served,
        n,
        wall_s,
        rps: served as f64 / wall_s.max(f64::MIN_POSITIVE),
        p50_us: percentile(0.50),
        p99_us: percentile(0.99),
        batches: stats.batches,
        peak_batch: stats.peak_batch,
        bind_lowerings: stats.bind_lowerings,
        cache: stats.cache,
        verified,
    }
}

/// The concurrent sweep on both executable backends.
pub fn concurrent_serving_bench(
    workers: usize,
    requests: u64,
    n: i64,
) -> Vec<ConcurrentServingRow> {
    vec![
        concurrent_serve_one(&RuntimeBackend::functional(), workers, requests, n),
        concurrent_serve_one(&SpmdBackend::new(), workers, requests, n),
    ]
}

/// One cold-start stampede measurement against the [`ShardedPlanCache`]
/// directly: `threads` threads race `distinct_keys` schedules through a
/// cold cache; single-flight means misses == distinct keys and total
/// lowering work == one plan's worth per distinct key, however the race
/// interleaves.
#[derive(Clone, Debug)]
pub struct StampedeRow {
    /// Backend name.
    pub backend: String,
    /// Racing threads.
    pub threads: usize,
    /// Distinct `PlanKey`s in flight.
    pub distinct_keys: u64,
    /// Total lowering work observed across every thread.
    pub lowerings: u64,
    /// Lowering work single-flight allows: one uncached plan's worth
    /// (probed outside the race) per distinct key.
    pub expected_lowerings: u64,
    /// Coherent cache counters after the race.
    pub cache: CacheStats,
}

impl StampedeRow {
    /// The single-flight verdict: one miss and one plan's lowering work
    /// per distinct key, with coherent counters.
    pub fn single_flight_ok(&self) -> bool {
        self.cache.misses == self.distinct_keys
            && self.lowerings == self.expected_lowerings
            && self.cache.hits + self.cache.misses == self.cache.requests()
            && self.cache.requests() == self.threads as u64 * self.distinct_keys
    }
}

/// Races `threads` threads through a cold [`ShardedPlanCache`] over
/// `distinct_keys` schedules (each thread requests every key, rotated so
/// the arrival order differs per thread).
pub fn stampede_one(
    backend: &(dyn Backend + Sync),
    threads: usize,
    distinct_keys: u64,
    n: i64,
) -> StampedeRow {
    let (shapes, _) = serving_shapes(n);
    let schedules: Vec<Schedule> = (0..distinct_keys)
        .map(|k| Schedule::summa(2, 2, k as i64 + 1))
        .collect();
    // Calibrate one plan's lowering cost on a key outside the raced set.
    let probe = Schedule::summa(2, 2, distinct_keys as i64 + 1);
    let before = thread_lowerings();
    backend.plan(&shapes, &probe).expect("probe plan");
    let per_plan = thread_lowerings() - before;
    // Capacity D*shards guarantees no shard evicts even if every key
    // hashes to the same shard — evictions would re-miss and break the
    // misses == distinct-keys accounting this row exists to check.
    let cache = ShardedPlanCache::new(distinct_keys.max(1) as usize * 8, 8);
    let barrier = Barrier::new(threads);
    let lowerings: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let cache = &cache;
                let shapes = &shapes;
                let schedules = &schedules;
                let barrier = &barrier;
                s.spawn(move || {
                    let before = thread_lowerings();
                    barrier.wait();
                    for k in 0..schedules.len() {
                        let schedule = &schedules[(k + t) % schedules.len()];
                        cache
                            .get_or_plan(backend, shapes, schedule)
                            .expect("stampede plan");
                    }
                    thread_lowerings() - before
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("racer")).sum()
    });
    StampedeRow {
        backend: backend.name().to_string(),
        threads,
        distinct_keys,
        lowerings,
        expected_lowerings: per_plan * distinct_keys,
        cache: cache.stats(),
    }
}

/// The stampede probe on both executable backends.
pub fn stampede_bench(threads: usize, distinct_keys: u64, n: i64) -> Vec<StampedeRow> {
    vec![
        stampede_one(&RuntimeBackend::functional(), threads, distinct_keys, n),
        stampede_one(&SpmdBackend::new(), threads, distinct_keys, n),
    ]
}

/// Renders the concurrent sweep as an aligned table.
pub fn render_concurrent(rows: &[ConcurrentServingRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>7} {:>7} {:>5} {:>10} {:>10} {:>10} {:>7} {:>5} {:>8} {:>6}",
        "backend",
        "workers",
        "clients",
        "reqs",
        "req/s",
        "p50",
        "p99",
        "batches",
        "peak",
        "hit rate",
        "ok"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<8} {:>7} {:>7} {:>5} {:>10.1} {:>8.1}us {:>8.1}us {:>7} {:>5} {:>7.0}% {:>6}",
            r.backend,
            r.workers,
            r.clients,
            r.requests,
            r.rps,
            r.p50_us,
            r.p99_us,
            r.batches,
            r.peak_batch,
            r.cache.hit_rate() * 100.0,
            if r.verified { "yes" } else { "NO" }
        );
    }
    out
}

/// Renders the stampede probe as an aligned table.
pub fn render_stampede(rows: &[StampedeRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>7} {:>5} {:>9} {:>9} {:>7} {:>7} {:>13}",
        "backend", "threads", "keys", "lowerings", "expected", "misses", "hits", "single-flight"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<8} {:>7} {:>5} {:>9} {:>9} {:>7} {:>7} {:>13}",
            r.backend,
            r.threads,
            r.distinct_keys,
            r.lowerings,
            r.expected_lowerings,
            r.cache.misses,
            r.cache.hits,
            if r.single_flight_ok() { "ok" } else { "BROKEN" }
        );
    }
    out
}

/// Renders the sweep as an aligned table.
pub fn render(rows: &[ServingBenchRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>5} {:>5} {:>14} {:>14} {:>9} {:>10} {:>10} {:>9} {:>6}",
        "backend",
        "reqs",
        "n",
        "recomp amort",
        "cached amort",
        "speedup",
        "recomp r/s",
        "cached r/s",
        "hit rate",
        "ok"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<8} {:>5} {:>5} {:>12.1}us {:>12.1}us {:>8.1}x {:>10.1} {:>10.1} {:>8.0}% {:>6}",
            r.backend,
            r.requests,
            r.n,
            r.recompile_amortized_s * 1e6,
            r.cached_amortized_s * 1e6,
            r.compile_speedup(),
            r.recompile_rps,
            r.cached_rps,
            r.cache.hit_rate() * 100.0,
            if r.verified { "yes" } else { "NO" }
        );
    }
    out
}

/// Serializes the sweep to the `BENCH_serving.json` schema: the
/// single-threaded `rows`, the engine's `concurrent` rows, and the
/// cold-cache `stampede` rows.
pub fn to_json(
    rows: &[ServingBenchRow],
    concurrent: &[ConcurrentServingRow],
    stampede: &[StampedeRow],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"backend\": \"{}\", \"requests\": {}, \"n\": {}, \
             \"recompile_compile_s\": {:.9}, \"recompile_amortized_s\": {:.9}, \
             \"recompile_wall_s\": {:.9}, \"recompile_rps\": {:.3}, \
             \"cached_compile_s\": {:.9}, \"cached_amortized_s\": {:.9}, \
             \"cached_wall_s\": {:.9}, \"cached_rps\": {:.3}, \
             \"compile_speedup\": {:.3}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \"cache_evictions\": {}, \
             \"lowerings_after_warmup\": {}, \"verified\": {}}}{comma}",
            r.backend,
            r.requests,
            r.n,
            r.recompile_compile_s,
            r.recompile_amortized_s,
            r.recompile_wall_s,
            r.recompile_rps,
            r.cached_compile_s,
            r.cached_amortized_s,
            r.cached_wall_s,
            r.cached_rps,
            r.compile_speedup(),
            r.cache.hits,
            r.cache.misses,
            r.cache.evictions,
            r.lowerings_after_warmup,
            r.verified
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"concurrent\": [");
    for (i, r) in concurrent.iter().enumerate() {
        let comma = if i + 1 < concurrent.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"backend\": \"{}\", \"workers\": {}, \"clients\": {}, \
             \"requests\": {}, \"n\": {}, \"wall_s\": {:.9}, \"rps\": {:.3}, \
             \"p50_us\": {:.3}, \"p99_us\": {:.3}, \"batches\": {}, \
             \"peak_batch\": {}, \"bind_lowerings\": {}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \"cache_evictions\": {}, \
             \"cache_requests\": {}, \"verified\": {}}}{comma}",
            r.backend,
            r.workers,
            r.clients,
            r.requests,
            r.n,
            r.wall_s,
            r.rps,
            r.p50_us,
            r.p99_us,
            r.batches,
            r.peak_batch,
            r.bind_lowerings,
            r.cache.hits,
            r.cache.misses,
            r.cache.evictions,
            r.cache.requests(),
            r.verified
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"stampede\": [");
    for (i, r) in stampede.iter().enumerate() {
        let comma = if i + 1 < stampede.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"backend\": \"{}\", \"threads\": {}, \"distinct_keys\": {}, \
             \"lowerings\": {}, \"expected_lowerings\": {}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \"cache_requests\": {}, \
             \"single_flight_ok\": {}}}{comma}",
            r.backend,
            r.threads,
            r.distinct_keys,
            r.lowerings,
            r.expected_lowerings,
            r.cache.hits,
            r.cache.misses,
            r.cache.requests(),
            r.single_flight_ok()
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_rows_verify_and_cache_hits() {
        let rows = serving_bench(4, 16);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.verified, "{}: outputs diverged", r.backend);
            assert_eq!(r.cache.misses, 1, "{}", r.backend);
            assert_eq!(r.cache.hits, 3, "{}", r.backend);
            assert_eq!(r.cache.requests(), 4, "{}", r.backend);
            assert_eq!(r.lowerings_after_warmup, 0, "{}", r.backend);
            assert!(r.recompile_compile_s > 0.0);
            assert!(r.cached_compile_s > 0.0);
        }
        let json = to_json(&rows, &[], &[]);
        assert!(json.contains("\"backend\": \"runtime\""));
        assert!(json.contains("\"backend\": \"spmd\""));
        assert!(render(&rows).contains("spmd"));
    }

    #[test]
    fn concurrent_rows_verify_and_never_relower() {
        let rows = concurrent_serving_bench(2, 8, 16);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.verified, "{}: outputs diverged", r.backend);
            assert_eq!(r.requests, 8, "{}", r.backend);
            assert_eq!(r.bind_lowerings, 0, "{}", r.backend);
            assert_eq!(r.cache.misses, 1, "{}", r.backend);
            assert_eq!(
                r.cache.hits + r.cache.misses,
                r.cache.requests(),
                "{}: incoherent cache snapshot",
                r.backend
            );
            assert!(r.batches >= 1, "{}", r.backend);
            assert!(r.rps > 0.0, "{}", r.backend);
        }
        let json = to_json(&[], &rows, &[]);
        assert!(json.contains("\"p99_us\""));
        assert!(render_concurrent(&rows).contains("spmd"));
    }

    #[test]
    fn stampede_rows_pass_the_single_flight_gate() {
        let rows = stampede_bench(8, 3, 16);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(
                r.single_flight_ok(),
                "{}: single-flight broke: {} lowerings (expected {}), cache {}",
                r.backend,
                r.lowerings,
                r.expected_lowerings,
                r.cache
            );
        }
        let json = to_json(&[], &[], &rows);
        assert!(json.contains("\"single_flight_ok\": true"));
        assert!(render_stampede(&rows).contains("ok"));
    }
}
