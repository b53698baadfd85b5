//! Serving: compile once, execute many.
//!
//! DISTAL's lowering is data-independent — a (statement, formats,
//! machine, schedule) bundle compiles to the same distributed program no
//! matter what values the tensors hold. A serving deployment exploits
//! that split:
//!
//! ```text
//!   Backend::plan(&Problem, &Schedule)  ->  Plan      (lowered once)
//!   Plan::bind(&Bindings)               ->  Instance  (per request, cheap)
//!   ShardedPlanCache::get_or_plan(...)  ->  Arc<Plan> (keyed reuse)
//!   ServingEngine::submit(request)      ->  Ticket    (concurrent front)
//! ```
//!
//! This example serves a stream of matmul "requests" (fresh random
//! operands over fixed shapes) four ways — recompiling per request,
//! binding one held plan, going through a keyed `ShardedPlanCache`, and
//! submitting to a multi-worker `ServingEngine` — and verifies all four
//! produce bit-identical answers while the plan paths do zero
//! re-lowering. `distal::core::lowering_count()` is the witness: it counts
//! every lowering started on the calling thread, on every backend.
//!
//! Run with `cargo run --release --example serving`.

use distal::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Shapes/machine/schedule are fixed across the request stream: this
    // is the part a PlanKey hashes.
    let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
    let mut problem = Problem::new(MachineSpec::small(2), machine);
    problem.statement("A(i,j) = B(i,k) * C(k,j)")?;
    let n = 32;
    let tiles = Format::parse("xy->xy", MemKind::Sys)?;
    for name in ["A", "B", "C"] {
        problem.tensor(TensorSpec::new(name, vec![n, n], tiles.clone()))?;
    }
    let schedule = Schedule::summa(2, 2, 8);
    let backend = RuntimeBackend::functional();
    let requests = 8u64;

    // --- Path 1: hold one plan, bind per request. -----------------------
    let plan = backend.plan(&problem, &schedule)?;
    let lowerings_before = distal::core::lowering_count();
    let mut held_outputs = Vec::new();
    for r in 0..requests {
        let mut bindings = Bindings::new();
        bindings
            .fill_random("B", 2 * r + 1)
            .fill_random("C", 2 * r + 2);
        let mut instance = plan.bind(&bindings)?;
        instance.run()?;
        held_outputs.push(instance.read("A")?);
    }
    assert_eq!(
        distal::core::lowering_count(),
        lowerings_before,
        "binding must never re-lower"
    );
    println!("held plan     : served {requests} requests with zero re-lowerings");

    // --- Path 2: a keyed cache, as a multi-workload server would use. ---
    let cache = ShardedPlanCache::new(16, 1);
    let lowerings_before = distal::core::lowering_count();
    let mut cached_outputs = Vec::new();
    for r in 0..requests {
        // Every request re-derives its key from the problem — the cache
        // recognizes the repeat and plans only once.
        let cached_plan = cache.get_or_plan(&backend, &problem, &schedule)?;
        let mut bindings = Bindings::new();
        bindings
            .fill_random("B", 2 * r + 1)
            .fill_random("C", 2 * r + 2);
        let mut instance = cached_plan.bind(&bindings)?;
        let mut report = instance.run()?;
        cache.annotate(&mut report);
        cached_outputs.push(instance.read("A")?);
    }
    let stats = cache.stats();
    println!("plan cache    : {stats}");
    assert_eq!(stats.misses, 1, "one compile serves the whole stream");
    assert_eq!(stats.hits, requests - 1);
    assert_eq!(distal::core::lowering_count(), lowerings_before + 1);

    // --- Path 3: the one-shot shim, for reference. ----------------------
    for (r, cached) in cached_outputs.iter().enumerate() {
        let mut fresh = problem.clone();
        fresh
            .fill_random("B", 2 * r as u64 + 1)?
            .fill_random("C", 2 * r as u64 + 2)?;
        let mut artifact = backend.compile(&fresh, &schedule)?;
        artifact.run()?;
        let want = artifact.read("A")?;
        assert_eq!(&held_outputs[r], cached);
        assert_eq!(
            cached, &want,
            "request {r}: plan paths must match recompile"
        );
    }
    println!("recompile path: bit-identical to both plan paths across {requests} requests");

    // --- Path 4: the concurrent serving engine. -------------------------
    // Workers take one request at a time from a bounded channel and
    // resolve its plan through a single-flight cache; each request binds
    // its own data against the one shared plan.
    let problem = std::sync::Arc::new(problem);
    let engine = ServingEngine::new(backend, ServeConfig::default());
    let tickets: Vec<_> = (0..requests)
        .map(|r| {
            let mut bindings = Bindings::new();
            bindings
                .fill_random("B", 2 * r + 1)
                .fill_random("C", 2 * r + 2);
            engine.submit(ServeRequest {
                problem: std::sync::Arc::clone(&problem),
                schedule: schedule.clone(),
                bindings,
                read: vec!["A".to_string()],
            })
        })
        .collect();
    for (r, ticket) in tickets.into_iter().enumerate() {
        let response = ticket.wait()?;
        assert_eq!(
            &response.outputs["A"], &held_outputs[r],
            "request {r}: engine must match the held-plan path bit-for-bit"
        );
    }
    let stats = engine.shutdown();
    assert_eq!(stats.cache.misses, 1, "one key -> one compile, engine-wide");
    assert_eq!(
        stats.bind_lowerings, 0,
        "the engine's bind path never lowers"
    );
    println!(
        "serving engine: {} workers served {} requests ({})",
        stats.workers, stats.completed, stats.cache
    );
    Ok(())
}
