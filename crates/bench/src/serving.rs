//! Serving-engine scaling measurement: a closed loop of client threads
//! submitting fresh-data matmul requests over fixed shapes to a
//! [`ServingEngine`] on the runtime backend, every response verified
//! bit-for-bit against a single-threaded reference.
//!
//! The one number kept is requests per second, because the one gate
//! (`--assert-scaling`) is a ratio of two of them: multi-worker req/s must
//! reach 1.5× the single-worker run (skipped on single-core hosts).
//! Latency percentiles, batch sizes and cache counters of a served stream
//! are the pipeline benchmark's `serve.engine.*` / `core.cache.*` metrics;
//! the plan cache's hit, zero-lowering and single-flight properties are
//! cases of `tests/plan_reuse.rs`.

use distal_core::{Bindings, DistalMachine, Plan, Problem, RuntimeBackend, Schedule, TensorSpec};
use distal_format::Format;
use distal_machine::grid::Grid;
use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
use distal_serve::{ServeConfig, ServeRequest, ServingEngine};
use std::fmt::Write as _;
use std::sync::{Arc, Barrier};
use std::time::Instant;

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

/// Distinct binding seeds cycled through the request stream — small
/// enough to precompute references, large enough that batching can't
/// trivially collapse the stream into one request.
const SEEDS: u64 = 4;

/// One closed-loop serving measurement: `clients` loops of submit→wait
/// against a [`ServingEngine`] running `workers` threads.
#[derive(Clone, Debug)]
pub struct ServingRow {
    /// Engine worker threads.
    pub workers: usize,
    /// Closed-loop client threads (2× workers).
    pub clients: usize,
    /// Requests served in the measured phase.
    pub requests: u64,
    /// Requests/sec.
    pub rps: f64,
    /// Bind-path lowering work after warm-up (must be 0).
    pub bind_lowerings: u64,
    /// Whether every response matched the single-threaded reference
    /// bit-for-bit.
    pub verified: bool,
}

/// Bind-path work: everything a request is *not* allowed to redo once
/// its plan is cached (runtime lowering, schedule application, leaf
/// specialization).
fn bind_work() -> u64 {
    distal_core::lower::compile_count()
        + distal_core::schedule::apply_count()
        + distal_core::kernelgen::specialize_count()
}

/// Serves a closed-loop stream of `requests` fresh-data requests of side
/// `n` through a runtime-backend [`ServingEngine`] with `workers` threads
/// (`0` = one per host core).
pub fn serve(workers: usize, requests: u64, n: i64) -> ServingRow {
    let backend = RuntimeBackend::functional();
    let (shapes, schedule) = serving_shapes(n);
    let problem = Arc::new(shapes);

    // Single-threaded reference outputs, one per distinct seed.
    let plan = backend
        .plan_typed(&problem, &schedule)
        .expect("reference plan");
    let reference: Vec<Vec<f64>> = (0..SEEDS)
        .map(|seed| {
            let mut inst = plan.bind(&request_bindings(seed)).expect("reference bind");
            inst.run().expect("reference run");
            inst.read("A").expect("reference read")
        })
        .collect();

    let engine = ServingEngine::new(
        backend,
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
    let (verified, wall_s) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (submit, reference, barrier) = (&submit, &reference, &barrier);
                s.spawn(move || {
                    let mine = per_client + u64::from((c as u64) < remainder);
                    barrier.wait();
                    (0..mine).all(|r| {
                        let seed = (c as u64 + r * clients as u64) % SEEDS;
                        let response = submit(seed).wait().expect("serve request");
                        let (got, want) = (&response.outputs["A"], &reference[seed as usize]);
                        got.len() == want.len()
                            && got
                                .iter()
                                .zip(want)
                                .all(|(x, y)| x.to_bits() == y.to_bits())
                    })
                })
            })
            .collect();
        // Release the clients and clock the whole closed-loop phase.
        barrier.wait();
        let start = Instant::now();
        let oks: Vec<bool> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (oks.iter().all(|&ok| ok), start.elapsed().as_secs_f64())
    });

    let stats = engine.shutdown();
    ServingRow {
        workers: stats.workers,
        clients,
        requests,
        rps: requests as f64 / wall_s.max(f64::MIN_POSITIVE),
        bind_lowerings: stats.bind_lowerings,
        verified,
    }
}

/// Renders the measurements as an aligned table.
pub fn render(rows: &[ServingRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>7} {:>7} {:>5} {:>10} {:>6}",
        "workers", "clients", "reqs", "req/s", "ok"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>7} {:>7} {:>5} {:>10.1} {:>6}",
            r.workers,
            r.clients,
            r.requests,
            r.rps,
            if r.verified { "yes" } else { "NO" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_stream_verifies_and_never_relowers() {
        let row = serve(2, 8, 16);
        assert!(row.verified, "outputs diverged");
        assert_eq!((row.workers, row.requests), (2, 8));
        assert_eq!(row.bind_lowerings, 0);
        assert!(row.rps > 0.0);
        assert!(render(&[row]).contains("yes"));
    }
}
