//! Engine-level gates: single-flight under stampede, served-vs-reference
//! bit-parity on dense SUMMA + sparse SpMV across both executable
//! backends, same-key requests spreading over free workers, one LRU by
//! default, bounded eviction under concurrent inserts, backpressure,
//! drain-on-shutdown, and a panicking plan as a typed error.

use distal_core::{
    Backend, BackendError, Bindings, DistalMachine, Instance, Plan, Problem, Provenance, Report,
    RuntimeBackend, Schedule, TensorSpec,
};
use distal_format::Format;
use distal_machine::grid::Grid;
use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
use distal_serve::{ServeConfig, ServeRequest, ServingEngine, Ticket};
use distal_spmd::SpmdBackend;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::Duration;

/// Dense SUMMA matmul on a 2×2 grid.
fn summa_problem(n: i64) -> (Arc<Problem>, Schedule) {
    let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
    let mut p = Problem::new(MachineSpec::small(2), machine);
    p.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
    let f = Format::parse("xy->xy", MemKind::Sys).unwrap();
    for t in ["A", "B", "C"] {
        p.tensor(TensorSpec::new(t, vec![n, n], f.clone())).unwrap();
    }
    (Arc::new(p), Schedule::summa(2, 2, (n / 2).max(1)))
}

fn summa_bindings(seed: u64) -> Bindings {
    let mut b = Bindings::new();
    b.fill_random("B", 2 * seed + 1)
        .fill_random("C", 2 * seed + 2);
    b
}

/// Sparse SpMV (`a(i) = B(i,j) * c(j)`, B CSR-compressed) on a 2-rank
/// line, row-distributed.
fn spmv_problem(n: i64) -> (Arc<Problem>, Schedule) {
    let machine = DistalMachine::flat(Grid::line(2), ProcKind::Cpu);
    let mut p = Problem::new(MachineSpec::small(2), machine);
    p.statement("a(i) = B(i,j) * c(j)").unwrap();
    p.tensor(TensorSpec::new(
        "a",
        vec![n],
        Format::parse("x->x", MemKind::Sys).unwrap(),
    ))
    .unwrap();
    p.tensor(TensorSpec::new(
        "B",
        vec![n, n],
        Format::parse_levels("xy->x", "ds", MemKind::Sys).unwrap(),
    ))
    .unwrap();
    p.tensor(TensorSpec::new(
        "c",
        vec![n],
        Format::undistributed_in(MemKind::Global),
    ))
    .unwrap();
    let schedule = Schedule::new()
        .divide("i", "io", "ii", 2)
        .reorder(&["io", "ii"])
        .distribute(&["io"]);
    (Arc::new(p), schedule)
}

fn spmv_bindings(seed: u64) -> Bindings {
    let mut b = Bindings::new();
    b.fill_random_sparse("B", seed + 0xB, 0.3)
        .fill_random("c", seed + 0xC);
    b
}

/// Single-threaded reference: plan directly, bind, run, read.
fn reference_outputs(
    backend: &dyn Backend,
    problem: &Problem,
    schedule: &Schedule,
    bindings: &[Bindings],
    output: &str,
) -> Vec<Vec<f64>> {
    let plan: Arc<dyn distal_core::Plan> = Arc::from(backend.plan(problem, schedule).unwrap());
    bindings
        .iter()
        .map(|b| {
            let mut inst = plan.bind(b).unwrap();
            inst.run().unwrap();
            inst.read(output).unwrap()
        })
        .collect()
}

#[test]
fn stampede_cold_engine_plans_one_key_once() {
    const CLIENTS: usize = 16;
    let (problem, schedule) = summa_problem(8);
    let engine = ServingEngine::new(
        RuntimeBackend::functional(),
        ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        },
    );
    let expected = reference_outputs(
        &RuntimeBackend::functional(),
        &problem,
        &schedule,
        &[summa_bindings(0)],
        "A",
    );
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            let engine = &engine;
            let problem = &problem;
            let schedule = &schedule;
            let barrier = &barrier;
            let expected = &expected;
            s.spawn(move || {
                barrier.wait();
                let response = engine
                    .submit(ServeRequest {
                        problem: Arc::clone(problem),
                        schedule: schedule.clone(),
                        bindings: summa_bindings(0),
                        read: vec!["A".to_string()],
                    })
                    .wait()
                    .unwrap();
                assert_eq!(response.outputs["A"], expected[0]);
            });
        }
    });
    let stats = engine.shutdown();
    assert_eq!(stats.submitted, CLIENTS as u64);
    assert_eq!(stats.completed, CLIENTS as u64);
    assert_eq!(stats.failed, 0);
    assert_eq!(
        stats.cache.misses, 1,
        "cold stampede on one key must plan exactly once: {stats:?}"
    );
    assert_eq!(
        stats.cache.hits + stats.cache.misses,
        stats.cache.requests()
    );
    assert_eq!(
        stats.bind_lowerings, 0,
        "the bind path must never lower: {stats:?}"
    );
    assert!(stats.batches >= 1 && stats.peak_batch >= 1);
}

/// One backend+problem combination, served by two workers and checked
/// bit-for-bit against the single-threaded reference.
fn parity_case(
    backend: impl Backend + Send + Sync + 'static,
    problem: Arc<Problem>,
    schedule: Schedule,
    bindings: Vec<Bindings>,
    output: &str,
) {
    let expected = reference_outputs(&backend, &problem, &schedule, &bindings, output);
    let engine = ServingEngine::new(
        backend,
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let tickets: Vec<Ticket> = bindings
        .iter()
        .map(|b| {
            engine.submit(ServeRequest {
                problem: Arc::clone(&problem),
                schedule: schedule.clone(),
                bindings: b.clone(),
                read: vec![output.to_string()],
            })
        })
        .collect();
    for (ticket, want) in tickets.into_iter().zip(&expected) {
        let got = ticket.wait().unwrap();
        assert_eq!(
            &got.outputs[output], want,
            "serving outputs must be bit-identical to the reference"
        );
        let report = got.report.cache.expect("report carries cache stats");
        assert_eq!(report.hits + report.misses, report.requests());
    }
    let stats = engine.shutdown();
    assert_eq!(stats.cache.misses, 1);
    assert_eq!(stats.bind_lowerings, 0);
    assert_eq!((stats.batches, stats.peak_batch), (6, 1));
}

#[test]
fn served_matches_reference_summa_runtime() {
    let (problem, schedule) = summa_problem(8);
    let bindings: Vec<Bindings> = (0..6).map(summa_bindings).collect();
    parity_case(
        RuntimeBackend::functional(),
        problem,
        schedule,
        bindings,
        "A",
    );
}

#[test]
fn served_matches_reference_summa_spmd() {
    let (problem, schedule) = summa_problem(8);
    let bindings: Vec<Bindings> = (0..6).map(summa_bindings).collect();
    parity_case(SpmdBackend::new(), problem, schedule, bindings, "A");
}

#[test]
fn served_matches_reference_spmv_runtime() {
    let (problem, schedule) = spmv_problem(16);
    let bindings: Vec<Bindings> = (0..6).map(spmv_bindings).collect();
    parity_case(
        RuntimeBackend::functional(),
        problem,
        schedule,
        bindings,
        "a",
    );
}

#[test]
fn served_matches_reference_spmv_spmd() {
    let (problem, schedule) = spmv_problem(16);
    let bindings: Vec<Bindings> = (0..6).map(spmv_bindings).collect();
    parity_case(SpmdBackend::new(), problem, schedule, bindings, "a");
}

#[test]
fn eviction_stays_bounded_under_concurrent_distinct_keys() {
    let (problem, _) = summa_problem(16);
    let engine = ServingEngine::new(
        RuntimeBackend::model(),
        ServeConfig {
            workers: 4,
            cache_capacity: 4,
            cache_shards: 2,
            ..ServeConfig::default()
        },
    );
    // 12 distinct keys (chunk sizes), four interleaved rounds each, all
    // racing through a cache that holds only 4 plans.
    let tickets: Vec<Ticket> = (0..48)
        .map(|i| {
            let mut bindings = Bindings::new();
            bindings.fill("B", 1.0).fill("C", 2.0);
            engine.submit(ServeRequest {
                problem: Arc::clone(&problem),
                schedule: Schedule::summa(2, 2, (i % 12) + 1),
                bindings,
                read: Vec::new(),
            })
        })
        .collect();
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    let stats = engine.shutdown();
    assert_eq!(stats.completed, 48);
    assert!(
        stats.cache.len <= stats.cache.capacity,
        "eviction must keep the cache bounded: {stats:?}"
    );
    assert_eq!(
        stats.cache.hits + stats.cache.misses,
        stats.cache.requests()
    );
    // Every planned key is still cached or was evicted — none leaked.
    assert_eq!(
        stats.cache.misses,
        stats.cache.evictions + stats.cache.len as u64
    );
}

#[test]
fn backpressure_bounds_the_queue_and_loses_nothing() {
    let (problem, schedule) = summa_problem(8);
    let engine = ServingEngine::new(
        RuntimeBackend::functional(),
        ServeConfig {
            workers: 1,
            queue_capacity: 2,
            ..ServeConfig::default()
        },
    );
    std::thread::scope(|s| {
        for client in 0..3 {
            let engine = &engine;
            let problem = &problem;
            let schedule = &schedule;
            s.spawn(move || {
                for r in 0..4 {
                    let response = engine
                        .submit(ServeRequest {
                            problem: Arc::clone(problem),
                            schedule: schedule.clone(),
                            bindings: summa_bindings(client * 4 + r),
                            read: vec!["A".to_string()],
                        })
                        .wait()
                        .unwrap();
                    assert_eq!(response.outputs["A"].len(), 64);
                }
            });
        }
    });
    let stats = engine.shutdown();
    assert_eq!(
        (stats.submitted, stats.completed, stats.failed),
        (12, 12, 0)
    );
    assert_eq!(stats.cache.misses, 1);
}

#[test]
fn failed_plans_fail_every_waiter_and_poison_nothing() {
    // No statement → planning fails; every stampeding client gets the
    // error, nothing is cached, and the engine keeps serving afterwards.
    let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
    let broken = Arc::new(Problem::new(MachineSpec::small(2), machine));
    let engine = ServingEngine::new(RuntimeBackend::functional(), ServeConfig::default());
    let tickets: Vec<Ticket> = (0..4)
        .map(|_| {
            engine.submit(ServeRequest {
                problem: Arc::clone(&broken),
                schedule: Schedule::summa(2, 2, 4),
                bindings: Bindings::new(),
                read: Vec::new(),
            })
        })
        .collect();
    for ticket in tickets {
        assert!(matches!(
            ticket.wait(),
            Err(BackendError::Compile(_) | BackendError::Backend(_))
        ));
    }
    let (problem, schedule) = summa_problem(8);
    let response = engine
        .submit(ServeRequest {
            problem,
            schedule,
            bindings: summa_bindings(1),
            read: vec!["A".to_string()],
        })
        .wait()
        .unwrap();
    assert_eq!(response.outputs["A"].len(), 64);
    let stats = engine.shutdown();
    assert_eq!(stats.failed, 4);
    assert_eq!((stats.cache.hits, stats.cache.misses), (0, 1));
}

/// The functional runtime backend, except that its first `plan` panics.
/// `Debug` prints the inner backend only, so spending the fuse does not
/// change the requests' `PlanKey`.
struct PanicsOnce {
    inner: RuntimeBackend,
    armed: AtomicBool,
}

impl fmt::Debug for PanicsOnce {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl Backend for PanicsOnce {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn plan(&self, problem: &Problem, schedule: &Schedule) -> Result<Box<dyn Plan>, BackendError> {
        if self.armed.swap(false, Ordering::SeqCst) {
            panic!("the plan leader exploded");
        }
        self.inner.plan(problem, schedule)
    }
}

#[test]
fn a_panicking_plan_is_a_typed_error_and_the_key_plans_again() {
    // The request whose planning panics fails with a typed error instead
    // of hanging its ticket; the next request for the same key plans it
    // afresh and is served.
    let (problem, schedule) = summa_problem(8);
    let engine = ServingEngine::new(
        PanicsOnce {
            inner: RuntimeBackend::functional(),
            armed: AtomicBool::new(true),
        },
        ServeConfig::default(),
    );
    let request = |seed| ServeRequest {
        problem: Arc::clone(&problem),
        schedule: schedule.clone(),
        bindings: summa_bindings(seed),
        read: vec!["A".to_string()],
    };
    assert!(matches!(
        engine.submit(request(0)).wait(),
        Err(BackendError::Backend(_))
    ));
    let response = engine.submit(request(1)).wait().unwrap();
    let expected = reference_outputs(
        &RuntimeBackend::functional(),
        &problem,
        &schedule,
        &[summa_bindings(1)],
        "A",
    );
    assert_eq!(response.outputs["A"], expected[0]);
    let stats = engine.shutdown();
    assert_eq!((stats.completed, stats.failed), (1, 1));
    assert_eq!((stats.cache.hits, stats.cache.misses), (0, 1), "{stats:?}");
}

#[test]
fn shutdown_drains_queued_requests() {
    let (problem, schedule) = summa_problem(8);
    let engine = ServingEngine::new(
        RuntimeBackend::functional(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let tickets: Vec<Ticket> = (0..6)
        .map(|r| {
            engine.submit(ServeRequest {
                problem: Arc::clone(&problem),
                schedule: schedule.clone(),
                bindings: summa_bindings(r),
                read: vec!["A".to_string()],
            })
        })
        .collect();
    let stats = engine.shutdown();
    assert_eq!(stats.completed + stats.failed, 6, "no request may hang");
    for ticket in tickets {
        // Already-queued work is served before the workers exit.
        assert_eq!(ticket.wait().unwrap().outputs["A"].len(), 64);
    }
}

/// A backend whose plans run nothing but hold their `execute` at one of
/// two meeting points: requests of `A(i) = G(i)` wait for `open_gate`,
/// and requests of `A(i) = R(i)` wait, at most `RENDEZVOUS`, for a second
/// `R` request to arrive.
#[derive(Clone, Debug, Default)]
struct Meeting {
    state: Arc<(Mutex<MeetingState>, Condvar)>,
}

#[derive(Debug, Default)]
struct MeetingState {
    gated: usize,
    open: bool,
    arrived: usize,
}

const RENDEZVOUS: Duration = Duration::from_secs(3);

impl Meeting {
    fn problem(input: &str) -> Arc<Problem> {
        let machine = DistalMachine::flat(Grid::line(1), ProcKind::Cpu);
        let mut problem = Problem::new(MachineSpec::small(1), machine);
        problem.statement(&format!("A(i) = {input}(i)")).unwrap();
        Arc::new(problem)
    }

    fn request(input: &str) -> ServeRequest {
        ServeRequest {
            problem: Meeting::problem(input),
            schedule: Schedule::new(),
            bindings: Bindings::new(),
            read: Vec::new(),
        }
    }

    /// Waits until `count` requests are held at the gate.
    fn await_gated(&self, count: usize) {
        let (lock, cvar) = &*self.state;
        let guard = lock.lock().unwrap();
        let (guard, timeout) = cvar
            .wait_timeout_while(guard, Duration::from_secs(10), |s| s.gated < count)
            .unwrap();
        assert!(!timeout.timed_out(), "{} of {count} gated", guard.gated);
    }

    fn open_gate(&self) {
        let (lock, cvar) = &*self.state;
        lock.lock().unwrap().open = true;
        cvar.notify_all();
    }

    fn meet(&self, gated: bool) -> Result<Report, BackendError> {
        let (lock, cvar) = &*self.state;
        let mut guard = lock.lock().unwrap();
        let (wait, parties): (Duration, fn(&MeetingState) -> bool) = if gated {
            guard.gated += 1;
            (Duration::from_secs(10), |s| !s.open)
        } else {
            guard.arrived += 1;
            (RENDEZVOUS, |s| s.arrived < 2)
        };
        cvar.notify_all();
        let (_guard, timeout) = cvar
            .wait_timeout_while(guard, wait, |s| parties(s))
            .unwrap();
        if timeout.timed_out() {
            return Err(BackendError::Backend(format!(
                "nobody came within {wait:?} (gated: {gated})"
            )));
        }
        Ok(Report::empty("meeting", Provenance::Measured))
    }
}

struct MeetingPlan {
    meeting: Meeting,
    gated: bool,
    tensors: BTreeMap<String, TensorSpec>,
}

struct MeetingInstance {
    meeting: Meeting,
    gated: bool,
}

impl Backend for Meeting {
    fn name(&self) -> &str {
        "meeting"
    }

    fn plan(&self, problem: &Problem, _: &Schedule) -> Result<Box<dyn Plan>, BackendError> {
        let statement = problem.assignment().expect("a statement").to_string();
        Ok(Box::new(MeetingPlan {
            meeting: self.clone(),
            gated: statement.contains('G'),
            tensors: BTreeMap::new(),
        }))
    }
}

impl Plan for MeetingPlan {
    fn tensors(&self) -> &BTreeMap<String, TensorSpec> {
        &self.tensors
    }

    fn bind(&self, _: &Bindings) -> Result<Box<dyn Instance>, BackendError> {
        Ok(Box::new(MeetingInstance {
            meeting: self.meeting.clone(),
            gated: self.gated,
        }))
    }
}

impl Instance for MeetingInstance {
    fn place(&mut self) -> Result<Report, BackendError> {
        Ok(Report::empty("meeting", Provenance::Measured))
    }

    fn execute(&mut self) -> Result<Report, BackendError> {
        self.meeting.meet(self.gated)
    }

    fn read(&self, tensor: &str) -> Result<Vec<f64>, BackendError> {
        Err(BackendError::UnknownTensor(tensor.to_string()))
    }
}

#[test]
fn same_key_requests_never_wait_behind_each_other_while_a_worker_is_free() {
    let meeting = Meeting::default();
    let engine = ServingEngine::new(
        meeting.clone(),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    // Both workers busy on the gated key, one request each.
    let gated: Vec<Ticket> = (1..=2)
        .map(|count| {
            let ticket = engine.submit(Meeting::request("G"));
            meeting.await_gated(count);
            ticket
        })
        .collect();
    // Two requests on one other key queue up behind them; each finishes
    // only when the other runs at the same time, which a worker that took
    // both would never do.
    let met: Vec<Ticket> = (0..2)
        .map(|_| engine.submit(Meeting::request("R")))
        .collect();
    meeting.open_gate();
    for ticket in gated.into_iter().chain(met) {
        ticket.wait().unwrap();
    }
    let stats = engine.shutdown();
    assert_eq!((stats.completed, stats.failed), (4, 0));
    assert_eq!((stats.batches, stats.peak_batch), (4, 1));
}

#[test]
fn the_default_cache_is_one_lru() {
    // Sixteen distinct keys: SUMMA chunks 1..=16. Over eight shards of
    // two plans each, chunk 1 shares its shard with chunks 9 and 12 and
    // is evicted before it comes back.
    let (problem, _) = summa_problem(16);
    let engine = ServingEngine::new(
        RuntimeBackend::model(),
        ServeConfig {
            workers: 1,
            cache_capacity: 16,
            ..ServeConfig::default()
        },
    );
    let again = 1;
    let others = (1..=16).filter(|&chunk| chunk != again);
    for chunk in std::iter::once(again).chain(others).chain([again]) {
        let mut bindings = Bindings::new();
        bindings.fill("B", 1.0).fill("C", 2.0);
        engine
            .submit(ServeRequest {
                problem: Arc::clone(&problem),
                schedule: Schedule::summa(2, 2, chunk),
                bindings,
                read: Vec::new(),
            })
            .wait()
            .unwrap();
    }
    let stats = engine.shutdown();
    assert_eq!(
        (stats.cache.hits, stats.cache.misses, stats.cache.evictions),
        (1, 16, 0),
        "a key requested again after 15 others must still hit: {stats:?}"
    );
}
