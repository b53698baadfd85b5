//! [`ServingEngine`]: worker threads draining a bounded queue through a
//! sharded plan cache, batching same-key requests onto one `Arc<dyn Plan>`.

use crate::queue::{JobQueue, Keyed};
use distal_core::{
    Backend, BackendError, Bindings, CacheStats, Plan, PlanKey, Problem, Report, Schedule,
    ShardedPlanCache,
};
use distal_runtime::executor::{host_worker_count, with_thread_budget};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// Configuration for a [`ServingEngine`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads draining the queue (0 = size to the host via
    /// `host_worker_count`, i.e. `DISTAL_THREADS` or one per core).
    pub workers: usize,
    /// Bound on queued-but-unclaimed requests; full queues block
    /// [`ServingEngine::submit`] (backpressure, not unbounded backlog).
    pub queue_capacity: usize,
    /// Most requests one worker claims per same-key batch (1 disables
    /// micro-batching).
    pub max_batch: usize,
    /// Total plans the sharded cache retains.
    pub cache_capacity: usize,
    /// Shard count of the plan cache.
    pub cache_shards: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_capacity: 64,
            max_batch: 8,
            cache_capacity: 64,
            cache_shards: 8,
        }
    }
}

/// One serving request: which compilation to use (problem + schedule —
/// the [`PlanKey`] is derived at submission), the per-request data, and
/// which tensors to read back after execution.
#[derive(Clone, Debug)]
pub struct ServeRequest {
    /// The compile-relevant bundle (statement, tensors, machine). Shared
    /// behind `Arc` because every request for one key carries the same
    /// problem.
    pub problem: Arc<Problem>,
    /// The schedule to compile under.
    pub schedule: Schedule,
    /// Per-request operand values.
    pub bindings: Bindings,
    /// Tensors to read back (row-major) into [`ServeResponse::outputs`].
    pub read: Vec<String>,
}

/// What a request resolves to: the execution [`Report`] (with a coherent
/// cache snapshot attached) plus the requested tensor contents.
#[derive(Clone, Debug)]
pub struct ServeResponse {
    /// The merged place/execute report of this request's instance.
    pub report: Report,
    /// Requested tensors, row-major, in request order by name.
    pub outputs: BTreeMap<String, Vec<f64>>,
}

/// The receipt for a submitted request; redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<ServeResponse, BackendError>>,
}

impl Ticket {
    /// Blocks until the request completes.
    ///
    /// # Errors
    ///
    /// Whatever the serving path produced — plan, bind, or execution
    /// errors — or a synthesized [`BackendError::Backend`] when the
    /// engine shut down (or a worker died) before replying.
    pub fn wait(self) -> Result<ServeResponse, BackendError> {
        self.rx.recv().unwrap_or_else(|_| {
            Err(BackendError::Backend(
                "request dropped: serving worker exited before replying".to_string(),
            ))
        })
    }
}

/// Monotonic engine counters plus a coherent plan-cache snapshot.
#[derive(Clone, Debug)]
pub struct EngineStats {
    /// Worker threads serving the queue.
    pub workers: usize,
    /// Requests accepted by [`ServingEngine::submit`].
    pub submitted: u64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests that failed (plan/bind/execute errors, panics, shutdown
    /// rejections).
    pub failed: u64,
    /// Batches claimed from the queue (`submitted / batches` ≥ 1 is the
    /// realized batching factor).
    pub batches: u64,
    /// Largest single batch served.
    pub peak_batch: u64,
    /// Lowerings ([`distal_core::lowering_count`]) that started while
    /// batches were bound and run, plan look-ups excluded — stays 0 when
    /// every request rides its batch's plan, which is the compile-once
    /// invariant the bench gates on.
    pub bind_lowerings: u64,
    /// Plan-cache counters (`hits + misses == requests()`).
    pub cache: CacheStats,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    peak_batch: AtomicU64,
    bind_lowerings: AtomicU64,
}

struct Job {
    problem: Arc<Problem>,
    schedule: Schedule,
    bindings: Bindings,
    read: Vec<String>,
    reply: mpsc::Sender<Result<ServeResponse, BackendError>>,
}

impl fmt::Debug for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Job").field("read", &self.read).finish()
    }
}

struct WorkerCtx {
    backend: Arc<dyn Backend + Send + Sync>,
    cache: Arc<ShardedPlanCache>,
    queue: Arc<JobQueue<Job>>,
    counters: Arc<Counters>,
    max_batch: usize,
    /// Host-worker budget each serving worker passes down to the pools
    /// its plans create (parallel executor, threaded rank transport).
    budget: usize,
}

/// A concurrent serving front for any [`Backend`]: compile once *per
/// key*, execute many *per second*.
///
/// ```text
///  submit() ──► bounded queue ──► worker threads (W = host_worker_count)
///                 (backpressure)     │  pop_batch: same-PlanKey sweep
///                                    ▼
///                          ShardedPlanCache::get_or_plan_keyed
///                             (single-flight per shard)
///                                    │ one Arc<dyn Plan>
///                                    ▼
///                          bind(bindings) per request   ──► Ticket
///                          (under with_thread_budget)
/// ```
///
/// Each worker claims the oldest request plus every queued request with
/// the same [`PlanKey`] (micro-batching), resolves the plan once through
/// the sharded single-flight cache, then binds and runs each request's
/// [`Bindings`] against that shared plan. Nested pools the bound
/// instances spawn are capped by a per-worker thread budget so W serving
/// workers never oversubscribe the host.
pub struct ServingEngine {
    backend: Arc<dyn Backend + Send + Sync>,
    cache: Arc<ShardedPlanCache>,
    queue: Arc<JobQueue<Job>>,
    counters: Arc<Counters>,
    workers: Vec<JoinHandle<()>>,
    worker_count: usize,
}

impl ServingEngine {
    /// Starts the engine: spawns the workers and sizes the per-worker
    /// thread budget so `workers × budget` ≈ the host's worker count.
    pub fn new(backend: impl Backend + Send + Sync + 'static, cfg: ServeConfig) -> Self {
        Self::with_arc(Arc::new(backend), cfg)
    }

    /// [`ServingEngine::new`] for an already-shared backend.
    pub fn with_arc(backend: Arc<dyn Backend + Send + Sync>, cfg: ServeConfig) -> Self {
        let workers = host_worker_count(cfg.workers);
        let host = host_worker_count(0);
        let budget = (host / workers).max(1);
        let cache = Arc::new(ShardedPlanCache::new(cfg.cache_capacity, cfg.cache_shards));
        let queue = Arc::new(JobQueue::new(cfg.queue_capacity));
        let counters = Arc::new(Counters::default());
        let handles = (0..workers)
            .map(|w| {
                let ctx = WorkerCtx {
                    backend: Arc::clone(&backend),
                    cache: Arc::clone(&cache),
                    queue: Arc::clone(&queue),
                    counters: Arc::clone(&counters),
                    max_batch: cfg.max_batch,
                    budget,
                };
                std::thread::Builder::new()
                    .name(format!("distal-serve-{w}"))
                    .spawn(move || worker_loop(&ctx))
                    .expect("spawning serving worker")
            })
            .collect();
        ServingEngine {
            backend,
            cache,
            queue,
            counters,
            workers: handles,
            worker_count: workers,
        }
    }

    /// Submits a request, returning a [`Ticket`] immediately. Blocks only
    /// when the queue is at capacity (backpressure). Submitting to a
    /// shut-down engine yields a ticket that fails on
    /// [`Ticket::wait`].
    pub fn submit(&self, request: ServeRequest) -> Ticket {
        let key = PlanKey::new(self.backend.as_ref(), &request.problem, &request.schedule);
        let (reply, rx) = mpsc::channel();
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let entry = Keyed {
            key,
            job: Job {
                problem: request.problem,
                schedule: request.schedule,
                bindings: request.bindings,
                read: request.read,
                reply,
            },
        };
        if let Err(rejected) = self.queue.push(entry) {
            self.counters.failed.fetch_add(1, Ordering::Relaxed);
            let _ = rejected.job.reply.send(Err(BackendError::Backend(
                "serving engine is shut down".to_string(),
            )));
        }
        Ticket { rx }
    }

    /// The engine's counters plus a coherent cache snapshot.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            workers: self.worker_count,
            submitted: self.counters.submitted.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            failed: self.counters.failed.load(Ordering::Relaxed),
            batches: self.counters.batches.load(Ordering::Relaxed),
            peak_batch: self.counters.peak_batch.load(Ordering::Relaxed),
            bind_lowerings: self.counters.bind_lowerings.load(Ordering::Relaxed),
            cache: self.cache.stats(),
        }
    }

    /// A coherent snapshot of just the plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drains and stops the engine: already-queued requests are served,
    /// new submissions are rejected, workers are joined. Returns the
    /// final stats.
    pub fn shutdown(mut self) -> EngineStats {
        self.close_and_join();
        self.stats()
    }

    fn close_and_join(&mut self) {
        self.queue.close();
        for handle in self.workers.drain(..) {
            // A worker that panicked already failed its in-flight batch
            // tickets; surfacing the panic here would torpedo shutdown.
            let _ = handle.join();
        }
    }
}

impl Drop for ServingEngine {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

impl fmt::Debug for ServingEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServingEngine")
            .field("backend", &self.backend.name())
            .field("stats", &self.stats())
            .finish()
    }
}

fn worker_loop(ctx: &WorkerCtx) {
    while let Some(batch) = ctx.queue.pop_batch(ctx.max_batch) {
        ctx.counters.batches.fetch_add(1, Ordering::Relaxed);
        ctx.counters
            .peak_batch
            .fetch_max(batch.len() as u64, Ordering::Relaxed);
        // Everything a request does on this thread — planning on a cache
        // miss, binding, nested executor/transport pools — lives under
        // the worker's share of the host.
        with_thread_budget(ctx.budget, || serve_batch(ctx, batch));
    }
}

fn serve_batch(ctx: &WorkerCtx, batch: Vec<Keyed<Job>>) {
    let head = &batch[0];
    let planned = ctx.cache.get_or_plan_keyed(&head.key, || {
        ctx.backend
            .plan(&head.job.problem, &head.job.schedule)
            .map(Arc::from)
    });
    let plan = match planned {
        Ok(plan) => plan,
        Err(err) => {
            // The whole batch shares the key, so it shares the failure.
            for entry in batch {
                ctx.counters.failed.fetch_add(1, Ordering::Relaxed);
                let _ = entry.job.reply.send(Err(err.clone()));
            }
            return;
        }
    };
    // The whole batch runs on this thread, so the thread-local counter
    // sees every lowering its requests start.
    let before = distal_core::lowering_count();
    for entry in batch {
        let result = catch_unwind(AssertUnwindSafe(|| {
            serve_one(ctx, plan.as_ref(), &entry.job)
        }))
        .unwrap_or_else(|_| {
            Err(BackendError::Backend(
                "serving request panicked mid-execution".to_string(),
            ))
        });
        let counter = if result.is_ok() {
            &ctx.counters.completed
        } else {
            &ctx.counters.failed
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let _ = entry.job.reply.send(result);
    }
    ctx.counters
        .bind_lowerings
        .fetch_add(distal_core::lowering_count() - before, Ordering::Relaxed);
}

fn serve_one(ctx: &WorkerCtx, plan: &dyn Plan, job: &Job) -> Result<ServeResponse, BackendError> {
    let mut instance = plan.bind(&job.bindings)?;
    let mut report = instance.run()?;
    ctx.cache.annotate(&mut report);
    let mut outputs = BTreeMap::new();
    for name in &job.read {
        outputs.insert(name.clone(), instance.read(name)?);
    }
    Ok(ServeResponse { report, outputs })
}
