//! [`ServingEngine`]: worker threads taking one request at a time from a
//! bounded channel, each resolving its plan through a sharded plan cache.

use distal_core::{
    Backend, BackendError, Bindings, CacheStats, Plan, PlanKey, Problem, Report, Schedule,
    ShardedPlanCache,
};
use distal_runtime::executor::{host_worker_count, with_thread_budget};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// Configuration for a [`ServingEngine`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads taking requests (0 = size to the host via
    /// `host_worker_count`, i.e. `DISTAL_THREADS` or one per core).
    pub workers: usize,
    /// Bound on queued-but-unclaimed requests; a full queue blocks
    /// [`ServingEngine::submit`] (backpressure, not unbounded backlog).
    pub queue_capacity: usize,
    /// Total plans the sharded cache retains.
    pub cache_capacity: usize,
    /// Shard count of the plan cache (1: one LRU over the whole
    /// capacity, so a key's survival does not depend on which other keys
    /// share its shard).
    pub cache_shards: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_capacity: 64,
            cache_capacity: 64,
            cache_shards: 1,
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

type Reply = Result<ServeResponse, BackendError>;

/// The receipt for a submitted request; redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Reply>,
}

impl Ticket {
    /// Blocks until the request completes.
    ///
    /// # Errors
    ///
    /// Whatever the serving path produced — plan, bind, or execution
    /// errors — or a synthesized [`BackendError::Backend`] when no
    /// worker was left to serve the request.
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
    /// Requests that failed (plan/bind/execute errors, panics, requests
    /// no worker was left to take).
    pub failed: u64,
    /// Worker turns: a worker takes one request per turn, so this is the
    /// number of requests workers took.
    pub batches: u64,
    /// Most requests one worker turn served: 1 once any request was
    /// taken, 0 before.
    pub peak_batch: u64,
    /// Lowerings ([`distal_core::lowering_count`]) that started while
    /// requests were bound and run, plan look-ups excluded — stays 0
    /// when every request rides its key's cached plan, which is the
    /// compile-once invariant the bench gates on.
    pub bind_lowerings: u64,
    /// Plan-cache counters (`hits + misses == requests()`).
    pub cache: CacheStats,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    turns: AtomicU64,
    bind_lowerings: AtomicU64,
}

struct Job {
    key: PlanKey,
    request: ServeRequest,
    reply: mpsc::Sender<Reply>,
}

struct WorkerCtx {
    backend: Arc<dyn Backend + Send + Sync>,
    cache: Arc<ShardedPlanCache>,
    jobs: Arc<Mutex<mpsc::Receiver<Job>>>,
    counters: Arc<Counters>,
}

/// A concurrent serving front for any [`Backend`]: compile once *per
/// key*, execute many *per second*.
///
/// ```text
///  submit() ──► sync_channel ──► worker threads (W = host_worker_count)
///                (backpressure)    │  one request per turn
///                                  ▼
///                        ShardedPlanCache::get_or_plan_keyed
///                           (single-flight per shard)
///                                  │ the key's Arc<dyn Plan>
///                                  ▼
///                        bind(bindings), run, read   ──► Ticket
///            (each worker lives under with_thread_budget)
/// ```
///
/// Each worker takes the oldest queued request, resolves its plan
/// through the sharded single-flight cache, then binds and runs the
/// request's [`Bindings`] against that shared plan. Two requests never
/// wait behind each other while a worker is free. Nested pools the bound
/// instances spawn are capped by a per-worker thread budget so W serving
/// workers never oversubscribe the host.
pub struct ServingEngine {
    backend: Arc<dyn Backend + Send + Sync>,
    cache: Arc<ShardedPlanCache>,
    /// The only sender: dropping it (shutdown, drop) lets the workers
    /// drain what is queued and exit.
    jobs: Option<mpsc::SyncSender<Job>>,
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
        let budget = (host_worker_count(0) / workers).max(1);
        let cache = Arc::new(ShardedPlanCache::new(cfg.cache_capacity, cfg.cache_shards));
        let (sender, receiver) = mpsc::sync_channel(cfg.queue_capacity.max(1));
        let receiver = Arc::new(Mutex::new(receiver));
        let counters = Arc::new(Counters::default());
        let handles = (0..workers)
            .map(|w| {
                let ctx = WorkerCtx {
                    backend: Arc::clone(&backend),
                    cache: Arc::clone(&cache),
                    jobs: Arc::clone(&receiver),
                    counters: Arc::clone(&counters),
                };
                // Everything a request does on this worker — planning on
                // a cache miss, binding, nested executor and transport
                // pools — lives under the worker's share of the host.
                std::thread::Builder::new()
                    .name(format!("distal-serve-{w}"))
                    .spawn(move || with_thread_budget(budget, || worker_loop(&ctx)))
                    .expect("spawning serving worker")
            })
            .collect();
        ServingEngine {
            backend,
            cache,
            jobs: Some(sender),
            counters,
            workers: handles,
            worker_count: workers,
        }
    }

    /// Submits a request, returning a [`Ticket`] immediately. Blocks only
    /// when the queue is at capacity (backpressure). When every worker
    /// has exited, the ticket fails on [`Ticket::wait`].
    pub fn submit(&self, request: ServeRequest) -> Ticket {
        let key = PlanKey::new(self.backend.as_ref(), &request.problem, &request.schedule);
        let (reply, rx) = mpsc::channel();
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let jobs = self.jobs.as_ref().expect("the sender lives until shutdown");
        if let Err(mpsc::SendError(job)) = jobs.send(Job {
            key,
            request,
            reply,
        }) {
            self.counters.failed.fetch_add(1, Ordering::Relaxed);
            let _ = job.reply.send(Err(BackendError::Backend(
                "serving engine has no workers left".to_string(),
            )));
        }
        Ticket { rx }
    }

    /// The engine's counters plus a coherent cache snapshot.
    pub fn stats(&self) -> EngineStats {
        let turns = self.counters.turns.load(Ordering::Relaxed);
        EngineStats {
            workers: self.worker_count,
            submitted: self.counters.submitted.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            failed: self.counters.failed.load(Ordering::Relaxed),
            batches: turns,
            peak_batch: turns.min(1),
            bind_lowerings: self.counters.bind_lowerings.load(Ordering::Relaxed),
            cache: self.cache.stats(),
        }
    }

    /// Drains and stops the engine: already-queued requests are served,
    /// workers are joined. Returns the final stats.
    pub fn shutdown(mut self) -> EngineStats {
        self.close_and_join();
        self.stats()
    }

    fn close_and_join(&mut self) {
        self.jobs = None;
        for handle in self.workers.drain(..) {
            // A worker that panicked already dropped its request's reply,
            // which fails that ticket; surfacing the panic here would
            // torpedo shutdown.
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
    loop {
        // The lock is held only while waiting for the next job (the guard
        // drops at the end of this statement); `recv` fails once the
        // sender is gone and the queue is drained.
        let Ok(job) = ctx.jobs.lock().expect("poisoned job receiver").recv() else {
            return;
        };
        ctx.counters.turns.fetch_add(1, Ordering::Relaxed);
        let result = catch_unwind(AssertUnwindSafe(|| serve(ctx, &job))).unwrap_or_else(|_| {
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
        let _ = job.reply.send(result);
    }
}

fn serve(ctx: &WorkerCtx, job: &Job) -> Reply {
    let request = &job.request;
    let plan = ctx.cache.get_or_plan_keyed(&job.key, || {
        ctx.backend
            .plan(&request.problem, &request.schedule)
            .map(Arc::from)
    })?;
    // The request runs on this thread, so the thread-local counter sees
    // every lowering its bind and run start.
    let before = distal_core::lowering_count();
    let served = bind_and_run(ctx, plan.as_ref(), request);
    ctx.counters
        .bind_lowerings
        .fetch_add(distal_core::lowering_count() - before, Ordering::Relaxed);
    served
}

fn bind_and_run(ctx: &WorkerCtx, plan: &dyn Plan, request: &ServeRequest) -> Reply {
    let mut instance = plan.bind(&request.bindings)?;
    let mut report = instance.run()?;
    ctx.cache.annotate(&mut report);
    let mut outputs = BTreeMap::new();
    for name in &request.read {
        outputs.insert(name.clone(), instance.read(name)?);
    }
    Ok(ServeResponse { report, outputs })
}
