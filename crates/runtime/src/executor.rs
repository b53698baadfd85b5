//! Pluggable DAG executors: how the nodes of a built execution graph are
//! actually run.
//!
//! A [`Trace`] holds the dependence DAG, the order the timing pass
//! scheduled it in and the statistics that pass computed (see
//! [`crate::replay`]). What remains — applying each node's *side effect*
//! (copying bytes, filling buffers, running leaf kernels in functional
//! mode) — is the job of an [`Executor`]:
//!
//! * [`SerialExecutor`] applies effects one at a time, in the exact order
//!   the timing pass scheduled them — the original behaviour.
//! * [`ParallelExecutor`] applies effects concurrently with a small
//!   work-stealing thread pool, running every DAG-ready node at once. This
//!   mirrors what the simulated machine is modelled to do (overlap of
//!   communication and computation, §6) on the *host*: a functional-mode
//!   SUMMA run executes its leaf GEMMs on all host cores.
//!
//! Both executors are handed the same trace and share the effect
//! implementations, so their [`RunStats`] are identical by construction —
//! neither computes any — and their numerics are
//! identical because the DAG already serializes every pair of conflicting
//! accesses (the hazard edges inserted by the dependence analysis). The
//! per-instance buffer locks in [`Store`] turn that argument into something
//! the runtime actually enforces: workers only touch buffers under a
//! read/write lock, acquired in instance-id order to stay deadlock-free.
//!
//! Lock granularity is *per instance*, not per rectangle: two tasks writing
//! disjoint rects of the same physical instance are DAG-independent but
//! will serialize on its write lock. In practice placements materialize one
//! instance per tile/memory, so this costs little; per-rect range locks
//! (true buffer partitioning) are the known upgrade path if a workload
//! fans out over one shared allocation.

use crate::csr::SparseBuffer;
use crate::exec::Store;
use crate::graph::{CopyNode, GNode, GNodeKind, Graph, TaskNode};
use crate::kernel::{ArgData, Kernel, KernelArg, KernelCtx};
use crate::program::Privilege;
use crate::region::InstanceId;
use crate::replay::Trace;
use crate::stats::RunStats;
use crate::topology::PhysicalMachine;
use distal_machine::geom::{copy_rect, fill_rect, Rect};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// Which executor [`crate::Runtime::run`] should use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecutorKind {
    /// Parallel in functional mode (real work to overlap), serial in model
    /// mode (nothing to run; the timing pass is inherently sequential).
    #[default]
    Auto,
    /// Always the serial executor.
    Serial,
    /// Always the work-stealing parallel executor.
    Parallel,
}

impl ExecutorKind {
    /// Resolves `Auto` against an execution mode.
    pub fn resolve(self, mode: crate::exec::Mode) -> ExecutorKind {
        match self {
            ExecutorKind::Auto => {
                if mode == crate::exec::Mode::Functional {
                    ExecutorKind::Parallel
                } else {
                    ExecutorKind::Serial
                }
            }
            other => other,
        }
    }
}

/// Everything an executor needs for one program run: the trace to apply
/// and the store — which has already adopted it — to apply it to.
///
/// Constructed by [`crate::Runtime::run_with`]; the fields are
/// crate-private, so custom executors compose the built-ins rather than
/// reimplementing effect application.
pub struct ExecCtx<'a> {
    pub(crate) machine: &'a PhysicalMachine,
    pub(crate) store: &'a Store,
    pub(crate) trace: &'a Trace,
    pub(crate) kernels: &'a [Arc<dyn Kernel>],
    pub(crate) functional: bool,
    pub(crate) record_copies: bool,
}

impl std::fmt::Debug for ExecCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecCtx")
            .field("functional", &self.functional)
            .field("record_copies", &self.record_copies)
            .field("kernels", &self.kernels.len())
            .finish_non_exhaustive()
    }
}

impl ExecCtx<'_> {
    /// What every run of the trace reports.
    fn stats(&self) -> RunStats {
        self.trace.stats(self.machine, self.record_copies)
    }
}

/// Runs a built execution DAG to completion.
pub trait Executor: Send + Sync {
    /// Executor name (appears in benchmark output).
    fn name(&self) -> &'static str;

    /// Applies the trace's node effects (functional mode) and returns the
    /// trace's run statistics.
    fn execute(&self, ctx: &mut ExecCtx<'_>) -> RunStats;
}

/// Applies node effects one at a time, in scheduled order.
#[derive(Clone, Copy, Debug, Default)]
pub struct SerialExecutor;

impl Executor for SerialExecutor {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn execute(&self, ctx: &mut ExecCtx<'_>) -> RunStats {
        if ctx.functional {
            apply_in_order(ctx);
        }
        ctx.stats()
    }
}

fn apply_in_order(ctx: &ExecCtx<'_>) {
    for &i in &ctx.trace.order {
        apply_effect(ctx.store, ctx.kernels, &ctx.trace.graph.nodes[i as usize]);
    }
}

/// Applies node effects concurrently with a work-stealing thread pool:
/// every node whose predecessors have completed is eligible to run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ParallelExecutor {
    threads: usize,
}

impl ParallelExecutor {
    /// Creates an executor with an explicit worker count (0 = one worker
    /// per host core, overridable via the `DISTAL_THREADS` environment
    /// variable).
    pub fn new(threads: usize) -> Self {
        ParallelExecutor { threads }
    }

    /// The worker count this executor will use.
    pub fn worker_count(&self) -> usize {
        host_worker_count(self.threads)
    }
}

std::thread_local! {
    /// Per-thread cap on pool sizes resolved by [`host_worker_count`]
    /// (0 = uncapped). Scoped via [`with_thread_budget`].
    static THREAD_BUDGET: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The calling thread's worker budget (0 = uncapped). See
/// [`with_thread_budget`].
pub fn thread_budget() -> usize {
    THREAD_BUDGET.with(|b| b.get())
}

/// Runs `f` with every pool sized on this thread capped at `budget`
/// workers (minimum 1), restoring the previous budget afterwards — even
/// on panic.
///
/// This is the oversubscription fix for nested parallelism: a serving
/// engine running W worker threads gives each a budget of
/// `host cores / W`, so the [`ParallelExecutor`] and threaded SPMD rank
/// pools those workers spin up while binding plans share the host
/// instead of multiplying against it (8 serving threads × p = 16 ranks
/// would otherwise mean 128 OS threads). The budget caps *every*
/// resolution on the thread, including explicit requests and
/// `DISTAL_THREADS`, because it is set by the layer that actually knows
/// how much of the host this thread owns.
pub fn with_thread_budget<R>(budget: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_BUDGET.with(|b| b.set(self.0));
        }
    }
    let _restore = Restore(THREAD_BUDGET.with(|b| b.replace(budget.max(1))));
    f()
}

/// Resolves a requested thread count against the host: an explicit
/// `requested > 0` wins, then a positive `DISTAL_THREADS` environment
/// variable, then one worker per available core — all clamped to the
/// calling thread's [`with_thread_budget`] scope, when one is active.
/// Shared by the work-stealing [`ParallelExecutor`] and the SPMD
/// backend's threaded rank transport, so `DISTAL_THREADS` and serving
/// budgets cap both kinds of pools.
pub fn host_worker_count(requested: usize) -> usize {
    let budget = thread_budget();
    let cap = |n: usize| if budget > 0 { n.min(budget) } else { n };
    if requested > 0 {
        return cap(requested);
    }
    if let Some(n) = std::env::var("DISTAL_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if n > 0 {
            return cap(n);
        }
    }
    cap(std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1))
}

impl Executor for ParallelExecutor {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn execute(&self, ctx: &mut ExecCtx<'_>) -> RunStats {
        if ctx.functional {
            let Trace { graph, order, .. } = ctx.trace;
            let workers = self.worker_count().min(graph.nodes.len().max(1));
            if workers <= 1 {
                apply_in_order(ctx);
            } else {
                parallel_apply(ctx.store, ctx.kernels, graph, order, workers);
            }
        }
        ctx.stats()
    }
}

/// Runs all node effects on `workers` threads — the calling one and
/// `workers - 1` spawned beside it — honouring DAG edges.
fn parallel_apply(
    store: &Store,
    kernels: &[Arc<dyn Kernel>],
    graph: &Graph,
    order: &[u32],
    workers: usize,
) {
    let indeg: Vec<AtomicU32> = graph.nodes.iter().map(|g| AtomicU32::new(g.deps)).collect();
    let remaining = AtomicUsize::new(graph.nodes.len());
    let failed = AtomicBool::new(false);
    let queues: Vec<Mutex<VecDeque<u32>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    let park = (Mutex::new(()), Condvar::new());
    let failure: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    // Seed initially-ready nodes round-robin, in scheduled order so early
    // workers start on the critical path.
    let mut qi = 0usize;
    for &i in order {
        if graph.nodes[i as usize].deps == 0 {
            queues[qi % workers].lock().unwrap().push_back(i);
            qi += 1;
        }
    }

    // A worker catches its node's panic and parks it in `failure`, so the
    // calling thread — worker 0, which would otherwise sleep in the scope —
    // always comes back to rethrow it.
    let done = || remaining.load(Ordering::Acquire) == 0 || failed.load(Ordering::Acquire);
    let worker = |wid: usize| {
        loop {
            if done() {
                park.1.notify_all();
                return;
            }
            let Some(i) = pop_node(&queues, wid) else {
                let guard = park.0.lock().unwrap();
                if done() {
                    drop(guard);
                    park.1.notify_all();
                    return;
                }
                // The timeout bounds any lost-wakeup window; workers
                // re-check the queues and the exit condition on expiry.
                let _ = park
                    .1
                    .wait_timeout(guard, Duration::from_micros(100))
                    .unwrap();
                continue;
            };
            let node = &graph.nodes[i as usize];
            if let Err(panic) =
                catch_unwind(AssertUnwindSafe(|| apply_effect(store, kernels, node)))
            {
                let mut f = failure.lock().unwrap();
                if f.is_none() {
                    *f = Some(panic);
                }
                drop(f);
                // A dedicated flag (not remaining = 0) stops the pool:
                // workers still mid-node will decrement `remaining`
                // afterwards, which must not wrap past zero.
                failed.store(true, Ordering::Release);
                park.1.notify_all();
                return;
            }
            let mut woke = false;
            for &succ in &node.succs {
                if indeg[succ as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                    queues[wid].lock().unwrap().push_back(succ);
                    woke = true;
                }
            }
            if woke {
                park.1.notify_all();
            }
            if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                park.1.notify_all();
                return;
            }
        }
    };
    std::thread::scope(|s| {
        for wid in 1..workers {
            s.spawn(move || worker(wid));
        }
        worker(0);
    });

    if let Some(panic) = failure.into_inner().unwrap() {
        resume_unwind(panic);
    }
}

/// Pops from the worker's own queue (LIFO, for cache locality), stealing
/// from a sibling's queue front (FIFO) when empty.
fn pop_node(queues: &[Mutex<VecDeque<u32>>], wid: usize) -> Option<u32> {
    if let Some(i) = queues[wid].lock().unwrap().pop_back() {
        return Some(i);
    }
    let w = queues.len();
    for k in 1..w {
        if let Some(i) = queues[(wid + k) % w].lock().unwrap().pop_front() {
            return Some(i);
        }
    }
    None
}

/// Applies one node's side effect (functional mode only).
fn apply_effect(store: &Store, kernels: &[Arc<dyn Kernel>], node: &GNode) {
    match &node.kind {
        GNodeKind::Barrier => {}
        GNodeKind::Fill { inst, value } => apply_fill(store, *inst, *value),
        GNodeKind::Copy(c) => apply_copy(store, c),
        GNodeKind::Task(t) => apply_task(store, kernels, t),
    }
}

/// In functional mode every instance has a buffer unless its region is
/// held as a CSR image. One found without is a bug in adoption, and
/// skipping its effect would turn that bug into wrong numbers.
fn no_buffer(store: &Store, inst: InstanceId, doing: std::fmt::Arguments<'_>) -> ! {
    let instance = store.instance(inst);
    let region = &store.region(instance.region).name;
    let rect = &instance.rect;
    panic!("{doing}: instance {inst:?} of region '{region}' over {rect:?} has no buffer")
}

fn apply_fill(store: &Store, inst: InstanceId, value: f64) {
    let mut guard = lock_buffer(store, inst, true);
    match guard.data_mut() {
        Some(data) => data.fill(value),
        None => no_buffer(store, inst, format_args!("fill with {value}")),
    }
}

/// A held per-instance buffer lock.
enum BufGuard<'a> {
    Read(RwLockReadGuard<'a, Option<Arc<Vec<f64>>>>),
    Write(RwLockWriteGuard<'a, Option<Arc<Vec<f64>>>>),
}

fn apply_copy(store: &Store, c: &CopyNode) {
    assert_ne!(c.src, c.dst, "copy source and destination must differ");
    // A CSR-held region's image is its data: copies between its
    // (bufferless) instances are accounting only.
    if store.image(c.region).is_some() {
        return;
    }
    let src_alloc = &store.instance(c.src).rect;
    let dst_alloc = &store.instance(c.dst).rect;
    // Lock in instance-id order (deadlock avoidance). The source needs a
    // write lock only when folding, which zeroes the folded part of the
    // reduction buffer so partial folds never double-count contributions.
    let (mut src_guard, mut dst_guard) = if c.src < c.dst {
        let s = lock_buffer(store, c.src, c.reduce);
        let d = lock_buffer(store, c.dst, true);
        (s, d)
    } else {
        let d = lock_buffer(store, c.dst, true);
        let s = lock_buffer(store, c.src, c.reduce);
        (s, d)
    };
    let doing = format_args!("copy of {:?} from {:?} to {:?}", c.rect, c.src, c.dst);
    let Some(src_data) = src_guard.data() else {
        no_buffer(store, c.src, doing)
    };
    let Some(dst_data) = dst_guard.data_mut() else {
        no_buffer(store, c.dst, doing)
    };
    copy_rect(src_alloc, src_data, dst_alloc, dst_data, &c.rect, c.reduce);
    if c.reduce {
        let src_data = src_guard.data_mut().expect("present above");
        fill_rect(src_alloc, src_data, &c.rect, 0.0);
    }
}

impl BufGuard<'_> {
    /// The buffer behind the guard.
    fn data(&self) -> Option<&[f64]> {
        let cell = match self {
            BufGuard::Read(g) => &**g,
            BufGuard::Write(g) => &**g,
        };
        cell.as_deref().map(Vec::as_slice)
    }

    /// Mutable access, copying first a buffer shared with the caller that
    /// bound it; panics on a read guard.
    fn data_mut(&mut self) -> Option<&mut [f64]> {
        match self {
            BufGuard::Read(_) => panic!("mutable access through a read lock"),
            BufGuard::Write(g) => g.as_mut().map(|data| Arc::make_mut(data).as_mut_slice()),
        }
    }
}

fn lock_buffer(store: &Store, id: InstanceId, write: bool) -> BufGuard<'_> {
    let cell = store.buffer(id);
    if write {
        BufGuard::Write(cell.write().expect("poisoned buffer lock"))
    } else {
        BufGuard::Read(cell.read().expect("poisoned buffer lock"))
    }
}

/// The CSR image behind an instance's region, when the region is held
/// compressed (such instances carry no buffer).
fn sparse_image(store: &Store, inst: InstanceId) -> Option<(&Arc<SparseBuffer>, &Rect)> {
    let region = store.region(store.instance(inst).region);
    store.image(region.id).map(|image| (image, &region.rect))
}

/// What a held guard has to lend: its shared slice as often as asked, its
/// exclusive one once.
enum Lent<'a> {
    Shared(&'a [f64]),
    Exclusive(Option<&'a mut [f64]>),
}

fn apply_task(store: &Store, kernels: &[Arc<dyn Kernel>], task: &TaskNode) {
    // Lock plan: one guard per distinct instance that has a buffer — a
    // write guard iff any requirement on it writes — acquired in ascending
    // instance-id order and held for the task's lifetime. A CSR-held
    // region's argument is the shared image itself: nothing to lock.
    let buffered = |inst: InstanceId| inst.0 != u32::MAX && sparse_image(store, inst).is_none();
    let mut plan: Vec<(InstanceId, bool)> = Vec::with_capacity(task.args.len());
    for (inst, privilege, _) in task.args.iter().filter(|(inst, ..)| buffered(*inst)) {
        let write = !matches!(privilege, Privilege::Read);
        match plan.iter_mut().find(|(i, _)| i == inst) {
            Some((_, w)) => *w |= write,
            None => plan.push((*inst, write)),
        }
    }
    plan.sort_unstable_by_key(|(i, _)| *i);
    let mut guards: Vec<BufGuard<'_>> = plan
        .iter()
        .map(|(i, w)| lock_buffer(store, *i, *w))
        .collect();
    let slot_of = |inst: InstanceId| {
        plan.binary_search_by_key(&inst, |(i, _)| *i)
            .expect("instance missing from lock plan")
    };

    // The one copy left: a `Read` requirement on an instance this task
    // also writes reads the instance as it was before the task started.
    let before: Vec<Option<Vec<f64>>> = task
        .args
        .iter()
        .map(|(inst, privilege, _)| {
            if !buffered(*inst) || !matches!(privilege, Privilege::Read) {
                return None;
            }
            match &guards[slot_of(*inst)] {
                guard @ BufGuard::Write(_) => guard.data().map(<[f64]>::to_vec),
                BufGuard::Read(_) => None,
            }
        })
        .collect();

    // Every other argument borrows the instance where it lies, under its
    // guard: `alloc` is the instance rectangle, `rect` the part to touch.
    let mut lent: Vec<Lent<'_>> = guards
        .iter_mut()
        .zip(&plan)
        .map(|(guard, (inst, _))| {
            let lent = match guard {
                BufGuard::Read(_) => guard.data().map(Lent::Shared),
                BufGuard::Write(_) => guard.data_mut().map(|data| Lent::Exclusive(Some(data))),
            };
            lent.unwrap_or_else(|| no_buffer(store, *inst, format_args!("task argument")))
        })
        .collect();
    let args = task.args.iter().zip(&before);
    let args = args.map(|((inst, privilege, rect), before)| {
        let (alloc, data, sparse) = if inst.0 == u32::MAX {
            // Empty requirement from an over-decomposed launch point.
            let data = match privilege {
                Privilege::Read => ArgData::Read(&[]),
                _ => ArgData::Write(&mut []),
            };
            (Rect::empty(rect.dim()), data, None)
        } else if let Some((image, covered)) = sparse_image(store, *inst) {
            (covered.clone(), ArgData::Read(&[]), Some(Arc::clone(image)))
        } else {
            let data = match (before, &mut lent[slot_of(*inst)]) {
                (Some(copy), _) => ArgData::Read(copy),
                (None, Lent::Shared(data)) => ArgData::Read(data),
                (None, Lent::Exclusive(data)) => ArgData::Write(
                    data.take()
                        .expect("aliased writable requirements are not supported"),
                ),
            };
            (store.instance(*inst).rect.clone(), data, None)
        };
        KernelArg {
            privilege: *privilege,
            rect: rect.clone(),
            alloc,
            data,
            sparse,
        }
    });

    let mut ctx = KernelCtx {
        args: args.collect(),
        point: task.point.clone(),
        scalars: task.scalars.clone(),
    };
    kernels[task.kernel.0 as usize].execute(&mut ctx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Mode, Runtime};
    use crate::kernel::NoopKernel;
    use crate::program::{IndexLaunch, Op, Privilege, Program, RegionReq, TaskDesc};
    use crate::topology::PhysicalMachine;
    use distal_machine::geom::{Point, Rect};
    use distal_machine::spec::MachineSpec;

    /// A kernel that scales its first argument in place.
    struct ScaleKernel(f64);
    impl Kernel for ScaleKernel {
        fn name(&self) -> &str {
            "scale"
        }
        fn execute(&self, ctx: &mut KernelCtx<'_>) {
            let arg = &mut ctx.args[0];
            let rect = arg.rect.clone();
            for p in rect.points() {
                let v = arg.at(p.coords());
                arg.set(p.coords(), v * self.0);
            }
        }
    }

    fn scale_program(rt: &Runtime, r: crate::region::RegionId, n: i64) -> Program {
        let mut p = Program::new();
        let k = p.register_kernel(Arc::new(ScaleKernel(2.0)));
        let proc = rt.machine().cpu_proc(0, 0);
        let mem = rt.machine().proc(proc).local_mem;
        p.push(Op::SingleTask(TaskDesc::new(
            k,
            proc,
            Point::zeros(1),
            vec![RegionReq::new(
                r,
                Rect::sized(&[n]),
                Privilege::ReadWrite,
                mem,
            )],
        )));
        p
    }

    #[test]
    fn functional_kernel_mutates_data() {
        let m = PhysicalMachine::new(MachineSpec::small(1));
        let mut rt = Runtime::new(m, Mode::Functional);
        let r = rt.create_region("A", Rect::sized(&[4]));
        rt.set_region_data(r, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let p = scale_program(&rt, r, 4);
        rt.run(&p).unwrap();
        assert_eq!(rt.read_region(r).unwrap(), vec![2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn explicit_executors_agree_on_a_fanout_program() {
        // One writer task, then an index launch of readers across nodes,
        // then a reducer — exercises fills, copies, tasks, and folds under
        // both executors (the parallel one forced to multiple workers).
        let run = |executor: &dyn Executor| -> (Vec<f64>, RunStats) {
            let m = PhysicalMachine::new(MachineSpec::small(2));
            let mut rt = Runtime::new(m, Mode::Functional);
            let r = rt.create_region("A", Rect::sized(&[16]));
            let acc = rt.create_region("S", Rect::sized(&[16]));
            rt.set_region_data(r, (0..16).map(|x| x as f64).collect())
                .unwrap();
            rt.set_region_data(acc, vec![0.0; 16]).unwrap();
            let mut p = Program::new();
            let scale = p.register_kernel(Arc::new(ScaleKernel(3.0)));
            let mut tasks = Vec::new();
            for node in 0..2 {
                for sock in 0..2 {
                    let proc = rt.machine().cpu_proc(node, sock);
                    let mem = rt.machine().proc(proc).local_mem;
                    let lo = (node * 2 + sock) as i64 * 4;
                    let rect = Rect::new(Point::new(vec![lo]), Point::new(vec![lo + 3]));
                    tasks.push(TaskDesc::new(
                        scale,
                        proc,
                        Point::new(vec![lo / 4]),
                        vec![
                            RegionReq::new(acc, rect.clone(), Privilege::ReadWrite, mem),
                            RegionReq::new(r, rect, Privilege::Read, mem),
                        ],
                    ));
                }
            }
            p.push(Op::IndexLaunch(IndexLaunch {
                name: "scale".into(),
                tasks,
            }));
            let stats = rt.run_with(&p, executor).unwrap();
            (rt.read_region(acc).unwrap(), stats)
        };
        let (serial_out, serial_stats) = run(&SerialExecutor);
        let (parallel_out, parallel_stats) = run(&ParallelExecutor::new(4));
        assert_eq!(serial_out, parallel_out);
        assert_eq!(serial_stats.tasks, parallel_stats.tasks);
        assert_eq!(serial_stats.copies, parallel_stats.copies);
        assert_eq!(serial_stats.makespan_s, parallel_stats.makespan_s);
        assert_eq!(serial_stats.bytes_by_class, parallel_stats.bytes_by_class);
    }

    /// Counts how many of its tasks are inside `execute` at once, and
    /// records what each was lent.
    #[derive(Default)]
    struct OverlapKernel {
        inside: AtomicUsize,
        peak: AtomicUsize,
        lent: Mutex<Vec<(Rect, Vec<f64>)>>,
    }
    impl Kernel for OverlapKernel {
        fn name(&self) -> &str {
            "overlap"
        }
        fn execute(&self, ctx: &mut KernelCtx<'_>) {
            let inside = self.inside.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(inside, Ordering::SeqCst);
            let arg = &ctx.args[0];
            assert!(matches!(arg.data, ArgData::Read(_)));
            let seen = arg.rect.points().map(|p| arg.at(p.coords())).collect();
            self.lent.lock().unwrap().push((arg.alloc.clone(), seen));
            std::thread::sleep(Duration::from_millis(20));
            self.inside.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn concurrent_readers_share_one_instance_in_place() {
        // One task reads the whole region into a memory; sixteen more then
        // each read four elements of that same instance. They hold its
        // read lock together — a snapshot or a write lock would show as
        // a tight `alloc` or as a peak of one.
        let m = PhysicalMachine::new(MachineSpec::small(1));
        let mut rt = Runtime::new(m, Mode::Functional);
        let whole = Rect::sized(&[64]);
        let r = rt.create_region("A", whole.clone());
        rt.set_region_data(r, (0..64).map(f64::from).collect())
            .unwrap();
        let proc = rt.machine().cpu_proc(0, 0);
        let mem = rt.machine().proc(proc).local_mem;
        let mut p = Program::new();
        let noop = p.register_kernel(Arc::new(NoopKernel));
        let overlap = Arc::new(OverlapKernel::default());
        let k = p.register_kernel(Arc::clone(&overlap) as Arc<dyn Kernel>);
        let read = |rect: Rect| vec![RegionReq::new(r, rect, Privilege::Read, mem)];
        p.push(Op::SingleTask(TaskDesc::new(
            noop,
            proc,
            Point::zeros(1),
            read(whole.clone()),
        )));
        let tasks = (0..16).map(|t| {
            let part = Rect::new(Point::new(vec![4 * t]), Point::new(vec![4 * t + 3]));
            TaskDesc::new(k, proc, Point::new(vec![t]), read(part))
        });
        p.push(Op::IndexLaunch(IndexLaunch {
            name: "readers".into(),
            tasks: tasks.collect(),
        }));
        rt.run_with(&p, &ParallelExecutor::new(4)).unwrap();
        assert!(
            overlap.peak.load(Ordering::SeqCst) >= 2,
            "readers serialized"
        );
        let mut lent = overlap.lent.lock().unwrap().clone();
        lent.sort_by(|a, b| a.1[0].total_cmp(&b.1[0]));
        assert_eq!(lent.len(), 16);
        for (t, (alloc, seen)) in lent.iter().enumerate() {
            assert_eq!(alloc, &whole, "task {t} was lent a copy, not the instance");
            let want: Vec<f64> = (4 * t..4 * t + 4).map(|x| x as f64).collect();
            assert_eq!(seen, &want);
        }
    }

    /// Overwrites its writable argument, then rebuilds it as twice what
    /// its `Read` argument — the same instance — held before the task.
    struct DoubleFromAliasKernel {
        write: usize,
        read: usize,
    }
    impl Kernel for DoubleFromAliasKernel {
        fn name(&self) -> &str {
            "double-from-alias"
        }
        fn execute(&self, ctx: &mut KernelCtx<'_>) {
            assert_eq!(ctx.args[self.read].alloc, ctx.args[self.write].alloc);
            let points: Vec<Point> = ctx.args[self.write].rect.points().collect();
            for p in &points {
                ctx.args[self.write].set(p.coords(), 100.0);
            }
            for p in &points {
                let before = ctx.args[self.read].at(p.coords());
                ctx.args[self.write].set(p.coords(), 2.0 * before);
            }
        }
    }

    #[test]
    fn a_read_aliasing_a_written_instance_sees_the_pre_task_values() {
        // Both requirements land on one instance; whichever comes first,
        // the `Read` one is lent a copy taken before the kernel ran.
        for (write, read) in [(0, 1), (1, 0)] {
            for executor in [&SerialExecutor as &dyn Executor, &ParallelExecutor::new(2)] {
                let m = PhysicalMachine::new(MachineSpec::small(1));
                let mut rt = Runtime::new(m, Mode::Functional);
                let rect = Rect::sized(&[4]);
                let r = rt.create_region("A", rect.clone());
                rt.set_region_data(r, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
                let proc = rt.machine().cpu_proc(0, 0);
                let mem = rt.machine().proc(proc).local_mem;
                let mut p = Program::new();
                let k = p.register_kernel(Arc::new(DoubleFromAliasKernel { write, read }));
                let mut reqs = vec![RegionReq::new(r, rect.clone(), Privilege::Read, mem); 2];
                reqs[write].privilege = Privilege::ReadWrite;
                p.push(Op::SingleTask(TaskDesc::new(
                    k,
                    proc,
                    Point::zeros(1),
                    reqs,
                )));
                rt.run_with(&p, executor).unwrap();
                let what = format!("{} with the write at {write}", executor.name());
                assert_eq!(rt.read_region(r).unwrap(), [2.0, 4.0, 6.0, 8.0], "{what}");
            }
        }
    }

    /// Sums each row's stored values of its CSR argument into the output.
    struct RowSumKernel;
    impl Kernel for RowSumKernel {
        fn name(&self) -> &str {
            "rowsum"
        }
        fn sparse_arg(&self) -> Option<usize> {
            Some(1)
        }
        fn execute(&self, ctx: &mut KernelCtx<'_>) {
            let (out, rest) = ctx.args.split_at_mut(1);
            let b = &rest[0];
            let image = b.sparse.as_ref().expect("the region's CSR image");
            assert!(b.data.is_empty());
            assert_eq!(b.alloc, Rect::sized(&[4, 3]), "global coordinates");
            for i in b.rect.lo()[0]..=b.rect.hi()[0] {
                let (lo, hi) = image.row_range(i as usize);
                let sum: f64 = image.vals[lo..hi].iter().sum();
                out[0].set(&[i], sum);
            }
        }
    }

    #[test]
    fn csr_regions_reach_kernels_as_one_shared_image_under_both_executors() {
        #[rustfmt::skip]
        let dense = vec![
            1.0, 0.0, 2.0,
            0.0, 0.0, 0.0,
            0.0, 4.0, 0.0,
            8.0, 0.0, 16.0,
        ];
        let run = |executor: &dyn Executor| {
            let m = PhysicalMachine::new(MachineSpec::small(2));
            let mut rt = Runtime::new(m, Mode::Functional);
            let b = rt.create_region("B", Rect::sized(&[4, 3]));
            let y = rt.create_region("y", Rect::sized(&[4]));
            let image = Arc::new(SparseBuffer::from_dense(&[4, 3], &dense));
            rt.set_region_sparse(b, Arc::clone(&image)).unwrap();
            rt.set_region_flops_scale(b, image.density());
            let mut p = Program::new();
            let k = p.register_kernel(Arc::new(RowSumKernel));
            let mut tasks = Vec::new();
            for node in 0..2 {
                let proc = rt.machine().cpu_proc(node, 0);
                let mem = rt.machine().proc(proc).local_mem;
                let (lo, hi) = (node as i64 * 2, node as i64 * 2 + 1);
                let rows = Rect::new(Point::new(vec![lo, 0]), Point::new(vec![hi, 2]));
                let out = Rect::new(Point::new(vec![lo]), Point::new(vec![hi]));
                let mut task = TaskDesc::new(
                    k,
                    proc,
                    Point::new(vec![node as i64]),
                    vec![
                        RegionReq::new(y, out, Privilege::Write, mem),
                        RegionReq::new(b, rows, Privilege::Read, mem),
                    ],
                );
                task.flops = 12.0;
                tasks.push(task);
            }
            p.push(Op::IndexLaunch(IndexLaunch {
                name: "rowsum".into(),
                tasks,
            }));
            // Twice: the second run reuses the instances the first left,
            // which must still be bufferless.
            rt.run_with(&p, executor).unwrap();
            let stats = rt.run_with(&p, executor).unwrap();
            // One image, shared: the region's own reference plus ours.
            assert_eq!(Arc::strong_count(&image), 2);
            // An input reads back as its dense image.
            assert_eq!(rt.read_region(b).unwrap(), dense);
            (rt.read_region(y).unwrap(), stats)
        };
        let (serial_out, serial_stats) = run(&SerialExecutor);
        let (parallel_out, parallel_stats) = run(&ParallelExecutor::new(2));
        assert_eq!(serial_out, vec![3.0, 0.0, 4.0, 24.0]);
        assert_eq!(serial_out, parallel_out);
        // Each task's flops carry the region's global density, 5 / 12.
        assert_eq!(serial_stats.total_flops, 2.0 * 12.0 * (5.0 / 12.0));
        assert_eq!(serial_stats.total_flops, parallel_stats.total_flops);
        assert_eq!(serial_stats.makespan_s, parallel_stats.makespan_s);
        assert_eq!(serial_stats.bytes_by_class, parallel_stats.bytes_by_class);
    }

    #[test]
    fn csr_regions_are_read_only_until_reseeded() {
        let m = PhysicalMachine::new(MachineSpec::small(1));
        let mut rt = Runtime::new(m, Mode::Functional);
        let b = rt.create_region("B", Rect::sized(&[2, 2]));
        let image = Arc::new(SparseBuffer::from_dense(&[2, 2], &[0.0, 1.0, 0.0, 0.0]));
        // A mis-shaped image is refused.
        let wrong = Arc::new(SparseBuffer::from_dense(&[4], &[0.0; 4]));
        assert!(matches!(
            rt.set_region_sparse(b, wrong),
            Err(crate::exec::RuntimeError::DataSizeMismatch { .. })
        ));
        rt.set_region_sparse(b, image).unwrap();
        let refused = Err(crate::exec::RuntimeError::SparseRegionWrite { region: "B".into() });
        for privilege in [Privilege::Write, Privilege::ReadWrite, Privilege::Reduce] {
            let mut p = Program::new();
            let k = p.register_kernel(Arc::new(NoopKernel));
            let proc = rt.machine().cpu_proc(0, 0);
            let mem = rt.machine().proc(proc).local_mem;
            let req = RegionReq::new(b, Rect::sized(&[2, 2]), privilege, mem);
            p.push(Op::SingleTask(TaskDesc::new(
                k,
                proc,
                Point::zeros(1),
                vec![req],
            )));
            assert_eq!(rt.run(&p).map(|_| ()), refused, "{privilege:?}");
        }
        let mut fill = Program::new();
        fill.push(Op::Fill {
            region: b,
            value: 1.0,
        });
        assert_eq!(rt.run(&fill).map(|_| ()), refused);
        // Reseeding densely drops the image; the region is writable again.
        rt.fill_region(b, 0.0).unwrap();
        rt.run(&fill).unwrap();
        assert_eq!(rt.read_region(b).unwrap(), vec![1.0; 4]);
        // Model mode holds no data of either kind.
        let model = PhysicalMachine::new(MachineSpec::small(1));
        let mut rt = Runtime::new(model, Mode::Model);
        let b = rt.create_region("B", Rect::sized(&[1]));
        let image = Arc::new(SparseBuffer::from_dense(&[1], &[1.0]));
        assert_eq!(
            rt.set_region_sparse(b, image),
            Err(crate::exec::RuntimeError::NotFunctional)
        );
    }

    #[test]
    fn an_instance_found_without_its_buffer_is_a_panic_not_a_skipped_effect() {
        // A bufferless instance is legitimate for a CSR-held region only.
        // Take the image away from under one: the copy out of it and the
        // task reading it must both refuse, under either executor, naming
        // what they were doing.
        for executor in [&SerialExecutor as &dyn Executor, &ParallelExecutor::new(2)] {
            for (kernel, doing) in [
                (Arc::new(NoopKernel) as Arc<dyn Kernel>, "copy of"),
                (Arc::new(ScaleKernel(2.0)), "task argument"),
            ] {
                let m = PhysicalMachine::new(MachineSpec::small(1));
                let mut rt = Runtime::new(m, Mode::Functional);
                let b = rt.create_region("B", Rect::sized(&[2, 2]));
                let image = SparseBuffer::from_dense(&[2, 2], &[0.0, 1.0, 0.0, 0.0]);
                rt.set_region_sparse(b, Arc::new(image)).unwrap();
                rt.store.coherence.regions[b.0 as usize].csr = false;
                rt.store.images[b.0 as usize] = None;
                let proc = rt.machine().cpu_proc(0, 0);
                // The copy needs a destination in another memory; the task
                // takes the staging instance itself.
                let mem = match doing {
                    "copy of" => rt.machine().proc(proc).local_mem,
                    _ => rt.machine().global_mem(),
                };
                let mut p = Program::new();
                let k = p.register_kernel(kernel);
                let req = RegionReq::new(b, Rect::sized(&[2, 2]), Privilege::ReadWrite, mem);
                p.push(Op::SingleTask(TaskDesc::new(
                    k,
                    proc,
                    Point::zeros(2),
                    vec![req],
                )));
                let panic =
                    std::panic::catch_unwind(AssertUnwindSafe(|| rt.run_with(&p, executor)))
                        .expect_err("a missing buffer went unnoticed");
                let message = panic.downcast_ref::<String>().expect("a formatted panic");
                let what = executor.name();
                assert!(message.contains(doing), "{what}: {message}");
                assert!(message.contains("region 'B'"), "{what}: {message}");
                assert!(message.contains("has no buffer"), "{what}: {message}");
            }
        }
    }

    #[test]
    fn thread_budget_caps_every_resolution() {
        // No budget: explicit requests resolve as asked.
        assert_eq!(host_worker_count(8), 8);
        with_thread_budget(2, || {
            // Explicit requests, env fallbacks, and host-core defaults are
            // all clamped inside the scope...
            assert_eq!(host_worker_count(8), 2);
            assert!(host_worker_count(0) <= 2);
            assert_eq!(ParallelExecutor::new(16).worker_count(), 2);
            assert_eq!(thread_budget(), 2);
            // ...and nested scopes narrow but never widen past their own.
            with_thread_budget(1, || assert_eq!(host_worker_count(8), 1));
            assert_eq!(host_worker_count(8), 2);
        });
        // The budget is scoped: gone after the closure returns.
        assert_eq!(thread_budget(), 0);
        assert_eq!(host_worker_count(8), 8);
        // A budget on this thread does not leak to others.
        with_thread_budget(1, || {
            std::thread::scope(|s| {
                s.spawn(|| assert_eq!(host_worker_count(4), 4));
            });
        });
    }

    #[test]
    fn auto_resolution_picks_by_mode() {
        assert_eq!(
            ExecutorKind::Auto.resolve(Mode::Functional),
            ExecutorKind::Parallel
        );
        assert_eq!(
            ExecutorKind::Auto.resolve(Mode::Model),
            ExecutorKind::Serial
        );
        assert_eq!(
            ExecutorKind::Serial.resolve(Mode::Functional),
            ExecutorKind::Serial
        );
    }

    #[test]
    fn parallel_executor_propagates_kernel_panics() {
        struct PanicKernel;
        impl Kernel for PanicKernel {
            fn name(&self) -> &str {
                "panic"
            }
            fn execute(&self, _ctx: &mut KernelCtx<'_>) {
                panic!("kernel exploded");
            }
        }
        let m = PhysicalMachine::new(MachineSpec::small(1));
        let mut rt = Runtime::new(m, Mode::Functional);
        let r = rt.create_region("A", Rect::sized(&[4]));
        rt.set_region_data(r, vec![0.0; 4]).unwrap();
        let mut p = Program::new();
        let k = p.register_kernel(Arc::new(PanicKernel));
        let proc = rt.machine().cpu_proc(0, 0);
        let mem = rt.machine().proc(proc).local_mem;
        p.push(Op::SingleTask(TaskDesc::new(
            k,
            proc,
            Point::zeros(1),
            vec![RegionReq::new(
                r,
                Rect::sized(&[4]),
                Privilege::ReadWrite,
                mem,
            )],
        )));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            rt.run_with(&p, &ParallelExecutor::new(2))
        }));
        assert!(result.is_err());
    }

    #[test]
    fn panic_with_concurrent_inflight_worker_does_not_hang() {
        // Regression: a worker panic must stop the pool even while another
        // worker is mid-node; that worker's remaining-counter decrement
        // must not wrap past zero and strand the exit condition.
        struct PanicKernel;
        impl Kernel for PanicKernel {
            fn name(&self) -> &str {
                "panic"
            }
            fn execute(&self, _ctx: &mut KernelCtx<'_>) {
                panic!("kernel exploded");
            }
        }
        struct SlowKernel;
        impl Kernel for SlowKernel {
            fn name(&self) -> &str {
                "slow"
            }
            fn execute(&self, _ctx: &mut KernelCtx<'_>) {
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        let m = PhysicalMachine::new(MachineSpec::small(2));
        let mut rt = Runtime::new(m, Mode::Functional);
        let r0 = rt.create_region("A", Rect::sized(&[4]));
        let r1 = rt.create_region("B", Rect::sized(&[4]));
        rt.set_region_data(r0, vec![0.0; 4]).unwrap();
        rt.set_region_data(r1, vec![0.0; 4]).unwrap();
        let mut p = Program::new();
        let kp = p.register_kernel(Arc::new(PanicKernel));
        let ks = p.register_kernel(Arc::new(SlowKernel));
        // Two independent tasks on different processors: both are ready at
        // once, so one worker is inside SlowKernel when the other panics.
        for (region, kernel, node) in [(r0, kp, 0), (r1, ks, 1)] {
            let proc = rt.machine().cpu_proc(node, 0);
            let mem = rt.machine().proc(proc).local_mem;
            p.push(Op::SingleTask(TaskDesc::new(
                kernel,
                proc,
                Point::zeros(1),
                vec![RegionReq::new(
                    region,
                    Rect::sized(&[4]),
                    Privilege::ReadWrite,
                    mem,
                )],
            )));
        }
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            rt.run_with(&p, &ParallelExecutor::new(2))
        }));
        assert!(result.is_err(), "panic must propagate, not hang");
    }

    #[test]
    fn parallel_tasks_overlap_in_time() {
        let m = PhysicalMachine::new(MachineSpec::lassen(2));
        let mut rt = Runtime::new(m, Mode::Model);
        let r = rt.create_region("A", Rect::sized(&[1024]));
        rt.fill_region(r, 0.0).unwrap();
        let mut p = Program::new();
        let k = p.register_kernel(Arc::new(NoopKernel));
        let flops = 1e9;
        let mk = |rt: &Runtime, node: usize, lo: i64, hi: i64| {
            let proc = rt.machine().cpu_proc(node, 0);
            let mem = rt.machine().proc(proc).local_mem;
            let mut t = TaskDesc::new(
                k,
                proc,
                Point::new(vec![node as i64]),
                vec![RegionReq::new(
                    r,
                    Rect::new(Point::new(vec![lo]), Point::new(vec![hi])),
                    Privilege::Read,
                    mem,
                )],
            );
            t.flops = flops;
            t
        };
        let t0 = mk(&rt, 0, 0, 511);
        let t1 = mk(&rt, 1, 512, 1023);
        p.push(Op::IndexLaunch(IndexLaunch {
            name: "l".into(),
            tasks: vec![t0.clone(), t1.clone()],
        }));
        let both = rt.run(&p).unwrap();

        // Same two tasks serialized on one processor take ~2x as long.
        let m2 = PhysicalMachine::new(MachineSpec::lassen(2));
        let mut rt2 = Runtime::new(m2, Mode::Model);
        let r2 = rt2.create_region("A", Rect::sized(&[1024]));
        rt2.fill_region(r2, 0.0).unwrap();
        let mut p2 = Program::new();
        let k2 = p2.register_kernel(Arc::new(NoopKernel));
        let proc = rt2.machine().cpu_proc(0, 0);
        let mem = rt2.machine().proc(proc).local_mem;
        for (lo, hi) in [(0, 511), (512, 1023)] {
            let mut t = TaskDesc::new(
                k2,
                proc,
                Point::zeros(1),
                vec![RegionReq::new(
                    r2,
                    Rect::new(Point::new(vec![lo]), Point::new(vec![hi])),
                    Privilege::Read,
                    mem,
                )],
            );
            t.flops = flops;
            p2.push(Op::SingleTask(t));
        }
        let serial = rt2.run(&p2).unwrap();
        assert!(
            serial.makespan_s > 1.8 * both.makespan_s,
            "serial {} vs parallel {}",
            serial.makespan_s,
            both.makespan_s
        );
    }

    #[test]
    fn barrier_serializes_phases() {
        let m = PhysicalMachine::new(MachineSpec::lassen(2));
        let mut rt = Runtime::new(m, Mode::Model);
        let r = rt.create_region("A", Rect::sized(&[2, 1024]));
        rt.fill_region(r, 0.0).unwrap();
        let build = |with_barrier: bool, rt: &Runtime| {
            let mut p = Program::new();
            let k = p.register_kernel(Arc::new(NoopKernel));
            for step in 0..2 {
                let proc = rt.machine().cpu_proc(step, 0);
                let mem = rt.machine().proc(proc).local_mem;
                let mut t = TaskDesc::new(
                    k,
                    proc,
                    Point::new(vec![step as i64]),
                    vec![RegionReq::new(
                        r,
                        Rect::sized(&[2, 1024]).restrict(0, step as i64, step as i64),
                        Privilege::Read,
                        mem,
                    )],
                );
                t.flops = 1e9;
                p.push(Op::SingleTask(t));
                if with_barrier {
                    p.push(Op::Barrier);
                }
            }
            p
        };
        let free = rt.run(&build(false, &rt)).unwrap();
        // Re-seed to reset coherence for a fair second run.
        rt.fill_region(r, 0.0).unwrap();
        let barriered = rt.run(&build(true, &rt)).unwrap();
        assert!(
            barriered.makespan_s > 1.8 * free.makespan_s,
            "barrier {} vs free {}",
            barriered.makespan_s,
            free.makespan_s
        );
    }

    #[test]
    fn copy_log_records_transfers() {
        let m = PhysicalMachine::new(MachineSpec::small(2));
        let mut rt = Runtime::new(m, Mode::Model);
        rt.record_copies(true);
        let r = rt.create_region("A", Rect::sized(&[16]));
        rt.fill_region(r, 0.0).unwrap();
        let mut p = Program::new();
        let k = p.register_kernel(Arc::new(NoopKernel));
        let p1 = rt.machine().cpu_proc(1, 0);
        let m1 = rt.machine().proc(p1).local_mem;
        p.push(Op::SingleTask(TaskDesc::new(
            k,
            p1,
            Point::zeros(1),
            vec![RegionReq::new(r, Rect::sized(&[16]), Privilege::Read, m1)],
        )));
        let stats = rt.run(&p).unwrap();
        let log = stats.copy_log.as_ref().unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].bytes, 128);
    }
}
