//! Step 3 of a run: applying a trace's node effects.
//!
//! A [`Trace`] holds the dependence DAG, the order the timing pass
//! scheduled it in and the statistics that pass computed (see
//! [`crate::replay`]). What remains — applying each node's *side effect*
//! (copying bytes, filling buffers, running leaf kernels in functional
//! mode) — is `apply`'s job, on a number of workers:
//!
//! * none in model mode: there is nothing to apply;
//! * one (`ExecutorKind::Serial`, or a host that resolves to one worker):
//!   the effects run one at a time, in the exact order the timing pass
//!   scheduled them;
//! * more (`ExecutorKind::Parallel`, the default): workers forked by
//!   [`fork`] run every DAG-ready node at once, taking them from one
//!   ready queue. This mirrors what the simulated machine is modelled to
//!   do (overlap of communication and computation, §6) on the *host*: a
//!   functional-mode SUMMA run executes its leaf GEMMs on all host cores.
//!
//! [`fork`] owns the workspace's per-call host threads, for the SPMD rank
//! pool and the dense→CSR scan too: the caller is worker 0, each worker
//! gets its share of the host, and a worker's panic reaches the caller.
//!
//! The worker count changes nothing a run returns: the [`RunStats`] are
//! the trace's, and the numerics are identical because the DAG already
//! serializes every pair of conflicting accesses (the hazard edges
//! inserted by the dependence analysis). The per-instance buffer locks in
//! [`Store`] turn that argument into something the runtime actually
//! enforces: workers only touch buffers under a read/write lock, acquired
//! in instance-id order to stay deadlock-free.
//!
//! Lock granularity is *per instance*, not per rectangle: two tasks writing
//! disjoint rects of the same physical instance are DAG-independent but
//! will serialize on its write lock. In practice placements materialize one
//! instance per tile/memory, so this costs little; per-rect range locks
//! (true buffer partitioning) are the known upgrade path if a workload
//! fans out over one shared allocation.
//!
//! [`RunStats`]: crate::stats::RunStats

use crate::csr::SparseBuffer;
use crate::exec::Store;
use crate::graph::{CopyNode, GNode, GNodeKind, Graph, TaskNode};
use crate::kernel::{ArgData, Kernel, KernelArg, KernelCtx};
use crate::program::Privilege;
use crate::region::{Buffer, InstanceId};
use crate::replay::Trace;
use distal_machine::geom::{copy_rect, fill_rect, Rect};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, RwLockReadGuard, RwLockWriteGuard};

/// How [`crate::Runtime::run`] applies a trace's effects in functional
/// mode (model mode applies none either way).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecutorKind {
    /// On the calling thread alone, in scheduled order.
    Serial,
    /// On [`host_worker_count`] workers — the calling thread and the rest
    /// spawned beside it — every DAG-ready node at once. With one worker
    /// this is `Serial`.
    #[default]
    Parallel,
}

/// Applies `trace`'s node effects to `store`, which has already adopted
/// it, on `workers` threads: none (model mode, or an empty graph), one in
/// scheduled order, or more through the one-queue pool.
pub(crate) fn apply(store: &Store, kernels: &[Arc<dyn Kernel>], trace: &Trace, workers: usize) {
    let Trace { graph, order, .. } = trace;
    match workers.min(graph.nodes.len()) {
        0 => {}
        1 => {
            for &i in order {
                apply_effect(store, kernels, &graph.nodes[i as usize]);
            }
        }
        workers => parallel_apply(store, kernels, graph, order, workers),
    }
}

std::thread_local! {
    /// Per-thread cap on pool sizes resolved by [`host_worker_count`]
    /// (0 = uncapped). Scoped via [`with_thread_budget`].
    static THREAD_BUDGET: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The calling thread's worker budget (0 = uncapped). See
/// [`with_thread_budget`].
fn thread_budget() -> usize {
    THREAD_BUDGET.with(|b| b.get())
}

/// Runs `f` with every pool sized on this thread capped at `budget`
/// workers (minimum 1), restoring the previous budget afterwards — even
/// on panic.
///
/// This is the oversubscription fix for nested parallelism: a serving
/// engine running W worker threads gives each a budget of
/// `host cores / W`, so the runtime's effect pools and threaded SPMD rank
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
/// Shared by [`ExecutorKind::Parallel`] and the SPMD backend's threaded
/// rank transport, so `DISTAL_THREADS` and serving budgets cap both kinds
/// of pools.
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
    // Asked once: on Linux the answer reads the cgroup files (≈ 14 µs),
    // and every fork asks.
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    cap(*CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get())))
}

/// Runs `work` on every item, item 0 on the calling thread and each
/// other on a scoped thread, and returns the results in item order. Each
/// worker, the caller included, runs under [`with_thread_budget`] of its
/// share of the host, `host / items.len()` (at least 1). A panic is
/// re-raised once every worker has returned; the lowest item's wins.
pub fn fork<I: Send, T: Send>(items: Vec<I>, work: impl Fn(I) -> T + Sync) -> Vec<T> {
    let share = (host_worker_count(0) / items.len().max(1)).max(1);
    let work = &|item| with_thread_budget(share, || work(item));
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return Vec::new();
    };
    std::thread::scope(|s| {
        let spawned: Vec<_> = items.map(|item| s.spawn(move || work(item))).collect();
        let first = catch_unwind(AssertUnwindSafe(|| work(first)));
        let results: Vec<_> = std::iter::once(first)
            .chain(spawned.into_iter().map(|h| h.join()))
            .collect();
        // Every worker has returned: the first panic, in item order, wins.
        let results: std::thread::Result<Vec<T>> = results.into_iter().collect();
        results.unwrap_or_else(|panic| resume_unwind(panic))
    })
}

const POISONED: &str = "the ready queue's lock, held by no node's effect, was poisoned";

/// The one ready queue of a parallel run and what its workers decide
/// by. A worker reads and changes it under its lock only, so no wake-up
/// falls between a worker finding nothing to do and parking.
struct Ready {
    queue: VecDeque<u32>,
    /// Unmet dependences per node.
    indeg: Vec<u32>,
    /// Nodes not yet applied.
    remaining: usize,
    /// The first node panic; it stops the run.
    failure: Option<Box<dyn std::any::Any + Send>>,
}

/// Runs all node effects on `workers` threads through [`fork`],
/// honouring DAG edges. Initially ready nodes are queued in scheduled
/// order, so the first workers start on the critical path; a worker
/// that makes successors ready runs the first itself and queues the
/// rest.
fn parallel_apply(
    store: &Store,
    kernels: &[Arc<dyn Kernel>],
    graph: &Graph,
    order: &[u32],
    workers: usize,
) {
    let ready = Mutex::new(Ready {
        queue: order
            .iter()
            .copied()
            .filter(|&i| graph.nodes[i as usize].deps == 0)
            .collect(),
        indeg: graph.nodes.iter().map(|g| g.deps).collect(),
        remaining: graph.nodes.len(),
        failure: None,
    });
    let wake = Condvar::new();
    // A worker catches its node's panic and parks it in `failure`, so
    // every worker comes back and `fork` returns normally.
    let worker = |_: usize| {
        let mut next = None;
        let mut r = ready.lock().expect(POISONED);
        while r.remaining > 0 && r.failure.is_none() {
            let Some(i) = next.take().or_else(|| r.queue.pop_front()) else {
                r = wake.wait(r).expect(POISONED);
                continue;
            };
            drop(r);
            let node = &graph.nodes[i as usize];
            let applied = catch_unwind(AssertUnwindSafe(|| apply_effect(store, kernels, node)));
            r = ready.lock().expect(POISONED);
            if let Err(panic) = applied {
                r.failure.get_or_insert(panic);
                continue;
            }
            r.remaining -= 1;
            let Ready { queue, indeg, .. } = &mut *r;
            for &succ in &node.succs {
                indeg[succ as usize] -= 1;
                if indeg[succ as usize] == 0 && *next.get_or_insert(succ) != succ {
                    queue.push_back(succ);
                    wake.notify_one();
                }
            }
        }
        wake.notify_all();
    };
    fork((0..workers).collect(), worker);
    if let Some(panic) = ready.into_inner().expect(POISONED).failure {
        resume_unwind(panic);
    }
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

/// In functional mode every instance that holds valid data has a buffer
/// unless its region is held as a CSR image. One read without is a bug,
/// and skipping its effect would turn that bug into wrong numbers.
fn no_buffer(store: &Store, inst: InstanceId, doing: std::fmt::Arguments<'_>) -> ! {
    let instance = store.instance(inst);
    let region = &store.region(instance.region).name;
    let rect = &instance.rect;
    panic!("{doing}: instance {inst:?} of region '{region}' over {rect:?} has no buffer")
}

fn apply_fill(store: &Store, inst: InstanceId, value: f64) {
    let mut cell = store.buffer(inst).write().expect("poisoned buffer lock");
    Buffer::writable(&mut cell, &store.instance(inst).rect).fill(value);
}

/// A held per-instance buffer lock.
enum BufGuard<'a> {
    Read(RwLockReadGuard<'a, Option<Buffer>>),
    Write(RwLockWriteGuard<'a, Option<Buffer>>),
}

/// Applies one copy. A plain copy over the whole of its destination lends
/// the source's buffer instead of moving bytes, as Legion hands a task
/// the instance that already holds its data; a copy over part of its
/// destination, and a reduction fold, write through the destination's
/// copy-on-write step. To the graph and its statistics a lent copy is a
/// copy all the same.
fn apply_copy(store: &Store, c: &CopyNode) {
    assert_ne!(c.src, c.dst, "copy source and destination must differ");
    // A CSR-held region's image is its data: copies between its
    // (bufferless) instances are accounting only.
    if store.image(c.region).is_some() {
        return;
    }
    let dst_rect = &store.instance(c.dst).rect;
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
    let Some(src) = src_guard.buffer() else {
        let doing = format_args!("copy of {:?} from {:?} to {:?}", c.rect, c.src, c.dst);
        no_buffer(store, c.src, doing)
    };
    if !c.reduce && c.rect == *dst_rect {
        Buffer::lend(dst_guard.cell(), src);
        return;
    }
    let dst = Buffer::writable(dst_guard.cell(), dst_rect);
    copy_rect(&src.alloc, &src.data, dst_rect, dst, &c.rect, c.reduce);
    if c.reduce {
        let src_rect = &store.instance(c.src).rect;
        let folded = Buffer::writable(src_guard.cell(), src_rect);
        fill_rect(src_rect, folded, &c.rect, 0.0);
    }
}

impl BufGuard<'_> {
    /// The buffer behind the guard.
    fn buffer(&self) -> Option<&Buffer> {
        match self {
            BufGuard::Read(g) => g.as_ref(),
            BufGuard::Write(g) => g.as_ref(),
        }
    }

    /// The cell behind a write guard; panics on a read guard.
    fn cell(&mut self) -> &mut Option<Buffer> {
        match self {
            BufGuard::Read(_) => panic!("mutable access through a read lock"),
            BufGuard::Write(g) => g,
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

/// What a held guard has to lend: its shared buffer as often as asked,
/// its exclusive slice (laid out over the instance) once.
enum Lent<'a> {
    Shared(&'a Buffer),
    Exclusive(Option<&'a mut [f64]>),
}

fn apply_task(store: &Store, kernels: &[Arc<dyn Kernel>], task: &TaskNode) {
    // Lock plan: one guard per distinct instance that has a buffer — a
    // write guard iff any requirement on it writes — acquired in ascending
    // instance-id order and held for the task's lifetime, and whether any
    // requirement reads it. A CSR-held region's argument is the shared
    // image itself: nothing to lock.
    let buffered = |inst: InstanceId| inst.0 != u32::MAX && sparse_image(store, inst).is_none();
    let mut plan: Vec<(InstanceId, bool, bool)> = Vec::with_capacity(task.args.len());
    for (inst, privilege, _) in task.args.iter().filter(|(inst, ..)| buffered(*inst)) {
        let write = !matches!(privilege, Privilege::Read);
        let read = matches!(privilege, Privilege::Read | Privilege::ReadWrite);
        match plan.iter_mut().find(|(i, ..)| i == inst) {
            Some((_, w, r)) => (*w, *r) = (*w || write, *r || read),
            None => plan.push((*inst, write, read)),
        }
    }
    plan.sort_unstable_by_key(|(i, ..)| *i);
    let mut guards: Vec<BufGuard<'_>> = plan
        .iter()
        .map(|(i, w, _)| lock_buffer(store, *i, *w))
        .collect();
    let slot_of = |inst: InstanceId| {
        plan.binary_search_by_key(&inst, |(i, ..)| *i)
            .expect("instance missing from lock plan")
    };
    let own = |inst: InstanceId| &store.instance(inst).rect;

    // What the task reads must be there; what it only writes or reduces
    // into starts from zeros. A written instance makes its buffer its own
    // before anything reads it.
    for (guard, (inst, write, read)) in guards.iter_mut().zip(&plan) {
        if *read && guard.buffer().is_none() {
            no_buffer(store, *inst, format_args!("task argument"))
        }
        if *write {
            Buffer::writable(guard.cell(), own(*inst));
        }
    }

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
                guard @ BufGuard::Write(_) => guard.buffer().map(|buf| buf.data.to_vec()),
                BufGuard::Read(_) => None,
            }
        })
        .collect();

    // Every other argument borrows the instance's buffer where it lies,
    // under its guard: `alloc` is the rectangle the buffer is laid out
    // over, `rect` the part to touch.
    let mut lent: Vec<Lent<'_>> = guards
        .iter_mut()
        .zip(&plan)
        .map(|(guard, (inst, write, _))| match write {
            true => Lent::Exclusive(Some(Buffer::writable(guard.cell(), own(*inst)))),
            false => Lent::Shared(guard.buffer().expect("a read instance holds data")),
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
            (*covered, ArgData::Read(&[]), Some(Arc::clone(image)))
        } else {
            let (alloc, data) = match (before, &mut lent[slot_of(*inst)]) {
                (Some(copy), _) => (*own(*inst), ArgData::Read(copy)),
                (None, Lent::Shared(buf)) => (buf.alloc, ArgData::Read(&buf.data)),
                (None, Lent::Exclusive(data)) => (
                    *own(*inst),
                    ArgData::Write(
                        data.take()
                            .expect("aliased writable requirements are not supported"),
                    ),
                ),
            };
            (alloc, data, None)
        };
        KernelArg {
            privilege: *privilege,
            rect: *rect,
            alloc,
            data,
            sparse,
        }
    });

    let mut ctx = KernelCtx {
        args: args.collect(),
        point: task.point,
        scalars: task.scalars.clone(),
    };
    kernels[task.kernel.0 as usize].execute(&mut ctx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Mode, Runtime};
    use crate::kernel::NoopKernel;
    use crate::program::{one_task, IndexLaunch, Op, Privilege, Program, RegionReq, TaskDesc};
    use crate::region::RegionId;
    use crate::stats::RunStats;
    use crate::topology::PhysicalMachine;
    use distal_machine::geom::{Point, Rect};
    use distal_machine::spec::MachineSpec;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// A functional runtime on `spec` whose runs apply effects on
    /// `workers` threads: 1 is `ExecutorKind::Serial`, more the pool.
    fn functional(spec: MachineSpec, workers: usize) -> Runtime {
        let mut rt = Runtime::new(PhysicalMachine::new(spec), Mode::Functional);
        match workers {
            1 => rt.set_executor(ExecutorKind::Serial),
            n => rt.set_executor_threads(n),
        };
        rt
    }

    /// A kernel that scales its first argument in place.
    struct ScaleKernel(f64);
    impl Kernel for ScaleKernel {
        fn name(&self) -> &str {
            "scale"
        }
        fn execute(&self, ctx: &mut KernelCtx<'_>) {
            let arg = &mut ctx.args[0];
            let rect = arg.rect;
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
        p.push(one_task(TaskDesc::new(
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
    fn one_and_four_workers_agree_on_a_fanout_program() {
        // One writer task, then an index launch of readers across nodes,
        // then a reducer — exercises fills, copies, tasks, and folds in
        // scheduled order and on a forced multi-worker pool.
        let run = |workers: usize| -> (Vec<f64>, RunStats) {
            let mut rt = functional(MachineSpec::small(2), workers);
            let r = rt.create_region("A", Rect::sized(&[16]));
            let acc = rt.create_region("S", Rect::sized(&[16]));
            rt.set_region_data(r, (0..16).map(|x| x as f64).collect::<Vec<f64>>())
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
                            RegionReq::new(acc, rect, Privilege::ReadWrite, mem),
                            RegionReq::new(r, rect, Privilege::Read, mem),
                        ],
                    ));
                }
            }
            p.push(Op::IndexLaunch(IndexLaunch {
                name: "scale".into(),
                tasks,
            }));
            let stats = rt.run(&p).unwrap();
            (rt.read_region(acc).unwrap(), stats)
        };
        let (serial_out, serial_stats) = run(1);
        let (parallel_out, parallel_stats) = run(4);
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
            self.lent.lock().unwrap().push((arg.alloc, seen));
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
        let mut rt = functional(MachineSpec::small(1), 4);
        let whole = Rect::sized(&[64]);
        let r = rt.create_region("A", whole);
        rt.set_region_data(r, (0..64).map(f64::from).collect::<Vec<f64>>())
            .unwrap();
        let proc = rt.machine().cpu_proc(0, 0);
        let mem = rt.machine().proc(proc).local_mem;
        let mut p = Program::new();
        let noop = p.register_kernel(Arc::new(NoopKernel));
        let overlap = Arc::new(OverlapKernel::default());
        let k = p.register_kernel(Arc::clone(&overlap) as Arc<dyn Kernel>);
        let read = |rect: Rect| vec![RegionReq::new(r, rect, Privilege::Read, mem)];
        p.push(one_task(TaskDesc::new(
            noop,
            proc,
            Point::zeros(1),
            read(whole),
        )));
        let tasks = (0..16).map(|t| {
            let part = Rect::new(Point::new(vec![4 * t]), Point::new(vec![4 * t + 3]));
            TaskDesc::new(k, proc, Point::new(vec![t]), read(part))
        });
        p.push(Op::IndexLaunch(IndexLaunch {
            name: "readers".into(),
            tasks: tasks.collect(),
        }));
        rt.run(&p).unwrap();
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
            for workers in [1, 2] {
                let mut rt = functional(MachineSpec::small(1), workers);
                let rect = Rect::sized(&[4]);
                let r = rt.create_region("A", rect);
                rt.set_region_data(r, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
                let proc = rt.machine().cpu_proc(0, 0);
                let mem = rt.machine().proc(proc).local_mem;
                let mut p = Program::new();
                let k = p.register_kernel(Arc::new(DoubleFromAliasKernel { write, read }));
                let mut reqs = vec![RegionReq::new(r, rect, Privilege::Read, mem); 2];
                reqs[write].privilege = Privilege::ReadWrite;
                p.push(one_task(TaskDesc::new(k, proc, Point::zeros(1), reqs)));
                rt.run(&p).unwrap();
                let what = format!("{workers} worker(s) with the write at {write}");
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
    fn csr_regions_reach_kernels_as_one_shared_image_on_one_and_two_workers() {
        #[rustfmt::skip]
        let dense = vec![
            1.0, 0.0, 2.0,
            0.0, 0.0, 0.0,
            0.0, 4.0, 0.0,
            8.0, 0.0, 16.0,
        ];
        let run = |workers: usize| {
            let mut rt = functional(MachineSpec::small(2), workers);
            let b = rt.create_region("B", Rect::sized(&[4, 3]));
            let y = rt.create_region("y", Rect::sized(&[4]));
            let image = Arc::new(SparseBuffer::from_dense(&[4, 3], &dense));
            rt.set_region_sparse(b, Arc::clone(&image)).unwrap();
            rt.set_region_flops_scale(b, image.nnz() as f64 / 12.0);
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
            rt.run(&p).unwrap();
            let stats = rt.run(&p).unwrap();
            // One image, shared: the region's own reference plus ours.
            assert_eq!(Arc::strong_count(&image), 2);
            // An input reads back as its dense image.
            assert_eq!(rt.read_region(b).unwrap(), dense);
            (rt.read_region(y).unwrap(), stats)
        };
        let (serial_out, serial_stats) = run(1);
        let (parallel_out, parallel_stats) = run(2);
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
            p.push(one_task(TaskDesc::new(k, proc, Point::zeros(1), vec![req])));
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
        // task reading it must both refuse, on one worker or two, naming
        // what they were doing.
        for workers in [1, 2] {
            for (kernel, doing) in [
                (Arc::new(NoopKernel) as Arc<dyn Kernel>, "copy of"),
                (Arc::new(ScaleKernel(2.0)), "task argument"),
            ] {
                let mut rt = functional(MachineSpec::small(1), workers);
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
                p.push(one_task(TaskDesc::new(k, proc, Point::zeros(2), vec![req])));
                let panic = std::panic::catch_unwind(AssertUnwindSafe(|| rt.run(&p)))
                    .expect_err("a missing buffer went unnoticed");
                let message = panic.downcast_ref::<String>().expect("a formatted panic");
                let what = format!("{workers} worker(s)");
                assert!(message.contains(doing), "{what}: {message}");
                assert!(message.contains("region 'B'"), "{what}: {message}");
                assert!(message.contains("has no buffer"), "{what}: {message}");
            }
        }
    }

    /// Adds a constant to every element of its first argument.
    struct AddKernel(f64);
    impl Kernel for AddKernel {
        fn name(&self) -> &str {
            "add"
        }
        fn execute(&self, ctx: &mut KernelCtx<'_>) {
            let arg = &mut ctx.args[0];
            for p in arg.rect.points() {
                arg.add(p.coords(), self.0);
            }
        }
    }

    /// Runs one `kernel` task on processor (0, 0) over `reqs`.
    fn run_task(rt: &mut Runtime, kernel: Arc<dyn Kernel>, reqs: Vec<RegionReq>) -> RunStats {
        let mut p = Program::new();
        let k = p.register_kernel(kernel);
        let proc = rt.machine().cpu_proc(0, 0);
        p.push(one_task(TaskDesc::new(k, proc, Point::zeros(1), reqs)));
        rt.run(&p).unwrap()
    }

    /// Processor (0, 0)'s local memory and the global one.
    fn mems(rt: &Runtime) -> (crate::topology::MemId, crate::topology::MemId) {
        let proc = rt.machine().cpu_proc(0, 0);
        (rt.machine().proc(proc).local_mem, rt.machine().global_mem())
    }

    /// The latest instance of region `r` in `mem`.
    fn instance_in(rt: &Runtime, r: RegionId, mem: crate::topology::MemId) -> InstanceId {
        let instances = &rt.store.coherence.instances;
        let mut there = instances.iter().filter(|i| i.region == r && i.mem == mem);
        there.next_back().expect("an instance in that memory").id
    }

    fn buffer_of(rt: &Runtime, inst: InstanceId) -> Buffer {
        let cell = rt.store.buffer(inst).read().unwrap();
        cell.clone().expect("the instance holds a buffer")
    }

    /// What an instance's buffer holds over the instance's own rectangle.
    fn held(rt: &Runtime, inst: InstanceId) -> Vec<f64> {
        let (buf, own) = (buffer_of(rt, inst), rt.store.instance(inst).rect);
        let mut out = vec![0.0; own.volume() as usize];
        copy_rect(&buf.alloc, &buf.data, &own, &mut out, &own, false);
        out
    }

    const LENT: [i64; 2] = [4, 8];

    /// Region `A` seeded with 0..32 in global memory, then read whole into
    /// processor (0, 0)'s memory: the staging instance and the one the
    /// copy lent its buffer to.
    fn lent(workers: usize) -> (Runtime, RegionId, InstanceId, InstanceId) {
        let mut rt = functional(MachineSpec::small(1), workers);
        let r = rt.create_region("A", Rect::sized(&LENT));
        rt.set_region_data(r, (0..32).map(f64::from).collect::<Vec<f64>>())
            .unwrap();
        let (local, global) = mems(&rt);
        let read = RegionReq::new(r, Rect::sized(&LENT), Privilege::Read, local);
        run_task(&mut rt, Arc::new(NoopKernel), vec![read]);
        let (src, dst) = (instance_in(&rt, r, global), instance_in(&rt, r, local));
        let (s, d) = (buffer_of(&rt, src), buffer_of(&rt, dst));
        assert!(Arc::ptr_eq(&s.data, &d.data));
        (rt, r, src, dst)
    }

    #[test]
    fn a_whole_instance_copy_lends_the_source_buffer_over_its_rectangle() {
        for workers in [1, 2] {
            let mut rt = functional(MachineSpec::small(1), workers);
            rt.record_copies(true);
            let whole = Rect::sized(&LENT);
            let r = rt.create_region("A", whole);
            rt.set_region_data(r, (0..32).map(f64::from).collect::<Vec<f64>>())
                .unwrap();
            let (local, global) = mems(&rt);
            let rows = Rect::new(Point::new(vec![1, 0]), Point::new(vec![2, 7]));
            let read = RegionReq::new(r, rows, Privilege::Read, local);
            let stats = run_task(&mut rt, Arc::new(NoopKernel), vec![read]);
            let (src, dst) = (instance_in(&rt, r, global), instance_in(&rt, r, local));
            let (s, d) = (buffer_of(&rt, src), buffer_of(&rt, dst));
            let what = format!("{workers} worker(s)");
            assert!(
                Arc::ptr_eq(&s.data, &d.data),
                "{what}: the copy moved bytes"
            );
            assert_eq!(
                (d.alloc, rt.store.instance(dst).rect),
                (whole, rows),
                "{what}"
            );
            let want: Vec<f64> = (8..24).map(f64::from).collect();
            assert_eq!(held(&rt, dst), want, "{what}");
            // To the model a lent copy is a copy all the same.
            let log = stats.copy_log.as_ref().unwrap();
            assert_eq!((log.len(), log[0].bytes), (1, 16 * 8), "{what}");
        }
    }

    #[test]
    fn writing_either_side_of_a_lend_leaves_the_other_as_it_was() {
        let before: Vec<f64> = (0..32).map(f64::from).collect();
        let times = |k: f64| before.iter().map(|v| v * k).collect::<Vec<f64>>();
        let whole = Rect::sized(&LENT);
        for workers in [1, 2] {
            let what = format!("{workers} worker(s)");
            // A task writes the source where it lies.
            let (mut rt, r, src, dst) = lent(workers);
            let global = mems(&rt).1;
            let write = RegionReq::new(r, whole, Privilege::ReadWrite, global);
            run_task(&mut rt, Arc::new(ScaleKernel(2.0)), vec![write]);
            assert_eq!(
                held(&rt, dst),
                before,
                "{what}: writing the source reached the lend"
            );
            assert_eq!(held(&rt, src), times(2.0), "{what}");
            assert_eq!(rt.read_region(r).unwrap(), times(2.0), "{what}");

            // A fill writes the source.
            let (rt, _, src, dst) = lent(workers);
            apply_fill(&rt.store, src, 9.0);
            assert_eq!(
                held(&rt, dst),
                before,
                "{what}: filling the source reached the lend"
            );
            assert_eq!(held(&rt, src), vec![9.0; 32], "{what}");

            // A task writes the destination.
            let (mut rt, r, src, dst) = lent(workers);
            let local = mems(&rt).0;
            let write = RegionReq::new(r, whole, Privilege::ReadWrite, local);
            run_task(&mut rt, Arc::new(ScaleKernel(3.0)), vec![write]);
            assert_eq!(
                held(&rt, src),
                before,
                "{what}: writing the lend reached its source"
            );
            assert_eq!(held(&rt, dst), times(3.0), "{what}");
            assert_eq!(rt.read_region(r).unwrap(), times(3.0), "{what}");
        }
    }

    #[test]
    fn a_copy_over_part_of_its_destination_and_a_fold_still_copy() {
        let whole = Rect::sized(&LENT);
        let top = Rect::new(Point::new(vec![0, 0]), Point::new(vec![1, 7]));
        for workers in [1, 2] {
            let what = format!("{workers} worker(s)");
            // Half the source is rewritten; reading the whole again copies
            // that half into the lent instance, which keeps the rest.
            let (mut rt, r, src, dst) = lent(workers);
            let (local, global) = mems(&rt);
            let write = RegionReq::new(r, top, Privilege::ReadWrite, global);
            run_task(&mut rt, Arc::new(ScaleKernel(2.0)), vec![write]);
            let read = RegionReq::new(r, whole, Privilege::Read, local);
            run_task(&mut rt, Arc::new(NoopKernel), vec![read]);
            let (s, d) = (buffer_of(&rt, src), buffer_of(&rt, dst));
            assert!(
                !Arc::ptr_eq(&s.data, &d.data),
                "{what}: a partial copy lent"
            );
            let scale = |v: i32| if v < 16 { 2.0 } else { 1.0 };
            let want: Vec<f64> = (0..32).map(|v| f64::from(v) * scale(v)).collect();
            assert_eq!(held(&rt, dst), want, "{what}");
            assert_eq!(rt.read_region(r).unwrap(), want, "{what}");

            // A `+=` into a reduction buffer, folded into the instance a
            // later reader uses: the fold adds, where a lend would replace.
            let mut rt = functional(MachineSpec::small(1), workers);
            rt.record_copies(true);
            let r = rt.create_region("A", whole);
            rt.set_region_data(r, vec![1.0; 32]).unwrap();
            let (local, _) = mems(&rt);
            let reduce = RegionReq::new(r, whole, Privilege::Reduce, local);
            run_task(&mut rt, Arc::new(AddKernel(1.5)), vec![reduce]);
            let read = RegionReq::new(r, whole, Privilege::Read, local);
            let stats = run_task(&mut rt, Arc::new(NoopKernel), vec![read]);
            let log = stats.copy_log.as_ref().unwrap();
            let folds = log
                .iter()
                .filter(|c| c.kind == crate::stats::CopyKind::ReduceApply);
            assert_eq!(folds.count(), 1, "{what}");
            assert_eq!(
                held(&rt, instance_in(&rt, r, local)),
                vec![2.5; 32],
                "{what}"
            );
            assert_eq!(rt.read_region(r).unwrap(), vec![2.5; 32], "{what}");
        }
    }

    #[test]
    fn an_output_nothing_has_written_starts_from_zeros() {
        // A buffer of the output's length that its last owner left dirty
        // waits in the pool: a first write must not see it.
        let n = crate::pool::MIN_POOLED as i64 + 37;
        let whole = Rect::sized(&[n]);
        for workers in [1, 2] {
            let what = format!("{workers} worker(s)");
            crate::pool::give(vec![f64::NAN; n as usize]);
            let mut rt = functional(MachineSpec::small(1), workers);
            let out = rt.create_region("O", whole);
            let local = mems(&rt).0;
            let write = RegionReq::new(out, whole, Privilege::Write, local);
            run_task(&mut rt, Arc::new(AddKernel(1.5)), vec![write]);
            assert_eq!(
                rt.read_region(out).unwrap(),
                vec![1.5; n as usize],
                "{what}"
            );

            // A reduction buffer starts from zeros too.
            crate::pool::give(vec![f64::NAN; n as usize]);
            rt.set_region_data(out, vec![2.0; n as usize]).unwrap();
            let reduce = RegionReq::new(out, whole, Privilege::Reduce, local);
            run_task(&mut rt, Arc::new(AddKernel(1.5)), vec![reduce]);
            assert_eq!(
                rt.read_region(out).unwrap(),
                vec![3.5; n as usize],
                "{what}"
            );
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
    fn fork_runs_item_zero_on_the_caller_and_every_item_on_its_share() {
        let (host, caller) = (host_worker_count(0), std::thread::current().id());
        for n in [1, 2, 3, host + 1] {
            // Later items finish first.
            let seen = fork((0..n).collect(), |k| {
                std::thread::sleep(Duration::from_millis(5 * (n - k) as u64));
                (k, std::thread::current().id(), host_worker_count(0))
            });
            let share = (host / n).max(1);
            for (at, (k, thread, budget)) in seen.into_iter().enumerate() {
                assert_eq!(k, at, "{n} items: out of item order");
                assert_eq!(thread == caller, k == 0, "{n} items: item {k}'s thread");
                assert_eq!(budget, share, "{n} items: item {k}'s share");
            }
        }
    }

    #[test]
    fn fork_reraises_a_panic_once_every_worker_returned() {
        // Worker 1 panics at once; worker 2 returns 50 ms later.
        let returned = AtomicUsize::new(0);
        let panic = std::panic::catch_unwind(AssertUnwindSafe(|| {
            fork(vec![0, 1, 2], |k| {
                assert_ne!(k, 1, "worker 1 exploded");
                std::thread::sleep(Duration::from_millis(25 * k));
                returned.fetch_add(1, Ordering::SeqCst);
            })
        }));
        assert!(panic.is_err(), "the panic was swallowed");
        let returned = returned.load(Ordering::SeqCst);
        assert_eq!(returned, 2, "re-raised before a sibling returned");
    }

    #[test]
    fn the_worker_pool_propagates_kernel_panics() {
        struct PanicKernel;
        impl Kernel for PanicKernel {
            fn name(&self) -> &str {
                "panic"
            }
            fn execute(&self, _ctx: &mut KernelCtx<'_>) {
                panic!("kernel exploded");
            }
        }
        let mut rt = functional(MachineSpec::small(1), 2);
        let r = rt.create_region("A", Rect::sized(&[4]));
        rt.set_region_data(r, vec![0.0; 4]).unwrap();
        let mut p = Program::new();
        let k = p.register_kernel(Arc::new(PanicKernel));
        let proc = rt.machine().cpu_proc(0, 0);
        let mem = rt.machine().proc(proc).local_mem;
        p.push(one_task(TaskDesc::new(
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
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| rt.run(&p)));
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
        let mut rt = functional(MachineSpec::small(2), 2);
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
            p.push(one_task(TaskDesc::new(
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
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| rt.run(&p)));
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
            p2.push(one_task(t));
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
                p.push(one_task(t));
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
        p.push(one_task(TaskDesc::new(
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
