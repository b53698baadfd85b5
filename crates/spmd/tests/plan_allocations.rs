//! How often the SPMD plan path calls the allocator: a count no host can
//! move, where a wall clock drifts from run to run.
//!
//! A counting global allocator forwards every call to [`System`] and
//! counts `alloc` and `realloc`. The one test plans the pipeline
//! benchmark's `plan_scale` shape (p = 256, n = 512, chunk 128, tree
//! collectives) for Cannon, PUMMA and SUMMA and bounds
//!
//! * `lower_problem` + `verify_program` per rank op of the program,
//! * `verify_program` alone per event it reads: it reads the rank lists in
//!   place, so it allocates per table, never per event, and
//! * `to_verify_ir` per event of the IR it builds.
//!
//! It then binds a request with a compressed operand to a p = 64 SUMMA
//! plan and bounds the bind per tensor and home piece: every binding
//! shares the plan's program, so binding allocates the seeded home pieces
//! and a few per-tensor tables, never per rank op.
//!
//! An op names its tensor by id, so none copies a tensor name per op.
//! This file holds the test binary's own `unsafe impl GlobalAlloc`; the
//! product code keeps its one `unsafe` block. There is one `#[test]`, so
//! no other test allocates while it counts.

use distal_algs::matmul::MatmulAlgorithm;
use distal_algs::setup::matmul_problem_on;
use distal_core::{Backend, Bindings, TensorSpec};
use distal_format::LevelFormat;
use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
use distal_spmd::{lower_problem, to_verify_ir, verify_program, CollectiveConfig, SpmdBackend};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// [`System`], counting its `alloc` and `realloc` calls in [`CALLS`].
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// allocator upholds exactly `System`'s guarantees.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract, which is
        // `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // meets `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Appended to a failed bound: what can move the count besides this repo.
const MOVED: &str = ". The count also depends on std's collection growth \
    policies, so a toolchain change can move it: compare the printed counts \
    with the ones recorded in CHANGES.md before changing a bound or \
    blaming the plan path";

/// `f`'s result and the allocator calls it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.load(Ordering::Relaxed);
    let out = f();
    (out, CALLS.load(Ordering::Relaxed) - before)
}

#[test]
fn the_plan_path_allocates_less_than_twice_per_rank_op() {
    let (p, n, chunk) = (256, 512, 128);
    for alg in [
        MatmulAlgorithm::Cannon,
        MatmulAlgorithm::Pumma,
        MatmulAlgorithm::Summa,
    ] {
        let spec = MachineSpec::small(p as usize / 2);
        let (problem, schedule) =
            matmul_problem_on(alg, spec, ProcKind::Cpu, MemKind::Sys, p, n, chunk).unwrap();
        let trees = CollectiveConfig::trees();
        let (program, lowering) = counted(|| lower_problem(&problem, &schedule, &trees).unwrap());
        let (diagnostics, verifying) = counted(|| verify_program(&program));
        assert!(diagnostics.is_empty(), "{diagnostics:?}");
        let (events, adapting) = counted(|| {
            let ir = to_verify_ir(&program);
            ir.ranks.iter().map(Vec::len).sum::<usize>()
        });
        let rank_ops: usize = (0..program.ranks())
            .map(|r| program.rank_ops(r).len())
            .sum();
        let per_op = (lowering + verifying) as f64 / rank_ops as f64;
        let verifying_per_event = verifying as f64 / events as f64;
        let per_event = adapting as f64 / events as f64;
        println!(
            "{} p={p}: lower_problem {lowering} + verify_program {verifying} allocations \
             over {rank_ops} rank ops = {per_op:.2} per op; verify_program \
             {verifying_per_event:.4} per event; to_verify_ir {adapting} over {events} \
             events = {per_event:.3} per event",
            alg.name()
        );
        assert!(
            per_op <= 2.0,
            "{}: {per_op:.2} per rank op{MOVED}",
            alg.name()
        );
        assert!(
            verifying_per_event <= 0.01,
            "{}: verify_program {verifying_per_event:.4} per event{MOVED}",
            alg.name()
        );
        assert!(
            per_event <= 0.25,
            "{}: {per_event:.3} per event{MOVED}",
            alg.name()
        );
    }
    binding_allocates_per_home_piece_not_per_rank_op();
}

/// SUMMA at p = 64 (n = 256, chunk 32) with `B` stored CSR.
fn binding_allocates_per_home_piece_not_per_rank_op() {
    let (p, n, chunk) = (64, 256, 32);
    let spec = MachineSpec::small(p as usize / 2);
    let summa = MatmulAlgorithm::Summa;
    let (mut problem, schedule) =
        matmul_problem_on(summa, spec, ProcKind::Cpu, MemKind::Sys, p, n, chunk).unwrap();
    let b = &problem.tensors()["B"];
    let csr = b.format.clone();
    let csr = csr.with_levels(vec![LevelFormat::Dense, LevelFormat::Compressed]);
    problem
        .tensor(TensorSpec::new("B", vec![n, n], csr))
        .unwrap();
    let plan = SpmdBackend::new().plan(&problem, &schedule).unwrap();
    let mut bindings = Bindings::new();
    let volume = (n * n) as usize;
    let sparse = (0..volume).map(|i| if i % 7 == 0 { 1.0 } else { 0.0 });
    bindings.set_data("B", sparse.collect());
    bindings.set_data("C", vec![1.0; volume]);
    let (instance, binding) = counted(|| plan.bind(&bindings).unwrap());
    drop(instance);
    let program = lower_problem(&problem, &schedule, &CollectiveConfig::default()).unwrap();
    let rank_ops: usize = (0..program.ranks())
        .map(|r| program.rank_ops(r).len())
        .sum();
    // Every rank holds one tile of each of the two inputs.
    let (tensors, pieces) = (program.tensors.len(), 2 * program.ranks());
    let per_piece = binding as f64 / (tensors + pieces) as f64;
    println!(
        "SUMMA p=64, B compressed: bind {binding} allocations over {tensors} tensors + \
         {pieces} home pieces = {per_piece:.2} each ({rank_ops} rank ops)"
    );
    assert!(
        per_piece <= 2.5,
        "binding: {per_piece:.2} per tensor and home piece{MOVED}"
    );
}
