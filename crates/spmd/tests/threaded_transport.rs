//! Threaded-transport guarantees, tested end to end: every Figure 9
//! schedule completes under a watchdog at p ∈ {4, 9, 16} (deadlock
//! freedom), the result is bit-identical to the sequential reference at
//! every rank-pool width (including a pool far narrower than the rank
//! count), a deliberately corrupted program — one send deleted — is
//! caught by the watchdog instead of hanging the suite, and a leaf that
//! panics mid-kernel is a typed error naming its rank and message that
//! leaves the next request on the same program untouched.

use distal_algs::matmul::MatmulAlgorithm;
use distal_algs::setup::matmul_problem_on;
use distal_core::Problem;
use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
use distal_runtime::kernel::{Kernel, KernelCtx};
use distal_spmd::collective::CollectiveConfig;
use distal_spmd::{lower_problem, SpmdError, SpmdProgram, ThreadedConfig, Transport};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One Figure 9 problem on `p` processors, lowered with default
/// collectives, plus its seeded VM inputs.
fn lowered(alg: MatmulAlgorithm, p: i64, n: i64) -> (SpmdProgram, BTreeMap<String, Vec<f64>>) {
    let (mut problem, schedule) = matmul_problem_on(
        alg,
        MachineSpec::small(p as usize),
        ProcKind::Cpu,
        MemKind::Sys,
        p,
        n,
        (n / 2).max(1),
    )
    .unwrap();
    problem.fill_random("B", 0xB).unwrap();
    problem.fill_random("C", 0xC).unwrap();
    let program = lower_problem(&problem, &schedule, &CollectiveConfig::default()).unwrap();
    let inputs = seeded_inputs(&problem);
    (program, inputs)
}

fn seeded_inputs(problem: &Problem) -> BTreeMap<String, Vec<f64>> {
    let mut inputs = BTreeMap::new();
    for t in ["B", "C"] {
        inputs.insert(t.to_string(), problem.initial_data(t).unwrap());
    }
    inputs
}

fn assert_bits_equal(label: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{label}: output lengths differ");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{label} idx {i}: {x} vs {y}");
    }
}

/// The smoke watchdog: generous enough for a loaded CI host, but firing
/// it still fails the test rather than hanging the whole suite.
fn watchdog(threads: usize) -> Transport {
    Transport::Threaded(ThreadedConfig {
        threads,
        watchdog: Duration::from_secs(120),
    })
}

#[test]
fn all_schedules_complete_and_match_at_p_4_9_16() {
    // Square-grid algorithms at every required rank count; the pool is
    // exercised below, at, and above the host's likely core count.
    for p in [4i64, 9, 16] {
        for alg in [MatmulAlgorithm::Summa, MatmulAlgorithm::Cannon] {
            let (program, inputs) = lowered(alg, p, 12);
            let seq = program.execute(&inputs).unwrap();
            for threads in [1usize, 3, p as usize] {
                let thr = program.execute_with(&inputs, &watchdog(threads)).unwrap();
                assert_bits_equal(
                    &format!("{alg:?} p={p} threads={threads}"),
                    &seq.output,
                    &thr.output,
                );
                assert_eq!(
                    seq.stats, thr.stats,
                    "{alg:?} p={p} threads={threads}: stats"
                );
                assert_eq!(
                    seq.peak_scratch_bytes, thr.peak_scratch_bytes,
                    "{alg:?} p={p} threads={threads}: peak scratch"
                );
                let m = thr.measured.expect("threaded runs report wall clock");
                assert_eq!(m.threads, threads.min(p as usize));
                assert_eq!(m.per_rank_s.len(), p as usize);
                assert!(m.wall_s > 0.0);
            }
        }
    }
}

#[test]
fn johnson_reduce_trees_complete_threaded() {
    // Johnson's 3D algorithm adds distributed reductions (ReduceSend /
    // ReduceRecv relays) to the message mix; 8 ranks = a 2×2×2 cube.
    let (program, inputs) = lowered(MatmulAlgorithm::Johnson, 8, 12);
    let seq = program.execute(&inputs).unwrap();
    for threads in [2usize, 8] {
        let thr = program.execute_with(&inputs, &watchdog(threads)).unwrap();
        assert_bits_equal(
            &format!("Johnson threads={threads}"),
            &seq.output,
            &thr.output,
        );
        assert_eq!(seq.stats, thr.stats);
    }
}

#[test]
fn default_transport_is_sequential_and_unmeasured() {
    let (program, inputs) = lowered(MatmulAlgorithm::Summa, 4, 8);
    let via_default = program
        .execute_with(&inputs, &Transport::default())
        .unwrap();
    assert!(via_default.measured.is_none());
    let direct = program.execute(&inputs).unwrap();
    assert_bits_equal("default transport", &direct.output, &via_default.output);
}

#[test]
fn watchdog_catches_a_lost_send() {
    // Delete one send from an otherwise well-formed program: its matching
    // receive can never be satisfied, and the watchdog must turn that
    // into a Timeout error (naming the blocked rank) instead of a hang.
    let (mut program, inputs) = lowered(MatmulAlgorithm::Summa, 4, 8);
    let lost_tag = program
        .messages()
        .first()
        .map(|m| m.tag)
        .expect("SUMMA communicates");
    program.rewrite(|stream| {
        stream.retain(|(_, op)| !(op.is_send() && op.message().is_some_and(|m| m.tag == lost_tag)));
    });
    let short = Transport::Threaded(ThreadedConfig {
        threads: 4,
        watchdog: Duration::from_millis(300),
    });
    match program.execute_with(&inputs, &short) {
        Err(SpmdError::Timeout(msg)) => {
            assert!(msg.contains("blocked on tag"), "unexpected message: {msg}");
        }
        other => panic!("expected a watchdog timeout, got {other:?}"),
    }
}

#[test]
fn peers_surface_the_root_cause_of_an_abort() {
    // Delete one *receive*: its rank later computes against data that
    // never landed and dies with a Data error. Every other rank merely
    // observes the abort — but the error the caller sees must still be
    // the root cause, naming the rank that died, never the generic
    // "aborted by another rank".
    let (mut program, inputs) = lowered(MatmulAlgorithm::Summa, 4, 8);
    let lost_tag = program
        .messages()
        .first()
        .map(|m| m.tag)
        .expect("SUMMA communicates");
    let is_lost_recv =
        |op: &distal_spmd::SpmdOp| !op.is_send() && op.message().is_some_and(|m| m.tag == lost_tag);
    program.rewrite(|stream| stream.retain(|(_, op)| !is_lost_recv(op)));
    // Run wide enough that other workers sit blocked and observe the
    // abort rather than erroring themselves.
    match program.execute_with(&inputs, &watchdog(4)) {
        Err(SpmdError::Data(msg)) => {
            assert!(
                msg.contains("rank") && msg.contains("no valid local copy"),
                "root cause should name the dead rank and its failure: {msg}"
            );
            assert!(!msg.contains("aborted by another rank"), "{msg}");
        }
        other => panic!("expected the root-cause Data error, got {other:?}"),
    }
}

/// The program's own leaf until `fuse` counts down to zero; the leaf run
/// that takes it there poisons the accumulator it was lent — every value
/// of the allocation, not just its rectangle — and panics with the views
/// still borrowed.
struct ExplodingLeaf {
    inner: Arc<dyn Kernel>,
    fuse: AtomicIsize,
}

impl Kernel for ExplodingLeaf {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute(&self, ctx: &mut KernelCtx) {
        if self.fuse.fetch_sub(1, Ordering::SeqCst) == 1 {
            ctx.args[0].data.fill(f64::NAN);
            panic!("leaf exploded mid-tile");
        }
        self.inner.execute(ctx);
    }
}

#[test]
fn a_panicking_leaf_names_its_rank_and_leaves_the_next_request_untouched() {
    // 64 x 64 tiles: every home, scratch, payload and accumulator buffer
    // is large enough to recycle through the pool, so whatever the dead
    // request left in them is what the next one is handed.
    let (mut program, inputs) = lowered(MatmulAlgorithm::Summa, 4, 128);
    let leaf = Arc::new(ExplodingLeaf {
        inner: Arc::clone(&program.leaf.0),
        fuse: AtomicIsize::new(-1),
    });
    program.leaf.0 = Arc::clone(&leaf) as Arc<dyn Kernel>;
    let reference = program.execute(&inputs).unwrap();
    let before = program.execute_with(&inputs, &watchdog(2)).unwrap();
    assert_bits_equal("before the panic", &reference.output, &before.output);

    // The fifth of the request's eight leaves: every rank already holds
    // an accumulator, views of home pieces and scratch are out on loan.
    leaf.fuse.store(5, Ordering::SeqCst);
    let started = Instant::now();
    match program.execute_with(&inputs, &watchdog(2)) {
        Err(SpmdError::Data(msg)) => {
            let named = msg.strip_prefix("rank ").and_then(|m| m.split(':').next());
            assert!(
                named.is_some_and(|r| r.parse::<usize>().is_ok_and(|r| r < 4)),
                "the error should start with the rank that died: {msg}"
            );
            assert!(msg.contains("leaf exploded mid-tile"), "{msg}");
        }
        other => panic!("expected the leaf's panic as a Data error, got {other:?}"),
    }
    // The scope joined every worker before `execute_with` returned, and
    // the peers were stopped by the abort, not by the watchdog.
    assert!(started.elapsed() < Duration::from_secs(60));

    // Same program, fuse spent: nothing the dead request wrote — not the
    // poisoned accumulator now back in the pool, not its payloads —
    // reaches this one, on either transport.
    let after = program.execute_with(&inputs, &watchdog(2)).unwrap();
    assert_bits_equal("after the panic", &reference.output, &after.output);
    assert_eq!(reference.stats, after.stats);
    let sequential = program.execute(&inputs).unwrap();
    assert_bits_equal("sequential after", &reference.output, &sequential.output);
}

#[test]
fn threaded_parity_holds_without_collective_lowering() {
    // The naive point-to-point program exercises the raw owner fans
    // (many sends with one source) rather than tree/ring splices.
    let (mut problem, schedule) = matmul_problem_on(
        MatmulAlgorithm::Summa,
        MachineSpec::small(4),
        ProcKind::Cpu,
        MemKind::Sys,
        4,
        12,
        6,
    )
    .unwrap();
    problem.fill_random("B", 0xB).unwrap();
    problem.fill_random("C", 0xC).unwrap();
    let program = lower_problem(&problem, &schedule, &CollectiveConfig::point_to_point()).unwrap();
    let inputs = seeded_inputs(&problem);
    let seq = program.execute(&inputs).unwrap();
    let thr = program.execute_with(&inputs, &watchdog(2)).unwrap();
    assert_bits_equal("naive SUMMA", &seq.output, &thr.output);
    assert_eq!(seq.stats, thr.stats);
}

#[test]
fn schedule_reuse_smoke() {
    // The same lowered program object runs on both transports repeatedly
    // (channels and pools are per-execution, never cached on the plan).
    let (program, inputs) = lowered(MatmulAlgorithm::Cannon, 4, 8);
    let seq = program.execute(&inputs).unwrap();
    for _ in 0..3 {
        let thr = program.execute_with(&inputs, &watchdog(0)).unwrap();
        assert_bits_equal("Cannon reuse", &seq.output, &thr.output);
    }
}
