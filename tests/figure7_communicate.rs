//! Integration test: Figure 7 — `communicate` controls how much
//! communication is aggregated into a single message (§3.3).
//!
//! The same computation with coarser aggregation performs fewer, larger
//! transfers; finer aggregation performs more, smaller ones; total volume
//! stays comparable while peak memory shrinks with finer granularity.

use distal::algs::matmul::MatmulAlgorithm;
use distal::algs::setup::{matmul_problem, RunConfig};
use distal::prelude::*;

fn run_with_chunk(chunk: i64) -> (u64, u64, u64) {
    let config = RunConfig::cpu(4, Mode::Model);
    let n = 4096;
    let (problem, schedule) =
        matmul_problem(MatmulAlgorithm::Summa, &config, n, chunk).expect("setup");
    let mut instance = config
        .backend()
        .compile_typed(&problem, &schedule)
        .expect("compile");
    instance.place_stats().expect("place");
    let stats = instance.execute_stats().expect("execute");
    let peak_sys = *stats.peak_mem_bytes.get("SYS_MEM").unwrap_or(&0);
    (stats.copies, stats.inter_node_bytes(), peak_sys)
}

#[test]
fn aggregation_level_trades_messages_for_memory() {
    let n = 4096;
    // Coarse: one chunk covers all of k (Figure 7b, fully aggregated).
    let (copies_coarse, bytes_coarse, peak_coarse) = run_with_chunk(n);
    // Fine: 16 chunks (towards Figure 7a).
    let (copies_fine, bytes_fine, peak_fine) = run_with_chunk(n / 16);

    // Finer aggregation sends more messages...
    assert!(
        copies_fine > 4 * copies_coarse,
        "fine {copies_fine} vs coarse {copies_coarse}"
    );
    // ...of comparable total volume...
    let (a, b) = (bytes_fine as f64, bytes_coarse as f64);
    assert!((a - b).abs() / b < 0.35, "fine {a} vs coarse {b}");
    // ...while needing less live memory per processor (chunks + double
    // buffering instead of whole operand copies).
    assert!(
        peak_fine < peak_coarse,
        "fine peak {peak_fine} vs coarse peak {peak_coarse}"
    );
}

#[test]
fn default_aggregation_is_at_task_level() {
    // Without any communicate directive the compiler aggregates at the
    // leaf-task level (documented deviation from the paper's per-iteration
    // default, which only changes the naive bound, not scheduled behaviour).
    let config = RunConfig::cpu(2, Mode::Model);
    let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
    let mut problem = Problem::new(config.spec.clone(), machine);
    problem.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
    let f = Format::parse("xy->xy", MemKind::Sys).unwrap();
    for name in ["A", "B", "C"] {
        problem
            .tensor(TensorSpec::new(name, vec![64, 64], f.clone()))
            .unwrap();
    }
    problem.fill("B", 0.0).unwrap();
    problem.fill("C", 0.0).unwrap();
    let schedule =
        Schedule::new().distribute_onto(&["i", "j"], &["io", "jo"], &["ii", "ji"], &[2, 2]);
    let mut instance = config.backend().compile_typed(&problem, &schedule).unwrap();
    // One launch, no sequential loops: 4 point tasks.
    assert_eq!(instance.kernel().compute.task_count(), 4);
    instance.place_stats().unwrap();
    let stats = instance.execute_stats().unwrap();
    // Each task fetches each operand's needed rectangle at most once per
    // source tile: with 2x2 tiles, B row-fetches carve into 2 pieces per
    // task and likewise for C; well below per-element messaging.
    assert!(stats.copies <= 16, "copies {}", stats.copies);
}
