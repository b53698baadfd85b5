//! Cyclic and block-cyclic data layouts end to end (§3.2's pluggable
//! partitioning function, realized as `PartitionKind`).
//!
//! The paper's motivation (§1): kernels operate on data laid out by a
//! larger application — e.g. a ScaLAPACK-style block-cyclic layout — and
//! DISTAL "lets users specialize computation to the way that data is
//! already laid out, or easily transform data between distributed layouts".
//! These tests place tensors in cyclic layouts and verify that computation
//! still produces oracle-exact results, with the runtime's coherence layer
//! supplying the implied redistribution traffic.

use distal::prelude::*;
use std::collections::BTreeMap;

mod common;
use common::run_against_oracle;

fn problem_with_formats(n: i64, formats: &BTreeMap<&str, Format>) -> Problem {
    let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
    let mut p = Problem::new(MachineSpec::small(4), machine);
    p.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
    for (name, f) in formats {
        p.tensor(TensorSpec::new(*name, vec![n, n], f.clone()))
            .unwrap();
    }
    p.fill_random("B", 3).unwrap();
    p.fill_random("C", 5).unwrap();
    p
}

#[test]
fn summa_on_block_cyclic_inputs_matches_oracle() {
    // Inputs arrive in a ScaLAPACK-flavored 2-D block-cyclic layout; the
    // output uses plain tiles. The compute schedule is unchanged SUMMA —
    // schedules affect performance, not correctness (§3.3).
    let mut formats = BTreeMap::new();
    formats.insert("A", Format::parse("xy->xy", MemKind::Sys).unwrap());
    formats.insert("B", Format::parse("xy->xy @bc2", MemKind::Sys).unwrap());
    formats.insert("C", Format::parse("xy->xy @cyclic", MemKind::Sys).unwrap());
    let p = problem_with_formats(16, &formats);
    run_against_oracle(
        &RuntimeBackend::functional(),
        &p,
        &Schedule::summa(2, 2, 8),
        1e-9,
    );
}

#[test]
fn cyclic_output_layout_matches_oracle() {
    // Even the *output* may live in a cyclic layout: the final gather runs
    // per-piece and must reassemble stripes correctly.
    let mut formats = BTreeMap::new();
    formats.insert("A", Format::parse("xy->xy @cyclic", MemKind::Sys).unwrap());
    formats.insert("B", Format::parse("xy->xy", MemKind::Sys).unwrap());
    formats.insert("C", Format::parse("xy->xy", MemKind::Sys).unwrap());
    let p = problem_with_formats(12, &formats);
    run_against_oracle(
        &RuntimeBackend::functional(),
        &p,
        &Schedule::summa(2, 2, 6),
        1e-9,
    );
}

#[test]
fn matching_layout_moves_less_than_mismatched() {
    // "Code can shape to data so that data may stay at rest" (§8): placing
    // tiled data into a tiled format is free-ish, while redistributing a
    // block-cyclic layout into tiles pays real traffic. We compare the
    // placement traffic of a kernel whose inputs match its schedule against
    // one whose inputs are cyclic.
    let n = 32;
    let tiled = Format::parse("xy->xy", MemKind::Sys).unwrap();
    let cyclic = Format::parse("xy->xy @cyclic", MemKind::Sys).unwrap();

    let run = |input_fmt: &Format| -> f64 {
        let mut formats = BTreeMap::new();
        formats.insert("A", tiled.clone());
        formats.insert("B", input_fmt.clone());
        formats.insert("C", input_fmt.clone());
        let p = problem_with_formats(n, &formats);
        let mut instance = RuntimeBackend::functional()
            .compile_typed(&p, &Schedule::summa(2, 2, 16))
            .unwrap();
        instance.place_stats().unwrap();
        let compute = instance.execute_stats().unwrap();
        compute.bytes_by_class.values().sum::<u64>() as f64
    };

    let matched = run(&tiled);
    let mismatched = run(&cyclic);
    assert!(
        mismatched > matched,
        "cyclic-held inputs should force extra compute-side traffic: \
         matched={matched} mismatched={mismatched}"
    );
}

#[test]
fn cyclic_placement_piece_counts() {
    // Structural check on the compiled placement program: a cyclic format
    // on a 2x2 grid stripes a 16x16 matrix into 8x8 single-row-group
    // pieces per processor.
    let cyclic = Format::parse("xy->xy @cyclic", MemKind::Sys).unwrap();
    let mut formats = BTreeMap::new();
    formats.insert("A", Format::parse("xy->xy", MemKind::Sys).unwrap());
    formats.insert("B", cyclic.clone());
    formats.insert("C", cyclic);
    let plan = RuntimeBackend::functional()
        .plan_typed(
            &problem_with_formats(16, &formats),
            &Schedule::summa(2, 2, 8),
        )
        .unwrap();
    let k = plan.kernel();
    // Placement: still one task per (tensor, processor)...
    assert_eq!(k.placement.task_count(), 12);
    // ...but the cyclic tensors' tasks carry 8x8 = 64 stripe requirements.
    let max_reqs = k
        .placement
        .ops
        .iter()
        .filter_map(|op| match op {
            distal::runtime::program::Op::IndexLaunch(l) => {
                Some(l.tasks.iter().map(|t| t.reqs.len()).max().unwrap_or(0))
            }
            _ => None,
        })
        .max()
        .unwrap();
    assert_eq!(max_reqs, 64);
}
