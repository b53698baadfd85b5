//! Integration test: hierarchical machines and hierarchical formats
//! (paper §3.1-3.2): nodes arranged in a grid, each node a grid of GPUs,
//! with per-level tensor distributions.

use distal::prelude::*;

mod common;

#[test]
fn two_level_format_places_and_computes() {
    // 4 nodes in a 2x2 grid, 4 GPUs per node in a line: 2x2x4 flattened.
    let machine =
        DistalMachine::hierarchical(vec![Grid::grid2(2, 2), Grid::line(4)], ProcKind::Gpu);
    let mut problem = Problem::new(MachineSpec::small(4), machine);
    problem.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
    let n = 32;
    // Outer level: 2D tiles across nodes. Inner level: row-partition each
    // node tile across the node's GPUs (the paper's Lassen modelling).
    let format = Format::hierarchical(
        vec![
            TensorDistribution::parse("xy->xy").unwrap(),
            TensorDistribution::parse("xy->x").unwrap(),
        ],
        MemKind::Fb,
    );
    for name in ["A", "B", "C"] {
        problem
            .tensor(TensorSpec::new(name, vec![n, n], format.clone()))
            .unwrap();
    }
    problem.fill_random("B", 21).unwrap();
    problem.fill_random("C", 22).unwrap();

    // Schedule over the flattened 2x2x4 grid: distribute i by (2*4) and j
    // by 2, mirroring the hierarchical tiling (nodes x GPUs on rows).
    let schedule = Schedule::new()
        .divide("i", "ino", "ii", 2)
        .divide("ii", "ig", "il", 4)
        .divide("j", "jo", "ji", 2)
        .reorder(&["ino", "jo", "ig", "il", "ji", "k"])
        .distribute(&["ino", "jo", "ig"])
        .communicate(&["A", "B", "C"], "ig");
    // `i` is distributed twice, once per machine level, which admission
    // accepts on a two-level machine.
    let (instance, place, _compute) =
        common::run_against_oracle(&RuntimeBackend::functional(), &problem, &schedule, 1e-9);
    assert_eq!(instance.kernel().launch_domain, vec![2, 2, 4]);
    assert!(place.tasks > 0);
}

#[test]
fn hierarchical_placement_respects_levels() {
    // Placement tiles across the flattened hierarchy partition the tensor.
    let machine =
        DistalMachine::hierarchical(vec![Grid::grid2(2, 2), Grid::line(4)], ProcKind::Gpu);
    let mut problem = Problem::new(MachineSpec::small(4), machine);
    let format = Format::hierarchical(
        vec![
            TensorDistribution::parse("xy->xy").unwrap(),
            TensorDistribution::parse("xy->x").unwrap(),
        ],
        MemKind::Fb,
    );
    // Plan a trivial element-wise statement to obtain a placement program
    // for T.
    problem.statement("U(x,y) = T(x,y)").unwrap();
    for name in ["T", "U"] {
        problem
            .tensor(TensorSpec::new(name, vec![64, 64], format.clone()))
            .unwrap();
    }
    let plan = RuntimeBackend::model()
        .plan_typed(&problem, &Schedule::new())
        .unwrap();
    // One placement task per leaf processor per tensor: 16 GPUs x 2.
    assert_eq!(plan.kernel().placement.task_count(), 32);
}
