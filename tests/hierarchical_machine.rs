//! Integration test: hierarchical machines and hierarchical formats
//! (paper §3.1-3.2): nodes arranged in a grid, each node a grid of GPUs,
//! with per-level tensor distributions, placed and computed alike on the
//! runtime and the SPMD backend.

use distal::prelude::*;

mod common;

#[test]
fn two_level_format_places_and_computes() {
    // Node tiles row-partitioned across each node's GPUs.
    let (problem, schedule) = common::two_level_matmul(32, "xy->x");
    let (instance, place, _compute) =
        common::run_against_oracle(&RuntimeBackend::functional(), &problem, &schedule, 1e-9);
    assert_eq!(instance.kernel().launch_domain, vec![2, 2, 4]);
    assert!(place.tasks > 0);
    // The SPMD backend places by the same rule, so every rank VM run
    // reads the runtime's bits, from plans the static verifier passes.
    let agreed = common::assert_every_executor_agrees(&problem, &schedule, &LintConfig::new(), "A");
    assert_eq!(agreed, instance.read("A").unwrap());
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
