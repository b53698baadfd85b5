//! Integration test: the Figure 2 program end-to-end — format language,
//! scheduling language, compilation, placement, execution, and numerics.

use distal::prelude::*;

mod common;

#[test]
fn figure2_summa_on_gpus_matches_oracle() {
    let machine = DistalMachine::flat(Grid::grid2(2, 4), ProcKind::Gpu);
    let mut problem = Problem::new(MachineSpec::small(2), machine);
    problem.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
    let n = 32;
    let tiles = Format::parse("xy->xy", MemKind::Fb).unwrap();
    for name in ["A", "B", "C"] {
        problem
            .tensor(TensorSpec::new(name, vec![n, n], tiles.clone()))
            .unwrap();
    }
    problem.fill_random("B", 1).unwrap();
    problem.fill_random("C", 2).unwrap();

    let schedule = Schedule::new()
        .distribute_onto(&["i", "j"], &["io", "jo"], &["ii", "ji"], &[2, 4])
        .split("k", "ko", "ki", 8)
        .reorder(&["io", "jo", "ko", "ii", "ji", "ki"])
        .communicate(&["A"], "jo")
        .communicate(&["B", "C"], "ko");
    let (instance, place, compute) =
        common::run_against_oracle(&RuntimeBackend::functional(), &problem, &schedule, 1e-9);
    let kernel = instance.kernel();

    // The scheduled statement reads like the paper's concrete index
    // notation, with the s.t. relation trail.
    let cin = format!("{}", kernel.cin);
    assert!(cin.starts_with("∀io ∀jo ∀ko ∀ii ∀ji ∀ki A(i, j) += B(i, k) * C(k, j)"));
    assert!(cin.contains("s.t."));
    assert!(cin.contains("communicate({B, C}, ko)"));

    // 8 launch points over the GPU grid.
    assert_eq!(kernel.launch_domain, vec![2, 4]);

    // Placement moves data from staging; compute communicates per chunk.
    assert!(place.tasks > 0);
    assert!(compute.tasks > 0);
    assert_eq!(compute.total_flops, 2.0 * (n as f64).powi(3));
}

#[test]
fn figure2_fifteen_line_schedule_is_fifteen_lines() {
    // The paper stresses that the full distribution-related scheduling for
    // a GEMM is ~15 lines; our builder records one command per line.
    let schedule = Schedule::summa(4, 4, 256);
    assert!(schedule.commands().len() <= 8);
}
