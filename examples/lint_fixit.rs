//! Schedule admission in action: plan a *broken* SUMMA schedule, read the
//! structured diagnostics (kind, offending command index, fix-it hint),
//! apply the fixes they suggest, and re-plan clean — with every lint
//! promoted to an error (`LintConfig::deny_all()`), so even performance
//! findings would have blocked admission.
//!
//! The admission linter runs inside every `Backend::plan`, *before*
//! lowering: a rejected schedule costs no compilation time, and the same
//! passes prune illegal candidates out of the autoscheduler's search
//! space before costing.
//!
//! Run with `cargo run --release --example lint_fixit`.

use distal::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 2x2 machine and the Figure 2 matmul, tensors in 2D tiles.
    let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
    let mut problem = Problem::new(MachineSpec::small(2), machine);
    problem.statement("A(i,j) = B(i,k) * C(k,j)")?;
    let tiles = Format::parse("xy->xy", MemKind::Sys)?;
    for name in ["A", "B", "C"] {
        problem.tensor(TensorSpec::new(name, vec![64, 64], tiles.clone()))?;
    }
    problem.fill_random("B", 0xB)?.fill_random("C", 0xC)?;

    // A SUMMA schedule with two bugs: it distributes onto a 4x1 grid
    // (the machine is 2x2), and aggregates A at a loop that no command
    // ever introduced.
    let broken = Schedule::new()
        .distribute_onto(&["i", "j"], &["io", "jo"], &["ii", "ji"], &[4, 1])
        .split("k", "ko", "ki", 16)
        .reorder(&["io", "jo", "ko", "ii", "ji", "ki"])
        .communicate(&["A"], "col")
        .communicate(&["B", "C"], "ko");

    let strict = RuntimeBackend::functional().with_lints(LintConfig::deny_all());
    println!("planning the broken schedule...");
    let Err(BackendError::Verification(diags)) = strict.plan(&problem, &broken) else {
        panic!("the broken schedule must be rejected at admission");
    };
    println!("rejected with {} findings:", diags.len());
    for d in &diags {
        println!("  {d}");
    }
    assert!(diags
        .iter()
        .any(|d| d.kind == DiagnosticKind::GridMismatch && d.command == Some(0)));
    assert!(diags
        .iter()
        .any(|d| d.kind == DiagnosticKind::BadCommunicate && d.command == Some(3)));

    // Apply both fix-its: distribute onto 2x2 (the machine grid) and
    // aggregate at a loop the schedule actually has — which is exactly
    // the textbook SUMMA schedule.
    println!("\napplying the fix-its and re-planning...");
    let fixed = Schedule::summa(2, 2, 16);
    let mut artifact = strict.compile(&problem, &fixed)?;
    let report = artifact.run()?;
    println!("admitted clean under deny-all and ran: {report}");
    assert!(report.diagnostics.is_empty());
    println!("ok");
    Ok(())
}
