//! Randomized end-to-end einsums: DISTAL claims to handle *any* tensor
//! index notation statement (§2), not just the named kernels. This test
//! generates random expressions (random arities, random variable structure,
//! scalar and tensor outputs), schedules them generically, and compiles
//! each resulting `Problem` through the unified pipeline onto *both*
//! executable backends, checking each against the oracle.

use distal::core::oracle;
use distal::prelude::*;
use std::collections::BTreeMap;

mod common;
use common::{format_1d, generate, schedule_1d, Rng};

#[test]
fn random_einsums_match_oracle_on_both_backends() {
    let mut rng = Rng(0xD15_7A1);
    let p = 3i64;
    let mut checked = 0;
    for round in 0..60 {
        let case = generate(&mut rng);
        // Distribute the first output variable, or the first variable of
        // the statement for scalar outputs (distributed reduction).
        let assignment = match distal::ir::expr::Assignment::parse(&case.expr) {
            Ok(a) => a,
            Err(e) => panic!("generated invalid expression '{}': {e}", case.expr),
        };
        let all_vars: Vec<String> = assignment.all_vars().iter().map(|v| v.0.clone()).collect();
        let dist_var = case
            .out_vars
            .first()
            .cloned()
            .unwrap_or_else(|| all_vars[0].clone());
        let schedule = schedule_1d(&case, &all_vars, &dist_var, p);

        // One problem, two backends.
        let machine = DistalMachine::flat(Grid::line(p), ProcKind::Cpu);
        let mut problem = Problem::new(MachineSpec::small(2), machine);
        problem.set_assignment(assignment);
        let mut inputs: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (name, dims) in &case.dims {
            let format = if name == &case.out && case.out_vars.is_empty() {
                Format::undistributed()
            } else if name == &case.out {
                format_1d(&case.out_vars, &dist_var)
            } else {
                let idx = if name == "B" { 0 } else { 1 };
                format_1d(&case.input_vars[idx], &dist_var)
            };
            problem
                .tensor(TensorSpec::new(name.clone(), dims.clone(), format))
                .unwrap_or_else(|e| panic!("{}: {e}", case.expr));
            if name != &case.out {
                let len = dims.iter().product::<i64>().max(1) as usize;
                let data = rng.data(len);
                problem.set_data(name, data.clone()).unwrap();
                inputs.insert(name.clone(), data);
            }
        }
        let want = oracle::evaluate(problem.assignment().unwrap(), &case.dims, &inputs)
            .unwrap_or_else(|e| panic!("{}: {e}", case.expr));

        for backend in [
            &RuntimeBackend::functional() as &dyn Backend,
            &SpmdBackend::new(),
        ] {
            let mut artifact = backend.compile(&problem, &schedule).unwrap_or_else(|e| {
                panic!("{} [{}] (dist {dist_var}): {e}", case.expr, backend.name())
            });
            artifact
                .run()
                .unwrap_or_else(|e| panic!("{} [{}]: {e}", case.expr, backend.name()));
            let got = artifact.read(&case.out).unwrap();
            oracle::compare(&got, &want, 1e-9).unwrap_or_else(|e| {
                panic!("round {round} '{}' [{}]: {e}", case.expr, backend.name())
            });
        }
        checked += 1;
        let _ = &case.extents;
    }
    assert_eq!(checked, 60);
}

#[test]
fn addition_expression_matches_oracle() {
    // Additions lower through the same pipeline (§2 allows + of accesses).
    let p = 2i64;
    let machine = DistalMachine::flat(Grid::line(p), ProcKind::Cpu);
    let mut problem = Problem::new(MachineSpec::small(1), machine);
    problem.statement("A(i,j) = B(i,j) + C(i,j)").unwrap();
    let rows = Format::parse("xy->x", MemKind::Sys).unwrap();
    for t in ["A", "B", "C"] {
        problem
            .tensor(TensorSpec::new(t, vec![6, 5], rows.clone()))
            .unwrap();
        if t != "A" {
            problem.fill_random(t, t.len() as u64).unwrap();
        }
    }
    let schedule = Schedule::new()
        .divide("i", "io", "ii", p)
        .reorder(&["io", "ii", "j"])
        .distribute(&["io"])
        .communicate(&["A", "B", "C"], "io");
    common::run_against_oracle(&RuntimeBackend::functional(), &problem, &schedule, 1e-9);
}
