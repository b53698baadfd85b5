//! End-to-end `precompute` (paper §2): factoring a statement through a
//! workspace tensor must preserve the result while (for chain products)
//! reducing asymptotic work.

use distal::core::oracle;
use distal::prelude::*;
use std::collections::BTreeMap;

fn dist_1d(p: i64) -> Schedule {
    Schedule::new()
        .divide("i", "io", "ii", p)
        .reorder(&["io", "ii"])
        .distribute(&["io"])
}

/// A problem on a line of `p` sockets: `(name, dims, format)` per
/// tensor, output first, inputs seeded from `seed` upwards.
fn problem(p: i64, expr: &str, tensors: &[(&str, Vec<i64>, &Format)], seed: u64) -> Problem {
    let machine = DistalMachine::flat(Grid::line(p), ProcKind::Cpu);
    let mut problem = Problem::new(MachineSpec::small(2), machine);
    problem.statement(expr).unwrap();
    for (idx, (name, dims, format)) in tensors.iter().enumerate() {
        problem
            .tensor(TensorSpec::new(*name, dims.clone(), (*format).clone()))
            .unwrap();
        if idx > 0 {
            problem.fill_random(name, seed + idx as u64).unwrap();
        }
    }
    problem
}

/// Runs the two stages of a precompute split in order on `backend`,
/// feeding the workspace the first stage computed into the second.
/// Returns the final output and the stages' total flops.
fn run_staged(
    backend: &dyn Backend,
    (ws, mut rest): (Problem, Problem),
    schedule: &Schedule,
) -> (Vec<f64>, f64) {
    let workspace = ws.assignment().unwrap().lhs.tensor.clone();
    let mut first = backend.compile(&ws, schedule).unwrap();
    let mut flops = first.run().unwrap().flops;
    rest.set_data(&workspace, first.read(&workspace).unwrap())
        .unwrap();
    let mut second = backend.compile(&rest, schedule).unwrap();
    flops += second.run().unwrap().flops;
    let output = &rest.assignment().unwrap().lhs.tensor;
    (second.read(output).unwrap(), flops)
}

/// Asserts `got` is the oracle's answer for the fused statement on the
/// problem's own initial data.
fn assert_fused_oracle(fused: &Problem, got: &[f64], what: &str) {
    let assignment = fused.assignment().unwrap();
    let inputs: BTreeMap<String, Vec<f64>> = assignment
        .input_accesses()
        .iter()
        .map(|acc| (acc.tensor.clone(), fused.initial_data(&acc.tensor).unwrap()))
        .collect();
    oracle::check(assignment, &fused.dims_map(), &inputs, got, 1e-9)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
}

#[test]
fn triple_product_precompute_matches_oracle_and_saves_flops() {
    let (n, p) = (12i64, 4i64);
    let rows = Format::parse("xy->x", MemKind::Sys).unwrap();
    let sq = vec![n, n];
    let fused = problem(
        p,
        "A(i,l) = B(i,j) * C(j,k) * D(k,l)",
        &[
            ("A", sq.clone(), &rows),
            ("B", sq.clone(), &rows),
            ("C", sq.clone(), &rows),
            ("D", sq, &rows),
        ],
        3,
    );
    // Fused reference (for the flops comparison).
    let mut reference = RuntimeBackend::functional()
        .compile(&fused, &dist_1d(p))
        .unwrap();
    let fused_flops = reference.run().unwrap().flops;

    // Staged pipeline through the workspace T(i,k) = B(i,j) * C(j,k), on
    // the dynamic runtime and on the static SPMD backend alike.
    for backend in [
        &RuntimeBackend::functional() as &dyn Backend,
        &SpmdBackend::new(),
    ] {
        let stages = fused
            .precompute(&["B", "C"], "T", &["i", "k"], rows.clone())
            .unwrap();
        let (got, staged_flops) = run_staged(backend, stages, &dist_1d(p));
        // O(n^3) + O(n^3) << O(n^4).
        assert!(
            staged_flops < fused_flops / 2.0,
            "{}: staged {staged_flops} vs fused {fused_flops}",
            backend.name()
        );
        assert_fused_oracle(&fused, &got, backend.name());
    }
}

#[test]
fn mttkrp_workspace_formulation_matches_fused() {
    let (n, l, p) = (8i64, 4i64, 2i64);
    let f3 = Format::parse("xyz->x", MemKind::Sys).unwrap();
    let f2 = Format::parse("xy->x", MemKind::Sys).unwrap();
    let fused = problem(
        p,
        "A(i,l) = B(i,j,k) * C(j,l) * D(k,l)",
        &[
            ("A", vec![n, l], &f2),
            ("B", vec![n, n, n], &f3),
            ("C", vec![n, l], &f2),
            ("D", vec![n, l], &f2),
        ],
        0xD0,
    );
    let stages = fused
        .precompute(&["B", "D"], "T", &["i", "j", "l"], f3)
        .unwrap();
    assert_eq!(
        format!("{}", stages.0.assignment().unwrap()),
        "T(i, j, l) = B(i, j, k) * D(k, l)"
    );
    let (got, _) = run_staged(&RuntimeBackend::functional(), stages, &dist_1d(p));
    assert_fused_oracle(&fused, &got, "runtime");
}

#[test]
fn workspace_name_collision_rejected() {
    let rows = Format::parse("xy->x", MemKind::Sys).unwrap();
    let sq = vec![4, 4];
    let fused = problem(
        2,
        "A(i,l) = B(i,j) * C(j,k) * D(k,l)",
        &[
            ("A", sq.clone(), &rows),
            ("B", sq.clone(), &rows),
            ("C", sq.clone(), &rows),
            ("D", sq, &rows),
        ],
        1,
    );
    // "D" collides with a tensor of the statement.
    let err = fused
        .precompute(&["B", "C"], "D", &["i", "k"], rows)
        .unwrap_err();
    assert!(matches!(err, CompileError::Expression(_)));
}
