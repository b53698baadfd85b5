//! Property-based integration tests: compiled distributed execution always
//! agrees with the sequential oracle, across randomized shapes, grids,
//! schedules, and distribution notations.

use distal::prelude::*;
use proptest::prelude::*;

mod common;
use common::run_against_oracle;

/// A problem for `expr` on `machine`: `(name, dims, notation)` per
/// tensor, output first, inputs seeded from `seed` upwards.
fn problem(
    machine: DistalMachine,
    expr: &str,
    tensors: &[(&str, Vec<i64>, &str)],
    seed: u64,
) -> Problem {
    let mut p = Problem::new(MachineSpec::small(4), machine);
    p.statement(expr).unwrap();
    for (idx, (name, dims, notation)) in tensors.iter().enumerate() {
        let format = Format::parse(notation, MemKind::Sys).unwrap();
        p.tensor(TensorSpec::new(*name, dims.clone(), format))
            .unwrap();
        if idx > 0 {
            p.fill_random(name, seed + idx as u64 - 1).unwrap();
        }
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rectangular matmul with a random grid and chunk always matches the
    /// oracle.
    #[test]
    fn summa_rectangular_matches_oracle(
        m in 2i64..14,
        n in 2i64..14,
        k in 2i64..14,
        gx in 1i64..3,
        gy in 1i64..3,
        chunk in 1i64..8,
    ) {
        let p = problem(
            DistalMachine::flat(Grid::grid2(gx, gy), ProcKind::Cpu),
            "A(i,j) = B(i,k) * C(k,j)",
            &[("A", vec![m, n], "xy->xy"), ("B", vec![m, k], "xy->xy"), ("C", vec![k, n], "xy->xy")],
            3,
        );
        run_against_oracle(&RuntimeBackend::functional(), &p, &Schedule::summa(gx, gy, chunk), 1e-9);
    }

    /// TTV with random extents and processor counts moves no inter-node
    /// bytes and matches the oracle.
    #[test]
    fn ttv_random_extents(n in 2i64..8, procs in 1i64..5) {
        let p = problem(
            DistalMachine::flat(Grid::line(procs), ProcKind::Cpu),
            "A(i,j) = B(i,j,k) * c(k)",
            &[("A", vec![n, n], "xy->x"), ("B", vec![n, n, n], "xyz->x"), ("c", vec![n], "x->*")],
            5,
        );
        let schedule = Schedule::new()
            .distribute_onto(&["i"], &["io"], &["ii"], &[procs])
            .communicate(&["A", "B", "c"], "io");
        let (_, _, stats) = run_against_oracle(&RuntimeBackend::functional(), &p, &schedule, 1e-9);
        prop_assert_eq!(stats.inter_node_bytes(), 0);
    }

    /// Random valid distribution notations partition the tensor exactly:
    /// every coordinate is owned, and total tile volume is the tensor
    /// volume times the product of broadcast dimension extents.
    #[test]
    fn distribution_notation_partitions_exactly(
        tx in 2i64..7,
        ty in 2i64..7,
        mx in 1i64..4,
        my in 1i64..4,
        style in 0usize..4,
    ) {
        let (notation, machine, replication) = match style {
            0 => ("xy->xy".to_string(), Grid::grid2(mx, my), 1),
            1 => ("xy->x".to_string(), Grid::line(mx), 1),
            2 => ("xy->xy*".to_string(), Grid::grid3(mx, my, 2), 2),
            _ => ("xy->xy0".to_string(), Grid::grid3(mx, my, 2), 1),
        };
        let dist = TensorDistribution::parse(&notation).unwrap();
        let rect = Rect::sized(&[tx, ty]);
        let placement = dist.placement(&rect, &machine);
        let total: i64 = placement.iter().map(|(_, t)| t.volume()).sum();
        prop_assert_eq!(total, rect.volume() * replication);
        // Every coordinate has at least one owner.
        for c in rect.points() {
            prop_assert!(!dist.owners_of(&rect, &machine, &c).is_empty());
        }
    }

    /// Substituting the interpreter for the GEMM leaf (and vice versa where
    /// legal) never changes results — substitution affects the leaf
    /// implementation only.
    #[test]
    fn leaf_substitution_is_semantically_inert(n in 2i64..12, chunk in 1i64..6) {
        let run = |leaf: LeafKind| -> Vec<f64> {
            let p = problem(
                DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu),
                "A(i,j) = B(i,k) * C(k,j)",
                &[("A", vec![n, n], "xy->xy"), ("B", vec![n, n], "xy->xy"), ("C", vec![n, n], "xy->xy")],
                9,
            );
            let schedule = Schedule::new()
                .distribute_onto(&["i", "j"], &["io", "jo"], &["ii", "ji"], &[2, 2])
                .split("k", "ko", "ki", chunk)
                .reorder(&["io", "jo", "ko", "ii", "ji", "ki"])
                .communicate(&["A"], "jo")
                .communicate(&["B", "C"], "ko")
                .substitute(&["ii", "ji", "ki"], leaf);
            let mut instance = p.compile(&RuntimeBackend::functional(), &schedule).unwrap();
            instance.run().unwrap();
            instance.read("A").unwrap()
        };
        let gemm = run(LeafKind::Gemm);
        let interp = run(LeafKind::Interpreter);
        let auto = run(LeafKind::Auto);
        for ((g, i), a) in gemm.iter().zip(interp.iter()).zip(auto.iter()) {
            prop_assert!((g - i).abs() < 1e-12);
            prop_assert!((g - a).abs() < 1e-12);
        }
    }

    /// The generic interpreter handles arbitrary two-operand element-wise
    /// expressions with add and mul.
    #[test]
    fn elementwise_expressions_match_oracle(n in 2i64..10, use_add in proptest::bool::ANY) {
        let expr = if use_add { "A(i) = B(i) + C(i)" } else { "A(i) = B(i) * C(i)" };
        let p = problem(
            DistalMachine::flat(Grid::line(2), ProcKind::Cpu),
            expr,
            &[("A", vec![n], "x->x"), ("B", vec![n], "x->x"), ("C", vec![n], "x->x")],
            7,
        );
        let schedule = Schedule::new()
            .distribute_onto(&["i"], &["io"], &["ii"], &[2])
            .communicate(&["A", "B", "C"], "io");
        run_against_oracle(&RuntimeBackend::functional(), &p, &schedule, 1e-12);
    }
}

#[test]
fn gemm_substitution_on_non_matmul_is_rejected() {
    // Figure 2's CuBLAS substitution is only legal for matmul-shaped
    // statements; the compiler must refuse it elsewhere.
    let p = problem(
        DistalMachine::flat(Grid::line(2), ProcKind::Cpu),
        "A(i,j) = B(i,j) + C(i,j)",
        &[
            ("A", vec![4, 4], "xy->x"),
            ("B", vec![4, 4], "xy->x"),
            ("C", vec![4, 4], "xy->x"),
        ],
        1,
    );
    let schedule = Schedule::new().substitute(&["i", "j"], LeafKind::Gemm);
    let err = RuntimeBackend::functional()
        .plan_typed(&p, &schedule)
        .unwrap_err();
    assert!(
        matches!(err, BackendError::Compile(CompileError::BadSubstitution(_))),
        "{err}"
    );
}
