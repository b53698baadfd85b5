//! What `distal-core` decides once, both backends report alike: a problem
//! or schedule the shared lowering refuses is one typed `CompileError` on
//! the runtime backend and on the SPMD backend (executing or pricing), and
//! both run the same leaf for the same statement, so they agree with each
//! other even on operands holding Inf or NaN — and with the interpreter
//! too, unless the sparse leaf skips an unstored entry opposite one. A bound
//! output means one thing too: `=` ignores it on every backend, and a
//! `+=` adds to it whatever the schedule.

use distal::prelude::*;

/// `A(i,j) = B(i,k) * C(k,j)` on a 2x2 machine with `A` and `B` 8x8 and
/// `C` of shape `c_dims`, every tensor tiled over the grid's two axes.
fn matmul_with_c(c_dims: Vec<i64>) -> Problem {
    let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
    let mut problem = Problem::new(MachineSpec::small(2), machine);
    problem.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
    for (name, dims) in [("A", vec![8, 8]), ("B", vec![8, 8]), ("C", c_dims)] {
        let notation = if dims.len() == 3 { "xyz->xy" } else { "xy->xy" };
        let tiles = Format::parse(notation, MemKind::Sys).unwrap();
        problem.tensor(TensorSpec::new(name, dims, tiles)).unwrap();
    }
    problem
}

/// TTV `A(i,j) = B(i,j,k) * c(k)` on a 2-rank line with a +0.0 at
/// `B(0, 0, 1)` and `c = [0.5, Inf, -1.5, 2.0]`, rows of `i` distributed;
/// `compressed` names the operand stored compressed (`B` as `dds`, `c` as
/// `s`), the other is dense.
fn ttv_with_an_inf(compressed: &str) -> (Problem, Schedule) {
    let n = 4;
    let machine = DistalMachine::flat(Grid::line(2), ProcKind::Cpu);
    let mut problem = Problem::new(MachineSpec::small(2), machine);
    problem.statement("A(i,j) = B(i,j,k) * c(k)").unwrap();
    let rows = Format::parse("xy->x", MemKind::Sys).unwrap();
    let (b, c) = match compressed {
        "B" => (
            Format::parse_levels("xyz->x", "dds", MemKind::Sys).unwrap(),
            Format::undistributed(),
        ),
        _ => (
            Format::parse("xyz->x", MemKind::Sys).unwrap(),
            Format::undistributed().with_levels(vec![LevelFormat::Compressed]),
        ),
    };
    for (name, dims, format) in [
        ("A", vec![n, n], rows),
        ("B", vec![n, n, n], b),
        ("c", vec![n], c),
    ] {
        problem.tensor(TensorSpec::new(name, dims, format)).unwrap();
    }
    problem.set_data("B", ttv_b(n)).unwrap();
    let c = vec![0.5, f64::INFINITY, -1.5, 2.0];
    problem.set_data("c", c).unwrap();
    let schedule = Schedule::new()
        .divide("i", "io", "ii", 2)
        .reorder(&["io", "ii"])
        .distribute(&["io"]);
    (problem, schedule)
}

/// The `B` of [`ttv_with_an_inf`], `n³` row-major.
fn ttv_b(n: i64) -> Vec<f64> {
    let mut b = distal::core::random_data((n * n * n) as usize, 0xB);
    b[1] = 0.0;
    b
}

#[test]
fn every_lowering_error_is_one_typed_error_on_both_backends() {
    // With admission out of the way, whatever the shared nest analysis,
    // launch check or leaf choice refuses is the same
    // `BackendError::Compile` from the runtime backend and from the SPMD
    // backend, each executing or pricing.
    let summa = Schedule::summa(2, 2, 4);
    // One more sequential loop than a coordinate holds.
    let depth = distal::machine::geom::MAX_DIM + 1;
    let (mut deep, mut rest) = (Schedule::new(), "i".to_string());
    for level in 1..=depth {
        let inner = format!("r{level}");
        deep = deep.divide(&rest, &format!("i{level}"), &inner, 1);
        rest = inner;
    }
    let deep = deep.communicate(&["B"], &format!("i{depth}"));
    let (ttv, ttv_schedule) = ttv_with_an_inf("B");
    let cases = [
        (
            "unknown loop variable",
            matmul_with_c(vec![8, 8]),
            Schedule::new().divide("z", "zo", "zi", 2),
        ),
        (
            "mis-ranked access",
            matmul_with_c(vec![8, 8, 8]),
            summa.clone(),
        ),
        ("inconsistent extents", matmul_with_c(vec![6, 8]), summa),
        ("over-deep sequential band", matmul_with_c(vec![8, 8]), deep),
        (
            "GEMM substitution on a non-matmul",
            ttv,
            ttv_schedule.substitute(&["ii"], LeafKind::Gemm),
        ),
        (
            "launch domain larger than the machine",
            matmul_with_c(vec![8, 8]),
            Schedule::summa(4, 4, 2),
        ),
    ];
    let lints = LintConfig::allow_all();
    let backends: [(&str, Box<dyn Backend>); 4] = [
        (
            "runtime",
            Box::new(RuntimeBackend::functional().with_lints(lints.clone())),
        ),
        (
            "runtime model",
            Box::new(RuntimeBackend::model().with_lints(lints.clone())),
        ),
        (
            "spmd",
            Box::new(SpmdBackend::new().with_lints(lints.clone())),
        ),
        (
            "spmd model",
            Box::new(CostBackend::alpha_beta(AlphaBeta::default()).with_lints(lints)),
        ),
    ];
    for (what, problem, schedule) in cases {
        let errors: Vec<CompileError> = backends
            .iter()
            .map(|(which, backend)| match backend.plan(&problem, &schedule) {
                Err(BackendError::Compile(e)) => e,
                other => panic!("{what} on {which}: {:?}", other.err()),
            })
            .collect();
        assert!(errors.iter().all(|e| *e == errors[0]), "{what}: {errors:?}");
        let named = match &errors[0] {
            CompileError::Schedule(_) => "unknown loop variable",
            CompileError::Format(_) => "mis-ranked access",
            CompileError::InconsistentExtents => "inconsistent extents",
            CompileError::TooManyDims { .. } => "over-deep sequential band",
            CompileError::BadSubstitution(_) => "GEMM substitution on a non-matmul",
            // The 4x4 launch needs 16 of the 2x2 machine's 4 processors.
            CompileError::GridTooLarge {
                required: 16,
                available: 4,
            } => "launch domain larger than the machine",
            other => panic!("{what}: unexpected {other:?}"),
        };
        assert_eq!(what, named, "{:?}", errors[0]);
    }
}

/// The two matmul schedules a 2x2 machine runs: SUMMA (`k` stepped, the
/// output accumulated across steps) and owner-computes (`k` whole in the
/// leaf, the output written once).
fn matmul_schedules() -> [(&'static str, Schedule); 2] {
    let owner_computes = Schedule::new()
        .distribute_onto(&["i", "j"], &["io", "jo"], &["ii", "ji"], &[2, 2])
        .reorder(&["io", "jo", "ii", "ji", "k"])
        .communicate(&["A", "B", "C"], "jo");
    [
        ("summa", Schedule::summa(2, 2, 4)),
        ("owner-computes", owner_computes),
    ]
}

/// Compiles and runs `problem` under `schedule` on `backend`, reading `A`.
fn read_a(
    problem: &Problem,
    backend: &dyn Backend,
    schedule: &Schedule,
) -> Result<Vec<f64>, BackendError> {
    let mut instance = backend.compile(problem, schedule)?;
    instance.run()?;
    instance.read("A")
}

/// `statement`, a matmul into `A`, over 8x8 tiled tensors with `B` and `C`
/// seeded, beside `B·C` by the sequential oracle.
fn seeded_matmul(statement: &str) -> (Problem, Vec<f64>) {
    let mut problem = matmul_with_c(vec![8, 8]);
    problem.statement(statement).unwrap();
    problem.fill_random("B", 1).unwrap();
    problem.fill_random("C", 2).unwrap();
    let inputs = ["B", "C"].map(|t| (t.to_string(), problem.initial_data(t).unwrap()));
    let (assignment, dims) = (problem.assignment().unwrap(), problem.dims_map());
    let product = distal::core::oracle::evaluate(assignment, &dims, &inputs.into()).unwrap();
    (problem, product)
}

#[test]
fn an_assignment_overwrites_a_bound_output_on_every_backend() {
    // `A = B*C` with `A` bound to 1.0: every backend ignores the
    // initializer, bit for bit, under either schedule.
    let (mut problem, product) = seeded_matmul("A(i,j) = B(i,k) * C(k,j)");
    problem.fill("A", 1.0).unwrap();
    let threaded = SpmdBackend::new().with_transport(Transport::threaded_with(2));
    for (name, schedule) in matmul_schedules() {
        let want = read_a(&problem, &RuntimeBackend::functional(), &schedule).unwrap();
        distal::core::oracle::compare(&want, &product, 1e-9).unwrap();
        for (which, backend) in [("spmd", &SpmdBackend::new()), ("spmd threaded", &threaded)] {
            let got = read_a(&problem, backend, &schedule).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&want), bits(&got), "{name} on {which}");
        }
    }
}

#[test]
fn an_increment_adds_to_its_bound_output_under_every_schedule() {
    // `A += B*C` with `A` bound to 1.0 is 1 + B·C whether the schedule
    // accumulates across steps or not: no automatic zero fill overwrites
    // the placed output.
    let (mut problem, product) = seeded_matmul("A(i,j) += B(i,k) * C(k,j)");
    let runtime = RuntimeBackend::functional();
    // Unbound, the output has nothing to add to: one typed error, or one
    // result, whatever the schedule.
    let unbound: Vec<_> = matmul_schedules()
        .iter()
        .map(|(_, schedule)| read_a(&problem, &runtime, schedule))
        .collect();
    assert_eq!(unbound[0], unbound[1]);
    problem.fill("A", 1.0).unwrap();
    let plus_one: Vec<f64> = product.iter().map(|x| 1.0 + x).collect();
    for (name, schedule) in matmul_schedules() {
        let got = read_a(&problem, &runtime, &schedule).unwrap();
        distal::core::oracle::compare(&got, &plus_one, 1e-9)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

fn assert_bits(want: &[f64], got: &[f64], which: &str) {
    assert_eq!(want.len(), got.len(), "{which}: lengths");
    for (i, (x, y)) in want.iter().zip(got).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{which} idx {i}: {x} vs {y}");
    }
}

#[test]
fn non_finite_operands_agree_with_the_interpreter_on_every_backend() {
    // 0 · Inf is NaN, so `A(0, 0)` is NaN for any leaf that visits the
    // point where `B` holds +0.0 opposite `c`'s Inf. With `c` the
    // compressed operand no leaf takes it compressed, so no backend's leaf
    // skips that point: every execution is the interpreter's, bit for bit.
    let (problem, schedule) = ttv_with_an_inf("c");
    let interpreted = schedule.clone().substitute(&["ii"], LeafKind::Interpreter);
    let want = read_a(&problem, &RuntimeBackend::functional(), &interpreted).unwrap();
    assert!(want[0].is_nan(), "A(0, 0) = {}", want[0]);
    let threaded = SpmdBackend::new().with_transport(Transport::threaded_with(2));
    for (which, backend, schedule) in [
        (
            "runtime",
            &RuntimeBackend::functional() as &dyn Backend,
            &schedule,
        ),
        ("spmd", &SpmdBackend::new(), &schedule),
        ("spmd threaded", &threaded, &schedule),
        ("spmd interpreter", &SpmdBackend::new(), &interpreted),
    ] {
        assert_bits(&want, &read_a(&problem, backend, schedule).unwrap(), which);
    }
}

#[test]
fn a_compressed_operand_skips_its_unstored_entries_on_every_backend() {
    // With `B` compressed every backend runs the sparse leaf, which never
    // visits the +0.0 `B` does not store: `A(0, 0)` stays finite, and the
    // three executions agree with each other and with a zero-skipping
    // scan. The interpreter visits every point, so its runs agree with
    // each other on a NaN there — the documented non-finite exception.
    let n = 4;
    let (problem, schedule) = ttv_with_an_inf("B");
    let (b, c) = (ttv_b(n), [0.5, f64::INFINITY, -1.5, 2.0]);
    let mut want = vec![0.0; (n * n) as usize];
    for (a, row) in want.iter_mut().zip(b.chunks(n as usize)) {
        for (&b, &c) in row.iter().zip(&c) {
            if b.to_bits() != 0 {
                *a += b * c;
            }
        }
    }
    assert!(want[0].is_finite(), "A(0, 0) = {}", want[0]);
    let threaded = SpmdBackend::new().with_transport(Transport::threaded_with(2));
    for (which, backend) in [
        ("runtime", &RuntimeBackend::functional() as &dyn Backend),
        ("spmd", &SpmdBackend::new()),
        ("spmd threaded", &threaded),
    ] {
        assert_bits(&want, &read_a(&problem, backend, &schedule).unwrap(), which);
    }
    let interpreted = schedule.substitute(&["ii"], LeafKind::Interpreter);
    let runtime = read_a(&problem, &RuntimeBackend::functional(), &interpreted).unwrap();
    assert!(runtime[0].is_nan(), "A(0, 0) = {}", runtime[0]);
    let spmd = read_a(&problem, &SpmdBackend::new(), &interpreted).unwrap();
    assert_bits(&runtime, &spmd, "spmd interpreter");
}
