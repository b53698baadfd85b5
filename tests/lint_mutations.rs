//! The mutation suite: start from schedules that admit cleanly, break one
//! thing, and pin the *exact* diagnostic — kind, offending command index,
//! and fix-it text. Two tests run the other direction: every Figure 9
//! algorithm and the sparse SpMV suite must stay lint-clean even with
//! every lint promoted to an error. The last ones hold admission to the
//! compiler it shares its rewrites with: a schedule the compiler rejects
//! fails in admission with the compiler's error, admission succeeds
//! exactly when the schedule applies, and the notation admission hands a
//! plan is the one `Nest::new` builds.

use distal_core::lint::{admit, lint_schedule, LintConfig};
use distal_core::nest::Nest;
use distal_core::{
    lowering_count, Backend, BackendError, CompileError, Diagnostic, DiagnosticKind, DistalMachine,
    Problem, SchedCmd, Schedule, TensorSpec,
};
use distal_format::{Format, LevelFormat, TensorDistribution};
use distal_ir::cin::ConcreteNotation;
use distal_machine::geom::MAX_DIM;
use distal_machine::grid::Grid;
use distal_machine::spec::{MachineSpec, MemKind, ProcKind};

/// `A(i,j) = B(i,k) * C(k,j)` with `n x n` tensors on the given grid.
fn matmul_on(n: i64, grid: Grid, formats: [&str; 3]) -> Problem {
    let machine = DistalMachine::flat(grid, ProcKind::Cpu);
    let mut p = Problem::new(MachineSpec::small(4), machine);
    p.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
    for (t, f) in ["A", "B", "C"].iter().zip(formats) {
        let f = Format::parse(f, MemKind::Sys).unwrap();
        p.tensor(TensorSpec::new(*t, vec![n, n], f)).unwrap();
    }
    p
}

/// The baseline every mutation perturbs: 16x16 matmul, 4x2 machine, 2D
/// tiles — `Schedule::summa(4, 2, 4)` admits cleanly on it.
fn matmul() -> Problem {
    matmul_on(16, Grid::grid2(4, 2), ["xy->xy", "xy->xy", "xy->xy"])
}

/// The `kind` findings of `Schedule::summa(4, 2, 4)` on a 4x2 machine when
/// B is `rows` x 256 in format `b`; A (`rows` x 256) and C (256 x 256) are
/// tiled.
fn findings_with_b(rows: i64, b: &Format, kind: DiagnosticKind) -> usize {
    let machine = DistalMachine::flat(Grid::grid2(4, 2), ProcKind::Cpu);
    let mut p = Problem::new(MachineSpec::small(4), machine);
    p.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
    let tiles = Format::parse("xy->xy", MemKind::Sys).unwrap();
    for (t, dims, f) in [("A", [rows, 256], &tiles), ("B", [rows, 256], b)] {
        p.tensor(TensorSpec::new(t, dims.to_vec(), f.clone()))
            .unwrap();
    }
    p.tensor(TensorSpec::new("C", vec![256, 256], tiles))
        .unwrap();
    let diags = lint_schedule(&p, &Schedule::summa(4, 2, 4), &LintConfig::new());
    diags.iter().filter(|d| d.kind == kind).count()
}

/// Admission must reject; returns the findings for inspection.
fn reject(p: &Problem, s: &Schedule, config: &LintConfig) -> Vec<Diagnostic> {
    match admit(p, s, config) {
        Err(BackendError::Verification(diags)) => diags,
        Err(other) => panic!("expected a verification rejection, got {other}"),
        Ok((_, diags)) => panic!("expected a rejection, admitted with {diags:?}"),
    }
}

#[test]
fn baseline_is_clean_under_deny_all() {
    let diags = lint_schedule(
        &matmul(),
        &Schedule::summa(4, 2, 4),
        &LintConfig::deny_all(),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn divide_of_unknown_variable_names_the_live_set() {
    let s = Schedule::new().divide("z", "zo", "zi", 2);
    let diags = reject(&matmul(), &s, &LintConfig::new());
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!(d.kind, DiagnosticKind::UnknownLoopVar);
    assert!(d.is_error());
    assert_eq!(d.command, Some(0));
    assert_eq!(d.var.as_deref(), Some("z"));
    assert_eq!(
        d.fixit.as_deref(),
        Some("available loop variables: i, j, k")
    );
}

#[test]
fn divide_onto_an_existing_name_is_a_duplicate() {
    let s = Schedule::new().divide("i", "io", "j", 2);
    let diags = reject(&matmul(), &s, &LintConfig::new());
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!(d.kind, DiagnosticKind::DuplicateLoopVar);
    assert_eq!(d.command, Some(0));
    assert_eq!(d.var.as_deref(), Some("j"));
    assert_eq!(d.fixit.as_deref(), Some("pick a fresh name for 'j'"));
}

#[test]
fn reorder_listing_a_variable_twice_is_a_duplicate() {
    let s = Schedule::new().reorder(&["i", "i", "j", "k"]);
    let diags = reject(&matmul(), &s, &LintConfig::new());
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!(d.kind, DiagnosticKind::DuplicateLoopVar);
    assert_eq!(d.command, Some(0));
    assert_eq!(d.message, "reorder lists 'i' more than once");
    assert_eq!(d.fixit.as_deref(), Some("list each variable once"));
}

#[test]
fn transposed_grid_is_a_grid_mismatch_with_fixit() {
    // The machine is 4x2; the schedule distributes onto its transpose.
    let s = Schedule::summa(2, 4, 4);
    let diags = reject(&matmul(), &s, &LintConfig::new());
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!(d.kind, DiagnosticKind::GridMismatch);
    assert_eq!(d.command, Some(0));
    assert!(d.message.contains("2x4 grid"), "{}", d.message);
    assert_eq!(
        d.fixit.as_deref(),
        Some("distribute onto 4x2 (the machine grid)")
    );
}

#[test]
fn ragged_distribute_onto_arity_is_a_grid_mismatch() {
    let s = Schedule::new().distribute_onto(&["i", "j"], &["io", "jo"], &["ii", "ji"], &[4]);
    let diags = reject(&matmul(), &s, &LintConfig::new());
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!(d.kind, DiagnosticKind::GridMismatch);
    assert_eq!(d.command, Some(0));
    assert_eq!(
        d.fixit.as_deref(),
        Some("give each target one dist var, one local var, and one grid dim")
    );
}

#[test]
fn overpartitioned_divide_warns_load_imbalance() {
    // Empty parts lower fine (zero-iteration tiles), so this is the
    // extreme of load imbalance — a warning by default, an admission
    // error under deny_all (and under the autoscheduler's pruning
    // config, which denies LoadImbalance).
    let s = Schedule::new().divide("k", "ko", "ki", 32);
    let diags = lint_schedule(&matmul(), &s, &LintConfig::new());
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!(d.kind, DiagnosticKind::LoadImbalance);
    assert!(!d.is_error(), "overpartitioning is wasteful, not illegal");
    assert_eq!(d.command, Some(0));
    assert_eq!(d.var.as_deref(), Some("k"));
    assert_eq!(
        d.fixit.as_deref(),
        Some("reduce the part count to at most 16")
    );
    let denied = reject(&matmul(), &s, &LintConfig::deny_all());
    assert_eq!(denied[0].kind, DiagnosticKind::LoadImbalance);
}

#[test]
fn overpartitioned_distributed_divide_launches_every_part() {
    // Five parts of an extent of four are five launch points, empty or
    // not — one more than the machine's four processors.
    let p = matmul_on(4, Grid::line(4), ["xy->x", "xy->x", "xy->x"]);
    let s = Schedule::new()
        .divide("i", "io", "ii", 5)
        .distribute(&["io"]);
    let diags = reject(&p, &s, &LintConfig::new());
    let errors: Vec<&Diagnostic> = diags.iter().filter(|d| d.is_error()).collect();
    assert_eq!(errors.len(), 1, "{diags:?}");
    let d = errors[0];
    assert_eq!(d.kind, DiagnosticKind::GridMismatch);
    assert_eq!(d.command, Some(1));
    assert_eq!(
        d.message,
        "distributing io launches 5 tasks but the machine has 4 processors"
    );
    assert_eq!(d.fixit.as_deref(), Some("distribute at most 4 iterations"));
}

#[test]
fn nonpositive_split_is_a_bad_chunk() {
    let s = Schedule::new().split("k", "ko", "ki", 0);
    let diags = reject(&matmul(), &s, &LintConfig::new());
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!(d.kind, DiagnosticKind::BadChunk);
    assert_eq!(d.command, Some(0));
    assert_eq!(d.message, "chunk 0 is not positive");
    assert_eq!(d.fixit.as_deref(), Some("use a positive count"));
}

#[test]
fn communicate_at_a_nonexistent_loop() {
    // Mutating SUMMA's `communicate(A, jo)` to a var no command defined.
    let s = Schedule::summa(4, 2, 4).communicate(&["A"], "zz");
    let diags = reject(&matmul(), &s, &LintConfig::new());
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!(d.kind, DiagnosticKind::BadCommunicate);
    assert_eq!(d.command, Some(6));
    assert_eq!(d.var.as_deref(), Some("zz"));
    assert_eq!(
        d.fixit.as_deref(),
        Some("aggregate at one of: ii, io, ji, jo, ki, ko")
    );
}

#[test]
fn communicate_of_a_foreign_tensor() {
    let s = Schedule::summa(4, 2, 4).communicate(&["D"], "ko");
    let diags = reject(&matmul(), &s, &LintConfig::new());
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!(d.kind, DiagnosticKind::BadCommunicate);
    assert_eq!(d.command, Some(6));
    assert_eq!(d.tensor.as_deref(), Some("D"));
    assert_eq!(d.fixit.as_deref(), Some("communicate one of: A, B, C"));
}

#[test]
fn double_distribution_is_rejected() {
    // `io` is already distributed by the `distribute_onto` at command 0.
    let s = Schedule::summa(4, 2, 4).distribute(&["io"]);
    let diags = reject(&matmul(), &s, &LintConfig::new());
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!(d.kind, DiagnosticKind::Redistribution);
    assert_eq!(d.command, Some(6));
    assert_eq!(d.var.as_deref(), Some("io"));
    assert_eq!(d.message, "'io' is already distributed");
    assert_eq!(d.fixit.as_deref(), Some("distribute 'i' once"));
}

#[test]
fn a_dimension_is_distributed_at_most_once_per_machine_level() {
    // `i` cut into three distributable loops of extent 2 beside `jo`.
    let cuts = Schedule::new()
        .divide("i", "ia", "ra", 2)
        .divide("ra", "ib", "rb", 2)
        .divide("rb", "ic", "il", 2)
        .divide("j", "jo", "ji", 2);
    // Flat 4x2 machine: the second loop over `i` is one too many. Nodes x
    // GPUs take one per level (`tests/hierarchical_machine.rs` runs that),
    // so there the third is.
    let flat = matmul();
    let nodes_of_gpus =
        DistalMachine::hierarchical(vec![Grid::grid2(2, 2), Grid::line(4)], ProcKind::Cpu);
    let mut two_level = Problem::new(MachineSpec::small(4), nodes_of_gpus);
    two_level.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
    let per_level = ["xy->xy", "xy->x"].map(|d| TensorDistribution::parse(d).unwrap());
    for t in ["A", "B", "C"] {
        let format = Format::hierarchical(per_level.to_vec(), MemKind::Sys);
        two_level
            .tensor(TensorSpec::new(t, vec![16, 16], format))
            .unwrap();
    }
    for (problem, distributed, rejected) in [
        (&flat, vec!["ia", "jo", "ib"], "ib"),
        (&two_level, vec!["ia", "jo", "ib", "ic"], "ic"),
    ] {
        let s = cuts.clone().distribute(&distributed);
        let diags = reject(problem, &s, &LintConfig::new());
        let d = &diags[0];
        assert_eq!((diags.len(), d.kind), (1, DiagnosticKind::Redistribution));
        assert_eq!((d.command, d.var.as_deref()), (Some(4), Some(rejected)));
        let message = format!("'{rejected}' derives from 'i', which 'ia' already distributes");
        assert_eq!(d.message, message);
        assert_eq!(d.fixit.as_deref(), Some("distribute 'i' once"));
    }
}

#[test]
fn compressed_coordinate_distribution_warns_and_denies_under_deny_all() {
    // B's column dimension is partitioned by coordinate ranges but stored
    // Compressed — a format mutation, so no command index. Legal (the
    // runtime partitions by coordinate and gathers stored entries) but a
    // performance hazard: positions are data-dependent, so range
    // partitions land uneven nonzero counts.
    let mut p = matmul();
    let mut b = Format::parse("xy->xy", MemKind::Sys).unwrap();
    b.levels = vec![LevelFormat::Dense, LevelFormat::Compressed];
    p.tensor(TensorSpec::new("B", vec![16, 16], b)).unwrap();
    let warned = lint_schedule(&p, &Schedule::summa(4, 2, 4), &LintConfig::new());
    assert_eq!(warned.len(), 1);
    assert!(
        !warned[0].is_error(),
        "distributing a compressed dim is legal"
    );
    let diags = reject(&p, &Schedule::summa(4, 2, 4), &LintConfig::deny_all());
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!(d.kind, DiagnosticKind::CompressedDistribution);
    assert_eq!(d.command, None);
    assert_eq!(d.tensor.as_deref(), Some("B"));
    assert_eq!(
        d.fixit.as_deref(),
        Some("store dimension 1 as Dense or partition a dense dimension")
    );
}

#[test]
fn nondividing_parts_warn_load_imbalance_with_ratio() {
    // 5 parts of 16 iterations: tiles of 4 on 5 slots = 1.25x imbalance.
    let s = Schedule::new().divide("k", "ko", "ki", 5);
    let diags = lint_schedule(&matmul(), &s, &LintConfig::new());
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!(d.kind, DiagnosticKind::LoadImbalance);
    assert!(!d.is_error(), "performance lints warn by default");
    assert_eq!(d.command, Some(0));
    assert!(d.message.contains("1.25x"), "{}", d.message);
    assert_eq!(d.fixit.as_deref(), Some("use a count dividing 16"));
    // ...and deny-all promotes the same finding to a rejection.
    assert_eq!(reject(&matmul(), &s, &LintConfig::deny_all()).len(), 1);
}

#[test]
fn whole_extent_chunk_warns_plan_cardinality() {
    let s = Schedule::new().split("k", "ko", "ki", 16);
    let diags = lint_schedule(&matmul(), &s, &LintConfig::new());
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!(d.kind, DiagnosticKind::PlanCardinality);
    assert!(!d.is_error());
    assert_eq!(d.command, Some(0));
    assert_eq!(d.var.as_deref(), Some("k"));
    assert_eq!(
        d.fixit.as_deref(),
        Some("use a chunk smaller than the extent 16")
    );
}

#[test]
fn broadcast_replication_blowup_warns_past_threshold() {
    // 512x512 doubles = 2 MiB, replicated 2x by B's broadcast over the
    // machine's second dimension — past the 1 MiB default threshold.
    let p = matmul_on(512, Grid::grid2(4, 2), ["xy->xy", "xy->x*", "xy->xy"]);
    let diags = lint_schedule(&p, &Schedule::summa(4, 2, 4), &LintConfig::new());
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!(d.kind, DiagnosticKind::ReplicationBlowup);
    assert!(!d.is_error());
    assert_eq!(d.tensor.as_deref(), Some("B"));
    assert!(d.message.contains("replicated 2x"), "{}", d.message);
    assert_eq!(
        d.fixit.as_deref(),
        Some("partition the broadcast machine dimension")
    );
    // The threshold is exclusive: B at 256 rows of 256 doubles, replicated
    // 2x, is exactly 1 MiB and stays silent; one row more fires.
    let b = Format::parse("xy->x*", MemKind::Sys).unwrap();
    let kind = DiagnosticKind::ReplicationBlowup;
    assert_eq!(findings_with_b(256, &b, kind), 0);
    assert_eq!(findings_with_b(257, &b, kind), 1);
}

#[test]
fn large_undistributed_tensor_warns_on_multinode() {
    let machine = DistalMachine::flat(Grid::grid2(4, 2), ProcKind::Cpu);
    let mut p = Problem::new(MachineSpec::small(4), machine);
    p.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
    let tiles = Format::parse("xy->xy", MemKind::Sys).unwrap();
    p.tensor(TensorSpec::new("A", vec![512, 512], tiles.clone()))
        .unwrap();
    p.tensor(TensorSpec::new(
        "B",
        vec![512, 512],
        Format::undistributed_in(MemKind::Sys),
    ))
    .unwrap();
    p.tensor(TensorSpec::new("C", vec![512, 512], tiles))
        .unwrap();
    let diags = lint_schedule(&p, &Schedule::summa(4, 2, 4), &LintConfig::new());
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!(d.kind, DiagnosticKind::UndistributedTensor);
    assert!(!d.is_error());
    assert_eq!(d.tensor.as_deref(), Some("B"));
    assert_eq!(
        d.fixit.as_deref(),
        Some("distribute 'B' across the machine")
    );
}

#[test]
fn an_undistributed_tensor_warns_only_past_one_mib() {
    // An undistributed B of 512 rows of 256 doubles is exactly 1 MiB and
    // stays silent; one row more fires.
    let b = Format::undistributed_in(MemKind::Sys);
    let kind = DiagnosticKind::UndistributedTensor;
    assert_eq!(findings_with_b(512, &b, kind), 0);
    assert_eq!(findings_with_b(513, &b, kind), 1);
}

#[test]
fn cyclic_fan_is_unrewritable() {
    let p = matmul_on(
        16,
        Grid::grid2(4, 2),
        ["xy->xy", "xy->xy @cyclic", "xy->xy"],
    );
    let diags = lint_schedule(&p, &Schedule::summa(4, 2, 4), &LintConfig::new());
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!(d.kind, DiagnosticKind::UnrewritableFan);
    assert!(!d.is_error());
    // SUMMA communicates B at command 4 (`communicate([B, C], ko)`).
    assert_eq!(d.command, Some(4));
    assert_eq!(d.tensor.as_deref(), Some("B"));
    assert_eq!(d.var.as_deref(), Some("ko"));
    assert_eq!(d.fixit.as_deref(), Some("use a blocked partition for 'B'"));
}

#[test]
fn index_spaces_past_the_coordinate_cap_are_typed_errors() {
    let deep = MAX_DIM + 1;
    let whole = || Format::undistributed();
    // A tensor of higher order is refused at registration, by name and order.
    let mut p = matmul();
    let err = p
        .tensor(TensorSpec::new("T", vec![2; deep], whole()))
        .unwrap_err();
    let too_many = |what: &str, dims| CompileError::TooManyDims {
        what: what.into(),
        dims,
    };
    assert_eq!(err, too_many("tensor 'T'", deep));
    assert_eq!(
        err.to_string(),
        format!("tensor 'T' has {deep} dimensions; coordinates hold at most {MAX_DIM}")
    );
    p.tensor(TensorSpec::new("T", vec![2; MAX_DIM], whole()))
        .unwrap();
    // So is every tensor of a machine whose flattened hierarchy is deeper.
    let on = |levels: Vec<Grid>| {
        let machine = DistalMachine::hierarchical(levels, ProcKind::Cpu);
        Problem::new(MachineSpec::small(8), machine).tensor(TensorSpec::new(
            "A",
            vec![4],
            whole(),
        ))?;
        Ok::<(), CompileError>(())
    };
    let cube = || Grid::grid3(1, 2, 2);
    assert_eq!(on(vec![cube(), cube()]), Ok(()));
    let err = on(vec![cube(), cube(), Grid::line(1)]).unwrap_err();
    assert_eq!(err, too_many("the machine", deep));
    // A schedule with more sequential loops than the cap plans to a typed
    // error on both backends, not a panic.
    let (mut s, mut rest) = (Schedule::new(), "i".to_string());
    for level in 1..=deep {
        let inner = format!("r{level}");
        s = s.divide(&rest, &format!("i{level}"), &inner, 1);
        rest = inner;
    }
    let s = s.communicate(&["B"], &format!("i{deep}"));
    let backends: [&dyn distal_core::Backend; 2] = [
        &distal_core::RuntimeBackend::functional(),
        &distal_spmd::SpmdBackend::new(),
    ];
    for backend in backends {
        let err = backend.plan(&matmul(), &s).err().expect("refused");
        assert!(
            err.to_string()
                .contains(&format!("the sequential loop band has {deep} dimensions")),
            "{}: {err}",
            backend.name()
        );
    }
}

#[test]
fn figure9_schedules_are_lint_clean_under_deny_all() {
    use distal_algs::matmul::MatmulAlgorithm;
    use distal_algs::setup::matmul_problem_on;
    let config = LintConfig::deny_all();
    for alg in MatmulAlgorithm::all(8) {
        let (problem, schedule) = matmul_problem_on(
            alg,
            MachineSpec::small(4),
            ProcKind::Cpu,
            MemKind::Sys,
            8,
            16,
            4,
        )
        .unwrap();
        let diags = lint_schedule(&problem, &schedule, &config);
        assert!(diags.is_empty(), "{}: {diags:?}", alg.name());
    }
}

#[test]
fn sparse_spmv_schedule_is_lint_clean_under_deny_all() {
    // The sparse suite's SpMV setup (examples/sparse_spmv.rs): CSR-style B
    // kept whole, row-distributed output.
    let machine = DistalMachine::flat(Grid::line(4), ProcKind::Cpu);
    let mut p = Problem::new(MachineSpec::small(4), machine);
    p.statement("a(i) = B(i,j) * c(j)").unwrap();
    p.tensor(TensorSpec::new(
        "a",
        vec![64],
        Format::parse("x->x", MemKind::Sys).unwrap(),
    ))
    .unwrap();
    let mut b = Format::undistributed_in(MemKind::Global);
    b.levels = vec![LevelFormat::Dense, LevelFormat::Compressed];
    p.tensor(TensorSpec::new("B", vec![64, 64], b)).unwrap();
    p.tensor(TensorSpec::new(
        "c",
        vec![64],
        Format::undistributed_in(MemKind::Global),
    ))
    .unwrap();
    let schedule = Schedule::new()
        .divide("i", "io", "ii", 4)
        .reorder(&["io", "ii"])
        .distribute(&["io"]);
    assert!(admit(&p, &schedule, &LintConfig::deny_all()).is_ok());
}

#[test]
fn schedules_the_compiler_rejects_fail_admission_with_its_error() {
    // No lint owns these failures: a distribution whose loops are not
    // outermost and adjacent, and a collapse of loops that are not nested
    // directly. Admission stops there with the lowering's own error, and
    // a plan starts no lowering.
    let apart = Schedule::new()
        .divide("i", "io", "ii", 4)
        .divide("j", "jo", "ji", 2)
        .distribute(&["io", "jo"]);
    let collapse = Schedule::new().collapse("i", "k", "ik");
    let cases = [
        (
            apart,
            "compile error: schedule error: command 2 `distribute(io,jo)`: distributed loops \
             must be outermost and contiguous",
        ),
        (
            collapse,
            "compile error: schedule error: command 0 `collapse(i,k -> ik)`: invalid reorder: \
             collapse requires 'i' directly above 'k'",
        ),
    ];
    let p = matmul();
    let backends: [&dyn Backend; 2] = [
        &distal_core::RuntimeBackend::functional(),
        &distal_spmd::SpmdBackend::new(),
    ];
    for (s, text) in cases {
        let err = admit(&p, &s, &LintConfig::new()).expect_err("rejected");
        assert!(
            matches!(err, BackendError::Compile(CompileError::Schedule(_))),
            "{err:?}"
        );
        assert_eq!(err.to_string(), text);
        // The lowering, applying the schedule itself, prints the same.
        let lowered = Nest::new(p.assignment().unwrap(), &p.dims_map(), &s).unwrap_err();
        assert_eq!(BackendError::from(lowered), err);
        assert_eq!(
            admit(&p, &s, &LintConfig::allow_all()).err(),
            Some(err.clone())
        );
        for backend in backends {
            let before = lowering_count();
            assert_eq!(
                backend.plan(&p, &s).err(),
                Some(err.clone()),
                "{}",
                backend.name()
            );
            assert_eq!(lowering_count(), before, "{}: lowered", backend.name());
        }
    }
}

#[test]
fn a_split_inner_loop_has_the_solvers_extent() {
    // `split(k, 32)` of an extent of 16: the solver gives `ki` the chunk
    // as its extent, 32, and the lints read the solver.
    let s = Schedule::new()
        .split("k", "ko", "ki", 32)
        .divide("ki", "kio", "kii", 3);
    let diags = lint_schedule(&matmul(), &s, &LintConfig::new());
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert_eq!(diags[0].kind, DiagnosticKind::PlanCardinality);
    let d = &diags[1];
    assert_eq!(d.kind, DiagnosticKind::LoadImbalance);
    assert_eq!((d.command, d.var.as_deref()), (Some(1), Some("ki")));
    assert_eq!(
        d.message,
        "part count 3 does not divide extent 32 of 'ki': the largest tile does 1.03x the work \
         of a balanced one"
    );
    assert_eq!(d.fixit.as_deref(), Some("use a count dividing 32"));
}

fn names(v: &[String]) -> Vec<&str> {
    v.iter().map(String::as_str).collect()
}

/// `cmds` as a schedule, through the builder.
fn schedule_of(cmds: &[SchedCmd]) -> Schedule {
    cmds.iter().fold(Schedule::new(), |s, cmd| match cmd {
        SchedCmd::Divide {
            var,
            outer,
            inner,
            parts,
        } => s.divide(var, outer, inner, *parts),
        SchedCmd::Split {
            var,
            outer,
            inner,
            chunk,
        } => s.split(var, outer, inner, *chunk),
        SchedCmd::Reorder(order) => s.reorder(&names(order)),
        SchedCmd::Distribute(vars) => s.distribute(&names(vars)),
        SchedCmd::DistributeOnto {
            targets,
            dist,
            local,
            dims,
        } => s.distribute_onto(&names(targets), &names(dist), &names(local), dims),
        SchedCmd::Communicate { tensors, var } => s.communicate(&names(tensors), var),
        SchedCmd::Rotate {
            target,
            over,
            result,
        } => s.rotate(target, &names(over), result),
        SchedCmd::Parallelize(var) => s.parallelize(var),
        SchedCmd::Collapse { a, b, fused } => s.collapse(a, b, fused),
        SchedCmd::Substitute { vars, leaf } => s.substitute(&names(vars), *leaf),
    })
}

/// `schedule`, each schedule with one of its commands dropped, and each
/// with two adjacent commands swapped.
fn mutants(schedule: &Schedule) -> Vec<Schedule> {
    let cmds = schedule.commands();
    let mut out = vec![schedule.clone()];
    for i in 0..cmds.len() {
        let mut dropped = cmds.to_vec();
        dropped.remove(i);
        out.push(schedule_of(&dropped));
        if i + 1 < cmds.len() {
            let mut swapped = cmds.to_vec();
            swapped.swap(i, i + 1);
            out.push(schedule_of(&swapped));
        }
    }
    out
}

/// Admission under every lint allowed succeeds exactly when the compiler
/// applies the schedule to a fresh notation of the problem's statement.
fn assert_admission_agrees(problem: &Problem, schedule: &Schedule, what: &str) -> bool {
    let assignment = problem.assignment().unwrap();
    let extents = assignment.infer_extents(&problem.dims_map()).unwrap();
    let mut cin = ConcreteNotation::from_assignment(assignment.clone(), &extents).unwrap();
    let applies = schedule.apply(&mut cin);
    let admitted = admit(problem, schedule, &LintConfig::allow_all());
    assert_eq!(
        admitted.is_ok(),
        applies.is_ok(),
        "{what}: `{schedule}`: admission {:?}, compiler {applies:?}",
        admitted.err()
    );
    applies.is_ok()
}

#[test]
fn admission_succeeds_exactly_when_the_schedule_applies() {
    use distal_algs::matmul::MatmulAlgorithm;
    use distal_algs::setup::matmul_problem_on;
    use distal_autosched::{enumerate_candidates, SpaceOptions};
    let (mut applied, mut rejected) = (0, 0);
    let mut tally = |ok: bool| if ok { applied += 1 } else { rejected += 1 };
    // Matmul and TTM, every tensor of side 8.
    let statements = [
        ("A(i,j) = B(i,k) * C(k,j)", [("A", 2), ("B", 2), ("C", 2)]),
        (
            "A(i,j,l) = B(i,j,k) * C(k,l)",
            [("A", 3), ("B", 3), ("C", 2)],
        ),
    ];
    for (expr, orders) in statements {
        let dims: std::collections::BTreeMap<String, Vec<i64>> = orders
            .iter()
            .map(|&(t, order)| (t.to_string(), vec![8; order]))
            .collect();
        for p in [4, 8] {
            let options = SpaceOptions::new(MemKind::Sys);
            let (_, candidates) = enumerate_candidates(expr, &dims, p, &options).unwrap();
            for candidate in candidates {
                let machine = DistalMachine::flat(candidate.grid.clone(), ProcKind::Cpu);
                let mut problem = Problem::new(MachineSpec::small(4), machine);
                problem.statement(expr).unwrap();
                for (name, shape) in &dims {
                    let format = candidate.formats[name].clone();
                    problem
                        .tensor(TensorSpec::new(name.clone(), shape.clone(), format))
                        .unwrap();
                }
                for s in mutants(&candidate.schedule) {
                    tally(assert_admission_agrees(&problem, &s, &candidate.name));
                }
            }
        }
    }
    for p in [4, 8] {
        for alg in MatmulAlgorithm::all(p) {
            let spec = MachineSpec::small(4);
            let (problem, schedule) =
                matmul_problem_on(alg, spec, ProcKind::Cpu, MemKind::Sys, p, 16, 4).unwrap();
            for s in mutants(&schedule) {
                tally(assert_admission_agrees(&problem, &s, &alg.name()));
            }
        }
    }
    // Both outcomes occur, so the agreement is not vacuous.
    assert!(
        applied > 0 && rejected > 0,
        "{applied} applied, {rejected} rejected"
    );
}

#[test]
fn a_plan_lowers_the_notation_admission_applied() {
    // What `Backend::plan` hands its lowering — the nest of admission's
    // notation — is the nest `Nest::new` builds by applying the schedule
    // itself, for every Figure 9 and higher-order schedule.
    use distal_algs::higher_order::HigherOrderKernel;
    use distal_algs::matmul::MatmulAlgorithm;
    use distal_algs::setup::{higher_order_problem, matmul_problem_on, RunConfig};
    let mut cases = Vec::new();
    for alg in MatmulAlgorithm::all(8) {
        let spec = MachineSpec::small(4);
        let case = matmul_problem_on(alg, spec, ProcKind::Cpu, MemKind::Sys, 8, 16, 4).unwrap();
        cases.push((alg.name(), case));
    }
    let config = RunConfig::cpu(2, distal_runtime::Mode::Model);
    for kernel in HigherOrderKernel::all() {
        let case = higher_order_problem(kernel, &config, 8).unwrap();
        cases.push((kernel.name().to_string(), case));
    }
    for (name, (problem, schedule)) in cases {
        let (cin, _) = admit(&problem, &schedule, &LintConfig::new()).unwrap();
        let admitted = Nest::from_cin(cin).unwrap();
        let applied = Nest::new(
            problem.assignment().unwrap(),
            &problem.dims_map(),
            &schedule,
        );
        let applied = applied.unwrap();
        assert_eq!(admitted.cin.to_string(), applied.cin.to_string(), "{name}");
        assert_eq!(admitted.launch_domain, applied.launch_domain, "{name}");
        assert_eq!(admitted.seq_extents, applied.seq_extents, "{name}");
        let reduces = |n: &Nest| (n.dist_reduces, n.seq_reduces);
        assert_eq!(reduces(&admitted), reduces(&applied), "{name}");
    }
}
