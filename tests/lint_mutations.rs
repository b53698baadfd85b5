//! The mutation suite: start from schedules that admit cleanly, break one
//! thing, and pin the *exact* diagnostic — kind, offending command index,
//! and fix-it text. The last two tests run the other direction: every
//! Figure 9 algorithm and the sparse SpMV suite must stay lint-clean even
//! with every lint promoted to an error.

use distal_core::lint::{admit, lint_schedule, LintConfig};
use distal_core::{
    BackendError, Diagnostic, DiagnosticKind, DistalMachine, Problem, Schedule, TensorSpec,
};
use distal_format::{Format, LevelFormat, TensorDistribution};
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

/// Admission must reject; returns the findings for inspection.
fn reject(p: &Problem, s: &Schedule, config: &LintConfig) -> Vec<Diagnostic> {
    match admit(p, s, config) {
        Err(BackendError::Verification(diags)) => diags,
        Err(other) => panic!("expected a verification rejection, got {other}"),
        Ok(diags) => panic!("expected a rejection, admitted with {diags:?}"),
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
        Some("partition the broadcast machine dimension or raise replication_threshold_bytes")
    );
    // Raising the threshold silences it.
    let mut roomy = LintConfig::new();
    roomy.replication_threshold_bytes = 1 << 30;
    assert!(lint_schedule(&p, &Schedule::summa(4, 2, 4), &roomy).is_empty());
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
