//! One fan grouping under every collective lowering: the lowering records
//! each fan once, as its transfers are sourced, and the three
//! configurations only differ in how they emit it. So the collectives
//! `recognize` reads back from a point-to-point program are, field by
//! field, the ones a tree and a ring program expanded — all but `depth`,
//! the one field the expansion decides.

use distal_algs::higher_order::HigherOrderKernel;
use distal_algs::matmul::MatmulAlgorithm;
use distal_algs::setup::{higher_order_problem, matmul_problem_on, RunConfig};
use distal_core::{DistalMachine, Problem, Schedule, TensorId, TensorSpec};
use distal_format::Format;
use distal_machine::geom::Rect;
use distal_machine::grid::Grid;
use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
use distal_runtime::Mode;
use distal_spmd::collective::{recognize, Collective};
use distal_spmd::{lower_problem, CollectiveConfig, CollectiveKind};

/// Every field of a collective but `depth`.
type Fields = (
    CollectiveKind,
    TensorId,
    Rect,
    usize,
    Vec<usize>,
    usize,
    Option<usize>,
    usize,
);

fn fields(c: &Collective) -> Fields {
    (
        c.kind,
        c.tensor,
        c.rect,
        c.root,
        c.members.clone(),
        c.step,
        c.axis,
        c.naive_depth,
    )
}

/// Asserts the three lowerings of `problem` under `schedule` agree on
/// their collectives, and returns how many there are.
fn assert_one_grouping(name: &str, problem: &Problem, schedule: &Schedule) -> usize {
    let lower = |config: CollectiveConfig| {
        lower_problem(problem, schedule, &config).unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let naive = lower(CollectiveConfig::point_to_point());
    assert!(naive.collectives.is_empty(), "{name}: nothing expanded");
    let recorded = recognize(&naive);
    assert!(
        recorded.iter().all(|c| c.depth == c.naive_depth),
        "{name}: described naively"
    );
    let recorded: Vec<Fields> = recorded.iter().map(fields).collect();
    for (label, config) in [
        ("trees", CollectiveConfig::trees()),
        ("rings", CollectiveConfig::rings()),
    ] {
        let expanded: Vec<Fields> = lower(config).collectives.iter().map(fields).collect();
        assert_eq!(recorded, expanded, "{name} {label}");
    }
    recorded.len()
}

#[test]
fn figure9_records_the_same_fans_under_every_lowering() {
    let mut total = 0;
    for p in [4i64, 16, 64] {
        let n = 2 * p;
        for alg in MatmulAlgorithm::all(p) {
            let spec = MachineSpec::small(p as usize);
            let (problem, schedule) =
                matmul_problem_on(alg, spec, ProcKind::Cpu, MemKind::Sys, p, n, (n / 4).max(1))
                    .unwrap();
            total += assert_one_grouping(&format!("{} p={p}", alg.name()), &problem, &schedule);
        }
    }
    assert!(total > 0, "some Figure 9 algorithm fans out");
}

#[test]
fn higher_order_kernels_record_the_same_fans_under_every_lowering() {
    let mut config = RunConfig::cpu(2, Mode::Functional);
    config.spec = MachineSpec::small(4);
    for kernel in HigherOrderKernel::all() {
        let (problem, schedule) = higher_order_problem(kernel, &config, 8).unwrap();
        assert_one_grouping(kernel.name(), &problem, &schedule);
    }
}

#[test]
fn a_replicated_line_records_one_allgather_under_every_lowering() {
    // Row-distributed A, B and C on a line: every rank needs all of C and
    // owns a piece of it, so the per-owner broadcasts merge into one
    // all-gather.
    let p = 4i64;
    let n = 8i64;
    let machine = DistalMachine::flat(Grid::line(p), ProcKind::Cpu);
    let mut problem = Problem::new(MachineSpec::small(8), machine);
    problem.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
    let rows = Format::parse("xy->x", MemKind::Sys).unwrap();
    for name in ["A", "B", "C"] {
        let tensor = TensorSpec::new(name, vec![n, n], rows.clone());
        problem.tensor(tensor).unwrap();
    }
    let schedule = Schedule::new()
        .divide("i", "io", "ii", p)
        .reorder(&["io", "ii"])
        .distribute(&["io"])
        .communicate(&["A", "B", "C"], "io");
    assert_eq!(
        assert_one_grouping("replicated line", &problem, &schedule),
        1
    );
    let naive = lower_problem(&problem, &schedule, &CollectiveConfig::point_to_point()).unwrap();
    assert_eq!(recognize(&naive)[0].kind, CollectiveKind::AllGather);
}
