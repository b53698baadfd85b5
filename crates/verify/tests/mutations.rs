//! Mutation testing of the static verifier against *real* lowered
//! programs: every Figure 9 algorithm (and a compressed SpMV/SpMM) must
//! verify clean under all three collective lowerings, and six classes of
//! deliberate corruption — dropped send, duplicated send, swapped tag,
//! out-of-bounds rectangle, aliased output write, cyclic wait — must each
//! be rejected with a diagnostic naming the offending rank/tensor/tag.
//!
//! The dropped-send case is the one the 60-second runtime watchdog
//! existed for; these tests prove it is now caught at plan time, before
//! anything runs.

use distal_algs::matmul::MatmulAlgorithm;
use distal_algs::setup::matmul_problem_on;
use distal_core::{verified_clean, DiagnosticKind, DistalMachine, Problem, Schedule, TensorSpec};
use distal_format::Format;
use distal_machine::grid::Grid;
use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
use distal_spmd::{lower_problem, verify_program, CollectiveConfig, Message, SpmdOp, SpmdProgram};

/// One Figure 9 matmul, lowered with the given collective configuration.
fn figure9(alg: MatmulAlgorithm, p: i64, n: i64, cfg: &CollectiveConfig) -> SpmdProgram {
    let (mut problem, schedule) = matmul_problem_on(
        alg,
        MachineSpec::small(p as usize),
        ProcKind::Cpu,
        MemKind::Sys,
        p,
        n,
        (n / 2).max(1),
    )
    .unwrap();
    problem.fill_random("B", 0xB).unwrap();
    problem.fill_random("C", 0xC).unwrap();
    lower_problem(&problem, &schedule, cfg).unwrap()
}

/// Compressed SpMV `a(i) = B(i,j) * c(j)` on a `p`-rank line: B ships
/// CSR payloads, exercising the nnz-sized byte accounting.
fn spmv(p: i64, n: i64, cfg: &CollectiveConfig) -> SpmdProgram {
    let machine = DistalMachine::flat(Grid::line(p), ProcKind::Cpu);
    let mut problem = Problem::new(MachineSpec::small(p.max(1) as usize), machine);
    problem.statement("a(i) = B(i,j) * c(j)").unwrap();
    problem
        .tensor(TensorSpec::new(
            "a",
            vec![n],
            Format::parse("x->x", MemKind::Sys).unwrap(),
        ))
        .unwrap();
    let mut b_home = Format::undistributed_in(MemKind::Global);
    b_home.levels = Format::parse_levels("xy->x", "ds", MemKind::Sys)
        .unwrap()
        .levels;
    problem
        .tensor(TensorSpec::new("B", vec![n, n], b_home))
        .unwrap();
    problem
        .tensor(TensorSpec::new(
            "c",
            vec![n],
            Format::undistributed_in(MemKind::Global),
        ))
        .unwrap();
    problem.fill_random_sparse("B", 0xB, 0.25).unwrap();
    problem.fill_random("c", 0xC).unwrap();
    let schedule = Schedule::new()
        .divide("i", "io", "ii", p)
        .reorder(&["io", "ii"])
        .distribute(&["io"]);
    lower_problem(&problem, &schedule, cfg).unwrap()
}

/// Compressed SUMMA SpMM on a `g × g` grid.
fn spmm(g: i64, n: i64, cfg: &CollectiveConfig) -> SpmdProgram {
    let machine = DistalMachine::flat(Grid::grid2(g, g), ProcKind::Cpu);
    let mut problem = Problem::new(MachineSpec::small((g * g) as usize), machine);
    problem.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
    let tiles = Format::parse("xy->xy", MemKind::Sys).unwrap();
    problem
        .tensor(TensorSpec::new("A", vec![n, n], tiles.clone()))
        .unwrap();
    problem
        .tensor(TensorSpec::new(
            "B",
            vec![n, n],
            Format::parse_levels("xy->xy", "ds", MemKind::Sys).unwrap(),
        ))
        .unwrap();
    problem
        .tensor(TensorSpec::new("C", vec![n, n], tiles))
        .unwrap();
    problem.fill_random_sparse("B", 0xB, 0.25).unwrap();
    problem.fill_random("C", 0xC).unwrap();
    lower_problem(&problem, &Schedule::summa(g, g, (n / g).max(1)), cfg).unwrap()
}

/// Edits every message of the program in place; `edit` is told whether
/// the op carrying it sends.
fn edit_messages(program: &mut SpmdProgram, mut edit: impl FnMut(bool, &mut Message)) {
    program.rewrite(|stream| {
        for (_, op) in stream {
            match op {
                SpmdOp::Send(m) | SpmdOp::ReduceSend(m) => edit(true, m),
                SpmdOp::Recv(m) | SpmdOp::ReduceRecv(m) => edit(false, m),
                _ => {}
            }
        }
    });
}

/// The three collective lowerings every program must stay clean under.
fn lowerings() -> [(&'static str, CollectiveConfig); 3] {
    [
        ("point-to-point", CollectiveConfig::point_to_point()),
        ("trees", CollectiveConfig::trees()),
        ("rings", CollectiveConfig::rings()),
    ]
}

#[test]
fn figure9_programs_verify_clean_under_all_lowerings() {
    for (name, cfg) in lowerings() {
        for alg in MatmulAlgorithm::all(4) {
            let program = figure9(alg, 4, 8, &cfg);
            let diags = verify_program(&program);
            assert!(
                verified_clean(&diags) && diags.is_empty(),
                "{alg:?} under {name}: {diags:?}"
            );
        }
        // Johnson's 3D reduction cube needs a cubic rank count.
        let program = figure9(MatmulAlgorithm::Johnson, 8, 8, &cfg);
        let diags = verify_program(&program);
        assert!(diags.is_empty(), "Johnson under {name}: {diags:?}");
    }
}

#[test]
fn sparse_programs_verify_clean_under_all_lowerings() {
    for (name, cfg) in lowerings() {
        let diags = verify_program(&spmv(4, 16, &cfg));
        assert!(diags.is_empty(), "SpMV under {name}: {diags:?}");
        let diags = verify_program(&spmm(2, 8, &cfg));
        assert!(diags.is_empty(), "SpMM under {name}: {diags:?}");
    }
}

/// Mutation 1 — drop one send. Previously only the threaded transport's
/// 60 s watchdog caught this (as a runtime `Timeout`); the verifier must
/// reject it statically, naming the receiver left blocked.
#[test]
fn mutation_dropped_send_is_a_lost_message() {
    let mut program = figure9(MatmulAlgorithm::Summa, 4, 8, &CollectiveConfig::trees());
    let lost = program.messages().first().map(|m| **m).unwrap();
    let drop_it = |op: &SpmdOp| op.is_send() && op.message().is_some_and(|m| m.tag == lost.tag);
    program.rewrite(|stream| stream.retain(|(_, op)| !drop_it(op)));

    let diags = verify_program(&program);
    assert!(!verified_clean(&diags));
    let d = diags
        .iter()
        .find(|d| d.kind == DiagnosticKind::LostMessage)
        .unwrap_or_else(|| panic!("expected a lost-message diagnostic: {diags:?}"));
    assert_eq!(
        d.rank,
        Some(lost.to as usize),
        "must name the blocked receiver"
    );
    assert_eq!(d.tag, Some(lost.tag));
    assert_eq!(
        d.tensor.as_deref(),
        Some(&*program.tensor_name(lost.tensor))
    );
}

/// Mutation 2 — duplicate a send: one of the two payloads is never
/// received at execution time, so the verifier must reject the tag
/// collision.
#[test]
fn mutation_duplicated_send_is_a_duplicate_message() {
    let mut program = figure9(MatmulAlgorithm::Summa, 4, 8, &CollectiveConfig::trees());
    let dup_tag = program.messages().first().map(|m| m.tag).unwrap();
    program.rewrite(|stream| {
        let dup = stream
            .iter()
            .find(|(_, op)| op.is_send() && op.message().is_some_and(|m| m.tag == dup_tag))
            .cloned()
            .expect("the send exists");
        stream.push(dup);
    });
    let diags = verify_program(&program);
    assert!(diags
        .iter()
        .any(|d| d.kind == DiagnosticKind::DuplicateMessage && d.tag == Some(dup_tag)));
}

/// Mutation 3 — swap the tags of two sends with different rectangles:
/// both tags still match 1:1, but each pair now disagrees on identity.
#[test]
fn mutation_swapped_tags_are_a_mismatch() {
    let mut program = figure9(MatmulAlgorithm::Summa, 4, 8, &CollectiveConfig::trees());
    let (tag_a, tag_b) = {
        let msgs = program.messages();
        let first = *msgs[0];
        let other = msgs
            .iter()
            .find(|m| m.rect != first.rect)
            .expect("SUMMA moves differently shaped tiles")
            .tag;
        (first.tag, other)
    };
    let mut swapped = 0;
    edit_messages(&mut program, |send, m| {
        if send && (m.tag == tag_a || m.tag == tag_b) {
            m.tag = if m.tag == tag_a { tag_b } else { tag_a };
            swapped += 1;
        }
    });
    assert_eq!(swapped, 2, "both sends re-tagged");
    let diags = verify_program(&program);
    assert!(
        diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::MessageMismatch
                && (d.tag == Some(tag_a) || d.tag == Some(tag_b))
                && d.rank.is_some()),
        "{diags:?}"
    );
}

/// Translates a rectangle by `d` along every dimension.
fn shift(r: &distal_machine::geom::Rect, d: i64) -> distal_machine::geom::Rect {
    use distal_machine::geom::{Point, Rect};
    Rect::new(
        Point::new(r.lo().coords().iter().map(|c| c + d).collect()),
        Point::new(r.hi().coords().iter().map(|c| c + d).collect()),
    )
}

/// Mutation 4 — skew one transfer's rectangle past the tensor's extent on
/// *both* endpoints (so matching stays agreeable): bounds must trip.
#[test]
fn mutation_out_of_bounds_rect_rejected() {
    let mut program = figure9(MatmulAlgorithm::Summa, 4, 8, &CollectiveConfig::trees());
    let bad = program.messages().first().map(|m| **m).unwrap();
    let (bad_tag, shifted) = (bad.tag, shift(program.rect(bad.rect), 1000));
    let shifted = program.intern(shifted);
    let mut skewed = None;
    edit_messages(&mut program, |_, m| {
        if m.tag == bad_tag {
            m.rect = shifted;
            skewed = Some((m.tensor, m.tag));
        }
    });
    let (tensor, tag) = skewed.expect("found the transfer to skew");
    let diags = verify_program(&program);
    let d = diags
        .iter()
        .find(|d| d.kind == DiagnosticKind::OutOfBounds)
        .unwrap_or_else(|| panic!("expected out-of-bounds: {diags:?}"));
    assert_eq!(d.tensor.as_deref(), Some(&*program.tensor_name(tensor)));
    assert_eq!(d.tag, Some(tag));
    assert!(d.rank.is_some());
}

/// Mutation 5 — alias an output: copy one rank's leaf onto another rank,
/// so two ranks write the same output rectangle of a non-reducing
/// program. The fold at gather time would silently double-count.
#[test]
fn mutation_aliased_output_write_is_a_hazard() {
    let mut program = figure9(MatmulAlgorithm::Summa, 4, 8, &CollectiveConfig::trees());
    assert!(!program.dist_reduces, "SUMMA reduces locally");
    let stolen = program
        .rank_ops(0)
        .iter()
        .find(|op| matches!(op, SpmdOp::Compute { .. }))
        .cloned()
        .expect("rank 0 computes");
    program.rewrite(|stream| stream.push((1, stolen)));
    let diags = verify_program(&program);
    let out = program.assignment.lhs.tensor.clone();
    assert!(
        diags.iter().any(|d| d.kind == DiagnosticKind::WriteHazard
            && d.tensor.as_deref() == Some(out.as_str())
            && d.rank.is_some()),
        "{diags:?}"
    );
}

/// Mutation 6 — build a cyclic wait: pick two 1:1-matched transfers in
/// opposite directions between a pair of ranks and hoist each receive
/// ahead of the opposing send. Matching stays clean; only the
/// happens-before cycle betrays the deadlock.
#[test]
fn mutation_cyclic_wait_is_a_deadlock() {
    let mut program = figure9(
        MatmulAlgorithm::Cannon,
        4,
        8,
        &CollectiveConfig::point_to_point(),
    );
    // Find ranks a, b with messages flowing both ways.
    let msgs: Vec<_> = program.messages().into_iter().cloned().collect();
    let (m1, m2) = msgs
        .iter()
        .find_map(|m1| {
            msgs.iter()
                .find(|m2| m1.from != m1.to && m2.from == m1.to && m2.to == m1.from)
                .map(|m2| (*m1, *m2))
        })
        .expect("Cannon shifts in both directions");
    // On each endpoint rank, move the receive of the opposing message to
    // the very front of its program — before its own send.
    program.rewrite(|stream| {
        for (rank, recv_tag) in [(m1.from as usize, m2.tag), (m2.from as usize, m1.tag)] {
            let pos = stream
                .iter()
                .position(|(r, op)| {
                    *r == rank && !op.is_send() && op.message().is_some_and(|m| m.tag == recv_tag)
                })
                .expect("the receive exists on this rank");
            let recv = stream.remove(pos);
            stream.insert(0, recv);
        }
    });
    let diags = verify_program(&program);
    let d = diags
        .iter()
        .find(|d| d.kind == DiagnosticKind::Deadlock)
        .unwrap_or_else(|| panic!("expected a deadlock diagnostic: {diags:?}"));
    assert!(d.rank.is_some() && d.tag.is_some(), "{d}");
}
