//! End-to-end verification of automatic schedule/format selection:
//! the winning candidate must be *correct* (functional run vs oracle),
//! competitive with the hand schedules of Figure 9, and the search must
//! respect memory limits the way the paper's Figure 15b does (replication-
//! heavy candidates go infeasible on small framebuffers).

use distal_autosched::{AutoScheduler, Candidate, SearchConfig};
use distal_core::{oracle, DistalMachine, Problem, RuntimeBackend, TensorSpec};
use distal_machine::spec::{MachineSpec, ProcKind};
use std::collections::BTreeMap;

fn matmul_dims(n: i64) -> BTreeMap<String, Vec<i64>> {
    ["A", "B", "C"]
        .iter()
        .map(|t| (t.to_string(), vec![n, n]))
        .collect()
}

/// Runs a candidate functionally and compares against the oracle.
fn run_functional(
    candidate: &Candidate,
    expr: &str,
    dims: &BTreeMap<String, Vec<i64>>,
    proc_kind: ProcKind,
    out: &str,
) {
    let machine = DistalMachine::flat(candidate.grid.clone(), proc_kind);
    let mut problem = Problem::new(MachineSpec::small(4), machine);
    problem.statement(expr).unwrap();
    for (name, shape) in dims {
        problem
            .tensor(TensorSpec::new(
                name.clone(),
                shape.clone(),
                candidate.formats[name].clone(),
            ))
            .unwrap();
        if name != out {
            problem.fill_random(name, 0xAB + name.len() as u64).unwrap();
        }
    }
    let mut instance = problem
        .compile(&RuntimeBackend::functional(), &candidate.schedule)
        .unwrap();
    instance.run().unwrap();
    let got = instance.read(out).unwrap();

    let mut inputs = BTreeMap::new();
    for name in dims.keys().filter(|n| *n != out) {
        inputs.insert(name.clone(), instance.read(name).unwrap());
    }
    let want = oracle::evaluate(problem.assignment().unwrap(), dims, &inputs).unwrap();
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert!(
            (g - w).abs() < 1e-9 * (1.0 + w.abs()),
            "{}: index {i}: {g} vs {w}",
            candidate.name
        );
    }
}

#[test]
fn best_matmul_candidate_is_functionally_correct() {
    let scheduler = AutoScheduler::new(SearchConfig::cpu(MachineSpec::small(4)));
    let dims = matmul_dims(16);
    let result = scheduler.search("A(i,j) = B(i,k) * C(k,j)", &dims).unwrap();
    let best = result.best().expect("feasible candidate");
    run_functional(
        &best.candidate,
        "A(i,j) = B(i,k) * C(k,j)",
        &dims,
        ProcKind::Cpu,
        "A",
    );
}

#[test]
fn top_candidates_are_all_functionally_correct() {
    // Not just the winner: every feasible candidate the search would rank
    // must compute the right answer (schedules affect performance, not
    // correctness — §3.3).
    let scheduler = AutoScheduler::new(SearchConfig::cpu(MachineSpec::small(2)));
    let dims = matmul_dims(12);
    let result = scheduler.search("A(i,j) = B(i,k) * C(k,j)", &dims).unwrap();
    let feasible: Vec<_> = result.evaluations.iter().filter(|e| e.feasible()).collect();
    assert!(
        feasible.len() >= 4,
        "want a real space, got {}",
        feasible.len()
    );
    for e in feasible {
        run_functional(
            &e.candidate,
            "A(i,j) = B(i,k) * C(k,j)",
            &dims,
            ProcKind::Cpu,
            "A",
        );
    }
}

#[test]
fn ttv_best_candidate_is_functionally_correct() {
    let scheduler = AutoScheduler::new(SearchConfig::cpu(MachineSpec::small(2)));
    let mut dims = BTreeMap::new();
    dims.insert("A".to_string(), vec![8, 8]);
    dims.insert("B".to_string(), vec![8, 8, 8]);
    dims.insert("c".to_string(), vec![8]);
    let result = scheduler.search("A(i,j) = B(i,j,k) * c(k)", &dims).unwrap();
    let best = result.best().expect("feasible candidate");
    run_functional(
        &best.candidate,
        "A(i,j) = B(i,j,k) * c(k)",
        &dims,
        ProcKind::Cpu,
        "A",
    );
}

#[test]
fn auto_is_at_least_as_good_as_hand_summa() {
    // The space contains the SUMMA shape, so the winner can never lose to
    // the hand-written Figure 2 schedule evaluated under the same model.
    let scheduler = AutoScheduler::new(SearchConfig::cpu(MachineSpec::small(8)));
    let p = scheduler.config().processors();
    let n = 2048i64;
    let dims = matmul_dims(n);
    let result = scheduler.search("A(i,j) = B(i,k) * C(k,j)", &dims).unwrap();
    let best = result.best().unwrap();

    let grid = distal_machine::grid::Grid::near_square_2d(p);
    let hand = Candidate {
        name: "hand-summa".into(),
        grid: grid.clone(),
        formats: ["A", "B", "C"]
            .iter()
            .map(|t| {
                (
                    t.to_string(),
                    distal_format::Format::parse("xy->xy", distal_machine::spec::MemKind::Sys)
                        .unwrap(),
                )
            })
            .collect(),
        schedule: distal_core::Schedule::summa(grid.extent(0), grid.extent(1), n / grid.extent(0)),
    };
    let hand_eval = scheduler.evaluate("A(i,j) = B(i,k) * C(k,j)", &dims, hand);
    assert!(hand_eval.feasible(), "{:?}", hand_eval.infeasible);
    assert!(
        best.makespan_s <= hand_eval.makespan_s * 1.001,
        "auto {} ({:.6}s) lost to hand SUMMA ({:.6}s)",
        best.candidate.name,
        best.makespan_s,
        hand_eval.makespan_s
    );
}

#[test]
fn memory_pressure_rejects_replication_like_figure15b() {
    // On a machine with tiny framebuffers, the replication-heavy families
    // (pre-broadcast inputs, Johnson-style 3D) must be reported infeasible
    // — the paper's Johnson's/COSMA OOM at 32 nodes (§7.1.2) — while a
    // tiled 2D candidate still wins.
    let n = 4096i64;
    let dims = matmul_dims(n);

    let mut tight = MachineSpec::lassen(4);
    // Full matrices are 128 MiB each; a 4x4-grid tile is 8 MiB. 40 MiB of
    // framebuffer fits tiles + streamed chunks but not replicated inputs.
    tight.node.fb_bytes = 40 * (1 << 20);
    let scheduler = AutoScheduler::new(SearchConfig::gpu(tight));
    let result = scheduler.search("A(i,j) = B(i,k) * C(k,j)", &dims).unwrap();

    let infeasible: Vec<&str> = result
        .evaluations
        .iter()
        .filter(|e| !e.feasible())
        .map(|e| e.candidate.name.as_str())
        .collect();
    assert!(
        infeasible
            .iter()
            .any(|n| n.ends_with("+rep") || n.starts_with("reduce3d")),
        "expected replication-heavy candidates to OOM, infeasible = {infeasible:?}"
    );
    let best = result.best().expect("a tiled 2D candidate must survive");
    assert!(
        best.candidate.name.starts_with("owner") || best.candidate.name.starts_with("systolic"),
        "{}",
        best.candidate.name
    );
    assert!(!best.candidate.name.ends_with("+rep"));

    // The same search with roomy memory keeps everything feasible.
    let roomy = AutoScheduler::new(SearchConfig::gpu(MachineSpec::lassen(4)));
    let roomy_result = roomy.search("A(i,j) = B(i,k) * C(k,j)", &dims).unwrap();
    assert!(
        roomy_result.evaluations.iter().all(|e| e.feasible()),
        "{:?}",
        roomy_result
            .evaluations
            .iter()
            .filter(|e| !e.feasible())
            .map(|e| (&e.candidate.name, &e.infeasible))
            .collect::<Vec<_>>()
    );
}

#[test]
fn search_report_is_printable() {
    let scheduler = AutoScheduler::new(SearchConfig::cpu(MachineSpec::small(2)));
    let result = scheduler
        .search("A(i,j) = B(i,k) * C(k,j)", &matmul_dims(64))
        .unwrap();
    for e in &result.evaluations {
        let line = format!("{e}");
        assert!(line.contains(&e.candidate.name));
    }
}
