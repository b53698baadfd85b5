//! A compressed operand bound as CSR is the same request as the same data
//! bound dense: same reads, same bytes, same modelled time on every
//! backend — and `Report::flops` counts what the CSR leaf does.

use distal::prelude::*;
use std::sync::Arc;

mod common;
use common::Rng;

fn spmv_problem(n: i64, p: i64) -> (Problem, Schedule) {
    let machine = DistalMachine::flat(Grid::line(p), ProcKind::Cpu);
    let mut problem = Problem::new(MachineSpec::small(2), machine);
    problem.statement("a(i) = B(i,j) * c(j)").unwrap();
    let rows = Format::parse("x->x", MemKind::Sys).unwrap();
    let csr = Format::parse_levels("xy->x", "ds", MemKind::Sys).unwrap();
    problem.tensor(TensorSpec::new("a", vec![n], rows)).unwrap();
    problem
        .tensor(TensorSpec::new("B", vec![n, n], csr))
        .unwrap();
    let whole = Format::undistributed_in(MemKind::Global);
    problem
        .tensor(TensorSpec::new("c", vec![n], whole))
        .unwrap();
    let schedule = Schedule::new()
        .divide("i", "io", "ii", p)
        .reorder(&["io", "ii"])
        .distribute(&["io"]);
    (problem, schedule)
}

/// `n × n` row-major data with exactly `nnz` stored entries at seeded
/// positions.
fn pattern(rng: &mut Rng, n: i64, nnz: usize) -> Vec<f64> {
    let mut data = vec![0.0f64; (n * n) as usize];
    let mut stored = 0;
    while stored < nnz {
        let at = rng.below(data.len());
        if data[at].to_bits() == 0 {
            data[at] = 1.0 + rng.below(7) as f64;
            stored += 1;
        }
    }
    data
}

fn bits(data: &[f64]) -> Vec<u64> {
    data.iter().map(|v| v.to_bits()).collect()
}

/// The model's makespan: beside the wall clock of a run that really ran,
/// else the headline itself.
fn modeled(report: &Report) -> f64 {
    report.modeled_s.unwrap_or(report.critical_path_s)
}

#[test]
fn set_sparse_is_set_data_on_both_backends() {
    let n = 24;
    let (problem, schedule) = spmv_problem(n, 4);
    let mut rng = Rng(0x5EED);
    let backends: [(&str, Box<dyn Backend>); 3] = [
        ("runtime", Box::new(RuntimeBackend::functional())),
        (
            "runtime, interpreted leaf",
            Box::new(RuntimeBackend::functional()),
        ),
        ("spmd", Box::new(SpmdBackend::new())),
    ];
    for (name, backend) in &backends {
        // Under `substitute(.., Interpreter)` no leaf reads CSR: the same
        // binding decompresses.
        let schedule = match name.contains("interpreted") {
            true => schedule.clone().substitute(&["ii"], LeafKind::Interpreter),
            false => schedule.clone(),
        };
        let plan = backend.plan(&problem, &schedule).unwrap();
        for nnz in [0, 7, 200, (n * n) as usize] {
            let b = pattern(&mut rng, n, nnz);
            let c = rng.data(n as usize);
            let image = Arc::new(SparseBuffer::from_dense(&[n, n], &b));
            let mut dense = Bindings::new();
            dense.set_data("B", b).set_data("c", c.clone());
            // `c` is consumed densely: a CSR binding of it decompresses.
            let mut sparse = Bindings::new();
            sparse
                .set_sparse("B", image)
                .set_sparse("c", Arc::new(SparseBuffer::from_dense(&[n], &c)));
            let mut runs = [dense, sparse].map(|bindings| {
                let mut instance = plan.bind(&bindings).unwrap();
                let report = instance.run().unwrap();
                (instance, report)
            });
            let [(dense, dense_report), (sparse, sparse_report)] = &mut runs;
            for tensor in ["a", "B", "c"] {
                assert_eq!(
                    bits(&dense.read(tensor).unwrap()),
                    bits(&sparse.read(tensor).unwrap()),
                    "{name}: '{tensor}' at nnz {nnz}"
                );
            }
            assert_eq!(
                dense_report.bytes_moved, sparse_report.bytes_moved,
                "{name}"
            );
            assert_eq!(dense_report.flops, sparse_report.flops, "{name}");
            assert_eq!(modeled(dense_report), modeled(sparse_report), "{name}");
        }
    }
}

#[test]
fn report_flops_count_the_stored_entries_the_leaf_visits() {
    let n = 40;
    let (problem, schedule) = spmv_problem(n, 4);
    let mut rng = Rng(0xF10B5);
    let c = rng.data(n as usize);
    let run = |backend: &RuntimeBackend, b: Vec<f64>| {
        let plan = backend.plan_typed(&problem, &schedule).unwrap();
        assert_eq!(plan.kernel().csr_operand.as_deref(), Some("B"));
        let mut bindings = Bindings::new();
        bindings.set_data("B", b).set_data("c", c.clone());
        plan.bind_typed(&bindings).unwrap().run().unwrap()
    };
    let functional = RuntimeBackend::functional();
    // Equal nnz, different patterns — one of them with every stored entry
    // in the first rank's rows: the report depends on how many entries are
    // stored, never on where.
    let spread = pattern(&mut rng, n, 16);
    let mut bunched = vec![0.0; (n * n) as usize];
    bunched[..16].fill(2.0);
    let (spread, bunched) = (run(&functional, spread), run(&functional, bunched));
    assert_eq!(spread.flops, bunched.flops);
    assert_eq!(spread.bytes_moved, bunched.bytes_moved);
    assert_eq!(modeled(&spread), modeled(&bunched));
    // Two flops per stored entry; density 0.5 is 50× density 0.01.
    let half = pattern(&mut rng, n, 800);
    let half_report = run(&functional, half.clone());
    assert!((spread.flops - 2.0 * 16.0).abs() < 1e-9, "{}", spread.flops);
    assert!((half_report.flops / spread.flops - 50.0).abs() < 1e-9);
    // Model mode counts the same from the binding's nnz alone.
    let modeled_run = run(&RuntimeBackend::model(), half);
    assert_eq!(modeled_run.flops, half_report.flops);
    assert_eq!(modeled_run.bytes_moved, half_report.bytes_moved);
    assert_eq!(modeled_run.critical_path_s, modeled(&half_report));
    // An interpreted leaf visits every point and says so.
    let dense_leaf = schedule.clone().substitute(&["ii"], LeafKind::Interpreter);
    let plan = functional.plan_typed(&problem, &dense_leaf).unwrap();
    assert_eq!(plan.kernel().csr_operand, None);
    let mut bindings = Bindings::new();
    bindings
        .set_data("B", pattern(&mut rng, n, 16))
        .set_data("c", c.clone());
    let report = plan.bind_typed(&bindings).unwrap().run().unwrap();
    assert_eq!(report.flops, 2.0 * (n * n) as f64);
}
