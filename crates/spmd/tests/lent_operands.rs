//! A dense operand bound as shared data reaches the rank VM lent, not
//! tiled: binding takes one share of the caller's `Arc` per operand, which
//! every rank reads its home pieces through, and gives it back when the
//! instance drops. A compressed operand keeps its tiles.

use distal_core::{
    oracle, random_data, sparse_random_data, Backend, Bindings, DistalMachine, Problem, Schedule,
    TensorInit, TensorSpec,
};
use distal_format::Format;
use distal_machine::grid::Grid;
use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
use distal_spmd::{SpmdBackend, Transport};
use std::sync::Arc;

/// An `n × n` matmul on a 2 × 2 grid, `B` stored CSR when `csr_b`.
fn matmul(n: i64, csr_b: bool) -> Problem {
    let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
    let mut p = Problem::new(MachineSpec::small(2), machine);
    p.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
    let dense = Format::parse("xy->xy", MemKind::Sys).unwrap();
    let csr = Format::parse_levels("xy->xy", "ds", MemKind::Sys).unwrap();
    for t in ["A", "B", "C"] {
        let format = if t == "B" && csr_b { &csr } else { &dense };
        p.tensor(TensorSpec::new(t, vec![n, n], format.clone()))
            .unwrap();
    }
    p
}

#[test]
fn a_bound_dense_operand_is_lent_once_and_given_back() {
    let n = 16;
    let len = (n * n) as usize;
    for csr_b in [false, true] {
        for transport in [Transport::Sequential, Transport::threaded_with(2)] {
            let what = format!("B {}, {transport:?}", if csr_b { "CSR" } else { "dense" });
            let problem = matmul(n, csr_b);
            let b = Arc::new(sparse_random_data(len, 1, 0.3));
            let c = Arc::new(random_data(len, 2));
            let plan = SpmdBackend::new()
                .with_transport(transport)
                .plan(&problem, &Schedule::summa(2, 2, 4))
                .unwrap();
            let mut bindings = Bindings::new();
            bindings
                .set_init("B", TensorInit::Data(Arc::clone(&b)))
                .set_init("C", TensorInit::Data(Arc::clone(&c)));
            let mut inst = plan.bind(&bindings).unwrap();
            drop(bindings);
            // One share per dense operand, whatever its pieces on p = 4.
            let b_shares = if csr_b { 1 } else { 2 };
            let shares = (Arc::strong_count(&b), Arc::strong_count(&c));
            assert_eq!(shares, (b_shares, 2), "{what}");

            inst.place().unwrap();
            inst.execute().unwrap();
            let first = inst.read("A").unwrap();
            inst.execute().unwrap();
            let second = inst.read("A").unwrap();
            let inputs = [("B", &b), ("C", &c)].map(|(t, d)| (t.to_string(), d.to_vec()));
            let want = oracle::evaluate(
                problem.assignment().unwrap(),
                &problem.dims_map(),
                &inputs.into_iter().collect(),
            )
            .unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&first), bits(&want), "{what}: against the oracle");
            assert_eq!(bits(&second), bits(&first), "{what}: a second execute");
            assert_eq!(inst.read("C").unwrap(), *c, "{what}");

            drop(inst);
            let shares = (Arc::strong_count(&b), Arc::strong_count(&c));
            assert_eq!(shares, (1, 1), "{what}: the instance kept a share");
        }
    }
}
