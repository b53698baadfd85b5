//! Execution spaces (paper §3.3, Figures 6–8).
//!
//! An execution space has a *processor* dimension and a *time* dimension; a
//! mapping of iteration-space points onto it describes an execution
//! strategy. `distribute` moves iterations of the distributed loops onto
//! different processors at the same time; `rotate` re-times iterations so
//! that systolic (neighbour-shift) patterns emerge.
//!
//! This module enumerates the execution-space mapping of a (small) scheduled
//! statement, primarily so tests can assert the paper's figures exactly.

use crate::cin::ConcreteNotation;
use crate::expr::IndexVar;
use crate::provenance::{Env, VarId};
use std::collections::BTreeMap;

/// One executed iteration-space point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecPoint {
    /// Coordinates of the processor (values of the distributed loop vars).
    pub proc: Vec<i64>,
    /// Relative time (lexicographic index of the sequential loop values).
    pub time: i64,
    /// Values of the *original* iteration-space variables at this point.
    pub iter: BTreeMap<IndexVar, i64>,
}

/// Enumerates the execution-space mapping of a scheduled statement.
///
/// Distributed loops (which must be the outermost prefix) become the
/// processor dimension; remaining loops are linearized into time. Original
/// variable values are recovered through the statement's solver, so `rotate`
/// and `divide`/`split` compositions are reflected faithfully.
///
/// # Panics
///
/// Panics if a distributed loop appears below a sequential one.
pub fn execution_space(cin: &ConcreteNotation) -> Vec<ExecPoint> {
    let n_dist = match cin.distributed_prefix() {
        Some(p) => p.len(),
        None => {
            assert!(
                cin.loops.iter().all(|l| !l.distributed),
                "distributed loops must be an outermost prefix"
            );
            0
        }
    };
    let dist_vars: Vec<IndexVar> = cin.loops[..n_dist].iter().map(|l| l.var.clone()).collect();
    let seq_vars: Vec<IndexVar> = cin.loops[n_dist..].iter().map(|l| l.var.clone()).collect();
    let dist_extents: Vec<i64> = dist_vars.iter().map(|v| cin.solver.extent(v)).collect();
    let seq_extents: Vec<i64> = seq_vars.iter().map(|v| cin.solver.extent(v)).collect();
    // Loop variables and the originals the body references, by id: every
    // one of them is the solver's.
    let id = |v: &IndexVar| cin.solver.id(v).expect("a variable of the statement");
    let dist_ids: Vec<VarId> = dist_vars.iter().map(id).collect();
    let seq_ids: Vec<VarId> = seq_vars.iter().map(id).collect();
    let originals: Vec<(&IndexVar, VarId)> = cin
        .body
        .accesses()
        .into_iter()
        .flat_map(|a| &a.indices)
        .map(|v| (v, id(v)))
        .collect();
    let mut out = Vec::new();
    let mut env = Env::new();
    for_each_point(&dist_extents, &mut |proc| {
        for_each_point(&seq_extents, &mut |seq| {
            for (&v, &x) in dist_ids.iter().zip(proc).chain(seq_ids.iter().zip(seq)) {
                env.bind(v, x);
            }
            let mut iter = BTreeMap::new();
            for &(name, v) in &originals {
                if let Some(x) = cin.solver.value(v, &env) {
                    iter.insert(name.clone(), x);
                }
            }
            let time = linearize(seq, &seq_extents);
            out.push(ExecPoint {
                proc: proc.to_vec(),
                time,
                iter,
            });
        });
    });
    out
}

fn linearize(coords: &[i64], extents: &[i64]) -> i64 {
    let mut idx = 0;
    for (c, e) in coords.iter().zip(extents.iter()) {
        idx = idx * e + c;
    }
    idx
}

fn for_each_point(extents: &[i64], f: &mut impl FnMut(&[i64])) {
    let mut coords = vec![0i64; extents.len()];
    loop {
        f(&coords);
        let mut d = extents.len();
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            coords[d] += 1;
            if coords[d] < extents[d] {
                break;
            }
            coords[d] = 0;
            if d == 0 {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cin::ConcreteNotation;
    use crate::expr::Assignment;

    fn iv(s: &str) -> IndexVar {
        IndexVar::new(s)
    }

    /// The running example of §3.3: ∀i ∀j a(i) += b(j), |a|=|b|=|M|=3.
    fn running_example() -> ConcreteNotation {
        let a = Assignment::parse("a(i) = b(j)").unwrap();
        let extents: BTreeMap<IndexVar, i64> = [(iv("i"), 3), (iv("j"), 3)].into_iter().collect();
        ConcreteNotation::from_assignment(a, &extents).unwrap()
    }

    #[test]
    fn figure6_distribute_i() {
        // distribute(i): all i iterations on different processors at the
        // same time; each processor walks j in time order.
        let mut cin = running_example();
        cin.distribute(&[iv("i")]).unwrap();
        let es = execution_space(&cin);
        assert_eq!(es.len(), 9);
        for p in &es {
            // Processor == i coordinate; time == j (Figure 6).
            assert_eq!(p.proc, vec![p.iter[&iv("i")]]);
            assert_eq!(p.time, p.iter[&iv("j")]);
        }
        // At time 0 every processor executes column j=0 simultaneously.
        let t0: Vec<_> = es.iter().filter(|p| p.time == 0).collect();
        assert_eq!(t0.len(), 3);
        assert!(t0.iter().all(|p| p.iter[&iv("j")] == 0));
    }

    #[test]
    fn figure8b_rotation_breaks_symmetry() {
        // rotate(j, {i}, js): processor i executes j = (t + i) mod 3 at
        // time t — no two processors touch the same j at the same time.
        let mut cin = running_example();
        cin.distribute(&[iv("i")]).unwrap();
        cin.rotate(&iv("j"), &[iv("i")], iv("js")).unwrap();
        let es = execution_space(&cin);
        assert_eq!(es.len(), 9);
        for p in &es {
            let i = p.proc[0];
            let expected_j = (p.time + i).rem_euclid(3);
            assert_eq!(p.iter[&iv("j")], expected_j, "proc {i} time {}", p.time);
        }
        // Paper Figure 8b rows: P0: 0,1,2; P1: 1,2,0; P2: 2,0,1.
        let row = |i: i64| -> Vec<i64> {
            let mut xs: Vec<_> = es
                .iter()
                .filter(|p| p.proc[0] == i)
                .map(|p| (p.time, p.iter[&iv("j")]))
                .collect();
            xs.sort();
            xs.into_iter().map(|(_, j)| j).collect()
        };
        assert_eq!(row(0), vec![0, 1, 2]);
        assert_eq!(row(1), vec![1, 2, 0]);
        assert_eq!(row(2), vec![2, 0, 1]);
        // Symmetry broken: at each time, all processors use distinct j.
        for t in 0..3 {
            let mut js: Vec<i64> = es
                .iter()
                .filter(|p| p.time == t)
                .map(|p| p.iter[&iv("j")])
                .collect();
            js.sort_unstable();
            assert_eq!(js, vec![0, 1, 2]);
        }
    }

    #[test]
    fn default_mapping_is_sequential() {
        // With no distribution, everything runs on one (implicit) processor
        // in lexicographic time order (§3.3 "default execution space").
        let cin = running_example();
        let es = execution_space(&cin);
        assert_eq!(es.len(), 9);
        for (idx, p) in es.iter().enumerate() {
            assert!(p.proc.is_empty());
            assert_eq!(p.time, idx as i64);
        }
    }
}
