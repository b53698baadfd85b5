//! Property tests for the scheduling rewrites (paper §5.2): every
//! transformation must preserve the iteration space — schedules "only
//! affect performance, not correctness" (§3.3).

use distal_ir::cin::ConcreteNotation;
use distal_ir::expr::{kernels, IndexVar};
use distal_ir::provenance::{Env, VarId, VarSolver};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn iv(s: &str) -> IndexVar {
    IndexVar::new(s)
}

/// The id of a variable `s` knows.
fn id(s: &VarSolver, name: &str) -> VarId {
    s.id(&iv(name)).expect("a known variable")
}

/// An environment binding the named variables of `s`.
fn env(s: &VarSolver, bound: &[(&str, i64)]) -> Env {
    let mut env = Env::new();
    for &(name, value) in bound {
        env.bind(id(s, name), value);
    }
    env
}

proptest! {
    /// `divide` tiles the domain exactly: the per-outer intervals are
    /// disjoint, ordered, and their union is `[0, extent)`.
    #[test]
    fn divide_partitions_domain(extent in 1i64..200, parts in 1i64..12) {
        let mut s = VarSolver::new();
        s.define_leaf(iv("i"), extent);
        s.divide(&iv("i"), iv("io"), iv("ii"), parts).unwrap();
        let mut covered = 0;
        let mut prev_hi = -1;
        for o in 0..s.extent(&iv("io")) {
            let r = s.interval(id(&s, "i"), &env(&s, &[("io", o)]));
            if r.is_empty() {
                continue; // trailing empty blocks allowed
            }
            prop_assert_eq!(r.lo, prev_hi + 1);
            prev_hi = r.hi;
            covered += r.len();
        }
        prop_assert_eq!(covered, extent);
        prop_assert_eq!(prev_hi, extent - 1);
    }

    /// `split` is `divide` with the roles of the factor flipped: chunks of
    /// the given size, same exact-cover law.
    #[test]
    fn split_partitions_domain(extent in 1i64..200, chunk in 1i64..40) {
        let mut s = VarSolver::new();
        s.define_leaf(iv("k"), extent);
        s.split(&iv("k"), iv("ko"), iv("ki"), chunk).unwrap();
        let mut covered = 0;
        for o in 0..s.extent(&iv("ko")) {
            let r = s.interval(id(&s, "k"), &env(&s, &[("ko", o)]));
            prop_assert!(!r.is_empty());
            prop_assert!(r.len() <= chunk);
            covered += r.len();
        }
        prop_assert_eq!(covered, extent);
    }

    /// `rotate` is a bijection of the rotated domain for every fixed
    /// assignment of the offset variables — no iteration is lost or
    /// duplicated, which is why Cannon's rotation preserves correctness.
    #[test]
    fn rotate_is_a_bijection(extent in 1i64..24, io in 0i64..24, jo in 0i64..24) {
        let mut s = VarSolver::new();
        s.define_leaf(iv("ko"), extent);
        s.define_leaf(iv("io"), 24);
        s.define_leaf(iv("jo"), 24);
        s.rotate(&iv("ko"), vec![iv("io"), iv("jo")], iv("kos")).unwrap();
        let mut seen = vec![false; extent as usize];
        for kos in 0..extent {
            let env = env(&s, &[("kos", kos), ("io", io), ("jo", jo)]);
            let k = s.value(id(&s, "ko"), &env).expect("concrete env");
            prop_assert!((0..extent).contains(&k));
            prop_assert!(!seen[k as usize], "duplicate {k}");
            seen[k as usize] = true;
        }
        prop_assert!(seen.iter().all(|&b| b));
    }

    /// Symmetry breaking (§3.3): with a non-trivial extent, two different
    /// offset sums never map the same rotated iteration to the same
    /// original iteration at every step.
    #[test]
    fn rotate_breaks_symmetry(extent in 2i64..24, a in 0i64..24, b in 0i64..24) {
        prop_assume!((a - b) % extent != 0);
        let mut s = VarSolver::new();
        s.define_leaf(iv("ko"), extent);
        s.define_leaf(iv("io"), 48);
        s.rotate(&iv("ko"), vec![iv("io")], iv("kos")).unwrap();
        for kos in 0..extent {
            let env_a = env(&s, &[("kos", kos), ("io", a)]);
            let env_b = env(&s, &[("kos", kos), ("io", b)]);
            prop_assert_ne!(
                s.value(id(&s, "ko"), &env_a),
                s.value(id(&s, "ko"), &env_b)
            );
        }
    }

    /// `collapse` then indexing is a bijection between the fused domain and
    /// the (a, b) pairs.
    #[test]
    fn collapse_roundtrip(ea in 1i64..16, eb in 1i64..16) {
        let mut s = VarSolver::new();
        s.define_leaf(iv("a"), ea);
        s.define_leaf(iv("b"), eb);
        s.collapse(&iv("a"), &iv("b"), iv("f")).unwrap();
        let mut seen = vec![false; (ea * eb) as usize];
        for f in 0..ea * eb {
            let env = env(&s, &[("f", f)]);
            let a = s.value(id(&s, "a"), &env).unwrap();
            let b = s.value(id(&s, "b"), &env).unwrap();
            prop_assert!((0..ea).contains(&a));
            prop_assert!((0..eb).contains(&b));
            let idx = (a * eb + b) as usize;
            prop_assert!(!seen[idx]);
            seen[idx] = true;
        }
        prop_assert!(seen.iter().all(|&x| x));
    }

    /// Random valid schedule chains on matmul: the loop variables remain a
    /// permutation of the live solver variables, and every loop variable
    /// descends from an original statement variable.
    #[test]
    fn schedule_chains_preserve_structure(
        parts in 1i64..5,
        chunk in 1i64..17,
        do_rotate in any::<bool>(),
        do_collapse in any::<bool>(),
    ) {
        let extents: BTreeMap<IndexVar, i64> =
            [("i", 24), ("j", 24), ("k", 24)].iter().map(|(v, e)| (iv(v), *e)).collect();
        let mut cin = ConcreteNotation::from_assignment(kernels::matmul(), &extents).unwrap();
        cin.divide(&iv("i"), iv("io"), iv("ii"), parts).unwrap();
        cin.divide(&iv("j"), iv("jo"), iv("ji"), parts).unwrap();
        cin.reorder(&[iv("io"), iv("jo"), iv("ii"), iv("ji")]).unwrap();
        cin.distribute(&[iv("io"), iv("jo")]).unwrap();
        cin.split(&iv("k"), iv("ko"), iv("ki"), chunk).unwrap();
        cin.reorder(&[iv("ko"), iv("ii"), iv("ji"), iv("ki")]).unwrap();
        if do_rotate {
            cin.rotate(&iv("ko"), &[iv("io"), iv("jo")], iv("kos")).unwrap();
        }
        if do_collapse {
            cin.collapse(&iv("ii"), &iv("ji"), iv("f")).unwrap();
        }
        // The nest stays consistent with the solver.
        let loop_vars = cin.loop_vars();
        for v in &loop_vars {
            prop_assert!(cin.solver.knows(v), "{v:?}");
            let roots = cin.solver.roots_of(v);
            prop_assert!(!roots.is_empty());
            for r in roots {
                prop_assert!(["i", "j", "k"].contains(&r.0.as_str()));
            }
        }
        // Distributed prefix survives all later transformations.
        prop_assert_eq!(cin.distributed_prefix().map(<[distal_ir::cin::Loop]>::len), Some(2));
        // Total iteration count is invariant: product of loop extents is at
        // least the original domain (ceil-division padding only adds).
        let total: i64 = loop_vars.iter().map(|v| cin.solver.extent(v)).product();
        prop_assert!(total >= 24 * 24 * 24);
    }
}

#[test]
fn reorder_rejects_unknown_and_duplicates() {
    let extents: BTreeMap<IndexVar, i64> = [("i", 4), ("j", 4), ("k", 4)]
        .iter()
        .map(|(v, e)| (iv(v), *e))
        .collect();
    let mut cin = ConcreteNotation::from_assignment(kernels::matmul(), &extents).unwrap();
    assert!(cin.reorder(&[iv("i"), iv("i")]).is_err());
    assert!(cin.reorder(&[iv("nope")]).is_err());
}

/// The running example of §3.3: `∀i ∀j a(i) = b(j)`, |a| = |b| = |M| = 3.
fn running_example() -> ConcreteNotation {
    let extents: BTreeMap<IndexVar, i64> = [(iv("i"), 3), (iv("j"), 3)].into_iter().collect();
    let a = distal_ir::expr::Assignment::parse("a(i) = b(j)").unwrap();
    ConcreteNotation::from_assignment(a, &extents).unwrap()
}

/// The original `j` each processor runs at each time step of `cin`, whose
/// loops are the distributed processor loop then the one time loop — the
/// values `Nest::bind_env` hands both lowerings.
fn execution_table(cin: &ConcreteNotation) -> Vec<Vec<i64>> {
    let [proc, time] = &cin.loops[..] else {
        panic!("two loops expected: {:?}", cin.loops)
    };
    assert!(proc.distributed && !time.distributed);
    let s = &cin.solver;
    let known = |v: &IndexVar| s.id(v).expect("a loop variable");
    let (p, t, i, j) = (known(&proc.var), known(&time.var), id(s, "i"), id(s, "j"));
    (0..s.extent(&proc.var))
        .map(|at| {
            (0..s.extent(&time.var))
                .map(|step| {
                    let mut env = Env::new();
                    env.bind(p, at);
                    env.bind(t, step);
                    assert_eq!(s.value(i, &env), Some(at), "processor = i");
                    s.value(j, &env).expect("j is a point")
                })
                .collect()
        })
        .collect()
}

#[test]
fn figure6_distribute_puts_i_on_processors_and_j_in_time() {
    let mut cin = running_example();
    cin.distribute(&[iv("i")]).unwrap();
    // Every processor walks j in time order: at time t, all run j = t.
    assert_eq!(execution_table(&cin), vec![vec![0, 1, 2]; 3]);
}

#[test]
fn figure8b_rotation_table() {
    let mut cin = running_example();
    cin.distribute(&[iv("i")]).unwrap();
    cin.rotate(&iv("j"), &[iv("i")], iv("js")).unwrap();
    // P0: 0,1,2; P1: 1,2,0; P2: 2,0,1 — no two processors read one b(j)
    // at the same time.
    assert_eq!(
        execution_table(&cin),
        vec![vec![0, 1, 2], vec![1, 2, 0], vec![2, 0, 1]]
    );
}
