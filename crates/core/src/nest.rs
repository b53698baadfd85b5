//! The nest split: what a scheduled statement's loop nest means, decided
//! once for every lowering target (paper §6.2).
//!
//! The scheduled concrete index notation is cut into three bands: the
//! outermost *distributed* loops (the launch domain, one point per
//! processor coordinate), the *sequential* loops down to the deepest one
//! carrying a `communicate` tag (program-level steps at which tagged
//! tensors are re-fetched), and the leaf below the cut, whose per-point
//! bounds come from [`distal_ir::provenance`]. Both lowerings —
//! [`crate::lower::compile`] onto the dynamic runtime and `distal-spmd`'s
//! static per-rank programs — iterate `seq_rect()` × `domain_rect()` over
//! one [`Nest`], so they agree on the split by construction.

use crate::error::CompileError;
use crate::schedule::Schedule;
use distal_ir::cin::ConcreteNotation;
use distal_ir::expr::{Assignment, IndexVar};
use distal_machine::geom::{Point, Rect};
use std::collections::{BTreeMap, BTreeSet};

/// The loop-variable environment of one (sequential step, launch point).
pub type Env = BTreeMap<IndexVar, i64>;

/// A scheduled statement's loop nest, split into launch domain,
/// sequential steps and leaf. See the [module docs](self).
#[derive(Debug)]
pub struct Nest {
    /// The scheduled concrete index notation (inspect with `Display`).
    pub cin: ConcreteNotation,
    /// Extents of the distributed launch domain (empty = single task).
    pub launch_domain: Vec<i64>,
    /// Extents of the sequential step loops (empty = one step).
    pub seq_extents: Vec<i64>,
    /// True when a distributed loop derives from a reduction variable:
    /// launch points hold partial results that fold at the end.
    pub dist_reduces: bool,
    /// True when a sequential step loop derives from a reduction variable:
    /// each point accumulates across steps.
    pub seq_reduces: bool,
    n_dist: usize,
    seq_loops: Vec<IndexVar>,
    all_vars: Vec<IndexVar>,
}

impl Nest {
    /// Analyses `assignment` over tensors of the given shapes under
    /// `schedule`. `dims` may hold more tensors than the statement
    /// accesses.
    ///
    /// # Errors
    ///
    /// [`CompileError::UnknownTensor`] for an accessed tensor without a
    /// shape, [`CompileError::Format`] for an access whose arity differs
    /// from its tensor's order, [`CompileError::InconsistentExtents`],
    /// [`CompileError::Expression`] when the statement has no concrete
    /// form, and [`CompileError::Schedule`] for a failing command.
    pub fn new(
        assignment: &Assignment,
        dims: &BTreeMap<String, Vec<i64>>,
        schedule: &Schedule,
    ) -> Result<Nest, CompileError> {
        for acc in assignment.accesses() {
            let d = dims
                .get(&acc.tensor)
                .ok_or_else(|| CompileError::UnknownTensor(acc.tensor.clone()))?;
            if acc.indices.len() != d.len() {
                return Err(CompileError::Format(format!(
                    "tensor '{}' is {}-dimensional but accessed with {} indices",
                    acc.tensor,
                    d.len(),
                    acc.indices.len()
                )));
            }
        }
        let extents = assignment
            .infer_extents(dims)
            .ok_or(CompileError::InconsistentExtents)?;
        let mut cin = ConcreteNotation::from_assignment(assignment.clone(), &extents)
            .map_err(|e| CompileError::Expression(e.to_string()))?;
        schedule.apply(&mut cin)?;

        let n_dist = cin.distributed_prefix().map_or(0, |p| p.len());
        let launch_domain = cin.loops[..n_dist]
            .iter()
            .map(|l| cin.solver.extent(&l.var))
            .collect();
        // The cut: deepest loop carrying a communicate tag (distributed
        // loops are always above it). Loops past the cut form the leaf.
        let cut = cin
            .loops
            .iter()
            .rposition(|l| !l.communicate.is_empty())
            .map_or(n_dist, |pos| n_dist.max(pos + 1));
        let seq_loops: Vec<IndexVar> = cin.loops[n_dist..cut]
            .iter()
            .map(|l| l.var.clone())
            .collect();
        let seq_extents = seq_loops.iter().map(|v| cin.solver.extent(v)).collect();

        let reduction_roots: BTreeSet<IndexVar> = assignment.reduction_vars().into_iter().collect();
        let reduces = |v: &IndexVar| {
            cin.solver
                .roots_of(v)
                .iter()
                .any(|r| reduction_roots.contains(r))
        };
        let dist_reduces = cin.loops[..n_dist].iter().any(|l| reduces(&l.var));
        let seq_reduces = seq_loops.iter().any(reduces);
        Ok(Nest {
            launch_domain,
            seq_extents,
            dist_reduces,
            seq_reduces,
            n_dist,
            seq_loops,
            all_vars: assignment.all_vars(),
            cin,
        })
    }

    /// The launch points (a single point when nothing is distributed).
    pub fn domain_rect(&self) -> Rect {
        sized_or_unit(&self.launch_domain)
    }

    /// The sequential steps (a single step when no loop communicates).
    pub fn seq_rect(&self) -> Rect {
        sized_or_unit(&self.seq_extents)
    }

    /// Tensors tagged `communicate` at a sequential step loop: re-fetched
    /// every step. A tag may name a tensor the statement never accesses.
    pub fn seq_communicated(&self) -> impl Iterator<Item = &String> {
        self.cin.loops[self.n_dist..self.n_dist + self.seq_loops.len()]
            .iter()
            .flat_map(|l| &l.communicate)
    }

    /// Binds the distributed and sequential loop variables at one
    /// (sequential step, launch point).
    pub fn env(&self, seq_point: &Point, point: &Point) -> Env {
        let mut env = Env::new();
        for (d, l) in self.cin.loops[..self.n_dist].iter().enumerate() {
            env.insert(l.var.clone(), point[d]);
        }
        for (d, v) in self.seq_loops.iter().enumerate() {
            env.insert(v.clone(), seq_point[d]);
        }
        env
    }

    /// The leaf's inclusive `(lo, hi)` bounds per original variable (in
    /// [`Assignment::all_vars`] order) and its iteration-point count, or
    /// `None` when the leaf is empty under `env` (an over-decomposed
    /// launch point).
    pub fn leaf_bounds(&self, env: &Env) -> Option<(Vec<(i64, i64)>, f64)> {
        let mut bounds = Vec::with_capacity(self.all_vars.len());
        let mut iter_points = 1.0f64;
        for v in &self.all_vars {
            let iv = self.cin.solver.interval(v, env);
            if iv.is_empty() {
                return None;
            }
            bounds.push((iv.lo, iv.hi));
            iter_points *= iv.len() as f64;
        }
        Some((bounds, iter_points))
    }

    /// The rectangle an access with these `indices` touches under `env`,
    /// clamped to the tensor's `dims`.
    pub fn access_rect(&self, indices: &[IndexVar], env: &Env, dims: &[i64]) -> Rect {
        let mut lo = Vec::with_capacity(indices.len());
        let mut hi = Vec::with_capacity(indices.len());
        for (d, v) in indices.iter().enumerate() {
            let iv = self.cin.solver.interval(v, env).clamp_extent(dims[d]);
            lo.push(iv.lo);
            hi.push(iv.hi);
        }
        Rect::new(Point::new(lo), Point::new(hi))
    }
}

fn sized_or_unit(extents: &[i64]) -> Rect {
    if extents.is_empty() {
        Rect::sized(&[1])
    } else {
        Rect::sized(extents)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distal_ir::expr::kernels::matmul;

    fn square(n: i64) -> BTreeMap<String, Vec<i64>> {
        ["A", "B", "C"]
            .iter()
            .map(|t| (t.to_string(), vec![n, n]))
            .collect()
    }

    #[test]
    fn summa_splits_into_grid_steps_and_leaf() {
        let (n, chunk) = (16, 4);
        let nest = Nest::new(&matmul(), &square(n), &Schedule::summa(2, 2, chunk)).unwrap();
        assert_eq!(nest.launch_domain, vec![2, 2]);
        assert_eq!(nest.seq_extents, vec![n / chunk]);
        assert!(!nest.dist_reduces && nest.seq_reduces);
        assert_eq!(nest.seq_communicated().collect::<Vec<_>>(), ["B", "C"]);
        // Point (1,0) at step 2 owns rows 8..16, columns 0..8, k 8..12.
        let env = nest.env(&Point::new(vec![2]), &Point::new(vec![1, 0]));
        let (bounds, points) = nest.leaf_bounds(&env).unwrap();
        assert_eq!(bounds, vec![(8, 15), (0, 7), (8, 11)]);
        assert_eq!(points, 8.0 * 8.0 * 4.0);
        let b = &matmul().input_accesses()[0].indices.clone();
        let rect = nest.access_rect(b, &env, &[n, n]);
        assert_eq!(
            rect,
            Rect::new(Point::new(vec![8, 8]), Point::new(vec![15, 11]))
        );
    }

    #[test]
    fn johnson_cube_reduces_across_the_launch_domain() {
        // Johnson's shape: i, j and k all distributed onto a 2x2x2 cube,
        // nothing sequential — the k partials fold at the end.
        let (vars, dist, local) = (["i", "j", "k"], ["io", "jo", "ko"], ["ii", "ji", "ki"]);
        let schedule = Schedule::new()
            .distribute_onto(&vars, &dist, &local, &[2, 2, 2])
            .communicate(&["A", "B", "C"], "ko");
        let nest = Nest::new(&matmul(), &square(8), &schedule).unwrap();
        assert_eq!(nest.launch_domain, vec![2, 2, 2]);
        assert!(nest.seq_extents.is_empty());
        assert_eq!(nest.seq_rect().volume(), 1);
        assert!(nest.dist_reduces && !nest.seq_reduces);
    }

    #[test]
    fn mis_ranked_access_is_a_typed_arity_error() {
        let mut dims = square(8);
        dims.insert("B".into(), vec![8]); // B(i,k) accessed 2-d
        let err = Nest::new(&matmul(), &dims, &Schedule::new()).unwrap_err();
        assert!(
            matches!(err, CompileError::Format(ref m)
                if m.contains("'B'") && m.contains("1-dimensional") && m.contains("2 indices")),
            "{err:?}"
        );
        dims.remove("B");
        assert!(matches!(
            Nest::new(&matmul(), &dims, &Schedule::new()),
            Err(CompileError::UnknownTensor(t)) if t == "B"
        ));
    }
}
