//! The nest split: what a scheduled statement's loop nest means, decided
//! once for every lowering target (paper §6.2).
//!
//! The scheduled concrete index notation is cut into three bands: the
//! outermost *distributed* loops (the launch domain, one point per
//! processor coordinate), the *sequential* loops down to the deepest one
//! carrying a `communicate` tag (program-level steps at which tagged
//! tensors are re-fetched), and the leaf below the cut, whose per-point
//! bounds come from [`distal_ir::provenance`]. Both lowerings —
//! the runtime plan's lowering onto the dynamic runtime and `distal-spmd`'s
//! static per-rank programs — iterate `seq_rect()` × `launch_points(..)`
//! over one [`Nest`], so they agree on the split, and on the rank each
//! launch point runs on, by construction.
//! Each builds exactly one. A plan applies its schedule once: admission
//! ([`crate::lint::admit`]) applies it to the statement's concrete index
//! notation, and the plan's lowering starts from that notation
//! ([`Nest::from_cin`]); a statement or schedule the compiler rejects
//! fails in admission, before any nest. Outside a plan, [`Nest::new`]
//! applies the schedule itself, then builds the same nest. Inside a plan
//! nothing else builds a leaf kernel (the `kernels` bench calls
//! `leaf_for` outside any plan), so [`lowering_count`] witnesses all
//! plan-time work: one per plan on every backend, none per request.
//!
//! Ids below the schedule, names at the edge: the schedule names index
//! variables, and the nest resolves, once, the solver ids of the
//! distributed and sequential loops and of the statement's variables, and
//! every access's indices as positions among the latter. Per (step,
//! point), [`Nest::bind_env`] writes the loops' slots and evaluates each
//! statement variable's interval once, by id; the leaf bounds and every
//! access rectangle read those intervals. No name is looked up, and no
//! interval is evaluated twice.

use crate::error::CompileError;
use crate::schedule::Schedule;
use distal_ir::cin::ConcreteNotation;
use distal_ir::expr::{Assignment, IndexVar};
use distal_ir::provenance::{Interval, VarId};
use distal_machine::geom::{Point, Rect};
use std::collections::{BTreeMap, BTreeSet};

thread_local! {
    /// [`Nest::new`] and [`Nest::from_cin`] calls on this thread: a plan
    /// lowers on the caller's thread, so concurrent plans never perturb
    /// each other's readings.
    static LOWERINGS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many lowerings started on the calling thread, failed ones
/// included: every [`Nest::new`] and [`Nest::from_cin`] call. A plan
/// whose statement or schedule the compiler rejects fails in admission
/// and starts none.
pub fn lowering_count() -> u64 {
    LOWERINGS.with(std::cell::Cell::get)
}

fn count_lowering() {
    LOWERINGS.with(|c| c.set(c.get() + 1));
}

/// The statement's concrete index notation over tensors of the given
/// shapes, before any schedule: every access resolved and arity-checked,
/// every extent inferred. Admission and [`Nest::new`] both start here.
///
/// # Errors
///
/// [`CompileError::UnknownTensor`] for an accessed tensor without a
/// shape, [`CompileError::TooManyDims`] for one past the coordinate cap,
/// [`CompileError::Format`] for an access whose arity differs from its
/// tensor's order, [`CompileError::InconsistentExtents`], and
/// [`CompileError::Expression`] when the statement has no concrete form.
pub(crate) fn statement_cin(
    assignment: &Assignment,
    dims: &BTreeMap<String, Vec<i64>>,
) -> Result<ConcreteNotation, CompileError> {
    for acc in assignment.accesses() {
        let d = dims
            .get(&acc.tensor)
            .ok_or_else(|| CompileError::UnknownTensor(acc.tensor.clone()))?;
        CompileError::check_dims(|| format!("tensor '{}'", acc.tensor), d.len())?;
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
    ConcreteNotation::from_assignment(assignment.clone(), &extents)
        .map_err(|e| CompileError::Expression(e.to_string()))
}

/// The loop-variable environment of one (sequential step, launch point),
/// written by [`Nest::bind_env`]: the loop variables' slots, and the
/// interval each statement variable spans under them. A walk over every
/// (step, point) reuses one, so it allocates once.
#[derive(Clone, Debug, Default)]
pub struct Env {
    slots: distal_ir::provenance::Env,
    /// Per statement variable, in [`Assignment::all_vars`] order.
    leaf: Vec<Interval>,
}

impl Env {
    /// An environment that binds nothing (bind it with [`Nest::bind_env`]).
    pub fn new() -> Self {
        Env::default()
    }
}

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
    /// The distributed loops' ids, then the sequential loops'.
    loop_ids: Vec<VarId>,
    /// The statement's variables, in [`Assignment::all_vars`] order.
    all_vars: Vec<VarId>,
    /// [`Assignment::access_positions`]: every access's indices, as
    /// positions in `all_vars`.
    accesses: Vec<Vec<usize>>,
}

impl Nest {
    /// Analyses `assignment` over tensors of the given shapes under
    /// `schedule`: applies the schedule, then builds the nest
    /// [`Nest::from_cin`] builds. `dims` may hold more tensors than the
    /// statement accesses.
    ///
    /// # Errors
    ///
    /// [`CompileError::UnknownTensor`] for an accessed tensor without a
    /// shape, [`CompileError::Format`] for an access whose arity differs
    /// from its tensor's order, [`CompileError::InconsistentExtents`],
    /// [`CompileError::Expression`] when the statement has no concrete
    /// form, [`CompileError::Schedule`] for a failing command, and
    /// [`CompileError::TooManyDims`] for a tensor, launch domain or
    /// sequential loop band past the coordinate cap.
    pub fn new(
        assignment: &Assignment,
        dims: &BTreeMap<String, Vec<i64>>,
        schedule: &Schedule,
    ) -> Result<Nest, CompileError> {
        count_lowering();
        let mut cin = statement_cin(assignment, dims)?;
        schedule.apply(&mut cin)?;
        Nest::build(cin)
    }

    /// The nest of a statement's concrete index notation whose schedule
    /// is already applied: what admission ([`crate::lint::admit`]) hands
    /// a plan's lowering, so the plan applies its schedule once.
    ///
    /// # Errors
    ///
    /// [`CompileError::TooManyDims`] for a launch domain or sequential
    /// loop band past the coordinate cap.
    pub fn from_cin(cin: ConcreteNotation) -> Result<Nest, CompileError> {
        count_lowering();
        Nest::build(cin)
    }

    /// Cuts an applied notation into launch domain, steps and leaf.
    fn build(cin: ConcreteNotation) -> Result<Nest, CompileError> {
        let n_dist = cin.distributed_prefix().map_or(0, |p| p.len());
        CompileError::check_dims(|| "the launch domain".into(), n_dist)?;
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
        let seq_loops = &cin.loops[n_dist..cut];
        CompileError::check_dims(|| "the sequential loop band".into(), seq_loops.len())?;
        let seq_extents = seq_loops
            .iter()
            .map(|l| cin.solver.extent(&l.var))
            .collect();

        let statement = &cin.body;
        let reduction_roots: BTreeSet<IndexVar> = statement.reduction_vars().into_iter().collect();
        let reduces = |v: &IndexVar| {
            cin.solver
                .roots_of(v)
                .iter()
                .any(|r| reduction_roots.contains(r))
        };
        let dist_reduces = cin.loops[..n_dist].iter().any(|l| reduces(&l.var));
        let seq_reduces = seq_loops.iter().any(|l| reduces(&l.var));
        // Every loop variable and every statement variable is the solver's.
        let id = |v: &IndexVar| {
            cin.solver
                .id(v)
                .expect("a variable of the scheduled statement")
        };
        let loop_ids = cin.loops[..cut].iter().map(|l| id(&l.var)).collect();
        let all_vars = statement.all_vars().iter().map(id).collect();
        let accesses = statement.access_positions();
        Ok(Nest {
            launch_domain,
            seq_extents,
            dist_reduces,
            seq_reduces,
            n_dist,
            loop_ids,
            all_vars,
            accesses,
            cin,
        })
    }

    /// The launch points (a single point when nothing is distributed) on a
    /// machine of `processors` abstract processors: the point of row-major
    /// index `r` runs on rank `r`, on every backend.
    ///
    /// # Errors
    ///
    /// [`CompileError::GridTooLarge`] when there are more points than
    /// processors.
    pub fn launch_points(&self, processors: i64) -> Result<Rect, CompileError> {
        let points = sized_or_unit(&self.launch_domain);
        let required = points.volume();
        if required > processors {
            return Err(CompileError::GridTooLarge {
                required,
                available: processors,
            });
        }
        Ok(points)
    }

    /// The sequential steps (a single step when no loop communicates).
    pub fn seq_rect(&self) -> Rect {
        sized_or_unit(&self.seq_extents)
    }

    /// Tensors tagged `communicate` at a sequential step loop: re-fetched
    /// every step. A tag may name a tensor the statement never accesses.
    pub(crate) fn seq_communicated(&self) -> impl Iterator<Item = &String> {
        self.cin.loops[self.n_dist..self.loop_ids.len()]
            .iter()
            .flat_map(|l| &l.communicate)
    }

    /// Binds the distributed and sequential loop variables of `env` at one
    /// (sequential step, launch point), and evaluates the interval every
    /// statement variable spans there. A walk over every (step, point)
    /// passes the same `env` each time: every call overwrites it.
    pub fn bind_env(&self, env: &mut Env, seq_point: &Point, point: &Point) {
        // A launch domain or sequential band without loops still has one
        // point of one coordinate, which binds nothing.
        let (dist, seq) = self.loop_ids.split_at(self.n_dist);
        let bound = dist.iter().zip(point.coords());
        for (&var, &value) in bound.chain(seq.iter().zip(seq_point.coords())) {
            env.slots.bind(var, value);
        }
        let solver = &self.cin.solver;
        env.leaf.clear();
        let leaf = self
            .all_vars
            .iter()
            .map(|&v| solver.interval(v, &env.slots));
        env.leaf.extend(leaf);
    }

    /// The leaf's inclusive `(lo, hi)` bounds per original variable (in
    /// [`Assignment::all_vars`] order), read out of `env` as they are
    /// consumed, and its iteration-point count, or `None` when the leaf is
    /// empty under `env` (an over-decomposed launch point).
    pub fn leaf_bounds<'e>(
        &self,
        env: &'e Env,
    ) -> Option<(impl ExactSizeIterator<Item = (i64, i64)> + 'e, f64)> {
        if env.leaf.iter().any(Interval::is_empty) {
            return None;
        }
        let bounds = env.leaf.iter().map(|iv| (iv.lo, iv.hi));
        let iter_points = env.leaf.iter().map(|iv| iv.len() as f64).product();
        Some((bounds, iter_points))
    }

    /// The rectangle access `access` — a position in
    /// [`Assignment::accesses`]: 0 is the destination, then the right-hand
    /// side in order — touches under `env`, clamped to the tensor's `dims`.
    pub fn access_rect(&self, access: usize, env: &Env, dims: &[i64]) -> Rect {
        let positions = &self.accesses[access];
        let (mut lo, mut hi) = (Point::zeros(positions.len()), Point::zeros(positions.len()));
        for (d, &v) in positions.iter().enumerate() {
            let iv = env.leaf[v].clamp_extent(dims[d]);
            (lo[d], hi[d]) = (iv.lo, iv.hi);
        }
        Rect::new(lo, hi)
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
        assert_eq!(nest.launch_points(4), Ok(Rect::sized(&[2, 2])));
        assert_eq!(nest.seq_extents, vec![n / chunk]);
        assert!(!nest.dist_reduces && nest.seq_reduces);
        assert_eq!(nest.seq_communicated().collect::<Vec<_>>(), ["B", "C"]);
        // Point (1,0) at step 2 owns rows 8..16, columns 0..8, k 8..12.
        let mut env = Env::new();
        nest.bind_env(&mut env, &Point::new(vec![0]), &Point::new(vec![0, 1]));
        // Rebinding overwrites every loop variable.
        nest.bind_env(&mut env, &Point::new(vec![2]), &Point::new(vec![1, 0]));
        let (bounds, points) = nest.leaf_bounds(&env).unwrap();
        assert_eq!(bounds.collect::<Vec<_>>(), [(8, 15), (0, 7), (8, 11)]);
        assert_eq!(points, 8.0 * 8.0 * 4.0);
        // Access 1 is B(i, k).
        let rect = nest.access_rect(1, &env, &[n, n]);
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
        let before = lowering_count();
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
        // A failed analysis is a (failed) lowering: it counts.
        assert_eq!(lowering_count(), before + 2);
    }
}
