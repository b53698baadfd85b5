//! Static lowering: from (statement, formats, machine, schedule) to
//! per-rank SPMD programs with exact compile-time communication.
//!
//! The nest split (distributed prefix → sequential communicate loops →
//! leaf) is [`distal_core::nest::Nest`], shared with the Legion-style
//! backend; but instead of emitting region requirements for a dynamic
//! runtime to analyze, this lowering *solves* the communication statically:
//!
//! * The bounds analysis of [`distal_ir::provenance`] gives the exact
//!   rectangle of each tensor every rank touches at every sequential step.
//! * A holdings dataflow tracks which ranks hold valid copies of which
//!   rectangles at each step: home pieces (from the tensor's distribution
//!   notation) are always valid; received scratch is valid for the next
//!   step only (double buffering).
//! * Each needed rectangle is sourced from the *nearest* rank holding a
//!   valid copy (torus distance, ties by rank id), falling back to home
//!   owners — this is the policy under which systolic schedules generate
//!   neighbour-only traffic (Figure 8b) while broadcast schedules source
//!   from owners (Figure 8a).

use crate::collective::{self, CollectiveConfig};
use crate::ops::{Message, SpmdOp};
use crate::program::SpmdProgram;
use distal_core::nest::Nest;
use distal_core::{CompileError, Schedule};
use distal_format::Format;
use distal_ir::expr::{Assignment, Expr};
use distal_machine::geom::{Point, Rect, RectSet};
use distal_machine::grid::Grid;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A tensor visible to the SPMD backend: name, shape, format, and (for
/// compressed level formats) the stored-entry count driving nnz-sized
/// message accounting.
#[derive(Clone, Debug)]
pub struct SpmdTensor {
    /// Name used in expressions.
    pub name: String,
    /// Dimension sizes.
    pub dims: Vec<i64>,
    /// Distribution (single-level) + level formats + memory kind.
    pub format: Format,
    /// Stored entries of the tensor's data, when known (set by
    /// `lower_problem` from the problem's initializer). `None` means
    /// "assume dense" — compressed formats then price messages at full
    /// volume plus compression overhead.
    pub nnz: Option<u64>,
}

impl SpmdTensor {
    /// Creates a tensor description (nnz unknown).
    pub fn new(name: impl Into<String>, dims: Vec<i64>, format: Format) -> Self {
        SpmdTensor {
            name: name.into(),
            dims,
            format,
            nnz: None,
        }
    }

    /// Fraction of stored entries (1 while `nnz` is unknown) — what the
    /// static message-byte and cost accounting prices compressed operand
    /// tiles by, instead of dense volume.
    pub(crate) fn density(&self) -> f64 {
        let volume = self.dims.iter().product::<i64>().max(1) as u64;
        self.nnz.unwrap_or(volume).min(volume) as f64 / volume as f64
    }
}

thread_local! {
    /// Per-thread count of [`lower_with`] invocations (schedule
    /// application + static communication solving). The plan/bind split's
    /// observable invariant on this backend: binding an already-lowered
    /// plan leaves this counter untouched. Thread-local so concurrent
    /// tests/requests don't perturb each other's readings.
    static LOWERINGS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many times the SPMD lowering ran on the calling thread.
pub fn lower_count() -> u64 {
    LOWERINGS.with(|c| c.get())
}

/// Errors from SPMD lowering and execution.
#[derive(Clone, Debug, PartialEq)]
pub enum SpmdError {
    /// A tensor in the expression has no description.
    UnknownTensor(String),
    /// Tensor shapes disagree about a variable's extent.
    InconsistentExtents,
    /// A scheduling command failed.
    Schedule(String),
    /// The shared leaf selection (`distal_core::kernelgen::leaf_for`)
    /// refused the schedule's `substitute` command — the same typed error
    /// the runtime backend reports.
    Leaf(CompileError),
    /// The schedule/machine combination is outside this backend's scope.
    Unsupported(String),
    /// Input data missing or mis-sized at execution time.
    Data(String),
    /// The threaded transport's watchdog fired: some rank blocked on a
    /// receive past the deadline (a lowering bug — a well-formed program
    /// cannot deadlock; see [`crate::transport`]).
    Timeout(String),
}

impl fmt::Display for SpmdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpmdError::UnknownTensor(t) => write!(f, "unknown tensor '{t}'"),
            SpmdError::InconsistentExtents => write!(f, "inconsistent index extents"),
            SpmdError::Schedule(m) => write!(f, "schedule error: {m}"),
            SpmdError::Leaf(e) => write!(f, "{e}"),
            SpmdError::Unsupported(m) => write!(f, "unsupported by the SPMD backend: {m}"),
            SpmdError::Data(m) => write!(f, "data error: {m}"),
            SpmdError::Timeout(m) => write!(f, "threaded transport watchdog: {m}"),
        }
    }
}

impl std::error::Error for SpmdError {}

/// Which ranks own which home pieces of one tensor.
#[derive(Clone, Debug, Default)]
pub(crate) struct Ownership {
    /// `pieces[rank]` = the home rectangles rank holds.
    pub pieces: Vec<Vec<Rect>>,
}

impl Ownership {
    /// Home owners intersecting `rect`, with the owned sub-rectangles.
    pub fn owners_of(&self, rect: &Rect) -> Vec<(usize, Rect)> {
        let mut out = Vec::new();
        for (rank, pieces) in self.pieces.iter().enumerate() {
            for p in pieces {
                let inter = p.intersection(rect);
                if !inter.is_empty() {
                    out.push((rank, inter));
                }
            }
        }
        out
    }
}

/// Builds the home-piece table of a tensor: distributed formats follow
/// their distribution notation; undistributed tensors live whole on rank 0.
fn ownership(tensor: &SpmdTensor, grid: &Grid) -> Result<Ownership, SpmdError> {
    let ranks = grid.size() as usize;
    let rect = Rect::sized(&tensor.dims);
    let mut pieces = vec![Vec::new(); ranks];
    if !tensor.format.is_distributed() {
        pieces[0].push(rect);
        return Ok(Ownership { pieces });
    }
    if tensor.format.distributions.len() != 1 {
        return Err(SpmdError::Unsupported(format!(
            "tensor '{}' has a hierarchical format with {} levels ({}); \
             the SPMD backend targets flat machines",
            tensor.name,
            tensor.format.distributions.len(),
            tensor
                .format
                .distributions
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        )));
    }
    let dist = &tensor.format.distributions[0];
    dist.check_arity(tensor.dims.len(), grid.dim())
        .map_err(|e| SpmdError::Schedule(format!("tensor '{}': {e}", tensor.name)))?;
    for point in grid.points() {
        let rank = grid.linearize(&point) as usize;
        pieces[rank] = dist.pieces_of(&rect, grid, &point);
    }
    Ok(Ownership { pieces })
}

/// Torus hop distance between two grid coordinates (systolic machines wrap
/// around, so Cannon's leftward shift from column 0 to column `g-1` is one
/// hop).
pub fn torus_distance(grid: &Grid, a: &Point, b: &Point) -> i64 {
    (0..grid.dim())
        .map(|d| {
            let e = grid.extent(d);
            let diff = (a[d] - b[d]).abs();
            diff.min(e - diff)
        })
        .sum()
}

/// Maps the shared nest analysis' errors onto this backend's. A mis-ranked
/// access reports as before the analysis moved: a shape disagreement.
fn nest_err(e: CompileError) -> SpmdError {
    match e {
        CompileError::UnknownTensor(t) => SpmdError::UnknownTensor(t),
        CompileError::InconsistentExtents | CompileError::Format(_) => {
            SpmdError::InconsistentExtents
        }
        CompileError::Expression(m) => SpmdError::Schedule(m),
        CompileError::Schedule(e) => SpmdError::Schedule(e.to_string()),
        other => SpmdError::Schedule(other.to_string()),
    }
}

/// True for expressions that are pure products of accesses/literals — the
/// precondition for pruning iteration points where a compressed operand
/// stores no entry (a zero factor annihilates the whole term).
fn is_pure_product(e: &Expr) -> bool {
    match e {
        Expr::Access(_) | Expr::Literal(_) => true,
        Expr::Mul(l, r) => is_pure_product(l) && is_pure_product(r),
        Expr::Add(_, _) => false,
    }
}

/// Per-(tensor, rank) scratch holdings valid at the current step.
type Holdings = BTreeMap<String, Vec<RectSet>>;

/// Lowers a scheduled statement to an [`SpmdProgram`] with statically
/// resolved communication, then recognizes and tree/ring-lowers
/// collectives with the default [`CollectiveConfig`] (binomial-tree
/// broadcasts and reductions, ring all-gathers).
///
/// Use [`lower_with`] to disable or re-shape the collective pass.
///
/// # Errors
///
/// * [`SpmdError::UnknownTensor`] / [`SpmdError::InconsistentExtents`] for
///   malformed inputs;
/// * [`SpmdError::Schedule`] when a scheduling command fails;
/// * [`SpmdError::Unsupported`] for hierarchical formats or schedules whose
///   distributed launch domain does not match the machine grid.
pub fn lower(
    assignment: &Assignment,
    tensors: &[SpmdTensor],
    grid: &Grid,
    schedule: &Schedule,
) -> Result<SpmdProgram, SpmdError> {
    lower_with(
        assignment,
        tensors,
        grid,
        schedule,
        &CollectiveConfig::default(),
    )
}

/// [`lower`] with an explicit collective-lowering configuration.
///
/// `CollectiveConfig::point_to_point()` reproduces the naive per-owner
/// fan-out program (useful as the baseline the recognizer is verified
/// against); other configurations choose tree or ring expansions per
/// collective kind.
///
/// # Errors
///
/// Same as [`lower`].
pub fn lower_with(
    assignment: &Assignment,
    tensors: &[SpmdTensor],
    grid: &Grid,
    schedule: &Schedule,
    collectives: &CollectiveConfig,
) -> Result<SpmdProgram, SpmdError> {
    LOWERINGS.with(|c| c.set(c.get() + 1));
    let by_name: BTreeMap<&str, &SpmdTensor> =
        tensors.iter().map(|t| (t.name.as_str(), t)).collect();
    let dims = tensors
        .iter()
        .map(|t| (t.name.clone(), t.dims.clone()))
        .collect();
    let nest = Nest::new(assignment, &dims, schedule).map_err(nest_err)?;
    // The tensors the statement touches (every per-tensor table below is
    // keyed by these).
    let accessed: BTreeSet<&str> = assignment
        .accesses()
        .iter()
        .map(|acc| acc.tensor.as_str())
        .collect();

    if !nest.launch_domain.is_empty() && nest.launch_domain != grid.dims() {
        return Err(SpmdError::Unsupported(format!(
            "distributed launch domain {:?} must match the machine grid {:?} \
             (the SPMD backend identifies ranks with grid points)",
            nest.launch_domain,
            grid.dims()
        )));
    }
    let ranks = grid.size() as usize;

    // Ownership tables.
    let mut owners: BTreeMap<String, Ownership> = BTreeMap::new();
    for name in &accessed {
        owners.insert(name.to_string(), ownership(by_name[name], grid)?);
    }

    let flops_per_point = assignment.flops_per_point();
    let out_name = assignment.lhs.tensor.clone();
    let out_dims = &by_name[out_name.as_str()].dims;
    let domain_rect = nest.domain_rect();

    // The one copy of every op: the global `(rank, op)` stream, filed
    // into the per-rank lists once the collective pass has rewritten it.
    let mut stream: Vec<(usize, SpmdOp)> = Vec::new();
    let mut tag = 0u64;

    // Scratch holdings valid at the current sequential step.
    let mut scratch: Holdings = accessed
        .iter()
        .map(|n| (n.to_string(), vec![RectSet::new(); ranks]))
        .collect();
    let mut out_written: Vec<RectSet> = vec![RectSet::new(); ranks];
    let mut total_flops = 0.0f64;

    for seq_point in nest.seq_rect().points() {
        // Receives of this step become valid holdings for the *next* step.
        let mut received: BTreeMap<String, Vec<Vec<Rect>>> = accessed
            .iter()
            .map(|n| (n.to_string(), vec![Vec::new(); ranks]))
            .collect();

        for point in domain_rect.points() {
            // The launch domain is the grid (checked above) or the single
            // point 0, so a point's row-major index is its rank.
            let rank = domain_rect.linearize(&point);
            let env = nest.env(&seq_point, &point);
            let Some((bounds, iter_points)) = nest.leaf_bounds(&env) else {
                continue;
            };

            // Source every input rectangle not already held locally.
            for acc in assignment.input_accesses() {
                let t = by_name[acc.tensor.as_str()];
                let need_rect = nest.access_rect(&acc.indices, &env, &t.dims);
                if need_rect.is_empty() {
                    continue;
                }
                let mut needs = RectSet::from_rect(need_rect);
                for home in &owners[&acc.tensor].pieces[rank] {
                    needs.subtract(home);
                }
                for held in scratch[&acc.tensor][rank].rects().to_vec() {
                    needs.subtract(&held);
                }
                if needs.is_empty() {
                    continue;
                }
                // Candidate supplies sorted by (torus distance, scratch
                // before home, rank). Preferring a forwarded scratch copy
                // over an equally distant home owner is what makes systolic
                // schedules systolic — it spreads load off the owners,
                // which is the paper's stated rationale for `rotate`
                // ("avoiding contention for the same pieces of data",
                // §3.3).
                let dest_point = grid.delinearize(rank as i64);
                let mut supplies: Vec<(i64, u8, usize, Rect)> = Vec::new();
                for q in (0..ranks).filter(|q| *q != rank) {
                    let d = torus_distance(grid, &grid.delinearize(q as i64), &dest_point);
                    for s in scratch[&acc.tensor][q].rects() {
                        supplies.push((d, 0, q, s.clone()));
                    }
                    for s in &owners[&acc.tensor].pieces[q] {
                        supplies.push((d, 1, q, s.clone()));
                    }
                }
                supplies.sort_by_key(|a| (a.0, a.1, a.2));
                for (_dist, _class, q, s) in supplies {
                    if needs.is_empty() {
                        break;
                    }
                    for need in needs.rects().to_vec() {
                        let inter = s.intersection(&need);
                        if inter.is_empty() {
                            continue;
                        }
                        let msg = Message {
                            tag,
                            from: q,
                            to: rank,
                            tensor: acc.tensor.clone(),
                            rect: inter.clone(),
                        };
                        tag += 1;
                        stream.push((q, SpmdOp::Send(msg.clone())));
                        stream.push((rank, SpmdOp::Recv(msg)));
                        needs.subtract(&inter);
                        received.get_mut(&acc.tensor).unwrap()[rank].push(inter);
                    }
                }
                debug_assert!(
                    needs.is_empty(),
                    "home pieces must cover every tensor coordinate"
                );
            }

            // Record output coverage and emit the leaf.
            let out_rect = nest.access_rect(&assignment.lhs.indices, &env, out_dims);
            if !out_rect.is_empty() {
                out_written[rank].add(out_rect);
            }
            let flops = flops_per_point * iter_points;
            total_flops += flops;
            stream.push((rank, SpmdOp::Compute { bounds, flops }));
        }

        // Step boundary: retire old scratch, promote this step's receives.
        if !nest.seq_extents.is_empty() {
            for rank in 0..ranks {
                stream.push((rank, SpmdOp::RetireScratch { keep: 1 }));
            }
        }
        for (tensor, per_rank) in received {
            for (rank, rects) in per_rank.into_iter().enumerate() {
                let set = &mut scratch.get_mut(&tensor).unwrap()[rank];
                *set = RectSet::new();
                for r in rects {
                    set.add(r);
                }
            }
        }
    }

    // Final gather: move computed output to its home owners. Distributed
    // reductions fold (Johnson's "sum reduces A_ijk to P_ij0"); others
    // overwrite. Local contributions fold without messages.
    let out_owners = owners[&out_name].clone();
    for (rank, written) in out_written.iter().enumerate().take(ranks) {
        for rect in written.rects().to_vec() {
            for (owner, piece) in out_owners.owners_of(&rect) {
                if owner == rank {
                    continue;
                }
                let msg = Message {
                    tag,
                    from: rank,
                    to: owner,
                    tensor: out_name.clone(),
                    rect: piece,
                };
                tag += 1;
                if nest.dist_reduces {
                    stream.push((rank, SpmdOp::ReduceSend(msg.clone())));
                    stream.push((owner, SpmdOp::ReduceRecv(msg)));
                } else {
                    stream.push((rank, SpmdOp::Send(msg.clone())));
                    stream.push((owner, SpmdOp::Recv(msg)));
                }
            }
        }
    }

    // Choose the leaf kernel now, at lowering (= plan) time: the rank VM
    // always *adds* into a zeroed accumulator, and prunes compressed
    // operands' unstored points only for pure-product statements.
    let leaf_compressed: Vec<bool> = assignment
        .input_accesses()
        .iter()
        .map(|acc| by_name[acc.tensor.as_str()].format.has_compressed())
        .collect();
    let leaf = distal_core::kernelgen::leaf_for(
        assignment,
        schedule,
        leaf_compressed,
        true,
        is_pure_product(&assignment.rhs),
    )
    .map_err(SpmdError::Leaf)?;
    let mut program = SpmdProgram {
        assignment: assignment.clone(),
        grid: grid.clone(),
        tensors: tensors.to_vec(),
        programs: vec![Vec::new(); ranks],
        order: Vec::new(),
        owners: owners.into_iter().collect(),
        all_vars: assignment.all_vars(),
        total_flops,
        dist_reduces: nest.dist_reduces,
        collectives: Vec::new(),
        leaf: crate::program::LeafKernel(leaf),
    };
    let stream = collective::apply(&mut program, stream, collectives);
    program.install(stream);
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distal_machine::spec::MemKind;

    fn tiled_tensors(n: i64) -> Vec<SpmdTensor> {
        let f = Format::parse("xy->xy", MemKind::Sys).unwrap();
        ["A", "B", "C"]
            .iter()
            .map(|name| SpmdTensor::new(*name, vec![n, n], f.clone()))
            .collect()
    }

    #[test]
    fn torus_distance_wraps() {
        let g = Grid::grid2(4, 4);
        let a = Point::new(vec![0, 0]);
        let b = Point::new(vec![0, 3]);
        assert_eq!(torus_distance(&g, &a, &b), 1); // wraps around
        let c = Point::new(vec![2, 2]);
        assert_eq!(torus_distance(&g, &a, &c), 4);
        assert_eq!(torus_distance(&g, &a, &a), 0);
    }

    #[test]
    fn summa_lowering_structure() {
        let a = Assignment::parse("A(i,j) = B(i,k) * C(k,j)").unwrap();
        let p = lower(
            &a,
            &tiled_tensors(8),
            &Grid::grid2(2, 2),
            &Schedule::summa(2, 2, 4),
        )
        .unwrap();
        // 4 ranks, each computes 2 sequential chunks.
        assert_eq!(p.ranks(), 4);
        for r in 0..4 {
            let computes = p
                .rank_ops(r)
                .iter()
                .filter(|o| matches!(o, SpmdOp::Compute { .. }))
                .count();
            assert_eq!(computes, 2);
        }
        // A is stationary (communicate(A, jo)): no messages carry A.
        assert!(p.messages().iter().all(|m| m.tensor != "A"));
        assert!((p.total_flops - 2.0 * 8.0f64.powi(3)).abs() < 1.0);
    }

    #[test]
    fn hierarchical_format_rejected_with_tensor_and_format() {
        let a = Assignment::parse("A(i,j) = B(i,k) * C(k,j)").unwrap();
        let mut tensors = tiled_tensors(8);
        tensors[1].format = Format::hierarchical(
            vec![
                distal_format::TensorDistribution::parse("xy->xy").unwrap(),
                distal_format::TensorDistribution::parse("xy->x").unwrap(),
            ],
            MemKind::Sys,
        );
        let err = lower(&a, &tensors, &Grid::grid2(2, 2), &Schedule::summa(2, 2, 4)).unwrap_err();
        let SpmdError::Unsupported(msg) = &err else {
            panic!("expected Unsupported, got {err:?}");
        };
        // The diagnostic names the offending tensor AND its format.
        assert!(msg.contains("'B'"), "missing tensor name: {msg}");
        assert!(msg.contains("2 levels"), "missing level count: {msg}");
        assert!(
            msg.contains("xy ↦ xy") && msg.contains("xy ↦ x"),
            "missing offending distributions: {msg}"
        );
    }

    #[test]
    fn mismatched_grid_rejected() {
        let a = Assignment::parse("A(i,j) = B(i,k) * C(k,j)").unwrap();
        let err = lower(
            &a,
            &tiled_tensors(8),
            &Grid::grid2(4, 1),
            &Schedule::summa(2, 2, 4),
        )
        .unwrap_err();
        assert!(matches!(err, SpmdError::Unsupported(_)));
    }

    #[test]
    fn unknown_tensor_rejected() {
        let a = Assignment::parse("Z(i,j) = B(i,k) * C(k,j)").unwrap();
        let err = lower(&a, &tiled_tensors(8), &Grid::grid2(2, 2), &Schedule::new()).unwrap_err();
        assert_eq!(err, SpmdError::UnknownTensor("Z".into()));
    }

    #[test]
    fn unscheduled_runs_on_rank_zero() {
        let a = Assignment::parse("A(i,j) = B(i,k) * C(k,j)").unwrap();
        let p = lower(&a, &tiled_tensors(8), &Grid::grid2(2, 2), &Schedule::new()).unwrap();
        // Rank 0 computes everything, pulling remote tiles.
        let computes: Vec<usize> = (0..4)
            .map(|r| {
                p.rank_ops(r)
                    .iter()
                    .filter(|o| matches!(o, SpmdOp::Compute { .. }))
                    .count()
            })
            .collect();
        assert_eq!(computes, vec![1, 0, 0, 0]);
        // B and C tiles held by ranks 1-3 flow to rank 0; computed A tiles
        // flow back out to their owners.
        let msgs = p.messages();
        assert!(msgs.iter().all(|m| if m.tensor == "A" {
            m.from == 0
        } else {
            m.to == 0
        }));
        // 3 remote ranks x 2 input tensors + 3 output tiles returned.
        assert_eq!(msgs.len(), 9);
    }
}
