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
//! * "Who holds this rectangle?" is a look-up, not a search over ranks:
//!   home pieces are indexed once per tensor and scratch holdings once per
//!   sequential step in a [`RectIndex`], so a need only ever sees the
//!   holders that overlap it (`Holdings::supply`).

use crate::collective::{self, CollectiveConfig};
use crate::ops::{Message, SpmdOp};
use crate::program::SpmdProgram;
use distal_core::nest::Nest;
use distal_core::{CompileError, Schedule};
use distal_format::Format;
use distal_ir::expr::{Access, Assignment, Expr};
use distal_machine::geom::{Point, Rect, RectIndex, RectSet};
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
    /// No rank holds a valid copy of part of an input rectangle (a
    /// lowering bug — a format's home pieces cover its whole tensor). A
    /// program lowered past this point would compute on missing data.
    Uncovered {
        /// The input tensor.
        tensor: String,
        /// The rank that needs the data.
        rank: usize,
        /// The sequential step (row-major over the sequential loops) at
        /// which it needs it.
        step: usize,
        /// The first rectangle nobody could supply.
        rect: Rect,
    },
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
            SpmdError::Uncovered {
                tensor,
                rank,
                step,
                rect,
            } => write!(
                f,
                "no rank holds {tensor}{rect}, which rank {rank} needs at sequential step {step}"
            ),
        }
    }
}

impl std::error::Error for SpmdError {}

/// Which ranks own which home pieces of one tensor.
#[derive(Clone, Debug, Default)]
pub(crate) struct Ownership {
    pieces: Vec<Vec<Rect>>,
    /// Every piece with its rank, in `(rank, piece)` order.
    index: RectIndex<usize>,
}

impl Ownership {
    /// `pieces[rank]` = the home rectangles `rank` holds.
    fn new(pieces: Vec<Vec<Rect>>) -> Self {
        let by_rank = pieces.iter().enumerate();
        let index = RectIndex::new(
            by_rank
                .flat_map(|(rank, held)| held.iter().map(move |p| (p.clone(), rank)))
                .collect(),
        );
        Ownership { pieces, index }
    }

    /// `pieces()[rank]` = the home rectangles `rank` holds.
    pub fn pieces(&self) -> &[Vec<Rect>] {
        &self.pieces
    }

    /// Home owners intersecting `rect`, with the owned sub-rectangles, in
    /// `(rank, piece)` order.
    pub fn owners_of(&self, rect: &Rect) -> Vec<(usize, Rect)> {
        self.index
            .query(rect)
            .map(|(_, piece, &rank)| (rank, piece.intersection(rect)))
            .collect()
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
        return Ok(Ownership::new(pieces));
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
    Ok(Ownership::new(pieces))
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

/// A candidate supplier's place in the order [`Holdings::supply`] visits
/// them in: `(torus distance to the needing rank, 0 for scratch / 1 for a
/// home piece, supplier rank, sequence among the supplier's rectangles)`.
type SupplierKey = (i64, u8, usize, usize);

/// The holdings dataflow of one tensor: which ranks hold a valid copy of
/// which rectangles at the current sequential step. Home pieces are always
/// valid; what a rank received during one step is valid scratch during the
/// next step only (double buffering).
struct Holdings<'a> {
    /// The tensor's name (for diagnostics).
    tensor: &'a str,
    grid: &'a Grid,
    /// Every rank's grid coordinate.
    points: &'a [Point],
    home: &'a Ownership,
    /// `scratch[rank]` = what `rank` received during the previous step.
    scratch: Vec<RectSet>,
    /// Every scratch rectangle with its holder, in `(rank, rectangle)`
    /// order.
    scratch_index: RectIndex<usize>,
    /// `received[rank]` = what `rank` has received during this step.
    received: Vec<Vec<Rect>>,
}

impl<'a> Holdings<'a> {
    fn new(tensor: &'a str, grid: &'a Grid, points: &'a [Point], home: &'a Ownership) -> Self {
        Holdings {
            tensor,
            grid,
            points,
            home,
            scratch: vec![RectSet::new(); points.len()],
            scratch_index: RectIndex::default(),
            received: vec![Vec::new(); points.len()],
        }
    }

    /// Sources the part of `need` that `rank` does not already hold (as a
    /// home piece or as scratch) at sequential step `step`: the
    /// `(supplier, rectangle)` transfers in emission order, recorded as
    /// received by `rank`.
    ///
    /// The candidate suppliers are the other ranks' scratch rectangles and
    /// home pieces that overlap `need`, visited in ascending
    /// [`SupplierKey`] order, each supplying whatever is still missing.
    /// Preferring a forwarded scratch copy over an
    /// equally distant home owner is what makes systolic schedules
    /// systolic — it spreads load off the owners, which is the paper's
    /// stated rationale for `rotate` ("avoiding contention for the same
    /// pieces of data", §3.3).
    ///
    /// # Errors
    ///
    /// [`SpmdError::Uncovered`] when no rank holds some part of `need`.
    fn supply(
        &mut self,
        rank: usize,
        step: usize,
        need: &Rect,
    ) -> Result<Vec<(usize, Rect)>, SpmdError> {
        let mut needs = RectSet::from_rect(need.clone());
        let mut suppliers: Vec<(SupplierKey, &Rect)> = Vec::new();
        let home = self.home.index.query(need).map(|hit| (1, hit));
        let scratch = self.scratch_index.query(need).map(|hit| (0, hit));
        for (class, (seq, held, &holder)) in home.chain(scratch) {
            if holder == rank {
                needs.subtract(held);
            } else {
                let d = torus_distance(self.grid, &self.points[holder], &self.points[rank]);
                suppliers.push(((d, class, holder, seq), held));
            }
        }
        suppliers.sort_unstable_by_key(|(key, _)| *key);
        let mut transfers = Vec::new();
        for ((_, _, holder, _), held) in suppliers {
            if needs.is_empty() {
                break;
            }
            let parts: Vec<Rect> = needs
                .rects()
                .iter()
                .filter(|missing| held.overlaps(missing))
                .map(|missing| held.intersection(missing))
                .collect();
            if parts.is_empty() {
                continue;
            }
            // Removes exactly `parts`: the missing rectangles are disjoint.
            needs.subtract(held);
            for part in parts {
                self.received[rank].push(part.clone());
                transfers.push((holder, part));
            }
        }
        match needs.rects().first() {
            None => Ok(transfers),
            Some(hole) => Err(SpmdError::Uncovered {
                tensor: self.tensor.to_string(),
                rank,
                step,
                rect: hole.clone(),
            }),
        }
    }

    /// Step boundary: this step's receives become the next step's scratch;
    /// the scratch of the step before retires.
    fn advance(&mut self) {
        for (set, rects) in self.scratch.iter_mut().zip(&mut self.received) {
            *set = RectSet::new();
            for r in rects.drain(..) {
                set.add(r);
            }
        }
        let by_rank = self.scratch.iter().enumerate();
        self.scratch_index = RectIndex::new(
            by_rank
                .flat_map(|(rank, set)| set.rects().iter().map(move |r| (r.clone(), rank)))
                .collect(),
        );
    }

    /// [`Holdings::supply`] without the indexes and without recording the
    /// receives: every other rank's every rectangle is a candidate, ordered
    /// by a stable sort on `(distance, class, rank)`. The search the
    /// indexed one replaced, kept as its oracle.
    #[cfg(test)]
    fn supply_by_scan(&self, rank: usize, need: &Rect) -> Vec<(usize, Rect)> {
        let mut needs = RectSet::from_rect(need.clone());
        for home in &self.home.pieces[rank] {
            needs.subtract(home);
        }
        for held in self.scratch[rank].rects() {
            needs.subtract(held);
        }
        let mut supplies: Vec<(i64, u8, usize, &Rect)> = Vec::new();
        for q in (0..self.points.len()).filter(|q| *q != rank) {
            let d = torus_distance(self.grid, &self.points[q], &self.points[rank]);
            for s in self.scratch[q].rects() {
                supplies.push((d, 0, q, s));
            }
            for s in &self.home.pieces[q] {
                supplies.push((d, 1, q, s));
            }
        }
        supplies.sort_by_key(|a| (a.0, a.1, a.2));
        let mut transfers = Vec::new();
        for (_, _, q, s) in supplies {
            for missing in needs.rects().to_vec() {
                let part = s.intersection(&missing);
                if !part.is_empty() {
                    needs.subtract(&part);
                    transfers.push((q, part));
                }
            }
        }
        transfers
    }
}

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

    // One holdings dataflow per accessed tensor; every input access is
    // resolved to its tensor's description and dataflow here, once.
    let points: Vec<Point> = grid.points().collect();
    let mut holdings: Vec<Holdings> = owners
        .iter()
        .map(|(name, home)| Holdings::new(name, grid, &points, home))
        .collect();
    let inputs: Vec<(&Access, &SpmdTensor, usize)> = assignment
        .input_accesses()
        .into_iter()
        .map(|acc| {
            let flow = holdings.iter().position(|h| h.tensor == acc.tensor);
            let flow = flow.expect("every accessed tensor has holdings");
            (acc, by_name[acc.tensor.as_str()], flow)
        })
        .collect();
    let mut out_written: Vec<RectSet> = vec![RectSet::new(); ranks];
    let mut total_flops = 0.0f64;

    for (step, seq_point) in nest.seq_rect().points().enumerate() {
        for point in domain_rect.points() {
            // The launch domain is the grid (checked above) or the single
            // point 0, so a point's row-major index is its rank.
            let rank = domain_rect.linearize(&point);
            let env = nest.env(&seq_point, &point);
            let Some((bounds, iter_points)) = nest.leaf_bounds(&env) else {
                continue;
            };

            // Source every input rectangle not already held locally.
            for &(acc, t, flow) in &inputs {
                let need = nest.access_rect(&acc.indices, &env, &t.dims);
                for (from, rect) in holdings[flow].supply(rank, step, &need)? {
                    let msg = Message {
                        tag,
                        from,
                        to: rank,
                        tensor: acc.tensor.clone(),
                        rect,
                    };
                    tag += 1;
                    stream.push((from, SpmdOp::Send(msg.clone())));
                    stream.push((rank, SpmdOp::Recv(msg)));
                }
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
        holdings.iter_mut().for_each(Holdings::advance);
    }
    drop(holdings);

    // Final gather: move computed output to its home owners. Distributed
    // reductions fold (Johnson's "sum reduces A_ijk to P_ij0"); others
    // overwrite. Local contributions fold without messages.
    let out_owners = &owners[&out_name];
    for (rank, written) in out_written.iter().enumerate() {
        for rect in written.rects() {
            for (owner, piece) in out_owners.owners_of(rect) {
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
    use proptest::prelude::*;

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

    #[test]
    fn a_hole_in_the_home_pieces_is_a_typed_error() {
        // Two ranks on a line; rank 1's piece stops a row short of the
        // tensor, so nobody holds row 3.
        let grid = Grid::line(2);
        let points: Vec<Point> = grid.points().collect();
        let whole = Rect::sized(&[4, 4]);
        let home = Ownership::new(vec![
            vec![whole.restrict(0, 0, 1)],
            vec![whole.restrict(0, 2, 2)],
        ]);
        let mut holdings = Holdings::new("B", &grid, &points, &home);
        // What is held is still found...
        let rows = whole.restrict(0, 1, 2);
        assert_eq!(
            holdings.supply(0, 0, &rows).unwrap(),
            vec![(1, whole.restrict(0, 2, 2))]
        );
        // ...and the hole is named, not lowered past.
        let err = holdings.supply(0, 3, &whole).unwrap_err();
        assert_eq!(
            err,
            SpmdError::Uncovered {
                tensor: "B".into(),
                rank: 0,
                step: 3,
                rect: whole.restrict(0, 3, 3),
            }
        );
        assert_eq!(
            err.to_string(),
            "no rank holds B[(3, 0)..(3, 3)], which rank 0 needs at sequential step 3"
        );
    }

    /// Grids (line, prime line, non-square, square, two 3-d) and, per grid
    /// dimensionality, distribution notations for a matrix: tiled,
    /// transposed, replicated (`*`), face-fixed (`0`) and mixtures.
    fn grids() -> Vec<Grid> {
        vec![
            Grid::line(4),
            Grid::line(7),
            Grid::grid2(2, 3),
            Grid::grid2(3, 3),
            Grid::grid3(2, 2, 3),
            Grid::grid3(3, 1, 2),
        ]
    }
    const NOTATIONS: [&[&str]; 3] = [
        &["xy->x", "xy->y", "xy->*", "xy->0"],
        &["xy->xy", "xy->yx", "xy->x*", "xy->*y", "xy->x0", "xy->0y"],
        &[
            "xy->xy*", "xy->xy0", "xy->x*y", "xy->0yx", "xy->*x*", "xy->y00",
        ],
    ];
    const PARTITIONS: [&str; 4] = ["", " @bc2", " @bc3", " @cyclic"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The indexed supplier search is the per-rank scan it replaced:
        /// the same `(from, to, rect)` sequence for every need, over
        /// several sequential steps, so that forwarded scratch copies
        /// compete with home owners.
        #[test]
        fn indexed_supply_matches_the_per_rank_scan(
            grid in 0usize..6,
            notation in 0usize..7,
            partition in 0usize..4,
            dims in (3i64..13, 3i64..13),
            steps in 2usize..5,
            needs in prop::collection::vec(((0i64..12, 0i64..8), (0i64..12, 0i64..8)), 120),
        ) {
            let grid = grids()[grid].clone();
            let notations = NOTATIONS[grid.dim() - 1];
            // One notation in seven is the undistributed format.
            let format = match notations.get(notation % 7) {
                Some(n) => Format::parse(&format!("{n}{}", PARTITIONS[partition]), MemKind::Sys)
                    .unwrap(),
                None => Format::undistributed(),
            };
            let tensor = SpmdTensor::new("T", vec![dims.0, dims.1], format);
            let home = ownership(&tensor, &grid).unwrap();
            let points: Vec<Point> = grid.points().collect();
            let mut holdings = Holdings::new("T", &grid, &points, &home);
            // Needs: (start, length) per dimension, clipped to the tensor;
            // length 0 is an empty need.
            let mut needs = needs.iter().map(|&((r0, rn), (c0, cn))| {
                let (r0, c0) = (r0 % dims.0, c0 % dims.1);
                Rect::new(
                    Point::new(vec![r0, c0]),
                    Point::new(vec![(r0 + rn).min(dims.0) - 1, (c0 + cn).min(dims.1) - 1]),
                )
            });
            for step in 0..steps {
                for rank in 0..points.len() {
                    // Two accesses per rank and step.
                    for need in needs.by_ref().take(2) {
                        let want = holdings.supply_by_scan(rank, &need);
                        let got = holdings.supply(rank, step, &need).unwrap();
                        prop_assert_eq!(&got, &want, "rank {} step {} needs {}", rank, step, need);
                    }
                }
                holdings.advance();
            }
        }
    }
}
