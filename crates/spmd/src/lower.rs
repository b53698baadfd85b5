//! Static lowering: from (statement, formats, machine, schedule) to
//! per-rank SPMD programs with exact compile-time communication.
//!
//! The nest split (distributed prefix → sequential communicate loops →
//! leaf) is [`distal_core::nest::Nest`], shared with the Legion-style
//! backend; but instead of emitting region requirements for a dynamic
//! runtime to analyze, this lowering *solves* the communication statically:
//!
//! * Ranks are the points of the machine's flattened hierarchy, row-major;
//!   launch point `r` (row-major over the launch domain, which may be
//!   smaller than the machine) runs on rank `r`, and ranks past the launch
//!   domain own data but compute nothing.
//! * The bounds analysis of [`distal_ir::provenance`] gives the exact
//!   rectangle of each tensor every rank touches at every sequential step.
//! * A holdings dataflow tracks which ranks hold valid copies of which
//!   rectangles at each step: home pieces (the runtime's placement of the
//!   tensor's format, one distribution per machine level,
//!   `distal_format::semantics::hierarchical_pieces`) are always valid;
//!   received scratch is valid for the next step only (double buffering).
//! * Each needed rectangle is sourced from the *nearest* rank holding a
//!   valid copy (torus distance, ties by rank id), falling back to home
//!   owners — this is the policy under which systolic schedules generate
//!   neighbour-only traffic (Figure 8b) while broadcast schedules source
//!   from owners (Figure 8a).
//! * "Who holds this rectangle?" is a look-up, not a search over ranks:
//!   home pieces are indexed once per tensor and scratch holdings once per
//!   sequential step in a [`RectIndex`], so a need only ever sees the
//!   holders that overlap it (`Holdings::supply`).
//!
//! What the two lowerings share they also decide identically: the nest
//! analysis, the rank of every launch point (`Nest::launch_points`), the
//! home pieces, and the leaf (`distal_core::kernelgen::leaf_for`, asked
//! with the same compressed flags as the runtime's lowering — only the
//! accumulation discipline differs), and a rejection by any of them
//! arrives unchanged as [`SpmdError::Compile`], so a bad schedule is the
//! same `BackendError` on both backends.

use crate::collective::{CollectiveConfig, Fans};
use crate::ops::{Message, SpmdOp};
use crate::program::SpmdProgram;
use distal_core::nest::{Env, Nest};
use distal_core::{CompileError, Schedule, TensorId, TensorSpec};
use distal_format::semantics::hierarchical_pieces;
use distal_ir::expr::Assignment;
use distal_machine::geom::{Point, Rect, RectIndex, RectSet};
use distal_machine::grid::{Grid, MachineHierarchy};
use std::fmt;

/// Errors from SPMD lowering and execution.
#[derive(Clone, Debug, PartialEq)]
pub enum SpmdError {
    /// The lowering rejected the problem or schedule for a reason both
    /// backends share — a missing statement, an unknown tensor, a
    /// mis-ranked access, inconsistent extents, a failing scheduling
    /// command, an index space past the coordinate cap, a refused
    /// `substitute` — carrying the very [`CompileError`] the runtime
    /// backend reports for it.
    Compile(CompileError),
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
        /// The first rectangle nobody could supply (boxed: a rectangle
        /// holds its coordinates inline, and every `Result` of this error
        /// type would carry them).
        rect: Box<Rect>,
    },
}

impl fmt::Display for SpmdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpmdError::Compile(e) => write!(f, "{e}"),
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
                .flat_map(|(rank, held)| held.iter().map(move |p| (*p, rank)))
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

/// Builds the home-piece table of a tensor: rank `r` (the machine point
/// `points[r]` of the flattened hierarchy) holds the pieces the runtime's
/// placement gives that point, one distribution per machine level;
/// undistributed tensors live whole on rank 0.
fn ownership(tensor: &TensorSpec, machine: &MachineHierarchy, points: &[Point]) -> Ownership {
    let rect = Rect::sized(&tensor.dims);
    if !tensor.format.is_distributed() {
        let mut pieces = vec![Vec::new(); points.len()];
        pieces[0].push(rect);
        return Ownership::new(pieces);
    }
    let pieces = points
        .iter()
        .map(|point| hierarchical_pieces(&tensor.format.distributions, &rect, machine, point));
    Ownership::new(pieces.collect())
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
    /// Reused by every [`Holdings::supply`]: the disjoint parts of the need
    /// still missing, the candidate suppliers, and the transfers chosen.
    missing: RectSet,
    suppliers: Vec<(SupplierKey, Rect)>,
    transfers: Vec<(usize, Rect)>,
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
            missing: RectSet::new(),
            suppliers: Vec::new(),
            transfers: Vec::new(),
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
    ) -> Result<&[(usize, Rect)], SpmdError> {
        self.missing.clear();
        self.suppliers.clear();
        self.transfers.clear();
        self.missing.add(*need);
        let home = self.home.index.query(need).map(|hit| (1, hit));
        let scratch = self.scratch_index.query(need).map(|hit| (0, hit));
        for (class, (seq, held, &holder)) in home.chain(scratch) {
            if holder == rank {
                self.missing.subtract(held);
            } else {
                let d = torus_distance(self.grid, &self.points[holder], &self.points[rank]);
                self.suppliers.push(((d, class, holder, seq), *held));
            }
        }
        self.suppliers.sort_unstable_by_key(|(key, _)| *key);
        for &((_, _, holder, _), held) in &self.suppliers {
            if self.missing.is_empty() {
                break;
            }
            // `held` supplies its intersection with each missing part.
            let first = self.transfers.len();
            let missing = self.missing.rects().iter();
            let parts = missing.filter(|missing| held.overlaps(missing));
            let parts = parts.map(|missing| (holder, held.intersection(missing)));
            self.transfers.extend(parts);
            if self.transfers.len() == first {
                continue;
            }
            // Removes exactly those parts: the missing rectangles are disjoint.
            self.missing.subtract(&held);
            let parts = self.transfers[first..].iter().map(|&(_, part)| part);
            self.received[rank].extend(parts);
        }
        match self.missing.rects().first() {
            None => Ok(&self.transfers),
            Some(hole) => Err(SpmdError::Uncovered {
                tensor: self.tensor.to_string(),
                rank,
                step,
                rect: Box::new(*hole),
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
                .flat_map(|(rank, set)| set.rects().iter().map(move |r| (*r, rank)))
                .collect(),
        );
    }

    /// [`Holdings::supply`] without the indexes and without recording the
    /// receives: every other rank's every rectangle is a candidate, ordered
    /// by a stable sort on `(distance, class, rank)`. The search the
    /// indexed one replaced, kept as its oracle.
    #[cfg(test)]
    fn supply_by_scan(&self, rank: usize, need: &Rect) -> Vec<(usize, Rect)> {
        let mut needs = RectSet::from_rect(*need);
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
/// resolved communication, recording fans as it sources their transfers
/// and emitting each step in its final form: collectives expanded as
/// `collectives` says ([`crate::collective`]), or under
/// `CollectiveConfig::point_to_point()` the naive per-owner fan-out
/// program the expansions are verified against.
///
/// # Errors
///
/// [`SpmdError::Compile`] with the shared nest analysis', launch check's or
/// leaf selection's [`CompileError`] — the runtime backend's lowering
/// starts with the same calls and reports the same error.
pub(crate) fn lower_with(
    assignment: &Assignment,
    tensors: &[TensorSpec],
    machine: &MachineHierarchy,
    schedule: &Schedule,
    collectives: &CollectiveConfig,
) -> Result<SpmdProgram, SpmdError> {
    let dims = tensors
        .iter()
        .map(|t| (t.name.clone(), t.dims.clone()))
        .collect();
    let nest = Nest::new(assignment, &dims, schedule).map_err(SpmdError::Compile)?;
    let grid = machine.flat_grid();
    let launch_points = nest
        .launch_points(grid.size())
        .map_err(SpmdError::Compile)?;
    // The tensor of every access, destination first: the one look-up by
    // name (the nest analysis found each of them registered).
    let accessed: Vec<TensorId> = assignment
        .accesses()
        .iter()
        .map(|acc| {
            let position = tensors.iter().position(|t| t.name == acc.tensor);
            TensorId(position.expect("the nest analysis checked every access") as u32)
        })
        .collect();
    let ranks = grid.size() as usize;

    // Ownership tables of the tensors the statement touches, by id, over
    // every rank's point of the flattened machine.
    let points: Vec<Point> = grid.points().collect();
    let mut owners: Vec<Option<Ownership>> = vec![None; tensors.len()];
    for id in &accessed {
        let t = &tensors[id.index()];
        owners[id.index()].get_or_insert_with(|| ownership(t, machine, &points));
    }

    let flops_per_point = assignment.flops_per_point();
    let out = accessed[0];
    let out_dims = &tensors[out.index()].dims;
    let out_owners = owners[out.index()].as_ref();
    let out_owners = out_owners.expect("the destination is accessed");

    // The one copy of every op: the global `(rank, op)` stream, each step
    // closed in its final form, filed into the per-rank lists at the end.
    let mut stream: Vec<(usize, SpmdOp)> = Vec::new();
    let mut tag = 0u64;
    let mut fans = Fans::new(collectives);

    // One holdings dataflow per accessed tensor, by id.
    let mut holdings: Vec<Option<Holdings>> = owners
        .iter()
        .zip(tensors)
        .map(|(home, t)| Some(Holdings::new(&t.name, &grid, &points, home.as_ref()?)))
        .collect();
    let mut out_written: Vec<RectSet> = vec![RectSet::new(); ranks];
    let mut total_flops = 0.0f64;
    let mut env = Env::new();

    // Steps closed by a `RetireScratch` per rank: the final gather's step.
    let mut retired = 0;
    for (step, seq_point) in nest.seq_rect().points().enumerate() {
        for point in launch_points.points() {
            // A launch point runs on the rank of its row-major index, as
            // the runtime's `GridMapper::proc_for_rank` runs it.
            let rank = launch_points.linearize(&point);
            nest.bind_env(&mut env, &seq_point, &point);
            let Some((bounds, iter_points)) = nest.leaf_bounds(&env) else {
                continue;
            };

            // Source every input rectangle not already held locally.
            for (a, &tensor) in accessed.iter().enumerate().skip(1) {
                let need = nest.access_rect(a, &env, &tensors[tensor.index()].dims);
                let flow = holdings[tensor.index()].as_mut();
                let flow = flow.expect("every accessed tensor has holdings");
                for &(from, rect) in flow.supply(rank, step, &need)? {
                    let msg = Message {
                        tag,
                        from,
                        to: rank,
                        tensor,
                        rect,
                    };
                    tag += 1;
                    // An output message is a per-owner write, not a payload.
                    if tensor != out {
                        fans.record(stream.len(), &msg, false);
                    }
                    stream.push((from, SpmdOp::Send(msg)));
                    stream.push((rank, SpmdOp::Recv(msg)));
                }
            }

            // Record output coverage and emit the leaf.
            let out_rect = nest.access_rect(0, &env, out_dims);
            if !out_rect.is_empty() {
                out_written[rank].add(out_rect);
            }
            let flops = flops_per_point * iter_points;
            total_flops += flops;
            stream.push((rank, SpmdOp::Compute { bounds, flops }));
        }

        fans.close(&grid, out_owners.pieces(), &mut stream, step);

        // Step boundary: retire old scratch, promote this step's receives.
        if !nest.seq_extents.is_empty() {
            for rank in 0..ranks {
                stream.push((rank, SpmdOp::RetireScratch { keep: 1 }));
            }
            retired += 1;
        }
        holdings.iter_mut().flatten().for_each(Holdings::advance);
    }
    drop(holdings);

    // Final gather: move computed output to its home owners. Distributed
    // reductions fold (Johnson's "sum reduces A_ijk to P_ij0"); others
    // overwrite. Local contributions fold without messages.
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
                    tensor: out,
                    rect: piece,
                };
                tag += 1;
                if nest.dist_reduces {
                    fans.record(stream.len(), &msg, true);
                    stream.push((rank, SpmdOp::ReduceSend(msg)));
                    stream.push((owner, SpmdOp::ReduceRecv(msg)));
                } else {
                    stream.push((rank, SpmdOp::Send(msg)));
                    stream.push((owner, SpmdOp::Recv(msg)));
                }
            }
        }
    }

    fans.close(&grid, out_owners.pieces(), &mut stream, retired);
    let (collectives, unexpanded) = fans.finish(&mut stream, tag);

    // Choose the leaf kernel now, at lowering (= plan) time: the rank VM
    // always *adds* into a zeroed accumulator.
    let leaf_compressed: Vec<bool> = accessed[1..]
        .iter()
        .map(|id| tensors[id.index()].format.has_compressed())
        .collect();
    let leaf = distal_core::kernelgen::leaf_for(assignment, schedule, leaf_compressed, true)
        .map_err(SpmdError::Compile)?;
    let mut program = SpmdProgram {
        assignment: assignment.clone(),
        grid,
        tensors: tensors.to_vec(),
        nnz: vec![None; tensors.len()],
        accessed,
        programs: vec![Vec::new(); ranks],
        order: Vec::new(),
        owners,
        access_positions: assignment.access_positions(),
        total_flops,
        dist_reduces: nest.dist_reduces,
        collectives,
        unexpanded,
        leaf: crate::program::LeafKernel(leaf),
        tasks: 0,
        derived: Default::default(),
    };
    program.install(stream);
    Ok(program)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use distal_format::Format;
    use distal_machine::spec::MemKind;
    use proptest::prelude::*;

    pub(crate) fn lower(
        assignment: &Assignment,
        tensors: &[TensorSpec],
        grid: &Grid,
        schedule: &Schedule,
    ) -> Result<SpmdProgram, SpmdError> {
        let machine = MachineHierarchy::flat(grid.clone());
        let collectives = CollectiveConfig::default();
        lower_with(assignment, tensors, &machine, schedule, &collectives)
    }

    pub(crate) fn tiled_tensors(n: i64) -> Vec<TensorSpec> {
        let f = Format::parse("xy->xy", MemKind::Sys).unwrap();
        ["A", "B", "C"]
            .iter()
            .map(|name| TensorSpec::new(*name, vec![n, n], f.clone()))
            .collect()
    }

    /// An unscheduled matmul over `tiled_tensors(4)` on a 2x2 grid.
    pub(crate) fn matmul_2x2() -> SpmdProgram {
        let a = Assignment::parse("A(i,j) = B(i,k) * C(k,j)").unwrap();
        lower(&a, &tiled_tensors(4), &Grid::grid2(2, 2), &Schedule::new()).unwrap()
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
        assert!(p.messages().iter().all(|m| m.tensor != p.output()));
        // An op renders with its tensor's name.
        let shown: Vec<String> = p
            .in_order()
            .map(|(_, op)| p.named(op).to_string())
            .collect();
        for tensor in [" B[", " C["] {
            let sent = |op: &String| op.starts_with("send #") && op.contains(tensor);
            assert!(shown.iter().any(sent), "{shown:?}");
        }
        assert!((p.total_flops - 2.0 * 8.0f64.powi(3)).abs() < 1.0);
    }

    #[test]
    fn launch_points_run_on_the_ranks_of_their_row_major_indices() {
        // SUMMA's 2x2 launch on a 4x1 machine: point (x, y) runs on rank
        // 2x + y; ranks past a smaller launch domain own data but compute
        // nothing; a larger one is the runtime's typed error.
        let a = Assignment::parse("A(i,j) = B(i,k) * C(k,j)").unwrap();
        let computes = |grid: &Grid, schedule: &Schedule| {
            let mut tensors = tiled_tensors(8);
            if grid.dim() == 1 {
                let rows = Format::parse("xy->x", MemKind::Sys).unwrap();
                tensors.iter_mut().for_each(|t| t.format = rows.clone());
            }
            let p = lower(&a, &tensors, grid, schedule)?;
            let leaves = |r| {
                p.rank_ops(r)
                    .iter()
                    .filter(|o| matches!(o, SpmdOp::Compute { .. }))
            };
            Ok::<_, SpmdError>(
                (0..p.ranks())
                    .map(|r| leaves(r).count())
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(
            computes(&Grid::grid2(4, 1), &Schedule::summa(2, 2, 4)),
            Ok(vec![2; 4])
        );
        let halves = Schedule::new()
            .divide("i", "io", "ii", 2)
            .distribute(&["io"]);
        assert_eq!(computes(&Grid::line(4), &halves), Ok(vec![1, 1, 0, 0]));
        let too_large = CompileError::GridTooLarge {
            required: 16,
            available: 4,
        };
        let err = computes(&Grid::grid2(2, 2), &Schedule::summa(4, 4, 2));
        assert_eq!(err, Err(SpmdError::Compile(too_large)));
    }

    #[test]
    fn unknown_tensor_rejected() {
        let a = Assignment::parse("Z(i,j) = B(i,k) * C(k,j)").unwrap();
        let err = lower(&a, &tiled_tensors(8), &Grid::grid2(2, 2), &Schedule::new()).unwrap_err();
        assert_eq!(
            err,
            SpmdError::Compile(CompileError::UnknownTensor("Z".into()))
        );
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
        assert!(msgs.iter().all(|m| if m.tensor == p.output() {
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
                rect: Box::new(whole.restrict(0, 3, 3)),
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
            let tensor = TensorSpec::new("T", vec![dims.0, dims.1], format);
            let points: Vec<Point> = grid.points().collect();
            let home = ownership(&tensor, &MachineHierarchy::flat(grid.clone()), &points);
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
                        let got = holdings.supply(rank, step, &need).unwrap().to_vec();
                        prop_assert_eq!(&got, &want, "rank {} step {} needs {}", rank, step, need);
                    }
                }
                holdings.advance();
            }
        }
    }
}
