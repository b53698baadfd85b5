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
use crate::ops::{BoundsSpan, Message, RectId, SpmdOp};
use crate::program::SpmdProgram;
use distal_core::nest::{Env, Nest};
use distal_core::{CompileError, Schedule, TensorId, TensorSpec};
use distal_format::semantics::hierarchical_pieces;
use distal_ir::expr::Assignment;
use distal_machine::geom::{Point, Rect, RectIndex, RectSet, RectTable};
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
    /// cannot deadlock; see [`crate::Transport`]).
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
        let held = by_rank.flat_map(|(rank, held)| held.iter().map(move |&p| (p, rank)));
        let index = RectIndex::new(held.collect());
        Ownership { pieces, index }
    }

    /// `pieces()[rank]` = the home rectangles `rank` holds.
    pub(crate) fn pieces(&self) -> &[Vec<Rect>] {
        &self.pieces
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
    /// `(rank, rectangle, id)` of every receive of the previous step, in
    /// order, and a box holding them all.
    scratch: Vec<(usize, Rect, u32)>,
    scratch_bounds: Option<Rect>,
    /// The scratch, a set per rank, with its holders in `(rank,
    /// rectangle)` order, on the home index's slabs (received parts are
    /// mostly home pieces or parts of them): built by the step's first
    /// need in its box.
    scratch_index: Option<RectIndex<usize>>,
    /// Per scratch rectangle and per home piece (by sequence number), its
    /// id once a transfer of all of it was interned, else `u32::MAX`.
    ids: [Vec<u32>; 2],
    /// This step's receives, as `scratch` holds the last step's.
    received: Vec<(usize, Rect, u32)>,
    received_bounds: Option<Rect>,
    /// Reused by every [`Holdings::supply`]: the disjoint parts of the need
    /// still missing, an index query's hits, the candidate suppliers, and
    /// the transfers chosen.
    missing: RectSet,
    hits: Vec<usize>,
    suppliers: Vec<(SupplierKey, Rect)>,
    transfers: Vec<(usize, RectId)>,
}

impl<'a> Holdings<'a> {
    fn new(tensor: &'a str, grid: &'a Grid, points: &'a [Point], home: &'a Ownership) -> Self {
        let pieces = home.pieces.iter().map(Vec::len).sum();
        Holdings {
            tensor,
            grid,
            points,
            home,
            scratch: Vec::new(),
            scratch_bounds: None,
            scratch_index: None,
            ids: [Vec::new(), vec![u32::MAX; pieces]],
            received: Vec::new(),
            received_bounds: None,
            missing: RectSet::new(),
            hits: Vec::new(),
            suppliers: Vec::new(),
            transfers: Vec::new(),
        }
    }

    /// Sources the part of `need` that `rank` does not already hold (as a
    /// home piece or as scratch) at sequential step `step`: the
    /// `(supplier, rectangle)` transfers in emission order, interned in
    /// `rects`, recorded as received by `rank`.
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
        rects: &mut RectTable,
    ) -> Result<&[(usize, RectId)], SpmdError> {
        self.missing.clear();
        self.suppliers.clear();
        self.transfers.clear();
        self.missing.add(*need);
        let (grid, points) = (self.grid, self.points);
        let hops = |holder: usize| grid.torus_distance(&points[holder], &points[rank]);
        // What `rank` holds goes first: its home pieces, then its scratch.
        let own = self.home.pieces[rank].iter();
        own.for_each(|p| self.missing.subtract(p));
        if self.scratch_bounds.is_some_and(|b| b.overlaps(need)) {
            let (scratch, ids, home) = (&mut self.scratch, &mut self.ids[0], &self.home.index);
            let index = self
                .scratch_index
                .get_or_insert_with(|| RectIndex::new_like(home, scratch_sets(scratch, ids)));
            for (seq, held, &holder) in index.query(need, &mut self.hits) {
                if holder == rank {
                    self.missing.subtract(held);
                } else {
                    self.suppliers.push(((hops(holder), 0, holder, seq), *held));
                }
            }
        }
        // Other ranks' home pieces are a hop away or more, so scratch one hop
        // away precedes them: the home index is asked for what it leaves.
        self.suppliers.sort_unstable_by_key(|(key, _)| *key);
        let near = self.suppliers.partition_point(|((d, ..), _)| *d <= 1);
        self.take(rank, near, rects);
        if !self.missing.is_empty() {
            for (seq, held, &holder) in self.home.index.query(need, &mut self.hits) {
                if holder != rank {
                    self.suppliers.push(((hops(holder), 1, holder, seq), *held));
                }
            }
            // What was taken overlaps nothing missing: a second pass skips it.
            self.suppliers[near..].sort_unstable_by_key(|(key, _)| *key);
            self.take(rank, self.suppliers.len(), rects);
        }
        let bounds = self.received_bounds.get_or_insert(*need);
        *bounds = bounds.union_bb(need);
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

    /// Lets the first `n` suppliers, in order, supply whatever of `rank`'s
    /// need is still missing, interning what they send in `rects`.
    fn take(&mut self, rank: usize, n: usize, rects: &mut RectTable) {
        for i in 0..n {
            if self.missing.is_empty() {
                break;
            }
            let ((_, class, holder, seq), held) = self.suppliers[i];
            // `held` supplies its intersection with each missing part.
            let first = self.received.len();
            let missing = self.missing.rects().iter();
            let parts = missing.filter(|missing| held.overlaps(missing));
            let parts = parts.map(|missing| (rank, held.intersection(missing), u32::MAX));
            self.received.extend(parts);
            if self.received.len() == first {
                continue;
            }
            for (_, part, id) in &mut self.received[first..] {
                // All of `held` is named by the id it got the first time.
                let (known, whole) = (&mut self.ids[usize::from(class)][seq], *part == held);
                if whole && *known == u32::MAX {
                    *known = rects.intern(*part);
                }
                *id = if whole { *known } else { rects.intern(*part) };
                self.transfers.push((holder, RectId(*id)));
            }
            // Removes exactly those parts: the missing rectangles are disjoint.
            self.missing.subtract(&held);
        }
    }

    /// Step boundary: this step's receives become the next step's scratch;
    /// the scratch of the step before retires.
    fn advance(&mut self) {
        std::mem::swap(&mut self.scratch, &mut self.received);
        self.received.clear();
        self.scratch_bounds = self.received_bounds.take();
        self.scratch_index = None;
    }
}

/// Every rank's scratch as `(rectangle, rank)`, rank after rank: what it
/// `received` in one step, as a set of disjoint rectangles built in the
/// order received. `ids` gets each one's id, `u32::MAX` for a split part.
fn scratch_sets(received: &mut [(usize, Rect, u32)], ids: &mut Vec<u32>) -> Vec<(Rect, usize)> {
    received.sort_by_key(|&(rank, ..)| rank);
    let (mut held, mut set) = (Vec::new(), RectSet::new());
    ids.clear();
    for parts in received.chunk_by(|a, b| a.0 == b.0) {
        set.clear();
        parts.iter().for_each(|&(_, part, _)| set.add(part));
        held.extend(set.rects().iter().map(|&r| (r, parts[0].0)));
        let id = |r: &Rect| parts.iter().find(|p| p.1 == *r).map_or(u32::MAX, |p| p.2);
        ids.extend(set.rects().iter().map(id));
    }
    held
}

/// Lowers `nest` — `assignment` under `schedule`, over `tensors` — to an
/// [`SpmdProgram`] with statically resolved communication, recording fans
/// as it sources their transfers and emitting each step in its final
/// form: collectives expanded as `collectives` says
/// ([`crate::collective`]), or under `CollectiveConfig::point_to_point()`
/// the naive per-owner fan-out program the expansions are verified
/// against.
///
/// # Errors
///
/// [`SpmdError::Compile`] with the launch check's or leaf selection's
/// [`CompileError`] — the runtime backend's lowering makes the same calls
/// on the same nest and reports the same error.
pub(crate) fn lower_with(
    nest: Nest,
    assignment: &Assignment,
    tensors: &[TensorSpec],
    machine: &MachineHierarchy,
    schedule: &Schedule,
    collectives: &CollectiveConfig,
) -> Result<SpmdProgram, SpmdError> {
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
    let homes = out_owners.pieces();

    // The global `(rank, op)` stream, each step closed in its final form
    // (`open` holds it as sourced), filed into per-rank lists at the end.
    let (mut stream, mut open): (Vec<(usize, SpmdOp)>, Vec<_>) = (Vec::new(), Vec::new());
    let mut rects = RectTable::default();
    let mut arena: Vec<(i64, i64)> = Vec::new();
    let mut tag = 0u64;
    let mut fans = Fans::new(collectives, &points);

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
                for &(from, rect) in flow.supply(rank, step, &need, &mut rects)? {
                    let msg = Message::new(tag, from, rank, tensor, rect);
                    tag += 1;
                    // An output message is a per-owner write, not a payload.
                    if tensor != out {
                        fans.record(open.len(), &msg, false);
                    }
                    open.extend(msg.ops(false));
                }
            }

            // Record output coverage and emit the leaf.
            let out_rect = nest.access_rect(0, &env, out_dims);
            if !out_rect.is_empty() {
                out_written[rank].add(out_rect);
            }
            let flops = flops_per_point * iter_points;
            total_flops += flops;
            let bounds = BoundsSpan::push(&mut arena, bounds);
            open.push((rank, SpmdOp::Compute { bounds, flops }));
        }

        fans.close(&grid, homes, rects.rects(), &mut open, &mut stream, step);

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
    let mut hits = Vec::new();
    for (rank, written) in out_written.iter().enumerate() {
        for rect in written.rects() {
            for (_, piece, &owner) in out_owners.index.query(rect, &mut hits) {
                if owner == rank {
                    continue;
                }
                let piece = RectId(rects.intern(piece.intersection(rect)));
                let msg = Message::new(tag, rank, owner, out, piece);
                tag += 1;
                if nest.dist_reduces {
                    fans.record(open.len(), &msg, true);
                }
                open.extend(msg.ops(nest.dist_reduces));
            }
        }
    }

    fans.close(&grid, homes, rects.rects(), &mut open, &mut stream, retired);
    let (collectives, unexpanded) = fans.finish(&mut stream, tag);

    // Choose the leaf kernel now, at lowering (= plan) time: the rank VM
    // always *adds* into a zeroed accumulator.
    let compressed = |id: &TensorId| tensors[id.index()].format.has_compressed();
    let leaf_compressed: Vec<bool> = accessed[1..].iter().map(compressed).collect();
    let leaf = distal_core::kernelgen::leaf_for(assignment, schedule, leaf_compressed, true)
        .map_err(SpmdError::Compile)?;
    let mut program = SpmdProgram {
        assignment: assignment.clone(),
        grid,
        tensors: tensors.to_vec(),
        nnz: vec![None; tensors.len()],
        accessed,
        ops: Vec::new(),
        starts: vec![0; ranks + 1],
        rects,
        bounds: arena,
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
    program.install(&stream);
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
        let trees = CollectiveConfig::default();
        lower_under(assignment, tensors, grid, schedule, &trees)
    }

    pub(crate) fn lower_under(
        assignment: &Assignment,
        tensors: &[TensorSpec],
        grid: &Grid,
        schedule: &Schedule,
        collectives: &CollectiveConfig,
    ) -> Result<SpmdProgram, SpmdError> {
        let machine = MachineHierarchy::flat(grid.clone());
        let dims = tensors
            .iter()
            .map(|t| (t.name.clone(), t.dims.clone()))
            .collect();
        let nest = Nest::new(assignment, &dims, schedule).map_err(SpmdError::Compile)?;
        lower_with(nest, assignment, tensors, &machine, schedule, collectives)
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
        let mut rects = RectTable::default();
        // What is held is still found...
        let rows = whole.restrict(0, 1, 2);
        let got = holdings.supply(0, 0, &rows, &mut rects).unwrap().to_vec();
        let part = RectId(rects.intern(whole.restrict(0, 2, 2)));
        assert_eq!(got, vec![(1, part)]);
        // ...and the hole is named, not lowered past.
        let err = holdings.supply(0, 3, &whole, &mut rects).unwrap_err();
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

    /// [`Holdings::supply`] without the indexes and without recording the
    /// receives: every other rank's every rectangle is a candidate, ordered
    /// by a stable sort on `(distance, class, rank)`. The search the
    /// indexed one replaced, kept as its oracle.
    fn supply_by_scan(h: &Holdings, rank: usize, need: &Rect) -> Vec<(usize, Rect)> {
        let mut needs = RectSet::from_rect(*need);
        for home in &h.home.pieces[rank] {
            needs.subtract(home);
        }
        // Each rank's scratch, the set its receives of the last step make:
        // built here, not by the `scratch_sets` the index is built from.
        let mut scratch = vec![RectSet::new(); h.points.len()];
        for &(q, part, _) in &h.scratch {
            scratch[q].add(part);
        }
        let held_by = |q: usize| scratch[q].rects().iter();
        for held in held_by(rank) {
            needs.subtract(held);
        }
        let mut supplies: Vec<(i64, u8, usize, &Rect)> = Vec::new();
        for q in (0..h.points.len()).filter(|q| *q != rank) {
            let d = h.grid.torus_distance(&h.points[q], &h.points[rank]);
            for s in held_by(q) {
                supplies.push((d, 0, q, s));
            }
            for s in &h.home.pieces[q] {
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
            let mut rects = RectTable::default();
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
                        let want = supply_by_scan(&holdings, rank, &need);
                        let got = holdings.supply(rank, step, &need, &mut rects).unwrap().to_vec();
                        let got: Vec<_> = got.iter().map(|&(from, id)| (from, rects.rects()[id.0 as usize])).collect();
                        prop_assert_eq!(&got, &want, "rank {} step {} needs {}", rank, step, need);
                    }
                }
                holdings.advance();
            }
        }
    }
}
