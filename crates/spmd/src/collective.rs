//! Static collective recognition and lowering for the SPMD backend.
//!
//! The Legion-style backend gets broadcast trees for free from the
//! runtime's dynamic copy analysis (§6). The static backend lowers the
//! same schedules to explicit point-to-point messages — and a SUMMA row
//! broadcast then shows up as one home owner serially fanning the same
//! `(tensor, rect)` payload to every rank of its grid row: an O(p)
//! critical path. This module is the "orthogonal analysis pass for an
//! MPI-based backend" the paper's §8 points at:
//!
//! 1. **Recognition** ([`recognize`]) scans the lowered global op stream,
//!    one sequential step at a time, and groups matching transfers into
//!    collectives:
//!    * one root sending the *same* `(tensor, rect)` to ≥ 2 destinations
//!      becomes a [`CollectiveKind::Broadcast`] (SUMMA rows/columns,
//!      Johnson's replication planes);
//!    * ≥ 2 sources reduce-sending the same `(tensor, rect)` into one
//!      root becomes a [`CollectiveKind::Reduce`] (Johnson's `z`-fold,
//!      inner-product scalar folds);
//!    * a family of broadcasts over one member set in which *every*
//!      member is a root becomes a [`CollectiveKind::AllGather`].
//! 2. **Lowering** (run by [`crate::lower_with`]) replaces each
//!    recognized group's messages
//!    with a binomial-tree or ring schedule of fresh point-to-point
//!    messages over the torus. The expansion stays inside the existing
//!    two-sided, compile-time-ordered execution model — every `Send`
//!    still has exactly one tag-matched `Recv`, emitted in dependency
//!    order, so both transports ([`crate::transport::Transport`]) run
//!    the result unchanged and deadlock remains impossible; on the
//!    threaded transport the tree rounds genuinely overlap across
//!    subtree threads.
//!
//! Tree and ring expansions move exactly the bytes of the naive fan
//! (each non-root member receives the payload once), so total volume and
//! message counts are invariant; only the *shape* of the schedule — and
//! with it the critical-path depth and the α-β makespan
//! ([`crate::cost`]) — changes: a `g`-member broadcast drops from `g-1`
//! serialized root sends to `⌈log₂ g⌉` rounds.

use crate::ops::{Message, SpmdOp};
use crate::program::SpmdProgram;
use distal_machine::geom::{Point, Rect};
use distal_machine::grid::Grid;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The collective patterns the recognizer knows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollectiveKind {
    /// One root fans one payload to every other member.
    Broadcast,
    /// Every non-root member folds a partial result into the root.
    Reduce,
    /// Every member fans its own piece to every other member.
    AllGather,
}

impl fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveKind::Broadcast => write!(f, "broadcast"),
            CollectiveKind::Reduce => write!(f, "reduce"),
            CollectiveKind::AllGather => write!(f, "allgather"),
        }
    }
}

/// How a recognized collective is expanded into point-to-point messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Binomial tree: `⌈log₂ g⌉` rounds; in round `r` every member that
    /// already has (or, reducing, still owes) the payload exchanges with
    /// the member `2^r` positions away.
    BinomialTree,
    /// Ring: `g - 1` rounds of neighbour-only traffic along the member
    /// order (optimal distance on a torus line, linear depth).
    Ring,
}

/// Per-kind topology choices for the lowering pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CollectiveConfig {
    /// Master switch; `false` leaves the naive point-to-point program.
    pub enabled: bool,
    /// Topology for broadcasts.
    pub broadcast: Topology,
    /// Topology for reductions.
    pub reduce: Topology,
    /// Topology for all-gathers (ring is bandwidth-optimal and
    /// neighbour-only, the standard choice).
    pub allgather: Topology,
}

impl Default for CollectiveConfig {
    fn default() -> Self {
        CollectiveConfig {
            enabled: true,
            broadcast: Topology::BinomialTree,
            reduce: Topology::BinomialTree,
            allgather: Topology::Ring,
        }
    }
}

impl CollectiveConfig {
    /// Disable recognition entirely: the naive point-to-point program.
    pub fn point_to_point() -> Self {
        CollectiveConfig {
            enabled: false,
            ..CollectiveConfig::default()
        }
    }

    /// Tree broadcasts/reductions, ring all-gathers (the default).
    pub fn trees() -> Self {
        CollectiveConfig::default()
    }

    /// Ring schedules for every collective (all traffic neighbour-only
    /// along member lines, at linear depth).
    pub fn rings() -> Self {
        CollectiveConfig {
            enabled: true,
            broadcast: Topology::Ring,
            reduce: Topology::Ring,
            allgather: Topology::Ring,
        }
    }
}

/// One recognized (and, once lowering runs, expanded) collective
/// operation.
#[derive(Clone, Debug)]
pub struct Collective {
    /// The pattern.
    pub kind: CollectiveKind,
    /// The tensor moved.
    pub tensor: String,
    /// The payload rectangle (for all-gathers: the bounding box of the
    /// members' pieces).
    pub rect: Rect,
    /// The root rank (fan source for broadcasts, fold target for
    /// reductions, first member for all-gathers).
    pub root: usize,
    /// All participating ranks in schedule order, root first.
    pub members: Vec<usize>,
    /// Sequential-step segment the collective lives in.
    pub step: usize,
    /// The grid axis the members vary along, when they form a line
    /// (a SUMMA row/column); `None` for planes or irregular groups.
    pub axis: Option<usize>,
    /// Critical-path message depth of the naive serialized fan this
    /// collective replaced (`g - 1` for a `g`-member group).
    pub naive_depth: usize,
    /// Critical-path message depth of the lowered schedule (rounds on
    /// the longest dependent-message chain): `⌈log₂ g⌉` for binomial
    /// trees, `g - 1` for rings. Equal to [`Collective::naive_depth`]
    /// until the lowering pass rewrites the schedule.
    pub depth: usize,
}

impl fmt::Display for Collective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}[{}] root {} over {:?} (step {}, depth {} vs naive {})",
            self.kind,
            self.tensor,
            self.rect,
            self.root,
            self.members,
            self.step,
            self.depth,
            self.naive_depth
        )
    }
}

/// One fan of identical payloads found in a step segment: a broadcast
/// candidate (root sends to `peers`) or a reduce candidate (`peers`
/// reduce-send to root).
#[derive(Clone, Debug)]
struct Fan {
    reduce: bool,
    step: usize,
    root: usize,
    tensor: String,
    rect: Rect,
    /// Destinations (broadcast) or sources (reduce), in program order.
    peers: Vec<usize>,
    /// Tags of the replaced point-to-point messages.
    tags: Vec<u64>,
    /// Index into the global op stream of the fan's first send.
    first_idx: usize,
}

/// A lowering unit: a single fan or a merged all-gather family.
enum Plan {
    Single(Fan),
    AllGather {
        step: usize,
        tensor: String,
        /// Members in ring order; `pieces[i]` are the home rects member
        /// `i` contributes.
        members: Vec<usize>,
        pieces: Vec<Vec<Rect>>,
        tags: Vec<u64>,
        first_idx: usize,
    },
}

impl Plan {
    fn first_idx(&self) -> usize {
        match self {
            Plan::Single(f) => f.first_idx,
            Plan::AllGather { first_idx, .. } => *first_idx,
        }
    }
}

/// The grid axis along which `members` form a line, if any.
fn line_axis(grid: &Grid, members: &[usize]) -> Option<usize> {
    let coords: Vec<Point> = members
        .iter()
        .map(|&r| grid.delinearize(r as i64))
        .collect();
    let varying: Vec<usize> = (0..grid.dim())
        .filter(|&d| coords.iter().any(|c| c[d] != coords[0][d]))
        .collect();
    match varying.as_slice() {
        [d] => Some(*d),
        _ => None,
    }
}

/// Orders a fan's members for schedule construction: root first, then
/// peers by torus offset from the root along the line axis (when the
/// group is a grid line), falling back to torus distance then rank id.
/// Line ordering makes ring schedules neighbour-only on the torus.
fn order_members(grid: &Grid, root: usize, peers: &[usize]) -> (Vec<usize>, Option<usize>) {
    let mut members = vec![root];
    members.extend_from_slice(peers);
    let mut sorted_ids = members.clone();
    sorted_ids.sort_unstable();
    let axis = line_axis(grid, &sorted_ids);
    let root_p = grid.delinearize(root as i64);
    let mut rest: Vec<usize> = peers.to_vec();
    rest.sort_by_key(|&r| {
        let p = grid.delinearize(r as i64);
        match axis {
            Some(d) => ((p[d] - root_p[d]).rem_euclid(grid.extent(d)), r),
            None => (crate::lower::torus_distance(grid, &root_p, &p), r),
        }
    });
    rest.dedup();
    let mut ordered = vec![root];
    ordered.extend(rest);
    (ordered, axis)
}

/// Binomial-tree rounds over `g` ordered members: round `r` doubles the
/// informed prefix by sending from position `i` to position `i + 2^r`.
/// Returns `(from_pos, to_pos)` edges per round; depth = number of rounds
/// = `⌈log₂ g⌉`.
fn binomial_rounds(g: usize) -> Vec<Vec<(usize, usize)>> {
    let mut rounds = Vec::new();
    let mut reach = 1;
    while reach < g {
        let mut edges = Vec::new();
        for i in 0..reach {
            if i + reach < g {
                edges.push((i, i + reach));
            }
        }
        rounds.push(edges);
        reach <<= 1;
    }
    rounds
}

/// Ring rounds over `g` ordered members rooted at position 0: a chain
/// `0 → 1 → … → g-1`, one edge per round.
fn chain_rounds(g: usize) -> Vec<Vec<(usize, usize)>> {
    (0..g.saturating_sub(1)).map(|i| vec![(i, i + 1)]).collect()
}

/// Splits a global op stream into sequential-step segments as it is
/// walked (each step ends with one `RetireScratch` per rank; the final
/// gather shares the last segment). Shared with
/// [`crate::program::SpmdProgram::messages_by_step`] so the two can never
/// disagree about step boundaries.
pub(crate) struct Segments {
    ranks: usize,
    segment: usize,
    retires: usize,
}

impl Segments {
    pub(crate) fn new(ranks: usize) -> Self {
        Segments {
            ranks,
            segment: 0,
            retires: 0,
        }
    }

    /// The segment of `op`, the next op of the stream.
    pub(crate) fn of(&mut self, op: &SpmdOp) -> usize {
        let segment = self.segment;
        if matches!(op, SpmdOp::RetireScratch { .. }) {
            self.retires += 1;
            if self.retires == self.ranks {
                self.segment += 1;
                self.retires = 0;
            }
        }
        segment
    }
}

/// Finds all fan candidates in `ops` — a global-order op stream of
/// `program`, whose metadata (output tensor, ownership) decides what may
/// fan — segment by segment.
///
/// Broadcast fans exclude the output tensor (its non-reduce gather
/// messages are per-owner writes, not shared payloads); reduce fans
/// additionally require that no non-root member owns home data
/// intersecting the payload, so that relay ranks of a reduce tree fold
/// into their accumulator rather than corrupting a home piece.
fn find_fans<'a>(
    program: &SpmdProgram,
    ops: impl Iterator<Item = (usize, &'a SpmdOp)>,
) -> Vec<Fan> {
    let out_name = program.assignment.lhs.tensor.as_str();
    let mut segments = Segments::new(program.ranks());
    type Key = (usize, bool, usize, String, Vec<i64>, Vec<i64>);
    let mut by_key: BTreeMap<Key, usize> = BTreeMap::new();
    let mut fans: Vec<Fan> = Vec::new();
    for (idx, (_, op)) in ops.enumerate() {
        let step = segments.of(op);
        let (m, reduce) = match op {
            SpmdOp::Send(m) if m.tensor != out_name => (m, false),
            SpmdOp::ReduceSend(m) => (m, true),
            _ => continue,
        };
        let root = if reduce { m.to } else { m.from };
        let peer = if reduce { m.from } else { m.to };
        let key: Key = (
            step,
            reduce,
            root,
            m.tensor.clone(),
            m.rect.lo().coords().to_vec(),
            m.rect.hi().coords().to_vec(),
        );
        let fan_idx = *by_key.entry(key).or_insert_with(|| {
            fans.push(Fan {
                reduce,
                step,
                root,
                tensor: m.tensor.clone(),
                rect: m.rect.clone(),
                peers: Vec::new(),
                tags: Vec::new(),
                first_idx: idx,
            });
            fans.len() - 1
        });
        fans[fan_idx].peers.push(peer);
        fans[fan_idx].tags.push(m.tag);
    }
    fans.retain(|f| f.peers.len() >= 2);
    fans.retain(|f| {
        !f.reduce
            || f.peers.iter().all(|&p| {
                program.owners[&f.tensor].pieces()[p]
                    .iter()
                    .all(|piece| piece.intersection(&f.rect).is_empty())
            })
    });
    fans
}

/// Merges broadcast fans into all-gathers where possible: within one
/// segment and tensor, a family of broadcasts whose member sets agree
/// and whose roots cover the whole member set is one all-gather.
fn merge_allgathers(fans: Vec<Fan>) -> Vec<Plan> {
    type GroupKey = (usize, String, Vec<usize>);
    let mut groups: BTreeMap<GroupKey, Vec<usize>> = BTreeMap::new();
    for (i, f) in fans.iter().enumerate() {
        if f.reduce {
            continue;
        }
        let mut members: Vec<usize> = f.peers.clone();
        members.push(f.root);
        members.sort_unstable();
        members.dedup();
        groups
            .entry((f.step, f.tensor.clone(), members))
            .or_default()
            .push(i);
    }
    let mut gathered: BTreeSet<usize> = BTreeSet::new();
    let mut plans: Vec<Plan> = Vec::new();
    for ((step, tensor, members), idxs) in groups {
        let roots: BTreeSet<usize> = idxs.iter().map(|&i| fans[i].root).collect();
        let member_set: BTreeSet<usize> = members.iter().copied().collect();
        let complete = roots == member_set
            && idxs.iter().all(|&i| {
                let mut dests: Vec<usize> = fans[i].peers.clone();
                dests.sort_unstable();
                dests.dedup();
                dests.len() == members.len() - 1
            });
        if !complete {
            continue;
        }
        let mut pieces: Vec<Vec<Rect>> = vec![Vec::new(); members.len()];
        let mut tags = Vec::new();
        let mut first_idx = usize::MAX;
        for &i in &idxs {
            let pos = members
                .binary_search(&fans[i].root)
                .expect("root is member");
            pieces[pos].push(fans[i].rect.clone());
            tags.extend_from_slice(&fans[i].tags);
            first_idx = first_idx.min(fans[i].first_idx);
            gathered.insert(i);
        }
        plans.push(Plan::AllGather {
            step,
            tensor,
            members,
            pieces,
            tags,
            first_idx,
        });
    }
    for (i, f) in fans.into_iter().enumerate() {
        if !gathered.contains(&i) {
            plans.push(Plan::Single(f));
        }
    }
    plans.sort_by_key(Plan::first_idx);
    plans
}

/// Recognizes collectives in a lowered program without rewriting it.
///
/// The returned records describe the naive program: `depth` equals
/// `naive_depth` (the serialized fan). The lowering pass inside
/// [`crate::lower_with`] performs the same recognition and then rewrites
/// the message schedule.
pub fn recognize(program: &SpmdProgram) -> Vec<Collective> {
    merge_allgathers(find_fans(program, program.in_order()))
        .into_iter()
        .map(|plan| describe(&program.grid, &plan, None))
        .collect()
}

/// Builds the `Collective` record for a plan; `depth` comes from the
/// lowered schedule when one exists, else from the naive fan.
fn describe(grid: &Grid, plan: &Plan, lowered_depth: Option<usize>) -> Collective {
    match plan {
        Plan::Single(f) => {
            let (members, axis) = order_members(grid, f.root, &f.peers);
            let naive = f.peers.len();
            Collective {
                kind: if f.reduce {
                    CollectiveKind::Reduce
                } else {
                    CollectiveKind::Broadcast
                },
                tensor: f.tensor.clone(),
                rect: f.rect.clone(),
                root: f.root,
                members,
                step: f.step,
                axis,
                naive_depth: naive,
                depth: lowered_depth.unwrap_or(naive),
            }
        }
        Plan::AllGather {
            step,
            tensor,
            members,
            pieces,
            ..
        } => {
            let axis = line_axis(grid, members);
            let ordered = ring_order(grid, members, axis);
            let mut rect = pieces
                .iter()
                .flatten()
                .next()
                .expect("allgather has pieces")
                .clone();
            for r in pieces.iter().flatten() {
                rect = rect.union_bb(r);
            }
            let naive = members.len() - 1;
            Collective {
                kind: CollectiveKind::AllGather,
                tensor: tensor.clone(),
                rect,
                root: ordered[0],
                members: ordered,
                step: *step,
                axis,
                naive_depth: naive,
                depth: lowered_depth.unwrap_or(naive),
            }
        }
    }
}

/// Orders all-gather members around the ring: by coordinate along the
/// line axis when the group is a grid line (so every hop, including the
/// wrap-around, is torus distance 1), else by rank id.
fn ring_order(grid: &Grid, members: &[usize], axis: Option<usize>) -> Vec<usize> {
    let mut ordered = members.to_vec();
    if let Some(d) = axis {
        ordered.sort_by_key(|&r| grid.delinearize(r as i64)[d]);
    }
    ordered
}

/// Recognizes collectives in `stream` — the freshly lowered global
/// `(rank, op)` stream of `program`, not yet filed into it — and rewrites
/// its message schedule according to `config`, recording the lowered
/// collectives on the program. Returns the stream to install; unchanged
/// when `config.enabled` is false or nothing matches.
pub(crate) fn apply(
    program: &mut SpmdProgram,
    stream: Vec<(usize, SpmdOp)>,
    config: &CollectiveConfig,
) -> Vec<(usize, SpmdOp)> {
    if !config.enabled {
        return stream;
    }
    let ops = stream.iter().map(|(rank, op)| (*rank, op));
    let plans = merge_allgathers(find_fans(program, ops));
    if plans.is_empty() {
        return stream;
    }
    let grid = program.grid.clone();
    let mut next_tag = stream
        .iter()
        .filter_map(|(_, op)| op.message().map(|m| m.tag))
        .max()
        .map_or(0, |t| t + 1);

    let mut replaced: BTreeSet<u64> = BTreeSet::new();
    let mut emit_at: BTreeMap<usize, Vec<(usize, SpmdOp)>> = BTreeMap::new();
    let mut records: Vec<Collective> = Vec::new();

    for plan in &plans {
        let mut block: Vec<(usize, SpmdOp)> = Vec::new();
        let mut emit = |from: usize, to: usize, tensor: &str, rect: &Rect, reduce: bool| {
            let msg = Message {
                tag: next_tag,
                from,
                to,
                tensor: tensor.to_string(),
                rect: rect.clone(),
            };
            next_tag += 1;
            if reduce {
                block.push((from, SpmdOp::ReduceSend(msg.clone())));
                block.push((to, SpmdOp::ReduceRecv(msg)));
            } else {
                block.push((from, SpmdOp::Send(msg.clone())));
                block.push((to, SpmdOp::Recv(msg)));
            }
        };
        let depth = match plan {
            Plan::Single(f) => {
                let (members, _) = order_members(&grid, f.root, &f.peers);
                let topology = if f.reduce {
                    config.reduce
                } else {
                    config.broadcast
                };
                let rounds = match topology {
                    Topology::BinomialTree => binomial_rounds(members.len()),
                    Topology::Ring => chain_rounds(members.len()),
                };
                let depth = rounds.len();
                if f.reduce {
                    // Mirror of the broadcast: leaves fold inward first,
                    // the root's inbound edge comes last.
                    for round in rounds.iter().rev() {
                        for &(parent, child) in round {
                            emit(members[child], members[parent], &f.tensor, &f.rect, true);
                        }
                    }
                } else {
                    for round in &rounds {
                        for &(from, to) in round {
                            emit(members[from], members[to], &f.tensor, &f.rect, false);
                        }
                    }
                }
                for t in &f.tags {
                    replaced.insert(*t);
                }
                depth
            }
            Plan::AllGather {
                tensor,
                members,
                pieces,
                tags,
                ..
            } => {
                let axis = line_axis(&grid, members);
                let ordered = ring_order(&grid, members, axis);
                // pieces[] is indexed by sorted-member position; re-index
                // by ring position.
                let piece_of: BTreeMap<usize, &Vec<Rect>> = members
                    .iter()
                    .zip(pieces.iter())
                    .map(|(&m, p)| (m, p))
                    .collect();
                let g = ordered.len();
                for r in 0..g - 1 {
                    for i in 0..g {
                        let origin = ordered[(i + g - r) % g];
                        let from = ordered[i];
                        let to = ordered[(i + 1) % g];
                        for rect in piece_of[&origin] {
                            emit(from, to, tensor, rect, false);
                        }
                    }
                }
                for t in tags {
                    replaced.insert(*t);
                }
                g - 1
            }
        };
        records.push(describe(&grid, plan, Some(depth)));
        emit_at.entry(plan.first_idx()).or_default().extend(block);
    }

    // Rebuild the global stream: collective schedules are spliced in at
    // the position of their first replaced send (all producer computes
    // precede it; consumer receives only move earlier within their
    // step), and the replaced point-to-point messages are dropped.
    let mut rewritten: Vec<(usize, SpmdOp)> = Vec::with_capacity(stream.len());
    for (idx, (rank, op)) in stream.into_iter().enumerate() {
        if let Some(block) = emit_at.remove(&idx) {
            rewritten.extend(block);
        }
        if let Some(m) = op.message() {
            if replaced.contains(&m.tag) {
                continue;
            }
        }
        rewritten.push((rank, op));
    }
    program.collectives = records;
    rewritten
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_rounds_double_reach() {
        assert_eq!(binomial_rounds(1).len(), 0);
        assert_eq!(binomial_rounds(2), vec![vec![(0, 1)]]);
        assert_eq!(binomial_rounds(4), vec![vec![(0, 1)], vec![(0, 2), (1, 3)]]);
        // Non-power-of-two groups truncate the last round.
        assert_eq!(binomial_rounds(5).len(), 3);
        assert_eq!(
            binomial_rounds(5)[2],
            vec![(0, 4)] // positions 1..4 have no +4 partner
        );
        assert_eq!(binomial_rounds(8).len(), 3);
    }

    #[test]
    fn chain_rounds_are_linear() {
        assert_eq!(
            chain_rounds(4),
            vec![vec![(0, 1)], vec![(1, 2)], vec![(2, 3)]]
        );
        assert!(chain_rounds(1).is_empty());
    }

    #[test]
    fn line_axis_detects_rows_and_planes() {
        let g = Grid::grid2(2, 4);
        // Row 1 = ranks 4..8 varies along axis 1.
        assert_eq!(line_axis(&g, &[4, 5, 6, 7]), Some(1));
        // Column 2 = ranks {2, 6} varies along axis 0.
        assert_eq!(line_axis(&g, &[2, 6]), Some(0));
        // The whole grid varies along both.
        assert_eq!(line_axis(&g, &[0, 1, 4, 5]), None);
        assert_eq!(line_axis(&g, &[3]), None); // nothing varies
    }

    #[test]
    fn member_order_follows_torus_offsets() {
        let g = Grid::grid2(4, 4);
        // Root rank 6 = (1, 2); row peers (1,0), (1,1), (1,3) = 4, 5, 7.
        let (members, axis) = order_members(&g, 6, &[4, 5, 7]);
        assert_eq!(axis, Some(1));
        // Offsets along the row from column 2: 7 -> +1, 4 -> +2, 5 -> +3.
        assert_eq!(members, vec![6, 7, 4, 5]);
    }
}
