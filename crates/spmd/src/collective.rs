//! Static collectives for the SPMD backend.
//!
//! The Legion-style backend gets broadcast trees for free from the
//! runtime's dynamic copy analysis (§6). The static backend lowers the
//! same schedules to explicit point-to-point messages — and a SUMMA row
//! broadcast then shows up as one home owner serially fanning the same
//! `(tensor, rect)` payload to every rank of its grid row: an O(p)
//! critical path. This module is the "orthogonal analysis pass for an
//! MPI-based backend" the paper's §8 points at. It runs inside the
//! lowering ([`crate::lower_problem`]), not after it:
//!
//! 1. **Recording.** The lowering records each transfer as it sources
//!    it, and groups a step's transfers into fans by `(root, tensor,
//!    rectangle id)` when the step closes:
//!    * one holder supplying the *same* part of one input tensor to ≥ 2
//!      ranks within one step is a [`CollectiveKind::Broadcast`] (SUMMA
//!      rows/columns, Johnson's replication planes);
//!    * ≥ 2 ranks folding the same output piece into one owner in the
//!      final gather is a [`CollectiveKind::Reduce`] (Johnson's `z`-fold,
//!      inner-product scalar folds);
//!    * a family of broadcasts over one member set in which *every*
//!      member is a root is a [`CollectiveKind::AllGather`].
//! 2. **Emission.** When a step closes, each collective's schedule
//!    takes the place of its first send, as [`CollectiveConfig`] asks:
//!    the naive fan as sourced, or a binomial-tree or ring schedule of
//!    fresh point-to-point messages over the torus. No later pass
//!    re-finds, moves or drops an op ([`recognize`] reads the record).
//!    Every `Send` still has exactly one tag-matched `Recv`, emitted in
//!    dependency order, so both transports
//!    ([`crate::transport::Transport`]) run the result unchanged and
//!    deadlock remains impossible; on the threaded transport the tree
//!    rounds genuinely overlap across subtree threads.
//!
//! Tree and ring expansions move exactly the bytes of the naive fan
//! (each non-root member receives the payload once), so total volume and
//! message counts are invariant; only the *shape* of the schedule — and
//! with it the critical-path depth and the α-β makespan
//! ([`crate::cost`]) — changes: a `g`-member broadcast drops from `g-1`
//! serialized root sends to `⌈log₂ g⌉` rounds.

use crate::ops::{Message, Named, RectId, SpmdOp};
use crate::program::SpmdProgram;
use distal_core::TensorId;
use distal_machine::geom::{Point, Rect};
use distal_machine::grid::Grid;
use std::fmt;
use std::ops::Range;

/// The collective patterns the lowering records.
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

/// How a recorded broadcast or reduction is expanded into
/// point-to-point messages (all-gathers are always rings).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Topology {
    /// Binomial tree: `⌈log₂ g⌉` rounds; in round `r` every member that
    /// already has (or, reducing, still owes) the payload exchanges with
    /// the member `2^r` positions away.
    BinomialTree,
    /// Ring: `g - 1` rounds of neighbour-only traffic along the member
    /// order (optimal distance on a torus line, linear depth).
    Ring,
}

/// Which of the three lowerings collectives get: none (the naive
/// point-to-point program), trees, or rings. All-gathers are rings under
/// either of the last two (bandwidth-optimal and neighbour-only, the
/// standard choice).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CollectiveConfig {
    /// The topology of broadcasts and reductions; `None` leaves the naive
    /// point-to-point program.
    fans: Option<Topology>,
}

impl Default for CollectiveConfig {
    /// [`CollectiveConfig::trees`].
    fn default() -> Self {
        CollectiveConfig::trees()
    }
}

impl CollectiveConfig {
    /// Fans recorded, none expanded: the naive point-to-point program.
    pub fn point_to_point() -> Self {
        CollectiveConfig { fans: None }
    }

    /// Tree broadcasts/reductions, ring all-gathers (the default).
    pub fn trees() -> Self {
        CollectiveConfig {
            fans: Some(Topology::BinomialTree),
        }
    }

    /// Ring schedules for every collective (all traffic neighbour-only
    /// along member lines, at linear depth).
    pub fn rings() -> Self {
        CollectiveConfig {
            fans: Some(Topology::Ring),
        }
    }
}

/// One recorded (and, unless the program is point-to-point, expanded)
/// collective operation.
#[derive(Clone, Debug)]
pub struct Collective {
    /// The pattern.
    pub kind: CollectiveKind,
    /// The tensor moved.
    pub tensor: TensorId,
    /// The payload rectangle (for all-gathers: the bounding box of the
    /// members' pieces).
    pub rect: Rect,
    /// The root rank (fan source for broadcasts, fold target for
    /// reductions, first member for all-gathers).
    pub root: usize,
    /// All participating ranks in schedule order, root first.
    pub members: Vec<usize>,
    /// The sequential step the collective lives in, numbered as
    /// [`SpmdProgram::messages_by_step`] numbers them. A reduce lives in
    /// the final gather: step `S` after a nest's `S ≥ 1` sequential steps,
    /// and step 0, shared with the one step, when the nest has no
    /// sequential loops.
    pub step: usize,
    /// The grid axis the members vary along, when they form a line
    /// (a SUMMA row/column); `None` for planes or irregular groups.
    pub axis: Option<usize>,
    /// Critical-path message depth of the naive serialized fan
    /// (`g - 1` for a `g`-member group).
    pub naive_depth: usize,
    /// Critical-path message depth of the emitted schedule (rounds on
    /// the longest dependent-message chain): `⌈log₂ g⌉` for binomial
    /// trees, `g - 1` for rings, and [`Collective::naive_depth`] for the
    /// naive fan.
    pub depth: usize,
}

// Rendered into the op-stream digests the lowering fingerprint suite
// commits: the text, doubled brackets included, must not change.
impl fmt::Display for Named<'_, Collective> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.item;
        write!(
            f,
            "{} {}[{}] root {} over {:?} (step {}, depth {} vs naive {})",
            c.kind,
            self.program.tensor_name(c.tensor),
            c.rect,
            c.root,
            c.members,
            c.step,
            c.depth,
            c.naive_depth
        )
    }
}

/// A fan of identical payloads recorded within one step: a broadcast
/// candidate (`root` sends to `peers`) or a reduce candidate (`peers`
/// reduce-send to `root`).
struct Fan<'s> {
    reduce: bool,
    root: usize,
    tensor: TensorId,
    rect: RectId,
    /// Destinations (broadcast) or sources (reduce), in emission order.
    peers: &'s [usize],
    /// The positions of the fan's sends in its step, ascending; each
    /// send's receive is emitted right after it.
    sends: &'s [usize],
}

/// The open step's transfers of one `(root, tensor, rectangle)`: the first
/// one's fold flag, `0..count` (then where they lie), and the group opened
/// before with the same rectangle, or `u32::MAX`.
type Group = ((usize, TensorId, RectId), bool, Range<usize>, u32);

/// An emission unit: a single fan or a merged all-gather family.
enum Plan<'s> {
    Single(Fan<'s>),
    AllGather {
        tensor: TensorId,
        /// Members, sorted; `pieces[i]` are the home rects member `i`
        /// contributes.
        members: Vec<usize>,
        pieces: Vec<Vec<RectId>>,
        /// The positions of the family's sends in its step, ascending.
        sends: Vec<usize>,
    },
}

impl Plan<'_> {
    /// The positions of the sends the plan stands for, ascending.
    fn sends(&self) -> &[usize] {
        match self {
            Plan::Single(f) => f.sends,
            Plan::AllGather { sends, .. } => sends,
        }
    }
}

/// The grid axis along which `members` form a line, if any. Member order
/// does not matter.
fn line_axis(points: &[Point], members: &[usize]) -> Option<usize> {
    let first = &points[*members.first()?];
    let varies = |d: &usize| members.iter().any(|&r| points[r][*d] != first[*d]);
    let mut varying = (0..first.dim()).filter(varies);
    match (varying.next(), varying.next()) {
        (Some(d), None) => Some(d),
        _ => None,
    }
}

/// Rounds of `topology` over `g` ordered members: `⌈log₂ g⌉` for a
/// binomial tree, `g - 1` for a ring (a chain rooted at position 0).
fn round_count(topology: Topology, g: usize) -> usize {
    match topology {
        Topology::BinomialTree => g.next_power_of_two().trailing_zeros() as usize,
        Topology::Ring => g.saturating_sub(1),
    }
}

/// The `(from_pos, to_pos)` edges of round `r`. A binomial round doubles
/// the informed prefix by sending from position `i` to `i + 2^r`; a ring
/// round is the one edge `r → r + 1`.
fn round(topology: Topology, g: usize, r: usize) -> impl Iterator<Item = (usize, usize)> {
    let (reach, senders) = match topology {
        Topology::BinomialTree => (1 << r, 0..1 << r),
        Topology::Ring => (1, r..r + 1),
    };
    senders
        .filter(move |i| i + reach < g)
        .map(move |i| (i, i + reach))
}

/// Merges one step's broadcast fans into all-gathers where possible: a
/// family of broadcasts of one tensor whose member sets agree and whose
/// roots cover the whole member set is one all-gather. Drains `fans` and
/// returns the plans in the order of their first sends.
fn merge_allgathers<'s>(fans: &mut Vec<Fan<'s>>) -> Vec<Plan<'s>> {
    // Every broadcast fan's members (peers and root), sorted and distinct.
    let members: Vec<Vec<usize>> = fans
        .iter()
        .map(|f| {
            if f.reduce {
                return Vec::new();
            }
            let mut members = [f.peers, &[f.root]].concat();
            members.sort_unstable();
            members.dedup();
            members
        })
        .collect();
    // Broadcast fans grouped on (tensor, members); the stable sort keeps
    // each group in fan order.
    let key = |i: &usize| (fans[*i].tensor, &members[*i][..]);
    let mut broadcasts: Vec<usize> = (0..fans.len()).filter(|&i| !fans[i].reduce).collect();
    broadcasts.sort_by(|a, b| key(a).cmp(&key(b)));
    let mut gathered = vec![false; fans.len()];
    let mut plans: Vec<Plan> = Vec::new();
    for group in broadcasts.chunk_by(|a, b| key(a) == key(b)) {
        let (tensor, members) = key(&group[0]);
        let mut roots: Vec<usize> = group.iter().map(|&i| fans[i].root).collect();
        roots.sort_unstable();
        roots.dedup();
        // Complete: every member is a root, and every root fans out to
        // all the others (it is not among its own peers).
        let complete = roots == members
            && group
                .iter()
                .all(|&i| !fans[i].peers.contains(&fans[i].root));
        if !complete {
            continue;
        }
        let mut pieces: Vec<Vec<RectId>> = vec![Vec::new(); members.len()];
        let mut sends = Vec::new();
        for &i in group {
            let pos = members
                .binary_search(&fans[i].root)
                .expect("root is member");
            pieces[pos].push(fans[i].rect);
            sends.extend_from_slice(fans[i].sends);
            gathered[i] = true;
        }
        sends.sort_unstable();
        plans.push(Plan::AllGather {
            tensor,
            members: members.to_vec(),
            pieces,
            sends,
        });
    }
    let singles = fans.drain(..).zip(gathered).filter(|(_, g)| !g);
    plans.extend(singles.map(|(f, _)| Plan::Single(f)));
    plans.sort_by_key(|plan| plan.sends()[0]);
    plans
}

/// The collectives the lowering recorded in `program`, in the order of
/// their first sends, described as naive fans (`depth == naive_depth`).
/// Nothing is rescanned.
pub fn recognize(program: &SpmdProgram) -> Vec<Collective> {
    let expanded = program.collectives.iter().map(|c| Collective {
        depth: c.naive_depth,
        ..c.clone()
    });
    program.unexpanded.iter().cloned().chain(expanded).collect()
}

/// Builds the `Collective` record of a plan of sequential step `step`
/// whose members are in schedule order, its rectangles read from `rects`;
/// `depth` comes from the expanded schedule when there is one, else from
/// the naive fan.
fn describe(
    plan: &Plan,
    rects: &[Rect],
    step: usize,
    (members, axis): (Vec<usize>, Option<usize>),
    expanded_depth: Option<usize>,
) -> Collective {
    let (kind, tensor, rect, naive_depth) = match plan {
        Plan::Single(f) => {
            let kind = match f.reduce {
                true => CollectiveKind::Reduce,
                false => CollectiveKind::Broadcast,
            };
            (kind, f.tensor, rects[f.rect.0 as usize], f.peers.len())
        }
        Plan::AllGather { tensor, pieces, .. } => {
            let mut all = pieces.iter().flatten().map(|id| &rects[id.0 as usize]);
            let first = *all.next().expect("allgather has pieces");
            let (kind, rect) = (
                CollectiveKind::AllGather,
                all.fold(first, |bb, r| bb.union_bb(r)),
            );
            (kind, *tensor, rect, members.len() - 1)
        }
    };
    Collective {
        kind,
        tensor,
        rect,
        root: members[0],
        members,
        step,
        axis,
        naive_depth,
        depth: expanded_depth.unwrap_or(naive_depth),
    }
}

/// The lowering's record of fans, the crate's one fan-grouping site. The
/// lowering hands it each transfer as it sources it ([`Fans::record`])
/// and each step as it ends ([`Fans::close`]), which emits the step in
/// its final form.
#[derive(Default)]
pub(crate) struct Fans<'p> {
    /// The expansion of broadcasts and reductions; `None` leaves every
    /// fan as sourced.
    topology: Option<Topology>,
    /// Every rank's point of the grid.
    points: &'p [Point],
    /// The open step's groups and `(group, peer, send position)`s.
    groups: Vec<Group>,
    sent: Vec<(u32, usize, usize)>,
    /// Per rectangle id, the open step's last group of that rectangle.
    by_rect: Vec<u32>,
    /// The closed steps' collectives, in the order of their first sends.
    records: Vec<Collective>,
    /// The provisional tag of the next collective message. Collective
    /// messages are tagged after the lowering's last point-to-point tag,
    /// in emission order; [`Fans::finish`] adds that offset.
    next_tag: u64,
    /// Where each expansion stands in the stream.
    expanded: Vec<Range<usize>>,
    /// Scratch space of [`Fans::order`].
    keys: Vec<(i64, usize)>,
}

impl<'p> Fans<'p> {
    /// An empty record of fans among the ranks at `points`, every rank's
    /// point of the grid; `config` decides how [`Fans::close`] emits them.
    pub(crate) fn new(config: &CollectiveConfig, points: &'p [Point]) -> Self {
        Fans {
            topology: config.fans,
            points,
            ..Fans::default()
        }
    }

    /// The members of `plan` in schedule order and the axis of `grid` they
    /// form a line along: a fan's root, then its peers by torus offset
    /// along the line axis, else by torus distance, then rank id (line
    /// order keeps rings neighbour-only); an all-gather's ring along the
    /// line axis (every hop, the wrap-around too, one hop), else by rank.
    fn order(&mut self, grid: &Grid, plan: &Plan) -> (Vec<usize>, Option<usize>) {
        let (points, keys) = (self.points, &mut self.keys);
        let f = match plan {
            Plan::Single(f) => f,
            Plan::AllGather { members, .. } => {
                let (axis, mut ring) = (line_axis(points, members), members.clone());
                ring.sort_by_key(|&r| axis.map(|d| points[r][d]));
                return (ring, axis);
            }
        };
        let mut ordered = Vec::with_capacity(f.peers.len() + 1);
        ordered.push(f.root);
        ordered.extend_from_slice(f.peers);
        let (axis, root) = (line_axis(points, &ordered), &points[f.root]);
        // Each peer's key is worked out once; repeated peers sort together
        // and go, the root staying first whatever it equals.
        keys.clear();
        keys.extend(f.peers.iter().map(|&r| match axis {
            Some(d) => ((points[r][d] - root[d]).rem_euclid(grid.extent(d)), r),
            None => (grid.torus_distance(root, &points[r]), r),
        }));
        keys.sort_unstable();
        keys.dedup();
        ordered.truncate(1);
        ordered.extend(keys.iter().map(|&(_, r)| r));
        (ordered, axis)
    }

    /// Records `msg`, whose send the lowering is about to emit at position
    /// `at` of the open step: a broadcast candidate rooted at its sender,
    /// or with `reduce` a fold into its receiver.
    pub(crate) fn record(&mut self, at: usize, msg: &Message, reduce: bool) {
        let (from, to) = (msg.from as usize, msg.to as usize);
        let (root, peer) = if reduce { (to, from) } else { (from, to) };
        let (key, rect) = ((root, msg.tensor, msg.rect), msg.rect.0 as usize);
        if rect >= self.by_rect.len() {
            self.by_rect.resize(rect + 1, u32::MAX);
        }
        let mut g = self.by_rect[rect];
        while g != u32::MAX && self.groups[g as usize].0 != key {
            g = self.groups[g as usize].3;
        }
        if g == u32::MAX {
            g = self.groups.len() as u32;
            self.groups.push((key, reduce, 0..0, self.by_rect[rect]));
            self.by_rect[rect] = g;
        }
        self.groups[g as usize].2.end += 1;
        self.sent.push((g, peer, at));
    }

    /// Closes the open step's record: its groups in the order of their
    /// first transfers, each spanning its transfers' `[peers, sends]`.
    fn group(&mut self) -> (Vec<Group>, [Vec<usize>; 2]) {
        // A counting sort of the transfers by group.
        let (mut next, mut total) = (Vec::with_capacity(self.groups.len()), 0);
        for ((_, _, rect), _, span, _) in &mut self.groups {
            self.by_rect[rect.0 as usize] = u32::MAX;
            *span = total..total + span.len();
            next.push(total);
            total = span.end;
        }
        let [mut peers, mut sends] = [vec![0; total], vec![0; total]];
        for &(g, peer, at) in &self.sent {
            let i = &mut next[g as usize];
            (peers[*i], sends[*i]) = (peer, at);
            *i += 1;
        }
        self.sent.clear();
        (std::mem::take(&mut self.groups), [peers, sends])
    }

    /// Closes sequential step `step`, its ops as sourced drained from
    /// `open` onto `stream` in their final form, and records its
    /// collectives: under trees or rings each one's schedule takes the
    /// place of its first send and its point-to-point messages go. `homes`
    /// are the output's home pieces on `grid`, `rects` the rectangle table.
    pub(crate) fn close(
        &mut self,
        grid: &Grid,
        homes: &[Vec<Rect>],
        rects: &[Rect],
        open: &mut Vec<(usize, SpmdOp)>,
        stream: &mut Vec<(usize, SpmdOp)>,
        step: usize,
    ) {
        // Two or more transfers of one `(root, tensor, rectangle)` are a fan.
        let (groups, [peers, sends]) = self.group();
        let fans = groups.into_iter().filter(|(.., span, _)| span.len() > 1);
        let mut fans: Vec<Fan> = fans
            .map(|((root, tensor, rect), reduce, span, _)| Fan {
                reduce,
                root,
                tensor,
                rect,
                peers: &peers[span.clone()],
                sends: &sends[span],
            })
            // A relay rank of a reduce tree folds into its accumulator, so
            // no non-root member may own home data the payload intersects.
            .filter(|f| {
                let rect = &rects[f.rect.0 as usize];
                let home = |&p: &usize| homes[p].iter().all(|piece| !piece.overlaps(rect));
                !f.reduce || f.peers.iter().all(home)
            })
            .collect();
        let plans = merge_allgathers(&mut fans);
        let Some(topology) = self.topology else {
            for plan in &plans {
                let order = self.order(grid, plan);
                self.records.push(describe(plan, rects, step, order, None));
            }
            return stream.append(open);
        };
        if plans.is_empty() {
            return stream.append(open);
        }
        // Each plan's sends and, right after each, its receive go.
        let mut replaced = vec![false; open.len()];
        for &at in plans.iter().flat_map(Plan::sends) {
            (replaced[at], replaced[at + 1]) = (true, true);
        }
        let mut pending = plans.iter().peekable();
        for (i, &entry) in open.iter().enumerate() {
            if let Some(plan) = pending.next_if(|plan| plan.sends()[0] == i) {
                let at = stream.len();
                let order = self.order(grid, plan);
                let depth = expand(plan, &order.0, topology, &mut self.next_tag, stream);
                self.records
                    .push(describe(plan, rects, step, order, Some(depth)));
                self.expanded.push(at..stream.len());
            }
            if !replaced[i] {
                stream.push(entry);
            }
        }
        open.clear();
    }

    /// Tags the expanded collective messages of `stream` from `first_tag`,
    /// one past the last point-to-point tag, on. Returns the records as
    /// `(expanded, unexpanded)`, the latter a point-to-point program's.
    pub(crate) fn finish(
        self,
        stream: &mut [(usize, SpmdOp)],
        first_tag: u64,
    ) -> (Vec<Collective>, Vec<Collective>) {
        for at in self.expanded {
            for (_, op) in &mut stream[at] {
                if let SpmdOp::Send(m)
                | SpmdOp::Recv(m)
                | SpmdOp::ReduceSend(m)
                | SpmdOp::ReduceRecv(m) = op
                {
                    m.tag += first_tag;
                }
            }
        }
        match self.topology {
            Some(_) => (self.records, Vec::new()),
            None => (Vec::new(), self.records),
        }
    }
}

/// Appends `plan`'s point-to-point schedule under `topology` over its
/// ordered `members` to `out`, tagged from `next_tag` on; returns its depth.
fn expand(
    plan: &Plan,
    members: &[usize],
    topology: Topology,
    next_tag: &mut u64,
    out: &mut Vec<(usize, SpmdOp)>,
) -> usize {
    let mut emit = |from: usize, to: usize, tensor: TensorId, rect: RectId, reduce: bool| {
        out.extend(Message::new(*next_tag, from, to, tensor, rect).ops(reduce));
        *next_tag += 1;
    };
    let g = members.len();
    match plan {
        Plan::Single(f) => {
            let depth = round_count(topology, g);
            if f.reduce {
                // Mirror of the broadcast: leaves fold inward first, the
                // root's inbound edge comes last.
                for r in (0..depth).rev() {
                    for (parent, child) in round(topology, g, r) {
                        emit(members[child], members[parent], f.tensor, f.rect, true);
                    }
                }
            } else {
                for r in 0..depth {
                    for (from, to) in round(topology, g, r) {
                        emit(members[from], members[to], f.tensor, f.rect, false);
                    }
                }
            }
            depth
        }
        Plan::AllGather {
            tensor,
            members: sorted,
            pieces,
            ..
        } => {
            // pieces[] is indexed by sorted-member position.
            for r in 0..g - 1 {
                for i in 0..g {
                    let origin = members[(i + g - r) % g];
                    let pos = sorted.binary_search(&origin).expect("origin is member");
                    for &rect in &pieces[pos] {
                        emit(members[i], members[(i + 1) % g], *tensor, rect, false);
                    }
                }
            }
            g - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distal_algs::matmul::MatmulAlgorithm;
    use distal_algs::setup::matmul_problem_on;
    use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
    use proptest::prelude::*;

    fn binomial_rounds(g: usize) -> Vec<Vec<(usize, usize)>> {
        let tree = Topology::BinomialTree;
        (0..round_count(tree, g))
            .map(|r| round(tree, g, r).collect())
            .collect()
    }

    fn chain_rounds(g: usize) -> Vec<Vec<(usize, usize)>> {
        (0..round_count(Topology::Ring, g))
            .map(|r| round(Topology::Ring, g, r).collect())
            .collect()
    }

    /// A fan as the grouping oracle compares it: fold flag, root, tensor,
    /// rectangle, peers, send positions.
    type Grouping = (bool, usize, TensorId, RectId, Vec<usize>, Vec<usize>);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Grouping transfers as they are recorded is the sort it replaced:
        /// sorting `(root, tensor, rectangle, position)` and cutting runs
        /// of one key, runs of two or more are fans — each with its first
        /// transfer's fold flag and its transfers in emission order — in
        /// the order of their first sends. Keys repeat, roots arrive out
        /// of order, and reduces mix with broadcasts.
        #[test]
        fn recording_groups_fans_as_the_sort_did(
            transfers in prop::collection::vec((0usize..6, 0u32..3, 0u32..5, 0usize..6, any::<bool>()), 0..60),
            steps in 1usize..3,
        ) {
            let points: Vec<Point> = Grid::line(6).points().collect();
            let mut fans = Fans::new(&CollectiveConfig::trees(), &points);
            for _ in 0..steps {
                let mut sorted = Vec::new();
                for (i, &(root, tensor, rect, peer, reduce)) in transfers.iter().enumerate() {
                    let (from, to) = if reduce { (peer, root) } else { (root, peer) };
                    let (tensor, rect) = (TensorId(tensor), RectId(rect));
                    fans.record(2 * i, &Message::new(0, from, to, tensor, rect), reduce);
                    sorted.push(((root, tensor, rect), 2 * i, peer, reduce));
                }
                sorted.sort_by_key(|&(key, at, ..)| (key, at));
                let runs = sorted.chunk_by(|a, b| a.0 == b.0).filter(|run| run.len() > 1);
                let mut want: Vec<Grouping> = runs
                    .map(|run| {
                        let ((root, tensor, rect), _, _, reduce) = run[0];
                        let peers = run.iter().map(|t| t.2).collect();
                        (reduce, root, tensor, rect, peers, run.iter().map(|t| t.1).collect())
                    })
                    .collect();
                want.sort_by_key(|fan| fan.5[0]);
                let (groups, [peers, sends]) = fans.group();
                let fans_of = groups.into_iter().filter(|(.., span, _)| span.len() > 1);
                let got: Vec<Grouping> = fans_of
                    .map(|((root, tensor, rect), reduce, span, _)| {
                        let (p, s) = (peers[span.clone()].to_vec(), sends[span].to_vec());
                        (reduce, root, tensor, rect, p, s)
                    })
                    .collect();
                prop_assert_eq!(got, want);
            }
        }
    }

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
        let g: Vec<Point> = Grid::grid2(2, 4).points().collect();
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
        let points: Vec<Point> = g.points().collect();
        let mut fans = Fans::new(&CollectiveConfig::trees(), &points);
        let (peers, sends) = ([4, 5, 7], [0, 2, 4]);
        let (tensor, rect) = (TensorId(0), RectId(0));
        let fan = Fan {
            reduce: false,
            root: 6,
            tensor,
            rect,
            peers: &peers,
            sends: &sends,
        };
        let (members, axis) = fans.order(&g, &Plan::Single(fan));
        assert_eq!(axis, Some(1));
        // Offsets along the row from column 2: 7 -> +1, 4 -> +2, 5 -> +3.
        assert_eq!(members, vec![6, 7, 4, 5]);
    }

    #[test]
    fn the_final_gather_is_its_own_step_after_sequential_loops() {
        // Johnson's nest has no sequential loops, so no `RetireScratch`:
        // its one step and the final gather are both step 0. Solomonik's
        // at p = 64 has one sequential step, which closes with a
        // `RetireScratch` per rank, so the gather is step 1.
        let (p, n) = (64, 16);
        let solomonik = MatmulAlgorithm::all(p)
            .into_iter()
            .find(|alg| matches!(alg, MatmulAlgorithm::Solomonik { .. }))
            .expect("a Figure 9 algorithm");
        for (alg, gather) in [(MatmulAlgorithm::Johnson, 0), (solomonik, 1)] {
            let spec = MachineSpec::small(p as usize);
            let (problem, schedule) =
                matmul_problem_on(alg, spec, ProcKind::Cpu, MemKind::Sys, p, n, 4).unwrap();
            let trees = CollectiveConfig::trees();
            let program = crate::lower_problem(&problem, &schedule, &trees).unwrap();
            let steps = program.messages_by_step();
            assert_eq!(steps.len(), gather + 1, "{}", alg.name());
            // Every output message, and only those, is in the gather.
            let out = program.output();
            assert!(steps[gather].iter().any(|m| m.tensor == out));
            assert!(steps[..gather].iter().flatten().all(|m| m.tensor != out));
            let reduces: Vec<&Collective> = program
                .collectives
                .iter()
                .filter(|c| c.kind == CollectiveKind::Reduce)
                .collect();
            assert!(!reduces.is_empty(), "{}", alg.name());
            assert!(reduces.iter().all(|c| c.step == gather), "{}", alg.name());
        }
    }
}
