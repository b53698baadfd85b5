//! Buffer-hazard detection.
//!
//! Ranks share no memory, so the hazards here are *semantic* races over
//! the logical tensor state, the exact conditions under which the
//! threaded transport's "any interleaving is bit-identical" argument
//! breaks down:
//!
//! * **Cross-rank write-write** — two ranks' leaf tasks write overlapping
//!   rectangles of the same tensor in a program without reduction
//!   semantics. The final gather *folds* contributions, so overlapping
//!   writes double-count: silent numeric corruption, no crash.
//! * **Unordered landings** — two non-fold receives land overlapping
//!   rectangles of one tensor within the same scratch generation (between
//!   fences). Lookups then depend on stash/arrival order, which the
//!   threaded transport does not fix.
//! * **Landing shadowing a read** (warning) — a payload lands over a
//!   rectangle a task already read in the same generation; legal under
//!   per-rank program order, but a refactoring hazard worth surfacing.

use crate::{entry, name, Access, Events, Msg};
use distal_core::{Diagnostic, DiagnosticKind, TensorId};
use distal_machine::geom::Rect;
use std::collections::BTreeSet;

/// Write-write and unordered read-write overlaps, fed event by event by
/// the walk. See the module docs for the three conditions.
pub(crate) struct Hazards {
    /// True when distributed loops reduce: overlapping output writes are
    /// then the algorithm, not a hazard, and none are kept.
    reduces: bool,
    /// Per tensor id, every task-write rectangle as `(rank, rect)`. A rank
    /// re-writing the identical rectangle across steps (the common
    /// steady-state shape — SUMMA accumulates into one output tile every
    /// step) is kept once.
    writes: Vec<Vec<(usize, Rect)>>,
    /// Per tensor id, the current rank's landings of the current scratch
    /// generation, with their tags: emptied, not dropped, at every rank
    /// and fence.
    landed: Vec<Vec<(u64, Rect)>>,
    /// Per tensor id, the current generation's task reads.
    read: Vec<Vec<Rect>>,
    /// Landing findings, in walk order.
    landings: Vec<Diagnostic>,
}

impl Hazards {
    pub(crate) fn new<P: Events + ?Sized>(program: &P) -> Self {
        let tensors = program.tensor_count();
        Hazards {
            reduces: program.reduces(),
            writes: vec![Vec::new(); tensors],
            landed: vec![Vec::new(); tensors],
            read: vec![Vec::new(); tensors],
            landings: Vec::new(),
        }
    }

    /// A rank's start or a scratch fence: the landings and reads before it
    /// are retired.
    pub(crate) fn fence(&mut self) {
        self.landed.iter_mut().for_each(Vec::clear);
        self.read.iter_mut().for_each(Vec::clear);
    }

    /// A receive of `m` on `rank`: a landing unless it folds.
    pub(crate) fn land<P: Events + ?Sized>(&mut self, program: &P, rank: usize, m: &Msg) {
        if m.fold {
            return;
        }
        let (rect, tag) = (&m.rect, m.tag);
        let t = m.tensor.index();
        let mut landings = self.landed.get(t).into_iter().flatten();
        if let Some((prev_tag, prev)) = landings.find(|(_, r)| meets(r, rect)) {
            let tensor = name(program, m.tensor);
            self.landings.push(
                Diagnostic::error(
                    DiagnosticKind::WriteHazard,
                    format!(
                        "rank {rank} receives {tensor}{rect} (tag {tag}) overlapping \
                         the {prev} landed by tag {prev_tag} in the same scratch \
                         generation; lookups become arrival-order dependent"
                    ),
                )
                .with_rank(rank)
                .with_tensor(tensor.as_ref())
                .with_tag(tag),
            );
        }
        let mut reads = self.read.get(t).into_iter().flatten();
        if let Some(shadowed) = reads.find(|r| meets(r, rect)) {
            let tensor = name(program, m.tensor);
            self.landings.push(
                Diagnostic::warning(
                    DiagnosticKind::ReadHazard,
                    format!(
                        "rank {rank} receives {tensor}{rect} (tag {tag}) over the \
                         {shadowed} a task already read this generation; later \
                         reads see different data"
                    ),
                )
                .with_rank(rank)
                .with_tensor(tensor)
                .with_tag(tag),
            );
        }
        entry(&mut self.landed, m.tensor).push((tag, *rect));
    }

    /// One access of a task on `rank`.
    pub(crate) fn access(&mut self, rank: usize, a: &Access) {
        if a.rect.volume() <= 0 {
            return;
        }
        if !a.write {
            entry(&mut self.read, a.tensor).push(a.rect);
        } else if !self.reduces {
            let rects = entry(&mut self.writes, a.tensor);
            let dup = rects
                .iter()
                .rev()
                .take_while(|(r, _)| *r == rank)
                .any(|(_, rect)| *rect == a.rect);
            if !dup {
                rects.push((rank, a.rect));
            }
        }
    }

    /// The findings: the cross-rank write overlaps, then the landings'.
    pub(crate) fn finish<P: Events + ?Sized>(self, program: &P) -> Vec<Diagnostic> {
        let mut diags = cross_rank_writes(program, self.writes);
        diags.extend(self.landings);
        diags
    }
}

/// True when `a` and `b` share a point. Rectangles of different
/// dimensionality never do: [`crate::bounds`] reports the one that does
/// not fit its tensor as malformed.
pub(crate) fn meets(a: &Rect, b: &Rect) -> bool {
    a.dim() == b.dim() && a.overlaps(b)
}

/// Write-write: overlapping task writes on different ranks, given per
/// tensor id (none when the program reduces: distributed reductions fold
/// every contribution). One diagnostic per (rank pair, tensor), on the
/// first overlap found.
///
/// Runs as a plane sweep along dimension 0 per tensor: rectangles are
/// sorted by their low coordinate and each is compared only against
/// later ones whose dim-0 interval still reaches it. A clean tiling
/// (the overwhelmingly common case on the plan path) costs
/// `O(R log R + neighbours)` per tensor instead of the naive
/// `O(p² · R²)` pairwise scan.
fn cross_rank_writes<P: Events + ?Sized>(
    program: &P,
    writes: Vec<Vec<(usize, Rect)>>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut reported: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (t, mut rects) in writes.into_iter().enumerate() {
        reported.clear();
        rects.sort_by_key(|(_, r)| r.lo()[0]);
        for i in 0..rects.len() {
            let (rank_a, ra) = &rects[i];
            for (rank_b, rb) in &rects[i + 1..] {
                if rb.lo()[0] > ra.hi()[0] {
                    break;
                }
                if rank_a == rank_b || !meets(ra, rb) {
                    continue;
                }
                let (a, b) = (*rank_a.min(rank_b), *rank_a.max(rank_b));
                if !reported.insert((a, b)) {
                    continue;
                }
                let tensor = name(program, TensorId(t as u32));
                diags.push(
                    Diagnostic::error(
                        DiagnosticKind::WriteHazard,
                        format!(
                            "ranks {a} and {b} both write {tensor}{} (rank {rank_a} writes \
                             {ra}, rank {rank_b} writes {rb}) without reduction semantics; \
                             the fold double-counts",
                            ra.intersection(rb)
                        ),
                    )
                    .with_rank(a)
                    .with_tensor(tensor),
                );
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{clean_pair, msg, rect2, A, B};
    use crate::Access;
    use crate::{walk, Event};

    #[test]
    fn clean_pair_has_no_hazards() {
        assert!(walk(&clean_pair()).hazard.is_empty());
    }

    #[test]
    fn aliased_output_is_a_write_hazard() {
        let mut p = clean_pair();
        // Make rank 1 write rank 0's output rectangle too.
        for ev in &mut p.ranks[1] {
            if let Event::Task { accesses } = ev {
                for a in accesses.iter_mut().filter(|a| a.write) {
                    a.rect = rect2((0, 0), (3, 3));
                }
            }
        }
        let diags = walk(&p).hazard;
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].kind, DiagnosticKind::WriteHazard);
        assert_eq!(diags[0].tensor.as_deref(), Some("A"));

        // The same overlap under reduction semantics is the algorithm.
        p.reduces = true;
        assert!(walk(&p).hazard.is_empty());
    }

    #[test]
    fn overlapping_landings_in_one_generation_flagged() {
        let mut p = clean_pair();
        let extra = Event::Recv(msg(7, 0, B, rect2((1, 0), (2, 3))));
        p.ranks[1].insert(1, extra);
        let diags = walk(&p).hazard;
        assert!(
            diags
                .iter()
                .any(|d| d.kind == DiagnosticKind::WriteHazard && d.rank == Some(1)),
            "{diags:?}"
        );
        // A fence between the two landings retires the first: no hazard.
        let mut fenced = clean_pair();
        fenced.ranks[1].insert(1, Event::Recv(msg(7, 0, B, rect2((1, 0), (2, 3)))));
        fenced.ranks[1].insert(1, Event::Fence);
        assert!(walk(&fenced)
            .hazard
            .iter()
            .all(|d| d.kind != DiagnosticKind::WriteHazard));
    }

    #[test]
    fn landing_over_a_prior_read_warns() {
        let mut p = clean_pair();
        // Rank 1: task reads B, then a payload lands over the same rect.
        p.ranks[1] = vec![
            Event::Recv(msg(1, 0, B, rect2((0, 0), (1, 3)))),
            Event::Task {
                accesses: vec![Access {
                    tensor: B,
                    rect: rect2((0, 0), (1, 3)),
                    write: false,
                }],
            },
            Event::Recv(msg(8, 0, B, rect2((0, 0), (1, 3)))),
            Event::Fence,
        ];
        let diags = walk(&p).hazard;
        // Tag 8 overlaps both the earlier landing (error) and the read
        // (warning).
        assert!(diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::ReadHazard && !d.is_error() && d.tag == Some(8)));
    }

    #[test]
    fn fold_receives_may_overlap() {
        let mut p = clean_pair();
        let mut m1 = msg(7, 0, A, rect2((0, 0), (1, 3)));
        let mut m2 = msg(8, 0, A, rect2((0, 0), (1, 3)));
        m1.fold = true;
        m2.fold = true;
        p.ranks[1].push(Event::Recv(m1));
        p.ranks[1].push(Event::Recv(m2));
        assert!(walk(&p).hazard.is_empty());
    }
}
