//! Shape and bounds legality.
//!
//! The cheapest errors to catch are the geometric ones: a message or task
//! rectangle escaping its tensor's extents, a peer outside the launch
//! domain, a tensor nobody declared. This check also proves *byte
//! conservation*: for every tensor, the bytes injected by sends equal the
//! bytes consumed by receives. Collective re-lowerings (tree/ring) are
//! allowed to add relay hops, but each hop is itself a matched pair, so
//! conservation holds per tensor across all three lowerings — an
//! imbalance means a re-lowering forged or swallowed a payload.

use crate::{entry, name, Access, Events, Msg};
use distal_core::{Diagnostic, DiagnosticKind, TensorId};
use distal_machine::geom::Rect;

/// Peers against the launch domain, rectangles against tensor extents,
/// and per-tensor byte conservation, fed event by event by the walk.
pub(crate) struct Bounds {
    /// Per tensor id, the tensor's extent.
    extents: Vec<Rect>,
    /// Sent and received bytes per tensor id.
    flow: Vec<(u64, u64)>,
    /// Findings in walk order.
    diags: Vec<Diagnostic>,
}

impl Bounds {
    pub(crate) fn new<P: Events + ?Sized>(program: &P) -> Self {
        let tensors = (0..program.tensor_count() as u32).map(TensorId);
        Bounds {
            extents: tensors
                .filter_map(|id| program.tensor(id))
                .map(|(_, r)| r)
                .collect(),
            flow: vec![(0, 0); program.tensor_count()],
            diags: Vec::new(),
        }
    }

    /// A send (`send`) or receive of `m` on `rank`.
    pub(crate) fn message<P: Events + ?Sized>(
        &mut self,
        program: &P,
        rank: usize,
        m: &Msg,
        send: bool,
    ) {
        let dir = if send { "send" } else { "receive" };
        if m.peer >= program.ranks() {
            self.diags.push(
                Diagnostic::error(
                    DiagnosticKind::OutOfBounds,
                    format!(
                        "{dir} on rank {rank} names peer rank {} but the launch \
                         domain has {} ranks",
                        m.peer,
                        program.ranks()
                    ),
                )
                .with_rank(rank)
                .with_tensor(name(program, m.tensor))
                .with_tag(m.tag),
            );
        }
        self.check_rect(program, rank, m.tensor, &m.rect, dir, Some(m.tag));
        let f = entry(&mut self.flow, m.tensor);
        if send {
            f.0 += m.bytes;
        } else {
            f.1 += m.bytes;
        }
    }

    /// One access of a task on `rank`.
    pub(crate) fn access<P: Events + ?Sized>(&mut self, program: &P, rank: usize, a: &Access) {
        if a.rect.is_empty() {
            return; // clamped-away leaf: legal, touches nothing
        }
        let what = if a.write { "task write" } else { "task read" };
        self.check_rect(program, rank, a.tensor, &a.rect, what, None);
    }

    /// One rectangle against its tensor's extent; `tag` is the
    /// message's, for a message's rectangle.
    fn check_rect<P: Events + ?Sized>(
        &mut self,
        program: &P,
        rank: usize,
        id: TensorId,
        rect: &Rect,
        what: &str,
        tag: Option<u64>,
    ) {
        let tensor = || name(program, id);
        let (kind, message) = match self.extents.get(id.index()) {
            None => (
                DiagnosticKind::Malformed,
                format!(
                    "{what} on rank {rank} touches undeclared tensor '{}'",
                    tensor()
                ),
            ),
            Some(extent) if rect.dim() != extent.dim() => (
                DiagnosticKind::Malformed,
                format!(
                    "{what} on rank {rank} uses a {}-d rectangle on {}-d tensor '{}'",
                    rect.dim(),
                    extent.dim(),
                    tensor()
                ),
            ),
            Some(extent) if !extent.contains_rect(rect) => (
                DiagnosticKind::OutOfBounds,
                format!(
                    "{what} on rank {rank} touches {}{rect} outside the tensor's \
                     extent {extent}",
                    tensor()
                ),
            ),
            Some(_) => return,
        };
        let d = Diagnostic::error(kind, message)
            .with_rank(rank)
            .with_tensor(tensor());
        self.diags.push(match tag {
            Some(t) => d.with_tag(t),
            None => d,
        });
    }

    /// The findings: the walk's, then one per tensor whose bytes do not
    /// balance.
    pub(crate) fn finish<P: Events + ?Sized>(self, program: &P) -> Vec<Diagnostic> {
        let mut diags = self.diags;
        for (t, (sent, recvd)) in self.flow.into_iter().enumerate() {
            if sent != recvd {
                let tensor = name(program, TensorId(t as u32));
                diags.push(
                    Diagnostic::error(
                        DiagnosticKind::ByteImbalance,
                        format!(
                            "tensor '{tensor}' sends {sent} bytes but receives {recvd}; \
                             a re-lowering forged or swallowed a payload"
                        ),
                    )
                    .with_tensor(tensor),
                );
            }
        }
        diags
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{clean_pair, msg, rect2, Z};
    use crate::{walk, Event};

    #[test]
    fn clean_pair_is_in_bounds() {
        assert!(walk(&clean_pair()).bounds.is_empty());
    }

    #[test]
    fn rect_past_the_extent_is_out_of_bounds() {
        let mut p = clean_pair();
        // Skew both endpoints so matching stays clean; bounds still trips.
        for events in &mut p.ranks {
            for ev in events {
                if let Event::Send(m) | Event::Recv(m) = ev {
                    m.rect = rect2((3, 0), (4, 3));
                }
            }
        }
        let diags = walk(&p).bounds;
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|d| d.kind == DiagnosticKind::OutOfBounds));
        assert_eq!(diags[0].tensor.as_deref(), Some("B"));
        assert_eq!(diags[0].tag, Some(1));
    }

    #[test]
    fn peer_outside_the_launch_domain_flagged() {
        let mut p = clean_pair();
        if let Event::Send(m) = &mut p.ranks[0][0] {
            m.peer = 7;
        }
        let diags = walk(&p).bounds;
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].kind, DiagnosticKind::OutOfBounds);
        assert!(diags[0].message.contains("launch domain"), "{}", diags[0]);
    }

    #[test]
    fn undeclared_tensor_is_malformed() {
        let mut p = clean_pair();
        p.ranks[0].push(Event::Send(msg(9, 1, Z, rect2((0, 0), (0, 0)))));
        p.ranks[1].push(Event::Recv(msg(9, 0, Z, rect2((0, 0), (0, 0)))));
        let diags = walk(&p).bounds;
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.kind == DiagnosticKind::Malformed));
    }

    #[test]
    fn unbalanced_bytes_flagged() {
        let mut p = clean_pair();
        if let Event::Send(m) = &mut p.ranks[0][0] {
            m.bytes += 8; // lies about the payload size on one side only
        }
        let diags = walk(&p).bounds;
        assert!(diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::ByteImbalance && d.tensor.as_deref() == Some("B")));
    }
}
