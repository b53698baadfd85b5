//! Pass 0 — shape and bounds legality.
//!
//! The cheapest errors to catch are the geometric ones: a message or task
//! rectangle escaping its tensor's extents, a peer outside the launch
//! domain, a tensor nobody declared. This pass also proves *byte
//! conservation*: for every tensor, the bytes injected by sends equal the
//! bytes consumed by receives. Collective re-lowerings (tree/ring) are
//! allowed to add relay hops, but each hop is itself a matched pair, so
//! conservation holds per tensor across all three lowerings — an
//! imbalance means a re-lowering forged or swallowed a payload.

use crate::{entry, Event, Msg, VerifyProgram};
use distal_core::{Diagnostic, DiagnosticKind, TensorId};

/// Checks peers against the launch domain, rectangles against tensor
/// extents, and per-tensor byte conservation.
pub fn check(program: &VerifyProgram<'_>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // sent/received bytes per tensor id.
    let mut flow: Vec<(u64, u64)> = vec![(0, 0); program.tensors.len()];

    for (rank, events) in program.ranks.iter().enumerate() {
        for ev in events {
            match ev {
                Event::Send(m) | Event::Recv(m) => {
                    let dir = if matches!(ev, Event::Send(_)) {
                        "send"
                    } else {
                        "receive"
                    };
                    if m.peer >= program.ranks.len() {
                        diags.push(
                            Diagnostic::error(
                                DiagnosticKind::OutOfBounds,
                                format!(
                                    "{dir} on rank {rank} names peer rank {} but the launch \
                                     domain has {} ranks",
                                    m.peer,
                                    program.ranks.len()
                                ),
                            )
                            .with_rank(rank)
                            .with_tensor(program.name(m.tensor))
                            .with_tag(m.tag),
                        );
                    }
                    diags.extend(check_rect(program, rank, m.tensor, &m.rect, dir, Some(m)));
                    let f = entry(&mut flow, m.tensor);
                    match ev {
                        Event::Send(_) => f.0 += m.bytes,
                        _ => f.1 += m.bytes,
                    }
                }
                Event::Task { accesses } => {
                    for a in accesses {
                        if a.rect.is_empty() {
                            continue; // clamped-away leaf: legal, touches nothing
                        }
                        let what = if a.write { "task write" } else { "task read" };
                        diags.extend(check_rect(program, rank, a.tensor, &a.rect, what, None));
                    }
                }
                Event::Fence => {}
            }
        }
    }

    for (t, (sent, recvd)) in flow.into_iter().enumerate() {
        if sent != recvd {
            let tensor = program.name(TensorId(t as u32));
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

/// One rectangle against its tensor's declared extents.
fn check_rect(
    program: &VerifyProgram<'_>,
    rank: usize,
    id: TensorId,
    rect: &distal_machine::geom::Rect,
    what: &str,
    msg: Option<&Msg>,
) -> Vec<Diagnostic> {
    let tag = msg.map(|m| m.tag);
    let tensor = program.name(id);
    let attach = |d: Diagnostic| {
        let d = d.with_rank(rank).with_tensor(tensor.as_ref());
        match tag {
            Some(t) => d.with_tag(t),
            None => d,
        }
    };
    let Some((_, extent)) = program.tensors.get(id.index()) else {
        return vec![attach(Diagnostic::error(
            DiagnosticKind::Malformed,
            format!("{what} on rank {rank} touches undeclared tensor '{tensor}'"),
        ))];
    };
    if rect.dim() != extent.dim() {
        return vec![attach(Diagnostic::error(
            DiagnosticKind::Malformed,
            format!(
                "{what} on rank {rank} uses a {}-d rectangle on {}-d tensor '{tensor}'",
                rect.dim(),
                extent.dim()
            ),
        ))];
    }
    if !extent.contains_rect(rect) {
        return vec![attach(Diagnostic::error(
            DiagnosticKind::OutOfBounds,
            format!(
                "{what} on rank {rank} touches {tensor}{rect} outside the tensor's \
                 extent {extent}"
            ),
        ))];
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{clean_pair, msg, rect2, Z};

    #[test]
    fn clean_pair_is_in_bounds() {
        assert!(check(&clean_pair()).is_empty());
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
        let diags = check(&p);
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
        let diags = check(&p);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].kind, DiagnosticKind::OutOfBounds);
        assert!(diags[0].message.contains("launch domain"), "{}", diags[0]);
    }

    #[test]
    fn undeclared_tensor_is_malformed() {
        let mut p = clean_pair();
        p.ranks[0].push(Event::Send(msg(9, 1, Z, rect2((0, 0), (0, 0)))));
        p.ranks[1].push(Event::Recv(msg(9, 0, Z, rect2((0, 0), (0, 0)))));
        let diags = check(&p);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.kind == DiagnosticKind::Malformed));
    }

    #[test]
    fn unbalanced_bytes_flagged() {
        let mut p = clean_pair();
        if let Event::Send(m) = &mut p.ranks[0][0] {
            m.bytes += 8; // lies about the payload size on one side only
        }
        let diags = check(&p);
        assert!(diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::ByteImbalance && d.tensor.as_deref() == Some("B")));
    }
}
