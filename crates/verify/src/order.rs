//! Deadlock freedom.
//!
//! Sends never block (channels are unbounded), so a rank can only wait on
//! a receive. Execution therefore deadlocks exactly when the cross-rank
//! *happens-before* graph — per-rank program order plus one edge from
//! every send to its matching receive — contains a cycle: each rank in
//! the cycle sits on a receive whose sender sits behind a receive of its
//! own. A well-formed lowering emits a global linearization of this
//! graph, so its existence proves acyclicity; this check re-proves it
//! from the per-rank programs alone (a topological sort), without
//! trusting the lowering.

use crate::comm::Tags;
use crate::{name, Event, Events};
use distal_core::{Diagnostic, DiagnosticKind};

/// A tag's state in the sort: its send not yet run, and no rank waiting.
const IDLE: u32 = 0;
/// A tag's state in the sort: its send has run.
const SENT: u32 = u32::MAX - 1;
/// A tag's state in the sort: not 1:1 matched, so it orders nothing.
const FREE: u32 = u32::MAX;

/// Checks the happens-before graph for cycles. On a cycle, reports one
/// [`DiagnosticKind::Deadlock`] per blocked rank, naming the tag its
/// earliest stuck receive waits on.
///
/// The sort runs every rank forward over its endpoints in `tags`, in
/// program order, as far as it can: a receive of a matched tag waits for
/// that tag's send, and the send wakes it. Every other event has only its
/// predecessor in the rank to wait for, so the sort never reads it. The
/// graph is acyclic exactly when every rank runs to its end.
///
/// Tags that failed 1:1 matching contribute no cross edge — their
/// diagnostics come from [`crate::comm`]; this check still orders the
/// events around them.
pub(crate) fn check<P: Events + ?Sized>(program: &P, tags: &Tags) -> Vec<Diagnostic> {
    let ranks = program.ranks();
    // Per slot: FREE, IDLE, SENT, or the rank waiting for the send, plus
    // one.
    let mut state: Vec<u32> = tags
        .pairs()
        .iter()
        .map(|pair| if pair.matched() { IDLE } else { FREE })
        .collect();
    // Per rank, how many of its endpoints have run.
    let mut done = vec![0usize; ranks];
    let mut ready: Vec<usize> = (0..ranks).rev().collect();
    while let Some(rank) = ready.pop() {
        for (slot, send) in tags.endpoints(rank, done[rank]) {
            let s = &mut state[slot as usize];
            match *s {
                FREE => {}
                _ if send => {
                    if *s != IDLE {
                        ready.push(*s as usize - 1);
                    }
                    *s = SENT;
                }
                SENT => {}
                _ => {
                    *s = rank as u32 + 1;
                    break;
                }
            }
            done[rank] += 1;
        }
    }

    // A cycle blocks each rank on it at a receive: the op the rank would
    // visibly hang on.
    let mut diags = Vec::new();
    for (rank, &done) in done.iter().enumerate() {
        let Some((slot, _)) = tags.endpoints(rank, done).next() else {
            continue;
        };
        let at = tags.pairs()[slot as usize].recv;
        let (i, Event::Recv(m)) = (at.index, program.event(rank, at.index as usize)) else {
            unreachable!("a rank blocks only at a receive");
        };
        diags.push(
            Diagnostic::error(
                DiagnosticKind::Deadlock,
                format!(
                    "cyclic wait: rank {rank} blocks at op {i} on tag {} from rank {}, \
                     which transitively waits on rank {rank}",
                    m.tag, m.peer
                ),
            )
            .with_rank(rank)
            .with_tensor(name(program, m.tensor))
            .with_tag(m.tag),
        );
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{clean_pair, msg, rect2, B};
    use crate::{walk, Event};

    #[test]
    fn clean_pair_is_acyclic() {
        assert!(walk(&clean_pair()).order.is_empty());
    }

    #[test]
    fn crossed_waits_deadlock() {
        // rank 0: recv(t2 from 1); send(t1 to 1)
        // rank 1: recv(t1 from 0); send(t2 to 0)  -> classic 2-cycle.
        let mut p = clean_pair();
        let r = rect2((0, 0), (1, 3));
        p.ranks[0] = vec![Event::Recv(msg(2, 1, B, r)), Event::Send(msg(1, 1, B, r))];
        p.ranks[1] = vec![Event::Recv(msg(1, 0, B, r)), Event::Send(msg(2, 0, B, r))];
        let diags = walk(&p).order;
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.kind == DiagnosticKind::Deadlock));
        assert_eq!(diags[0].rank, Some(0));
        assert_eq!(diags[0].tag, Some(2));
        assert_eq!(diags[1].rank, Some(1));
        assert_eq!(diags[1].tag, Some(1));
    }

    #[test]
    fn recv_before_its_own_send_on_one_rank_deadlocks() {
        // A self-inflicted cycle through program order: the rank waits
        // for a tag it would itself send two ops later.
        let mut p = clean_pair();
        let r = rect2((0, 0), (1, 3));
        p.ranks[0] = vec![Event::Recv(msg(9, 1, B, r)), Event::Send(msg(1, 1, B, r))];
        p.ranks[1] = vec![Event::Recv(msg(1, 0, B, r)), Event::Send(msg(9, 0, B, r))];
        // This *is* the crossed wait again seen from the tag's side;
        // sanity-check that matching alone would pass it.
        assert!(walk(&p).comm.is_empty());
        assert!(!walk(&p).order.is_empty());
    }
}
