//! Pass 2 — deadlock freedom.
//!
//! Sends never block (channels are unbounded), so a rank can only wait on
//! a receive. Execution therefore deadlocks exactly when the cross-rank
//! *happens-before* graph — per-rank program order plus one edge from
//! every send to its matching receive — contains a cycle: each rank in
//! the cycle sits on a receive whose sender sits behind a receive of its
//! own. A well-formed lowering emits a global linearization of this
//! graph, so its existence proves acyclicity; this pass re-proves it from
//! the per-rank programs alone (a Kahn topological sort), without
//! trusting the lowering.

use crate::{Event, VerifyProgram};
use distal_core::{Diagnostic, DiagnosticKind};

/// Checks the happens-before graph for cycles. On a cycle, reports one
/// [`DiagnosticKind::Deadlock`] per blocked rank, naming the tag its
/// earliest stuck receive waits on.
///
/// Tags that failed 1:1 matching contribute no cross edge — their
/// diagnostics come from [`crate::comm`]; this pass still orders the
/// events around them.
pub fn check(program: &VerifyProgram<'_>) -> Vec<Diagnostic> {
    // Node ids: events of rank r start at base[r].
    let mut base = Vec::with_capacity(program.ranks.len());
    let mut total = 0usize;
    for events in &program.ranks {
        base.push(total);
        total += events.len();
    }
    if total == 0 {
        return Vec::new();
    }

    // The graph is almost a disjoint union of chains: within a rank the
    // successor of node `n` is `n + 1` (implicit — no adjacency list
    // needed), and a cleanly 1:1-matched tag adds exactly one cross edge
    // from its send node to its recv node. Both fit flat arrays, keeping
    // this pass allocation-light on the plan path.
    let mut last_in_rank = vec![false; total];
    for (rank, events) in program.ranks.iter().enumerate() {
        if !events.is_empty() {
            last_in_rank[base[rank] + events.len() - 1] = true;
        }
    }

    // tag -> (multiplicity, node) per side; sorted merge finds the 1:1
    // matches (only those add the cross edge).
    let mut send_node: Vec<(u64, usize)> = Vec::new();
    let mut recv_node: Vec<(u64, usize)> = Vec::new();
    for (rank, events) in program.ranks.iter().enumerate() {
        for (i, ev) in events.iter().enumerate() {
            let node = base[rank] + i;
            match ev {
                Event::Send(m) => send_node.push((m.tag, node)),
                Event::Recv(m) => recv_node.push((m.tag, node)),
                _ => {}
            }
        }
    }
    send_node.sort_unstable();
    recv_node.sort_unstable();

    let mut cross = vec![usize::MAX; total]; // send node -> matched recv node
    let mut indeg: Vec<usize> = vec![0; total];
    for (rank, events) in program.ranks.iter().enumerate() {
        for i in 1..events.len() {
            indeg[base[rank] + i] = 1;
        }
    }
    let (mut si, mut ri) = (0usize, 0usize);
    while si < send_node.len() && ri < recv_node.len() {
        let (stag, rtag) = (send_node[si].0, recv_node[ri].0);
        if stag < rtag {
            si += 1;
            continue;
        }
        if rtag < stag {
            ri += 1;
            continue;
        }
        let sn = send_node[si..]
            .iter()
            .take_while(|(t, _)| *t == stag)
            .count();
        let rn = recv_node[ri..]
            .iter()
            .take_while(|(t, _)| *t == rtag)
            .count();
        if sn == 1 && rn == 1 {
            cross[send_node[si].1] = recv_node[ri].1;
            indeg[recv_node[ri].1] += 1;
        }
        si += sn;
        ri += rn;
    }

    // Kahn's algorithm: if every node retires, the graph is acyclic.
    let mut queue: Vec<usize> = (0..total).filter(|&n| indeg[n] == 0).collect();
    let mut retired = 0usize;
    while let Some(n) = queue.pop() {
        retired += 1;
        if !last_in_rank[n] {
            let s = n + 1;
            indeg[s] -= 1;
            if indeg[s] == 0 {
                queue.push(s);
            }
        }
        if cross[n] != usize::MAX {
            let s = cross[n];
            indeg[s] -= 1;
            if indeg[s] == 0 {
                queue.push(s);
            }
        }
    }
    if retired == total {
        return Vec::new();
    }

    // A cycle. Name each blocked rank's earliest unretired receive: that
    // is the op the rank would visibly hang on.
    let mut diags = Vec::new();
    for (rank, events) in program.ranks.iter().enumerate() {
        let stuck = events
            .iter()
            .enumerate()
            .find(|(i, ev)| indeg[base[rank] + i] > 0 && matches!(ev, Event::Recv(_)));
        if let Some((i, Event::Recv(m))) = stuck {
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
                .with_tensor(program.name(m.tensor))
                .with_tag(m.tag),
            );
        }
    }
    if diags.is_empty() {
        // Unreachable in practice (a cycle must pass through a cross
        // edge, whose head is a receive), but never report nothing when
        // the sort failed.
        diags.push(Diagnostic::error(
            DiagnosticKind::Deadlock,
            format!(
                "happens-before graph has a cycle ({} events unordered)",
                total - retired
            ),
        ));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{clean_pair, msg, rect2, B};

    #[test]
    fn clean_pair_is_acyclic() {
        assert!(check(&clean_pair()).is_empty());
    }

    #[test]
    fn crossed_waits_deadlock() {
        // rank 0: recv(t2 from 1); send(t1 to 1)
        // rank 1: recv(t1 from 0); send(t2 to 0)  -> classic 2-cycle.
        let mut p = clean_pair();
        let r = rect2((0, 0), (1, 3));
        p.ranks[0] = vec![Event::Recv(msg(2, 1, B, r)), Event::Send(msg(1, 1, B, r))];
        p.ranks[1] = vec![Event::Recv(msg(1, 0, B, r)), Event::Send(msg(2, 0, B, r))];
        let diags = check(&p);
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
        assert!(crate::comm::check(&p).is_empty());
        assert!(!check(&p).is_empty());
    }
}
