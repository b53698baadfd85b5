//! The four passes as they stood before the one walk, each walking the
//! program on its own: the oracle the walk's property test holds
//! [`crate::verify`] to, diagnostic for diagnostic. One change: the
//! hazard pass compares rectangles through [`crate::hazard::meets`], so a
//! rectangle of the wrong dimensionality is a finding of the bounds pass,
//! not a panic.

use crate::{entry, name, Event, Msg, VerifyProgram};
use distal_core::{Diagnostic, DiagnosticKind, TensorId};

/// The four passes composed: shape legality, communication matching,
/// deadlock freedom, buffer hazards.
pub(crate) fn verify(program: &VerifyProgram<'_>) -> Vec<Diagnostic> {
    let mut diags = bounds::check(program);
    diags.extend(comm::check(program));
    diags.extend(order::check(program));
    diags.extend(hazard::check(program));
    diags
}

mod bounds {
    use super::*;

    /// Checks peers against the launch domain, rectangles against tensor
    /// extents, and per-tensor byte conservation.
    pub(super) fn check(program: &VerifyProgram<'_>) -> Vec<Diagnostic> {
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
                                .with_tensor(name(program, m.tensor))
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
        let tensor = name(program, id);
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
}

mod comm {
    use super::*;

    /// One communication endpoint: where in the program a message is sent or
    /// received.
    struct Endpoint<'p> {
        rank: usize,
        msg: &'p Msg,
    }

    /// Checks that every tag names exactly one send and one receive, and
    /// that the pair agrees on every field of the transfer's identity.
    ///
    /// Runs as a merge walk over two tag-sorted endpoint vectors rather than
    /// per-tag maps: this pass sits on the plan path of every `Backend::plan`
    /// call, so it stays allocation-light.
    pub(super) fn check(program: &VerifyProgram<'_>) -> Vec<Diagnostic> {
        let mut sends: Vec<Endpoint<'_>> = Vec::new();
        let mut recvs: Vec<Endpoint<'_>> = Vec::new();
        for (rank, events) in program.ranks.iter().enumerate() {
            for ev in events {
                match ev {
                    Event::Send(m) => sends.push(Endpoint { rank, msg: m }),
                    Event::Recv(m) => recvs.push(Endpoint { rank, msg: m }),
                    _ => {}
                }
            }
        }
        sends.sort_by_key(|e| e.msg.tag);
        recvs.sort_by_key(|e| e.msg.tag);

        // Advances past the group of endpoints sharing the front tag.
        fn take_group<'a, 'p>(v: &'a [Endpoint<'p>], tag: u64) -> (&'a [Endpoint<'p>], usize) {
            let len = v.iter().take_while(|e| e.msg.tag == tag).count();
            (&v[..len], len)
        }

        let mut diags = Vec::new();
        let (mut si, mut ri) = (0usize, 0usize);
        while si < sends.len() || ri < recvs.len() {
            let tag = match (sends.get(si), recvs.get(ri)) {
                (Some(s), Some(r)) => s.msg.tag.min(r.msg.tag),
                (Some(s), None) => s.msg.tag,
                (None, Some(r)) => r.msg.tag,
                (None, None) => break,
            };
            let (s, sn) = if sends.get(si).is_some_and(|e| e.msg.tag == tag) {
                take_group(&sends[si..], tag)
            } else {
                (&[][..], 0)
            };
            let (r, rn) = if recvs.get(ri).is_some_and(|e| e.msg.tag == tag) {
                take_group(&recvs[ri..], tag)
            } else {
                (&[][..], 0)
            };
            si += sn;
            ri += rn;
            match (s.len(), r.len()) {
                (0, _) => {
                    // The watchdog case, caught statically: the receiver
                    // blocks forever on a payload nobody injects.
                    let e = &r[0];
                    let tensor = name(program, e.msg.tensor);
                    diags.push(
                        Diagnostic::error(
                            DiagnosticKind::LostMessage,
                            format!(
                                "receive of {tensor}{} on rank {} (from rank {}) has no matching \
                                 send; the receiver blocks forever",
                                e.msg.rect, e.rank, e.msg.peer
                            ),
                        )
                        .with_rank(e.rank)
                        .with_tensor(tensor)
                        .with_tag(tag),
                    );
                }
                (_, 0) => {
                    let e = &s[0];
                    let tensor = name(program, e.msg.tensor);
                    diags.push(
                        Diagnostic::error(
                            DiagnosticKind::OrphanMessage,
                            format!(
                                "send of {tensor}{} from rank {} (to rank {}) has no matching \
                                 receive; the payload leaks",
                                e.msg.rect, e.rank, e.msg.peer
                            ),
                        )
                        .with_rank(e.rank)
                        .with_tensor(tensor)
                        .with_tag(tag),
                    );
                }
                (ns, nr) if ns > 1 || nr > 1 => {
                    // Matching is by tag: one of these payloads, or one of
                    // these receives, finds no partner at execution time.
                    let first = if ns > 1 { &s[0] } else { &r[0] };
                    let ranks: Vec<usize> = if ns > 1 {
                        s.iter().map(|e| e.rank).collect()
                    } else {
                        r.iter().map(|e| e.rank).collect()
                    };
                    let tensor = name(program, first.msg.tensor);
                    diags.push(
                        Diagnostic::error(
                            DiagnosticKind::DuplicateMessage,
                            format!(
                                "{} {}s share tag {tag} on tensor '{tensor}' (ranks {ranks:?}); a \
                                 send feeds only the first receive of its tag",
                                ranks.len(),
                                if ns > 1 { "send" } else { "receive" },
                            ),
                        )
                        .with_rank(first.rank)
                        .with_tensor(tensor)
                        .with_tag(tag),
                    );
                }
                _ => {
                    let (se, re) = (&s[0], &r[0]);
                    if let Some(why) = pair_mismatch(program, se, re) {
                        diags.push(
                            Diagnostic::error(
                                DiagnosticKind::MessageMismatch,
                                format!(
                                    "send on rank {} and receive on rank {} share tag {tag} but \
                                     disagree on {why}",
                                    se.rank, re.rank
                                ),
                            )
                            .with_rank(re.rank)
                            .with_tensor(name(program, se.msg.tensor))
                            .with_tag(tag),
                        );
                    }
                }
            }
        }
        diags
    }

    /// Why a matched send/receive pair disagrees, if it does.
    fn pair_mismatch(p: &VerifyProgram<'_>, s: &Endpoint<'_>, r: &Endpoint<'_>) -> Option<String> {
        if s.msg.peer != r.rank || r.msg.peer != s.rank {
            return Some(format!(
                "endpoints: send targets rank {} but the receive sits on rank {} expecting rank {}",
                s.msg.peer, r.rank, r.msg.peer
            ));
        }
        if s.msg.tensor != r.msg.tensor {
            return Some(format!(
                "the tensor: '{}' sent, '{}' expected",
                name(p, s.msg.tensor),
                name(p, r.msg.tensor)
            ));
        }
        if s.msg.rect != r.msg.rect {
            return Some(format!(
                "the rectangle: {} sent, {} expected",
                s.msg.rect, r.msg.rect
            ));
        }
        if s.msg.bytes != r.msg.bytes {
            return Some(format!(
                "the byte count: {} sent, {} expected",
                s.msg.bytes, r.msg.bytes
            ));
        }
        if s.msg.fold != r.msg.fold {
            return Some("fold semantics: one side reduces, the other lands".into());
        }
        None
    }
}

mod order {
    use super::*;

    /// Checks the happens-before graph for cycles. On a cycle, reports one
    /// [`DiagnosticKind::Deadlock`] per blocked rank, naming the tag its
    /// earliest stuck receive waits on.
    ///
    /// Tags that failed 1:1 matching contribute no cross edge — their
    /// diagnostics come from [`crate::comm`]; this pass still orders the
    /// events around them.
    pub(super) fn check(program: &VerifyProgram<'_>) -> Vec<Diagnostic> {
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
                    .with_tensor(name(program, m.tensor))
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
}

mod hazard {
    use super::*;
    use crate::hazard::meets;
    use distal_machine::geom::Rect;
    use std::collections::BTreeSet;

    /// Checks for write-write and unordered read-write overlaps. See the
    /// module docs for the three conditions.
    pub(super) fn check(program: &VerifyProgram<'_>) -> Vec<Diagnostic> {
        let mut diags = cross_rank_writes(program);
        diags.extend(landings(program));
        diags
    }

    /// All task-write rectangles, grouped by tensor id as `(rank, rect)`
    /// pairs. A rank re-writing the identical rectangle across steps (the
    /// common steady-state shape — SUMMA accumulates into one output tile
    /// every step) is recorded once.
    fn write_sets<'p>(program: &'p VerifyProgram<'_>) -> Vec<Vec<(usize, &'p Rect)>> {
        let mut by_tensor: Vec<Vec<(usize, &Rect)>> = vec![Vec::new(); program.tensors.len()];
        for (rank, events) in program.ranks.iter().enumerate() {
            for ev in events {
                if let Event::Task { accesses } = ev {
                    for a in accesses.iter().filter(|a| a.write) {
                        if a.rect.volume() > 0 {
                            let rects = entry(&mut by_tensor, a.tensor);
                            let dup = rects
                                .iter()
                                .rev()
                                .take_while(|(r, _)| *r == rank)
                                .any(|(_, rect)| *rect == &a.rect);
                            if !dup {
                                rects.push((rank, &a.rect));
                            }
                        }
                    }
                }
            }
        }
        by_tensor
    }

    /// Write-write: overlapping task writes on different ranks without
    /// reduction semantics. One diagnostic per (rank pair, tensor), on the
    /// first overlap found.
    ///
    /// Runs as a plane sweep along dimension 0 per tensor: rectangles are
    /// sorted by their low coordinate and each is compared only against
    /// later ones whose dim-0 interval still reaches it. A clean tiling
    /// (the overwhelmingly common case on the plan path) costs
    /// `O(R log R + neighbours)` per tensor instead of the naive
    /// `O(p² · R²)` pairwise scan.
    fn cross_rank_writes(program: &VerifyProgram<'_>) -> Vec<Diagnostic> {
        if program.reduces {
            // Distributed reductions fold every contribution; overlapping
            // output writes are the algorithm, not a hazard.
            return Vec::new();
        }
        let mut diags = Vec::new();
        let mut reported: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (t, mut rects) in write_sets(program).into_iter().enumerate() {
            reported.clear();
            rects.sort_by_key(|(_, r)| r.lo()[0]);
            for i in 0..rects.len() {
                let (rank_a, ra) = rects[i];
                for &(rank_b, rb) in &rects[i + 1..] {
                    if rb.lo()[0] > ra.hi()[0] {
                        break;
                    }
                    if rank_a == rank_b || !meets(ra, rb) {
                        continue;
                    }
                    let (a, b) = (rank_a.min(rank_b), rank_a.max(rank_b));
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

    /// Unordered landings and landing-over-read shadows, per rank, per
    /// scratch generation.
    fn landings(program: &VerifyProgram<'_>) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        // Landings and task reads of the current generation, by tensor id:
        // emptied, not dropped, at every rank and fence.
        let tensors = program.tensors.len();
        let mut landed: Vec<Vec<(u64, &Rect)>> = vec![Vec::new(); tensors];
        let mut read: Vec<Vec<&Rect>> = vec![Vec::new(); tensors];
        for (rank, events) in program.ranks.iter().enumerate() {
            for ev in std::iter::once(&Event::Fence).chain(events) {
                match ev {
                    Event::Fence => {
                        landed.iter_mut().for_each(Vec::clear);
                        read.iter_mut().for_each(Vec::clear);
                    }
                    Event::Recv(m) if !m.fold => {
                        let (tensor, rect, tag) = (name(program, m.tensor), &m.rect, m.tag);
                        let t = m.tensor.index();
                        let mut landings = landed.get(t).into_iter().flatten();
                        if let Some((prev_tag, prev)) = landings.find(|(_, r)| meets(r, rect)) {
                            diags.push(
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
                        let mut reads = read.get(t).into_iter().flatten();
                        if let Some(shadowed) = reads.find(|r| meets(r, rect)) {
                            diags.push(
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
                        entry(&mut landed, m.tensor).push((tag, rect));
                    }
                    Event::Task { accesses } => {
                        for a in accesses.iter().filter(|a| !a.write) {
                            if a.rect.volume() > 0 {
                                entry(&mut read, a.tensor).push(&a.rect);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        diags
    }
}
