//! Pass 1 — communication matching.
//!
//! Every transfer in a well-formed program is a 1:1 tag-matched pair: one
//! send and one receive agreeing on endpoints, tensor, rectangle, byte
//! count, and fold semantics. Both transports rely on this literally —
//! a send feeds the first receive of its tag at its destination. So a
//! duplicate tag is not a style issue: a second send's payload is never
//! received and fails the run, a second receive waits forever. A receive
//! without a send is the *lost message* the 60-second runtime watchdog
//! exists for; this pass catches all of it before anything runs.

use crate::{Event, Msg, VerifyProgram};
use distal_core::{Diagnostic, DiagnosticKind};

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
pub fn check(program: &VerifyProgram<'_>) -> Vec<Diagnostic> {
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
                let tensor = program.name(e.msg.tensor);
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
                let tensor = program.name(e.msg.tensor);
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
                let tensor = program.name(first.msg.tensor);
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
                        .with_tensor(program.name(se.msg.tensor))
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
            p.name(s.msg.tensor),
            p.name(r.msg.tensor)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{clean_pair, msg, rect2, B};

    #[test]
    fn clean_pair_matches() {
        assert!(check(&clean_pair()).is_empty());
    }

    #[test]
    fn dropped_send_is_a_lost_message() {
        let mut p = clean_pair();
        p.ranks[0].retain(|e| !matches!(e, Event::Send(_)));
        let diags = check(&p);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].kind, DiagnosticKind::LostMessage);
        assert_eq!(diags[0].rank, Some(1));
        assert_eq!(diags[0].tag, Some(1));
        assert_eq!(diags[0].tensor.as_deref(), Some("B"));
    }

    #[test]
    fn dropped_recv_is_an_orphan() {
        let mut p = clean_pair();
        p.ranks[1].retain(|e| !matches!(e, Event::Recv(_)));
        let diags = check(&p);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, DiagnosticKind::OrphanMessage);
        assert_eq!(diags[0].rank, Some(0));
    }

    #[test]
    fn duplicate_tag_flagged() {
        let mut p = clean_pair();
        let dup = Event::Send(msg(1, 1, B, rect2((0, 0), (1, 3))));
        p.ranks[0].insert(0, dup);
        let diags = check(&p);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, DiagnosticKind::DuplicateMessage);
        assert_eq!(diags[0].tag, Some(1));
    }

    #[test]
    fn skewed_rect_is_a_mismatch() {
        let mut p = clean_pair();
        for e in &mut p.ranks[0] {
            if let Event::Send(m) = e {
                m.rect = rect2((0, 0), (0, 3));
                m.bytes = m.rect.volume() as u64 * 8;
            }
        }
        let diags = check(&p);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, DiagnosticKind::MessageMismatch);
        assert!(diags[0].message.contains("rectangle"), "{}", diags[0]);
    }

    #[test]
    fn crossed_endpoints_are_a_mismatch() {
        let mut p = clean_pair();
        for e in &mut p.ranks[0] {
            if let Event::Send(m) = e {
                m.peer = 0; // claims to target itself; the recv sits on rank 1
            }
        }
        let diags = check(&p);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, DiagnosticKind::MessageMismatch);
        assert!(diags[0].message.contains("endpoints"), "{}", diags[0]);
    }
}
