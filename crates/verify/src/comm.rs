//! Communication matching.
//!
//! Every transfer in a well-formed program is a 1:1 tag-matched pair: one
//! send and one receive agreeing on endpoints, tensor, rectangle, byte
//! count, and fold semantics. Both transports rely on this literally —
//! a send feeds the first receive of its tag at its destination. So a
//! duplicate tag is not a style issue: a second send's payload is never
//! received and fails the run, a second receive waits forever. A receive
//! without a send is the *lost message* the 60-second runtime watchdog
//! exists for; this check catches all of it before anything runs.
//!
//! The walk files every endpoint in one tag table as it meets
//! it, and compares a pair the moment its second endpoint arrives. The
//! same table, and the order in which the walk met the endpoints, is
//! what [`crate::order`]'s happens-before sort runs on.

use crate::{name, Event, Events, Msg};
use distal_core::{Diagnostic, DiagnosticKind, TensorId};
use std::collections::HashMap;

/// Where an endpoint sits: its rank, and its index among the rank's
/// events.
#[derive(Clone, Copy, Debug)]
pub(crate) struct At {
    pub(crate) rank: u32,
    pub(crate) index: u32,
}

/// One tag's endpoints.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Pair {
    /// The tag itself.
    tag: u64,
    /// How many sends carry the tag.
    sends: u32,
    /// How many receives carry the tag.
    recvs: u32,
    /// The first send, in walk order.
    send: At,
    /// The first receive, in walk order.
    pub(crate) recv: At,
    /// The first endpoint's message packed, if it packs: what the second
    /// is compared with.
    first: Option<Packed>,
}

impl Pair {
    /// Exactly one send and one receive: the only tags that match, and
    /// the only ones that order their endpoints.
    pub(crate) fn matched(&self) -> bool {
        self.sends == 1 && self.recvs == 1
    }
}

/// A message's identity as one end of a pair, packed small: the
/// rectangle's coordinates as `i32`s, up to three dimensions. What the
/// other end must repeat, exactly; a message that does not pack is
/// compared with the other end as the program holds it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Packed {
    peer: u32,
    tensor: TensorId,
    bytes: u64,
    fold: bool,
    dim: u8,
    /// `lo`, `hi` per dimension, zero past `dim`.
    coords: [i32; 6],
}

impl Packed {
    fn new(m: &Msg) -> Option<Self> {
        let dim = m.rect.dim();
        if dim > 3 {
            return None;
        }
        let mut coords = [0; 6];
        for d in 0..dim {
            coords[2 * d] = i32::try_from(m.rect.lo()[d]).ok()?;
            coords[2 * d + 1] = i32::try_from(m.rect.hi()[d]).ok()?;
        }
        Some(Packed {
            peer: u32::try_from(m.peer).ok()?,
            tensor: m.tensor,
            bytes: m.bytes,
            fold: m.fold,
            dim: dim as u8,
            coords,
        })
    }

    /// True when `self`, filed on rank `rank`, and `other`, on rank
    /// `other_rank`, name each other and agree on everything else.
    fn pairs_with(&self, rank: usize, other: &Packed, other_rank: usize) -> bool {
        self.peer as usize == other_rank
            && other.peer as usize == rank
            && Packed { peer: 0, ..*self } == Packed { peer: 0, ..*other }
    }
}

/// No slot: a tag the walk has not met.
const NONE: u32 = u32::MAX;

/// The tag table the walk builds: per tag, its endpoints ([`Pair`]); and
/// every endpoint in walk order.
///
/// A tag below a bound proportional to the program's events finds its
/// slot through a plain array, which covers the dense tags a lowering
/// emits; any other tag goes through a map, so every tag set stays legal.
#[derive(Debug)]
pub(crate) struct Tags {
    /// Per tag below `index.len()`, its slot, or [`NONE`].
    index: Vec<u32>,
    /// The slots of tags at or past `limit`.
    far: HashMap<u64, u32>,
    /// The bound under which a tag is looked up in `index`.
    limit: u64,
    /// Per slot, in the order the walk first met the tags.
    pairs: Vec<Pair>,
    /// Every message endpoint in walk order, as `slot << 1 | send`.
    trace: Vec<u32>,
    /// Per rank, where its endpoints end in `trace`.
    ends: Vec<u32>,
    /// Each endpoint after the first of its kind on its tag, as `(slot,
    /// send, rank)`: only an ill-formed program has one.
    extra: Vec<(u32, bool, usize)>,
    /// The finding of each matched pair that disagrees, with its slot.
    mismatched: Vec<(u32, Diagnostic)>,
}

impl Tags {
    /// An empty table for a walk over `events` events on `ranks` ranks.
    ///
    /// # Panics
    ///
    /// Panics past 2³¹ ranks or events: ranks, event indices and slots
    /// are kept as 31-bit numbers.
    pub(crate) fn new(ranks: usize, events: usize) -> Self {
        assert!(
            ranks.max(events) < 1 << 31,
            "the tag table numbers ranks and events in 31 bits"
        );
        Tags {
            index: Vec::with_capacity(events / 2),
            far: HashMap::new(),
            limit: (2 * events as u64).saturating_add(64),
            pairs: Vec::with_capacity(events / 2),
            trace: Vec::with_capacity(events),
            ends: Vec::with_capacity(ranks),
            extra: Vec::new(),
            mismatched: Vec::new(),
        }
    }

    /// The slot of `tag`, if the walk has met it.
    fn slot(&self, tag: u64) -> Option<u32> {
        let slot = if tag < self.limit {
            *self.index.get(tag as usize)?
        } else {
            *self.far.get(&tag)?
        };
        (slot != NONE).then_some(slot)
    }

    /// Opens the next slot for `m`'s tag, new to the walk: `m` is its
    /// first endpoint, a send (`send`) or receive at `at`.
    fn open(&mut self, at: At, m: &Msg, send: bool) -> u32 {
        let slot = self.pairs.len() as u32;
        if m.tag < self.limit {
            let t = m.tag as usize;
            if t >= self.index.len() {
                self.index.resize(t + 1, NONE);
            }
            self.index[t] = slot;
        } else {
            self.far.insert(m.tag, slot);
        }
        self.pairs.push(Pair {
            tag: m.tag,
            sends: u32::from(send),
            recvs: u32::from(!send),
            send: at,
            recv: at,
            first: Packed::new(m),
        });
        slot
    }

    /// Files the send (`send`) or receive of `m`, event `i` of `rank`; a
    /// pair this completes is compared on the spot.
    pub(crate) fn record<P: Events + ?Sized>(
        &mut self,
        program: &P,
        rank: usize,
        i: usize,
        m: &Msg,
        send: bool,
    ) {
        let at = At {
            rank: rank as u32,
            index: i as u32,
        };
        let known = self.slot(m.tag);
        let slot = known.unwrap_or_else(|| self.open(at, m, send));
        self.trace.push(slot << 1 | u32::from(send));
        if known.is_none() {
            return;
        }
        let pair = &mut self.pairs[slot as usize];
        let (count, first) = if send {
            (&mut pair.sends, &mut pair.send)
        } else {
            (&mut pair.recvs, &mut pair.recv)
        };
        *count += 1;
        if *count > 1 {
            self.extra.push((slot, send, rank));
            return;
        }
        *first = at;
        if !pair.matched() {
            return;
        }
        // This endpoint completed the pair: compare it with the first.
        let there = if send { pair.recv } else { pair.send };
        let packed = (pair.first, Packed::new(m));
        if let (Some(first), Some(here)) = packed {
            if first.pairs_with(there.rank as usize, &here, rank) {
                return;
            }
        }
        let (here, there) = (Endpoint { rank, msg: *m }, Endpoint::at(program, there));
        let (s, r) = if send { (here, there) } else { (there, here) };
        let Some(why) = pair_mismatch(program, &s, &r) else {
            return;
        };
        let tag = m.tag;
        let d = Diagnostic::error(
            DiagnosticKind::MessageMismatch,
            format!(
                "send on rank {} and receive on rank {} share tag {tag} but \
                 disagree on {why}",
                s.rank, r.rank
            ),
        )
        .with_rank(r.rank)
        .with_tensor(name(program, s.msg.tensor))
        .with_tag(tag);
        self.mismatched.push((slot, d));
    }

    /// Closes the walk over one rank.
    pub(crate) fn end_rank(&mut self) {
        self.ends.push(self.trace.len() as u32);
    }

    /// Every pair, by slot.
    pub(crate) fn pairs(&self) -> &[Pair] {
        &self.pairs
    }

    /// Rank `rank`'s endpoints from its `from`-th on, in program order, as
    /// `(slot, send)`.
    pub(crate) fn endpoints(
        &self,
        rank: usize,
        from: usize,
    ) -> impl Iterator<Item = (u32, bool)> + '_ {
        let start = if rank == 0 { 0 } else { self.ends[rank - 1] };
        self.trace[start as usize..self.ends[rank] as usize][from..]
            .iter()
            .map(|&e| (e >> 1, e & 1 == 1))
    }

    /// Checks that every tag names exactly one send and one receive, and
    /// that the pair agrees on every field of the transfer's identity:
    /// one finding per offending tag, in ascending tag order.
    pub(crate) fn check<P: Events + ?Sized>(&self, program: &P) -> Vec<Diagnostic> {
        // Only an ill-formed program has offending tags: sort just those.
        let mut offending: Vec<(u64, u32)> = self
            .pairs
            .iter()
            .zip(0..)
            .filter(|(pair, _)| !pair.matched())
            .map(|(pair, slot)| (pair.tag, slot))
            .collect();
        if offending.is_empty() && self.mismatched.is_empty() {
            return Vec::new();
        }
        // A pair that disagreed may have lost its match to a later
        // endpoint since: then it offends as a duplicate.
        let mut mismatched: Vec<&(u32, Diagnostic)> = self
            .mismatched
            .iter()
            .filter(|(slot, _)| self.pairs[*slot as usize].matched())
            .collect();
        mismatched.sort_by_key(|(slot, _)| *slot);
        offending.extend(
            mismatched
                .iter()
                .map(|(slot, _)| (self.pairs[*slot as usize].tag, *slot)),
        );
        offending.sort_unstable();
        let mut extra = self.extra.clone();
        extra.sort_by_key(|&(slot, _, _)| slot);

        let mut diags = Vec::new();
        for (tag, slot) in offending {
            let pair = &self.pairs[slot as usize];
            match (pair.sends, pair.recvs) {
                (0, _) => {
                    // The watchdog case, caught statically: the receiver
                    // blocks forever on a payload nobody injects.
                    let e = Endpoint::at(program, pair.recv);
                    let tensor = name(program, e.msg.tensor);
                    diags.push(
                        Diagnostic::error(
                            DiagnosticKind::LostMessage,
                            format!(
                                "receive of {tensor}{} on rank {} (from rank {}) has no \
                                 matching send; the receiver blocks forever",
                                e.msg.rect, e.rank, e.msg.peer
                            ),
                        )
                        .with_rank(e.rank)
                        .with_tensor(tensor)
                        .with_tag(tag),
                    );
                }
                (_, 0) => {
                    let e = Endpoint::at(program, pair.send);
                    let tensor = name(program, e.msg.tensor);
                    diags.push(
                        Diagnostic::error(
                            DiagnosticKind::OrphanMessage,
                            format!(
                                "send of {tensor}{} from rank {} (to rank {}) has no \
                                 matching receive; the payload leaks",
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
                    let sends = ns > 1;
                    let first = Endpoint::at(program, if sends { pair.send } else { pair.recv });
                    let from = extra.partition_point(|&(s, _, _)| s < slot);
                    let ranks: Vec<usize> = std::iter::once(first.rank)
                        .chain(
                            extra[from..]
                                .iter()
                                .take_while(|&&(s, _, _)| s == slot)
                                .filter(|&&(_, send, _)| send == sends)
                                .map(|&(_, _, rank)| rank),
                        )
                        .collect();
                    let tensor = name(program, first.msg.tensor);
                    diags.push(
                        Diagnostic::error(
                            DiagnosticKind::DuplicateMessage,
                            format!(
                                "{} {}s share tag {tag} on tensor '{tensor}' (ranks \
                                 {ranks:?}); a send feeds only the first receive of its tag",
                                ranks.len(),
                                if sends { "send" } else { "receive" },
                            ),
                        )
                        .with_rank(first.rank)
                        .with_tensor(tensor)
                        .with_tag(tag),
                    );
                }
                _ => {
                    let i = mismatched.partition_point(|(s, _)| *s < slot);
                    diags.push(mismatched[i].1.clone());
                }
            }
        }
        diags
    }
}

/// One communication endpoint: where in the program a message is sent or
/// received.
struct Endpoint {
    rank: usize,
    msg: Msg,
}

impl Endpoint {
    /// The endpoint the walk filed at `at`, read back from the program.
    fn at<P: Events + ?Sized>(program: &P, at: At) -> Self {
        let rank = at.rank as usize;
        match program.event(rank, at.index as usize) {
            Event::Send(msg) | Event::Recv(msg) => Endpoint { rank, msg },
            _ => unreachable!("the walk files only messages"),
        }
    }
}

/// Why a matched send/receive pair disagrees, if it does.
fn pair_mismatch<P: Events + ?Sized>(p: &P, s: &Endpoint, r: &Endpoint) -> Option<String> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{clean_pair, msg, rect2, B};
    use crate::{walk, Event};

    #[test]
    fn clean_pair_matches() {
        assert!(walk(&clean_pair()).comm.is_empty());
    }

    #[test]
    fn dropped_send_is_a_lost_message() {
        let mut p = clean_pair();
        p.ranks[0].retain(|e| !matches!(e, Event::Send(_)));
        let diags = walk(&p).comm;
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
        let diags = walk(&p).comm;
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, DiagnosticKind::OrphanMessage);
        assert_eq!(diags[0].rank, Some(0));
    }

    #[test]
    fn duplicate_tag_flagged() {
        let mut p = clean_pair();
        let dup = Event::Send(msg(1, 1, B, rect2((0, 0), (1, 3))));
        p.ranks[0].insert(0, dup);
        let diags = walk(&p).comm;
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
        let diags = walk(&p).comm;
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
        let diags = walk(&p).comm;
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, DiagnosticKind::MessageMismatch);
        assert!(diags[0].message.contains("endpoints"), "{}", diags[0]);
    }
}
