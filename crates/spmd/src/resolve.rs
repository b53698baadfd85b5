//! Resolution: every decision the rank VM makes that does not depend on
//! the data, made once.
//!
//! Which buffer of a rank supplies a rectangle, whether a leaf's operand
//! face or a message payload can be lent where it lies or has to be
//! gathered, which accumulator a leaf writes, which output piece a folded
//! partial sum lands in, and which receive a send feeds are all functions
//! of the program, the rank and the op index: the rectangles the lowering
//! emitted and the home pieces of each tensor's distribution, never the
//! values. [`Resolved::new`] replays every rank's op list over rectangles
//! alone — no buffer is allocated, no kernel runs — and records the
//! answers as one [`Step`] per op: slot indices and fixed copy recipes.
//! Executing is then an index walk over those steps ([`crate::vm`]), the
//! way Legion's dynamic tracing (Lee et al., SC'18) analyses a trace once
//! and replays it. A program resolves on its first execution and keeps the
//! result beside its ops, so every binding of a plan and every later
//! [`SpmdProgram::execute_with`] replays it.
//!
//! A rank's store, as this pass models it:
//!
//! * *view slots* — read-only `(alloc, data)` borrows: first the rank's
//!   home pieces of every input tensor (seeded once per binding and never
//!   written), then one slot per received input payload. A payload is
//!   itself a view — of the sender's home piece, of a view the sender
//!   received and forwards, or of a copy the sender made — so a slot's
//!   `alloc` is whatever buffer it was lent from, while the rectangle it
//!   *holds* is the message's;
//! * *scratch generations* of view slots per tensor, newest first; a
//!   retire keeps the newest `keep` generations and opens a fresh one,
//!   which is what makes systolic forwarding read the freshly shifted tile
//!   rather than a stale one;
//! * *owned buffers*, zeroed at the start of a run and laid out over their
//!   own rectangle: accumulators for locally computed output
//!   contributions, the output home pieces a fold lands in, and the
//!   payload copies of sends whose rectangle no single buffer holds;
//! * one *face buffer* per operand, for a face no single buffer holds.
//!
//! A rectangle is read from the first buffer in priority order — newest
//! scratch generation first, then the home pieces, then (for a statement
//! that reads its own output) the output home pieces — that holds each
//! part of it. When the first buffer that overlaps a rectangle contains
//! it, the rectangle is lent where it lies; otherwise each buffer in
//! order supplies its intersection with the part still unclaimed, which is
//! the gather recipe; a part nobody holds becomes a [`Step::Fail`] naming
//! it, raised when the walk reaches that op.

use crate::ops::SpmdOp;
use crate::program::SpmdProgram;
use distal_core::TensorId;
use distal_machine::geom::Rect;
use distal_machine::ELEM_BYTES;
use std::cell::Cell;
use std::collections::VecDeque;

thread_local! {
    /// Per-thread count of [`Resolved::new`] calls — how plan reuse shows
    /// that a program resolves once, not once per request.
    static RESOLUTIONS: Cell<u64> = const { Cell::new(0) };
}

/// How many times a program was resolved for the rank VM on the calling
/// thread: once per program, on its first execution — whether through a
/// plan's instances or [`SpmdProgram::execute_with`] — and once more after
/// each [`SpmdProgram::rewrite`].
pub fn resolve_count() -> u64 {
    RESOLUTIONS.with(Cell::get)
}

/// Where a rank reads data from at run time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Src {
    /// A view slot: `(alloc, data)` of a home piece or a received payload.
    View(usize),
    /// An owned buffer, laid out over [`RankPlan::owned`]`[i]`.
    Owned(usize),
}

/// One part of a gather: `rect` copied out of `src`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Part {
    pub(crate) src: Src,
    pub(crate) rect: Rect,
}

/// How a send makes its payload.
#[derive(Debug)]
pub(crate) enum Payload {
    /// The view slot that holds the whole message rectangle, lent as is.
    Lend(usize),
    /// Gathered from `parts` into owned buffer `into`, laid out over the
    /// message rectangle: an input face several buffers hold, or an output
    /// partial sum, which the receiver folds.
    Copy { into: usize, parts: Vec<Part> },
}

/// Where a received payload lands.
#[derive(Debug)]
pub(crate) enum Landing {
    /// An input payload, filed as this view slot of the current scratch
    /// generation.
    View(usize),
    /// An output partial sum, added into owned buffers part by part.
    Fold(Vec<(usize, Rect)>),
}

/// How a leaf reads one operand's face.
#[derive(Debug)]
pub(crate) enum FaceRead {
    /// The one buffer that contains the face, lent where it lies.
    Lend(Src),
    /// Gathered from `parts` into the rank's face buffer of this operand,
    /// laid out over the face.
    Gather(Vec<Part>),
}

/// One operand of a leaf.
#[derive(Debug)]
pub(crate) struct Face {
    /// The operand's face of the leaf's iteration box.
    pub(crate) rect: Rect,
    pub(crate) read: FaceRead,
    /// The leaf reads this operand as CSR ([`Kernel::sparse_arg`]), so the
    /// face is compressed — out of the lent buffer when the face is one
    /// contiguous run of it, else out of the face buffer.
    ///
    /// [`Kernel::sparse_arg`]: distal_runtime::kernel::Kernel::sparse_arg
    pub(crate) csr: bool,
}

/// One leaf: the accumulator it adds into and how it reads its operands.
#[derive(Debug)]
pub(crate) struct Leaf {
    /// The destination access's rectangle.
    pub(crate) out: Rect,
    /// The owned accumulator that covers `out`.
    pub(crate) acc: usize,
    /// One per right-hand-side access, in order.
    pub(crate) faces: Vec<Face>,
    /// The leaf's scalar arguments: `lo, hi` per statement variable.
    pub(crate) scalars: Vec<i64>,
}

/// One resolved op; `steps[i]` of a rank is its program's op `i`.
#[derive(Debug)]
pub(crate) enum Step {
    /// Send a payload into mailbox slot `ordinal` of rank `to`. `csr`
    /// marks a compressed operand tile, charged its exact stored entries.
    Send {
        to: usize,
        ordinal: usize,
        payload: Payload,
        csr: bool,
    },
    /// Take the payload in mailbox slot `ordinal` (block until it is there).
    Recv { ordinal: usize, landing: Landing },
    /// Run the leaf; `None` for a leaf clamped to nothing.
    Compute(Option<Box<Leaf>>),
    /// Drop the view slots a retire frees.
    Retire(Vec<usize>),
    /// The op reads data the rank does not hold: the run fails here.
    Fail(String),
}

/// How a rank's home piece of the output reaches the assembled tensor.
#[derive(Debug, PartialEq)]
pub(crate) enum Base {
    /// The one accumulator that covers the piece, nothing folded into it:
    /// the piece is that accumulator, moved once.
    Move(usize),
    /// The piece's fold buffer, plus the accumulators over it.
    Folded(usize),
    /// Zeros, plus the accumulators over it.
    Zero,
}

/// One output home piece of a rank: `base`, then `adds` added in order.
#[derive(Debug)]
pub(crate) struct Finish {
    pub(crate) piece: Rect,
    pub(crate) base: Base,
    pub(crate) adds: Vec<(usize, Rect)>,
}

/// Everything one rank's run addresses, and how.
#[derive(Debug, Default)]
pub(crate) struct RankPlan {
    /// One per op of the rank's program; shorter only after a
    /// [`Step::Fail`], which the walk never passes.
    pub(crate) steps: Vec<Step>,
    /// View slots `0..homes.len()`: `(tensor, piece)` of the rank's home
    /// pieces (a tensor by its id's index).
    pub(crate) homes: Vec<(usize, usize)>,
    /// View slots in all: the home pieces, then one per input receive.
    pub(crate) views: usize,
    /// The rectangle each owned buffer is laid out over.
    pub(crate) owned: Vec<Rect>,
    /// Elements of each operand's face buffer (the largest face it takes).
    pub(crate) faces: Vec<usize>,
    /// Mailbox slots: one per receive, then one per send no receive of
    /// this rank matches (left over after the run, and reported).
    pub(crate) mailbox: usize,
    /// The rank's output home pieces, in order.
    pub(crate) finish: Vec<Finish>,
}

impl RankPlan {
    /// Elements of the rank's arena: its owned buffers, then its face
    /// buffers.
    pub(crate) fn arena_len(&self) -> usize {
        let owned: usize = self.owned.iter().map(volume).sum();
        owned + self.faces.iter().sum::<usize>()
    }
}

/// A program resolved for the rank VM: one [`RankPlan`] per rank.
#[derive(Debug)]
pub(crate) struct Resolved {
    pub(crate) ranks: Vec<RankPlan>,
    /// The output tensor's rectangle, which the ranks assemble it over.
    pub(crate) output: Rect,
    /// The largest live scratch of any rank at any of its leaves — what
    /// `SpmdResult::peak_scratch_bytes` reports, fixed by the program.
    pub(crate) peak_scratch_bytes: u64,
}

impl Resolved {
    /// Resolves every rank of `program`.
    pub(crate) fn new(program: &SpmdProgram) -> Self {
        RESOLUTIONS.with(|c| c.set(c.get() + 1));
        let ranks = program.ranks();
        // Every receive gets the next slot of its rank's mailbox; a send
        // feeds the first receive of its tag at its destination.
        let mut mailbox = vec![0usize; ranks];
        let mut receives = Vec::new();
        for (rank, slots) in mailbox.iter_mut().enumerate() {
            for op in program.rank_ops(rank).iter().filter(|op| !op.is_send()) {
                let Some(m) = op.message() else { continue };
                receives.push((rank, m.tag, *slots));
                *slots += 1;
            }
        }
        receives.sort();
        receives.dedup_by_key(|&mut (rank, tag, _)| (rank, tag));
        let mut plans: Vec<Ranked> = (0..ranks)
            .map(|rank| resolve_rank(program, rank, &receives, &mut mailbox))
            .collect();
        for (ranked, slots) in plans.iter_mut().zip(mailbox) {
            ranked.plan.mailbox = slots;
        }
        let peak_scratch_bytes = plans.iter().map(|p| p.peak).max().unwrap_or(0);
        let output = &program.tensors[program.output().index()];
        Resolved {
            ranks: plans.into_iter().map(|p| p.plan).collect(),
            output: Rect::sized(&output.dims),
            peak_scratch_bytes,
        }
    }
}

/// Elements of `rect`, zero when it is empty.
pub(crate) fn volume(rect: &Rect) -> usize {
    rect.volume().max(0) as usize
}

fn bytes(rect: &Rect) -> u64 {
    volume(rect) as u64 * ELEM_BYTES
}

/// A buffer of the modelled store: the rectangle it holds valid data for,
/// and where that data will be at run time.
#[derive(Clone, Debug)]
struct Sym {
    rect: Rect,
    src: Src,
}

/// Walks `bufs` in priority order, handing each the parts of `unclaimed`
/// it covers that no earlier buffer claimed — the rectangle-level form of
/// "the first buffer holding the point wins". Returns the parts in visit
/// order and what no buffer claimed.
fn claim<'s>(
    bufs: impl IntoIterator<Item = &'s Sym>,
    mut unclaimed: Vec<Rect>,
) -> (Vec<Part>, Vec<Rect>) {
    unclaimed.retain(|r| !r.is_empty());
    let mut parts = Vec::new();
    for buf in bufs {
        if unclaimed.is_empty() {
            break;
        }
        let mut rest = Vec::new();
        for piece in unclaimed {
            let part = piece.intersection(&buf.rect);
            if part.is_empty() {
                rest.push(piece);
            } else {
                parts.push(Part {
                    src: buf.src,
                    rect: part,
                });
                rest.extend(piece.difference(&buf.rect));
            }
        }
        unclaimed = rest;
    }
    (parts, unclaimed)
}

/// The gather recipe of `rect` out of `bufs`; `Err` names the first part
/// of `rect` no buffer holds.
fn gather<'s>(bufs: impl IntoIterator<Item = &'s Sym>, rect: &Rect) -> Result<Vec<Part>, Rect> {
    match claim(bufs, vec![*rect]) {
        (parts, missing) if missing.is_empty() => Ok(parts),
        (_, missing) => Err(missing[0]),
    }
}

/// One rank's store, modelled over rectangles while its ops resolve.
#[derive(Debug)]
struct Store<'p> {
    out: usize,
    out_pieces: &'p [Rect],
    /// Per tensor id: the rank's home pieces.
    home: Vec<Vec<Sym>>,
    /// Per tensor id: scratch generations, newest first — `None` until the
    /// tensor's first receive, so a retire opens generations only for
    /// tensors that have received.
    scratch: Vec<Option<VecDeque<Vec<Sym>>>>,
    /// The output home pieces that have a buffer, in creation order.
    out_home: Vec<Sym>,
    acc: Vec<Sym>,
    plan: RankPlan,
    scratch_bytes: u64,
    peak: u64,
}

impl<'p> Store<'p> {
    fn new(tensors: usize, out: usize, out_pieces: &'p [Rect]) -> Self {
        Store {
            out,
            out_pieces,
            home: vec![Vec::new(); tensors],
            scratch: vec![None; tensors],
            out_home: Vec::new(),
            acc: Vec::new(),
            plan: RankPlan::default(),
            scratch_bytes: 0,
            peak: 0,
        }
    }

    fn new_view(&mut self) -> usize {
        self.plan.views += 1;
        self.plan.views - 1
    }

    fn new_owned(&mut self, rect: &Rect) -> usize {
        self.plan.owned.push(*rect);
        self.plan.owned.len() - 1
    }

    /// Adds `rect` as the next home piece of `tensor`.
    fn add_home(&mut self, tensor: usize, piece: usize, rect: &Rect) {
        let src = Src::View(self.new_view());
        self.plan.homes.push((tensor, piece));
        self.home[tensor].push(Sym { rect: *rect, src });
    }

    /// Gives every output piece its (zero) buffer up front, for a
    /// statement whose leaves read the output.
    fn add_output_homes(&mut self) {
        let pieces = self.out_pieces;
        for piece in pieces {
            let src = Src::Owned(self.new_owned(piece));
            self.out_home.push(Sym { rect: *piece, src });
        }
    }

    /// The buffers holding `tensor`, in read priority order.
    fn bufs(&self, tensor: usize) -> impl Iterator<Item = &Sym> {
        let scratch = self.scratch[tensor].iter().flatten().flatten();
        let reads_output = tensor == self.out;
        let out_home = self.out_home.iter().filter(move |_| reads_output);
        scratch.chain(&self.home[tensor]).chain(out_home)
    }

    /// The buffer that lends `rect` of `tensor` where it lies: the first
    /// in priority order that overlaps it, when it contains it.
    fn lend(&self, tensor: usize, rect: &Rect) -> Option<Src> {
        let buf = self.bufs(tensor).find(|b| b.rect.overlaps(rect))?;
        buf.rect.contains_rect(rect).then_some(buf.src)
    }

    /// Files an input payload as a view slot of the current generation.
    fn receive(&mut self, tensor: usize, rect: &Rect) -> usize {
        let view = self.new_view();
        let sym = Sym {
            rect: *rect,
            src: Src::View(view),
        };
        match &mut self.scratch[tensor] {
            Some(gens) => match gens.front_mut() {
                Some(newest) => newest.push(sym),
                None => gens.push_front(vec![sym]),
            },
            none => *none = Some(VecDeque::from([vec![sym]])),
        }
        self.scratch_bytes += bytes(rect);
        view
    }

    /// Keeps the newest `keep` generations of every tensor that has
    /// received and opens a fresh one; returns the view slots freed.
    fn retire(&mut self, keep: usize) -> Vec<usize> {
        let mut freed = Vec::new();
        for gens in self.scratch.iter_mut().flatten() {
            for sym in gens.drain(keep.min(gens.len())..).flatten() {
                self.scratch_bytes -= bytes(&sym.rect);
                if let Src::View(view) = sym.src {
                    freed.push(view);
                }
            }
            gens.push_front(Vec::new());
        }
        freed
    }

    /// How a send of `rect` of tensor `tensor` makes its payload. An
    /// output partial sum is copied out of the accumulators, which later
    /// leaves and folds still write; an input rectangle one buffer holds is
    /// lent. `Err` holds the first part of `rect` no buffer holds.
    fn payload(&mut self, tensor: usize, rect: &Rect) -> Result<Payload, Rect> {
        let parts = if tensor == self.out {
            gather(&self.acc, rect)
        } else if let Some(Src::View(view)) = self.lend(tensor, rect) {
            return Ok(Payload::Lend(view));
        } else {
            gather(self.bufs(tensor), rect)
        };
        let parts = parts?;
        Ok(Payload::Copy {
            into: self.new_owned(rect),
            parts,
        })
    }

    /// The leaf over `bounds` of `program`, whose accesses touch `rects` —
    /// the destination's, then one per operand of tensor `operands[i]`;
    /// `csr_arg` is the argument the leaf reads as CSR.
    fn leaf(
        &mut self,
        program: &SpmdProgram,
        bounds: &[(i64, i64)],
        mut rects: impl Iterator<Item = Rect>,
        operands: &[TensorId],
        csr_arg: Option<usize>,
    ) -> Result<Leaf, String> {
        let out = rects.next().expect("the destination access");
        let acc = self.accumulator(&out);
        let mut faces = Vec::with_capacity(operands.len());
        for (i, (rect, &id)) in rects.zip(operands).enumerate() {
            let csr = csr_arg == Some(i + 1);
            let t = id.index();
            let read = match self.lend(t, &rect) {
                Some(src) => FaceRead::Lend(src),
                None => FaceRead::Gather(gather(self.bufs(t), &rect).map_err(|missing| {
                    let tensor = program.tensor_name(id);
                    format!("compute reads {tensor}{missing} with no valid local copy")
                })?),
            };
            if csr || matches!(read, FaceRead::Gather(_)) {
                self.plan.faces[i] = self.plan.faces[i].max(volume(&rect));
            }
            faces.push(Face { rect, read, csr });
        }
        Ok(Leaf {
            out,
            acc,
            faces,
            scalars: bounds.iter().flat_map(|&(lo, hi)| [lo, hi]).collect(),
        })
    }

    /// Where an output partial sum over `rect` lands: the home pieces it
    /// covers (each given its buffer by the first fold into it), then the
    /// accumulators for the rest — a relay of a reduce tree carries it on
    /// in its own next send — and a fresh accumulator over `rect` for
    /// what none holds, appended last so existing ones keep priority.
    fn fold(&mut self, rect: &Rect) -> Vec<(usize, Rect)> {
        let mut targets = Vec::new();
        let mut relayed = vec![*rect];
        let pieces = self.out_pieces;
        for piece in pieces.iter().filter(|piece| piece.overlaps(rect)) {
            let existing = self.out_home.iter().find(|b| b.rect == *piece);
            let src = match existing {
                Some(buf) => buf.src,
                None => {
                    let src = Src::Owned(self.new_owned(piece));
                    self.out_home.push(Sym { rect: *piece, src });
                    src
                }
            };
            targets.push((owned(src), rect.intersection(piece)));
            relayed = relayed.iter().flat_map(|r| r.difference(piece)).collect();
        }
        let (parts, fresh) = claim(&self.acc, relayed);
        targets.extend(parts.into_iter().map(|p| (owned(p.src), p.rect)));
        if !fresh.is_empty() {
            let acc = self.new_owned(rect);
            self.acc.push(Sym {
                rect: *rect,
                src: Src::Owned(acc),
            });
            targets.extend(fresh.into_iter().map(|part| (acc, part)));
        }
        targets
    }

    /// The accumulator a leaf writing `out` adds into: the first that
    /// covers it, or a fresh one over `out`.
    fn accumulator(&mut self, out: &Rect) -> usize {
        if let Some(buf) = self.acc.iter().find(|b| b.rect.contains_rect(out)) {
            return owned(buf.src);
        }
        let acc = self.new_owned(out);
        self.acc.push(Sym {
            rect: *out,
            src: Src::Owned(acc),
        });
        acc
    }

    /// How each of the rank's output pieces is assembled.
    fn finish(&self) -> Vec<Finish> {
        self.out_pieces
            .iter()
            .map(|piece| {
                let folded = self.out_home.iter().find(|b| b.rect == *piece);
                let mut local = self.acc.iter().filter(|acc| acc.rect.overlaps(piece));
                let base = match (folded, local.next(), local.next()) {
                    (None, Some(acc), None) if acc.rect.contains_rect(piece) => {
                        Base::Move(owned(acc.src))
                    }
                    (Some(home), ..) => Base::Folded(owned(home.src)),
                    (None, ..) => Base::Zero,
                };
                let adds = match base {
                    Base::Move(_) => Vec::new(),
                    _ => self
                        .acc
                        .iter()
                        .map(|acc| (owned(acc.src), acc.rect.intersection(piece)))
                        .filter(|(_, part)| !part.is_empty())
                        .collect(),
                };
                Finish {
                    piece: *piece,
                    base,
                    adds,
                }
            })
            .collect()
    }
}

/// The owned buffer behind an accumulator or output home piece.
fn owned(src: Src) -> usize {
    match src {
        Src::Owned(i) => i,
        Src::View(_) => unreachable!("accumulators and output pieces are owned"),
    }
}

/// A rank's plan and the largest scratch it holds at a leaf.
struct Ranked {
    plan: RankPlan,
    peak: u64,
}

/// Replays one rank's op list over rectangles. `receives` holds, sorted,
/// `(rank, tag, mailbox slot of the first receive of that tag)`;
/// `mailbox` counts every rank's slots and grows by one for each send no
/// receive matches.
fn resolve_rank(
    program: &SpmdProgram,
    rank: usize,
    receives: &[(usize, u64, usize)],
    mailbox: &mut [usize],
) -> Ranked {
    let out = program.output();
    let homes = |id| program.owners(id).map_or(&[][..], |o| &o.pieces()[rank]);
    let tensors = program.tensors.len();
    let mut s = Store::new(tensors, out.index(), homes(out));
    for t in (0..tensors).filter(|&t| t != out.index()) {
        for (piece, rect) in homes(TensorId(t as u32)).iter().enumerate() {
            s.add_home(t, piece, rect);
        }
    }
    let operands = &program.accessed[1..];
    if operands.contains(&out) {
        s.add_output_homes();
    }
    s.plan.faces = vec![0; operands.len()];
    let csr_arg = program.leaf.0.sparse_arg();
    let compressed = |t: usize| t != out.index() && program.tensors[t].format.has_compressed();

    let mut receive = 0..;
    for op in program.rank_ops(rank) {
        let step = match op {
            // Only a corrupted program names a tensor it does not have.
            _ if op.message().is_some_and(|m| m.tensor.index() >= tensors) => {
                Step::Fail(format!("{}: no such tensor", program.named(op)))
            }
            SpmdOp::Send(m) | SpmdOp::ReduceSend(m) => {
                let (to, rect) = (m.to as usize, program.rect(m.rect));
                let payload = match to < mailbox.len() {
                    true => s.payload(m.tensor.index(), rect).map_err(|missing| {
                        let m = program.named(m);
                        format!("send of {m}: no valid local copy of {missing}")
                    }),
                    false => Err(format!("send of {}: no rank {}", program.named(m), m.to)),
                };
                match payload {
                    Ok(payload) => {
                        let first = receives.binary_search_by_key(&(to, m.tag), |r| (r.0, r.1));
                        let ordinal = first.map(|i| receives[i].2).unwrap_or_else(|_| {
                            mailbox[to] += 1;
                            mailbox[to] - 1
                        });
                        Step::Send {
                            to,
                            ordinal,
                            payload,
                            csr: compressed(m.tensor.index()),
                        }
                    }
                    Err(fail) => Step::Fail(fail),
                }
            }
            SpmdOp::Recv(m) | SpmdOp::ReduceRecv(m) => {
                let landing = match m.tensor == out {
                    true => Landing::Fold(s.fold(program.rect(m.rect))),
                    false => Landing::View(s.receive(m.tensor.index(), program.rect(m.rect))),
                };
                let ordinal = receive.next().expect("an unbounded range");
                Step::Recv { ordinal, landing }
            }
            SpmdOp::Compute { bounds, .. } => {
                let bounds = program.bounds(*bounds);
                let leaf = program.leaf_rects(bounds).map(|rects| {
                    let leaf = s.leaf(program, bounds, rects, operands, csr_arg);
                    leaf.map(Box::new)
                });
                s.peak = s.peak.max(s.scratch_bytes);
                match leaf.transpose() {
                    Ok(leaf) => Step::Compute(leaf),
                    Err(fail) => Step::Fail(fail),
                }
            }
            SpmdOp::RetireScratch { keep } => Step::Retire(s.retire(*keep)),
        };
        let failed = matches!(step, Step::Fail(_));
        s.plan.steps.push(step);
        if failed {
            break;
        }
    }
    s.plan.finish = s.finish();
    Ranked {
        peak: s.peak,
        plan: s.plan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distal_machine::geom::{copy_rect, Point};

    fn pt(c: &[i64]) -> Point {
        Point::from_slice(c)
    }

    fn span(lo: &[i64], hi: &[i64]) -> Rect {
        Rect::new(pt(lo), pt(hi))
    }

    /// A store of a rank owning `out_pieces` of output tensor 0, whose
    /// input tensor 1 has `homes` as home pieces.
    fn store<'p>(homes: &[Rect], out_pieces: &'p [Rect]) -> Store<'p> {
        let mut s = Store::new(2, 0, out_pieces);
        for (piece, rect) in homes.iter().enumerate() {
            s.add_home(1, piece, rect);
        }
        s
    }

    /// The buffer that holds `p` of `tensor`: the first in priority order
    /// whose rectangle contains it — the per-point oracle every recipe is
    /// held to.
    fn lookup(s: &Store<'_>, tensor: usize, p: &Point) -> Option<Src> {
        s.bufs(tensor)
            .find(|b| b.rect.contains_point(p))
            .map(|b| b.src)
    }

    #[test]
    fn scratch_generations_newest_first() {
        let mut s = store(&[], &[]);
        let first = s.receive(1, &span(&[0], &[1]));
        assert_eq!(s.retire(1), []);
        let second = s.receive(1, &span(&[0], &[1]));
        // Both generations alive; newest wins.
        assert_eq!(lookup(&s, 1, &pt(&[0])), Some(Src::View(second)));
        // Another retire with keep = 1 drops the older generation only.
        assert_eq!(s.retire(1), [first]);
        assert_eq!(lookup(&s, 1, &pt(&[0])), Some(Src::View(second)));
        assert_eq!(s.retire(0), [second]);
        assert_eq!(lookup(&s, 1, &pt(&[0])), None);
        assert_eq!(s.scratch_bytes, 0);
    }

    #[test]
    fn a_read_prefers_newer_scratch_over_older_scratch_over_home() {
        // Three overlapping layers of a 4x4 tensor: home everywhere, an old
        // scratch tile over rows 0..=2, a newer one over columns 2..=3 of
        // rows 1..=3.
        let mut s = store(&[Rect::sized(&[4, 4])], &[]);
        let old = s.receive(1, &span(&[0, 0], &[2, 3]));
        s.retire(1);
        let new = s.receive(1, &span(&[1, 2], &[3, 3]));
        let whole = Rect::sized(&[4, 4]);
        assert_eq!(s.lend(1, &whole), None, "no single buffer holds it");
        let parts = gather(s.bufs(1), &whole).unwrap();
        assert_eq!(
            parts,
            [
                Part {
                    src: Src::View(new),
                    rect: span(&[1, 2], &[3, 3])
                },
                Part {
                    src: Src::View(old),
                    rect: span(&[0, 0], &[0, 3])
                },
                Part {
                    src: Src::View(old),
                    rect: span(&[1, 0], &[2, 1])
                },
                Part {
                    src: Src::View(0),
                    rect: span(&[3, 0], &[3, 1])
                },
            ]
        );
        // Inside the newest tile, the tile lends itself.
        let inside = span(&[2, 2], &[3, 3]);
        assert_eq!(s.lend(1, &inside), Some(Src::View(new)));
        // A face the newest tile covers only part of is never lent.
        assert_eq!(s.lend(1, &span(&[2, 1], &[3, 2])), None);
    }

    #[test]
    fn a_gather_names_the_uncovered_part() {
        let s = store(&[span(&[0, 0], &[1, 3])], &[]);
        // Rows 2..=3 have no local copy.
        assert_eq!(
            gather(s.bufs(1), &Rect::sized(&[4, 4])),
            Err(span(&[2, 0], &[3, 3]))
        );
        // The output's accumulators are empty; empty rects are never missing.
        assert_eq!(gather(&s.acc, &Rect::sized(&[2])), Err(Rect::sized(&[2])));
        assert_eq!(gather(s.bufs(1), &Rect::empty(2)), Ok(vec![]));
    }

    /// xorshift64*, the generator the sibling suites use.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: u64) -> i64 {
            (self.next() % n) as i64
        }

        /// A rectangle inside `0..extent` per dimension; one in eight is
        /// empty in some dimension, one in four 1-wide in some dimension.
        fn rect(&mut self, extents: &[i64]) -> Rect {
            let shape = self.below(8);
            let odd = self.below(extents.len() as u64) as usize;
            let (lo, hi) = extents
                .iter()
                .enumerate()
                .map(|(d, &n)| {
                    let lo = self.below(n as u64);
                    match (d == odd, shape) {
                        (true, 0) => (lo, lo - 1),
                        (true, 1 | 2) => (lo, lo),
                        _ => (lo, lo + self.below((n - lo) as u64)),
                    }
                })
                .unzip();
            Rect::new(Point::new(lo), Point::new(hi))
        }

        /// A rectangle containing `inner` inside `0..extent`.
        fn around(&mut self, inner: &Rect, extents: &[i64]) -> Rect {
            let (lo, hi) = (0..extents.len())
                .map(|d| {
                    let lo = inner.lo()[d] - self.below(inner.lo()[d] as u64 + 1);
                    let room = extents[d] - inner.hi()[d];
                    (lo, inner.hi()[d] + self.below(room as u64))
                })
                .unzip();
            Rect::new(Point::new(lo), Point::new(hi))
        }
    }

    #[test]
    fn every_resolved_read_is_what_the_per_point_lookup_finds() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let (mut lent, mut gathered, mut refused) = (0, 0, 0);
        for case in 0..1024 {
            let dims = 1 + rng.below(3) as usize;
            let extents: Vec<i64> = (0..dims).map(|_| 1 + rng.below(7)).collect();
            let homes: Vec<Rect> = (0..1 + rng.below(3)).map(|_| rng.rect(&extents)).collect();
            let mut s = store(&homes, &[]);
            // Up to three scratch generations over the homes, overlapping
            // each other at random, kept by a retire that drops none.
            let mut allocs: Vec<Rect> = homes.clone();
            for _ in 0..rng.below(4) {
                for _ in 0..rng.below(3) {
                    let rect = rng.rect(&extents);
                    let view = s.receive(1, &rect);
                    assert_eq!(view, allocs.len());
                    // A payload lent out of a wider buffer of its sender.
                    allocs.push(match rect.is_empty() {
                        true => rect,
                        false => rng.around(&rect, &extents),
                    });
                }
                assert_eq!(s.retire(3), []);
            }
            // Every view slot's data: values no other slot holds, laid out
            // over its alloc.
            let mut serial = 0.0;
            let data: Vec<Vec<f64>> = allocs
                .iter()
                .map(|alloc| {
                    (0..volume(alloc))
                        .map(|_| {
                            serial += 1.0;
                            serial
                        })
                        .collect()
                })
                .collect();
            let value = |src: Src, p: &Point| match src {
                Src::View(v) => data[v][allocs[v].linearize(p)],
                Src::Owned(_) => unreachable!("no owned buffers in this store"),
            };
            for _ in 0..4 {
                // A face: random, or — so that containment is common —
                // inside one of the buffers.
                let bufs: Vec<&Sym> = s.bufs(1).collect();
                let face = match rng.below(2) {
                    0 => rng.rect(&extents),
                    _ => {
                        let inside = &bufs[rng.below(bufs.len() as u64) as usize].rect;
                        rng.rect(&extents).intersection(inside)
                    }
                };
                let first = bufs.iter().find(|b| b.rect.overlaps(&face));
                if let Some(src) = s.lend(1, &face) {
                    let lender = first.expect("a lender overlaps the face");
                    assert_eq!(lender.src, src, "case {case}");
                    for p in face.points() {
                        assert_eq!(Some(src), lookup(&s, 1, &p), "case {case}: {p}");
                    }
                    lent += 1;
                    continue;
                }
                // Refused: no buffer overlaps the face, or the first that
                // does holds only part of it.
                assert!(
                    first.is_none_or(|b| !b.rect.contains_rect(&face)),
                    "case {case}: {face:?} lies inside {first:?}"
                );
                let mut copied = vec![f64::NAN; volume(&face)];
                match gather(s.bufs(1), &face) {
                    Ok(parts) => {
                        for part in &parts {
                            let Src::View(v) = part.src else {
                                unreachable!()
                            };
                            copy_rect(&allocs[v], &data[v], &face, &mut copied, &part.rect, false);
                        }
                        for (p, got) in face.points().zip(&copied) {
                            let want = lookup(&s, 1, &p).map(|src| value(src, &p));
                            assert_eq!(
                                Some(got.to_bits()),
                                want.map(f64::to_bits),
                                "case {case}: {p}"
                            );
                        }
                        gathered += 1;
                    }
                    Err(missing) => {
                        assert!(face.contains_rect(&missing) && !missing.is_empty());
                        for p in missing.points() {
                            assert_eq!(lookup(&s, 1, &p), None, "case {case}: {p}");
                        }
                        refused += 1;
                    }
                }
            }
        }
        // The generator reaches every outcome.
        assert!(
            lent >= 64 && gathered >= 64 && refused >= 64,
            "{lent} {gathered} {refused}"
        );
    }

    #[test]
    fn a_fold_splits_between_home_pieces_and_accumulators() {
        // The rank owns output columns 0..=1; a leaf already accumulated
        // column 2.
        let owned = [span(&[0], &[1])];
        let mut s = store(&[], &owned);
        let acc = s.accumulator(&span(&[2], &[2]));
        let first = s.fold(&Rect::sized(&[4]));
        let second = s.fold(&Rect::sized(&[4]));
        // Columns 0..=1 land in the piece's buffer, made by the first fold;
        // column 2 in the existing accumulator, column 3 in a fresh one over
        // the payload's rectangle, appended behind it.
        let (home, fresh) = (1, 2);
        assert_eq!(
            first,
            [
                (home, span(&[0], &[1])),
                (acc, span(&[2], &[2])),
                (fresh, span(&[3], &[3]))
            ]
        );
        assert_eq!(
            second,
            [
                (home, span(&[0], &[1])),
                (acc, span(&[2], &[2])),
                (fresh, span(&[3], &[3]))
            ]
        );
        assert_eq!(
            s.plan.owned,
            [span(&[2], &[2]), owned[0], Rect::sized(&[4])]
        );
        // Only the home piece reaches the output, with every accumulator
        // over it added.
        let finish = s.finish();
        assert_eq!(finish.len(), 1);
        assert_eq!(finish[0].base, Base::Folded(home));
        assert_eq!(finish[0].adds, [(fresh, span(&[0], &[1]))]);
    }

    #[test]
    fn a_piece_one_accumulator_covers_is_moved_and_the_rest_is_summed() {
        let pieces = [span(&[0], &[1]), span(&[2], &[3]), span(&[4], &[5])];
        let mut s = store(&[], &pieces);
        // Piece 0: one accumulator wider than the piece, nothing folded.
        let wide = s.accumulator(&span(&[0], &[2]));
        // Piece 1: that accumulator, a second one and a folded message.
        let narrow = s.accumulator(&span(&[3], &[3]));
        assert_eq!(s.accumulator(&span(&[3], &[3])), narrow, "covering reused");
        s.fold(&span(&[2], &[3]));
        // Piece 2: nothing at all.
        let finish = s.finish();
        assert_eq!(finish[0].base, Base::Move(wide));
        assert!(finish[0].adds.is_empty());
        let home = 2;
        assert_eq!(finish[1].base, Base::Folded(home));
        assert_eq!(
            finish[1].adds,
            [(wide, span(&[2], &[2])), (narrow, span(&[3], &[3]))]
        );
        assert_eq!((&finish[2].base, finish[2].adds.len()), (&Base::Zero, 0));
    }

    #[test]
    fn a_statement_reading_its_output_reads_zero_home_pieces() {
        let owned = [span(&[0], &[1])];
        let mut s = store(&[], &owned);
        s.add_output_homes();
        assert_eq!(s.lend(0, &span(&[1], &[1])), Some(Src::Owned(0)));
        assert_eq!(s.plan.owned, owned);
        // Without it, the output has no buffer to read.
        assert_eq!(store(&[], &owned).lend(0, &owned[0]), None);
    }
}
