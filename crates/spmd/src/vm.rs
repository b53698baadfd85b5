//! The rank virtual machine: walks a [`Resolved`] program with real
//! numerics.
//!
//! Everything the VM decides without looking at a value was decided when
//! the program was resolved ([`crate::resolve`]): each rank's op list is a
//! list of [`Step`]s naming slots and fixed copy recipes, so a run is an
//! index walk. One walker, [`RankRun::step`], runs a rank's next step; the
//! sequential transport calls it in the program's global op order
//! ([`run_sequential`]), the threaded transport ([`crate::transport`])
//! from the worker that owns the rank, and the two differ only in how a
//! payload travels ([`Post`]) — which is the root of their bit parity.
//!
//! What a rank addresses:
//!
//! * *view slots* — `(alloc, data)` borrows that nothing writes during a
//!   run: the rank's home pieces of the input tensors (seeded once per
//!   binding, "data at rest": placement is free in the SPMD model — a
//!   binding executes again and again without being seeded again), then
//!   every input payload it receives. A bound dense operand's home pieces
//!   are all one view of the caller's data, `alloc` the whole tensor
//!   ([`Homes::lend`]); any other input's are its tiles. A payload is a
//!   view too: an input send whose rectangle lies in one buffer lends that
//!   buffer's `(alloc, data)`, a relay forwards the view it received, and
//!   the receiver files it as is, so a broadcast tile or a Cannon shift is
//!   never copied;
//! * *owned buffers*, carved per rank out of one zeroed arena sized at
//!   resolution ([`with_arenas`]): accumulators, the output home pieces
//!   folds land in, and the copies a send makes when no single buffer
//!   holds its rectangle or when it ships an output partial sum (which
//!   the receiver folds, and later leaves and folds of the sender still
//!   write);
//! * one *face buffer* per operand, for a leaf face no single buffer holds.
//!
//! Data moves a rectangle at a time, as in the paper's runtime (§6):
//! seeding, gathers, folds and the output assembly are strided row copies
//! through [`distal_machine::geom::copy_rect`], and a leaf's operands do
//! not move at all — the kernel strides through the buffer lent to it.

use crate::lower::SpmdError;
use crate::ops::SpmdOp;
use crate::program::{rect_inner_extent, MeasuredRun, SpmdProgram};
use crate::resolve::{volume, Src, Step};
use crate::resolve::{Base, Face, FaceRead, Landing, Leaf, Part, Payload, RankPlan, Resolved};
use crate::stats::CommStats;
use distal_machine::geom::{copy_rect, fill_rect, Point, Rect};
use distal_runtime::kernel::{ArgData, Kernel, KernelArg, KernelCtx};
use distal_runtime::pool;
use distal_runtime::program::Privilege;
use distal_sparse::{csr_payload_bytes, stored_entries, SparseBuffer};
use std::sync::Arc;

/// A rectangular buffer: `rect` in tensor space, row-major `data`.
#[derive(Debug)]
pub(crate) struct Buf {
    /// The tensor-space rectangle this buffer covers.
    pub(crate) rect: Rect,
    /// Row-major values within `rect`.
    pub(crate) data: Vec<f64>,
}

/// Every rank's home pieces of the input tensors — what a binding seeds
/// once and its executions borrow — indexed by tensor (in
/// `SpmdProgram::tensors` order): a bound dense operand lent whole, any
/// other input tiled.
#[derive(Debug, Default)]
pub(crate) struct Homes(Vec<Option<Pieces>>);

/// How one input tensor's home pieces are held.
#[derive(Debug)]
enum Pieces {
    /// Tiled, by rank, then piece.
    Tiled(Vec<Vec<Buf>>),
    /// The caller's data, row-major over the whole tensor `rect`, lent as
    /// every rank's view of each of its home pieces.
    Lent { rect: Rect, data: Arc<Vec<f64>> },
}

impl Homes {
    /// Nothing seeded yet, for a program of `tensors` tensors.
    pub(crate) fn new(tensors: usize) -> Self {
        Homes((0..tensors).map(|_| None).collect())
    }

    /// Tiles `data` (row-major over `rect`) into `pieces[rank]` for every
    /// rank — for an input that is not lent, the one copy of an element
    /// between its caller and a leaf.
    pub(crate) fn seed(&mut self, tensor: usize, rect: &Rect, data: &[f64], pieces: &[Vec<Rect>]) {
        let tile = |piece: &Rect| {
            let mut tile = pool::take(volume(piece));
            copy_rect(rect, data, piece, &mut tile, piece, false);
            Buf {
                rect: *piece,
                data: tile,
            }
        };
        let tiles = pieces.iter().map(|p| p.iter().map(tile).collect());
        self.0[tensor] = Some(Pieces::Tiled(tiles.collect()));
    }

    /// Lends `data` (row-major over `rect`, the whole tensor) as every
    /// rank's home pieces: no element is copied.
    pub(crate) fn lend(&mut self, tensor: usize, rect: &Rect, data: Arc<Vec<f64>>) {
        self.0[tensor] = Some(Pieces::Lent { rect: *rect, data });
    }

    /// Whether `tensor` was seeded.
    pub(crate) fn holds(&self, tensor: usize) -> bool {
        self.0.get(tensor).is_some_and(Option::is_some)
    }

    /// `tensor` (shaped `rect`) put back together from its pieces; `None`
    /// when it was never seeded.
    pub(crate) fn assemble(&self, tensor: usize, rect: &Rect) -> Option<Vec<f64>> {
        let ranks = match self.0.get(tensor)?.as_ref()? {
            Pieces::Tiled(ranks) => ranks,
            Pieces::Lent { data, .. } => return Some(data.to_vec()),
        };
        let mut data = vec![0.0; rect.volume().max(1) as usize];
        for buf in ranks.iter().flatten() {
            copy_rect(&buf.rect, &buf.data, rect, &mut data, &buf.rect, false);
        }
        Some(data)
    }

    /// The view of `rank`'s home piece `piece` of `tensor`.
    fn piece(&self, tensor: usize, rank: usize, piece: usize) -> Option<View<'_>> {
        match self.0.get(tensor)?.as_ref()? {
            Pieces::Tiled(ranks) => {
                let buf = ranks.get(rank)?.get(piece)?;
                Some((&buf.rect, &buf.data))
            }
            Pieces::Lent { rect, data } => Some((rect, data)),
        }
    }
}

impl Drop for Homes {
    /// Every tile goes back to the pool the next binding takes them from;
    /// lent data is the caller's.
    fn drop(&mut self) {
        let tiles = std::mem::take(&mut self.0).into_iter().flatten();
        let tiles = tiles.filter_map(|pieces| match pieces {
            Pieces::Tiled(ranks) => Some(ranks),
            Pieces::Lent { .. } => None,
        });
        pool::give_all(tiles.flatten().flatten().map(|b| b.data));
    }
}

/// A read-only borrow of a buffer: the rectangle it is laid out over, and
/// its data.
pub(crate) type View<'a> = (&'a Rect, &'a [f64]);

/// A payload on its way to its receiver: a view of the sender's buffer,
/// which nothing writes for the rest of the run, filed by the receiver's
/// mailbox slot.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Packet<'a> {
    pub(crate) to: usize,
    pub(crate) ordinal: usize,
    pub(crate) from: usize,
    pub(crate) tag: u64,
    pub(crate) alloc: &'a Rect,
    pub(crate) data: &'a [f64],
}

/// How payloads travel: straight into the receiver's mailbox on the
/// sequential transport, over the owning worker's channel on the threaded
/// one.
pub(crate) trait Post<'a> {
    /// Ships `packet`; never blocks.
    fn send(&mut self, packet: Packet<'a>);

    /// The payload in `rank`'s mailbox slot `ordinal`, if it has arrived.
    fn take(&mut self, rank: usize, ordinal: usize) -> Option<Packet<'a>>;
}

/// Payloads filed by mailbox slot until their receive takes them.
#[derive(Debug)]
pub(crate) struct Mailboxes<'a> {
    boxes: Vec<Vec<Option<Packet<'a>>>>,
    /// Payloads for a slot that was already full.
    stray: Vec<Packet<'a>>,
}

impl<'a> Mailboxes<'a> {
    /// One mailbox per entry of `slots`, that many slots each.
    pub(crate) fn new(slots: impl IntoIterator<Item = usize>) -> Self {
        Mailboxes {
            boxes: slots.into_iter().map(|n| vec![None; n]).collect(),
            stray: Vec::new(),
        }
    }

    /// Files `packet` in mailbox `b`.
    pub(crate) fn file(&mut self, b: usize, packet: Packet<'a>) {
        match &mut self.boxes[b][packet.ordinal] {
            empty @ None => *empty = Some(packet),
            Some(_) => self.stray.push(packet),
        }
    }

    /// Takes slot `ordinal` of mailbox `b`.
    pub(crate) fn take(&mut self, b: usize, ordinal: usize) -> Option<Packet<'a>> {
        self.boxes[b][ordinal].take()
    }

    /// Every payload no receive took.
    pub(crate) fn into_left(self) -> impl Iterator<Item = Packet<'a>> {
        let filed = self.boxes.into_iter().flatten().flatten();
        self.stray.into_iter().chain(filed)
    }
}

impl<'a> Post<'a> for Mailboxes<'a> {
    fn send(&mut self, packet: Packet<'a>) {
        self.file(packet.to, packet);
    }

    fn take(&mut self, rank: usize, ordinal: usize) -> Option<Packet<'a>> {
        Mailboxes::take(self, rank, ordinal)
    }
}

/// A finished run must have delivered every payload: one nobody received
/// means the program lost a receive, and the output would miss what it
/// carried. Names the lowest such tag, its sender and its receiver.
pub(crate) fn check_delivered<'a>(
    left: impl IntoIterator<Item = Packet<'a>>,
) -> Result<(), SpmdError> {
    match left.into_iter().min_by_key(|p| p.tag) {
        None => Ok(()),
        Some(p) => Err(SpmdError::Data(format!(
            "payload #{} from rank {} to rank {} was never received",
            p.tag, p.from, p.to
        ))),
    }
}

/// Runs `f` over one zeroed arena per rank, each sized at resolution for
/// the rank's owned and face buffers, and gives them back to the pool.
pub(crate) fn with_arenas<R>(resolved: &Resolved, f: impl FnOnce(&mut [Vec<f64>]) -> R) -> R {
    let mut arenas: Vec<Vec<f64>> = resolved
        .ranks
        .iter()
        .map(|plan| pool::take_zeroed(plan.arena_len()))
        .collect();
    let result = f(&mut arenas);
    pool::give_all(arenas);
    result
}

/// Consecutive slices of `lens` elements each, off the front of `all`.
fn split<T>(
    mut all: &mut [T],
    lens: impl IntoIterator<Item = usize>,
) -> impl Iterator<Item = &mut [T]> {
    lens.into_iter().map(move |len| {
        let (head, tail) = std::mem::take(&mut all).split_at_mut(len);
        all = tail;
        head
    })
}

/// One run's slots: every rank's view slots, its home pieces filled in,
/// and its owned and face buffers carved out of its arena.
pub(crate) struct Tables<'a> {
    views: Vec<Option<View<'a>>>,
    buffers: Vec<&'a mut [f64]>,
}

impl<'a> Tables<'a> {
    pub(crate) fn new(
        resolved: &'a Resolved,
        homes: &'a Homes,
        arenas: &'a mut [Vec<f64>],
    ) -> Self {
        let mut views = Vec::new();
        let mut buffers = Vec::new();
        for ((rank, plan), arena) in resolved.ranks.iter().enumerate().zip(arenas) {
            let pieces = plan.homes.iter();
            views.extend(pieces.map(|&(tensor, piece)| homes.piece(tensor, rank, piece)));
            views.resize(views.len() + plan.views - plan.homes.len(), None);
            let lens = plan
                .owned
                .iter()
                .map(volume)
                .chain(plan.faces.iter().copied());
            buffers.extend(split(arena, lens));
        }
        Tables { views, buffers }
    }

    /// Every rank's run over these slots, in rank order.
    pub(crate) fn runs<'r>(
        &'r mut self,
        program: &'a SpmdProgram,
        resolved: &'a Resolved,
    ) -> Vec<RankRun<'r, 'a>> {
        let plans = resolved.ranks.iter();
        let views = split(&mut self.views, plans.clone().map(|p| p.views));
        let buffers = split(
            &mut self.buffers,
            plans.clone().map(|p| p.owned.len() + p.faces.len()),
        );
        plans
            .zip(views)
            .zip(buffers)
            .enumerate()
            .map(|(rank, ((plan, views), buffers))| {
                let (owned, faces) = buffers.split_at_mut(plan.owned.len());
                RankRun {
                    rank,
                    plan,
                    ops: program.rank_ops(rank),
                    pc: 0,
                    views,
                    owned,
                    faces,
                    csr_bytes: Vec::new(),
                }
            })
            .collect()
    }
}

/// One rank's run: a cursor over its resolved steps, and the slots they
/// address.
pub(crate) struct RankRun<'r, 'a> {
    pub(crate) rank: usize,
    pub(crate) plan: &'a RankPlan,
    ops: &'a [SpmdOp],
    pc: usize,
    views: &'r mut [Option<View<'a>>],
    owned: &'r mut [&'a mut [f64]],
    faces: &'r mut [&'a mut [f64]],
    /// Exact wire bytes of the rank's compressed-operand sends, in order.
    csr_bytes: Vec<u64>,
}

impl<'a> RankRun<'_, 'a> {
    /// Whether every step ran.
    pub(crate) fn done(&self) -> bool {
        self.pc == self.plan.steps.len()
    }

    /// The op the rank stands at, and its index among the rank's ops.
    pub(crate) fn at(&self) -> (&'a SpmdOp, usize, usize) {
        (&self.ops[self.pc], self.pc, self.ops.len())
    }

    /// Runs the rank's next step: `Ok(false)` when it is a receive whose
    /// payload has not arrived, an error when the step fails.
    pub(crate) fn step(
        &mut self,
        leaf: &dyn Kernel,
        post: &mut impl Post<'a>,
    ) -> Result<bool, SpmdError> {
        let plan: &'a RankPlan = self.plan;
        let (views, owned) = (&mut *self.views, &mut *self.owned);
        match &plan.steps[self.pc] {
            Step::Send {
                to,
                ordinal,
                payload,
                csr,
            } => {
                let m = self.ops[self.pc]
                    .message()
                    .expect("a send carries its message");
                let (alloc, data) = match payload {
                    Payload::Lend(v) => view(views, *v)?,
                    Payload::Copy { into, parts } => {
                        let copy = std::mem::take(&mut owned[*into]);
                        let alloc = &plan.owned[*into];
                        gather(views, owned, plan, parts, alloc, copy)?;
                        let copy: &'a [f64] = copy;
                        (alloc, copy)
                    }
                };
                if *csr {
                    self.csr_bytes.push(exact_bytes(alloc, data, &m.rect));
                }
                post.send(Packet {
                    to: *to,
                    ordinal: *ordinal,
                    from: self.rank,
                    tag: m.tag,
                    alloc,
                    data,
                });
            }
            Step::Recv { ordinal, landing } => {
                let Some(p) = post.take(self.rank, *ordinal) else {
                    return Ok(false);
                };
                match landing {
                    Landing::View(v) => views[*v] = Some((p.alloc, p.data)),
                    Landing::Fold(parts) => {
                        for (o, part) in parts {
                            copy_rect(p.alloc, p.data, &plan.owned[*o], owned[*o], part, true);
                        }
                    }
                }
            }
            Step::Compute(Some(l)) => run_leaf(leaf, plan, views, owned, self.faces, l)?,
            Step::Compute(None) => {}
            Step::Retire(freed) => {
                for &v in freed {
                    views[v] = None;
                }
            }
            Step::Fail(message) => return Err(SpmdError::Data(message.clone())),
        }
        self.pc += 1;
        Ok(true)
    }
}

/// View slot `v`. Only a home piece of an input the binding never seeded
/// is empty: the walk frees a received slot after its last read.
fn view<'a>(views: &[Option<View<'a>>], v: usize) -> Result<View<'a>, SpmdError> {
    views[v].ok_or_else(|| {
        SpmdError::Data(format!(
            "view slot {v} holds no data: an input was never seeded"
        ))
    })
}

/// `src` as a view.
fn read<'s>(
    views: &'s [Option<View<'_>>],
    owned: &'s [&mut [f64]],
    plan: &'s RankPlan,
    src: Src,
) -> Result<View<'s>, SpmdError> {
    match src {
        Src::View(v) => view(views, v),
        Src::Owned(o) => Ok((&plan.owned[o], &owned[o][..])),
    }
}

/// Copies every part of a gather recipe into `dst`, laid out over
/// `dst_alloc`.
fn gather(
    views: &[Option<View<'_>>],
    owned: &[&mut [f64]],
    plan: &RankPlan,
    parts: &[Part],
    dst_alloc: &Rect,
    dst: &mut [f64],
) -> Result<(), SpmdError> {
    for part in parts {
        let (alloc, data) = read(views, owned, plan, part.src)?;
        copy_rect(alloc, data, dst_alloc, dst, &part.rect, false);
    }
    Ok(())
}

/// Whether `rect` is one contiguous run of a buffer laid out over `alloc`.
fn runs_whole(rect: &Rect, alloc: &Rect) -> bool {
    (1..rect.dim()).all(|d| rect.extent(d) == alloc.extent(d))
}

/// Exact wire bytes of a compressed operand tile: `pos` plus `(crd, val)`
/// per stored entry of `rect`, counted where the payload lies.
fn exact_bytes(alloc: &Rect, data: &[f64], rect: &Rect) -> u64 {
    let rows = volume(rect) as u64 / rect_inner_extent(rect);
    let stored = if alloc == rect || rect.is_empty() {
        stored_entries(&data[..volume(rect)])
    } else {
        let last = rect.dim() - 1;
        let width = rect.extent(last) as usize;
        let mut starts = *rect.hi();
        starts[last] = rect.lo()[last];
        let starts = Rect::new(*rect.lo(), starts).points();
        starts
            .map(|row| {
                let at = alloc.linearize(&row);
                stored_entries(&data[at..at + width])
            })
            .sum()
    };
    csr_payload_bytes(rows, stored)
}

/// Runs one leaf: copies the faces no single buffer lends into the rank's
/// face buffers, lends everything else where it lies, and hands the kernel
/// the accumulator mutably beside them. A CSR operand is compressed — the
/// one scan of its face, with `alloc` the face — straight out of the view
/// when the face is one contiguous run of it.
fn run_leaf(
    kernel: &dyn Kernel,
    plan: &RankPlan,
    views: &[Option<View<'_>>],
    owned: &mut [&mut [f64]],
    faces: &mut [&mut [f64]],
    leaf: &Leaf,
) -> Result<(), SpmdError> {
    for (face, buf) in leaf.faces.iter().zip(faces.iter_mut()) {
        let len = volume(&face.rect);
        match &face.read {
            FaceRead::Gather(parts) => {
                gather(views, owned, plan, parts, &face.rect, &mut buf[..len])?
            }
            FaceRead::Lend(src) if face.csr => {
                let (alloc, data) = read(views, owned, plan, *src)?;
                if !runs_whole(&face.rect, alloc) {
                    copy_rect(alloc, data, &face.rect, &mut buf[..len], &face.rect, false);
                }
            }
            FaceRead::Lend(_) => {}
        }
    }
    let acc = std::mem::take(&mut owned[leaf.acc]);
    let operands = leaf.faces.iter().zip(faces.iter());
    let args = operands.map(|(face, buf)| face_arg(plan, views, owned, face, buf));
    let mut args = match args.collect::<Result<Vec<_>, SpmdError>>() {
        Ok(args) => args,
        Err(e) => {
            owned[leaf.acc] = acc;
            return Err(e);
        }
    };
    args.insert(
        0,
        KernelArg {
            privilege: Privilege::ReadWrite,
            rect: leaf.out,
            alloc: plan.owned[leaf.acc],
            data: ArgData::Write(&mut *acc),
            sparse: None,
        },
    );
    let mut ctx = KernelCtx {
        args,
        point: Point::zeros(1),
        scalars: leaf.scalars.clone(),
    };
    kernel.execute(&mut ctx);
    drop(ctx);
    owned[leaf.acc] = acc;
    Ok(())
}

/// The kernel argument of one operand face.
fn face_arg<'x>(
    plan: &'x RankPlan,
    views: &'x [Option<View<'_>>],
    owned: &'x [&mut [f64]],
    face: &'x Face,
    buf: &'x [f64],
) -> Result<KernelArg<'x>, SpmdError> {
    let len = volume(&face.rect);
    let (alloc, data) = match face.read {
        FaceRead::Gather(_) => (&face.rect, &buf[..len]),
        FaceRead::Lend(src) => match read(views, owned, plan, src)? {
            (alloc, _) if face.csr && !runs_whole(&face.rect, alloc) => (&face.rect, &buf[..len]),
            lent => lent,
        },
    };
    let (alloc, data, sparse) = if face.csr {
        let start = alloc.linearize(face.rect.lo());
        let image = SparseBuffer::from_dense(&face.rect.extents(), &data[start..start + len]);
        (&face.rect, &[][..], Some(Arc::new(image)))
    } else {
        (alloc, data, None)
    };
    Ok(KernelArg {
        privilege: Privilege::Read,
        rect: face.rect,
        alloc: *alloc,
        data: ArgData::Read(data),
        sparse,
    })
}

/// What one execution produced.
#[derive(Debug)]
pub(crate) struct Run {
    /// The output tensor, row-major.
    pub(crate) output: Vec<f64>,
    /// Wall-clock timings, on the threaded transport.
    pub(crate) measured: Option<MeasuredRun>,
    /// Per rank, the exact bytes of its compressed-operand sends.
    csr_bytes: Vec<Vec<u64>>,
}

impl Run {
    /// Assembles the output out of `runs` (in rank order): every rank
    /// writes its home pieces straight into the one buffer. The pieces
    /// cover the tensor (every distribution does), so the buffer starts
    /// with whatever its last owner left in it.
    pub(crate) fn new(
        resolved: &Resolved,
        runs: Vec<RankRun<'_, '_>>,
        measured: Option<MeasuredRun>,
    ) -> Self {
        let out = &resolved.output;
        let mut output = pool::take(out.volume().max(1) as usize);
        for run in &runs {
            let (plan, owned) = (run.plan, &*run.owned);
            for f in &plan.finish {
                match f.base {
                    Base::Move(o) | Base::Folded(o) => {
                        copy_rect(&plan.owned[o], owned[o], out, &mut output, &f.piece, false)
                    }
                    Base::Zero => fill_rect(out, &mut output, &f.piece, 0.0),
                }
                for (o, part) in &f.adds {
                    copy_rect(&plan.owned[*o], owned[*o], out, &mut output, part, true);
                }
            }
        }
        Run {
            output,
            measured,
            csr_bytes: runs.into_iter().map(|run| run.csr_bytes).collect(),
        }
    }

    /// The executed communication statistics: every message charged its
    /// flat payload, except compressed operand tiles, charged their exact
    /// CSR payload (`pos` plus per-stored-entry `crd`/`vals`), which
    /// refines the static density estimate of [`SpmdProgram::stats`].
    pub(crate) fn stats(&self, program: &SpmdProgram, resolved: &Resolved) -> CommStats {
        let mut sent = Vec::new();
        for (rank, (plan, exact)) in resolved.ranks.iter().zip(&self.csr_bytes).enumerate() {
            let mut exact = exact.iter();
            for (op, step) in program.rank_ops(rank).iter().zip(&plan.steps) {
                if let (Step::Send { csr, .. }, Some(m)) = (step, op.message()) {
                    let bytes = match csr {
                        true => *exact.next().expect("one count per compressed send"),
                        false => m.bytes(),
                    };
                    sent.push((m, bytes));
                }
            }
        }
        CommStats::from_weighted(program, &sent)
    }
}

/// The sequential transport: one loop over the program's global op order,
/// each op the next step of its rank, every payload filed straight into
/// its receiver's mailbox. The global order puts every send before its
/// receive, so a receive that finds its slot empty is a lost send.
pub(crate) fn run_sequential(
    program: &SpmdProgram,
    resolved: &Resolved,
    homes: &Homes,
) -> Result<Run, SpmdError> {
    with_arenas(resolved, |arenas| {
        let mut tables = Tables::new(resolved, homes, arenas);
        let mut runs = tables.runs(program, resolved);
        let mut post = Mailboxes::new(resolved.ranks.iter().map(|plan| plan.mailbox));
        let leaf = &*program.leaf.0;
        for &rank in &program.order {
            let run = &mut runs[rank];
            if !run.step(leaf, &mut post)? {
                let m = run.at().0.message().expect("only receives wait");
                let m = program.named(m);
                return Err(SpmdError::Data(format!("recv before send: {m}")));
            }
        }
        check_delivered(post.into_left())?;
        Ok(Run::new(resolved, runs, None))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use distal_machine::geom::Point;

    fn span(lo: &[i64], hi: &[i64]) -> Rect {
        Rect::new(Point::from_slice(lo), Point::from_slice(hi))
    }

    #[test]
    fn homes_tile_a_tensor_and_put_it_back_together() {
        let whole = Rect::sized(&[2, 4]);
        let data: Vec<f64> = (0..8).map(f64::from).collect();
        let left = span(&[0, 0], &[1, 1]);
        let pieces = [vec![left], vec![span(&[0, 2], &[1, 3])]];
        let mut homes = Homes::new(2);
        assert!(!homes.holds(1));
        homes.seed(1, &whole, &data, &pieces);
        assert!(homes.holds(1) && !homes.holds(0));
        assert_eq!(
            homes.piece(1, 0, 0).unwrap(),
            (&left, &[0.0, 1.0, 4.0, 5.0][..])
        );
        assert_eq!(homes.piece(1, 1, 0).unwrap().1, [2.0, 3.0, 6.0, 7.0]);
        assert!(homes.piece(1, 1, 1).is_none() && homes.piece(0, 0, 0).is_none());
        assert_eq!(homes.assemble(1, &whole), Some(data.clone()));
        assert_eq!(homes.assemble(0, &whole), None);
        // Lent, every piece is a view of the whole tensor.
        let shared = Arc::new(data);
        homes.lend(0, &whole, Arc::clone(&shared));
        assert_eq!(homes.piece(0, 1, 0).unwrap(), (&whole, &shared[..]));
        assert_eq!(homes.assemble(0, &whole).as_ref(), Some(&*shared));
        drop(homes);
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    #[test]
    fn compressed_bytes_count_the_stored_entries_of_a_view() {
        // A 3x4 buffer lends its 2x2 middle: four entries, two of them
        // stored — the same count a flat copy of the face would give.
        let alloc = Rect::sized(&[3, 4]);
        #[rustfmt::skip]
        let data = [
            9.0, 9.0, 9.0, 9.0,
            9.0, 0.0, 1.0, 9.0,
            9.0, 2.0, 0.0, 9.0,
        ];
        let face = span(&[1, 1], &[2, 2]);
        let flat = [0.0, 1.0, 2.0, 0.0];
        assert_eq!(
            exact_bytes(&alloc, &data, &face),
            exact_bytes(&face, &flat, &face)
        );
        assert_eq!(exact_bytes(&face, &flat, &face), csr_payload_bytes(2, 2));
    }

    #[test]
    fn a_payload_nobody_receives_is_named() {
        let rect = Rect::sized(&[1]);
        let mut boxes = Mailboxes::new([1, 1]);
        let packet = |tag, ordinal| Packet {
            to: 1,
            ordinal,
            from: 0,
            tag,
            alloc: &rect,
            data: &[1.5],
        };
        boxes.file(1, packet(7, 0));
        boxes.file(1, packet(5, 0));
        assert_eq!(boxes.take(1, 0).map(|p| p.tag), Some(7));
        assert!(boxes.take(1, 0).is_none());
        // The second payload for a full slot is left over.
        match check_delivered(boxes.into_left()) {
            Err(SpmdError::Data(m)) => {
                assert_eq!(m, "payload #5 from rank 0 to rank 1 was never received")
            }
            other => panic!("expected the stray payload, got {other:?}"),
        }
        assert_eq!(check_delivered(Mailboxes::new([2]).into_left()), Ok(()));
    }
}
