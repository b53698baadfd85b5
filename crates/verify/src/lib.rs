//! Plan-time static verification of message-passing programs.
//!
//! DISTAL's SPMD backend lowers every schedule to a *static* program:
//! per-rank lists of tagged sends/receives, leaf tasks, and scratch
//! fences. The paper argues such programs cannot deadlock because the
//! lowering emits a global linearization — but until this crate, that
//! invariant was only enforced dynamically, by the threaded transport's
//! watchdog turning a lost message into an `SpmdError::Timeout` after 60
//! seconds. This crate makes the invariant (and three more) *checkable at
//! plan time*, once per plan-cache entry, free per bind:
//!
//! 1. **Communication matching** (`comm`) — every tagged receive has
//!    exactly one matching send with identical (tensor, rect, endpoints,
//!    bytes, fold semantics); no orphan sends, no duplicate tags.
//! 2. **Deadlock freedom** (`order`) — the cross-rank happens-before
//!    graph (per-rank program order plus send→receive edges) is acyclic.
//! 3. **Buffer hazards** (`hazard`) — no write-write overlaps on
//!    intersecting rectangles of the same tensor across ranks (unless
//!    the program reduces), and no unordered landings within a scratch
//!    generation.
//! 4. **Shape/bounds legality** (`bounds`) — message rectangles and
//!    task accesses fit their tensors' extents, peers fit the launch
//!    domain, and per-tensor bytes are conserved (sent == received).
//!
//! [`verify`] walks the program once, rank by rank and event by event,
//! and feeds every check from that walk: `bounds` and `hazard` keep
//! per-tensor state, and `comm`'s tag table — the send and receive of
//! every tag, found as the walk meets them — serves both matching and
//! `order`'s happens-before sort. The findings come out grouped by
//! check in the order above: shape legality, matching, deadlock freedom,
//! hazards.
//!
//! The verifier is deliberately independent of `distal-spmd` (which
//! calls it from `SpmdBackend::plan`): it reads any message-passing
//! program through [`Events`], a borrowed view that hands out one event
//! at a time. `distal-spmd` implements it over its own rank lists, so a
//! plan is verified in place; [`VerifyProgram`], the event IR held in
//! memory, is the other implementor. Events name a tensor by
//! [`TensorId`], the index of every per-tensor table; its name only
//! words findings: structured [`Diagnostic`]s naming the offending
//! rank/tensor/tag.

#![forbid(unsafe_code)]

mod bounds;
mod comm;
mod hazard;
mod order;

use distal_core::{Diagnostic, TensorId};
use distal_machine::geom::Rect;
use std::borrow::Cow;

pub use distal_core::{verified_clean, DiagnosticKind, Severity};

/// The identity of one tagged transfer, as seen from one endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Msg {
    /// The matching key: globally unique per transfer in a well-formed
    /// program.
    pub tag: u64,
    /// The other endpoint: destination rank for sends, source rank for
    /// receives.
    pub peer: usize,
    /// The tensor whose cells travel: an index into the program's
    /// tensors ([`Events::tensor`]).
    pub tensor: TensorId,
    /// The rectangle of the tensor being moved.
    pub rect: Rect,
    /// Wire bytes of the payload.
    pub bytes: u64,
    /// True when the payload *folds* (`+=`) into the destination —
    /// reduction relays and output gathers — rather than landing as a
    /// fresh copy. Folds may legally overlap; landings may not.
    pub fold: bool,
}

/// One tensor access of a leaf task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// The tensor accessed: an index into the program's tensors
    /// ([`Events::tensor`]).
    pub tensor: TensorId,
    /// The rectangle touched.
    pub rect: Rect,
    /// True for writes (the task's output), false for reads.
    pub write: bool,
}

/// One event in a rank's program, in execution order. `A` holds a task's
/// accesses: a list in [`VerifyProgram`], an iterator in the events an
/// [`Events`] view hands out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event<A = Vec<Access>> {
    /// Inject a tagged payload toward `msg.peer` (never blocks).
    Send(Msg),
    /// Block until the payload tagged `msg.tag` arrives from `msg.peer`.
    Recv(Msg),
    /// Run a leaf task over the listed accesses.
    Task {
        /// Every tensor rectangle the task touches.
        accesses: A,
    },
    /// A scratch-generation boundary (the SPMD `RetireScratch`): landings
    /// before the fence are retired, so overlap checks reset here.
    Fence,
}

/// A message-passing program as the verifier reads it: per-rank event
/// lists, read one event at a time, and the tensors they operate over.
/// An implementor maps its own representation as each event is read, so
/// verifying needs no copy of the program.
pub trait Events {
    /// The launch domain's size: events live on ranks `0..ranks()`.
    fn ranks(&self) -> usize;

    /// How many events rank `rank` runs.
    fn events(&self, rank: usize) -> usize;

    /// Event `i` of rank `rank`, in program order. A task's accesses come
    /// out as they are read, without a heap allocation.
    fn event(&self, rank: usize, i: usize) -> Event<impl Iterator<Item = Access> + '_>;

    /// How many tensors the program declares: ids `0..tensor_count()`.
    fn tensor_count(&self) -> usize;

    /// The name and full extent rectangle (`Rect::sized(dims)`) of tensor
    /// `id`; `None` for an id the program does not declare.
    fn tensor(&self, id: TensorId) -> Option<(&str, Rect)>;

    /// True when distributed loops reduce: different ranks then legally
    /// write overlapping output rectangles (contributions fold).
    fn reduces(&self) -> bool;
}

/// A whole program in the verifier's event IR: per-rank event lists plus
/// the tensors they operate over, whose names it borrows.
#[derive(Clone, Debug)]
pub struct VerifyProgram<'n> {
    /// Per tensor id, the tensor's name and full extent rectangle
    /// (`Rect::sized(dims)`): the program's one name table.
    pub tensors: Vec<(&'n str, Rect)>,
    /// One event list per rank, in program order. The launch domain is
    /// `0..ranks.len()`.
    pub ranks: Vec<Vec<Event>>,
    /// True when distributed loops reduce: different ranks then legally
    /// write overlapping output rectangles (contributions fold).
    pub reduces: bool,
}

impl<'n> VerifyProgram<'n> {
    /// Copies `program`, read through its [`Events`] view, into the IR.
    pub fn from_events(program: &'n impl Events) -> Self {
        let ranks = (0..program.ranks())
            .map(|rank| {
                (0..program.events(rank))
                    .map(|i| match program.event(rank, i) {
                        Event::Send(m) => Event::Send(m),
                        Event::Recv(m) => Event::Recv(m),
                        Event::Task { accesses } => Event::Task {
                            accesses: accesses.collect(),
                        },
                        Event::Fence => Event::Fence,
                    })
                    .collect()
            })
            .collect();
        let tensors = (0..program.tensor_count() as u32)
            .map(|t| program.tensor(TensorId(t)).expect("a declared tensor"))
            .collect();
        VerifyProgram {
            tensors,
            ranks,
            reduces: program.reduces(),
        }
    }
}

impl Events for VerifyProgram<'_> {
    fn ranks(&self) -> usize {
        self.ranks.len()
    }

    fn events(&self, rank: usize) -> usize {
        self.ranks[rank].len()
    }

    fn event(&self, rank: usize, i: usize) -> Event<impl Iterator<Item = Access> + '_> {
        match &self.ranks[rank][i] {
            Event::Send(m) => Event::Send(*m),
            Event::Recv(m) => Event::Recv(*m),
            Event::Task { accesses } => Event::Task {
                accesses: accesses.iter().copied(),
            },
            Event::Fence => Event::Fence,
        }
    }

    fn tensor_count(&self) -> usize {
        self.tensors.len()
    }

    fn tensor(&self, id: TensorId) -> Option<(&str, Rect)> {
        self.tensors.get(id.index()).copied()
    }

    fn reduces(&self) -> bool {
        self.reduces
    }
}

/// The name of tensor `id`, for a finding; an undeclared id renders as
/// the id.
pub(crate) fn name<P: Events + ?Sized>(program: &P, id: TensorId) -> Cow<'_, str> {
    match program.tensor(id) {
        Some((name, _)) => Cow::Borrowed(name),
        None => Cow::Owned(format!("{id:?}")),
    }
}

/// The entry of `table` for tensor `id`, growing the table to reach it:
/// a check's per-tensor tables are sized by the declared tensors, and an
/// undeclared id (already a finding of `bounds`) must not panic.
pub(crate) fn entry<T: Default>(table: &mut Vec<T>, id: TensorId) -> &mut T {
    if table.len() <= id.index() {
        table.resize_with(id.index() + 1, T::default);
    }
    &mut table[id.index()]
}

/// What the walk found, check by check.
#[derive(Debug)]
pub(crate) struct Findings {
    pub(crate) bounds: Vec<Diagnostic>,
    pub(crate) comm: Vec<Diagnostic>,
    pub(crate) order: Vec<Diagnostic>,
    pub(crate) hazard: Vec<Diagnostic>,
}

/// The one walk: every event of every rank, read once, in rank and then
/// program order, feeds the checks' state; each check then words its
/// findings from what it kept.
pub(crate) fn walk<P: Events + ?Sized>(program: &P) -> Findings {
    let ranks = program.ranks();
    let total: usize = (0..ranks).map(|rank| program.events(rank)).sum();
    let mut shapes = bounds::Bounds::new(program);
    let mut tags = comm::Tags::new(ranks, total);
    let mut hazards = hazard::Hazards::new(program);
    for rank in 0..ranks {
        hazards.fence();
        for i in 0..program.events(rank) {
            match program.event(rank, i) {
                Event::Send(m) => {
                    shapes.message(program, rank, &m, true);
                    tags.record(program, rank, i, &m, true);
                }
                Event::Recv(m) => {
                    shapes.message(program, rank, &m, false);
                    tags.record(program, rank, i, &m, false);
                    hazards.land(program, rank, &m);
                }
                Event::Task { accesses } => {
                    for a in accesses {
                        shapes.access(program, rank, &a);
                        hazards.access(rank, &a);
                    }
                }
                Event::Fence => hazards.fence(),
            }
        }
        tags.end_rank();
    }
    Findings {
        bounds: shapes.finish(program),
        comm: tags.check(program),
        order: order::check(program, &tags),
        hazard: hazards.finish(program),
    }
}

/// Verifies `program`, returning every finding (error and warning
/// severity), most fundamental first: shape legality, communication
/// matching, deadlock freedom, buffer hazards.
///
/// An empty result proves the program well-formed under this crate's
/// model; any error-severity finding means executing it would hang,
/// corrupt data, or touch memory out of bounds.
pub fn verify<P: Events + ?Sized>(program: &P) -> Vec<Diagnostic> {
    let Findings {
        mut bounds,
        comm,
        order,
        hazard,
    } = walk(program);
    bounds.extend(comm);
    bounds.extend(order);
    bounds.extend(hazard);
    bounds
}

#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;
    use distal_machine::geom::{Point, Rect};

    pub(crate) fn rect2(lo: (i64, i64), hi: (i64, i64)) -> Rect {
        Rect::new(Point::new(vec![lo.0, lo.1]), Point::new(vec![hi.0, hi.1]))
    }

    // The ids of `clean_pair`'s tensors, and of one it does not declare.
    pub(crate) const A: TensorId = TensorId(0);
    pub(crate) const B: TensorId = TensorId(1);
    pub(crate) const Z: TensorId = TensorId(2);

    pub(crate) fn msg(tag: u64, peer: usize, tensor: TensorId, rect: Rect) -> Msg {
        let bytes = rect.volume().max(0) as u64 * 8;
        Msg {
            tag,
            peer,
            tensor,
            rect,
            bytes,
            fold: false,
        }
    }

    /// A minimal clean two-rank program over one 4×4 tensor `B` and an
    /// output `A`: rank 0 sends its half of `B` to rank 1, both compute
    /// disjoint halves of `A`.
    pub(crate) fn clean_pair() -> VerifyProgram<'static> {
        let b_full = rect2((0, 0), (3, 3));
        let a_full = rect2((0, 0), (3, 3));
        let b_lo = rect2((0, 0), (1, 3));
        let a_lo = rect2((0, 0), (1, 3));
        let a_hi = rect2((2, 0), (3, 3));
        let r0 = vec![
            Event::Send(msg(1, 1, B, b_lo)),
            Event::Task {
                accesses: vec![
                    Access {
                        tensor: A,
                        rect: a_lo,
                        write: true,
                    },
                    Access {
                        tensor: B,
                        rect: b_lo,
                        write: false,
                    },
                ],
            },
            Event::Fence,
        ];
        let r1 = vec![
            Event::Recv(msg(1, 0, B, b_lo)),
            Event::Task {
                accesses: vec![
                    Access {
                        tensor: A,
                        rect: a_hi,
                        write: true,
                    },
                    Access {
                        tensor: B,
                        rect: b_lo,
                        write: false,
                    },
                ],
            },
            Event::Fence,
        ];
        VerifyProgram {
            tensors: vec![("A", a_full), ("B", b_full)],
            ranks: vec![r0, r1],
            reduces: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::clean_pair;
    use super::*;

    #[test]
    fn clean_program_verifies_clean() {
        let diags = verify(&clean_pair());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn empty_program_is_fine() {
        let p = VerifyProgram {
            tensors: Vec::new(),
            ranks: vec![Vec::new(); 4],
            reduces: false,
        };
        assert!(verify(&p).is_empty());
    }
}
