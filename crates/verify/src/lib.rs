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
//! 1. **Communication matching** ([`comm`]) — every tagged receive has
//!    exactly one matching send with identical (tensor, rect, endpoints,
//!    bytes, fold semantics); no orphan sends, no duplicate tags.
//! 2. **Deadlock freedom** ([`order`]) — the cross-rank happens-before
//!    graph (per-rank program order plus send→receive edges) is acyclic.
//! 3. **Buffer hazards** ([`hazard`]) — no write-write overlaps on
//!    intersecting rectangles of the same tensor across ranks (unless
//!    the program reduces), and no unordered landings within a scratch
//!    generation.
//! 4. **Shape/bounds legality** ([`bounds`]) — message rectangles and
//!    task accesses fit their tensors' extents, peers fit the launch
//!    domain, and per-tensor bytes are conserved (sent == received).
//!
//! [`verify`] walks the program once, rank by rank and event by event,
//! and feeds every check from that walk: [`bounds`] and [`hazard`] keep
//! per-tensor state, and [`comm`]'s tag table — the send and receive of
//! every tag, found as the walk meets them — serves both matching and
//! [`order`]'s happens-before sort. The findings come out grouped by
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

pub mod bounds;
pub mod comm;
pub mod hazard;
pub mod order;

#[cfg(test)]
mod oracle;

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
/// undeclared id (already a finding of [`bounds`]) must not panic.
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

    pub fn rect2(lo: (i64, i64), hi: (i64, i64)) -> Rect {
        Rect::new(Point::new(vec![lo.0, lo.1]), Point::new(vec![hi.0, hi.1]))
    }

    // The ids of `clean_pair`'s tensors, and of one it does not declare.
    pub(crate) const A: TensorId = TensorId(0);
    pub(crate) const B: TensorId = TensorId(1);
    pub(crate) const Z: TensorId = TensorId(2);

    pub fn msg(tag: u64, peer: usize, tensor: TensorId, rect: Rect) -> Msg {
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
    pub fn clean_pair() -> VerifyProgram<'static> {
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
    use distal_machine::geom::Point;

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

    /// xorshift64*, the generator the sibling suites use.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// True one time in `n`.
        fn one_in(&mut self, n: u64) -> bool {
            self.below(n) == 0
        }

        /// A rectangle of `dim` dimensions with corners in `-1..=5`: mostly
        /// inside a 4×4 or 6-long tensor, sometimes past it, empty, or far
        /// past any 32-bit coordinate.
        fn rect(&mut self, dim: usize) -> Rect {
            let mut corner = || {
                let far = if self.one_in(40) { 1 << 40 } else { 0 };
                let lo = self.below(5) as i64 - i64::from(self.one_in(8)) + far;
                (lo, lo + self.below(3) as i64 - i64::from(self.one_in(10)))
            };
            let (lo, hi): (Vec<i64>, Vec<i64>) = (0..dim).map(|_| corner()).unzip();
            Rect::new(Point::new(lo), Point::new(hi))
        }
    }

    /// A random small program, mostly ill-formed: transfers whose two
    /// endpoints land at random places of their ranks' lists (so waits can
    /// cross), one side sometimes edited, dropped or repeated; tags mostly
    /// few (so they collide), sometimes far past the dense range; tasks
    /// over random rectangles; fences.
    fn random_program(rng: &mut Rng) -> VerifyProgram<'static> {
        const NAMES: [&str; 3] = ["A", "B", "c"];
        let tensors: Vec<(&str, Rect)> = (0..1 + rng.below(3) as usize)
            .map(|t| match t {
                2 => (NAMES[t], Rect::sized(&[6])),
                _ => (NAMES[t], Rect::sized(&[4, 4])),
            })
            .collect();
        let ranks = 1 + rng.below(4) as usize;
        let mut lists: Vec<Vec<Event>> = vec![Vec::new(); ranks];
        let tensor = |rng: &mut Rng| {
            let undeclared = u64::from(rng.one_in(10));
            let t = rng.below(tensors.len() as u64 + undeclared);
            let dim = tensors.get(t as usize).map_or(2, |(_, r)| r.dim());
            let dim = if rng.one_in(16) { 3 - dim } else { dim };
            (TensorId(t as u32), dim)
        };
        let insert = |rng: &mut Rng, list: &mut Vec<Event>, ev: Event| {
            let at = rng.below(list.len() as u64 + 1) as usize;
            list.insert(at, ev);
        };
        for _ in 0..rng.below(8) {
            let tag = match rng.below(12) {
                0 => 1_000 + rng.below(3),
                1 => u64::MAX - rng.below(2),
                _ => rng.below(10),
            };
            let (from, to) = (
                rng.below(ranks as u64) as usize,
                rng.below(ranks as u64) as usize,
            );
            let (id, dim) = tensor(rng);
            let rect = rng.rect(dim);
            let sent = Msg {
                tag,
                peer: to,
                tensor: id,
                rect,
                bytes: rect.volume().max(0) as u64 * 8,
                fold: rng.one_in(4),
            };
            let mut received = Msg { peer: from, ..sent };
            match rng.below(16) {
                0 => received.peer = rng.below(ranks as u64 + 1) as usize,
                1 => received.tag = rng.below(10),
                2 => received.rect = rng.rect(dim),
                3 => received.bytes += 8,
                4 => received.fold = !received.fold,
                5 => received.tensor = tensor(rng).0,
                _ => {}
            }
            if !rng.one_in(10) {
                insert(rng, &mut lists[from], Event::Send(sent));
            }
            if !rng.one_in(10) {
                insert(rng, &mut lists[to], Event::Recv(received));
            }
            if rng.one_in(12) {
                insert(rng, &mut lists[from], Event::Send(sent));
            }
            if rng.one_in(12) {
                insert(rng, &mut lists[to], Event::Recv(received));
            }
        }
        for list in &mut lists {
            for _ in 0..rng.below(4) {
                let accesses = (0..rng.below(4))
                    .map(|_| {
                        let (id, dim) = tensor(rng);
                        Access {
                            tensor: id,
                            rect: rng.rect(dim),
                            write: rng.one_in(2),
                        }
                    })
                    .collect();
                insert(rng, list, Event::Task { accesses });
            }
            if rng.one_in(3) {
                insert(rng, list, Event::Fence);
            }
        }
        VerifyProgram {
            tensors,
            ranks: lists,
            reduces: rng.one_in(4),
        }
    }

    /// The one walk finds exactly what the four passes did, each walking
    /// the program on its own: the same findings, in the same order, word
    /// for word. The draws reach every finding the verifier makes, and
    /// clean programs too.
    #[test]
    fn the_walk_finds_what_the_four_passes_found() {
        let mut rng = Rng(0x5EED_F00D);
        let mut kinds = Vec::new();
        let mut clean = 0;
        for case in 0..6_000 {
            let program = random_program(&mut rng);
            let found = verify(&program);
            assert_eq!(found, oracle::verify(&program), "case {case}: {program:#?}");
            clean += usize::from(found.is_empty());
            for d in found {
                if !kinds.contains(&d.kind) {
                    kinds.push(d.kind);
                }
            }
        }
        assert!(clean >= 100, "{clean} clean programs");
        use DiagnosticKind::*;
        for kind in [
            OutOfBounds,
            Malformed,
            ByteImbalance,
            LostMessage,
            OrphanMessage,
            DuplicateMessage,
            MessageMismatch,
            Deadlock,
            WriteHazard,
            ReadHazard,
        ] {
            assert!(kinds.contains(&kind), "no draw found {kind:?}");
        }
    }
}
