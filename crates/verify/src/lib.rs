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
//! The verifier is deliberately independent of `distal-spmd` (which
//! calls it from `SpmdBackend::plan`): it analyzes a generic event IR
//! ([`VerifyProgram`]) that any message-passing lowering can adapt to.
//! Findings surface as structured [`Diagnostic`]s naming the offending
//! rank/tensor/tag.

#![forbid(unsafe_code)]

pub mod bounds;
pub mod comm;
pub mod hazard;
pub mod order;

use distal_core::Diagnostic;
use distal_machine::geom::Rect;
use std::collections::BTreeMap;

pub use distal_core::{verified_clean, DiagnosticKind, Severity};

/// The identity of one tagged transfer, as seen from one endpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Msg {
    /// The matching key: globally unique per transfer in a well-formed
    /// program.
    pub tag: u64,
    /// The other endpoint: destination rank for sends, source rank for
    /// receives.
    pub peer: usize,
    /// The tensor whose cells travel.
    pub tensor: String,
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
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Access {
    /// The tensor accessed.
    pub tensor: String,
    /// The rectangle touched.
    pub rect: Rect,
    /// True for writes (the task's output), false for reads.
    pub write: bool,
}

/// One event in a rank's program, in execution order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// Inject a tagged payload toward `msg.peer` (never blocks).
    Send(Msg),
    /// Block until the payload tagged `msg.tag` arrives from `msg.peer`.
    Recv(Msg),
    /// Run a leaf task over the listed accesses.
    Task {
        /// Every tensor rectangle the task touches.
        accesses: Vec<Access>,
    },
    /// A scratch-generation boundary (the SPMD `RetireScratch`): landings
    /// before the fence are retired, so overlap checks reset here.
    Fence,
}

impl Event {
    /// The message carried by communication events.
    pub fn msg(&self) -> Option<&Msg> {
        match self {
            Event::Send(m) | Event::Recv(m) => Some(m),
            _ => None,
        }
    }
}

/// A whole program in the verifier's event IR: per-rank event lists plus
/// the tensor extents they operate over.
#[derive(Clone, Debug)]
pub struct VerifyProgram {
    /// Full extent rectangle of every tensor (`Rect::sized(dims)`).
    pub tensors: BTreeMap<String, Rect>,
    /// One event list per rank, in program order. The launch domain is
    /// `0..ranks.len()`.
    pub ranks: Vec<Vec<Event>>,
    /// True when distributed loops reduce: different ranks then legally
    /// write overlapping output rectangles (contributions fold).
    pub reduces: bool,
}

impl VerifyProgram {
    /// Number of ranks (the launch domain).
    pub fn rank_count(&self) -> usize {
        self.ranks.len()
    }
}

/// Runs all four verification passes over `program`, returning every
/// finding (error and warning severity), most fundamental first: shape
/// legality, communication matching, deadlock freedom, buffer hazards.
///
/// An empty result proves the program well-formed under this crate's
/// model; any error-severity finding means executing it would hang,
/// corrupt data, or touch memory out of bounds.
pub fn verify(program: &VerifyProgram) -> Vec<Diagnostic> {
    let mut diags = bounds::check(program);
    diags.extend(comm::check(program));
    diags.extend(order::check(program));
    diags.extend(hazard::check(program));
    diags
}

#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;
    use distal_machine::geom::{Point, Rect};

    pub fn rect2(lo: (i64, i64), hi: (i64, i64)) -> Rect {
        Rect::new(Point::new(vec![lo.0, lo.1]), Point::new(vec![hi.0, hi.1]))
    }

    pub fn msg(tag: u64, peer: usize, tensor: &str, rect: Rect) -> Msg {
        let bytes = rect.volume().max(0) as u64 * 8;
        Msg {
            tag,
            peer,
            tensor: tensor.into(),
            rect,
            bytes,
            fold: false,
        }
    }

    /// A minimal clean two-rank program over one 4×4 tensor `B` and an
    /// output `A`: rank 0 sends its half of `B` to rank 1, both compute
    /// disjoint halves of `A`.
    pub fn clean_pair() -> VerifyProgram {
        let b_full = rect2((0, 0), (3, 3));
        let a_full = rect2((0, 0), (3, 3));
        let b_lo = rect2((0, 0), (1, 3));
        let a_lo = rect2((0, 0), (1, 3));
        let a_hi = rect2((2, 0), (3, 3));
        let mut tensors = BTreeMap::new();
        tensors.insert("B".to_string(), b_full);
        tensors.insert("A".to_string(), a_full);
        let r0 = vec![
            Event::Send(msg(1, 1, "B", b_lo.clone())),
            Event::Task {
                accesses: vec![
                    Access {
                        tensor: "A".into(),
                        rect: a_lo,
                        write: true,
                    },
                    Access {
                        tensor: "B".into(),
                        rect: b_lo.clone(),
                        write: false,
                    },
                ],
            },
            Event::Fence,
        ];
        let r1 = vec![
            Event::Recv(msg(1, 0, "B", b_lo.clone())),
            Event::Task {
                accesses: vec![
                    Access {
                        tensor: "A".into(),
                        rect: a_hi,
                        write: true,
                    },
                    Access {
                        tensor: "B".into(),
                        rect: b_lo,
                        write: false,
                    },
                ],
            },
            Event::Fence,
        ];
        VerifyProgram {
            tensors,
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
            tensors: BTreeMap::new(),
            ranks: vec![Vec::new(); 4],
            reduces: false,
        };
        assert!(verify(&p).is_empty());
    }
}
