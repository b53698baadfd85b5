//! The per-rank operation vocabulary of the SPMD backend.
//!
//! An SPMD program assigns every rank an ordered list of operations. All
//! communication is *explicit* and *two-sided*: every [`SpmdOp::Recv`] has a
//! matching [`SpmdOp::Send`] with the same [`Message`] identity, generated
//! together by the static analysis — there is no runtime matching logic to
//! go wrong, and no deadlock is possible because the execution order is
//! fixed at compile time.
//!
//! The [`Message::tag`] is the matching key: before a program runs, each
//! send is matched to the first receive of its tag at its destination, and
//! both transports then address the payload by that receive's mailbox
//! slot, so a receiver files early arrivals and blocks on exactly the
//! receive its program order demands next (see [`crate::transport`]).
//!
//! An op names its tensor by [`TensorId`], its registry position; the
//! names are the program's ([`SpmdProgram::tensors`]), and an op renders
//! through it ([`SpmdProgram::named`]). Rectangles and leaf bounds are
//! named the same way ([`RectId`], [`BoundsSpan`]): an op is 32 bytes.

use crate::program::SpmdProgram;
use distal_core::TensorId;
use std::fmt;

/// A rectangle of a program's table ([`SpmdProgram::rect`]), which holds
/// each once: ids are equal exactly when their rectangles are.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RectId(pub(crate) u32);

/// A leaf's bounds in a program's arena ([`SpmdProgram::bounds`]). Only
/// the program mints them ([`SpmdProgram::intern_bounds`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoundsSpan {
    pub(crate) start: u32,
    pub(crate) len: u32,
}

impl BoundsSpan {
    /// `b`, appended to `arena`.
    pub(crate) fn push(arena: &mut Vec<(i64, i64)>, b: impl Iterator<Item = (i64, i64)>) -> Self {
        let start = arena.len() as u32;
        arena.extend(b);
        let len = arena.len() as u32 - start;
        BoundsSpan { start, len }
    }
}

/// The identity of one point-to-point transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Message {
    /// Globally unique tag (generation order). This is the only key a
    /// send is matched to its receive by: the send feeds the first receive
    /// of its tag at its destination, and a payload no receive takes fails
    /// the run naming this tag.
    pub tag: u64,
    /// Source rank.
    pub from: u32,
    /// Destination rank.
    pub to: u32,
    /// The tensor being moved.
    pub tensor: TensorId,
    /// The rectangle of the tensor being moved.
    pub rect: RectId,
}

impl Message {
    /// Transfer `tag` of rectangle `rect` of `tensor` between two ranks.
    pub(crate) fn new(tag: u64, from: usize, to: usize, tensor: TensorId, rect: RectId) -> Self {
        let (from, to) = (from as u32, to as u32);
        Message {
            tag,
            from,
            to,
            tensor,
            rect,
        }
    }

    /// The transfer's send and receive, folding when `reduce`, each with
    /// the rank that runs it.
    pub(crate) fn ops(self, reduce: bool) -> [(usize, SpmdOp); 2] {
        let (send, recv) = match reduce {
            true => (SpmdOp::ReduceSend(self), SpmdOp::ReduceRecv(self)),
            false => (SpmdOp::Send(self), SpmdOp::Recv(self)),
        };
        [(self.from as usize, send), (self.to as usize, recv)]
    }
}

/// An op, a message or a collective rendered with its tensor's name, read
/// from the program's table ([`SpmdProgram::named`]).
#[derive(Debug)]
pub struct Named<'p, T> {
    pub(crate) program: &'p SpmdProgram,
    pub(crate) item: &'p T,
}

// Rendered into the op-stream digests the lowering fingerprint suite
// commits: the text, doubled brackets included, must not change.
impl fmt::Display for Named<'_, Message> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (m, p) = (self.item, self.program);
        let tensor = p.tensor_name(m.tensor);
        write!(
            f,
            "#{} {tensor}[{}] {} -> {}",
            m.tag,
            p.rect(m.rect),
            m.from,
            m.to
        )
    }
}

/// One operation in a rank's program.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SpmdOp {
    /// Send `message.rect` of `message.tensor` to `message.to`.
    Send(Message),
    /// Receive `message.rect` of `message.tensor` from `message.from` into
    /// a scratch buffer.
    Recv(Message),
    /// Like `Send`, but the receiver *adds* the payload into its local data
    /// (the fold half of a distributed reduction).
    ReduceSend(Message),
    /// The fold half matching [`SpmdOp::ReduceSend`].
    ReduceRecv(Message),
    /// Run the leaf kernel over the iteration sub-box given by fixing the
    /// listed loop variables (bounds are resolved through the schedule's
    /// variable solver at lowering time and stored per original variable).
    Compute {
        /// Inclusive `(lo, hi)` bounds per original statement variable, in
        /// `Assignment::all_vars` order ([`SpmdProgram::bounds`]).
        bounds: BoundsSpan,
        /// Floating-point work of the block.
        flops: f64,
    },
    /// Retire scratch buffers older than the most recent `keep` sequential
    /// generations (the double-buffering bound of systolic schedules).
    RetireScratch {
        /// Generations kept.
        keep: usize,
    },
}

impl SpmdOp {
    /// The message carried by communication operations.
    pub fn message(&self) -> Option<&Message> {
        match self {
            SpmdOp::Send(m) | SpmdOp::Recv(m) | SpmdOp::ReduceSend(m) | SpmdOp::ReduceRecv(m) => {
                Some(m)
            }
            _ => None,
        }
    }

    /// True for `Send`/`ReduceSend`.
    pub fn is_send(&self) -> bool {
        matches!(self, SpmdOp::Send(_) | SpmdOp::ReduceSend(_))
    }
}

impl fmt::Display for Named<'_, SpmdOp> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = |item| self.program.named(item);
        match self.item {
            SpmdOp::Send(msg) => write!(f, "send {}", m(msg)),
            SpmdOp::Recv(msg) => write!(f, "recv {}", m(msg)),
            SpmdOp::ReduceSend(msg) => write!(f, "reduce-send {}", m(msg)),
            SpmdOp::ReduceRecv(msg) => write!(f, "reduce-recv {}", m(msg)),
            SpmdOp::Compute { bounds, flops } => {
                let bounds = self.program.bounds(*bounds);
                write!(f, "compute {bounds:?} ({flops:.0} flops)")
            }
            SpmdOp::RetireScratch { keep } => write!(f, "retire-scratch keep={keep}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::CollectiveConfig;
    use crate::lower::tests::{lower_under, matmul_2x2, tiled_tensors};
    use distal_core::Schedule;
    use distal_ir::expr::Assignment;
    use distal_machine::geom::Rect;
    use distal_machine::grid::Grid;

    fn msg(rect: RectId) -> Message {
        Message {
            tag: 7,
            from: 0,
            to: 2,
            tensor: TensorId(1),
            rect,
        }
    }

    #[test]
    fn an_op_is_a_copy_value_of_at_most_32_bytes() {
        fn copy<T: Copy>() {}
        copy::<SpmdOp>();
        let size = std::mem::size_of::<SpmdOp>();
        assert!(size <= 32, "SpmdOp is {size} bytes");
    }

    #[test]
    fn message_bytes() {
        let mut p = matmul_2x2();
        let m = msg(p.intern(Rect::sized(&[4, 4])));
        assert_eq!(p.dense_bytes(&m), 16 * 8);
    }

    #[test]
    fn op_classification() {
        let m = msg(RectId(0));
        assert!(SpmdOp::Send(m).is_send());
        assert!(SpmdOp::ReduceSend(m).is_send());
        assert!(!SpmdOp::Recv(m).is_send());
        assert_eq!(SpmdOp::Send(m).message().unwrap().tag, 7);
        assert!(SpmdOp::RetireScratch { keep: 1 }.message().is_none());
    }

    #[test]
    fn display_forms() {
        let mut p = matmul_2x2();
        let m = msg(p.intern(Rect::sized(&[4, 4])));
        let send = p.named(&SpmdOp::Send(m)).to_string();
        assert_eq!(send, "send #7 B[[(0, 0)..(3, 3)]] 0 -> 2");
        let retire = SpmdOp::RetireScratch { keep: 1 };
        assert_eq!(p.named(&retire).to_string(), "retire-scratch keep=1");
    }

    /// The program as the lowering fingerprint suite renders it: every op
    /// in global order, the per-rank op counts, the collectives.
    fn rendered(p: &SpmdProgram) -> Vec<String> {
        let ops = p
            .in_order()
            .map(|(rank, op)| format!("{rank}: {}", p.named(op)));
        let counts: Vec<usize> = (0..p.ranks()).map(|r| p.rank_ops(r).len()).collect();
        let collectives = p
            .collectives
            .iter()
            .map(|c| format!("collective {}", p.named(c)));
        ops.chain([format!("rank op counts {counts:?}")])
            .chain(collectives)
            .collect()
    }

    #[test]
    fn an_identity_rewrite_renders_byte_identically() {
        let a = Assignment::parse("A(i,j) = B(i,k) * C(k,j)").unwrap();
        let summa = Schedule::summa(2, 2, 4);
        for cfg in [
            CollectiveConfig::point_to_point(),
            CollectiveConfig::trees(),
        ] {
            let grid = Grid::grid2(2, 2);
            let program = lower_under(&a, &tiled_tensors(8), &grid, &summa, &cfg).unwrap();
            let mut rewritten = program.clone();
            rewritten.rewrite(|_| {});
            assert_eq!(rendered(&rewritten), rendered(&program));
            for rank in 0..program.ranks() {
                assert_eq!(rewritten.rank_ops(rank), program.rank_ops(rank));
            }
        }
    }
}
