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
//! through it ([`SpmdProgram::named`]).

use crate::program::SpmdProgram;
use distal_core::TensorId;
use distal_machine::geom::Rect;
use distal_machine::ELEM_BYTES;
use std::fmt;

/// The identity of one point-to-point transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Message {
    /// Globally unique tag (generation order). This is the only key a
    /// send is matched to its receive by: the send feeds the first receive
    /// of its tag at its destination, and a payload no receive takes fails
    /// the run naming this tag.
    pub tag: u64,
    /// Source rank.
    pub from: usize,
    /// Destination rank.
    pub to: usize,
    /// The tensor being moved.
    pub tensor: TensorId,
    /// The rectangle of the tensor being moved.
    pub rect: Rect,
}

impl Message {
    /// Bytes on the wire ([`ELEM_BYTES`]-sized elements, shared with the
    /// dynamic runtime's region accounting).
    pub fn bytes(&self) -> u64 {
        self.rect.volume() as u64 * ELEM_BYTES
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
        let m = self.item;
        let tensor = self.program.tensor_name(m.tensor);
        write!(f, "#{} {tensor}[{}] {} -> {}", m.tag, m.rect, m.from, m.to)
    }
}

/// One operation in a rank's program.
#[derive(Clone, Debug)]
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
        /// `Assignment::all_vars` order.
        bounds: Vec<(i64, i64)>,
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
            SpmdOp::Compute { bounds, flops, .. } => {
                write!(f, "compute {bounds:?} ({flops:.0} flops)")
            }
            SpmdOp::RetireScratch { keep } => write!(f, "retire-scratch keep={keep}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distal_machine::geom::Rect;

    fn msg() -> Message {
        Message {
            tag: 7,
            from: 0,
            to: 2,
            tensor: TensorId(1),
            rect: Rect::sized(&[4, 4]),
        }
    }

    #[test]
    fn message_bytes() {
        assert_eq!(msg().bytes(), 16 * 8);
    }

    #[test]
    fn op_classification() {
        assert!(SpmdOp::Send(msg()).is_send());
        assert!(SpmdOp::ReduceSend(msg()).is_send());
        assert!(!SpmdOp::Recv(msg()).is_send());
        assert_eq!(SpmdOp::Send(msg()).message().unwrap().tag, 7);
        assert!(SpmdOp::RetireScratch { keep: 1 }.message().is_none());
    }

    #[test]
    fn display_forms() {
        let p = crate::lower::tests::matmul_2x2();
        let send = p.named(&SpmdOp::Send(msg())).to_string();
        assert!(send.starts_with("send #7 B"), "{send}");
        let retire = SpmdOp::RetireScratch { keep: 1 };
        assert_eq!(p.named(&retire).to_string(), "retire-scratch keep=1");
    }
}
