//! The per-rank operation vocabulary of the SPMD backend.
//!
//! An SPMD program assigns every rank an ordered list of operations. All
//! communication is *explicit* and *two-sided*: every [`SpmdOp::Recv`] has a
//! matching [`SpmdOp::Send`] with the same [`Message`] identity, generated
//! together by the static analysis — there is no runtime matching logic to
//! go wrong, and no deadlock is possible because the execution order is
//! fixed at compile time.
//!
//! The [`Message::tag`] is the matching key at execution time on *both*
//! transports: the sequential VM uses it to index its in-flight payload
//! map, and the threaded transport stamps it on every channel packet so
//! a receiver can stash early arrivals and block on exactly the tag its
//! program order demands next (see [`crate::transport`]).

use distal_machine::geom::Rect;
use distal_machine::ELEM_BYTES;
use std::fmt;

/// The identity of one point-to-point transfer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// Globally unique tag (generation order). This is the only key the
    /// transports match on: payloads carry it over the network (the
    /// sequential VM's pending map, the threaded transport's channel
    /// packets) and the receiver's program names the tag it needs next.
    pub tag: u64,
    /// Source rank.
    pub from: usize,
    /// Destination rank.
    pub to: usize,
    /// The tensor being moved.
    pub tensor: String,
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

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} {}[{}] {} -> {}",
            self.tag, self.tensor, self.rect, self.from, self.to
        )
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

impl fmt::Display for SpmdOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpmdOp::Send(m) => write!(f, "send {m}"),
            SpmdOp::Recv(m) => write!(f, "recv {m}"),
            SpmdOp::ReduceSend(m) => write!(f, "reduce-send {m}"),
            SpmdOp::ReduceRecv(m) => write!(f, "reduce-recv {m}"),
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
            tensor: "B".into(),
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
        assert!(format!("{}", SpmdOp::Send(msg())).starts_with("send #7 B"));
        assert!(format!("{}", SpmdOp::RetireScratch { keep: 1 }).contains("keep=1"));
    }
}
