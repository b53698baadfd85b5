//! [`SpmdProgram`] as the [`distal_verify`] verifier reads it.
//!
//! The verifier is deliberately ignorant of this crate (it reads any
//! message-passing program through its [`Events`] view), so the mapping
//! lives here, next to the lowering whose invariants it encodes. Each op
//! is mapped as the verifier reads it:
//!
//! * `Send`/`Recv` map directly; `ReduceSend`/`ReduceRecv` map with the
//!   `fold` flag set. Messages of the *output* tensor also fold — the
//!   rank VM lands them with `+=` regardless of op kind — so overlapping
//!   output payloads are legal and must not read as hazards.
//! * `Compute` becomes a `Task` whose access rectangles project the leaf
//!   bounds through each access's index variables, exactly the
//!   projection the rank VM reads operand faces through.
//! * `RetireScratch` becomes a `Fence`: landings before it are retired,
//!   so the hazard check's overlap window resets.
//! * Events carry the ops' tensor ids, and the verifier reads the names
//!   from the program's table: the view copies no string. A message's
//!   rectangle and a leaf's bounds are read from the program's rectangle
//!   table and bounds arena as the event is made.
//!
//! [`verify_program`] is what `SpmdBackend::plan` calls, in either mode —
//! once per plan, cached with it, free on every subsequent bind. It reads
//! the rank lists in place. [`to_verify_ir`] copies the same events into
//! the verifier's event IR, for a caller that wants them held.

use crate::ops::{Message, SpmdOp};
use crate::program::SpmdProgram;
use distal_core::{Diagnostic, TensorId};
use distal_machine::geom::Rect;
use distal_verify::{Access, Event, Events, Msg, VerifyProgram};

impl Events for SpmdProgram {
    fn ranks(&self) -> usize {
        self.starts.len() - 1
    }

    fn events(&self, rank: usize) -> usize {
        self.rank_ops(rank).len()
    }

    fn event(&self, rank: usize, i: usize) -> Event<impl Iterator<Item = Access> + '_> {
        let msg = |m: &Message, peer: u32, reduce: bool| Msg {
            tag: m.tag,
            peer: peer as usize,
            tensor: m.tensor,
            rect: *self.rect(m.rect),
            bytes: self.message_bytes(m),
            fold: reduce || m.tensor == self.output(),
        };
        match &self.rank_ops(rank)[i] {
            SpmdOp::Send(m) => Event::Send(msg(m, m.to, false)),
            SpmdOp::Recv(m) => Event::Recv(msg(m, m.from, false)),
            SpmdOp::ReduceSend(m) => Event::Send(msg(m, m.to, true)),
            SpmdOp::ReduceRecv(m) => Event::Recv(msg(m, m.from, true)),
            // The tensor rectangles one leaf touches — the destination as
            // a write, the operands as reads; none for a leaf clamped to
            // nothing.
            SpmdOp::Compute { bounds, .. } => Event::Task {
                accesses: self
                    .leaf_rects(self.bounds(*bounds))
                    .into_iter()
                    .flatten()
                    .zip(&self.accessed)
                    .enumerate()
                    .map(|(i, (rect, &tensor))| Access {
                        tensor,
                        rect,
                        write: i == 0,
                    }),
            },
            SpmdOp::RetireScratch { .. } => Event::Fence,
        }
    }

    fn tensor_count(&self) -> usize {
        self.tensors.len()
    }

    fn tensor(&self, id: TensorId) -> Option<(&str, Rect)> {
        let spec = self.tensors.get(id.index())?;
        Some((&spec.name, Rect::sized(&spec.dims)))
    }

    fn reduces(&self) -> bool {
        self.dist_reduces
    }
}

/// Copies an [`SpmdProgram`]'s events into the verifier's event IR.
pub fn to_verify_ir(program: &SpmdProgram) -> VerifyProgram<'_> {
    VerifyProgram::from_events(program)
}

/// Runs the static verifier over a lowered program, reading its rank
/// lists in place. An empty result proves it well-formed; error-severity
/// findings mean executing it would hang, corrupt data, or index out of
/// bounds.
pub fn verify_program(program: &SpmdProgram) -> Vec<Diagnostic> {
    distal_verify::verify(program)
}
