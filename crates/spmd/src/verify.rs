//! Adapter from [`SpmdProgram`] to the [`distal_verify`] event IR.
//!
//! The verifier is deliberately ignorant of this crate (it analyzes a
//! generic message-passing IR), so the mapping lives here, next to the
//! lowering whose invariants it encodes:
//!
//! * `Send`/`Recv` map directly; `ReduceSend`/`ReduceRecv` map with the
//!   `fold` flag set. Messages of the *output* tensor also fold — the
//!   rank VM lands them with `+=` regardless of op kind — so overlapping
//!   output payloads are legal and must not read as hazards.
//! * `Compute` becomes a `Task` whose access rectangles project the leaf
//!   bounds through each access's index variables, exactly the
//!   projection the rank VM reads operand faces through.
//! * `RetireScratch` becomes a `Fence`: landings before it are retired,
//!   so the hazard pass's overlap window resets.
//! * Events carry the ops' tensor ids, and the IR borrows the program's
//!   names ([`VerifyProgram::tensors`]): the adapter copies no string.
//!
//! [`verify_program`] is what `SpmdBackend::plan` calls, in either mode —
//! once per plan, cached with it, free on every subsequent bind.

use crate::ops::{Message, SpmdOp};
use crate::program::SpmdProgram;
use distal_core::Diagnostic;
use distal_machine::geom::Rect;
use distal_verify::{Access, Event, Msg, VerifyProgram};

/// Lowers an [`SpmdProgram`] into the verifier's event IR.
pub fn to_verify_ir(program: &SpmdProgram) -> VerifyProgram<'_> {
    let out = program.output();
    let msg = |m: &Message, peer: usize, reduce: bool| Msg {
        tag: m.tag,
        peer,
        tensor: m.tensor,
        rect: m.rect,
        bytes: program.message_bytes(m),
        fold: reduce || m.tensor == out,
    };
    let ranks = (0..program.ranks())
        .map(|rank| {
            program
                .rank_ops(rank)
                .iter()
                .map(|op| match op {
                    SpmdOp::Send(m) => Event::Send(msg(m, m.to, false)),
                    SpmdOp::Recv(m) => Event::Recv(msg(m, m.from, false)),
                    SpmdOp::ReduceSend(m) => Event::Send(msg(m, m.to, true)),
                    SpmdOp::ReduceRecv(m) => Event::Recv(msg(m, m.from, true)),
                    SpmdOp::Compute { bounds, .. } => Event::Task {
                        accesses: task_accesses(program, bounds),
                    },
                    SpmdOp::RetireScratch { .. } => Event::Fence,
                })
                .collect()
        })
        .collect();

    VerifyProgram {
        tensors: program
            .tensors
            .iter()
            .map(|t| (t.name.as_str(), Rect::sized(&t.dims)))
            .collect(),
        ranks,
        reduces: program.dist_reduces,
    }
}

/// The tensor rectangles one leaf touches — [`SpmdProgram::leaf_rects`],
/// the projection the rank VM reads operand faces through — the
/// destination as a write, the operands as reads; none for a leaf clamped
/// to nothing.
fn task_accesses(program: &SpmdProgram, bounds: &[(i64, i64)]) -> Vec<Access> {
    let Some(rects) = program.leaf_rects(bounds) else {
        return Vec::new();
    };
    program
        .accessed
        .iter()
        .zip(rects)
        .enumerate()
        .map(|(i, (&tensor, rect))| Access {
            tensor,
            rect,
            write: i == 0,
        })
        .collect()
}

/// Runs all four static verification passes over a lowered program. An
/// empty result proves it well-formed; error-severity findings mean
/// executing it would hang, corrupt data, or index out of bounds.
pub fn verify_program(program: &SpmdProgram) -> Vec<Diagnostic> {
    distal_verify::verify(&to_verify_ir(program))
}
