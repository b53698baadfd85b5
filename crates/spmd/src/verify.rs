//! Adapter from [`SpmdProgram`] to the [`distal_verify`] event IR.
//!
//! The verifier is deliberately ignorant of this crate (it analyzes a
//! generic message-passing IR), so the mapping lives here, next to the
//! lowering whose invariants it encodes:
//!
//! * `Send`/`Recv` map directly; `ReduceSend`/`ReduceRecv` map with the
//!   `fold` flag set. Messages of the *output* tensor also fold — the
//!   gather lands them with `+=` regardless of op kind (see
//!   `SpmdProgram::apply_recv`) — so overlapping output payloads are
//!   legal and must not read as hazards.
//! * `Compute` becomes a `Task` whose access rectangles project the leaf
//!   bounds through each access's index variables, exactly the
//!   projection `SpmdProgram::run_leaf` uses to gather operand faces.
//! * `RetireScratch` becomes a `Fence`: landings before it are retired,
//!   so the hazard pass's overlap window resets.
//!
//! [`verify_program`] is what `SpmdBackend::plan` and `CostBackend::plan`
//! call — once per plan, cached with it, free on every subsequent bind.

use crate::ops::{Message, SpmdOp};
use crate::program::SpmdProgram;
use distal_core::Diagnostic;
use distal_machine::geom::Rect;
use distal_verify::{Access, Event, Msg, VerifyProgram};

/// Lowers an [`SpmdProgram`] into the verifier's event IR.
pub fn to_verify_ir(program: &SpmdProgram) -> VerifyProgram {
    let out_name = &program.assignment.lhs.tensor;
    let msg = |m: &Message, peer: usize, reduce: bool| Msg {
        tag: m.tag,
        peer,
        tensor: m.tensor.clone(),
        rect: m.rect.clone(),
        bytes: program.message_bytes(m),
        fold: reduce || m.tensor == *out_name,
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
            .map(|t| (t.name.clone(), Rect::sized(&t.dims)))
            .collect(),
        ranks,
        reduces: program.dist_reduces,
    }
}

/// The tensor rectangles one leaf touches — [`SpmdProgram::leaf_rects`],
/// the projection `SpmdProgram::run_leaf` gathers operand faces with —
/// the destination as a write, the operands as reads.
fn task_accesses(program: &SpmdProgram, bounds: &[(i64, i64)]) -> Vec<Access> {
    let rects = program.leaf_rects(bounds).unwrap_or_default();
    let accesses = program.assignment.accesses();
    accesses
        .iter()
        .zip(rects)
        .enumerate()
        .map(|(i, (acc, rect))| Access {
            tensor: acc.tensor.clone(),
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
