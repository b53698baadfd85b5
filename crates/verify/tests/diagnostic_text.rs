//! How verifier diagnostics render a rectangle: once, in its own brackets
//! — `B[(0, 0)..(1, 3)]`, never `B[[(0, 0)..(1, 3)]]`.

use distal_algs::matmul::MatmulAlgorithm;
use distal_algs::setup::matmul_problem_on;
use distal_core::DiagnosticKind;
use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
use distal_spmd::{lower_problem, verify_program, CollectiveConfig};

/// The dropped-send mutation on a 2×2 SUMMA: the lost-message diagnostic
/// names the tensor and the rectangle the receiver waits for.
#[test]
fn a_lost_message_prints_its_rectangle_once() {
    let (problem, schedule) = matmul_problem_on(
        MatmulAlgorithm::Summa,
        MachineSpec::small(4),
        ProcKind::Cpu,
        MemKind::Sys,
        4,
        8,
        4,
    )
    .unwrap();
    let mut program = lower_problem(&problem, &schedule, &CollectiveConfig::trees()).unwrap();
    let lost = program
        .messages()
        .into_iter()
        .find(|m| program.tensor_name(m.tensor) == "B")
        .unwrap()
        .tag;
    program.rewrite(|stream| {
        stream.retain(|(_, op)| !(op.is_send() && op.message().is_some_and(|m| m.tag == lost)))
    });
    let diags = verify_program(&program);
    let d = diags
        .iter()
        .find(|d| d.kind == DiagnosticKind::LostMessage)
        .unwrap_or_else(|| panic!("expected a lost-message diagnostic: {diags:?}"));
    assert!(d.message.contains("B[("), "{}", d.message);
    assert!(!d.message.contains("[["), "{}", d.message);
}
