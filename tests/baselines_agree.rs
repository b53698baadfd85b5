//! Integration test: the ScaLAPACK, CTF, and COSMA baselines compute the
//! same results as DISTAL — the comparison isolates performance strategy,
//! not numerics.

use distal::algs::higher_order::HigherOrderKernel;
use distal::algs::matmul::MatmulAlgorithm;
use distal::algs::setup::{higher_order_problem, matmul_problem, RunConfig};
use distal::baselines::{cosma, ctf, scalapack, PhasedRun};
use distal::prelude::*;

fn config(nodes: usize) -> RunConfig {
    let mut c = RunConfig::cpu(nodes, Mode::Functional);
    c.spec = MachineSpec::small(nodes);
    c
}

/// DISTAL's own answer: the problem's output on the configuration's
/// runtime backend.
fn ours(cfg: &RunConfig, (problem, schedule): (Problem, Schedule)) -> Vec<f64> {
    let mut instance = cfg.backend().compile(&problem, &schedule).unwrap();
    instance.run().unwrap();
    instance
        .read(&problem.assignment().unwrap().lhs.tensor)
        .unwrap()
}

/// A baseline's answer.
fn theirs(mut run: PhasedRun) -> Vec<f64> {
    run.run().unwrap();
    run.read(&run.output).unwrap()
}

#[test]
fn all_gemm_systems_agree() {
    let n = 16;
    let cfg = config(4);
    let reference = ours(
        &cfg,
        matmul_problem(MatmulAlgorithm::Cannon, &cfg, n, 4).unwrap(),
    );
    let runs = [
        ("scalapack", scalapack::gemm(&cfg, n, 4)),
        ("ctf", ctf::gemm(&cfg, n)),
        ("cosma", cosma::gemm(&cfg, n, false)),
    ];
    for (name, run) in runs {
        let got = theirs(run.unwrap());
        for (idx, (g, w)) in got.iter().zip(reference.iter()).enumerate() {
            assert!((g - w).abs() < 1e-9, "{name} differs at {idx}: {g} vs {w}");
        }
    }
}

#[test]
fn ctf_higher_order_agrees_with_distal() {
    for kernel in HigherOrderKernel::all() {
        let n = 8;
        let cfg = config(2);
        let want = ours(&cfg, higher_order_problem(kernel, &cfg, n).unwrap());
        let got = theirs(ctf::higher_order(kernel, &cfg, n).unwrap());
        for (idx, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            assert!(
                (g - w).abs() < 1e-6 * (1.0 + w.abs()),
                "{kernel:?} CTF differs at {idx}: {g} vs {w}"
            );
        }
    }
}

#[test]
fn cosma_gpu_out_of_core_agrees() {
    let n = 16;
    let mut cfg = RunConfig::gpu(2, Mode::Functional);
    cfg.spec = MachineSpec::small(2);
    let got = theirs(cosma::gemm(&cfg, n, false).unwrap());
    // Reference on CPU sockets: inputs are seeded by name, so both hold
    // identical B and C.
    let cpu = config(2);
    let want = ours(
        &cpu,
        matmul_problem(MatmulAlgorithm::Summa, &cpu, n, 8).unwrap(),
    );
    for (idx, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert!(
            (g - w).abs() < 1e-9,
            "cosma-gpu differs at {idx}: {g} vs {w}"
        );
    }
}
