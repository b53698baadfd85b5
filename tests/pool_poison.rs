//! Recycled buffers must never leak their previous contents into a
//! result. Both backends take tiles, payloads and operand faces from
//! `distal::runtime::pool` without clearing them when they are about to be
//! overwritten whole; this test fills the pool with NaN-poisoned buffers of
//! every length the run will ask for and demands exact, finite outputs.
//!
//! (Its own test binary: the pool is process-wide, and the other suites'
//! tensors are below the pooled sizes.)

use distal::algs::matmul::MatmulAlgorithm;
use distal::algs::setup::matmul_problem_on;
use distal::prelude::*;
use distal::runtime::pool;

mod common;
use common::Rng;

const N: usize = 128;

fn poison() {
    // 64×64 tiles, half and whole tensors; more buffers than one request
    // of any algorithm below takes.
    for len in [N * N / 4, N * N / 2, N * N] {
        assert!(len >= pool::MIN_POOLED);
        pool::give_all((0..160).map(|_| vec![f64::NAN; len]));
    }
}

/// `B · C` for operands whose entries are multiples of 1/8: every partial
/// sum is exact, so any summation order gives these bits.
fn reference(b: &[f64], c: &[f64]) -> Vec<f64> {
    let mut a = vec![0.0; N * N];
    for i in 0..N {
        for k in 0..N {
            for j in 0..N {
                a[i * N + j] += b[i * N + k] * c[k * N + j];
            }
        }
    }
    a
}

#[test]
fn poisoned_pool_buffers_never_reach_an_output() {
    let mut rng = Rng(0x9E37_79B9);
    let (b, c) = (rng.data(N * N), rng.data(N * N));
    let expect = reference(&b, &c);
    let mut bindings = Bindings::new();
    bindings.set_data("B", b).set_data("C", c);

    let backends: [(&str, Box<dyn Backend>); 3] = [
        ("runtime", Box::new(RuntimeBackend::functional())),
        ("spmd/sequential", Box::new(SpmdBackend::new())),
        (
            "spmd/threaded",
            Box::new(SpmdBackend::new().with_transport(Transport::threaded_with(3))),
        ),
    ];
    let cases = [
        (MatmulAlgorithm::Summa, 4),
        (MatmulAlgorithm::Cannon, 4),
        (MatmulAlgorithm::Pumma, 4),
        (MatmulAlgorithm::Johnson, 8),
    ];
    for (alg, p) in cases {
        let (problem, schedule) = matmul_problem_on(
            alg,
            MachineSpec::small(p as usize / 2),
            ProcKind::Cpu,
            MemKind::Sys,
            p,
            N as i64,
            N as i64 / 2,
        )
        .unwrap();
        for (name, backend) in &backends {
            let plan = backend.plan(&problem, &schedule).unwrap();
            // Twice: the second request also recycles the first one's own
            // buffers.
            for round in 0..2 {
                poison();
                let mut instance = plan.bind(&bindings).unwrap();
                instance.place().unwrap();
                instance.execute().unwrap();
                let got = instance.read("A").unwrap();
                let wrong = got
                    .iter()
                    .zip(&expect)
                    .position(|(g, e)| g.to_bits() != e.to_bits());
                assert_eq!(
                    wrong, None,
                    "{alg:?} p={p} on {name}, request {round}: first wrong element"
                );
            }
        }
    }
}
