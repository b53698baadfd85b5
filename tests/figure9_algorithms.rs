//! Integration test: every Figure 9 algorithm computes the same product,
//! on square and awkward (non-dividing) sizes and machine shapes.

use distal::algs::matmul::MatmulAlgorithm;
use distal::algs::setup::{matmul_problem, RunConfig};
use distal::prelude::*;

mod common;

fn check(alg: MatmulAlgorithm, nodes: usize, n: i64, chunk: i64) {
    let mut config = RunConfig::cpu(nodes, Mode::Functional);
    config.spec = MachineSpec::small(nodes);
    let (problem, schedule) =
        matmul_problem(alg, &config, n, chunk).unwrap_or_else(|e| panic!("{alg:?} problem: {e}"));
    println!("{alg:?} nodes={nodes} n={n}");
    common::run_against_oracle(&config.backend(), &problem, &schedule, 1e-9);
}

#[test]
fn all_algorithms_on_awkward_size() {
    // n = 13 does not divide evenly by any grid dimension; tail blocks and
    // empty launch points must all be handled.
    for alg in MatmulAlgorithm::all(8) {
        check(alg, 4, 13, 5);
    }
}

#[test]
fn all_algorithms_on_even_size() {
    for alg in MatmulAlgorithm::all(8) {
        check(alg, 4, 16, 8);
    }
}

#[test]
fn two_d_algorithms_on_rectangular_grid() {
    // 6 sockets -> 2x3 grid: rotation extents differ per dimension.
    for alg in [
        MatmulAlgorithm::Summa,
        MatmulAlgorithm::Cannon,
        MatmulAlgorithm::Pumma,
    ] {
        check(alg, 3, 12, 4);
    }
}

#[test]
fn johnson_on_perfect_cube() {
    check(MatmulAlgorithm::Johnson, 4, 12, 4); // 8 sockets = 2x2x2
}

#[test]
fn solomonik_with_replication() {
    check(MatmulAlgorithm::Solomonik { c: 2 }, 4, 16, 4); // 2x2x2
}

#[test]
fn chunk_size_does_not_change_results() {
    for chunk in [1, 3, 8, 16] {
        check(MatmulAlgorithm::Summa, 2, 16, chunk);
    }
}
