//! Integration test: Figure 12 — the communication pattern of `B` in
//! Cannon's algorithm on a 3×3 grid of processors.
//!
//! At each iteration `ko`, processor (io, jo) performs the rotated
//! iteration `kos = ko + io + jo mod 3`, accessing tile `B(io, kos)`; the
//! data needed at the current iteration was sent by the processor one step
//! to the right (systolic shift).

use distal::algs::matmul::MatmulAlgorithm;
use distal::algs::setup::{matmul_problem, RunConfig};
use distal::prelude::*;
use distal::runtime::stats::CopyKind;

/// The compute-phase statistics (with the copy log) of an algorithm on a
/// 3×3 grid of single-socket nodes — node id == grid rank — plus `B`'s
/// region.
fn logged_run(alg: MatmulAlgorithm) -> (RunStats, distal::runtime::RegionId) {
    let mut config = RunConfig::cpu(9, Mode::Model);
    config.spec = MachineSpec::lassen(9);
    config.spec.node.cpu_sockets = 1;
    let n = 27;
    let (problem, schedule) = matmul_problem(alg, &config, n, n / 3).unwrap();
    let mut instance = config.backend().compile_typed(&problem, &schedule).unwrap();
    instance.runtime_mut().record_copies(true);
    instance.place_stats().unwrap();
    let stats = instance.execute_stats().unwrap();
    (stats, instance.region("B").unwrap())
}

#[test]
fn cannon_b_tiles_shift_from_right_neighbours() {
    let (stats, b_region) = logged_run(MatmulAlgorithm::Cannon);
    let grid = |node: usize| ((node / 3) as i64, (node % 3) as i64);
    let mut neighbour = 0usize;
    let mut home = 0usize;
    let mut other = 0usize;
    for c in stats.copy_log.as_ref().unwrap() {
        if c.region != b_region || c.kind != CopyKind::Data {
            continue;
        }
        if c.src_node == usize::MAX || c.src_node == c.dst_node {
            continue;
        }
        let (dio, djo) = grid(c.dst_node);
        let (sio, sjo) = grid(c.src_node);
        // The systolic source: same row, one column to the right.
        if sio == dio && sjo == (djo + 1).rem_euclid(3) {
            neighbour += 1;
            continue;
        }
        // The initial shift (ko = 0) comes from the tile's home owner:
        // B(io, (io + jo) mod 3) lives at processor (io, (io + jo) mod 3).
        if sio == dio && sjo == (dio + djo).rem_euclid(3) {
            home += 1;
            continue;
        }
        other += 1;
    }
    assert_eq!(other, 0, "B must only move along rows (Figure 12)");
    assert!(neighbour > 0, "systolic forwarding must dominate");
    // Two of three steps are neighbour shifts, one is the initial fetch
    // (and the tile already local at some step needs no copy).
    assert!(
        neighbour >= home,
        "neighbour shifts {neighbour} should be at least initial fetches {home}"
    );
}

#[test]
fn summa_b_chunks_broadcast_within_rows() {
    // Contrast: SUMMA moves B chunks within grid rows only (row broadcast,
    // Figure 10), with no rotation.
    let (stats, b_region) = logged_run(MatmulAlgorithm::Summa);
    for c in stats.copy_log.as_ref().unwrap() {
        if c.region != b_region || c.kind != CopyKind::Data {
            continue;
        }
        if c.src_node == usize::MAX || c.src_node == c.dst_node {
            continue;
        }
        let (dio, _) = ((c.dst_node / 3) as i64, (c.dst_node % 3) as i64);
        let (sio, _) = ((c.src_node / 3) as i64, (c.src_node % 3) as i64);
        assert_eq!(sio, dio, "SUMMA B chunks stay within their grid row");
    }
}
