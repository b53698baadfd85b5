//! Property tests for the static SPMD backend: across random problem
//! sizes, grids, and chunkings, the statically lowered program must agree
//! with the sequential oracle, and its structural invariants must hold
//! (send/recv pairing, coverage, bounded scratch). Every lowering goes
//! through the shared `Problem` registry (`lower_problem`), not
//! hand-built tensor lists.

use distal_core::{oracle, random_data, DistalMachine, Problem, Schedule, TensorSpec};
use distal_format::Format;
use distal_machine::grid::Grid;
use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
use distal_spmd::{lower_problem, CollectiveConfig, CollectiveKind, SpmdOp};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// An `A(i,j) = B(i,k) * C(k,j)` problem over `grid` with per-tensor
/// shapes and formats, registered through the shared pipeline.
fn matmul_problem(grid: &Grid, shapes: [Vec<i64>; 3], formats: [Format; 3]) -> Problem {
    let machine = DistalMachine::flat(grid.clone(), ProcKind::Cpu);
    let mut p = Problem::new(MachineSpec::small(8), machine);
    p.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
    for ((name, dims), f) in ["A", "B", "C"].iter().zip(shapes).zip(formats) {
        p.tensor(TensorSpec::new(*name, dims, f)).unwrap();
    }
    p
}

fn square_problem(grid: &Grid, n: i64, format: &Format) -> Problem {
    matmul_problem(
        grid,
        [vec![n, n], vec![n, n], vec![n, n]],
        [format.clone(), format.clone(), format.clone()],
    )
}

fn summa_like(gx: i64, gy: i64, chunk: i64, rotate: bool) -> Schedule {
    let s = Schedule::new().distribute_onto(&["i", "j"], &["io", "jo"], &["ii", "ji"], &[gx, gy]);
    if rotate {
        s.divide("k", "ko", "ki", gx)
            .reorder(&["io", "jo", "ko", "ii", "ji", "ki"])
            .rotate("ko", &["io", "jo"], "kos")
            .communicate(&["A"], "jo")
            .communicate(&["B", "C"], "kos")
    } else {
        s.split("k", "ko", "ki", chunk)
            .reorder(&["io", "jo", "ko", "ii", "ji", "ki"])
            .communicate(&["A"], "jo")
            .communicate(&["B", "C"], "ko")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random matmul shapes, grids and chunkings: the SPMD execution equals
    /// the oracle, tags pair exactly, and no rank reads data it was never
    /// sent.
    #[test]
    fn random_matmul_matches_oracle(
        n in 2i64..14,
        gx in 1i64..4,
        gy in 1i64..4,
        chunk in 1i64..8,
        rotate in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let grid = Grid::grid2(gx, gy);
        let tiled = Format::parse("xy->xy", MemKind::Sys).unwrap();
        let problem = square_problem(&grid, n, &tiled);
        let schedule = summa_like(gx, gy, chunk, rotate);
        let program = lower_problem(&problem, &schedule, &CollectiveConfig::default()).unwrap();

        // Structural invariant: every send has exactly one matching recv
        // with the same tag, and vice versa — and the global order is a
        // linearization of the rank programs (every op exactly once, each
        // rank's ops in program order) with every send ahead of its recv.
        let mut sends = BTreeSet::new();
        let mut recvs = BTreeSet::new();
        let mut cursor = vec![0usize; program.ranks()];
        for (rank, op) in program.in_order() {
            prop_assert!(std::ptr::eq(op, &program.rank_ops(rank)[cursor[rank]]));
            cursor[rank] += 1;
            if let Some(m) = op.message() {
                if op.is_send() {
                    prop_assert!(sends.insert(m.tag), "duplicate send tag {}", m.tag);
                } else {
                    prop_assert!(sends.contains(&m.tag), "recv before send of tag {}", m.tag);
                    prop_assert!(recvs.insert(m.tag), "duplicate recv tag {}", m.tag);
                }
            }
        }
        prop_assert_eq!(&sends, &recvs);
        let listed: usize = (0..program.ranks()).map(|r| program.rank_ops(r).len()).sum();
        prop_assert_eq!(listed, program.in_order().count());

        let mut inputs = BTreeMap::new();
        inputs.insert("B".to_string(), random_data((n * n) as usize, seed));
        inputs.insert("C".to_string(), random_data((n * n) as usize, seed + 1));
        let result = program.execute(&inputs).unwrap();

        let want =
            oracle::evaluate(problem.assignment().unwrap(), &problem.dims_map(), &inputs).unwrap();
        for (g, w) in result.output.iter().zip(want.iter()) {
            prop_assert!((g - w).abs() < 1e-9 * (1.0 + w.abs()), "{g} vs {w}");
        }
    }

    /// Rectangular matmuls (m x k times k x n) through a row-distributed
    /// owner-computes schedule.
    #[test]
    fn rectangular_matmul_row_distribution(
        m in 2i64..12,
        k in 1i64..10,
        n in 1i64..10,
        p in 1i64..5,
        seed in 0u64..1000,
    ) {
        let grid = Grid::line(p);
        let rows = Format::parse("xy->x", MemKind::Sys).unwrap();
        let repl = Format::parse("xy->*", MemKind::Sys).unwrap();
        let problem = matmul_problem(
            &grid,
            [vec![m, n], vec![m, k], vec![k, n]],
            [rows.clone(), rows, repl],
        );
        let schedule = Schedule::new()
            .divide("i", "io", "ii", p)
            .reorder(&["io", "ii"])
            .distribute(&["io"])
            .communicate(&["A", "B", "C"], "io");
        let program = lower_problem(&problem, &schedule, &CollectiveConfig::default()).unwrap();
        // Matching formats: fully communication-free.
        prop_assert_eq!(program.stats().messages, 0);

        let mut inputs = BTreeMap::new();
        inputs.insert("B".to_string(), random_data((m * k) as usize, seed));
        inputs.insert("C".to_string(), random_data((k * n) as usize, seed + 7));
        let result = program.execute(&inputs).unwrap();
        let want =
            oracle::evaluate(problem.assignment().unwrap(), &problem.dims_map(), &inputs).unwrap();
        for (g, w) in result.output.iter().zip(want.iter()) {
            prop_assert!((g - w).abs() < 1e-9 * (1.0 + w.abs()));
        }
    }

    /// Collective lowering is a pure re-scheduling: for random einsum
    /// shapes, grids, chunkings, and distributions, the tree- and
    /// ring-lowered programs move exactly the bytes of the naive
    /// point-to-point program per tensor (so forwarding never inflates
    /// volume), match the sequential oracle, are *bit-identical* to the
    /// naive program when no reductions were re-associated, and never
    /// deepen a fan beyond its serialized baseline.
    #[test]
    fn collective_lowering_preserves_semantics_and_bytes(
        n in 2i64..14,
        gx in 1i64..5,
        gy in 1i64..4,
        chunk in 1i64..8,
        rotate in any::<bool>(),
        rows_expr in any::<bool>(),
        seed in 0u64..1000,
    ) {
        // Two statement families: SUMMA/Cannon-style square matmul on a
        // 2-D grid, and a row-replicated matvec-like einsum on a line
        // (the family that produces all-gathers).
        let (problem, schedule) = if rows_expr {
            let p = gx.max(2);
            let rows = Format::parse("xy->x", MemKind::Sys).unwrap();
            let schedule = Schedule::new()
                .divide("i", "io", "ii", p)
                .reorder(&["io", "ii"])
                .distribute(&["io"])
                .communicate(&["A", "B", "C"], "io");
            (square_problem(&Grid::line(p), n, &rows), schedule)
        } else {
            let tiled = Format::parse("xy->xy", MemKind::Sys).unwrap();
            (
                square_problem(&Grid::grid2(gx, gy), n, &tiled),
                summa_like(gx, gy, chunk, rotate),
            )
        };

        let naive = lower_problem(&problem, &schedule, &CollectiveConfig::point_to_point()).unwrap();
        let tree = lower_problem(&problem, &schedule, &CollectiveConfig::default()).unwrap();
        let ring = lower_problem(&problem, &schedule, &CollectiveConfig::rings()).unwrap();

        for lowered in [&tree, &ring] {
            // Volume and message count are invariant per tensor.
            prop_assert_eq!(
                naive.stats().bytes_by_tensor.clone(),
                lowered.stats().bytes_by_tensor.clone()
            );
            prop_assert_eq!(naive.stats().messages, lowered.stats().messages);
            // No collective is deeper than the serialized fan it replaced.
            for c in &lowered.collectives {
                prop_assert!(c.depth <= c.naive_depth, "{c}");
                prop_assert!(c.members.len() >= 3);
            }
        }
        // Binomial trees reach log depth.
        for c in &tree.collectives {
            let g = c.members.len();
            let log = (usize::BITS - (g - 1).leading_zeros()) as usize;
            if c.kind != CollectiveKind::AllGather {
                prop_assert_eq!(c.depth, log, "{} members over {:?}", g, c.kind);
            }
        }

        let mut inputs = BTreeMap::new();
        inputs.insert("B".to_string(), random_data((n * n) as usize, seed));
        inputs.insert("C".to_string(), random_data((n * n) as usize, seed + 1));
        let base = naive.execute(&inputs).unwrap();
        let want =
            oracle::evaluate(problem.assignment().unwrap(), &problem.dims_map(), &inputs).unwrap();
        for (lowered, name) in [(&tree, "tree"), (&ring, "ring")] {
            let got = lowered.execute(&inputs).unwrap();
            for (g, w) in got.output.iter().zip(want.iter()) {
                prop_assert!((g - w).abs() < 1e-9 * (1.0 + w.abs()), "{name}: {g} vs {w}");
            }
            // Broadcast/all-gather lowering never re-associates a fold, so
            // unless a Reduce was recognized the outputs are bit-identical.
            let reassociates = lowered
                .collectives
                .iter()
                .any(|c| c.kind == CollectiveKind::Reduce);
            if !reassociates {
                for (g, b) in got.output.iter().zip(base.output.iter()) {
                    prop_assert_eq!(g.to_bits(), b.to_bits(), "{} diverged from naive", name);
                }
            }
        }
    }

    /// Scratch stays within the double-buffer bound for systolic schedules
    /// at every size.
    #[test]
    fn systolic_scratch_bound(n in 4i64..16, g in 2i64..4) {
        let grid = Grid::grid2(g, g);
        let tiled = Format::parse("xy->xy", MemKind::Sys).unwrap();
        let problem = square_problem(&grid, n, &tiled);
        let program =
            lower_problem(&problem, &summa_like(g, g, 1, true), &CollectiveConfig::default())
                .unwrap();
        let mut inputs = BTreeMap::new();
        inputs.insert("B".to_string(), random_data((n * n) as usize, 3));
        inputs.insert("C".to_string(), random_data((n * n) as usize, 4));
        let result = program.execute(&inputs).unwrap();
        // Two tensors x two generations x one ceil(n/g)^2 tile, with 2x
        // slack for boundary fragments.
        let tile = (n + g - 1) / g;
        let bound = 2 * 2 * (tile * tile) as u64 * 8 * 2;
        prop_assert!(
            result.peak_scratch_bytes <= bound,
            "{} > {bound}",
            result.peak_scratch_bytes
        );
    }
}

#[test]
fn retire_ops_bound_generation_count() {
    // The generated programs interleave retire ops so the VM never holds
    // more than two scratch generations per tensor.
    let grid = Grid::grid2(3, 3);
    let tiled = Format::parse("xy->xy", MemKind::Sys).unwrap();
    let problem = square_problem(&grid, 9, &tiled);
    let program = lower_problem(
        &problem,
        &summa_like(3, 3, 3, true),
        &CollectiveConfig::default(),
    )
    .unwrap();
    for rank in 0..program.ranks() {
        let retires = program
            .rank_ops(rank)
            .iter()
            .filter(|o| matches!(o, SpmdOp::RetireScratch { keep: 1 }))
            .count();
        assert_eq!(retires, 3, "one retire per sequential step");
    }
}
