//! Verification of the static SPMD backend against the sequential oracle,
//! the dynamic (Legion-style) runtime, and the paper's communication-pattern
//! claims (Figures 8 and 12).

use distal_algs::higher_order::HigherOrderKernel;
use distal_algs::matmul::MatmulAlgorithm;
use distal_core::oracle;
use distal_core::{
    Backend, DistalMachine, Instance, Problem, RuntimeBackend, Schedule, TensorSpec,
};
use distal_format::Format;
use distal_machine::grid::Grid;
use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
use distal_spmd::{lower_problem, CollectiveConfig, SpmdOp};
use std::collections::BTreeMap;

/// Builds a problem on a flat CPU machine over `grid` with the given
/// tensors and statement — the shared registry every lowering in this
/// suite goes through (no hand-built `SpmdTensor` lists).
fn make_problem(grid: &Grid, tensors: &[(&str, Vec<i64>, Format)], expr: &str) -> Problem {
    let machine = DistalMachine::flat(grid.clone(), ProcKind::Cpu);
    let mut p = Problem::new(MachineSpec::small(8), machine);
    p.statement(expr).unwrap();
    for (name, dims, f) in tensors {
        p.tensor(TensorSpec::new(*name, dims.clone(), f.clone()))
            .unwrap();
    }
    p
}

/// [`make_problem`] for an `n × n` matmul with per-tensor formats.
fn matmul_problem(grid: &Grid, formats: &[Format], n: i64) -> Problem {
    let tensors: Vec<(&str, Vec<i64>, Format)> = ["A", "B", "C"]
        .iter()
        .zip(formats.iter())
        .map(|(name, f)| (*name, vec![n, n], f.clone()))
        .collect();
    make_problem(grid, &tensors, "A(i,j) = B(i,k) * C(k,j)")
}

// The one seeding function every backend shares — using it here keeps
// these oracle comparisons on exactly the inputs the backends would seed.
use distal_core::random_data;

/// Asserts `got` is the sequential oracle's answer to `problem`'s
/// statement on `inputs`.
fn assert_oracle(problem: &Problem, inputs: &BTreeMap<String, Vec<f64>>, got: &[f64], ctx: &str) {
    let assignment = problem.assignment().unwrap();
    oracle::check(assignment, &problem.dims_map(), inputs, got, 1e-9)
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
}

/// Runs one matmul algorithm through the SPMD backend and checks the
/// numerics against the oracle. Returns the program for pattern checks.
fn verify_matmul(alg: MatmulAlgorithm, p: i64, n: i64) -> distal_spmd::SpmdProgram {
    let grid = alg.grid(p);
    let problem = matmul_problem(&grid, &alg.formats(MemKind::Sys), n);
    let schedule = alg.schedule(p, n, (n / 2).max(1));
    let program = lower_problem(&problem, &schedule, &CollectiveConfig::default())
        .unwrap_or_else(|e| panic!("{alg:?}: {e}"));

    let mut inputs = BTreeMap::new();
    inputs.insert("B".to_string(), random_data((n * n) as usize, 11));
    inputs.insert("C".to_string(), random_data((n * n) as usize, 13));
    let result = program
        .execute(&inputs)
        .unwrap_or_else(|e| panic!("{alg:?}: {e}"));

    assert_oracle(&problem, &inputs, &result.output, &format!("{alg:?}"));
    program
}

#[test]
fn figure9_algorithms_match_oracle_2d() {
    for alg in [
        MatmulAlgorithm::Summa,
        MatmulAlgorithm::Cannon,
        MatmulAlgorithm::Pumma,
    ] {
        verify_matmul(alg, 4, 8);
    }
}

#[test]
fn figure9_algorithms_match_oracle_3d() {
    verify_matmul(MatmulAlgorithm::Johnson, 8, 8);
    verify_matmul(MatmulAlgorithm::Solomonik { c: 2 }, 8, 8);
    verify_matmul(MatmulAlgorithm::Cosma, 8, 8);
}

#[test]
fn figure9_non_square_grids() {
    // 2D algorithms on a 2x4 grid (the paper's "rectangular node counts").
    for alg in [MatmulAlgorithm::Summa, MatmulAlgorithm::Cannon] {
        verify_matmul(alg, 8, 16);
    }
}

#[test]
fn cannon_steady_state_is_neighbor_only() {
    // The emergent-systolic property (Figure 8b): after the first step
    // (Cannon's "initial data shift"), every transfer the static analysis
    // generates has torus distance exactly 1 — the data a rank needs is
    // what its neighbour fetched last step, and the nearest-source policy
    // finds it there. A 4x4 grid has torus diameter 4, so this is not
    // vacuous.
    let program = verify_matmul(MatmulAlgorithm::Cannon, 16, 16);
    let grid = Grid::grid2(4, 4);
    let steps = program.messages_by_step();
    assert!(steps.len() >= 4, "expected 4 sequential steps");
    for (s, msgs) in steps.iter().enumerate().skip(1) {
        for m in msgs {
            let (from, to) = (m.from as i64, m.to as i64);
            let d = grid.torus_distance(&grid.delinearize(from), &grid.delinearize(to));
            let m = program.named(m);
            assert_eq!(d, 1, "step {s}: {m} has distance {d}");
        }
    }
    // SUMMA on the same grid is NOT neighbour-only: broadcasts reach
    // distance-2 ranks.
    let summa = verify_matmul(MatmulAlgorithm::Summa, 16, 16);
    assert!(summa.stats().max_distance() >= 2);
    // Both algorithms move the same input volume (who moves it differs).
    let cb = program.stats().bytes_by_tensor.clone();
    let sb = summa.stats().bytes_by_tensor.clone();
    let c_inputs = cb.get("B").unwrap_or(&0) + cb.get("C").unwrap_or(&0);
    let s_inputs = sb.get("B").unwrap_or(&0) + sb.get("C").unwrap_or(&0);
    let ratio = c_inputs as f64 / s_inputs as f64;
    assert!(
        (0.7..=1.3).contains(&ratio),
        "input volumes should be comparable: cannon={c_inputs} summa={s_inputs}"
    );
}

#[test]
fn figure12_cannon_pattern_is_derived_statically() {
    // Figure 12: on a 3x3 grid, at each rotated iteration each processor
    // receives the B tile its *right* neighbour (io, jo+1) used in the
    // previous iteration, and the C tile from the processor *below*
    // (io+1, jo). The static analysis must derive exactly these partners.
    let program = verify_matmul(MatmulAlgorithm::Cannon, 9, 9);
    let grid = Grid::grid2(3, 3);
    let steps = program.messages_by_step();
    for (s, msgs) in steps.iter().enumerate().skip(1) {
        if msgs.is_empty() {
            continue; // trailing empty segment
        }
        for m in msgs {
            let to = grid.delinearize(m.to as i64);
            let from = grid.delinearize(m.from as i64);
            let tensor = program.tensor_name(m.tensor);
            let m = program.named(m);
            match &*tensor {
                "B" => {
                    assert_eq!(from[0], to[0], "step {s}: {m}");
                    assert_eq!(from[1], (to[1] + 1) % 3, "step {s}: {m}");
                }
                "C" => {
                    assert_eq!(from[1], to[1], "step {s}: {m}");
                    assert_eq!(from[0], (to[0] + 1) % 3, "step {s}: {m}");
                }
                other => panic!("unexpected tensor {other} in steady state"),
            }
        }
    }
}

#[test]
fn summa_volume_matches_dynamic_runtime() {
    // The SPMD backend and the dynamic runtime must agree on communication
    // *volume* for the same schedule — they discover the same rectangles,
    // one statically and one through coherence analysis.
    let (n, chunk) = (16i64, 8i64);
    let tiled = Format::parse("xy->xy", MemKind::Sys).unwrap();
    let schedule = Schedule::summa(2, 2, chunk);

    // Static backend, from the same shared registry shape.
    let problem = matmul_problem(
        &Grid::grid2(2, 2),
        &[tiled.clone(), tiled.clone(), tiled.clone()],
        n,
    );
    let program = lower_problem(&problem, &schedule, &CollectiveConfig::default()).unwrap();
    let static_bytes = program.stats().bytes;

    // Dynamic runtime (placement separate; compute phase only), as a `+=`
    // over an `A` bound to zero: that skips the output pre-fill. The SPMD
    // model starts accumulators at zero locally, and the dynamic fill
    // would otherwise invalidate the placed A tiles and re-fetch them from
    // the staging fill instance.
    let mut problem = problem;
    problem.fill_random("B", 1).unwrap();
    problem.fill_random("C", 2).unwrap();
    problem.statement("A(i,j) += B(i,k) * C(k,j)").unwrap();
    problem.fill("A", 0.0).unwrap();
    let mut dynamic = RuntimeBackend::functional()
        .compile_typed(&problem, &schedule)
        .unwrap();
    dynamic.place_stats().unwrap();
    let stats = dynamic.execute_stats().unwrap();
    let dynamic_bytes: u64 = stats.bytes_by_class.values().sum();

    assert_eq!(
        static_bytes, dynamic_bytes,
        "static analysis and dynamic coherence must move the same bytes"
    );

    // Both backends produce the oracle answer on the same inputs.
    let inputs: BTreeMap<String, Vec<f64>> = ["B", "C"]
        .map(|t| (t.to_string(), dynamic.read(t).unwrap()))
        .into();
    let want =
        oracle::evaluate(problem.assignment().unwrap(), &problem.dims_map(), &inputs).unwrap();
    let a_static = program.execute(&inputs).unwrap().output;
    oracle::compare(&a_static, &want, 1e-9).unwrap_or_else(|e| panic!("static: {e}"));
    let a_dynamic = dynamic.read("A").unwrap();
    oracle::compare(&a_dynamic, &want, 1e-9).unwrap_or_else(|e| panic!("dynamic: {e}"));
}

#[test]
fn higher_order_kernels_match_oracle() {
    for kernel in HigherOrderKernel::all() {
        let p = match kernel {
            HigherOrderKernel::Mttkrp => 8,
            _ => 4,
        };
        let n = 6i64;
        let grid = kernel.grid(p);
        let shapes = kernel.shapes(n);
        let formats = kernel.formats(MemKind::Sys);
        let tensors: Vec<(&str, Vec<i64>, Format)> = shapes
            .iter()
            .zip(formats.iter())
            .map(|((name, dims), f)| (*name, dims.clone(), f.clone()))
            .collect();
        let problem = make_problem(&grid, &tensors, kernel.expression());
        let program = lower_problem(&problem, &kernel.schedule(p), &CollectiveConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));

        let mut inputs = BTreeMap::new();
        for (i, (name, shape)) in shapes.iter().enumerate() {
            if i > 0 {
                let len = shape.iter().product::<i64>() as usize;
                inputs.insert(name.to_string(), random_data(len, 17 + i as u64));
            }
        }
        let result = program
            .execute(&inputs)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
        assert_oracle(&problem, &inputs, &result.output, kernel.name());
    }
}

#[test]
fn ttv_with_matching_formats_is_communication_free() {
    // §7.2.2: "our schedule using DISTAL performs the operation element-wise
    // without communication" — with row-distributed B/A and a replicated
    // vector, the static analysis proves silence.
    let kernel = HigherOrderKernel::Ttv;
    let (p, n) = (4, 8i64);
    let shapes = kernel.shapes(n);
    let formats = kernel.formats(MemKind::Sys);
    let tensors: Vec<(&str, Vec<i64>, Format)> = shapes
        .iter()
        .zip(formats.iter())
        .map(|((name, dims), f)| (*name, dims.clone(), f.clone()))
        .collect();
    let problem = make_problem(&kernel.grid(p), &tensors, kernel.expression());
    let program =
        lower_problem(&problem, &kernel.schedule(p), &CollectiveConfig::default()).unwrap();
    assert_eq!(program.stats().messages, 0, "{:?}", program.messages());
}

#[test]
fn innerprod_reduces_through_a_binomial_tree() {
    // The only traffic the whole kernel needs is the final scalar fold.
    // Naively that is p-1 eight-byte reduce messages serialized into the
    // owner of `a`; the recognizer turns it into a binomial reduce tree
    // of the same p-1 messages at ⌈log₂ p⌉ depth, with relay ranks
    // folding partials into their accumulators before forwarding.
    let kernel = HigherOrderKernel::Innerprod;
    // n divisible by p so every rank computes a (non-empty) partial sum.
    let (p, n) = (4, 8i64);
    let shapes = kernel.shapes(n);
    let formats = kernel.formats(MemKind::Sys);
    let tensors: Vec<(&str, Vec<i64>, Format)> = shapes
        .iter()
        .zip(formats.iter())
        .map(|((name, dims), f)| (*name, dims.clone(), f.clone()))
        .collect();
    let problem = make_problem(&kernel.grid(p), &tensors, kernel.expression());
    let program =
        lower_problem(&problem, &kernel.schedule(p), &CollectiveConfig::default()).unwrap();
    let stats = program.stats();
    // Volume is invariant under tree lowering.
    assert_eq!(stats.messages, (p - 1) as u64);
    assert_eq!(stats.bytes, (p - 1) as u64 * 8);
    // One Reduce collective rooted at rank 0, log-depth.
    assert_eq!(program.collectives.len(), 1);
    let c = &program.collectives[0];
    assert_eq!(c.kind, distal_spmd::CollectiveKind::Reduce);
    assert_eq!(c.root, 0);
    assert_eq!(c.naive_depth, (p - 1) as usize);
    assert_eq!(c.depth, 2); // ceil(log2(4))
                            // The last fold lands at the root; every message is a reduce-send.
    assert_eq!(program.messages().last().unwrap().to, 0);
    assert!(program
        .in_order()
        .filter(|(_, op)| op.is_send())
        .all(|(_, op)| matches!(op, SpmdOp::ReduceSend(_))));
    assert!(program
        .rank_ops(1)
        .iter()
        .any(|op| matches!(op, SpmdOp::ReduceSend(_))));
    // Relayed folds produce the same scalar as the oracle.
    let mut inputs = BTreeMap::new();
    for (i, (name, shape)) in shapes.iter().enumerate() {
        if i > 0 {
            let len = shape.iter().product::<i64>() as usize;
            inputs.insert(name.to_string(), random_data(len, 31 + i as u64));
        }
    }
    let result = program.execute(&inputs).unwrap();
    assert_oracle(&problem, &inputs, &result.output, "tree-reduced innerprod");
}

/// The acceptance-criterion test: on a 4×4 grid, SUMMA's per-owner row
/// and column fans (g-1 = 3 serialized sends each, O(p) in the grid
/// width) lower to binomial trees of depth ⌈log₂ 4⌉ = 2 ≤ ⌈log₂ 4⌉ + 1,
/// with bit-identical execution; Cannon on the same grid stays systolic —
/// no collectives, all steady-state traffic at torus distance 1.
#[test]
fn summa_4x4_broadcast_depth_drops_to_log() {
    let (p, n) = (16i64, 16i64);
    let alg = MatmulAlgorithm::Summa;
    let grid = alg.grid(p);
    assert_eq!(grid, Grid::grid2(4, 4));
    let problem = matmul_problem(&grid, &alg.formats(MemKind::Sys), n);
    let schedule = alg.schedule(p, n, n / 4);

    let naive = lower_problem(&problem, &schedule, &CollectiveConfig::point_to_point()).unwrap();
    let tree = lower_problem(&problem, &schedule, &CollectiveConfig::default()).unwrap();

    // The naive program serializes each owner fan: depth g-1 = 3.
    assert!(naive.collectives.is_empty());
    let groups = distal_spmd::collective::recognize(&naive);
    assert!(!groups.is_empty(), "SUMMA must expose broadcast fans");
    let naive_depth = groups.iter().map(|c| c.depth).max().unwrap();
    assert_eq!(naive_depth, 3, "O(p) serialized fan on a 4-wide grid");

    // Tree lowering: every collective is a row/column broadcast of depth
    // ⌈log₂ 4⌉ = 2 ≤ ⌈log₂ 4⌉ + 1.
    assert!(!tree.collectives.is_empty());
    for c in &tree.collectives {
        assert_eq!(c.kind, distal_spmd::CollectiveKind::Broadcast);
        assert_eq!(c.members.len(), 4);
        assert!(c.axis.is_some(), "SUMMA fans span grid rows/columns");
        assert_eq!(c.naive_depth, 3);
        assert_eq!(c.depth, 2);
    }
    assert!(tree.collective_depth() <= 3); // ⌈log₂ 4⌉ + 1
    assert!(tree.collective_depth() < naive_depth);

    // Identical bytes, identical numerics (broadcasts move the same
    // payloads, so outputs are bit-identical).
    assert_eq!(naive.stats().bytes_by_tensor, tree.stats().bytes_by_tensor);
    assert_eq!(naive.stats().messages, tree.stats().messages);
    let mut inputs = BTreeMap::new();
    inputs.insert("B".to_string(), random_data((n * n) as usize, 5));
    inputs.insert("C".to_string(), random_data((n * n) as usize, 6));
    let a_naive = naive.execute(&inputs).unwrap().output;
    let a_tree = tree.execute(&inputs).unwrap().output;
    assert_eq!(a_naive.len(), a_tree.len());
    for (x, y) in a_naive.iter().zip(&a_tree) {
        assert_eq!(x.to_bits(), y.to_bits(), "broadcast lowering is exact");
    }

    // The α-β makespan strictly improves: the root's serialized
    // injections were the critical resource.
    let model = distal_spmd::AlphaBeta::default();
    assert!(tree.cost(&model).makespan_s < naive.cost(&model).makespan_s);

    // Cannon stays emergent-systolic: nothing to recognize, and every
    // steady-state transfer is torus distance 1.
    let cannon = verify_matmul(MatmulAlgorithm::Cannon, p, n);
    assert!(cannon.collectives.is_empty());
    assert!(distal_spmd::collective::recognize(&cannon).is_empty());
    let steady: Vec<distal_spmd::Message> = cannon
        .messages_by_step()
        .into_iter()
        .skip(1)
        .flatten()
        .collect();
    let refs: Vec<&distal_spmd::Message> = steady.iter().collect();
    let steady_stats = distal_spmd::CommStats::from_messages(&cannon, &refs);
    assert!(steady_stats.bytes > 0);
    assert_eq!(steady_stats.neighbor_fraction(), 1.0);
    assert_eq!(steady_stats.max_distance(), 1);
}

#[test]
fn johnson_4x4x4_recognizes_plane_broadcasts_and_reduce_trees() {
    // Johnson's algorithm on a 4³ cube: inputs replicate across cube
    // faces (y-line broadcasts of B, x-line broadcasts of C, z-line
    // broadcasts of A's stationary... none — A is computed), and the
    // z-fold of A is a 4-member reduce per (x, y) column.
    let program = verify_matmul(MatmulAlgorithm::Johnson, 64, 8);
    let bcasts: Vec<_> = program
        .collectives
        .iter()
        .filter(|c| c.kind == distal_spmd::CollectiveKind::Broadcast)
        .collect();
    let reduces: Vec<_> = program
        .collectives
        .iter()
        .filter(|c| c.kind == distal_spmd::CollectiveKind::Reduce)
        .collect();
    assert!(!bcasts.is_empty(), "input replication fans out");
    assert_eq!(reduces.len(), 16, "one z-fold per (x, y) column");
    for c in &reduces {
        assert_eq!(program.tensor_name(c.tensor), "A");
        assert_eq!(c.members.len(), 4);
        assert_eq!(c.naive_depth, 3);
        assert_eq!(c.depth, 2);
        assert_eq!(c.axis, Some(2), "folds run along the z axis");
    }
}

#[test]
fn replicating_inputs_on_a_line_becomes_a_ring_allgather() {
    // Row-distributed A and B with a row-distributed C: every rank needs
    // all of C, and every rank owns a piece of it — the recognizer merges
    // the p per-owner broadcasts into one all-gather and the ring
    // lowering makes every hop (including the wrap-around) distance 1.
    let (p, n) = (4i64, 8i64);
    let grid = Grid::line(p);
    let rows = Format::parse("xy->x", MemKind::Sys).unwrap();
    let problem = matmul_problem(&grid, &[rows.clone(), rows.clone(), rows], n);
    let schedule = Schedule::new()
        .divide("i", "io", "ii", p)
        .reorder(&["io", "ii"])
        .distribute(&["io"])
        .communicate(&["A", "B", "C"], "io");
    let naive = lower_problem(&problem, &schedule, &CollectiveConfig::point_to_point()).unwrap();
    let ring = lower_problem(&problem, &schedule, &CollectiveConfig::default()).unwrap();
    assert_eq!(ring.collectives.len(), 1);
    let c = &ring.collectives[0];
    assert_eq!(c.kind, distal_spmd::CollectiveKind::AllGather);
    assert_eq!(ring.tensor_name(c.tensor), "C");
    assert_eq!(c.members.len(), p as usize);
    assert_eq!(c.depth, (p - 1) as usize);
    // Ring traffic is all nearest-neighbour; the naive fans reach across
    // the line.
    assert_eq!(ring.stats().neighbor_fraction(), 1.0);
    assert!(naive.stats().neighbor_fraction() < 1.0);
    // Same bytes, same numerics.
    assert_eq!(naive.stats().bytes, ring.stats().bytes);
    assert_eq!(naive.stats().messages, ring.stats().messages);
    let mut inputs = BTreeMap::new();
    inputs.insert("B".to_string(), random_data((n * n) as usize, 21));
    inputs.insert("C".to_string(), random_data((n * n) as usize, 22));
    let got_ring = ring.execute(&inputs).unwrap().output;
    assert_oracle(&problem, &inputs, &got_ring, "allgather");
    let got_naive = naive.execute(&inputs).unwrap().output;
    for (x, y) in got_naive.iter().zip(&got_ring) {
        assert_eq!(x.to_bits(), y.to_bits(), "allgather lowering is exact");
    }
}

#[test]
fn johnson_folds_distributed_reduction() {
    // Johnson's algorithm replicates inputs across the cube faces and sum-
    // reduces A to the z=0 face: ranks with z=1 send their A tiles as
    // reduce messages.
    let program = verify_matmul(MatmulAlgorithm::Johnson, 8, 8);
    let grid = Grid::grid3(2, 2, 2);
    let reduce_msgs: Vec<_> = program
        .in_order()
        .filter_map(|(_, op)| match op {
            SpmdOp::ReduceSend(m) => Some(*m),
            _ => None,
        })
        .collect();
    assert_eq!(reduce_msgs.len(), 4, "one fold per z=1 rank");
    for m in &reduce_msgs {
        assert_eq!(program.tensor_name(m.tensor), "A");
        let from = grid.delinearize(m.from as i64);
        let to = grid.delinearize(m.to as i64);
        assert_eq!(from[2], 1);
        assert_eq!(to[2], 0);
        assert_eq!((from[0], from[1]), (to[0], to[1]));
        assert_eq!(program.rect(m.rect).volume(), 16); // (8/2)^2 tiles
    }
}

#[test]
fn spmd_handles_cyclic_input_layouts() {
    // The static analysis composes with non-blocked partitions: inputs in
    // a block-cyclic layout are fetched stripe by stripe.
    let n = 8i64;
    let tiled = Format::parse("xy->xy", MemKind::Sys).unwrap();
    let cyclic = Format::parse("xy->xy @cyclic", MemKind::Sys).unwrap();
    let problem = matmul_problem(&Grid::grid2(2, 2), &[tiled, cyclic.clone(), cyclic], n);
    let program = lower_problem(
        &problem,
        &Schedule::summa(2, 2, 4),
        &CollectiveConfig::default(),
    )
    .unwrap();
    let mut inputs = BTreeMap::new();
    inputs.insert("B".to_string(), random_data(64, 3));
    inputs.insert("C".to_string(), random_data(64, 5));
    let result = program.execute(&inputs).unwrap();
    assert_oracle(&problem, &inputs, &result.output, "cyclic SUMMA");
    // Cyclic holdings force strictly more traffic than matching tiles.
    assert!(program.stats().messages > 0);
}

#[test]
fn scratch_memory_stays_bounded() {
    // Double buffering: live scratch never exceeds two generations of the
    // communicated chunks (B and C chunks of n x chunk each, two
    // generations, per rank).
    let n = 16i64;
    let program = verify_matmul(MatmulAlgorithm::Cannon, 4, n);
    let mut inputs = BTreeMap::new();
    inputs.insert("B".to_string(), random_data((n * n) as usize, 1));
    inputs.insert("C".to_string(), random_data((n * n) as usize, 2));
    let result = program.execute(&inputs).unwrap();
    // Each rank holds at most 2 generations x 2 tensors x one 8x8 tile.
    let bound = 2 * 2 * (n / 2 * n / 2) as u64 * 8;
    assert!(
        result.peak_scratch_bytes <= bound,
        "{} > {bound}",
        result.peak_scratch_bytes
    );
}

#[test]
fn executing_an_instance_twice_repeats_its_bits_and_its_report() {
    // An instance's input homes are seeded once, by `bind`, and every
    // execution borrows them — so nothing an execution does may write
    // them: not SUMMA's broadcasts, not Cannon's systolic forwarding out
    // of scratch, not the `ReduceRecv` folds of Johnson's reduction, not a
    // cyclic layout's gathered faces. Held on both transports.
    use distal_spmd::{SpmdBackend, Transport};
    let cyclic = Format::parse("xy->xy @cyclic", MemKind::Sys).unwrap();
    let tiled = Format::parse("xy->xy", MemKind::Sys).unwrap();
    let mut cases: Vec<(String, Problem, Schedule)> = [
        (MatmulAlgorithm::Summa, 4),
        (MatmulAlgorithm::Cannon, 4),
        (MatmulAlgorithm::Johnson, 8),
    ]
    .into_iter()
    .map(|(alg, p)| {
        let problem = matmul_problem(&alg.grid(p), &alg.formats(MemKind::Sys), 8);
        (format!("{alg:?}"), problem, alg.schedule(p, 8, 4))
    })
    .collect();
    cases.push((
        "cyclic SUMMA".into(),
        matmul_problem(&Grid::grid2(2, 2), &[tiled, cyclic.clone(), cyclic], 8),
        Schedule::summa(2, 2, 4),
    ));
    for (name, mut problem, schedule) in cases {
        problem.fill_random("B", 11).unwrap();
        problem.fill_random("C", 13).unwrap();
        let inputs = ["B", "C"].map(|t| problem.initial_data(t).unwrap());
        for transport in [Transport::Sequential, Transport::threaded_with(2)] {
            let what = format!("{name} on {transport:?}");
            let backend = SpmdBackend::new().with_transport(transport);
            let mut instance = backend.compile(&problem, &schedule).unwrap();
            let mut runs = Vec::new();
            for _ in 0..2 {
                let mut report = instance.execute().unwrap();
                if report.modeled_s.is_some() {
                    // A threaded run's headline is its measured wall clock.
                    report.critical_path_s = 0.0;
                }
                let bits: Vec<u64> = instance
                    .read("A")
                    .unwrap()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                runs.push((bits, report));
                for (tensor, seeded) in ["B", "C"].iter().zip(&inputs) {
                    assert_eq!(&instance.read(tensor).unwrap(), seeded, "{what}: {tensor}");
                }
            }
            assert!(runs[0] == runs[1], "{what}: the second execution differs");
        }
    }
}

/// The largest scratch any rank holds at a leaf, found by replaying its
/// op list the way the rank VM keeps received input payloads: per tensor,
/// generations newest first, a receive adding to the newest, a retire
/// keeping the newest `keep` and opening a fresh one for every tensor
/// that has received. Output payloads fold and take no scratch.
fn replayed_peak_scratch(program: &distal_spmd::SpmdProgram) -> u64 {
    let out = program.output();
    let rank_peak = |rank: usize| {
        let mut gens: BTreeMap<_, std::collections::VecDeque<u64>> = BTreeMap::new();
        let mut peak = 0;
        for op in program.rank_ops(rank) {
            match op {
                SpmdOp::Recv(m) | SpmdOp::ReduceRecv(m) if m.tensor != out => {
                    let tensor = gens.entry(m.tensor).or_default();
                    if tensor.is_empty() {
                        tensor.push_front(0);
                    }
                    tensor[0] += program.dense_bytes(m);
                }
                SpmdOp::RetireScratch { keep } => {
                    for tensor in gens.values_mut() {
                        tensor.truncate(*keep);
                        tensor.push_front(0);
                    }
                }
                SpmdOp::Compute { .. } => peak = peak.max(gens.values().flatten().sum()),
                _ => {}
            }
        }
        peak
    };
    (0..program.ranks()).map(rank_peak).max().unwrap_or(0)
}

#[test]
fn peak_scratch_is_what_a_replay_of_the_scratch_generations_finds() {
    // `peak_scratch_bytes` is fixed when a program is resolved, before
    // any payload moves. It must be the peak the rank VM's scratch
    // generations reach, on every Figure 9 algorithm under every
    // collective lowering.
    let n = 24;
    let mut inputs = BTreeMap::new();
    inputs.insert("B".to_string(), random_data((n * n) as usize, 7));
    inputs.insert("C".to_string(), random_data((n * n) as usize, 9));
    for p in [9i64, 16, 64] {
        for alg in MatmulAlgorithm::all(p) {
            let problem = matmul_problem(&alg.grid(p), &alg.formats(MemKind::Sys), n);
            let schedule = alg.schedule(p, n, n / 2);
            for collectives in [
                CollectiveConfig::point_to_point(),
                CollectiveConfig::default(),
                CollectiveConfig::rings(),
            ] {
                let what = format!("{alg:?} p={p} {collectives:?}");
                let program = lower_problem(&problem, &schedule, &collectives)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let result = program.execute(&inputs).unwrap();
                let replayed = replayed_peak_scratch(&program);
                assert_eq!(result.peak_scratch_bytes, replayed, "{what}");
                assert!(replayed > 0 || program.stats().messages == 0, "{what}");
            }
        }
    }
}
