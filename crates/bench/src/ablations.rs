//! Ablations over DISTAL's design choices.
//!
//! The paper argues three mechanisms matter (§3.3, §7): aggregated
//! communication (`communicate`), symmetry breaking (`rotate`), and
//! overlap of communication with computation (deferred execution vs
//! bulk-synchronous). Each ablation removes one mechanism from an
//! otherwise-identical schedule and measures the damage; two more compare
//! data layouts and auto-scheduling against the hand schedules.
//!
//! Usage: `distal-bench ablations [--assert-pruning] [nodes] [n]`
//! (defaults: 16 nodes, n = 40000).
//!
//! `--assert-pruning` is the admission-pruner CI gate: a full-space
//! search over exhaustive grid factorizations at a small extent must
//! prune at least one illegal candidate before costing, and the pruned
//! candidates must cost zero lowerings (total lowerings bounded by the
//! surviving candidate count).

use crate::args::Args;
use distal_algs::matmul::MatmulAlgorithm;
use distal_algs::setup::{matmul_problem, RunConfig};
use distal_core::{CompileOptions, Problem, RuntimeBackend, RuntimeInstance, Schedule};
use distal_runtime::{Mode, RunStats};
use std::fmt::Write as _;

/// One ablation measurement.
#[derive(Clone, Debug)]
struct Ablation {
    /// What was measured.
    pub label: String,
    /// Simulated makespan, seconds.
    pub makespan_s: f64,
    /// Inter-node traffic, bytes.
    pub inter_node_bytes: u64,
}

impl Ablation {
    fn new(label: impl Into<String>, stats: &RunStats) -> Self {
        Ablation {
            label: label.into(),
            makespan_s: stats.makespan_s,
            inter_node_bytes: stats.inter_node_bytes(),
        }
    }
}

/// Binds a problem on `backend` and places its tensors.
fn placed(backend: RuntimeBackend, problem: &Problem, schedule: &Schedule) -> RuntimeInstance {
    let mut instance = backend.compile_typed(problem, schedule).expect("compile");
    instance.place_stats().expect("place");
    instance
}

/// The compute-phase statistics of a Figure 9 algorithm's own schedule.
fn matmul_stats(alg: MatmulAlgorithm, config: &RunConfig, n: i64, chunk: i64) -> RunStats {
    let (problem, schedule) = matmul_problem(alg, config, n, chunk).expect("setup");
    placed(config.backend(), &problem, &schedule)
        .execute_stats()
        .expect("execute")
}

/// `rotate` ablation: Cannon's schedule with and without the rotation
/// (without it, the same divide/communicate structure broadcasts from the
/// owners instead of shifting between neighbours).
fn ablate_rotate(nodes: usize, n: i64) -> Vec<Ablation> {
    let config = RunConfig::gpu(nodes, Mode::Model);
    let p = config.processors();
    let grid = MatmulAlgorithm::Cannon.grid(p);
    let (gx, gy) = (grid.extent(0), grid.extent(1));

    let with_rotate = MatmulAlgorithm::Cannon.schedule(p, n, 0);
    let without_rotate = Schedule::new()
        .distribute_onto(&["i", "j"], &["io", "jo"], &["ii", "ji"], &[gx, gy])
        .divide("k", "ko", "ki", gx)
        .reorder(&["io", "jo", "ko", "ii", "ji", "ki"])
        .communicate(&["A"], "jo")
        .communicate(&["B", "C"], "ko");

    let mut out = Vec::new();
    for (label, schedule) in [
        ("Cannon (with rotate)", with_rotate),
        ("Cannon minus rotate", without_rotate),
    ] {
        let (problem, _) = matmul_problem(MatmulAlgorithm::Cannon, &config, n, 1).expect("setup");
        let stats = placed(config.backend(), &problem, &schedule)
            .execute_stats()
            .expect("execute");
        out.push(Ablation::new(label, &stats));
    }
    out
}

/// `communicate` granularity ablation: SUMMA with chunk sizes from
/// whole-k (one bulk transfer) down to fine chunks (pipelined), showing
/// the memory/pipelining trade-off of §3.3.
fn ablate_communicate_granularity(nodes: usize, n: i64) -> Vec<Ablation> {
    let config = RunConfig::gpu(nodes, Mode::Model);
    let mut out = Vec::new();
    for divisor in [1i64, 4, 16, 64] {
        let chunk = (n / divisor).max(1);
        let stats = matmul_stats(MatmulAlgorithm::Summa, &config, n, chunk);
        out.push(Ablation::new(format!("SUMMA chunk = k/{divisor}"), &stats));
    }
    out
}

/// Overlap ablation: the same SUMMA schedule planned for Legion-style
/// deferred execution and for bulk-synchronous barriers
/// ([`CompileOptions::bulk_synchronous`], the ScaLAPACK/CTF handicap of
/// §7.1.1).
fn ablate_overlap(nodes: usize, n: i64) -> Vec<Ablation> {
    let config = RunConfig::gpu(nodes, Mode::Model);
    let (problem, schedule) =
        matmul_problem(MatmulAlgorithm::Summa, &config, n, (n / 16).max(1)).expect("setup");
    let mut out = Vec::new();
    for bulk_synchronous in [false, true] {
        let options = CompileOptions {
            bulk_synchronous,
            ..CompileOptions::default()
        };
        let backend = config.backend().with_options(options);
        let stats = placed(backend, &problem, &schedule)
            .execute_stats()
            .expect("execute");
        let label = if bulk_synchronous {
            "SUMMA bulk-synchronous"
        } else {
            "SUMMA overlapped"
        };
        out.push(Ablation::new(label, &stats));
    }
    out
}

/// Data-layout ablation: the same SUMMA schedule computing against inputs
/// held (a) in the matching tiled layout ("data at rest") and (b, c) in
/// ScaLAPACK-style 2-D block-cyclic layouts of decreasing block size —
/// quantifying the §1 claim that computation can "shape to data" but
/// mismatched layouts pay real redistribution traffic. (Block sizes scale
/// with `n`: element-cyclic layouts of large dense matrices would shatter
/// placement into per-element pieces, which is as pathological in the
/// simulator as on a real machine.)
fn ablate_data_layout(nodes: usize, n: i64) -> Vec<Ablation> {
    use distal_core::{DistalMachine, TensorSpec};
    use distal_format::Format;
    use distal_machine::grid::Grid;

    let config = RunConfig::cpu(nodes, Mode::Model);
    let p = config.processors();
    let grid = Grid::near_square_2d(p);
    let (gx, gy) = (grid.extent(0), grid.extent(1));
    let coarse = (n / (gx * 4)).max(1);
    let fine = (n / (gx * 16)).max(1);
    let coarse_l = format!("xy->xy @bc{coarse}");
    let fine_l = format!("xy->xy @bc{fine}");
    let layouts: [(&str, &str); 3] = [
        ("inputs tiled (matched)", "xy->xy"),
        ("inputs block-cyclic (coarse)", &coarse_l),
        ("inputs block-cyclic (fine)", &fine_l),
    ];
    let mut out = Vec::new();
    for (label, notation) in layouts {
        let machine = DistalMachine::flat(grid.clone(), config.proc_kind);
        let mut problem = Problem::new(config.spec.clone(), machine);
        problem
            .statement("A(i,j) = B(i,k) * C(k,j)")
            .expect("statement");
        let tiled = Format::parse("xy->xy", config.mem).unwrap();
        let input = Format::parse(notation, config.mem).unwrap();
        problem
            .tensor(TensorSpec::new("A", vec![n, n], tiled))
            .expect("tensor A");
        for t in ["B", "C"] {
            problem
                .tensor(TensorSpec::new(t, vec![n, n], input.clone()))
                .expect("tensor");
            problem.fill(t, 0.0).expect("fill");
        }
        let schedule = MatmulAlgorithm::Summa.schedule(p, n, (n / gx.max(gy)).max(1));
        let stats = placed(config.backend(), &problem, &schedule)
            .execute_stats()
            .expect("execute");
        out.push(Ablation::new(label, &stats));
    }
    out
}

/// Auto-scheduling ablation (§9 future work): the best schedule found by
/// the automatic search vs the hand-written Figure 9 schedules, evaluated
/// under the same cost model.
fn ablate_autoschedule(nodes: usize, n: i64) -> Vec<Ablation> {
    use distal_autosched::{AutoScheduler, SearchConfig};
    use std::collections::BTreeMap;

    let spec = distal_machine::spec::MachineSpec::lassen(nodes);
    let scheduler = AutoScheduler::new(SearchConfig::cpu(spec));
    let dims: BTreeMap<String, Vec<i64>> = ["A", "B", "C"]
        .iter()
        .map(|t| (t.to_string(), vec![n, n]))
        .collect();
    let result = scheduler
        .search("A(i,j) = B(i,k) * C(k,j)", &dims)
        .expect("search");
    let mut out = Vec::new();
    if let Some(best) = result.best() {
        out.push(Ablation {
            label: format!("auto: {}", best.candidate.name),
            makespan_s: best.makespan_s,
            inter_node_bytes: best.comm_bytes,
        });
    }
    // Hand schedules through the model for comparison.
    let config = RunConfig::cpu(nodes, Mode::Model);
    for alg in [MatmulAlgorithm::Summa, MatmulAlgorithm::Cannon] {
        let stats = matmul_stats(alg, &config, n, (n / 16).max(1));
        out.push(Ablation::new(format!("hand: {}", alg.name()), &stats));
    }
    out
}

/// Admission-pruning statistics of one auto-schedule search (the
/// `--assert-pruning` CI gate).
#[derive(Clone, Copy, Debug)]
struct PruningStats {
    /// Candidates the search enumerated.
    pub candidates: usize,
    /// Candidates the admission linter rejected *before* costing — no
    /// lowering or cost-model time was spent on them.
    pub pruned_candidates: usize,
    /// Schedule lowerings the whole search performed (for the gate that
    /// pruned candidates cost zero lowerings: this must be bounded by the
    /// surviving candidate count).
    pub lowerings: u64,
}

/// Runs the full-space search over *exhaustive* grid factorizations at a
/// deliberately small extent, so the space contains over-partitioned
/// candidates (e.g. an 8-way grid dimension over a 4-iteration loop) that
/// the admission linter must prune before any lowering is spent on them.
fn autoschedule_pruning(nodes: usize, n: i64) -> PruningStats {
    use distal_autosched::{AutoScheduler, SearchConfig};
    use std::collections::BTreeMap;

    let mut config = SearchConfig::cpu(distal_machine::spec::MachineSpec::small(nodes));
    config.space.exhaustive_grids = true;
    let scheduler = AutoScheduler::new(config);
    let dims: BTreeMap<String, Vec<i64>> = ["A", "B", "C"]
        .iter()
        .map(|t| (t.to_string(), vec![n, n]))
        .collect();
    let before = distal_core::lowering_count();
    let result = scheduler
        .search("A(i,j) = B(i,k) * C(k,j)", &dims)
        .expect("search");
    PruningStats {
        candidates: result.evaluations.len(),
        pruned_candidates: result.pruned_candidates(),
        lowerings: distal_core::lowering_count() - before,
    }
}

/// Renders ablation rows.
fn render(title: &str, rows: &[Ablation]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let base = rows.first().map(|r| r.makespan_s).unwrap_or(1.0);
    for r in rows {
        let _ = writeln!(
            out,
            "{:<28} {:>10.4} s  ({:>5.2}x)  {:>10.1} MB inter-node",
            r.label,
            r.makespan_s,
            r.makespan_s / base,
            r.inter_node_bytes as f64 / 1e6
        );
    }
    out
}

fn fail(msg: &str) -> ! {
    eprintln!("ablations gate FAILED: {msg}");
    std::process::exit(3);
}

/// The `ablations` command.
pub(crate) fn run(mut args: Args) -> Result<(), String> {
    let assert_pruning = args.flag("--assert-pruning");
    let nodes = args.positional()?.unwrap_or(16);
    let n: i64 = args.positional()?.unwrap_or(40000);
    args.finish()?;
    let rotate = ablate_rotate(nodes, n);
    print!("{}", render("rotate (systolic vs broadcast)", &rotate));
    println!();
    let granularity = ablate_communicate_granularity(nodes, n);
    print!("{}", render("communicate granularity", &granularity));
    println!();
    let overlap = ablate_overlap(nodes, n);
    print!("{}", render("overlap vs bulk-synchronous", &overlap));
    println!();
    let layout = ablate_data_layout(nodes, n.min(16384));
    print!(
        "{}",
        render("data layout (tiled vs cyclic inputs)", &layout)
    );
    println!();
    let auto = ablate_autoschedule(nodes, n.min(16384));
    print!("{}", render("auto-scheduling vs hand schedules", &auto));

    // The pruning stats run on a fixed small configuration whose
    // exhaustive grid space provably contains illegal candidates (8-way
    // grid dimensions over 4-iteration loops).
    let stats = autoschedule_pruning(4, 4);
    println!();
    println!(
        "auto-scheduling admission pruning: {} of {} candidates pruned \
         before costing ({} lowerings spent)",
        stats.pruned_candidates, stats.candidates, stats.lowerings
    );
    if assert_pruning {
        if stats.pruned_candidates == 0 {
            fail("the exhaustive search space pruned no candidates");
        }
        let survivors = (stats.candidates - stats.pruned_candidates) as u64;
        if stats.lowerings > survivors {
            fail(&format!(
                "{} lowerings for {survivors} surviving candidates — pruned \
                 candidates must cost zero lowerings",
                stats.lowerings
            ));
        }
        println!(
            "pruning gate passed: {} candidates pruned pre-cost, lowerings \
             bounded by the {survivors} survivors",
            stats.pruned_candidates
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotate_reduces_contention() {
        let rows = ablate_rotate(16, 16384);
        assert_eq!(rows.len(), 2);
        // Without rotation every processor pulls from the owners; with it,
        // transfers pipeline between neighbours: same volume, less time.
        assert!(
            rows[0].makespan_s <= rows[1].makespan_s * 1.05,
            "rotate {} vs no-rotate {}",
            rows[0].makespan_s,
            rows[1].makespan_s
        );
        // Volumes agree up to the initial shift (which tiles start local
        // differs between the rotated and unrotated iteration orders).
        let (a, b) = (
            rows[0].inter_node_bytes as f64,
            rows[1].inter_node_bytes as f64,
        );
        assert!((a - b).abs() / b < 0.10, "{a} vs {b}");
    }

    #[test]
    fn overlap_beats_barriers() {
        let rows = ablate_overlap(8, 16384);
        assert!(rows[0].makespan_s < rows[1].makespan_s);
    }

    #[test]
    fn mismatched_layouts_pay_redistribution() {
        let rows = ablate_data_layout(4, 1024);
        assert_eq!(rows.len(), 3);
        // Matched tiles move the least; finer cyclic blocks scatter each
        // needed tile across more owners.
        assert!(rows[0].inter_node_bytes <= rows[1].inter_node_bytes);
        assert!(rows[1].inter_node_bytes <= rows[2].inter_node_bytes);
        assert!(rows[0].makespan_s <= rows[2].makespan_s);
    }

    #[test]
    fn auto_schedule_competitive_with_hand() {
        let rows = ablate_autoschedule(2, 2048);
        assert!(rows.len() >= 3);
        let auto = rows[0].makespan_s;
        let best_hand = rows[1..]
            .iter()
            .map(|r| r.makespan_s)
            .fold(f64::INFINITY, f64::min);
        assert!(auto <= best_hand * 1.05, "auto {auto} vs hand {best_hand}");
    }

    #[test]
    fn exhaustive_space_contains_pruned_candidates() {
        // Lowering counters are process-global and other tests lower
        // concurrently, so the zero-lowerings-on-pruned bound is gated in
        // the single-threaded `distal-bench ablations` command, not here.
        let stats = autoschedule_pruning(4, 4);
        assert!(stats.pruned_candidates >= 1, "{stats:?}");
        assert!(stats.candidates > stats.pruned_candidates, "{stats:?}");
    }

    #[test]
    fn granularity_trades_memory_for_pipelining() {
        let rows = ablate_communicate_granularity(8, 16384);
        assert_eq!(rows.len(), 4);
        // Coarse fetches cannot skip the locally owned sub-ranges that
        // per-step fetches skip, so finer chunks move at most as many
        // bytes; pipelining also makes them strictly faster.
        let coarse = rows[0].inter_node_bytes;
        for r in &rows[1..] {
            assert!(
                r.inter_node_bytes <= coarse,
                "{} vs coarse {coarse}",
                r.inter_node_bytes
            );
        }
        assert!(rows.last().unwrap().makespan_s < rows[0].makespan_s);
    }
}
