//! Figure 9: the matrix-multiplication algorithm table.
//!
//! For every algorithm we verify (a) the schedule compiles and computes the
//! right answer, and (b) the communication pattern matches the paper's
//! icons: systolic algorithms (Cannon) move tiles between *neighbouring*
//! owners with no hot senders, broadcast algorithms (SUMMA) fan chunks out
//! from owners, and 3D algorithms (Johnson) replicate inputs and reduce the
//! output.
//!
//! Usage: `distal-bench fig9 [nodes] [n]` (defaults: 16 nodes, n = 8192).

use crate::args::Args;
use distal_algs::matmul::MatmulAlgorithm;
use distal_algs::setup::{matmul_problem, RunConfig};
use distal_machine::spec::MachineSpec;
use distal_runtime::stats::CopyKind;
use distal_runtime::Mode;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Communication profile of one algorithm run.
#[derive(Clone, Debug)]
pub(crate) struct CommProfile {
    /// Algorithm name.
    pub name: String,
    /// Bytes crossing node boundaries during compute.
    pub inter_node_bytes: u64,
    /// Bytes staying within nodes.
    pub intra_node_bytes: u64,
    /// Number of reduction folds (3D algorithms only).
    pub reductions: u64,
    /// Largest number of distinct destinations served by one source node
    /// (1 ≈ systolic neighbour traffic; large ≈ broadcast).
    pub max_fanout: usize,
    /// Achieved GFLOP/s per node in the model.
    pub gflops_per_node: f64,
}

/// Profiles one algorithm on `nodes` Lassen-like nodes (model mode, copy
/// log enabled).
///
/// # Panics
///
/// Panics when the run fails — Figure 9 rows must all execute.
fn profile(alg: MatmulAlgorithm, nodes: usize, n: i64) -> CommProfile {
    let mut config = RunConfig::cpu(nodes, Mode::Model);
    // One abstract processor per node keeps the fan-out analysis readable.
    config.spec = MachineSpec::lassen(nodes);
    config.spec.node.cpu_sockets = 1;
    let p = config.processors();
    let alg = match alg {
        MatmulAlgorithm::Solomonik { .. } => MatmulAlgorithm::Solomonik {
            c: distal_algs::matmul::best_c(p).max(1),
        },
        other => other,
    };
    let (problem, schedule) = matmul_problem(alg, &config, n, (n / 8).max(1)).expect("problem");
    let mut instance = config
        .backend()
        .compile_typed(&problem, &schedule)
        .expect("compile");
    instance.runtime_mut().record_copies(true);
    instance.place_stats().expect("place");
    let stats = instance.execute_stats().expect("execute");

    // Fan-out: how many distinct destination nodes each source node serves
    // per compute run (broadcasts produce hot senders; systolic shifts are
    // one-to-one per step).
    let mut per_source: BTreeMap<usize, std::collections::BTreeSet<usize>> = BTreeMap::new();
    for c in stats.copy_log.as_ref().expect("copy log").iter() {
        if c.kind == CopyKind::Data && c.src_node != c.dst_node && c.src_node != usize::MAX {
            per_source.entry(c.src_node).or_default().insert(c.dst_node);
        }
    }
    let max_fanout = per_source.values().map(|s| s.len()).max().unwrap_or(0);
    CommProfile {
        name: alg.name(),
        inter_node_bytes: stats.inter_node_bytes(),
        intra_node_bytes: stats.intra_node_bytes(),
        reductions: stats.reductions_applied,
        max_fanout,
        gflops_per_node: stats.gflops_per_node(nodes),
    }
}

/// Profiles all Figure 9 algorithms.
pub(crate) fn figure9(nodes: usize, n: i64) -> Vec<CommProfile> {
    [
        MatmulAlgorithm::Cannon,
        MatmulAlgorithm::Pumma,
        MatmulAlgorithm::Summa,
        MatmulAlgorithm::Johnson,
        MatmulAlgorithm::Solomonik { c: 1 },
        MatmulAlgorithm::Cosma,
    ]
    .into_iter()
    .map(|alg| profile(alg, nodes, n))
    .collect()
}

/// Renders the Figure 9 profile table.
pub(crate) fn render(profiles: &[CommProfile]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>14} {:>14} {:>11} {:>10} {:>12}",
        "algorithm", "inter-node MB", "intra-node MB", "reductions", "fan-out", "GFLOP/s/node"
    );
    for p in profiles {
        let _ = writeln!(
            out,
            "{:<18} {:>14.2} {:>14.2} {:>11} {:>10} {:>12.1}",
            p.name,
            p.inter_node_bytes as f64 / 1e6,
            p.intra_node_bytes as f64 / 1e6,
            p.reductions,
            p.max_fanout,
            p.gflops_per_node,
        );
    }
    out
}

/// The `fig9` command.
pub(crate) fn run(mut args: Args) -> Result<(), String> {
    let nodes = args.positional()?.unwrap_or(16);
    let n = args.positional()?.unwrap_or(8192);
    args.finish()?;
    println!("# Figure 9: matrix-multiplication algorithms on {nodes} nodes, n = {n}");
    let profiles = figure9(nodes, n);
    print!("{}", render(&profiles));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cannon_is_systolic_summa_broadcasts() {
        // 16 nodes, 4x4 grid.
        let cannon = profile(MatmulAlgorithm::Cannon, 16, 4096);
        let summa = profile(MatmulAlgorithm::Summa, 16, 4096);
        // SUMMA's owners fan chunks out to their row/column; Cannon's
        // neighbour shifts keep fan-out minimal (§7.1.2).
        assert!(
            cannon.max_fanout < summa.max_fanout,
            "cannon fan-out {} vs summa {}",
            cannon.max_fanout,
            summa.max_fanout
        );
        // Each Cannon node serves at most: B forward, C forward, plus its
        // two home tiles at the initial shift — 4 distinct destinations.
        assert!(cannon.max_fanout <= 4, "cannon {}", cannon.max_fanout);
    }

    #[test]
    fn johnson_reduces_and_replicates() {
        // 8 nodes form a 2x2x2 cube.
        let johnson = profile(MatmulAlgorithm::Johnson, 8, 4096);
        assert!(johnson.reductions > 0, "3D algorithm must fold reductions");
        let summa = profile(MatmulAlgorithm::Summa, 8, 4096);
        assert_eq!(summa.reductions, 0, "2D algorithm must not reduce");
    }

    #[test]
    fn all_rows_render() {
        let profiles = figure9(4, 2048);
        assert_eq!(profiles.len(), 6);
        let table = render(&profiles);
        assert!(table.contains("Our Cannon"));
        assert!(table.contains("Our COSMA"));
    }
}
