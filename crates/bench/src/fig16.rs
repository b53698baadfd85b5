//! Figures 16a-d: weak-scaling higher-order tensor computations vs CTF.
//!
//! TTV and Innerprod are bandwidth-bound and reported in GB/s per node;
//! TTM and MTTKRP in GFLOP/s per node (§7.2). CTF is CPU-only (the paper
//! could not build its GPU backend).
//!
//! Usage: `distal-bench fig16 [max_nodes]` (default 256).

use crate::args::Args;
use crate::series::{paper_node_counts, weak_scale_3d, FigureData, SamplePoint, Series};
use distal_algs::higher_order::HigherOrderKernel;
use distal_algs::setup::{higher_order_problem, RunConfig};
use distal_baselines::ctf;
use distal_core::BackendError;
use distal_runtime::{Mode, RuntimeError};

/// Hardware panel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Panel {
    /// CPU sockets.
    Cpu,
    /// GPUs ("Ours" only; CTF has no working GPU backend, §7).
    Gpu,
}

/// The paper-style base problem side per node for a kernel.
pub(crate) fn base_problem_side(panel: Panel, kernel: HigherOrderKernel) -> i64 {
    // 3-tensors sized to fill a node's memory budget comfortably.
    let base = match panel {
        Panel::Cpu => 1024,
        Panel::Gpu => 900,
    };
    match kernel {
        HigherOrderKernel::Mttkrp => base / 2, // 3 extra matrices + reductions
        _ => base,
    }
}

fn config_for(panel: Panel, nodes: usize) -> RunConfig {
    match panel {
        Panel::Cpu => RunConfig::cpu(nodes, Mode::Model),
        Panel::Gpu => RunConfig::gpu(nodes, Mode::Model),
    }
}

fn metric(
    kernel: HigherOrderKernel,
    stats: &distal_runtime::RunStats,
    n: i64,
    nodes: usize,
) -> f64 {
    if kernel.bandwidth_bound() {
        stats.gbs_per_node(kernel.logical_bytes(n), nodes)
    } else {
        stats.gflops_per_node(nodes)
    }
}

/// Runs one Figure 16 panel for one kernel.
///
/// # Panics
///
/// Panics on non-OOM failures (bugs, not measurements).
pub(crate) fn figure16(
    kernel: HigherOrderKernel,
    panel: Panel,
    max_nodes: usize,
    base_n: i64,
) -> FigureData {
    let nodes_list = paper_node_counts(max_nodes);
    let unit = if kernel.bandwidth_bound() {
        "GB/s"
    } else {
        "GFLOP/s"
    };
    let mut fig = FigureData::new(
        format!("Figure 16 ({}, {:?}): weak scaling", kernel.name(), panel),
        unit,
        nodes_list.clone(),
    );
    let mut ours = Series::new("Ours");
    let mut ctf_series = Series::new("CTF");
    for &nodes in &nodes_list {
        let config = config_for(panel, nodes);
        let n = weak_scale_3d(base_n, nodes);
        let (problem, schedule) = higher_order_problem(kernel, &config, n)
            .unwrap_or_else(|e| panic!("problem {kernel:?} @{nodes}: {e}"));
        let mut instance = config
            .backend()
            .compile_typed(&problem, &schedule)
            .unwrap_or_else(|e| panic!("compile ours {kernel:?} @{nodes}: {e}"));
        let sample = match instance
            .place_stats()
            .and_then(|_| instance.execute_stats())
        {
            Ok(stats) => SamplePoint::Value(metric(kernel, &stats, n, nodes)),
            Err(RuntimeError::OutOfMemory { .. }) => SamplePoint::Oom,
            Err(e) => panic!("ours {kernel:?} @{nodes}: {e}"),
        };
        ours.push(nodes, sample);
        if panel == Panel::Cpu {
            let sample = match ctf::higher_order(kernel, &config, n) {
                Ok(mut run) => match run.run() {
                    Ok(stats) => SamplePoint::Value(metric(kernel, &stats, n, nodes)),
                    Err(BackendError::Runtime(RuntimeError::OutOfMemory { .. })) => {
                        SamplePoint::Oom
                    }
                    Err(e) => panic!("ctf {kernel:?} @{nodes}: {e}"),
                },
                Err(e) => panic!("compile ctf {kernel:?} @{nodes}: {e}"),
            };
            ctf_series.push(nodes, sample);
        } else {
            ctf_series.push(nodes, SamplePoint::Skipped);
        }
    }
    fig.push(ours);
    fig.push(ctf_series);
    fig
}

/// The `fig16` command: every kernel on both panels.
pub(crate) fn run(mut args: Args) -> Result<(), String> {
    let max_nodes = args.positional()?.unwrap_or(256);
    args.finish()?;
    for kernel in HigherOrderKernel::all() {
        for panel in [Panel::Cpu, Panel::Gpu] {
            let base = base_problem_side(panel, kernel);
            print!("{}", figure16(kernel, panel, max_nodes, base).to_table());
            println!();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ttv_cpu_beats_ctf() {
        let fig = figure16(HigherOrderKernel::Ttv, Panel::Cpu, 4, 256);
        let ours = fig.series("Ours").unwrap().at(4).unwrap();
        let ctf = fig.series("CTF").unwrap().at(4).unwrap();
        assert!(ours > ctf, "ours {ours} vs ctf {ctf}");
    }

    #[test]
    fn ttm_scales_flat() {
        let fig = figure16(HigherOrderKernel::Ttm, Panel::Cpu, 4, 256);
        let ours = fig.series("Ours").unwrap();
        let one = ours.at(1).unwrap();
        let four = ours.at(4).unwrap();
        // No inter-node communication: near-flat weak scaling (§7.2.2).
        assert!(four > 0.7 * one, "1 node {one} vs 4 nodes {four}");
    }
}
