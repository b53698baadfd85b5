//! Figures 15a/15b: weak-scaling distributed matrix-multiplication.
//!
//! CPU runs start from 8192×8192 per node; GPU runs from 20000×20000 —
//! the paper's initial problem sizes, scaled so memory per node stays
//! constant. Every DISTAL algorithm of Figure 9 is measured alongside the
//! ScaLAPACK, CTF, and COSMA baselines, plus the machine's peak-utilization
//! roofline.
//!
//! Usage: `distal-bench fig15a [max_nodes] [base_n]` (CPUs) or `fig15b`
//! (GPUs); 256 nodes and the panel's paper base size by default.

use crate::args::Args;
use crate::series::{paper_node_counts, weak_scale_2d, FigureData, SamplePoint, Series};
use distal_algs::matmul::MatmulAlgorithm;
use distal_algs::setup::{matmul_problem, RunConfig};
use distal_baselines::PhasedRun;
use distal_baselines::{cosma, ctf, scalapack};
use distal_core::BackendError;
use distal_runtime::{Mode, RuntimeError};

/// Which hardware Figure 15 panel to reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Panel {
    /// Figure 15a (CPU sockets).
    Cpu,
    /// Figure 15b (GPUs).
    Gpu,
}

/// The paper's initial per-node problem side for a panel.
pub(crate) fn base_problem_side(panel: Panel) -> i64 {
    match panel {
        Panel::Cpu => 8192,
        Panel::Gpu => 20000,
    }
}

fn config_for(panel: Panel, nodes: usize) -> RunConfig {
    match panel {
        Panel::Cpu => RunConfig::cpu(nodes, Mode::Model),
        Panel::Gpu => RunConfig::gpu(nodes, Mode::Model),
    }
}

/// Measures one DISTAL algorithm at one node count; `Err(Oom)` becomes an
/// OOM sample, mirroring the truncated lines of Figure 15b.
fn run_distal(alg: MatmulAlgorithm, config: &RunConfig, n: i64) -> Result<SamplePoint, String> {
    let chunk = (n / 16).max(256).min(n);
    let (problem, schedule) = matmul_problem(alg, config, n, chunk).map_err(|e| e.to_string())?;
    let mut instance = config
        .backend()
        .compile_typed(&problem, &schedule)
        .map_err(|e| e.to_string())?;
    match instance
        .place_stats()
        .and_then(|_| instance.execute_stats())
    {
        Ok(stats) => Ok(SamplePoint::Value(stats.gflops_per_node(config.spec.nodes))),
        Err(RuntimeError::OutOfMemory { .. }) => Ok(SamplePoint::Oom),
        Err(e) => Err(e.to_string()),
    }
}

/// The 2.5D algorithm "utilizes extra memory *when possible*" (§7.1.2):
/// try the communication-optimal replication factor first, then smaller
/// ones if replication exhausts memory.
fn run_solomonik(config: &RunConfig, n: i64) -> Result<SamplePoint, String> {
    let p = config.processors();
    let mut candidates: Vec<i64> = (1..=distal_algs::matmul::best_c(p).max(1)).rev().collect();
    if candidates.is_empty() {
        candidates.push(1);
    }
    for c in candidates {
        match run_distal(MatmulAlgorithm::Solomonik { c }, config, n)? {
            SamplePoint::Oom => continue,
            sample => return Ok(sample),
        }
    }
    Ok(SamplePoint::Oom)
}

/// Runs the full panel sweep.
///
/// # Panics
///
/// Panics if a configuration fails for a reason other than OOM (a bug, not
/// a measurement).
pub(crate) fn figure15(panel: Panel, max_nodes: usize, base_n: i64) -> FigureData {
    let nodes_list = paper_node_counts(max_nodes);
    let (title, unit) = match panel {
        Panel::Cpu => ("Figure 15a: CPU weak-scaling matrix-multiply", "GFLOP/s"),
        Panel::Gpu => ("Figure 15b: GPU weak-scaling matrix-multiply", "GFLOP/s"),
    };
    let mut fig = FigureData::new(title, unit, nodes_list.clone());

    // Baselines first, matching the paper's legend order.
    let mut baseline_series: Vec<Series> = Vec::new();
    {
        let mut cosma_s = Series::new("COSMA");
        let mut cosma_r = Series::new("COSMA (Restricted CPUs)");
        let mut ctf_s = Series::new("CTF");
        let mut scala_s = Series::new("SCALAPACK");
        for &nodes in &nodes_list {
            let config = config_for(panel, nodes);
            let n = weak_scale_2d(base_n, nodes);
            // COSMA.
            // One baseline sample; only COSMA's GPU panel may run out of
            // memory.
            let sample = |run: Result<PhasedRun, BackendError>, what: &str| match run
                .unwrap_or_else(|e| panic!("{what}: {e}"))
                .run()
            {
                Ok(stats) => SamplePoint::Value(stats.gflops_per_node(nodes)),
                Err(BackendError::Runtime(RuntimeError::OutOfMemory { .. })) => SamplePoint::Oom,
                Err(e) => panic!("{what} run failed: {e}"),
            };
            cosma_s.push(nodes, sample(cosma::gemm(&config, n, false), "COSMA"));
            if panel == Panel::Cpu {
                cosma_r.push(
                    nodes,
                    sample(cosma::gemm(&config, n, true), "COSMA restricted"),
                );
                // CTF and ScaLAPACK are CPU-only in the paper's comparison.
                ctf_s.push(nodes, sample(ctf::gemm(&config, n), "CTF gemm"));
                let scalapack = scalapack::gemm(&config, n, (n / 16).max(256));
                scala_s.push(nodes, sample(scalapack, "ScaLAPACK"));
            } else {
                cosma_r.push(nodes, SamplePoint::Skipped);
                ctf_s.push(nodes, SamplePoint::Skipped);
                scala_s.push(nodes, SamplePoint::Skipped);
            }
        }
        baseline_series.push(cosma_s);
        if panel == Panel::Cpu {
            baseline_series.push(cosma_r);
            baseline_series.push(ctf_s);
            baseline_series.push(scala_s);
        }
    }
    for s in baseline_series {
        fig.push(s);
    }

    // DISTAL's algorithms.
    let algorithms = [
        MatmulAlgorithm::Cannon,
        MatmulAlgorithm::Summa,
        MatmulAlgorithm::Pumma,
        MatmulAlgorithm::Johnson,
        MatmulAlgorithm::Solomonik { c: 2 },
        MatmulAlgorithm::Cosma,
    ];
    for alg in algorithms {
        let mut series = Series::new(alg.name());
        for &nodes in &nodes_list {
            let config = config_for(panel, nodes);
            let n = weak_scale_2d(base_n, nodes);
            let sample = match alg {
                MatmulAlgorithm::Solomonik { .. } => {
                    run_solomonik(&config, n).expect("2.5D run failed")
                }
                other => run_distal(other, &config, n).expect("DISTAL run failed"),
            };
            series.push(nodes, sample);
        }
        fig.push(series);
    }

    // Peak roofline.
    let mut peak = Series::new("Peak Utilization");
    for &nodes in &nodes_list {
        let config = config_for(panel, nodes);
        let value = match panel {
            Panel::Cpu => config.spec.node.cpu_node_gflops(),
            Panel::Gpu => config.spec.node.gpu_node_gflops(),
        };
        peak.push(nodes, SamplePoint::Value(value));
    }
    fig.push(peak);
    fig
}

/// The `fig15a` (CPU) and `fig15b` (GPU) commands.
pub(crate) fn run(panel: Panel, mut args: Args) -> Result<(), String> {
    let max_nodes = args.positional()?.unwrap_or(256);
    let base_n = args
        .positional()?
        .unwrap_or_else(|| base_problem_side(panel));
    args.finish()?;
    print!("{}", figure15(panel, max_nodes, base_n).to_table());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_cpu_panel_has_expected_shape() {
        let fig = figure15(Panel::Cpu, 4, 2048);
        // 4 baselines + 6 DISTAL algorithms + peak.
        assert_eq!(fig.series.len(), 11);
        let peak = fig.series("Peak Utilization").unwrap().at(1).unwrap();
        let ours = fig.series("Our SUMMA").unwrap().at(1).unwrap();
        assert!(ours > 0.5 * peak, "SUMMA {ours} vs peak {peak}");
        assert!(ours <= peak);
        // COSMA (all 40 cores) beats DISTAL at a single node...
        let cosma = fig.series("COSMA").unwrap().at(1).unwrap();
        assert!(cosma > ours);
        // ...but the restricted variant matches DISTAL within a few percent.
        let restricted = fig
            .series("COSMA (Restricted CPUs)")
            .unwrap()
            .at(1)
            .unwrap();
        assert!(
            (restricted - ours).abs() / ours < 0.10,
            "{restricted} vs {ours}"
        );
    }

    #[test]
    fn small_gpu_panel_runs() {
        let fig = figure15(Panel::Gpu, 2, 4096);
        let ours = fig.series("Our SUMMA").unwrap().at(1).unwrap();
        let peak = fig.series("Peak Utilization").unwrap().at(1).unwrap();
        assert!(ours > 0.3 * peak, "SUMMA {ours} vs peak {peak}");
    }
}
