//! The headline comparisons of the abstract and §7:
//!
//! * GEMM: DISTAL ≥ 1.25× ScaLAPACK and CTF, ≥ 0.95× COSMA;
//! * higher-order kernels: 1.8×–3.7× over CTF with a 45.7× outlier (TTV).
//!
//! Usage: `distal-bench headline [max_nodes]` (default 64).

use crate::args::Args;
use crate::fig15::{figure15, Panel};
use crate::fig16::figure16;
use distal_algs::higher_order::HigherOrderKernel;
use std::fmt::Write as _;

/// One headline comparison row.
#[derive(Clone, Debug)]
pub(crate) struct Headline {
    /// What is being compared (e.g. "GEMM vs CTF").
    pub label: String,
    /// DISTAL's best / competitor, at the largest common node count.
    pub speedup: f64,
    /// What the paper reports.
    pub paper: String,
}

/// Computes the headline table at `max_nodes` CPU nodes.
pub(crate) fn headlines(max_nodes: usize, gemm_base_n: i64, tensor_base_n: i64) -> Vec<Headline> {
    let fig15 = figure15(Panel::Cpu, max_nodes, gemm_base_n);
    let at = |name: &str| {
        fig15
            .series(name)
            .and_then(|s| s.at(max_nodes))
            .unwrap_or(f64::NAN)
    };
    let our_best = [
        "Our Cannon",
        "Our SUMMA",
        "Our PUMMA",
        "Our Johnson's",
        "Our Solomonik's",
        "Our COSMA",
    ]
    .iter()
    .map(|n| at(n))
    .filter(|v| v.is_finite())
    .fold(f64::MIN, f64::max);

    let mut rows = vec![
        Headline {
            label: "GEMM: best DISTAL / ScaLAPACK".into(),
            speedup: our_best / at("SCALAPACK"),
            paper: ">= 1.25x".into(),
        },
        Headline {
            label: "GEMM: best DISTAL / CTF".into(),
            speedup: our_best / at("CTF"),
            paper: ">= 1.25x".into(),
        },
        Headline {
            label: "GEMM: best DISTAL / COSMA".into(),
            speedup: our_best / at("COSMA"),
            paper: ">= 0.95x".into(),
        },
    ];
    for kernel in HigherOrderKernel::all() {
        let fig = figure16(kernel, crate::fig16::Panel::Cpu, max_nodes, tensor_base_n);
        let ours = fig.series("Ours").and_then(|s| s.at(max_nodes));
        let ctf = fig.series("CTF").and_then(|s| s.at(max_nodes));
        if let (Some(o), Some(c)) = (ours, ctf) {
            rows.push(Headline {
                label: format!("{}: DISTAL / CTF", kernel.name()),
                speedup: o / c,
                paper: match kernel {
                    HigherOrderKernel::Ttv => "45.7x outlier".into(),
                    _ => "1.8x - 3.7x".into(),
                },
            });
        }
    }
    rows
}

/// Renders the headline table computed at `nodes` nodes, under a line
/// saying where its values come from.
pub(crate) fn render(rows: &[Headline], nodes: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "modelled: ratios of model-mode Figures 15a (CPU) and 16 at {nodes} nodes, not wall clock"
    );
    let _ = writeln!(
        out,
        "{:<34} {:>10} {:>16}",
        "comparison", "modelled", "paper"
    );
    for r in rows {
        let _ = writeln!(out, "{:<34} {:>9.2}x {:>16}", r.label, r.speedup, r.paper);
    }
    out
}

/// The `headline` command.
pub(crate) fn run(mut args: Args) -> Result<(), String> {
    let max_nodes = args.positional()?.unwrap_or(64);
    args.finish()?;
    print!("{}", render(&headlines(max_nodes, 8192, 1024), max_nodes));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_speedups_hold_at_small_scale() {
        let rows = headlines(4, 2048, 256);
        let get = |label: &str| {
            rows.iter()
                .find(|r| r.label.starts_with(label))
                .map(|r| r.speedup)
                .unwrap()
        };
        // DISTAL beats the bulk-synchronous baselines and stays within
        // striking distance of COSMA.
        assert!(get("GEMM: best DISTAL / ScaLAPACK") > 1.0);
        assert!(get("GEMM: best DISTAL / CTF") > 1.0);
        assert!(get("GEMM: best DISTAL / COSMA") > 0.85);
        // Higher-order wins, TTV being the outlier.
        assert!(get("TTV") > 3.0, "TTV {}", get("TTV"));
        assert!(get("TTM") > 1.5, "TTM {}", get("TTM"));
    }
}
