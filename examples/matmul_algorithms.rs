//! All six Figure 9 matrix-multiplication algorithms on one machine:
//! verifies they compute the same product and contrasts their
//! communication patterns (systolic vs broadcast vs replicated-3D).
//!
//! Run with `cargo run --release --example matmul_algorithms`.

use distal::algs::matmul::MatmulAlgorithm;
use distal::algs::setup::{matmul_problem, RunConfig};
use distal::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nodes = 8;
    let n = 48;
    let mut config = RunConfig::cpu(nodes, Mode::Functional);
    config.spec = MachineSpec::small(nodes);
    // Functional numerics execute on all host cores; the communication
    // statistics compared below are executor-independent.
    config.executor = ExecutorKind::Parallel;
    let p = config.processors();

    println!("machine: {nodes} nodes, {p} CPU sockets; matrices {n}x{n}\n");
    println!(
        "{:<18} {:>10} {:>14} {:>14} {:>11}",
        "algorithm", "grid", "inter-node KB", "intra-node KB", "reductions"
    );

    let mut reference: Option<Vec<f64>> = None;
    for alg in MatmulAlgorithm::all(p) {
        let (problem, schedule) = matmul_problem(alg, &config, n, (n / 4).max(1))?;
        let mut instance = config.backend().compile_typed(&problem, &schedule)?;
        instance.runtime_mut().record_copies(true);
        instance.place_stats()?;
        let stats = instance.execute_stats()?;
        let a = instance.read("A")?;
        match &reference {
            None => reference = Some(a),
            Some(r) => {
                let max_err = a
                    .iter()
                    .zip(r.iter())
                    .map(|(x, y)| (x - y).abs())
                    .fold(0.0f64, f64::max);
                assert!(max_err < 1e-9, "{alg:?} disagrees by {max_err}");
            }
        }
        println!(
            "{:<18} {:>10} {:>14.1} {:>14.1} {:>11}",
            alg.name(),
            format!("{}", alg.grid(p)),
            stats.inter_node_bytes() as f64 / 1e3,
            stats.intra_node_bytes() as f64 / 1e3,
            stats.reductions_applied,
        );
    }
    println!("\nall algorithms agree with each other (max |Δ| < 1e-9)");
    Ok(())
}
