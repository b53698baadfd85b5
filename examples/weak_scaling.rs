//! A laptop-budget miniature of Figure 15a: weak-scaling GEMM across
//! DISTAL's algorithms and baselines in model mode (seconds to run).
//!
//! Run with `cargo run --release --example weak_scaling`.

use distal::algs::matmul::MatmulAlgorithm;
use distal::algs::setup::{matmul_problem, RunConfig};
use distal::baselines::{cosma, ctf, scalapack};
use distal::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let node_counts = [1usize, 2, 4, 8, 16];
    let base_n = 4096i64;
    println!("weak-scaling GEMM, {base_n}^2 per node, GFLOP/s per node:\n");
    print!("{:<22}", "system");
    for n in node_counts {
        print!(" {n:>8}");
    }
    println!();

    let algorithms = [
        MatmulAlgorithm::Summa,
        MatmulAlgorithm::Cannon,
        MatmulAlgorithm::Johnson,
    ];
    for alg in algorithms {
        print!("{:<22}", alg.name());
        for nodes in node_counts {
            let config = RunConfig::cpu(nodes, Mode::Model);
            let n = ((base_n as f64) * (nodes as f64).sqrt()).round() as i64;
            let (problem, schedule) = matmul_problem(alg, &config, n, n / 16)?;
            let mut instance = config.backend().compile_typed(&problem, &schedule)?;
            instance.place_stats()?;
            let stats = instance.execute_stats()?;
            print!(" {:>8.1}", stats.gflops_per_node(nodes));
        }
        println!();
    }
    for (name, which) in [("SCALAPACK", 0), ("CTF", 1), ("COSMA", 2)] {
        print!("{name:<22}");
        for nodes in node_counts {
            let config = RunConfig::cpu(nodes, Mode::Model);
            let n = ((base_n as f64) * (nodes as f64).sqrt()).round() as i64;
            let mut run = match which {
                0 => scalapack::gemm(&config, n, n / 16)?,
                1 => ctf::gemm(&config, n)?,
                _ => cosma::gemm(&config, n, false)?,
            };
            let stats = run.run()?;
            print!(" {:>8.1}", stats.gflops_per_node(nodes));
        }
        println!();
    }
    println!(
        "\npeak: {:.1} GFLOP/s per node",
        MachineSpec::lassen(1).node.cpu_node_gflops()
    );
    Ok(())
}
