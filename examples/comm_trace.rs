//! Exports a Chrome-tracing JSON of Cannon's systolic communication so the
//! per-step neighbour shifts can be inspected in chrome://tracing or
//! Perfetto.
//!
//! Run with `cargo run --release --example comm_trace > cannon_trace.json`.

use distal::algs::matmul::MatmulAlgorithm;
use distal::algs::setup::{matmul_problem, RunConfig};
use distal::prelude::*;
use distal::runtime::trace::chrome_trace;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = RunConfig::cpu(9, Mode::Model);
    config.spec = MachineSpec::lassen(9);
    config.spec.node.cpu_sockets = 1;
    let n = 4096;
    let (problem, schedule) = matmul_problem(MatmulAlgorithm::Cannon, &config, n, n / 3)?;
    let mut instance = config.backend().compile_typed(&problem, &schedule)?;
    instance.runtime_mut().record_copies(true);
    instance.place_stats()?;
    let stats = instance.execute_stats()?;
    eprintln!(
        "Cannon on 3x3: {} copies, {:.1} MB inter-node, makespan {:.3} ms",
        stats.copies,
        stats.inter_node_bytes() as f64 / 1e6,
        stats.makespan_s * 1e3
    );
    eprintln!("paste the JSON below into https://ui.perfetto.dev");
    println!("{}", chrome_trace(&stats));
    Ok(())
}
