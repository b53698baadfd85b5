//! The §7.2 higher-order tensor kernels (TTV, Innerprod, TTM, MTTKRP):
//! DISTAL's bespoke schedules vs the CTF baseline's matricized pipeline,
//! on the same simulated machine.
//!
//! Run with `cargo run --release --example higher_order`.

use distal::algs::setup::{higher_order_problem, RunConfig};
use distal::baselines::ctf;
use distal::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nodes = 8;
    println!("machine: {nodes} Lassen-like nodes (CPU sockets), model mode\n");
    println!(
        "{:<10} {:>7} {:>14} {:>14} {:>9}",
        "kernel", "n", "DISTAL (ms)", "CTF (ms)", "speedup"
    );
    for kernel in HigherOrderKernel::all() {
        let n = 384;
        let config = RunConfig::cpu(nodes, Mode::Model);

        let (problem, schedule) = higher_order_problem(kernel, &config, n)?;
        let mut instance = config.backend().compile_typed(&problem, &schedule)?;
        instance.place_stats()?;
        let ours = instance.execute_stats()?;

        let mut run = ctf::higher_order(kernel, &config, n)?;
        let theirs = run.run()?;

        println!(
            "{:<10} {:>7} {:>14.3} {:>14.3} {:>8.1}x",
            kernel.name(),
            n,
            ours.makespan_s * 1e3,
            theirs.makespan_s * 1e3,
            theirs.makespan_s / ours.makespan_s,
        );
    }
    println!("\n(speedups mirror Figure 16: TTV is the outlier — CTF must");
    println!(" redistribute the 3-tensor to matricize, DISTAL moves nothing)");
    Ok(())
}
