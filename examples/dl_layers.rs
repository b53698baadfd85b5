//! Distributed deep-learning kernels (the paper's §9: "DISTAL's potential
//! applications in training and evaluating distributed deep learning
//! models, where DISTAL can be used to generate distributed kernels for
//! stages in the model").
//!
//! The same layer expression gets three classic parallelization strategies
//! purely by changing *formats and schedules* — the layer code never
//! changes:
//!
//! * **data parallel** — batch rows sharded, weights replicated;
//! * **model (tensor) parallel** — weights column-sharded, activations
//!   replicated (Megatron's column-parallel linear layer);
//! * **batched attention scores** — a 3-D einsum sharded over heads.
//!
//! Run with: `cargo run --example dl_layers`

use distal::core::oracle;
use distal::prelude::*;
use std::collections::BTreeMap;

/// Runs one strategy and reports simulated comm + verified numerics.
fn run_layer(
    title: &str,
    expr: &str,
    shapes: &[(&str, Vec<i64>)],
    formats: &[(&str, &str)],
    schedule: &Schedule,
    grid: Grid,
) -> Result<(), Box<dyn std::error::Error>> {
    let machine = DistalMachine::flat(grid, ProcKind::Cpu);
    let mut problem = Problem::new(MachineSpec::small(2), machine);
    problem.statement(expr)?;
    let fmap: BTreeMap<&str, &str> = formats.iter().copied().collect();
    let out = shapes[0].0;
    for (name, dims) in shapes {
        let format = Format::parse(fmap[name], MemKind::Sys)?;
        problem.tensor(TensorSpec::new(*name, dims.clone(), format))?;
        if *name != out {
            problem.fill_random(name, name.len() as u64 + 1)?;
        }
    }
    let mut instance = RuntimeBackend::functional().compile_typed(&problem, schedule)?;
    instance.place_stats()?;
    let compute = instance.execute_stats()?;

    // Verify against the oracle.
    let mut inputs = BTreeMap::new();
    for (name, _) in shapes.iter().filter(|(name, _)| *name != out) {
        inputs.insert(name.to_string(), instance.read(name)?);
    }
    let got = instance.read(out)?;
    let want = oracle::evaluate(&instance.kernel().assignment, &problem.dims_map(), &inputs)
        .map_err(std::io::Error::other)?;
    let max_err = got
        .iter()
        .zip(want.iter())
        .map(|(g, w)| (g - w).abs())
        .fold(0.0f64, f64::max);
    let bytes: u64 = compute.bytes_by_class.values().sum();
    println!(
        "{title:<34} {:>7} tasks  {:>10} B moved  max|err| {max_err:.1e}",
        compute.tasks, bytes
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let p = 4i64; // abstract processors (CPU sockets of 2 nodes)
    let (batch, d_in, d_out) = (32i64, 16i64, 16i64);
    println!("Y(b,h) = X(b,d) * W(d,h)   batch={batch} d_in={d_in} d_out={d_out} p={p}\n");

    // Data parallel: shard the batch, replicate the weights; every socket
    // runs its own GEMM — zero compute-phase communication.
    run_layer(
        "data-parallel (X rows, W repl)",
        "Y(b,h) = X(b,d) * W(d,h)",
        &[
            ("Y", vec![batch, d_out]),
            ("X", vec![batch, d_in]),
            ("W", vec![d_in, d_out]),
        ],
        &[("Y", "xy->x"), ("X", "xy->x"), ("W", "xy->*")],
        &Schedule::new()
            .divide("b", "bo", "bi", p)
            .reorder(&["bo", "bi"])
            .distribute(&["bo"])
            .communicate(&["Y", "X", "W"], "bo"),
        Grid::line(p),
    )?;

    // Model parallel: shard the weight columns (Megatron column-parallel),
    // replicate activations; output comes out h-sharded.
    run_layer(
        "model-parallel (W cols, X repl)",
        "Y(b,h) = X(b,d) * W(d,h)",
        &[
            ("Y", vec![batch, d_out]),
            ("X", vec![batch, d_in]),
            ("W", vec![d_in, d_out]),
        ],
        &[("Y", "xy->y"), ("X", "xy->*"), ("W", "xy->y")],
        &Schedule::new()
            .divide("h", "ho", "hi", p)
            // `h` is not the statement's first loop: hoist its distributed
            // half above the batch loop with a full reorder.
            .reorder(&["ho", "b", "hi", "d"])
            .distribute(&["ho"])
            .communicate(&["Y", "X", "W"], "ho"),
        Grid::line(p),
    )?;

    // 2-D sharded layer: batch x feature grid, SUMMA-style streaming over
    // the contraction — the layout large LLM training uses for its biggest
    // matmuls.
    run_layer(
        "2-D sharded (SUMMA over d)",
        "Y(b,h) = X(b,d) * W(d,h)",
        &[
            ("Y", vec![batch, d_out]),
            ("X", vec![batch, d_in]),
            ("W", vec![d_in, d_out]),
        ],
        &[("Y", "xy->xy"), ("X", "xy->xy"), ("W", "xy->xy")],
        &Schedule::new()
            .distribute_onto(&["b", "h"], &["bo", "ho"], &["bi", "hi"], &[2, 2])
            .split("d", "do", "di", d_in / 2)
            .reorder(&["bo", "ho", "do", "bi", "hi", "di"])
            .communicate(&["Y"], "ho")
            .communicate(&["X", "W"], "do"),
        Grid::grid2(2, 2),
    )?;

    // Attention scores: S(a,i,j) = Q(a,i,d) * K(a,j,d), sharded over heads
    // `a` — head parallelism is an embarrassingly parallel distribute.
    let (heads, seq, dk) = (4i64, 12i64, 8i64);
    println!("\nS(a,i,j) = Q(a,i,d) * K(a,j,d)   heads={heads} seq={seq} d_k={dk}\n");
    run_layer(
        "head-parallel attention scores",
        "S(a,i,j) = Q(a,i,d) * K(a,j,d)",
        &[
            ("S", vec![heads, seq, seq]),
            ("Q", vec![heads, seq, dk]),
            ("K", vec![heads, seq, dk]),
        ],
        &[("S", "xyz->x"), ("Q", "xyz->x"), ("K", "xyz->x")],
        &Schedule::new()
            .divide("a", "ao", "ai", p)
            .reorder(&["ao", "ai"])
            .distribute(&["ao"])
            .communicate(&["S", "Q", "K"], "ao"),
        Grid::line(p),
    )?;

    println!("\nData-parallel, model-parallel and head-parallel run without any");
    println!("compute-phase communication; the 2-D sharded layer streams weight");
    println!("and activation chunks exactly like SUMMA (Figure 2).");
    Ok(())
}
