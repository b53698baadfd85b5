//! Quickstart: the Figure 2 program — the SUMMA schedule for distributed
//! matrix multiplication — through the unified compile pipeline:
//!
//! ```text
//!   Problem (statement + tensors + machine)
//!     └─ compile(&backend, &schedule)   = Backend::plan + Plan::bind
//!          └─ Instance: place() / execute() / read() / Report
//! ```
//!
//! The *same* problem and schedule run on the dynamic (Legion-style)
//! runtime and on the static SPMD (MPI-style) backend — switching backends
//! is one line — and the results are bit-identical.
//!
//! Run with `cargo run --release --example quickstart`.

use distal::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Define the target machine m as a 2D grid of processors (Figure 2
    // line 4). Here: all 8 GPUs of a 2-node Lassen-like machine.
    let machine = DistalMachine::flat(Grid::grid2(2, 4), ProcKind::Gpu);
    let mut problem = Problem::new(MachineSpec::small(2), machine);

    // Declare the computation, a matrix-matrix multiply (lines 17-19).
    problem.statement("A(i,j) = B(i,k) * C(k,j)")?;

    // A tensor's format describes how it is distributed onto m: a
    // two-dimensional tiling residing in GPU framebuffer memory
    // (Figure 2 lines 6-15).
    let n = 64;
    let tiles = Format::parse("xy->xy", MemKind::Fb)?;
    for name in ["A", "B", "C"] {
        problem.tensor(TensorSpec::new(name, vec![n, n], tiles.clone()))?;
    }
    problem.fill_random("B", 1)?.fill_random("C", 2)?;

    // Map the computation onto m via scheduling commands (lines 21-40).
    let chunk = 16;
    let schedule = Schedule::new()
        // Tile i and j for each GPU, distribute the tiles.
        .distribute_onto(&["i", "j"], &["io", "jo"], &["ii", "ji"], &[2, 4])
        // Break the k loop into chunks; communicate B and C per chunk.
        .split("k", "ko", "ki", chunk)
        .reorder(&["io", "jo", "ko", "ii", "ji", "ki"])
        .communicate(&["A"], "jo")
        .communicate(&["B", "C"], "ko")
        // Schedule at leaves for ii, ji, ki: substitute the heavily
        // optimized GEMM kernel (Figure 2 line 40, `CuBLAS::GeMM`).
        .substitute(&["ii", "ji", "ki"], LeafKind::Gemm);

    // Backend 1: the dynamic runtime (tasks + region coherence).
    // Functional numerics run on the work-stealing parallel executor by
    // default; DISTAL_EXECUTOR=serial forces the serial walk (results are
    // bit-identical — see tests/executor_parity.rs).
    let mut runtime = RuntimeBackend::functional();
    if std::env::var("DISTAL_EXECUTOR").as_deref() == Ok("serial") {
        runtime = runtime.with_executor(ExecutorKind::Serial);
    }
    let mut dynamic = problem.compile(&runtime, &schedule)?;
    let report = dynamic.run()?;
    println!("dynamic runtime:  {report}");

    // Backend 2: the static SPMD backend (explicit per-rank send/recv) —
    // the *only* change is the backend passed to compile().
    let mut statik = problem.compile(&SpmdBackend::new(), &schedule)?;
    let report = statik.run()?;
    println!("static SPMD:      {report}");

    // Both artifacts expose the same read surface; the numerics agree to
    // the bit.
    let a_dynamic = dynamic.read("A")?;
    let a_static = statik.read("A")?;
    assert_eq!(a_dynamic.len(), (n * n) as usize);
    assert!(a_dynamic
        .iter()
        .zip(&a_static)
        .all(|(x, y)| x.to_bits() == y.to_bits()));
    println!("cross-backend reads are bit-identical");

    // Verify against a sequential oracle.
    let mut inputs = std::collections::BTreeMap::new();
    for t in ["B", "C"] {
        inputs.insert(t.to_string(), problem.initial_data(t).unwrap());
    }
    let want = distal::core::oracle::evaluate(
        problem.assignment().unwrap(),
        &problem.dims_map(),
        &inputs,
    )?;
    let max_err = a_dynamic
        .iter()
        .zip(want.iter())
        .map(|(g, w)| (g - w).abs())
        .fold(0.0f64, f64::max);
    println!("max |error| vs sequential oracle: {max_err:.2e}");
    assert!(max_err < 1e-9);
    println!("OK");
    Ok(())
}
