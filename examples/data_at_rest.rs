//! "Code can shape to data so that data may stay at rest" (§8): the same
//! computation compiled against three different starting distributions of
//! the same tensors, showing how placement traffic changes while the
//! answer does not.
//!
//! Run with `cargo run --release --example data_at_rest`.

use distal::prelude::*;

fn run_with_format(
    notation: &str,
    schedule: &Schedule,
    n: i64,
) -> Result<(f64, f64, Vec<f64>), Box<dyn std::error::Error>> {
    let machine = DistalMachine::flat(Grid::grid2(2, 2), ProcKind::Cpu);
    let mut problem = Problem::new(MachineSpec::small(2), machine);
    problem.statement("A(i,j) = B(i,k) * C(k,j)")?;
    let f = Format::parse(notation, MemKind::Sys)?;
    for name in ["A", "B", "C"] {
        problem.tensor(TensorSpec::new(name, vec![n, n], f.clone()))?;
    }
    problem.fill_random("B", 1)?.fill_random("C", 2)?;
    let mut instance = RuntimeBackend::functional().compile_typed(&problem, schedule)?;
    let place = instance.place_stats()?;
    let compute = instance.execute_stats()?;
    Ok((
        (place.inter_node_bytes() + place.intra_node_bytes()) as f64,
        (compute.inter_node_bytes() + compute.intra_node_bytes()) as f64,
        instance.read("A")?,
    ))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 32;
    // One schedule (SUMMA on a 2x2 grid), three data layouts.
    let schedule = Schedule::summa(2, 2, 8);
    println!("A(i,j) = B(i,k) * C(k,j), n = {n}, SUMMA schedule on Grid(2x2)\n");
    println!(
        "{:<24} {:>18} {:>18}",
        "initial distribution", "placement KB", "compute KB"
    );
    // Traffic = all bytes moved between distinct memories (intra + inter
    // node); staging of the initial input is excluded.
    let mut reference: Option<Vec<f64>> = None;
    // Three layouts expressible on the same 2x2 machine: matching 2D tiles,
    // transposed tiles (column-major blocks), and rows packed onto the
    // machine's first column.
    for notation in ["xy->xy", "yx->xy", "xy->x0"] {
        let (place, compute, a) = run_with_format(notation, &schedule, n)?;
        match &reference {
            None => reference = Some(a),
            Some(r) => assert!(a.iter().zip(r.iter()).all(|(x, y)| (x - y).abs() < 1e-9)),
        }
        println!(
            "{:<24} {:>18.1} {:>18.1}",
            format!("T {notation} M"),
            place / 1e3,
            compute / 1e3
        );
    }
    println!("\nthe tiled layout matches the computation: the schedule reads");
    println!("tiles where they already live, so compute-phase traffic is the");
    println!("k-chunk pipeline only; row/column layouts pay extra movement.");
    Ok(())
}
