//! Sparse SpMV through the unified compile pipeline: the same
//! `a(i) = B(i,j) * c(j)` problem with B registered in a CSR-style
//! compressed format (`ds` levels — dense rows, compressed columns),
//! run at density 0.01 and 0.5 on both executable backends.
//!
//! Three things to watch:
//!
//! * the *reads are bit-identical* across backends and across the
//!   sparse/dense registrations of the same data (the sparse leaf
//!   kernels iterate only stored coordinates but accumulate in the
//!   dense kernels' exact order);
//! * the *reported bytes scale with nnz*: compressed B tiles ship
//!   `pos`/`crd`/`vals` payloads, so the SPMD report shrinks ~50x
//!   between density 0.5 and 0.01 while the dense registration stays
//!   put;
//! * the α-β cost model prices the same schedule differently at the two
//!   densities — the signal the autoscheduler ranks sparse schedules by.
//!
//! Run with `cargo run --release --example sparse_spmv`.

use distal::prelude::*;

fn spmv_problem(
    p: i64,
    n: i64,
    density: f64,
    compressed: bool,
) -> Result<Problem, Box<dyn std::error::Error>> {
    let machine = DistalMachine::flat(Grid::line(p), ProcKind::Cpu);
    let mut problem = Problem::new(MachineSpec::small(p as usize), machine);
    problem.statement("a(i) = B(i,j) * c(j)")?;
    // The output is row-distributed; B stays whole on rank 0 so each
    // rank pulls its row block over the wire — the traffic nnz-sized
    // accounting is about. Only B's *level formats* differ between the
    // two registrations.
    problem.tensor(TensorSpec::new(
        "a",
        vec![n],
        Format::parse("x->x", MemKind::Sys)?,
    ))?;
    let mut b_fmt = Format::undistributed_in(MemKind::Global);
    if compressed {
        b_fmt.levels = vec![LevelFormat::Dense, LevelFormat::Compressed];
    }
    problem.tensor(TensorSpec::new("B", vec![n, n], b_fmt))?;
    problem.tensor(TensorSpec::new(
        "c",
        vec![n],
        Format::undistributed_in(MemKind::Global),
    ))?;
    // The density knob: B keeps each value with probability `density`,
    // exact +0.0 otherwise — identical data for both registrations.
    problem.fill_random_sparse("B", 0xB, density)?;
    problem.fill_random("c", 0xC)?;
    Ok(problem)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (p, n) = (4, 64);
    let schedule = Schedule::new()
        .divide("i", "io", "ii", p)
        .reorder(&["io", "ii"])
        .distribute(&["io"]);

    for density in [0.01, 0.5] {
        println!("— density {density} —");
        let sparse = spmv_problem(p, n, density, true)?;
        let dense = spmv_problem(p, n, density, false)?;
        println!(
            "  B holds {} of {} entries",
            sparse.nnz_of("B").unwrap(),
            n * n
        );

        // The same sparse problem on both executable backends. The runtime
        // request binds B the way a caller that already holds CSR would:
        // the plan's leaf reads B compressed, so `bind` shares the image
        // instead of compressing a dense one.
        let plan = RuntimeBackend::functional().plan(&sparse, &schedule)?;
        let image = SparseBuffer::from_dense(&[n, n], &sparse.initial_data("B").unwrap());
        let mut bindings = sparse.bindings();
        bindings.set_sparse("B", std::sync::Arc::new(image));
        let mut runtime = plan.bind(&bindings)?;
        let rt_report = runtime.run()?;
        let mut spmd = sparse.compile(&SpmdBackend::new(), &schedule)?;
        let sp_report = spmd.run()?;
        println!("  runtime (sparse): {rt_report}");
        println!("  spmd    (sparse): {sp_report}");

        // The dense registration of the same data, for the byte contrast.
        let mut spmd_dense = dense.compile(&SpmdBackend::new(), &schedule)?;
        let dense_report = spmd_dense.run()?;
        println!("  spmd    (dense):  {dense_report}");
        // Compression pays off when the data is actually sparse; at 50%
        // density the crd overhead makes CSR slightly *larger* — exactly
        // what nnz-honest accounting should report.
        if density <= 0.1 {
            assert!(
                sp_report.bytes_moved < dense_report.bytes_moved,
                "compressed bytes must undercut dense at density {density}"
            );
        }

        // All three reads are bit-identical.
        let a_rt = runtime.read("a")?;
        let a_sp = spmd.read("a")?;
        let a_dense = spmd_dense.read("a")?;
        assert!(a_rt
            .iter()
            .zip(&a_sp)
            .chain(a_rt.iter().zip(&a_dense))
            .all(|(x, y)| x.to_bits() == y.to_bits()));
        println!("  reads bit-identical across backends and registrations");
    }
    println!("ok");
    Ok(())
}
