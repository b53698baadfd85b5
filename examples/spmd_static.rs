//! The static SPMD backend (paper §8's "MPI-based backend for DISTAL"):
//! lower SUMMA and Cannon's algorithm to explicit per-rank send/recv
//! programs through the unified `Problem` pipeline, print rank 0's
//! program, each algorithm's communication profile, the collectives the
//! recognizer found (SUMMA's row/column fans become binomial-tree
//! broadcasts; Cannon stays systolic), and the α-β makespan of each
//! schedule — then verify both against the sequential oracle via the
//! shared `Instance` surface.
//!
//! Run with: `cargo run --example spmd_static`

use distal::algs::matmul::MatmulAlgorithm;
use distal::core::oracle;
use distal::prelude::*;
use distal::spmd::lower_problem;
use std::collections::BTreeMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (p, n) = (9i64, 18i64);

    println!("static SPMD lowering of A(i,j) = B(i,k)*C(k,j), n={n}, p={p}\n");
    for alg in [MatmulAlgorithm::Summa, MatmulAlgorithm::Cannon] {
        // The same target-agnostic problem the runtime backend would
        // compile: machine grid + formats from the Figure 9 table.
        let grid = alg.grid(p);
        let machine = DistalMachine::flat(grid.clone(), ProcKind::Cpu);
        let mut problem = Problem::new(MachineSpec::small(p as usize), machine);
        problem.statement("A(i,j) = B(i,k) * C(k,j)")?;
        for (name, f) in ["A", "B", "C"].iter().zip(alg.formats(MemKind::Sys)) {
            problem.tensor(TensorSpec::new(*name, vec![n, n], f))?;
        }
        for (t, seed) in [("B", 7u64), ("C", 11u64)] {
            let data: Vec<f64> = (0..n * n)
                .map(|i| ((i as u64).wrapping_mul(seed) % 13) as f64 - 6.0)
                .collect();
            problem.set_data(t, data)?;
        }
        let schedule = alg.schedule(p, n, n / 3);

        // Introspect the lowered program (derived from the shared
        // registry — no hand-built tensor lists).
        let program = lower_problem(&problem, &schedule, &Default::default())?;
        println!("== {} on {:?} ==", alg.name(), grid.dims());
        println!("rank 0 program:");
        for op in program.rank_ops(0) {
            println!("    {op}");
        }
        let stats = program.stats();
        println!(
            "  {} messages, {} bytes, max torus distance {}, neighbor fraction {:.0}%",
            stats.messages,
            stats.bytes,
            stats.max_distance(),
            stats.neighbor_fraction() * 100.0
        );
        println!("  bytes by distance: {:?}", stats.bytes_by_distance);
        if program.collectives.is_empty() {
            println!("  no collectives recognized (systolic/neighbour traffic)");
        } else {
            println!("  collectives ({}):", program.collectives.len());
            for c in program.collectives.iter().take(4) {
                println!("    {c}");
            }
            if program.collectives.len() > 4 {
                println!("    … and {} more", program.collectives.len() - 4);
            }
        }
        let cost = program.cost(&AlphaBeta::default());
        println!(
            "  α-β makespan {:.1}us ({} messages on the critical chain)",
            cost.makespan_s * 1e6,
            cost.critical_messages
        );

        // Execute through the shared Instance surface and verify.
        let mut artifact = problem.compile(&SpmdBackend::new(), &schedule)?;
        let report = artifact.run()?;
        let got = artifact.read("A")?;
        let mut inputs = BTreeMap::new();
        for t in ["B", "C"] {
            inputs.insert(t.to_string(), problem.initial_data(t).unwrap());
        }
        let want = oracle::evaluate(problem.assignment().unwrap(), &problem.dims_map(), &inputs)?;
        let max_err = got
            .iter()
            .zip(want.iter())
            .map(|(g, w)| (g - w).abs())
            .fold(0.0f64, f64::max);
        println!("  artifact report: {report}");
        println!("  verified against oracle, max |err| = {max_err:.2e}\n");
        assert!(max_err < 1e-9);
    }
    Ok(())
}
