//! Sparse-vs-dense communication benchmark: the same SpMV/SpMM problem
//! registered with dense and CSR-compressed (`ds`) formats for the sparse
//! operand, lowered through the SPMD backend at density ∈ {0.01, 0.1,
//! 0.5} on p ∈ {4, 16}.
//!
//! For each cell the harness executes both programs on the rank VM,
//! verifies the outputs are bit-identical (the sparse parity guarantee),
//! and reports the *exact* executed bytes — compressed operand tiles are
//! charged their actual `pos`/`crd`/`vals` payloads — next to the α-β
//! makespans of both registrations. This is the CI gate for nnz-aware
//! accounting: at density 0.01 the compressed operand's bytes must be
//! below 10% of its dense bytes.

use distal_core::{DistalMachine, Problem, Schedule, TensorSpec};
use distal_format::Format;
use distal_machine::grid::Grid;
use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
use distal_spmd::{lower_problem, AlphaBeta, CollectiveConfig, SpmdProgram};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One (kernel, ranks, density) measurement.
#[derive(Clone, Debug)]
pub struct SparseBenchRow {
    /// `spmv` or `spmm`.
    pub kernel: String,
    /// Rank count.
    pub p: i64,
    /// Problem side length.
    pub n: i64,
    /// Density of the sparse operand B.
    pub density: f64,
    /// Actual nnz of B's seeded data.
    pub nnz: u64,
    /// Total executed bytes with B registered dense.
    pub dense_bytes: u64,
    /// Total executed bytes with B registered compressed.
    pub sparse_bytes: u64,
    /// Executed bytes carrying B, dense registration.
    pub dense_b_bytes: u64,
    /// Executed bytes carrying B, compressed registration (exact
    /// pos/crd/vals payloads).
    pub sparse_b_bytes: u64,
    /// α-β makespan of the dense registration (seconds).
    pub dense_makespan_s: f64,
    /// α-β makespan of the compressed registration (seconds).
    pub sparse_makespan_s: f64,
    /// Whether both executions produced bit-identical outputs.
    pub verified: bool,
}

/// SpMV `a(i) = B(i,j) * c(j)` on a `p`-rank line: `a` row-distributed,
/// B whole on rank 0 (every rank pulls its row block — the message
/// stream nnz sizing must shrink), `c` staged on rank 0.
fn spmv_problem(p: i64, n: i64, density: f64, compressed: bool) -> (Problem, Schedule) {
    let machine = DistalMachine::flat(Grid::line(p), ProcKind::Cpu);
    let mut problem = Problem::new(MachineSpec::small(p.max(1) as usize), machine);
    problem.statement("a(i) = B(i,j) * c(j)").unwrap();
    let b_fmt = if compressed {
        Format::parse_levels("xy->x", "ds", MemKind::Sys).unwrap()
    } else {
        Format::parse("xy->x", MemKind::Sys).unwrap()
    };
    problem
        .tensor(TensorSpec::new(
            "a",
            vec![n],
            Format::parse("x->x", MemKind::Sys).unwrap(),
        ))
        .unwrap();
    // B's *distribution* stays undistributed so its tiles flow over the
    // wire; only the level formats differ between registrations.
    let mut b_home = Format::undistributed_in(MemKind::Global);
    b_home.levels = b_fmt.levels;
    problem
        .tensor(TensorSpec::new("B", vec![n, n], b_home))
        .unwrap();
    problem
        .tensor(TensorSpec::new(
            "c",
            vec![n],
            Format::undistributed_in(MemKind::Global),
        ))
        .unwrap();
    problem.fill_random_sparse("B", 0xB, density).unwrap();
    problem.fill_random("c", 0xC).unwrap();
    let schedule = Schedule::new()
        .divide("i", "io", "ii", p)
        .reorder(&["io", "ii"])
        .distribute(&["io"]);
    (problem, schedule)
}

/// SUMMA SpMM `A(i,j) = B(i,k) * C(k,j)` on a `g × g` grid: B and C are
/// both communicated per k-chunk; the compressed registration shrinks
/// the B half of the traffic.
fn spmm_problem(g: i64, n: i64, density: f64, compressed: bool) -> (Problem, Schedule) {
    let machine = DistalMachine::flat(Grid::grid2(g, g), ProcKind::Cpu);
    let mut problem = Problem::new(MachineSpec::small((g * g).max(1) as usize), machine);
    problem.statement("A(i,j) = B(i,k) * C(k,j)").unwrap();
    let tiles = Format::parse("xy->xy", MemKind::Sys).unwrap();
    let b_fmt = if compressed {
        Format::parse_levels("xy->xy", "ds", MemKind::Sys).unwrap()
    } else {
        tiles.clone()
    };
    problem
        .tensor(TensorSpec::new("A", vec![n, n], tiles.clone()))
        .unwrap();
    problem
        .tensor(TensorSpec::new("B", vec![n, n], b_fmt))
        .unwrap();
    problem
        .tensor(TensorSpec::new("C", vec![n, n], tiles))
        .unwrap();
    problem.fill_random_sparse("B", 0xB, density).unwrap();
    problem.fill_random("C", 0xC).unwrap();
    (problem, Schedule::summa(g, g, (n / g).max(1)))
}

/// Lowers + executes one registration, returning the program, its exact
/// executed stats' `(total, B)` bytes, the α-β makespan, and the output.
fn run_one(problem: &Problem, schedule: &Schedule) -> (SpmdProgram, u64, u64, f64, Vec<f64>) {
    let program = lower_problem(problem, schedule, &CollectiveConfig::default())
        .unwrap_or_else(|e| panic!("sparse bench lowering failed: {e}"));
    let mut inputs = BTreeMap::new();
    for t in &program.tensors {
        if t.name != program.assignment.lhs.tensor {
            inputs.insert(t.name.clone(), problem.initial_data(&t.name).unwrap());
        }
    }
    let result = program
        .execute(&inputs)
        .unwrap_or_else(|e| panic!("sparse bench execution failed: {e}"));
    let total = result.stats.bytes;
    let b_bytes = result.stats.bytes_by_tensor.get("B").copied().unwrap_or(0);
    let makespan = program.cost(&AlphaBeta::default()).makespan_s;
    (program, total, b_bytes, makespan, result.output)
}

/// The sweep: SpMV and SpMM at density ∈ `densities` on p ∈ `ps`
/// (SpMM requires square rank counts; non-squares are skipped).
pub fn sparse_bench(ps: &[i64], densities: &[f64]) -> Vec<SparseBenchRow> {
    let mut rows = Vec::new();
    for &p in ps {
        for &density in densities {
            // SpMV on a p-rank line.
            let n_v = 16 * p.max(1);
            let (dense_p, sched) = spmv_problem(p, n_v, density, false);
            let (sparse_p, _) = spmv_problem(p, n_v, density, true);
            rows.push(measure(
                "spmv", p, n_v, density, &dense_p, &sparse_p, &sched,
            ));

            // SpMM on a near-square grid (square p only).
            let g = (p as f64).sqrt().round() as i64;
            if g * g == p {
                let n_m = 24 * g;
                let (dense_p, sched) = spmm_problem(g, n_m, density, false);
                let (sparse_p, _) = spmm_problem(g, n_m, density, true);
                rows.push(measure(
                    "spmm", p, n_m, density, &dense_p, &sparse_p, &sched,
                ));
            }
        }
    }
    rows
}

fn measure(
    kernel: &str,
    p: i64,
    n: i64,
    density: f64,
    dense_p: &Problem,
    sparse_p: &Problem,
    schedule: &Schedule,
) -> SparseBenchRow {
    let (_, dense_bytes, dense_b, dense_mk, dense_out) = run_one(dense_p, schedule);
    let (_, sparse_bytes, sparse_b, sparse_mk, sparse_out) = run_one(sparse_p, schedule);
    let verified = dense_out.len() == sparse_out.len()
        && dense_out
            .iter()
            .zip(sparse_out.iter())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    SparseBenchRow {
        kernel: kernel.into(),
        p,
        n,
        density,
        nnz: dense_p.nnz_of("B").unwrap_or(0),
        dense_bytes,
        sparse_bytes,
        dense_b_bytes: dense_b,
        sparse_b_bytes: sparse_b,
        dense_makespan_s: dense_mk,
        sparse_makespan_s: sparse_mk,
        verified,
    }
}

/// Renders the sweep as a table.
pub fn render(rows: &[SparseBenchRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6} {:>4} {:>5} {:>8} {:>8} {:>12} {:>12} {:>12} {:>12} {:>9} {:>9} {:>6}",
        "kernel",
        "p",
        "n",
        "density",
        "nnz",
        "dense B",
        "sparse B",
        "dense tot",
        "sparse tot",
        "dense αβ",
        "sparseαβ",
        "ok"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<6} {:>4} {:>5} {:>8.3} {:>8} {:>12} {:>12} {:>12} {:>12} {:>7.1}us {:>7.1}us {:>6}",
            r.kernel,
            r.p,
            r.n,
            r.density,
            r.nnz,
            r.dense_b_bytes,
            r.sparse_b_bytes,
            r.dense_bytes,
            r.sparse_bytes,
            r.dense_makespan_s * 1e6,
            r.sparse_makespan_s * 1e6,
            if r.verified { "yes" } else { "NO" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_verifies_and_compresses() {
        let rows = sparse_bench(&[4], &[0.01, 0.5]);
        assert_eq!(rows.len(), 4); // (spmv + spmm) x 2 densities
        for r in &rows {
            assert!(r.verified, "{r:?}");
            assert!(r.dense_b_bytes > 0, "{r:?}");
            assert!(r.dense_makespan_s.is_finite() && r.dense_makespan_s > 0.0);
            assert!(r.sparse_makespan_s.is_finite() && r.sparse_makespan_s > 0.0);
            if r.density <= 0.01 {
                assert!(
                    r.sparse_b_bytes * 10 < r.dense_b_bytes,
                    "compression gate: {r:?}"
                );
            }
        }
    }
}
