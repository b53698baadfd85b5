//! SPMD collective-lowering benchmark: naive vs tree vs ring schedules
//! for the Figure 9 algorithms, priced under the α-β cost model *and*
//! measured on the threaded rank transport.
//!
//! For each (algorithm, lowering) pair the harness lowers the schedule,
//! verifies the execution against the sequential oracle, and reports the
//! exact static properties of the compiled program: message/byte counts,
//! neighbour fraction, the worst collective critical-path depth, and the
//! α-β makespan. This is the CI gate for the collective recognizer: on a
//! `g × g` grid a SUMMA owner fan must drop from `g - 1` serialized
//! sends to `⌈log₂ g⌉ ≤ ⌈log₂ g⌉ + 1` tree rounds at identical byte
//! volume, while Cannon must stay fully systolic (nothing recognized,
//! all steady-state traffic at torus distance 1).
//!
//! Each row additionally runs the program on real rank threads
//! ([`distal_spmd::Transport::Threaded`]) and records the measured
//! wall-clock makespan, the modeled-over-measured ratio, and whether the
//! threaded output was bit-identical to the sequential reference (the
//! `--assert-parity` CI gate).
//!
//! [`vm_overhead`] is the sweep's one cross-backend timing: the same
//! SUMMA executed by the threaded rank VM and by the runtime backend,
//! whose ratio the `--assert-vm-overhead` CI gate bounds.
//!
//! [`plan_scaling`] times `SpmdBackend::plan` and its three phases at the
//! pipeline benchmark's shape; the `--assert-plan-scaling` CI gate bounds
//! how much the time *per rank op* may grow from p = 64 to p = 256.

use distal_algs::matmul::MatmulAlgorithm;
use distal_algs::setup::matmul_problem_on;
use distal_core::{oracle, Backend, Bindings, Problem, RuntimeBackend, Schedule};
use distal_ir::expr::Assignment;
use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
use distal_spmd::{
    collective, lower_problem, AlphaBeta, CollectiveConfig, CommStats, Message, SpmdBackend,
    SpmdProgram, Transport,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One (algorithm, lowering) measurement.
#[derive(Clone, Debug)]
pub struct SpmdBenchRow {
    /// Algorithm name (Figure 9 naming).
    pub algorithm: String,
    /// Lowering mode: `naive`, `tree`, or `ring`.
    pub lowering: String,
    /// Matrix side length.
    pub n: i64,
    /// The machine grid the program was actually lowered for (the
    /// algorithm's own factorization of the rank count, which may differ
    /// from a requested shape — depth bounds must be computed from this).
    pub grid: Vec<i64>,
    /// Total messages in the static program.
    pub messages: u64,
    /// Total bytes on the wire.
    pub bytes: u64,
    /// Fraction of bytes travelling exactly one torus hop.
    pub neighbor_fraction: f64,
    /// Worst collective critical-path message depth (for `naive`: the
    /// serialized fan depth the recognizer reports).
    pub depth: usize,
    /// α-β modeled makespan in seconds.
    pub makespan_s: f64,
    /// Wall-clock seconds spent lowering the schedule to this program.
    pub plan_s: f64,
    /// Wall-clock seconds the admission linter (`distal_core::lint`)
    /// spent on the schedule — the `--assert-lint-overhead` gate holds
    /// it under 0.5 ms or 2% of `plan_s`.
    pub lint_s: f64,
    /// Wall-clock seconds the static verifier spent on this program —
    /// the `--assert-verified` gate holds it under 2 ms or 5% of `plan_s`.
    pub verify_s: f64,
    /// Whether the static verifier proved the program clean (no error
    /// diagnostics) without executing it.
    pub statically_verified: bool,
    /// Whether execution matched the sequential oracle.
    pub verified: bool,
    /// Measured wall-clock makespan of the threaded run, in seconds
    /// (0.0 when the threaded run failed).
    pub measured_s: f64,
    /// Modeled-over-measured makespan ratio (`makespan_s / measured_s`;
    /// 0.0 when unmeasured). A perfectly calibrated α-β model scores 1.
    pub model_ratio: f64,
    /// Whether the threaded output was bit-identical to the sequential
    /// transport's (the `--assert-parity` gate).
    pub parity: bool,
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn deterministic_data(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    (0..n)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

/// The `n × n` matmul problem and Figure 9 schedule of `alg` over `p` ranks
/// (chunk `n / 4`) that every measurement in this module plans.
fn figure9_problem(alg: MatmulAlgorithm, p: i64, n: i64) -> (Problem, Schedule) {
    matmul_problem_on(
        alg,
        MachineSpec::small(8),
        ProcKind::Cpu,
        MemKind::Sys,
        p,
        n,
        (n / 4).max(1),
    )
    .unwrap_or_else(|e| panic!("{alg:?} p={p} n={n}: {e}"))
}

/// Lowers `alg` for `p` ranks at size `n` under `config`, also timing the
/// admission linter on the same `(problem, schedule)` (the `lint_s` column
/// of the sweep). The linter must find no errors — these are the
/// known-good Figure 9 schedules.
///
/// # Panics
///
/// Panics when the lowering fails or the linter rejects the schedule (a
/// bench-harness bug, not a measurement).
pub fn lower_algorithm_timed(
    alg: MatmulAlgorithm,
    p: i64,
    n: i64,
    config: &CollectiveConfig,
) -> (SpmdProgram, f64) {
    let (problem, schedule) = figure9_problem(alg, p, n);
    let lint_start = std::time::Instant::now();
    let diagnostics =
        distal_core::lint_schedule(&problem, &schedule, &distal_core::LintConfig::default());
    let lint_s = lint_start.elapsed().as_secs_f64();
    assert!(
        !diagnostics.iter().any(|d| d.is_error()),
        "{alg:?}: {diagnostics:?}"
    );
    let program =
        lower_problem(&problem, &schedule, config).unwrap_or_else(|e| panic!("{alg:?}: {e}"));
    (program, lint_s)
}

/// The shared inputs and oracle answer of one problem size (computed
/// once per sweep; the sequential oracle is O(n³)).
#[derive(Debug)]
pub struct OracleCase {
    inputs: BTreeMap<String, Vec<f64>>,
    want: Vec<f64>,
}

impl OracleCase {
    /// Builds deterministic inputs for an `n × n` matmul and evaluates
    /// the sequential oracle on them.
    pub fn matmul(n: i64) -> Self {
        let mut inputs = BTreeMap::new();
        inputs.insert("B".to_string(), deterministic_data((n * n) as usize, 11));
        inputs.insert("C".to_string(), deterministic_data((n * n) as usize, 13));
        let mut dims = BTreeMap::new();
        for t in ["A", "B", "C"] {
            dims.insert(t.to_string(), vec![n, n]);
        }
        let assignment = Assignment::parse("A(i,j) = B(i,k) * C(k,j)").unwrap();
        let want = oracle::evaluate(&assignment, &dims, &inputs).unwrap();
        OracleCase { inputs, want }
    }
}

/// Measures one lowered program: runs the static verifier (timed, for
/// the `--assert-verified` overhead gate), verifies the sequential
/// execution against the oracle, then runs the same program on the
/// threaded transport (`threads` pool workers, `0` = auto) for the
/// measured wall-clock makespan and the sequential-vs-threaded parity
/// bit. `plan_s` is the wall-clock lowering time the caller observed,
/// `lint_s` the admission-lint time.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    alg: MatmulAlgorithm,
    lowering: &str,
    n: i64,
    program: &SpmdProgram,
    case: &OracleCase,
    threads: usize,
    plan_s: f64,
    lint_s: f64,
) -> SpmdBenchRow {
    let stats = program.stats();
    let verify_start = std::time::Instant::now();
    let diagnostics = distal_spmd::verify_program(program);
    let verify_s = verify_start.elapsed().as_secs_f64();
    let statically_verified = !diagnostics.iter().any(|d| d.is_error());
    let depth = if program.collectives.is_empty() {
        collective::recognize(program)
            .iter()
            .map(|c| c.depth)
            .max()
            .unwrap_or(0)
    } else {
        program.collective_depth()
    };
    let (inputs, want) = (&case.inputs, &case.want);
    let sequential = program.execute(inputs).ok();
    let verified = sequential.as_ref().is_some_and(|result| {
        result
            .output
            .iter()
            .zip(want.iter())
            .all(|(g, w)| (g - w).abs() < 1e-9 * (1.0 + w.abs()))
    });
    let makespan_s = program.cost(&AlphaBeta::default()).makespan_s;
    let threaded = program
        .execute_with(inputs, &Transport::threaded_with(threads))
        .ok();
    let parity = match (&sequential, &threaded) {
        (Some(s), Some(t)) => bits_equal(&s.output, &t.output),
        _ => false,
    };
    let measured = threaded.as_ref().and_then(|t| t.measured.as_ref());
    let measured_s = measured.map_or(0.0, |m| m.wall_s);
    SpmdBenchRow {
        algorithm: alg.name(),
        lowering: lowering.to_string(),
        n,
        grid: program.grid.dims().to_vec(),
        messages: stats.messages,
        bytes: stats.bytes,
        neighbor_fraction: stats.neighbor_fraction(),
        depth,
        makespan_s,
        plan_s,
        lint_s,
        verify_s,
        statically_verified,
        verified,
        measured_s,
        model_ratio: if measured_s > 0.0 {
            makespan_s / measured_s
        } else {
            0.0
        },
        parity,
    }
}

/// The default sweep: SUMMA under all three lowerings plus Cannon, for
/// `gx × gy` ranks.
///
/// The 2-D algorithms pick their own near-square factorization of the
/// rank count, which may differ from the requested shape (e.g. `2 × 8`
/// ranks still run on a `4 × 4` grid); every row records the actual
/// grid, and depth gates must read it from there.
pub fn spmd_bench(gx: i64, gy: i64, n: i64) -> Vec<SpmdBenchRow> {
    spmd_bench_with_programs(gx, gy, n, 0).0
}

/// [`spmd_bench`], also returning the lowered programs (same order as
/// the rows) so gates can inspect them without re-lowering. `threads`
/// sizes the threaded transport's rank pool (`0` = auto).
pub fn spmd_bench_with_programs(
    gx: i64,
    gy: i64,
    n: i64,
    threads: usize,
) -> (Vec<SpmdBenchRow>, Vec<SpmdProgram>) {
    let p = gx * gy;
    let case = OracleCase::matmul(n);
    let mut rows = Vec::new();
    let mut programs = Vec::new();
    for (lowering, config) in [
        ("naive", CollectiveConfig::point_to_point()),
        ("tree", CollectiveConfig::trees()),
        ("ring", CollectiveConfig::rings()),
    ] {
        let plan_start = std::time::Instant::now();
        let (program, lint_s) = lower_algorithm_timed(MatmulAlgorithm::Summa, p, n, &config);
        let plan_s = plan_start.elapsed().as_secs_f64();
        rows.push(measure(
            MatmulAlgorithm::Summa,
            lowering,
            n,
            &program,
            &case,
            threads,
            plan_s,
            lint_s,
        ));
        programs.push(program);
    }
    let plan_start = std::time::Instant::now();
    let (cannon, lint_s) =
        lower_algorithm_timed(MatmulAlgorithm::Cannon, p, n, &CollectiveConfig::trees());
    let plan_s = plan_start.elapsed().as_secs_f64();
    rows.push(measure(
        MatmulAlgorithm::Cannon,
        "tree",
        n,
        &cannon,
        &case,
        threads,
        plan_s,
        lint_s,
    ));
    programs.push(cannon);
    (rows, programs)
}

/// Cannon's steady-state statistics (all steps after the initial
/// alignment shift), whose traffic must be entirely nearest-neighbour.
pub fn cannon_steady_stats(program: &SpmdProgram) -> CommStats {
    let steady: Vec<Message> = program
        .messages_by_step()
        .into_iter()
        .skip(1)
        .flatten()
        .collect();
    let refs: Vec<&Message> = steady.iter().collect();
    CommStats::from_messages(&program.grid, program.ranks(), &refs)
}

/// Execute wall time of one SUMMA on the two executable backends (the
/// `--assert-vm-overhead` gate).
#[derive(Clone, Copy, Debug)]
pub struct VmOverhead {
    /// Fastest `Instance::execute` on `SpmdBackend` over the threaded
    /// transport, seconds.
    pub spmd_s: f64,
    /// Fastest `Instance::execute` on the functional `RuntimeBackend`,
    /// seconds.
    pub runtime_s: f64,
}

impl VmOverhead {
    /// `spmd_s / runtime_s`: both backends run the same generated leaf
    /// over the same tiles, so what exceeds 1 is the rank VM's and the
    /// transport's own data movement.
    pub fn ratio(&self) -> f64 {
        self.spmd_s / self.runtime_s
    }
}

/// Times `execute()` of a SUMMA over `p` ranks at size `n` on both
/// executable backends: one plan each, seven fresh bindings, fastest
/// execute kept (other tenants of the host only ever add time).
/// `threads` sizes the rank pool (`0` = auto).
///
/// # Panics
///
/// Panics when planning, binding or execution fails, or when the two
/// backends' outputs differ in any bit.
pub fn vm_overhead(p: i64, n: i64, threads: usize) -> VmOverhead {
    let (mut problem, schedule) = figure9_problem(MatmulAlgorithm::Summa, p, n);
    problem.fill_random("B", 11).unwrap();
    problem.fill_random("C", 13).unwrap();
    let bindings = Bindings::from_problem(&problem);

    let fastest_execute = |backend: &dyn Backend| -> (f64, Vec<f64>) {
        let name = backend.name().to_string();
        let plan = backend
            .plan(&problem, &schedule)
            .unwrap_or_else(|e| panic!("{name} plan: {e}"));
        let mut best = f64::INFINITY;
        let mut output = Vec::new();
        for _ in 0..7 {
            let mut instance = plan
                .bind(&bindings)
                .unwrap_or_else(|e| panic!("{name} bind: {e}"));
            instance
                .place()
                .unwrap_or_else(|e| panic!("{name} place: {e}"));
            let start = std::time::Instant::now();
            instance
                .execute()
                .unwrap_or_else(|e| panic!("{name} execute: {e}"));
            best = best.min(start.elapsed().as_secs_f64());
            output = instance
                .read("A")
                .unwrap_or_else(|e| panic!("{name} read: {e}"));
        }
        (best, output)
    };
    let spmd = SpmdBackend::new().with_transport(Transport::threaded_with(threads));
    let (spmd_s, spmd_out) = fastest_execute(&spmd);
    let (runtime_s, runtime_out) = fastest_execute(&RuntimeBackend::functional());
    assert!(
        bits_equal(&spmd_out, &runtime_out),
        "SPMD and runtime outputs differ"
    );
    VmOverhead { spmd_s, runtime_s }
}

/// Plan time of one algorithm at one rank count, at the pipeline
/// benchmark's `plan_scale` shape (the `--assert-plan-scaling` gate). Every
/// time is the fastest of five.
#[derive(Clone, Debug)]
pub struct PlanScaling {
    /// Algorithm name (Figure 9 naming).
    pub algorithm: String,
    /// Rank count.
    pub ranks: usize,
    /// Ops over all rank programs of the tree-lowered plan.
    pub rank_ops: usize,
    /// `SpmdBackend::plan`: admission, lowering, collectives, verification.
    pub plan_s: f64,
    /// The point-to-point lowering alone (`spmd::lower_with`'s
    /// communication solving).
    pub lower_s: f64,
    /// What recognizing and tree-lowering the collectives adds to it.
    pub collectives_s: f64,
    /// The static verifier on the tree-lowered program.
    pub verify_s: f64,
}

impl PlanScaling {
    /// `SpmdBackend::plan` microseconds per rank op — flat in p when
    /// planning is linear in the program it emits.
    pub fn plan_us_per_op(&self) -> f64 {
        self.plan_s * 1e6 / self.rank_ops as f64
    }
}

/// Plans `alg` over `p` ranks at n = 512, chunk 128 under the default
/// (tree) collectives, timing the whole plan and each phase on its own.
///
/// # Panics
///
/// Panics when planning or lowering fails (a bench-harness bug, not a
/// measurement).
pub fn plan_scaling(alg: MatmulAlgorithm, p: i64) -> PlanScaling {
    let (problem, schedule) = figure9_problem(alg, p, 512);
    fn fastest<T>(mut run: impl FnMut() -> T) -> (f64, T) {
        let mut best: Option<(f64, T)> = None;
        for _ in 0..5 {
            let start = std::time::Instant::now();
            let out = run();
            let s = start.elapsed().as_secs_f64();
            if best.as_ref().is_none_or(|(b, _)| s < *b) {
                best = Some((s, out));
            }
        }
        best.expect("five runs")
    }
    let lower = |config: CollectiveConfig| {
        lower_problem(&problem, &schedule, &config).unwrap_or_else(|e| panic!("{alg:?} p={p}: {e}"))
    };
    let backend = SpmdBackend::new();
    let (plan_s, _) = fastest(|| {
        backend
            .plan(&problem, &schedule)
            .unwrap_or_else(|e| panic!("{alg:?} p={p}: {e}"))
    });
    let (lower_s, _) = fastest(|| lower(CollectiveConfig::point_to_point()));
    let (trees_s, program) = fastest(|| lower(CollectiveConfig::trees()));
    let (verify_s, _) = fastest(|| distal_spmd::verify_program(&program));
    PlanScaling {
        algorithm: alg.name(),
        ranks: program.ranks(),
        rank_ops: (0..program.ranks())
            .map(|r| program.rank_ops(r).len())
            .sum(),
        plan_s,
        lower_s,
        collectives_s: (trees_s - lower_s).max(0.0),
        verify_s,
    }
}

/// Renders the sweep as a table.
pub fn render(rows: &[SpmdBenchRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>6} {:>6} {:>7} {:>9} {:>10} {:>7} {:>6} {:>12} {:>11} {:>7} {:>10} {:>10} {:>8} {:>9} {:>7}",
        "algorithm",
        "mode",
        "n",
        "grid",
        "messages",
        "bytes",
        "nbr%",
        "depth",
        "modeled",
        "measured",
        "ratio",
        "lint",
        "verify",
        "static",
        "oracle",
        "parity"
    );
    for r in rows {
        let grid = r
            .grid
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("x");
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>6} {:>7} {:>9} {:>10} {:>6.0}% {:>6} {:>10.1}us {:>9.1}us {:>7.2} {:>8.1}us {:>8.1}us {:>8} {:>9} {:>7}",
            r.algorithm,
            r.lowering,
            r.n,
            grid,
            r.messages,
            r.bytes,
            r.neighbor_fraction * 100.0,
            r.depth,
            r.makespan_s * 1e6,
            r.measured_s * 1e6,
            r.model_ratio,
            r.lint_s * 1e6,
            r.verify_s * 1e6,
            if r.statically_verified { "ok" } else { "REJECTED" },
            if r.verified { "ok" } else { "MISMATCH" },
            if r.parity { "ok" } else { "DIVERGED" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_rows_verify_and_show_depth_drop() {
        let rows = spmd_bench(4, 4, 16);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.verified));
        assert!(rows.iter().all(|r| r.statically_verified));
        assert!(rows
            .iter()
            .all(|r| r.plan_s > 0.0 && r.lint_s > 0.0 && r.verify_s > 0.0));
        let naive = rows.iter().find(|r| r.lowering == "naive").unwrap();
        let tree = rows
            .iter()
            .find(|r| r.lowering == "tree" && r.algorithm.contains("SUMMA"))
            .unwrap();
        assert_eq!(naive.depth, 3);
        assert_eq!(tree.depth, 2);
        assert_eq!(naive.bytes, tree.bytes);
        assert!(tree.makespan_s < naive.makespan_s);
    }
}
