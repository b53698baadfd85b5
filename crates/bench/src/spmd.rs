//! SPMD collective-lowering benchmark: naive vs tree vs ring schedules
//! for the Figure 9 algorithms, priced under the α-β cost model *and*
//! measured on the threaded rank transport.
//!
//! For each (algorithm, lowering) pair the harness lowers the schedule,
//! verifies the execution against the sequential oracle, and reports the
//! exact static properties of the compiled program: message/byte counts,
//! neighbour fraction, the worst collective critical-path depth, and the
//! α-β makespan. Each row also runs the program on real rank threads
//! ([`distal_spmd::Transport::Threaded`], a pool `--threads N` bounds;
//! auto-sized by default) for the measured wall-clock makespan and the
//! modeled-over-measured ratio. Defaults: `gx gy n` = 4 4 32. A failed
//! gate exits 3.
//!
//! `--assert-depth log` is the collective recognizer's gate: on a SUMMA
//! over `gx · gy` ranks (lowered on the algorithm's near-square grid of
//! width `g`) it requires (1) every lowered broadcast to reach depth
//! ≤ ⌈log₂ g⌉ + 1 while the naive program serializes ≥ g - 1 sends per
//! owner fan, (2) byte-for-byte volume parity between the lowerings, (3)
//! every execution (naive, tree, ring, Cannon) to match the sequential
//! oracle, and (4) Cannon to stay fully systolic: no collectives
//! recognized and all steady-state traffic at torus distance 1.
//! `--assert-depth N` gates on an explicit depth bound instead.
//!
//! `--assert-parity` requires the threaded run to be bit-identical to the
//! sequential VM on every row.
//!
//! `--assert-verified` is the static-analysis gate: every lowered program
//! must pass the plan-time verifier (no error diagnostics), and
//! verification must stay cheap — under 2 ms per row, or failing that
//! under 5% of the lowering wall time. On the toy plans CI lowers
//! (0.5–0.9 ms, verified in 0.2 ms) the floor decides: the ratio is
//! about 30% now that lowering looks holders up instead of scanning
//! ranks. The table prints the per-row verify time.
//!
//! `--assert-lint-overhead` is the schedule-admission gate: the admission
//! linter (`distal_core::lint`, run by every `Backend::plan` before
//! lowering) must cost under 0.5 ms per row, or failing that under 2% of
//! the lowering wall time (20–40 µs against 0.5–0.9 ms on the toy plans:
//! the floor decides). The table prints the per-row lint time.
//!
//! `--assert-vm-overhead RATIO` is the data-movement gate over
//! [`vm_overhead`]: a 4×4 SUMMA at n = 512 (fixed, whatever `gx gy n` say —
//! the toy sweep sizes are all fixed cost) must execute on the threaded
//! SPMD backend within `RATIO` × the runtime backend's execute time. Both
//! run the same generated GEMM leaf over the same tiles, so the ratio
//! isolates what the rank VM and the transport spend moving data: 1.15
//! with rectangle copies, 6.05 when the VM still moved tensors one point
//! at a time (2-core host).
//!
//! `--assert-plan-scaling RATIO` is the plan-time gate over
//! [`plan_scaling`], independent of host speed: Cannon, PUMMA and SUMMA
//! at the pipeline benchmark's shape (n = 512, chunk 128, trees; fixed,
//! whatever `gx gy n` say) are planned at p = 64 and p = 256, fastest of
//! five, and `SpmdBackend::plan` time *per rank op* at p = 256 may be at
//! most `RATIO` × the p = 64 figure. Linear-time planning scores 1; the
//! per-need scan over all ranks that the rectangle index replaced scored
//! 3.5 (Cannon) and 2.9 (SUMMA). The table splits each plan into its
//! phases and prints, in the `bounds` column, the nest walk both
//! lowerings share on its own ([`bounds_walk`]), and in `lower/verify`
//! the tree lowering (lower + collectives) over verify. The same gate holds the
//! verifier alone to linear time over a larger range: each algorithm is
//! also lowered once at p = 1 024, and `verify_program`'s time *per
//! event* there may be at most `RATIO` × its p = 256 figure, the two
//! timed in turn, fastest of five each ([`verify_scaling`]). The
//! verifier that copied the program into an event IR and walked the copy
//! five times scored 1.75–2.7; one walk over the rank lists in place
//! 1.0–1.3.

use crate::args::Args;
use distal_algs::matmul::MatmulAlgorithm;
use distal_algs::setup::matmul_problem_on;
use distal_core::nest::{Env, Nest};
use distal_core::{oracle, random_data, Backend, Problem, RuntimeBackend, Schedule};
use distal_ir::expr::Assignment;
use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
use distal_spmd::{
    collective, lower_problem, AlphaBeta, CollectiveConfig, CommStats, Message, SpmdBackend,
    SpmdProgram, Transport,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::str::FromStr;

/// One (algorithm, lowering) measurement.
#[derive(Clone, Debug)]
struct SpmdBenchRow {
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

/// The shared inputs and oracle answer of one problem size (computed
/// once per sweep; the sequential oracle is O(n³)).
#[derive(Debug)]
struct OracleCase {
    inputs: BTreeMap<String, Vec<f64>>,
    want: Vec<f64>,
}

impl OracleCase {
    /// Builds deterministic inputs for an `n × n` matmul and evaluates
    /// the sequential oracle on them.
    fn matmul(n: i64) -> Self {
        let mut inputs = BTreeMap::new();
        inputs.insert("B".to_string(), random_data((n * n) as usize, 11));
        inputs.insert("C".to_string(), random_data((n * n) as usize, 13));
        let dims = ["A", "B", "C"].map(|t| (t.to_string(), vec![n, n])).into();
        let assignment = Assignment::parse("A(i,j) = B(i,k) * C(k,j)").unwrap();
        let want = oracle::evaluate(&assignment, &dims, &inputs).unwrap();
        OracleCase { inputs, want }
    }
}

/// The default sweep: SUMMA under all three lowerings plus Cannon, for
/// `gx × gy` ranks.
///
/// The 2-D algorithms pick their own near-square factorization of the
/// rank count, which may differ from the requested shape (e.g. `2 × 8`
/// ranks still run on a `4 × 4` grid); every row records the actual
/// grid, and depth gates must read it from there.
///
/// Every lowered program runs the static verifier (timed), the sequential
/// VM (checked against the oracle) and the threaded transport (`threads`
/// pool workers, `0` = auto; measured, and held bit for bit to the
/// sequential run). Each row's `plan_s` spans building the problem, the
/// admission lint (also timed alone as `lint_s`) and the lowering. Also
/// returns the lowered programs (same order as the rows) so gates can
/// inspect them without re-lowering.
///
/// # Panics
///
/// Panics when the lowering fails or the linter rejects a schedule (a
/// bench-harness bug, not a measurement: these are the known-good
/// Figure 9 schedules).
fn spmd_bench(gx: i64, gy: i64, n: i64, threads: usize) -> (Vec<SpmdBenchRow>, Vec<SpmdProgram>) {
    let p = gx * gy;
    let case = OracleCase::matmul(n);
    let mut rows = Vec::new();
    let mut programs = Vec::new();
    for (alg, lowering, config) in [
        (
            MatmulAlgorithm::Summa,
            "naive",
            CollectiveConfig::point_to_point(),
        ),
        (MatmulAlgorithm::Summa, "tree", CollectiveConfig::trees()),
        (MatmulAlgorithm::Summa, "ring", CollectiveConfig::rings()),
        (MatmulAlgorithm::Cannon, "tree", CollectiveConfig::trees()),
    ] {
        let plan_start = std::time::Instant::now();
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
            lower_problem(&problem, &schedule, &config).unwrap_or_else(|e| panic!("{alg:?}: {e}"));
        let plan_s = plan_start.elapsed().as_secs_f64();

        let stats = program.stats();
        let verify_start = std::time::Instant::now();
        let diagnostics = distal_spmd::verify_program(&program);
        let verify_s = verify_start.elapsed().as_secs_f64();
        let depth = if program.collectives.is_empty() {
            let fans = collective::recognize(&program);
            fans.iter().map(|c| c.depth).max().unwrap_or(0)
        } else {
            program.collective_depth()
        };
        let sequential = program.execute(&case.inputs).ok();
        let verified = sequential
            .as_ref()
            .is_some_and(|result| oracle::compare(&result.output, &case.want, 1e-9).is_ok());
        let makespan_s = program.cost(&AlphaBeta::default()).makespan_s;
        let threaded = program
            .execute_with(&case.inputs, &Transport::threaded_with(threads))
            .ok();
        let parity = match (&sequential, &threaded) {
            (Some(s), Some(t)) => crate::bits_equal(&s.output, &t.output),
            _ => false,
        };
        let measured = threaded.as_ref().and_then(|t| t.measured.as_ref());
        let measured_s = measured.map_or(0.0, |m| m.wall_s);
        rows.push(SpmdBenchRow {
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
            statically_verified: !diagnostics.iter().any(|d| d.is_error()),
            verified,
            measured_s,
            model_ratio: if measured_s > 0.0 {
                makespan_s / measured_s
            } else {
                0.0
            },
            parity,
        });
        programs.push(program);
    }
    (rows, programs)
}

/// Cannon's steady-state statistics (all steps after the initial
/// alignment shift), whose traffic must be entirely nearest-neighbour.
fn cannon_steady_stats(program: &SpmdProgram) -> CommStats {
    let steady: Vec<Message> = program
        .messages_by_step()
        .into_iter()
        .skip(1)
        .flatten()
        .collect();
    let refs: Vec<&Message> = steady.iter().collect();
    CommStats::from_messages(program, &refs)
}

/// Execute wall time of one SUMMA on the two executable backends (the
/// `--assert-vm-overhead` gate).
#[derive(Clone, Copy, Debug)]
struct VmOverhead {
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
    fn ratio(&self) -> f64 {
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
fn vm_overhead(p: i64, n: i64, threads: usize) -> VmOverhead {
    let (mut problem, schedule) = figure9_problem(MatmulAlgorithm::Summa, p, n);
    problem.fill_random("B", 11).unwrap();
    problem.fill_random("C", 13).unwrap();
    let bindings = problem.bindings();

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
        crate::bits_equal(&spmd_out, &runtime_out),
        "SPMD and runtime outputs differ"
    );
    VmOverhead { spmd_s, runtime_s }
}

/// Plan time of one algorithm at one rank count, at the pipeline
/// benchmark's `plan_scale` shape (the `--assert-plan-scaling` gate). Every
/// time is the fastest of five.
#[derive(Clone, Debug)]
struct PlanScaling {
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
    /// What emitting the collectives as trees adds to it (the tree
    /// lowering minus the point-to-point one).
    pub collectives_s: f64,
    /// The static verifier on the tree-lowered program.
    pub verify_s: f64,
    /// The nest walk both lowerings share, alone ([`bounds_walk`]).
    pub bounds_s: f64,
}

impl PlanScaling {
    /// `SpmdBackend::plan` microseconds per rank op — flat in p when
    /// planning is linear in the program it emits.
    fn plan_us_per_op(&self) -> f64 {
        self.plan_s * 1e6 / self.rank_ops as f64
    }

    /// The tree lowering (point-to-point lowering plus collectives) over
    /// the verifier's time on the program it emits.
    fn lower_over_verify(&self) -> f64 {
        (self.lower_s + self.collectives_s) / self.verify_s
    }
}

/// Plans `alg` over `p` ranks at n = 512, chunk 128 under the default
/// (tree) collectives, timing the whole plan and each phase on its own.
///
/// # Panics
///
/// Panics when planning or lowering fails (a bench-harness bug, not a
/// measurement).
fn plan_scaling(alg: MatmulAlgorithm, p: i64) -> PlanScaling {
    let (problem, schedule) = figure9_problem(alg, p, 512);
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
    let (bounds_s, _) = bounds_walk(&problem, &schedule);
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
        bounds_s,
    }
}

/// `verify_program` alone on `alg` lowered over 256 and over 1 024 ranks
/// at the `plan_scale` shape: seconds per event for each, the fastest of
/// five rounds that time the two in turn, so that a host changing speed
/// between them moves both.
///
/// # Panics
///
/// Panics when lowering fails (a bench-harness bug, not a measurement).
fn verify_scaling(alg: MatmulAlgorithm) -> [f64; 2] {
    let programs = [256, 1024].map(|p| {
        let (problem, schedule) = figure9_problem(alg, p, 512);
        lower_problem(&problem, &schedule, &CollectiveConfig::trees())
            .unwrap_or_else(|e| panic!("{alg:?} p={p}: {e}"))
    });
    let mut best = [f64::MAX; 2];
    for _ in 0..5 {
        for (best, program) in best.iter_mut().zip(&programs) {
            let start = std::time::Instant::now();
            std::hint::black_box(distal_spmd::verify_program(program));
            *best = best.min(start.elapsed().as_secs_f64());
        }
    }
    let events = |program: &SpmdProgram| {
        (0..program.ranks())
            .map(|r| program.rank_ops(r).len())
            .sum::<usize>() as f64
    };
    [
        best[0] / events(&programs[0]),
        best[1] / events(&programs[1]),
    ]
}

/// The fastest of five runs of `run`, in seconds, with its result.
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

/// The nest walk alone, as both lowerings run it: at every (sequential
/// step, launch point), `Nest::bind_env`, `Nest::leaf_bounds` and, for a
/// non-empty leaf, every access's `Nest::access_rect`. The fastest of
/// five, with the total volume of the rectangles (which keeps the work
/// observable).
///
/// # Panics
///
/// Panics when the nest analysis fails (a bench-harness bug).
fn bounds_walk(problem: &Problem, schedule: &Schedule) -> (f64, i64) {
    let assignment = problem.assignment().expect("a matmul statement");
    let dims = problem.dims_map();
    let nest = Nest::new(assignment, &dims, schedule).unwrap_or_else(|e| panic!("{e}"));
    let points = nest.launch_points(problem.machine().size());
    let points = points.unwrap_or_else(|e| panic!("{e}"));
    let access_dims: Vec<&[i64]> = assignment
        .accesses()
        .iter()
        .map(|acc| dims[&acc.tensor].as_slice())
        .collect();
    fastest(|| {
        let mut env = Env::new();
        let mut volume = 0;
        for seq_point in nest.seq_rect().points() {
            for point in points.points() {
                nest.bind_env(&mut env, &seq_point, &point);
                let Some((bounds, points)) = nest.leaf_bounds(&env) else {
                    continue;
                };
                bounds.for_each(|b| {
                    std::hint::black_box(b);
                });
                std::hint::black_box(points);
                for (a, dims) in access_dims.iter().enumerate() {
                    volume += nest.access_rect(a, &env, dims).volume();
                }
            }
        }
        volume
    })
}

/// `4x4` for a `[4, 4]` grid.
fn grid_label(grid: &[i64]) -> String {
    let dims: Vec<String> = grid.iter().map(i64::to_string).collect();
    dims.join("x")
}

/// Renders the sweep as a table.
fn render(rows: &[SpmdBenchRow]) -> String {
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
        let grid = grid_label(&r.grid);
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

/// The `--assert-depth` bound: `log` (⌈log₂ g⌉ + 1 for the widest
/// broadcast group `g`) or an explicit depth.
#[derive(Clone, Copy, Debug)]
enum DepthBound {
    Log,
    At(usize),
}

impl FromStr for DepthBound {
    type Err = std::num::ParseIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "log" => Ok(DepthBound::Log),
            _ => s.parse().map(DepthBound::At),
        }
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("spmd collective gate FAILED: {msg}");
    std::process::exit(3);
}

/// The `spmd` command.
pub(crate) fn run(mut args: Args) -> Result<(), String> {
    let assert_depth: Option<DepthBound> = args.value("--assert-depth")?;
    let assert_parity = args.flag("--assert-parity");
    let assert_verified = args.flag("--assert-verified");
    let assert_lint_overhead = args.flag("--assert-lint-overhead");
    let assert_vm_overhead: Option<f64> = args.positive("--assert-vm-overhead")?;
    let assert_plan_scaling: Option<f64> = args.positive("--assert-plan-scaling")?;
    let threads: usize = args.value("--threads")?.unwrap_or(0); // 0 = auto-size to the host
    let (gx, gy, n) = match args.positionals()?.as_slice() {
        [] => (4, 4, 32),
        [gx, gy] => (*gx, *gy, 32),
        [gx, gy, n] => (*gx, *gy, *n),
        other => {
            return Err(format!(
                "expected positional arguments [gx gy [n]], got {} value(s): {other:?}",
                other.len()
            ))
        }
    };

    let (rows, programs) = spmd_bench(gx, gy, n, threads);
    // The 2-D algorithms refactor the rank count into their own
    // near-square grid; all depth bounds below come from the grid the
    // programs were actually lowered for.
    if rows[0].grid != [gx, gy] {
        let actual = grid_label(&rows[0].grid);
        eprintln!("note: {gx}x{gy} ranks were lowered on the algorithms' {actual} grid");
    }
    print!("{}", render(&rows));

    if rows.iter().any(|r| !r.verified) {
        fail("a lowered program diverged from the sequential oracle; see table");
    }
    if assert_verified {
        if let Some(r) = rows.iter().find(|r| !r.statically_verified) {
            fail(&format!(
                "the static verifier rejected {} ({}); a clean lowering must prove clean",
                r.algorithm, r.lowering
            ));
        }
        // Overhead bound: verification under 2 ms is free; past that it
        // must stay under 5% of the lowering wall time. The toy plans
        // this gate runs on in CI lower in under a millisecond and verify
        // in 0.2 ms (about 30%), so there the floor decides; the ratio
        // binds only a verifier that is no longer small in absolute terms.
        const VERIFY_FREE_S: f64 = 2e-3;
        if let Some(r) = rows
            .iter()
            .find(|r| r.verify_s > VERIFY_FREE_S && r.verify_s > 0.05 * r.plan_s)
        {
            fail(&format!(
                "verification of {} ({}) took {:.1}us against {:.1}us of lowering — \
                 over the 5% plan-time budget",
                r.algorithm,
                r.lowering,
                r.verify_s * 1e6,
                r.plan_s * 1e6
            ));
        }
        println!(
            "verification gate passed: all {} programs proved clean statically, \
             each in under 2 ms or 5% of its lowering time",
            rows.len()
        );
    }
    if assert_lint_overhead {
        // Admission must stay effectively free: under 0.5 ms per row, or
        // failing that under 2% of the lowering wall time. As in the
        // verifier gate, the floor decides on CI's sub-millisecond toy
        // lowerings (a 20-40 us lint pass is 3-4% of one).
        const LINT_FREE_S: f64 = 5e-4;
        if let Some(r) = rows
            .iter()
            .find(|r| r.lint_s > LINT_FREE_S && r.lint_s > 0.02 * r.plan_s)
        {
            fail(&format!(
                "admission lint of {} ({}) took {:.1}us against {:.1}us of lowering — \
                 over the 2% plan-time budget",
                r.algorithm,
                r.lowering,
                r.lint_s * 1e6,
                r.plan_s * 1e6
            ));
        }
        println!(
            "lint overhead gate passed: admission cost under 0.5 ms or 2% of \
             lowering time on all {} rows",
            rows.len()
        );
    }
    if assert_parity {
        if let Some(r) = rows.iter().find(|r| !r.parity) {
            fail(&format!(
                "threaded transport diverged from the sequential VM on {} ({})",
                r.algorithm, r.lowering
            ));
        }
        println!(
            "parity gate passed: threaded transport bit-identical to the \
             sequential VM on all {} configurations",
            rows.len()
        );
    }
    if let Some(bound) = assert_vm_overhead {
        let v = vm_overhead(16, 512, threads);
        println!(
            "4x4 SUMMA n=512 execute: spmd threaded {:.1} ms, runtime {:.1} ms, ratio {:.2}",
            v.spmd_s * 1e3,
            v.runtime_s * 1e3,
            v.ratio()
        );
        if v.ratio() > bound {
            fail(&format!(
                "threaded SPMD execute is {:.2}x the runtime backend's, over the {bound}x bound \
                 — the rank VM is moving data slower than rectangle copies would",
                v.ratio()
            ));
        }
        println!("vm overhead gate passed: ratio {:.2} <= {bound}", v.ratio());
    }
    if let Some(bound) = assert_plan_scaling {
        println!(
            "{:<12} {:>5} {:>9} {:>10} {:>10} {:>12} {:>10} {:>10} {:>10} {:>13}",
            "algorithm",
            "p",
            "rank ops",
            "plan",
            "lower",
            "collectives",
            "verify",
            "bounds",
            "plan/op",
            "lower/verify"
        );
        for alg in [
            MatmulAlgorithm::Cannon,
            MatmulAlgorithm::Pumma,
            MatmulAlgorithm::Summa,
        ] {
            let [small, large] = [64, 256].map(|p| {
                let s = plan_scaling(alg, p);
                println!(
                    "{:<12} {:>5} {:>9} {:>8.2}ms {:>8.2}ms {:>10.2}ms {:>8.2}ms {:>8.2}ms {:>8.2}us {:>13.2}",
                    s.algorithm,
                    s.ranks,
                    s.rank_ops,
                    s.plan_s * 1e3,
                    s.lower_s * 1e3,
                    s.collectives_s * 1e3,
                    s.verify_s * 1e3,
                    s.bounds_s * 1e3,
                    s.plan_us_per_op(),
                    s.lower_over_verify()
                );
                s
            });
            let ratio = large.plan_us_per_op() / small.plan_us_per_op();
            if ratio > bound {
                fail(&format!(
                    "{} plans at {:.2}us per rank op on {} ranks against {:.2}us on {} — {ratio:.2}x, \
                     over the {bound}x bound: planning is super-linear in the program it emits",
                    large.algorithm,
                    large.plan_us_per_op(),
                    large.ranks,
                    small.plan_us_per_op(),
                    small.ranks
                ));
            }
            println!(
                "plan scaling gate passed for {}: {ratio:.2}x per rank op from p=64 to p=256 \
                 (bound {bound}x)",
                large.algorithm
            );
            let [per_event, largest] = verify_scaling(alg);
            let ratio = largest / per_event;
            println!(
                "{:<12} {:>5} verify {:.0}ns per event against {:.0}ns at p=256: {ratio:.2}x",
                large.algorithm,
                1024,
                largest * 1e9,
                per_event * 1e9
            );
            if ratio > bound {
                fail(&format!(
                    "{} verifies at {:.0}ns per event on 1024 ranks against {:.0}ns on {} — \
                     {ratio:.2}x, over the {bound}x bound: verification is super-linear in \
                     the program",
                    large.algorithm,
                    largest * 1e9,
                    per_event * 1e9,
                    large.ranks
                ));
            }
        }
    }
    let Some(depth_bound) = assert_depth else {
        return Ok(());
    };

    let naive = rows
        .iter()
        .find(|r| r.lowering == "naive")
        .expect("sweep emits a naive row");
    let tree = rows
        .iter()
        .find(|r| r.lowering == "tree" && r.algorithm.contains("SUMMA"))
        .expect("sweep emits a SUMMA tree row");

    // Widest broadcast group on the actual grid: a SUMMA row broadcast
    // spans the row width, a column broadcast the column height; both
    // must obey the bound.
    let widest = tree.grid.iter().copied().max().unwrap_or(1) as usize;
    let log2 = |g: usize| (usize::BITS - (g.max(1) - 1).leading_zeros()) as usize;
    let bound = match depth_bound {
        DepthBound::Log => log2(widest) + 1,
        DepthBound::At(d) => d,
    };
    if tree.depth > bound {
        fail(&format!(
            "tree-lowered broadcast depth {} exceeds bound {bound} on the {:?} grid",
            tree.depth, tree.grid
        ));
    }
    if widest > 2 {
        if naive.depth < widest - 1 {
            fail(&format!(
                "naive fan depth {} is below the expected {}-1 serialized sends — \
                 the baseline is not what this gate thinks it is",
                naive.depth, widest
            ));
        }
        if tree.depth >= naive.depth {
            fail(&format!(
                "tree depth {} did not improve on the naive fan depth {}",
                tree.depth, naive.depth
            ));
        }
    }
    if naive.bytes != tree.bytes || naive.messages != tree.messages {
        fail("tree lowering changed total volume; collectives must be a pure re-scheduling");
    }

    // Cannon control: the recognizer must leave systolic schedules alone
    // (the sweep already lowered it; programs[] parallels rows[]).
    let cannon = rows
        .iter()
        .position(|r| r.algorithm.contains("Cannon"))
        .map(|i| &programs[i])
        .expect("sweep emits a Cannon row");
    if !cannon.collectives.is_empty() {
        fail("collectives recognized in Cannon's systolic schedule");
    }
    let steady = cannon_steady_stats(cannon);
    if steady.bytes > 0 && (steady.neighbor_fraction() - 1.0).abs() > f64::EPSILON {
        fail(&format!(
            "Cannon steady-state neighbor fraction {:.3} != 1.0",
            steady.neighbor_fraction()
        ));
    }

    println!(
        "collective gate passed: SUMMA depth {} -> {} (bound {bound}), \
         volume invariant, Cannon all-distance-1",
        naive.depth, tree.depth
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_rows_verify_and_show_depth_drop() {
        let (rows, _) = spmd_bench(4, 4, 16, 0);
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
