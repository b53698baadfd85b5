//! Interpreted-vs-generated leaf kernel benchmark: host wall-clock flop
//! rates of the same statements executed through the per-point
//! [`InterpreterKernel`](distal_core::kernels::InterpreterKernel) and
//! through the plan-time specialized kernels
//! ([`distal_core::kernelgen`]): the tiled dense GEMM, the tape-compiled
//! three-input einsum, and the CSR-specialized SpMV.
//!
//! Each pipeline measurement runs the full single-rank pipeline twice —
//! once with the leaf forced to the interpreter via `substitute(..,
//! Interpreter)`, once with the default plan-time specialization — on
//! identical data, verifies the outputs are bit-identical (the kernelgen
//! contract), and reports both flop rates. The dense-GEMM speedup is a CI
//! gate (`--assert-speedup`).
//!
//! Those rows time `execute()` of a fresh instance — first-touch page
//! faults, fills and snapshots included — so they are pipeline rates, not
//! kernel rates. The pure-kernel rows ([`pure_gemm_bench`]) time the
//! `gemm.gen` leaf alone, once per micro-kernel variant the host can run,
//! each beside the multiply-then-add peak of the same instruction set:
//! the ratio is the roofline gate (`--assert-roofline`), and the
//! dispatched variant's 160³ rate is what feeds
//! [`MachineSpec::with_cpu_socket_gflops`], so the cost models price real
//! per-core throughput instead of the Lassen constant.

use distal_core::kernelgen::{gemm_variants, specialize, MicroKernel};
use distal_core::problem::{random_data, sparse_random_data};
use distal_core::{DistalMachine, LeafKind, Problem, Report, RuntimeBackend, Schedule, TensorSpec};
use distal_format::Format;
use distal_ir::expr::Assignment;
use distal_machine::geom::{Point, Rect};
use distal_machine::grid::Grid;
use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
use distal_runtime::csr::SparseBuffer;
use distal_runtime::kernel::{ArgData, KernelArg, KernelCtx};
use distal_runtime::kernelgen::LeafRequest;
use distal_runtime::program::Privilege;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// One interpreted-vs-generated comparison.
#[derive(Clone, Debug)]
pub struct KernelBenchRow {
    /// Workload name: `gemm`, `einsum3`, or `spmv`.
    pub workload: String,
    /// Problem side length.
    pub n: i64,
    /// Floating-point work of one execution.
    pub flops: f64,
    /// Best wall-clock seconds through the interpreter leaf.
    pub interpreted_s: f64,
    /// Best wall-clock seconds through the generated leaf.
    pub generated_s: f64,
    /// Interpreter flop rate, GFLOP/s.
    pub interpreted_gflops: f64,
    /// Generated-kernel flop rate, GFLOP/s.
    pub generated_gflops: f64,
    /// `interpreted_s / generated_s`.
    pub speedup: f64,
    /// The kernel variant the generated run actually dispatched.
    pub variant: String,
    /// Whether both paths produced bit-identical outputs.
    pub verified: bool,
}

/// The `gemm.gen` leaf standing alone on one `n³` tile, through one
/// micro-kernel variant.
#[derive(Clone, Debug)]
pub struct PureKernelRow {
    /// The variant's descriptor name, e.g. `avx2 4x8`.
    pub variant: String,
    /// Whether `gemm.gen` dispatches to this variant on this host.
    pub dispatched: bool,
    /// Tile side length.
    pub n: i64,
    /// Fastest of five timings, GFLOP/s.
    pub gflops: f64,
    /// The multiply-then-add chain rate of the variant's instruction
    /// set, GFLOP/s: the roofline this row is held against.
    pub peak_gflops: f64,
}

impl PureKernelRow {
    /// `gflops / peak_gflops`.
    pub fn roofline_share(&self) -> f64 {
        self.gflops / self.peak_gflops.max(1e-12)
    }
}

/// Tile sides of the pure-kernel rows: the small-tile/edge regime of
/// `plan_scale`, the `dense_*` workloads' leaf, and a tile past L2 on a
/// power-of-two stride.
pub const PURE_TILES: [i64; 3] = [32, 160, 512];

/// Cost-model recalibration from the measured generated-GEMM rate.
#[derive(Clone, Debug)]
pub struct Calibration {
    /// Pure-kernel dense-GEMM rate measured on one host core, GFLOP/s.
    pub measured_core_gflops: f64,
    /// The spec's default per-socket rate (Lassen's 375.0).
    pub default_socket_gflops: f64,
    /// `measured_core_gflops × cores_per_socket` — what the builder
    /// installs.
    pub calibrated_socket_gflops: f64,
    /// Reference SUMMA makespan priced with the default spec, seconds.
    pub default_makespan_s: f64,
    /// The same problem priced with the calibrated spec, seconds.
    pub calibrated_makespan_s: f64,
}

fn single_rank_problem(statement: &str, tensors: &[(&str, Vec<i64>, Format)]) -> Problem {
    let machine = DistalMachine::flat(Grid::line(1), ProcKind::Cpu);
    let mut problem = Problem::new(MachineSpec::small(1), machine);
    problem.statement(statement).unwrap();
    for (name, dims, format) in tensors {
        problem
            .tensor(TensorSpec::new(*name, dims.clone(), format.clone()))
            .unwrap();
    }
    problem
}

/// Dense matmul `A(i,j) = B(i,k) * C(k,j)` whole on one rank.
fn gemm_problem(n: i64) -> Problem {
    let tiles = Format::parse("xy->x", MemKind::Sys).unwrap();
    let mut p = single_rank_problem(
        "A(i,j) = B(i,k) * C(k,j)",
        &[
            ("A", vec![n, n], tiles.clone()),
            ("B", vec![n, n], tiles.clone()),
            ("C", vec![n, n], tiles),
        ],
    );
    p.fill_random("B", 0xB).unwrap();
    p.fill_random("C", 0xC).unwrap();
    p
}

/// Three-input chain contraction `A(i,l) = B(i,j) * C(j,k) * D(k,l)` —
/// no monomorphized fast path matches, so this measures the tape
/// compiler against per-point AST interpretation.
fn einsum3_problem(n: i64) -> Problem {
    let tiles = Format::parse("xy->x", MemKind::Sys).unwrap();
    let mut p = single_rank_problem(
        "A(i,l) = B(i,j) * C(j,k) * D(k,l)",
        &[
            ("A", vec![n, n], tiles.clone()),
            ("B", vec![n, n], tiles.clone()),
            ("C", vec![n, n], tiles.clone()),
            ("D", vec![n, n], tiles),
        ],
    );
    p.fill_random("B", 0xB).unwrap();
    p.fill_random("C", 0xC).unwrap();
    p.fill_random("D", 0xD).unwrap();
    p
}

/// CSR SpMV `a(i) = B(i,j) * c(j)` with B compressed at `density`.
fn spmv_problem(n: i64, density: f64) -> Problem {
    let mut p = single_rank_problem(
        "a(i) = B(i,j) * c(j)",
        &[
            ("a", vec![n], Format::parse("x->x", MemKind::Sys).unwrap()),
            (
                "B",
                vec![n, n],
                Format::parse_levels("xy->x", "ds", MemKind::Sys).unwrap(),
            ),
            ("c", vec![n], Format::undistributed_in(MemKind::Global)),
        ],
    );
    p.fill_random_sparse("B", 0xB, density).unwrap();
    p.fill_random("c", 0xC).unwrap();
    p
}

/// Compiles + places + executes once per rep, returning the best
/// wall-clock execute time, the output read, and the last report.
fn timed(
    problem: &Problem,
    schedule: &Schedule,
    out: &str,
    reps: usize,
) -> (f64, Vec<f64>, Report) {
    let backend = RuntimeBackend::functional();
    let mut best = f64::INFINITY;
    let mut data = Vec::new();
    let mut report = None;
    for _ in 0..reps.max(1) {
        let mut art = problem.compile(&backend, schedule).expect("bench compile");
        art.place().expect("bench placement");
        let t0 = Instant::now();
        let r = art.execute().expect("bench execute");
        best = best.min(t0.elapsed().as_secs_f64());
        data = art.read(out).expect("bench output");
        report = Some(r);
    }
    (best, data, report.expect("at least one rep"))
}

/// The kernel variant that did the run's flops (ignores zero-flop helper
/// kernels like fills).
fn dominant_variant(report: &Report) -> String {
    report
        .kernel_classes
        .iter()
        .max_by(|a, b| a.1.flops.total_cmp(&b.1.flops))
        .map(|(name, _)| name.clone())
        .unwrap_or_default()
}

/// Benchmarks one workload: interpreter-forced vs default specialization.
fn bench_one(workload: &str, problem: &Problem, n: i64, out: &str, reps: usize) -> KernelBenchRow {
    let generated_schedule = Schedule::new();
    let interpreter_schedule = Schedule::new().substitute(&["i"], LeafKind::Interpreter);
    let (interpreted_s, interp_data, _) = timed(problem, &interpreter_schedule, out, reps);
    let (generated_s, gen_data, report) = timed(problem, &generated_schedule, out, reps);
    let verified = interp_data.len() == gen_data.len()
        && interp_data
            .iter()
            .zip(&gen_data)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    let flops = report.flops;
    KernelBenchRow {
        workload: workload.to_string(),
        n,
        flops,
        interpreted_s,
        generated_s,
        interpreted_gflops: flops / interpreted_s.max(1e-12) / 1e9,
        generated_gflops: flops / generated_s.max(1e-12) / 1e9,
        speedup: interpreted_s / generated_s.max(1e-12),
        variant: dominant_variant(&report),
        verified,
    }
}

/// The default sweep: dense GEMM, the three-input einsum, and CSR SpMV.
pub fn kernels_bench(gemm_n: i64, einsum_n: i64, spmv_n: i64, reps: usize) -> Vec<KernelBenchRow> {
    vec![
        bench_one("gemm", &gemm_problem(gemm_n), gemm_n, "A", reps),
        bench_one("einsum3", &einsum3_problem(einsum_n), einsum_n, "A", reps),
        bench_one("spmv", &spmv_problem(spmv_n, 0.05), spmv_n, "a", reps),
    ]
}

/// Fastest of five timings of `run`, in seconds per call; each timing
/// spans enough calls to cover 40 MFLOP, so a 32³ tile is not timed at
/// clock resolution.
fn fastest_of_5(flops_per_call: f64, mut run: impl FnMut()) -> f64 {
    let calls = (4e7 / flops_per_call).ceil().max(1.0) as usize;
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                run();
            }
            t0.elapsed().as_secs_f64() / calls as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// One variant's multiply-then-add peak, GFLOP/s (64 flops a step).
fn peak_gflops(variant: &MicroKernel) -> f64 {
    const STEPS: usize = 1_000_000;
    let secs = fastest_of_5(64.0 * STEPS as f64, || {
        std::hint::black_box(variant.peak_chain(std::hint::black_box(STEPS)));
    });
    64.0 * STEPS as f64 / secs / 1e9
}

/// A kernel argument over a buffer allocated exactly over `rect`.
fn dense_arg(rect: Rect, data: ArgData<'_>) -> KernelArg<'_> {
    KernelArg {
        privilege: Privilege::ReadWrite,
        rect: rect.clone(),
        alloc: rect,
        data,
        sparse: None,
    }
}

/// The `gemm.gen` leaf alone: a [`KernelCtx`] over three dense `n × n`
/// tiles, executed in place (no compile, placement, fill or snapshot in
/// the timed region), for every variant the host can run at every size
/// in `tiles`. The dispatched variant is timed through the kernel
/// [`specialize`] hands the pipeline.
pub fn pure_gemm_bench(tiles: &[i64]) -> Vec<PureKernelRow> {
    let matmul = distal_ir::expr::kernels::matmul();
    let kernel = specialize(&LeafRequest::dense(matmul, true));
    assert_eq!(kernel.name(), "gemm.gen");
    let variants = gemm_variants();
    let mut rows = Vec::new();
    for (vi, variant) in variants.iter().enumerate() {
        let dispatched = vi + 1 == variants.len();
        let peak = peak_gflops(variant);
        for &n in tiles {
            let tile = Rect::sized(&[n, n]);
            let mut tiles = [0xA, 0xB, 0xC].map(|seed: u64| -> Vec<f64> {
                (0..n * n)
                    .map(|x| ((x as u64 ^ seed).wrapping_mul(0x9E37_79B9) % 1024) as f64 / 1024.0)
                    .collect()
            });
            let args = tiles.iter_mut();
            let mut ctx = KernelCtx {
                args: args
                    .map(|data| dense_arg(tile.clone(), ArgData::Write(data)))
                    .collect(),
                point: Point::zeros(1),
                scalars: vec![0, n - 1, 0, n - 1, 0, n - 1],
            };
            let flops = 2.0 * (n * n * n) as f64;
            let secs = fastest_of_5(flops, || {
                if dispatched {
                    kernel.execute(&mut ctx);
                } else {
                    variant.execute(&mut ctx);
                }
            });
            std::hint::black_box(&ctx.args[0].data);
            rows.push(PureKernelRow {
                variant: variant.name.to_string(),
                dispatched,
                n,
                gflops: flops / secs / 1e9,
                peak_gflops: peak,
            });
        }
    }
    rows
}

/// The `spmv.gen` leaf standing alone beside a stream-triad probe run in
/// the same process.
#[derive(Clone, Debug)]
pub struct SpmvStreamRow {
    /// Matrix side length.
    pub n: i64,
    /// Stored entries of the matrix.
    pub nnz: u64,
    /// Fastest of five timings of the leaf alone, seconds per call.
    pub kernel_s: f64,
    /// `execute()` of the whole single-rank pipeline on the same problem,
    /// seconds — what the leaf costs once graph build, fill and
    /// first-touch faults are around it.
    pub pipeline_s: f64,
    /// The probe's rate: `a[i] = b[i] + s·c[i]`, 24 bytes an element.
    pub triad_gbs: f64,
}

impl SpmvStreamRow {
    /// Bytes one SpMV must move, computed: a value and a coordinate per
    /// stored entry, the row offsets, one read of `c`, one update of `a`.
    pub fn bytes(&self) -> f64 {
        16.0 * self.nnz as f64 + 8.0 * (self.n + 1) as f64 + 16.0 * self.n as f64
    }

    /// The leaf's rate over [`SpmvStreamRow::bytes`], GB/s.
    pub fn kernel_gbs(&self) -> f64 {
        self.bytes() / self.kernel_s / 1e9
    }

    /// `kernel_gbs / triad_gbs` — a ratio of two rates taken in one
    /// process, so host speed cancels.
    pub fn stream_share(&self) -> f64 {
        self.kernel_gbs() / self.triad_gbs.max(1e-12)
    }
}

/// Elements per array of the triad probe (64 MiB each; three arrays) —
/// the shape of the pipeline benchmark's own probe.
pub const TRIAD_LEN: usize = 8 << 20;

/// One core's sustainable bandwidth in GB/s over three `len`-element
/// arrays, fastest of four passes.
fn triad_gbs(len: usize) -> f64 {
    let s = std::hint::black_box(3.0f64);
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let mut a = vec![0.0f64; len];
    let mut best = 0.0f64;
    for _ in 0..4 {
        let start = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + s * *c;
        }
        let secs = start.elapsed().as_secs_f64();
        std::hint::black_box(&mut a);
        best = best.max(24.0 * len as f64 / secs / 1e9);
    }
    best
}

/// The `spmv.gen` leaf alone over an `n × n` matrix at `density`: a
/// [`KernelCtx`] built directly over the specialized leaf and one CSR
/// image (no compile, bind, placement or graph in the timed region),
/// beside the triad probe (over `triad_len`-element arrays;
/// [`TRIAD_LEN`] outside tests) and the pipeline's `execute()` on the same
/// problem.
pub fn pure_spmv_bench(n: i64, density: f64, triad_len: usize) -> SpmvStreamRow {
    let statement = Assignment::parse("a(i) = B(i,j) * c(j)").expect("the SpMV statement");
    let mut request = LeafRequest::dense(statement, true);
    request.compressed[0] = true;
    let kernel = specialize(&request);
    assert_eq!(kernel.name(), "spmv.gen");
    let volume = (n * n) as usize;
    let image = SparseBuffer::from_dense(&[n, n], &sparse_random_data(volume, 0xB, density));
    let nnz = image.nnz();
    let mut b = dense_arg(Rect::sized(&[n, n]), ArgData::Read(&[]));
    b.sparse = Some(Arc::new(image));
    let (mut a, c) = (vec![0.0; n as usize], random_data(n as usize, 0xC));
    let mut ctx = KernelCtx {
        args: vec![
            dense_arg(Rect::sized(&[n]), ArgData::Write(&mut a)),
            b,
            dense_arg(Rect::sized(&[n]), ArgData::Read(&c)),
        ],
        point: Point::zeros(1),
        scalars: vec![0, n - 1, 0, n - 1],
    };
    let kernel_s = fastest_of_5(2.0 * nnz as f64, || kernel.execute(&mut ctx));
    std::hint::black_box(&ctx.args[0].data);
    let (pipeline_s, _, _) = timed(&spmv_problem(n, density), &Schedule::new(), "a", 3);
    SpmvStreamRow {
        n,
        nnz,
        kernel_s,
        pipeline_s,
        triad_gbs: triad_gbs(triad_len),
    }
}

/// What the sequential rank VM spends around its leaves (the
/// `--assert-leaf-overhead` gate).
#[derive(Clone, Debug)]
pub struct LeafOverhead {
    /// `execute()` of the SUMMA on the sequential transport, fastest of
    /// five fresh bindings, seconds.
    pub execute_s: f64,
    /// The leaves it ran.
    pub leaves: u64,
    /// Those leaves' flops at the pure-kernel rate passed in: what
    /// `execute()` would cost were it the kernel and nothing else.
    pub kernel_s: f64,
}

impl LeafOverhead {
    /// `execute_s / kernel_s` — both taken by one binary in one process,
    /// so host speed cancels.
    pub fn ratio(&self) -> f64 {
        self.execute_s / self.kernel_s.max(1e-12)
    }
}

/// The `dense_spmd` request of the pipeline benchmark (SUMMA, n = 640 on
/// 16 ranks in steps of 160: 64 `gemm.gen` leaves over 160³ tiles) executed
/// on the sequential rank VM, against the time `core_gflops` — the
/// pure-kernel rate at that tile — says its leaves alone take. What is
/// left in the ratio is everything the VM does around a leaf: payload
/// copies, argument building, the output assembly, and the cache misses
/// of operands the leaf reads where they lie.
pub fn leaf_overhead(core_gflops: f64) -> LeafOverhead {
    use distal_algs::matmul::MatmulAlgorithm;
    use distal_algs::setup::matmul_problem_on;
    use distal_core::backend::Backend as _;
    let (mut problem, schedule) = matmul_problem_on(
        MatmulAlgorithm::Summa,
        MachineSpec::small(16),
        ProcKind::Cpu,
        MemKind::Sys,
        16,
        640,
        160,
    )
    .expect("the SUMMA problem");
    problem.fill_random("B", 0xB).unwrap();
    problem.fill_random("C", 0xC).unwrap();
    let bindings = distal_core::Bindings::from_problem(&problem);
    let plan = distal_spmd::SpmdBackend::new()
        .plan(&problem, &schedule)
        .expect("the SUMMA plan");
    let executions = (0..5).map(|_| {
        let mut instance = plan.bind(&bindings).expect("bind");
        let start = Instant::now();
        let report = instance.execute().expect("execute");
        (start.elapsed().as_secs_f64(), report)
    });
    let (execute_s, report) = executions
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("five executions");
    LeafOverhead {
        execute_s,
        leaves: report.tasks,
        kernel_s: report.flops / (core_gflops.max(1e-12) * 1e9),
    }
}

/// The rate the cost models are calibrated from: the dispatched variant
/// on the 160³ tile (the `dense_*` workloads' leaf), or failing that on
/// the largest tile measured.
pub fn calibration_rate(pure: &[PureKernelRow]) -> f64 {
    let dispatched = || pure.iter().filter(|r| r.dispatched);
    dispatched()
        .find(|r| r.n == 160)
        .or_else(|| dispatched().max_by_key(|r| r.n))
        .map_or(0.0, |r| r.gflops)
}

/// Prices a reference SUMMA problem with the default and the
/// measured-rate-calibrated machine specs, so the report shows the cost
/// model following the host's real per-core throughput.
pub fn calibrate(measured_core_gflops: f64) -> Calibration {
    use distal_algs::matmul::MatmulAlgorithm;
    use distal_algs::setup::matmul_problem_on;
    let (p, n) = (4i64, 64i64);
    let default_spec = MachineSpec::small(p as usize);
    let cores = default_spec.node.cores_per_socket as f64;
    let calibrated_spec = default_spec
        .clone()
        .with_cpu_socket_gflops(measured_core_gflops * cores);
    let price = |spec: MachineSpec| {
        let (mut problem, schedule) = matmul_problem_on(
            MatmulAlgorithm::Summa,
            spec,
            ProcKind::Cpu,
            MemKind::Sys,
            p,
            n,
            (n / 4).max(1),
        )
        .unwrap();
        for t in ["B", "C"] {
            problem.fill(t, 0.0).unwrap();
        }
        let mut art = problem
            .compile(&RuntimeBackend::model(), &schedule)
            .expect("cost compile");
        art.run().expect("cost run").critical_path_s
    };
    Calibration {
        measured_core_gflops,
        default_socket_gflops: default_spec.node.cpu_socket_gflops,
        calibrated_socket_gflops: calibrated_spec.node.cpu_socket_gflops,
        default_makespan_s: price(default_spec),
        calibrated_makespan_s: price(calibrated_spec),
    }
}

/// Renders the comparison as a table.
pub fn render(
    rows: &[KernelBenchRow],
    pure: &[PureKernelRow],
    spmv: &SpmvStreamRow,
    calibration: &Calibration,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>6} {:>12} {:>12} {:>12} {:>12} {:>9} {:<12} {:>9}",
        "workload",
        "n",
        "interp s",
        "gen s",
        "interp GF/s",
        "gen GF/s",
        "speedup",
        "variant",
        "parity"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>12.5} {:>12.5} {:>12.3} {:>12.3} {:>8.2}x {:<12} {:>9}",
            r.workload,
            r.n,
            r.interpreted_s,
            r.generated_s,
            r.interpreted_gflops,
            r.generated_gflops,
            r.speedup,
            r.variant,
            if r.verified { "ok" } else { "MISMATCH" }
        );
    }
    let _ = writeln!(
        out,
        "\npure kernel (gemm.gen alone, fastest of 5; * = dispatched on this host)\n\
         {:<16} {:>6} {:>12} {:>12} {:>9}",
        "variant", "n", "GF/s", "peak GF/s", "roofline"
    );
    for r in pure {
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>12.3} {:>12.3} {:>9.2}",
            format!("{}{}", r.variant, if r.dispatched { " *" } else { "" }),
            r.n,
            r.gflops,
            r.peak_gflops,
            r.roofline_share()
        );
    }
    let _ = writeln!(
        out,
        "\npure kernel (spmv.gen alone, {n}x{n}, {} stored, fastest of 5)\n\
         {:<16} {:>12.3} ms {:>9.3} GB/s {:>9.3} GFLOP/s\n\
         {:<16} {:>12.3} ms\n\
         {:<16} {:>25.3} GB/s   spmv.gen / triad = {:.2}",
        spmv.nnz,
        "spmv.gen",
        spmv.kernel_s * 1e3,
        spmv.kernel_gbs(),
        2.0 * spmv.nnz as f64 / spmv.kernel_s / 1e9,
        "pipeline execute",
        spmv.pipeline_s * 1e3,
        "stream triad",
        spmv.triad_gbs,
        spmv.stream_share(),
        n = spmv.n,
    );
    let _ = writeln!(
        out,
        "calibration: measured {:.3} GFLOP/s/core -> socket {:.1} (default {:.1}); \
         SUMMA n=64 p=4 makespan {:.3e}s -> {:.3e}s",
        calibration.measured_core_gflops,
        calibration.calibrated_socket_gflops,
        calibration.default_socket_gflops,
        calibration.default_makespan_s,
        calibration.calibrated_makespan_s,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_verify_parity_and_dispatch() {
        let rows = kernels_bench(24, 8, 64, 1);
        for r in &rows {
            assert!(r.verified, "{}: outputs diverged", r.workload);
            assert!(r.flops > 0.0, "{}", r.workload);
        }
        assert_eq!(rows[0].variant, "gemm.gen");
        assert!(rows[1].variant.starts_with("tape"), "{}", rows[1].variant);
        assert_eq!(rows[2].variant, "spmv.gen");
    }

    #[test]
    fn pure_rows_cover_every_variant_and_calibrate_from_the_dispatched_one() {
        let pure = pure_gemm_bench(&[8, 16]);
        assert_eq!(pure.len(), 2 * gemm_variants().len());
        assert!(pure.iter().all(|r| r.gflops > 0.0 && r.peak_gflops > 0.0));
        let last = pure.last().unwrap();
        assert!(last.dispatched && pure.iter().filter(|r| r.dispatched).count() == 2);
        // No 160³ row: the largest dispatched tile stands in.
        assert_eq!(calibration_rate(&pure), last.gflops);
        assert_eq!(calibration_rate(&[]), 0.0);
    }

    #[test]
    fn calibration_scales_the_cost_model() {
        // A machine 10× slower than another must price a compute-bound
        // problem no cheaper; the rates land where the builder put them.
        let c = calibrate(1.0);
        assert_eq!(c.calibrated_socket_gflops, 20.0);
        assert_eq!(c.default_socket_gflops, 375.0);
        assert!(c.default_makespan_s > 0.0 && c.calibrated_makespan_s > 0.0);
        assert!(
            c.calibrated_makespan_s > c.default_makespan_s,
            "a 20 GFLOP/s socket cannot beat a 375 GFLOP/s one: {} vs {}",
            c.calibrated_makespan_s,
            c.default_makespan_s
        );
    }

    #[test]
    fn spmv_stream_row_measures_and_renders() {
        let rows = kernels_bench(12, 6, 32, 1);
        let pure = pure_gemm_bench(&[8]);
        let cal = calibrate(10.0);
        let spmv = pure_spmv_bench(64, 0.1, 1 << 12);
        assert!(spmv.nnz > 0 && spmv.kernel_s > 0.0 && spmv.pipeline_s > spmv.kernel_s);
        assert!(spmv.stream_share() > 0.0);
        assert!(render(&rows, &pure, &spmv, &cal).contains("spmv.gen / triad"));
    }
}
