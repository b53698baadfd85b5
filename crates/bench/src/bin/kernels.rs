//! Interpreted-vs-generated leaf kernel flop-rate comparison.
//!
//! Usage: `cargo run --release -p distal-bench --bin kernels \
//!   [--assert-speedup X] [--assert-roofline S] [--assert-spmv-stream S]
//!   [--assert-leaf-overhead R] [--gemm N] [--einsum N] [--spmv N] [--reps R]`
//!
//! `--assert-speedup X` exits nonzero unless the generated dense GEMM
//! reaches `X`× the interpreted flop rate — the kernelgen-regression gate
//! CI runs. `--assert-roofline S` exits nonzero unless `gemm.gen`
//! standing alone reaches `S`× the multiply-then-add peak of the
//! instruction set it dispatched to, at both 160³ and 512³ — a ratio of
//! two rates taken in one process, so host speed cancels.
//! `--assert-spmv-stream S` is the same kind of gate for the sparse leaf:
//! it exits nonzero unless `spmv.gen` standing alone (2048², density
//! 0.01) moves its computed bytes at `S`× the rate of a stream-triad
//! probe run beside it (a leaf that scanned the dense tile scored
//! ≈ 0.001). `--assert-leaf-overhead R` holds the sequential rank VM to
//! its kernel: `execute()` of the pipeline benchmark's `dense_spmd`
//! request (SUMMA, n = 640, p = 16; fastest of five) may take at most `R`×
//! what its 64 `gemm.gen` leaves take at the 160³ pure-kernel rate this
//! run has just measured — again one process, two rates. Output parity
//! (bit-identical interpreted vs generated results) is always enforced.

use distal_bench::kernels;

fn main() {
    let mut assert_speedup: Option<f64> = None;
    let mut assert_roofline: Option<f64> = None;
    let mut assert_spmv_stream: Option<f64> = None;
    let mut assert_leaf_overhead: Option<f64> = None;
    let (mut gemm_n, mut einsum_n, mut spmv_n, mut reps) = (96i64, 16i64, 384i64, 3usize);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut num = |name: &str| {
            args.next()
                .and_then(|s| s.parse::<f64>().ok())
                .unwrap_or_else(|| {
                    eprintln!("{name} requires a numeric value");
                    std::process::exit(2);
                })
        };
        match a.as_str() {
            "--assert-speedup" => assert_speedup = Some(num("--assert-speedup")),
            "--assert-roofline" => assert_roofline = Some(num("--assert-roofline")),
            "--assert-spmv-stream" => assert_spmv_stream = Some(num("--assert-spmv-stream")),
            "--assert-leaf-overhead" => assert_leaf_overhead = Some(num("--assert-leaf-overhead")),
            "--gemm" => gemm_n = num("--gemm") as i64,
            "--einsum" => einsum_n = num("--einsum") as i64,
            "--spmv" => spmv_n = num("--spmv") as i64,
            "--reps" => reps = num("--reps") as usize,
            other => eprintln!("ignoring unrecognized argument '{other}'"),
        }
    }

    let rows = kernels::kernels_bench(gemm_n, einsum_n, spmv_n, reps);
    let pure = kernels::pure_gemm_bench(&kernels::PURE_TILES);
    let spmv = kernels::pure_spmv_bench(2048, 0.01, kernels::TRIAD_LEN);
    let calibration = kernels::calibrate(kernels::calibration_rate(&pure).max(1e-3));
    print!("{}", kernels::render(&rows, &pure, &spmv, &calibration));

    if rows.iter().any(|r| !r.verified) {
        eprintln!("generated kernels diverged from the interpreter; see table");
        std::process::exit(1);
    }
    if let Some(threshold) = assert_speedup {
        let gemm_speedup = rows
            .iter()
            .filter(|r| r.workload == "gemm")
            .map(|r| r.speedup)
            .fold(f64::MIN, f64::max);
        if gemm_speedup < threshold {
            eprintln!(
                "kernelgen speedup regression: generated dense GEMM is {gemm_speedup:.2}x \
                 the interpreter, required {threshold:.2}x"
            );
            std::process::exit(3);
        }
        println!("speedup assertion passed: {gemm_speedup:.2}x >= {threshold:.2}x");
    }
    if let Some(threshold) = assert_roofline {
        for r in pure.iter().filter(|r| r.dispatched && r.n >= 160) {
            let share = r.roofline_share();
            if share < threshold {
                eprintln!(
                    "roofline regression: gemm.gen ({}) at {}^3 runs {:.2} GFLOP/s, {share:.2} of \
                     the {:.2} GFLOP/s multiply+add peak, required {threshold:.2}",
                    r.variant, r.n, r.gflops, r.peak_gflops
                );
                std::process::exit(4);
            }
            println!(
                "roofline assertion passed: {} at {}^3 is {share:.2} of peak >= {threshold:.2}",
                r.variant, r.n
            );
        }
    }
    if let Some(threshold) = assert_spmv_stream {
        let share = spmv.stream_share();
        if share < threshold {
            eprintln!(
                "sparse-leaf regression: spmv.gen moves {:.2} GB/s, {share:.3} of the {:.2} GB/s \
                 stream triad, required {threshold:.2}",
                spmv.kernel_gbs(),
                spmv.triad_gbs
            );
            std::process::exit(5);
        }
        println!("spmv stream assertion passed: {share:.2} of the triad >= {threshold:.2}");
    }
    if let Some(threshold) = assert_leaf_overhead {
        let v = kernels::leaf_overhead(kernels::calibration_rate(&pure));
        println!(
            "\nleaf overhead: sequential-VM execute {:.2} ms over {} leaves worth {:.2} ms of \
             pure kernel = {:.2}x",
            v.execute_s * 1e3,
            v.leaves,
            v.kernel_s * 1e3,
            v.ratio()
        );
        if v.ratio() > threshold {
            eprintln!(
                "leaf-overhead regression: the rank VM spends {:.2}x its kernels' time, \
                 allowed {threshold:.2}x",
                v.ratio()
            );
            std::process::exit(6);
        }
        println!(
            "leaf overhead assertion passed: {:.2}x <= {threshold:.2}x",
            v.ratio()
        );
    }
}
