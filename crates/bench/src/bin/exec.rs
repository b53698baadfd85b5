//! Serial-vs-parallel executor wall-clock comparison for functional-mode
//! SUMMA and Cannon runs.
//!
//! Usage: `cargo run --release -p distal-bench --bin exec [--assert-speedup X] [sizes...]`
//! (sizes default to 64 128 256).
//!
//! `--assert-speedup X` exits nonzero unless the best SUMMA speedup at the
//! largest benched size reaches `X` — the executor-regression gate CI runs
//! on multi-core runners (skipped, with a note, on single-core hosts where
//! no speedup is physically possible).

use distal_bench::exec;

fn main() {
    let mut assert_speedup: Option<f64> = None;
    let mut sizes: Vec<i64> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--assert-speedup" {
            let v = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                eprintln!("--assert-speedup requires a numeric threshold");
                std::process::exit(2);
            });
            assert_speedup = Some(v);
        } else if let Ok(n) = a.parse() {
            sizes.push(n);
        } else {
            eprintln!("ignoring unrecognized argument '{a}'");
        }
    }
    if sizes.is_empty() {
        sizes = vec![64, 128, 256];
    }

    let rows = exec::exec_bench(&sizes);
    print!("{}", exec::render(&rows));
    if rows.iter().any(|r| !r.verified) {
        eprintln!("executor parity violated; see table");
        std::process::exit(1);
    }
    if let Some(threshold) = assert_speedup {
        let host_cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if host_cores < 2 {
            println!("speedup assertion skipped: single-core host ({host_cores} core)");
            return;
        }
        let largest = rows.iter().map(|r| r.n).max().unwrap_or(0);
        let best = rows
            .iter()
            .filter(|r| r.n == largest && r.algorithm.contains("SUMMA"))
            .map(|r| r.speedup)
            .fold(f64::MIN, f64::max);
        if best < threshold {
            eprintln!(
                "parallel executor speedup regression: best SUMMA speedup at n={largest} \
                 is {best:.2}x, required {threshold:.2}x"
            );
            std::process::exit(3);
        }
        println!("speedup assertion passed: {best:.2}x >= {threshold:.2}x at n={largest}");
    }
}
