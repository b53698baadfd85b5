//! Serial-vs-parallel executor wall-clock comparison for functional-mode
//! SUMMA and Cannon runs.
//!
//! Usage: `cargo run --release -p distal-bench --bin exec [--assert-speedup X]
//! [--assert-replay R] [sizes...]` (sizes default to 64 128 256).
//!
//! `--assert-speedup X` exits nonzero unless the best SUMMA speedup at the
//! largest benched size reaches `X` — the executor-regression gate CI runs
//! on multi-core runners (skipped, with a note, on single-core hosts where
//! no speedup is physically possible).
//!
//! `--assert-replay R` exits nonzero unless, on every row, a model-mode
//! `bind → place → execute` of a plan's second instance (which replays the
//! recorded dependence analysis) costs at most `R` × its first instance's
//! (which records it) — a ratio taken on one host, like the other.

use distal_bench::exec;

fn main() {
    let mut assert_speedup: Option<f64> = None;
    let mut assert_replay: Option<f64> = None;
    let mut sizes: Vec<i64> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--assert-speedup" || a == "--assert-replay" {
            let v = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                eprintln!("{a} requires a numeric threshold");
                std::process::exit(2);
            });
            match a.as_str() {
                "--assert-speedup" => assert_speedup = Some(v),
                _ => assert_replay = Some(v),
            }
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
    if let Some(threshold) = assert_replay {
        for r in &rows {
            let ratio = r.replay_s / r.record_s;
            if ratio > threshold {
                eprintln!(
                    "trace replay regression: {} n={} replays at {ratio:.2} of its recording \
                     run, allowed {threshold:.2}",
                    r.algorithm, r.n
                );
                std::process::exit(4);
            }
        }
        println!("replay assertion passed: every row within {threshold:.2} of its recording run");
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
