//! Serving-engine scaling gate.
//!
//! Usage: `cargo run --release -p distal-bench --bin serving
//! [--requests N] [--size N] [--threads N] [--assert-scaling]`
//!
//! Serves N requests (default 32) of fresh random matmul data over fixed
//! shapes through a runtime-backend
//! [`ServingEngine`](distal_serve::ServingEngine) with `--threads`
//! workers (closed loop, every response verified bit for bit against a
//! single-threaded reference, zero bind-path lowerings after warm-up).
//!
//! `--assert-scaling` — the engine's req/s with `--threads` workers must
//! be ≥ 1.5× its single-worker req/s (skipped with a note when
//! `--threads` < 2 or the host has < 2 cores).

use distal_bench::serving;

fn fail(msg: &str) -> ! {
    eprintln!("serving gate FAILED: {msg}");
    std::process::exit(3);
}

fn main() {
    let mut assert_scaling = false;
    let mut requests: u64 = 32;
    let mut n: i64 = 24;
    let mut threads: usize = 0;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--assert-scaling" => assert_scaling = true,
            "--requests" => {
                let v = args.next().unwrap_or_default();
                requests = v.parse().unwrap_or_else(|_| {
                    eprintln!("--requests takes a positive integer, got '{v}'");
                    std::process::exit(2);
                });
            }
            "--size" => {
                let v = args.next().unwrap_or_default();
                n = v.parse().unwrap_or_else(|_| {
                    eprintln!("--size takes a positive integer, got '{v}'");
                    std::process::exit(2);
                });
            }
            "--threads" => {
                let v = args.next().unwrap_or_default();
                threads = v.parse().unwrap_or_else(|_| {
                    eprintln!("--threads takes a positive integer, got '{v}'");
                    std::process::exit(2);
                });
            }
            other => eprintln!("ignoring unrecognized argument '{other}'"),
        }
    }
    if requests == 0 {
        eprintln!("--requests must be at least 1");
        std::process::exit(2);
    }
    if n < 2 {
        eprintln!("--size must be at least 2 (the shapes tile onto a 2x2 grid)");
        std::process::exit(2);
    }

    let host_cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let scaling = assert_scaling && threads >= 2 && host_cores >= 2;
    let mut rows = vec![serving::serve(threads, requests, n)];
    if scaling {
        rows.push(serving::serve(1, requests, n));
    }
    print!("{}", serving::render(&rows));

    for r in &rows {
        if !r.verified {
            fail("engine outputs diverged from the single-threaded reference");
        }
        if r.bind_lowerings != 0 {
            fail(&format!(
                "{} lowerings ran on the engine's bind path after warm-up",
                r.bind_lowerings
            ));
        }
    }

    if let [multi, base] = rows.as_slice() {
        let ratio = multi.rps / base.rps.max(f64::MIN_POSITIVE);
        if ratio < 1.5 {
            fail(&format!(
                "engine req/s scaled only {ratio:.2}x from 1 to {} workers \
                 ({:.1} -> {:.1} req/s; needs >= 1.5x)",
                multi.workers, base.rps, multi.rps
            ));
        }
        println!(
            "scaling gate passed: engine req/s scaled {ratio:.2}x from 1 to {} workers",
            multi.workers
        );
    } else if assert_scaling && threads < 2 {
        println!("scaling assertion skipped: --threads {threads} (needs at least 2)");
    } else if assert_scaling {
        println!("scaling assertion skipped: single-core host ({host_cores} core)");
    }
}
