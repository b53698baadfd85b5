//! Cross-backend cost comparison; writes `BENCH_backends.json` at the
//! repo root.
//!
//! Usage: `cargo run --release -p distal-bench --bin backends
//! [--assert-finite] [n [p...]]` (defaults: n = 36, p ∈ {4, 9, 16}).
//!
//! For SUMMA and Cannon at each processor count, the same `Problem` +
//! schedule is priced by (1) the dynamic runtime's model-mode simulator
//! and (2) the static SPMD backend's α-β model — both through
//! `distal_spmd::CostBackend` behind the unified `Instance` surface.
//! `--assert-finite` is the CI gate: every cell must compile and price
//! finite, positive makespans with nonzero static communication.

use distal_bench::backends;

fn fail(msg: &str) -> ! {
    eprintln!("backends gate FAILED: {msg}");
    std::process::exit(3);
}

fn main() {
    let mut assert_finite = false;
    let mut nums: Vec<i64> = Vec::new();
    for a in std::env::args().skip(1) {
        if a == "--assert-finite" {
            assert_finite = true;
        } else if let Ok(v) = a.parse() {
            nums.push(v);
        } else {
            eprintln!("ignoring unrecognized argument '{a}'");
        }
    }
    let (n, ps) = match nums.as_slice() {
        [] => (36, vec![4, 9, 16]),
        [n] => (*n, vec![4, 9, 16]),
        [n, ps @ ..] => (*n, ps.to_vec()),
    };

    let rows = backends::backends_bench(n, &ps);
    print!("{}", backends::render(&rows));
    let json = backends::to_json(&rows);
    let path = std::path::Path::new("BENCH_backends.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }

    if assert_finite {
        for r in &rows {
            if !(r.sim_makespan_s.is_finite() && r.sim_makespan_s > 0.0) {
                fail(&format!("simulator makespan not positive-finite: {r:?}"));
            }
            if !(r.ab_makespan_s.is_finite() && r.ab_makespan_s > 0.0) {
                fail(&format!("α-β makespan not positive-finite: {r:?}"));
            }
            if r.ab_bytes == 0 {
                fail(&format!("static schedule moved no bytes: {r:?}"));
            }
        }
        println!(
            "backends gate passed: {} cells priced on both cost models",
            rows.len()
        );
    }
}
