//! Sparse-vs-dense communication benchmark and CI gate.
//!
//! Usage: `cargo run --release -p distal-bench --bin sparse
//! [--assert-compression [PCT]]`
//!
//! The sweep runs SpMV and SpMM with the sparse operand registered dense
//! and CSR-compressed at density ∈ {0.01, 0.1, 0.5} on p ∈ {4, 16},
//! executes both programs, and verifies bit-identical outputs.
//! `--assert-compression` is the CI gate: at density 0.01 the compressed
//! operand's executed bytes must be below `PCT`% (default 10) of its
//! dense bytes, and every row must verify.

use distal_bench::sparse;

fn fail(msg: &str) -> ! {
    eprintln!("sparse compression gate FAILED: {msg}");
    std::process::exit(3);
}

fn main() {
    let mut assert_pct: Option<f64> = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        if a == "--assert-compression" {
            let pct = match args.peek() {
                Some(v) if !v.starts_with("--") => {
                    let v = args.next().expect("peeked");
                    v.parse().unwrap_or_else(|_| {
                        eprintln!("--assert-compression takes an optional percentage, got '{v}'");
                        std::process::exit(2);
                    })
                }
                _ => 10.0,
            };
            assert_pct = Some(pct);
        } else {
            eprintln!("ignoring unrecognized argument '{a}'");
        }
    }

    let rows = sparse::sparse_bench(&[4, 16], &[0.01, 0.1, 0.5]);
    print!("{}", sparse::render(&rows));

    if let Some(bad) = rows.iter().find(|r| !r.verified) {
        fail(&format!(
            "sparse and dense executions diverged for {} at p={} density={}",
            bad.kernel, bad.p, bad.density
        ));
    }
    let Some(pct) = assert_pct else {
        return;
    };
    for r in rows.iter().filter(|r| r.density <= 0.01) {
        if r.dense_b_bytes == 0 {
            fail(&format!(
                "{} at p={} moved no bytes of the sparse operand — the gate is vacuous",
                r.kernel, r.p
            ));
        }
        let ratio = 100.0 * r.sparse_b_bytes as f64 / r.dense_b_bytes as f64;
        if ratio >= pct {
            fail(&format!(
                "{} at p={} density={}: compressed B bytes are {ratio:.1}% of dense \
                 (gate: < {pct}%)",
                r.kernel, r.p, r.density
            ));
        }
    }
    println!("sparse compression gate passed: compressed bytes < {pct}% of dense at density 0.01");
}
