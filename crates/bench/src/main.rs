//! `distal-bench`: the harness regenerating every table and figure of the
//! paper's evaluation (§7), and the `--assert-*` ratio gates CI runs.
//!
//! Measures the whole pipeline end to end — `ARCHITECTURE.md` at the
//! workspace root maps the six layers under test.
//!
//! Usage: `distal-bench <command> [flags] [positional integers]`. Each
//! module reproduces one artifact or holds one family of gates:
//!
//! * `fig9` ([`fig9`]) — the Figure 9 algorithm table: per-algorithm
//!   communication pattern (broadcast-tree vs systolic neighbour traffic)
//!   + correctness;
//! * `fig15a`, `fig15b` ([`fig15`]) — Figures 15a/15b: weak-scaling GEMM on
//!   CPUs and GPUs against ScaLAPACK, CTF, and COSMA;
//! * `fig16` ([`fig16`]) — Figures 16a–d: weak-scaling TTV / Innerprod /
//!   TTM / MTTKRP against CTF;
//! * `headline` ([`headline`]) — the abstract's headline numbers (speedups
//!   vs CTF, ScaLAPACK, COSMA);
//! * `ablations` ([`ablations`]) — design-choice studies: `rotate` on/off,
//!   `communicate` granularity, overlap vs bulk-synchronous execution;
//! * `all` — every figure above at paper scale;
//! * `exec`, `spmd`, `kernels`, `sparse` and `serving` print one table
//!   each and hold the ratio gates (README "Gates" lists each flag with its
//!   property and threshold).
//!
//! [`series`] is the sweep infrastructure and table rendering, [`args`] the
//! one argument parser. A command line that does not parse exits 2 with
//! the command's usage; a failed gate exits nonzero with its own code.
//! None of this is what a change is measured with: that is
//! `bash benchmark/run.sh`.

#![forbid(unsafe_code)]

mod ablations;
mod args;
mod exec;
mod fig15;
mod fig16;
mod fig9;
#[cfg(test)]
mod harness_sanity;
mod headline;
mod kernels;
mod series;
mod serving;
mod sparse;
mod spmd;

use args::Args;
use distal_algs::higher_order::HigherOrderKernel;

/// A command's entry: it takes the arguments after the command name.
type Run = fn(Args) -> Result<(), String>;

/// Every command: its name, its usage after the name, and its entry.
const COMMANDS: [(&str, &str, Run); 12] = [
    ("all", "[max_nodes]", all),
    ("fig9", "[nodes] [n]", fig9::run),
    ("fig15a", "[max_nodes] [base_n]", |a| {
        fig15::run(fig15::Panel::Cpu, a)
    }),
    ("fig15b", "[max_nodes] [base_n]", |a| {
        fig15::run(fig15::Panel::Gpu, a)
    }),
    ("fig16", "[max_nodes]", fig16::run),
    ("headline", "[max_nodes]", headline::run),
    (
        "ablations",
        "[--assert-pruning] [nodes] [n]",
        ablations::run,
    ),
    (
        "exec",
        "[--assert-speedup X] [--assert-replay R] [sizes...]",
        exec::run,
    ),
    (
        "spmd",
        "[--assert-depth log|N] [--threads N] [--assert-parity] [--assert-verified] \
         [--assert-lint-overhead] [--assert-vm-overhead RATIO] [--assert-plan-scaling RATIO] \
         [gx gy [n]]",
        spmd::run,
    ),
    (
        "kernels",
        "[--assert-speedup X] [--assert-roofline S] [--assert-spmv-stream S] \
         [--assert-leaf-overhead R] [--gemm N] [--einsum N] [--spmv N] [--reps R]",
        kernels::run,
    ),
    ("sparse", "[--assert-compression [PCT]]", sparse::run),
    (
        "serving",
        "[--requests N] [--size N] [--threads N] [--assert-scaling]",
        serving::run,
    ),
];

fn main() {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    let Some(&(_, usage, run)) = COMMANDS.iter().find(|c| c.0 == name) else {
        eprintln!("distal-bench: unknown command '{name}'; usage:");
        for (name, usage, _) in &COMMANDS {
            eprintln!("  distal-bench {name} {usage}");
        }
        std::process::exit(2);
    };
    if let Err(e) = run(Args::new(argv)) {
        eprintln!("distal-bench {name}: {e}");
        eprintln!("usage: distal-bench {name} {usage}");
        std::process::exit(2);
    }
}

/// Whether two outputs are identical bit for bit.
fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs every figure harness at paper scale and prints its table (keep
/// `max_nodes` small on small hosts).
fn all(mut args: Args) -> Result<(), String> {
    let max_nodes = args.positional()?.unwrap_or(256);
    args.finish()?;

    println!("==== Figure 9 (16 nodes) ====");
    print!("{}", fig9::render(&fig9::figure9(16.min(max_nodes), 8192)));
    println!();

    for panel in [fig15::Panel::Cpu, fig15::Panel::Gpu] {
        let base = fig15::base_problem_side(panel);
        let fig = fig15::figure15(panel, max_nodes, base);
        println!("==== {} ====", fig.title);
        print!("{}", fig.to_table());
        println!();
    }

    for kernel in HigherOrderKernel::all() {
        for panel in [fig16::Panel::Cpu, fig16::Panel::Gpu] {
            let base = fig16::base_problem_side(panel, kernel);
            let fig = fig16::figure16(kernel, panel, max_nodes, base);
            println!("==== {} ====", fig.title);
            print!("{}", fig.to_table());
            println!();
        }
    }

    println!(
        "==== Headline speedups (at {} nodes) ====",
        64.min(max_nodes)
    );
    print!(
        "{}",
        headline::render(
            &headline::headlines(64.min(max_nodes), 8192, 1024),
            64.min(max_nodes)
        )
    );
    Ok(())
}
