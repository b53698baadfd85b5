//! The pipeline benchmark: five workloads through the public DISTAL
//! pipeline, end-to-end metrics from an untraced run and per-layer
//! metrics from a separate traced run. See `README.md`.
//!
//! ```text
//! pipeline-bench [--workload <name>] [--seed <u64>] [--seconds <s>]
//!                [--trace [0|1]] [--smoke] [--out <dir>]
//! pipeline-bench --compare a.json b.json
//! ```
//!
//! With one `--workload` and an explicit `--trace 0|1` the last line of
//! standard output is one JSON object `{correct, attempted, failed,
//! metrics}` — the form the benchmark driver reads. Without `--trace`
//! the untraced run is followed by the traced one; without `--workload`
//! all five workloads run. Every mode prints each metric as
//! `workload metric value unit` and writes `results.json` (plus one
//! Chrome trace per traced workload) under `--out`.

mod compare;
mod host;
mod json;
mod layers;
mod metrics;
mod pipeline;
mod reference;
mod rng;
mod stats;
mod trace;
mod workloads;

use json::Value;
use metrics::{MetricSpec, Values, END_TO_END, PER_LAYER};
use pipeline::Tally;
use std::path::{Path, PathBuf};
use workloads::Sizes;

/// Used when `--seed` is absent (the paper's PLDI session date).
const DEFAULT_SEED: u64 = 20_220_615;
/// Used when `--seconds` is absent; equals `run_seconds` in
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
/// `--smoke` measures for this long per workload and mode.
const SMOKE_SECONDS: f64 = 0.3;

#[derive(Debug)]
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    /// `None`: untraced then traced. `Some(false)`/`Some(true)`: one mode.
    trace: Option<bool>,
    smoke: bool,
    out: PathBuf,
    compare: Option<(String, String)>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
        compare: None,
    };
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload '{name}' (one of {:?})",
                        workloads::NAMES
                    ));
                }
                args.workloads.push(name);
            }
            "--seed" => {
                args.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                // `--trace` alone means "traced only"; the driver passes 0 or 1.
                args.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                });
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = workloads::NAMES.iter().map(|n| n.to_string()).collect();
    }
    Ok(args)
}

fn print_rows(workload: &str, table: &[MetricSpec], values: &Values) {
    for m in table {
        if let Some(v) = values.get(m.name) {
            println!("{workload} {} {v} {}", m.name, m.unit);
        }
    }
}

/// The driver's line: `{"correct", "attempted", "failed", "metrics"}`.
fn contract_line(table: &[MetricSpec], values: &Values, tally: Tally) -> Value {
    Value::obj([
        ("correct", Value::Bool(tally.failed == 0)),
        ("attempted", Value::Num(tally.attempted as f64)),
        ("failed", Value::Num(tally.failed as f64)),
        ("metrics", values.to_json(table)),
    ])
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &Args) -> Result<i32, String> {
    let overrides = host::pool_overrides_set();
    if !overrides.is_empty() {
        return Err(format!(
            "{overrides:?} set in the environment: pool sizes would not be the host's own; unset \
             and rerun"
        ));
    }
    let sizes = if args.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let nproc = host::nproc();
    let header = host::descriptor(args.seed, seconds, args.smoke);
    println!("# host {header}");
    println!("# threads: clients, serving workers and pool threads are each <= nproc = {nproc}");
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;

    let modes: &[bool] = match args.trace {
        None => &[false, true],
        Some(false) => &[false],
        Some(true) => &[true],
    };
    let mut per_workload = Vec::new();
    let mut last = None;
    let mut failed = 0;
    for name in &args.workloads {
        let mut fields = Vec::new();
        let mut tally = Tally::default();
        for &traced in modes {
            let (table, section, values, ran) = if traced {
                let run = layers::run(name, args.seed, seconds, &sizes, nproc)
                    .ok_or_else(|| format!("unknown workload '{name}'"))?;
                for note in &run.notes {
                    println!("# {name} traced: {note}");
                }
                let by_layer = trace::self_time_by_name(&run.spans);
                let total: f64 = by_layer.iter().map(|r| r.1).sum();
                for (span, own, count) in by_layer.iter().take(12) {
                    println!(
                        "# {name} self-time {span}: {:.3} s in {count} spans ({:.1} %)",
                        own,
                        own / total * 100.0
                    );
                }
                let path = args.out.join(format!("trace-{name}.json"));
                write_file(&path, &trace::chrome_trace(&run.spans).to_string())?;
                println!(
                    "# {name} traced: {} spans -> {}",
                    run.spans.len(),
                    path.display()
                );
                (PER_LAYER, "per_layer", run.values, run.tally)
            } else {
                let run = pipeline::run(name, args.seed, seconds, &sizes, nproc)
                    .ok_or_else(|| format!("unknown workload '{name}'"))?;
                for note in &run.notes {
                    println!("# {name} untraced: {note}");
                }
                (END_TO_END, "end_to_end", run.values, run.tally)
            };
            print_rows(name, table, &values);
            fields.push((section.to_string(), values.to_json(table)));
            tally.attempted += ran.attempted;
            tally.failed += ran.failed;
            last = Some(contract_line(table, &values, ran));
        }
        failed += tally.failed;
        fields.push(("attempted".into(), Value::Num(tally.attempted as f64)));
        fields.push(("failed".into(), Value::Num(tally.failed as f64)));
        fields.push(("correct".into(), Value::Bool(tally.failed == 0)));
        println!(
            "# {name}: {} operations attempted, {} failed",
            tally.attempted, tally.failed
        );
        per_workload.push((name.clone(), Value::Obj(fields)));
    }
    let results = Value::obj([
        ("host", header),
        ("claim", Value::Null),
        ("workloads", Value::Obj(per_workload)),
    ]);
    let path = args.out.join("results.json");
    write_file(&path, &format!("{results}\n"))?;
    println!("# results -> {}", path.display());
    // One workload in one mode is a driver run: its result is the last line.
    if let (1, Some(_), Some(line)) = (args.workloads.len(), args.trace, last) {
        println!("{line}");
    }
    Ok(if failed == 0 { 0 } else { 1 })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&raw) {
        Ok(args) => match &args.compare {
            Some((a, b)) => compare::run(a, b),
            None => run(&args).unwrap_or_else(|e| {
                eprintln!("pipeline-bench: {e}");
                2
            }),
        },
        Err(e) => {
            eprintln!("pipeline-bench: {e}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse(&[
            "--workload",
            "serve_mix",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workloads, ["serve_mix"]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), Some(false)));
        let a = parse(&["--trace", "--smoke"]).unwrap();
        assert_eq!((a.trace, a.smoke), (Some(true), true));
        assert_eq!(a.workloads.len(), 5);
        assert_eq!(parse(&["--trace", "1"]).unwrap().trace, Some(true));
        assert_eq!(parse(&[]).unwrap().trace, None);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--compare", "only-one"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    /// Two smoke runs of one seed agree on every exact metric, and the
    /// contract line carries every metric of its table.
    #[test]
    fn smoke_runs_are_deterministic_where_they_must_be() {
        let sizes = Sizes::smoke();
        let nproc = host::nproc();
        for name in workloads::NAMES {
            let run =
                |seed| pipeline::run(name, seed, 0.05, &sizes, nproc).expect("known workload");
            let (a, b) = (run(9), run(9));
            assert_eq!(a.tally.failed, 0, "{name}");
            assert_eq!(
                a.values.get("comm_bytes"),
                b.values.get("comm_bytes"),
                "{name}"
            );
            assert!(a.values.get("comm_bytes").unwrap() > 0.0, "{name}");
            let line = contract_line(END_TO_END, &a.values, a.tally);
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(
                line.get("metrics").unwrap().fields().len(),
                END_TO_END.len()
            );
            // Another seed also verifies.
            assert_eq!(run(10).tally.failed, 0, "{name}");
        }
    }

    #[test]
    fn traced_smoke_run_emits_every_per_layer_metric_deterministically() {
        let sizes = Sizes::smoke();
        let exact = [
            "modeled_makespan_ms",
            "spmd.lower.rank_ops",
            "spmd.lower.messages",
            "spmd.collective.recognized",
            "spmd.collective.depth",
            "verify.events",
            "core.report.messages",
            "core.report.tasks",
            "autosched.candidates",
            "autosched.pruned",
        ];
        for name in ["dense_spmd", "sparse_spmv"] {
            let run = || layers::run(name, 9, 0.05, &sizes, host::nproc()).expect("known workload");
            let (a, b) = (run(), run());
            assert_eq!(a.tally.failed, 0, "{name}");
            assert_eq!(a.values.to_json(PER_LAYER).fields().len(), PER_LAYER.len());
            for metric in exact {
                assert_eq!(
                    a.values.get(metric),
                    b.values.get(metric),
                    "{name} {metric}"
                );
            }
            assert!(!a.spans.is_empty());
        }
    }
}
