//! `--compare a.json b.json`: is run `b` worse than run `a`?
//!
//! Both files are `results.json` as this benchmark writes them. Every
//! end-to-end metric of every workload is compared under its bound from
//! [`crate::metrics::END_TO_END`]; `comm_bytes` must not differ at all,
//! in either direction, and `b` must have no failed operation. This is
//! the A/A check of the benchmark itself and the tool a later change is
//! judged with.

use crate::json::Value;
use crate::metrics::END_TO_END;
use crate::stats::worsening;

/// Metrics that must repeat bit-for-bit between two runs of one seed.
const EXACT: &[&str] = &["comm_bytes"];

/// One offending `workload metric` row.
#[derive(Clone, Debug, PartialEq)]
pub struct Offence {
    pub workload: String,
    pub metric: String,
    pub detail: String,
}

fn metric_value(run: &Value, workload: &str, metric: &str) -> Option<f64> {
    run.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Every way `b` is worse than `a` (empty = `b` passes).
pub fn offences(a: &Value, b: &Value) -> Vec<Offence> {
    let mut found = Vec::new();
    let workloads = a.get("workloads").map(Value::fields).unwrap_or_default();
    if workloads.is_empty() {
        found.push(Offence {
            workload: "-".into(),
            metric: "-".into(),
            detail: "baseline holds no workloads".into(),
        });
    }
    for (workload, _) in workloads {
        let mut offend = |metric: &str, detail: String| {
            found.push(Offence {
                workload: workload.clone(),
                metric: metric.to_string(),
                detail,
            })
        };
        let failed = b
            .get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("failed"))
            .and_then(Value::as_f64);
        match failed {
            None => {
                offend("-", "workload missing from the second run".into());
                continue;
            }
            Some(n) if n > 0.0 => offend("failed", format!("{n} operations failed")),
            Some(_) => {}
        }
        for spec in END_TO_END {
            let (Some(base), Some(new)) = (
                metric_value(a, workload, spec.name),
                metric_value(b, workload, spec.name),
            ) else {
                offend(spec.name, "missing from one of the runs".into());
                continue;
            };
            let bound = spec.bound.expect("end-to-end metrics carry a bound");
            let worse = worsening(base, new, spec.better);
            if EXACT.contains(&spec.name) {
                if base != new {
                    offend(
                        spec.name,
                        format!("{base} -> {new} {}: must repeat exactly", spec.unit),
                    );
                }
            } else if worse > bound {
                offend(
                    spec.name,
                    format!(
                        "{base} -> {new} {}: {:.1} % worse, bound {:.1} %",
                        spec.unit,
                        worse * 100.0,
                        bound * 100.0
                    ),
                );
            }
        }
    }
    found
}

/// Reads both files, prints one row per comparison problem, and returns
/// the process exit code (0 = `b` is no worse than `a`).
pub fn run(a_path: &str, b_path: &str) -> i32 {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Value::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (a, b) = match (read(a_path), read(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for err in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("compare: {err}");
            }
            return 2;
        }
    };
    let found = offences(&a, &b);
    for o in &found {
        println!("{} {} {}", o.workload, o.metric, o.detail);
    }
    if found.is_empty() {
        println!("compare: {b_path} is within every bound of {a_path}");
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(p50: f64, rps: f64, bytes: f64, failed: f64) -> Value {
        let metric =
            |v: f64, unit: &str| Value::obj([("value", Value::Num(v)), ("unit", unit.into())]);
        Value::obj([(
            "workloads",
            Value::obj([(
                "dense_runtime",
                Value::obj([
                    ("failed", Value::Num(failed)),
                    (
                        "end_to_end",
                        Value::obj([
                            ("setup_s", metric(0.1, "s")),
                            ("cold_plan_ms", metric(2.0, "ms")),
                            ("request_p50_ms", metric(p50, "ms")),
                            ("request_p90_ms", metric(100.0, "ms")),
                            ("throughput_rps", metric(rps, "req/s")),
                            ("comm_bytes", metric(bytes, "B/request")),
                        ]),
                    ),
                ]),
            )]),
        )])
    }

    #[test]
    fn identical_and_improved_runs_pass() {
        let a = results(90.0, 11.0, 4096.0, 0.0);
        assert_eq!(offences(&a, &a), []);
        // 20 % faster is not an offence; 9 % slower is inside the bound.
        assert_eq!(offences(&a, &results(72.0, 13.0, 4096.0, 0.0)), []);
        assert_eq!(offences(&a, &results(98.0, 10.2, 4096.0, 0.0)), []);
    }

    #[test]
    fn regressions_beyond_the_bound_are_named() {
        let a = results(90.0, 11.0, 4096.0, 0.0);
        let found = offences(&a, &results(120.0, 8.0, 4096.0, 0.0));
        let rows: Vec<_> = found.iter().map(|o| o.metric.as_str()).collect();
        assert_eq!(rows, ["request_p50_ms", "throughput_rps"]);
        assert!(found.iter().all(|o| o.workload == "dense_runtime"));
    }

    #[test]
    fn exact_metrics_may_not_move_either_way_and_failures_count() {
        let a = results(90.0, 11.0, 4096.0, 0.0);
        for bytes in [4095.0, 4097.0] {
            let found = offences(&a, &results(90.0, 11.0, bytes, 0.0));
            assert_eq!(found.len(), 1);
            assert_eq!(found[0].metric, "comm_bytes");
        }
        let found = offences(&a, &results(90.0, 11.0, 4096.0, 3.0));
        assert_eq!(found[0].metric, "failed");
    }

    #[test]
    fn hand_made_files_drive_the_exit_code() {
        // Inside the package's own (ignored) output directory, nowhere else.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("compare-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, v: &Value| {
            let path = dir.join(name);
            std::fs::write(&path, v.to_string()).unwrap();
            path.to_str().unwrap().to_string()
        };
        let a = write("a.json", &results(90.0, 11.0, 4096.0, 0.0));
        let same = write("same.json", &results(91.0, 10.9, 4096.0, 0.0));
        let slow = write("slow.json", &results(120.0, 8.0, 4096.0, 0.0));
        assert_eq!(run(&a, &same), 0);
        assert_eq!(run(&a, &slow), 1);
        assert_eq!(run(&a, dir.join("absent.json").to_str().unwrap()), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
