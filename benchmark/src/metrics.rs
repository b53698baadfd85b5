//! Metric names, units, directions and regression bounds — the same
//! table `BENCHMARK.json` publishes (a unit test keeps the two equal).

use crate::json::Value;
use crate::stats::Better::{self, Higher, Lower};

#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen. Only
    /// end-to-end metrics carry one.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the pipeline sees. Measured only with tracing off.
/// The timing bounds are the widest the driver allows: on the shared
/// reference host a metric's run-to-run spread is 4–12 % (see
/// `README.md`). `comm_bytes` is deterministic; its
/// bound is the smallest that still reads as "any change at all".
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("cold_plan_ms", "ms", Lower, 0.25),
    e2e("request_p50_ms", "ms", Lower, 0.25),
    e2e("request_p90_ms", "ms", Lower, 0.25),
    e2e("throughput_rps", "req/s", Higher, 0.25),
    e2e("comm_bytes", "B/request", Lower, 0.001),
];

/// Single layers, from the traced run. Reported, never gated. Modelled
/// (not measured) times carry the unit `ms_model`.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("modeled_makespan_ms", "ms_model", Lower),
    layer("failure_share", "fraction", Lower),
    layer("core.problem.build_us", "us", Lower),
    layer("core.lint.admit_us", "us", Lower),
    layer("core.lint.findings", "count", Lower),
    layer("core.backend.runtime_plan_ms", "ms", Lower),
    layer("spmd.lower.naive_ms", "ms", Lower),
    layer("spmd.lower.rank_ops", "count", Lower),
    layer("spmd.lower.messages", "count", Lower),
    layer("spmd.collective.rewrite_ms", "ms", Lower),
    layer("spmd.collective.recognize_ms", "ms", Lower),
    layer("spmd.collective.recognized", "count", Higher),
    layer("spmd.collective.depth", "count", Lower),
    layer("verify.verify_ms", "ms", Lower),
    layer("verify.events", "count", Lower),
    layer("verify.diagnostics", "count", Lower),
    layer("spmd.cost.evaluate_ms", "ms", Lower),
    layer("spmd.backend.plan_unattributed_ms", "ms", Lower),
    layer("core.kernelgen.first_specialize_ms", "ms", Lower),
    layer("autosched.search_ms", "ms", Lower),
    layer("autosched.candidates", "count", Higher),
    layer("autosched.pruned", "count", Higher),
    layer("autosched.plans", "count", Lower),
    layer("runtime.sim.model_run_ms", "ms", Lower),
    layer("core.plan.bind_ms", "ms", Lower),
    layer("core.instance.place_ms", "ms", Lower),
    layer("core.instance.execute_ms", "ms", Lower),
    layer("core.instance.read_ms", "ms", Lower),
    layer("core.instance.execute_gflops", "GFLOP/s", Higher),
    layer("request.raw_p50_ms", "ms", Lower),
    layer("request.raw_p90_ms", "ms", Lower),
    layer("core.report.flops_ratio", "ratio", Lower),
    layer("core.report.messages", "count", Lower),
    layer("core.report.tasks", "count", Lower),
    layer("core.report.peak_bytes", "B", Lower),
    layer("runtime.executor.serial_execute_ms", "ms", Lower),
    layer("runtime.executor.parallel_speedup", "ratio", Higher),
    layer("spmd.transport.rank_makespan_ms", "ms", Lower),
    layer("spmd.transport.outside_ranks_ms", "ms", Lower),
    layer("spmd.transport.threaded_speedup", "ratio", Higher),
    layer("spmd.vm.sequential_execute_ms", "ms", Lower),
    layer("spmd.model_ratio", "ratio", Higher),
    layer("core.kernelgen.gemm_tile_gflops", "GFLOP/s", Higher),
    layer("core.kernelgen.gemm_tile_roofline_share", "ratio", Higher),
    layer("core.kernelgen.tape_gflops", "GFLOP/s", Higher),
    layer("sparse.kernels.spmv_gflops", "GFLOP/s", Higher),
    layer("sparse.kernels.spmv_gbs", "GB/s", Higher),
    layer("sparse.kernels.spmv_triad_share", "ratio", Higher),
    layer("sparse.buffer.from_dense_ms", "ms", Lower),
    layer("host.nproc", "count", Higher),
    layer("host.fma_gflops", "GFLOP/s", Higher),
    layer("host.triad_gbs", "GB/s", Higher),
    layer("core.cache.plankey_us", "us", Lower),
    layer("core.cache.hit_us", "us", Lower),
    layer("core.cache.hits", "count", Higher),
    layer("core.cache.misses", "count", Lower),
    layer("core.cache.evictions", "count", Lower),
    layer("core.cache.hit_rate", "ratio", Higher),
    layer("serve.engine.hit_p50_ms", "ms", Lower),
    layer("serve.engine.miss_p50_ms", "ms", Lower),
    layer("serve.engine.request_p99_ms", "ms", Lower),
    layer("serve.engine.overhead_ms", "ms", Lower),
    layer("serve.engine.batches", "count", Lower),
    layer("serve.engine.mean_batch", "ratio", Higher),
    layer("serve.engine.peak_batch", "count", Higher),
    layer("serve.engine.bind_lowerings", "count", Lower),
    layer("serve.engine.failed", "count", Lower),
    layer("process.peak_rss_mib", "MiB", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.spans", "count", Lower),
];

pub fn spec_of(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Measured values of one run, keyed by metric name.
#[derive(Clone, Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `value` for a known metric name.
    ///
    /// # Panics
    ///
    /// On a name no table lists: a typo would otherwise silently drop a
    /// metric from the output.
    pub fn set(&mut self, name: &str, value: f64) {
        let spec = spec_of(name).unwrap_or_else(|| panic!("unknown metric '{name}'"));
        match self.0.iter_mut().find(|(n, _)| *n == spec.name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((spec.name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// `{"name": {"value": v, "unit": u}, …}` for every metric of
    /// `table`, in table order.
    ///
    /// # Panics
    ///
    /// When a metric of the table was never set: the output contract is
    /// "every metric, every run".
    pub fn to_json(&self, table: &[MetricSpec]) -> Value {
        Value::obj(table.iter().map(|m| {
            let v = self
                .get(m.name)
                .unwrap_or_else(|| panic!("metric '{}' was not measured", m.name));
            (
                m.name,
                Value::obj([("value", Value::Num(v)), ("unit", Value::from(m.unit))]),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn published(section: &str) -> Vec<(String, String, String, Option<f64>)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Value::as_arr)
            .expect("section is an array")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn tables_equal_what_benchmark_json_publishes() {
        for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let ours: Vec<_> = table
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.as_str().to_string(),
                        m.bound,
                    )
                })
                .collect();
            assert_eq!(ours, published(section), "{section}");
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.bound.is_none_or(|b| b <= 0.25));
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn setting_an_unlisted_metric_is_a_bug() {
        Values::default().set("no.such.metric", 1.0);
    }
}
