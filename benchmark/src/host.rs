//! The host the numbers were taken on: core count, compiler, commit,
//! cache sizes, and two in-process probes that give per-layer rates a
//! denominator (a mul+add chain for compute, a triad for bandwidth).

use crate::json::Value;
use std::hint::black_box;
use std::time::Instant;

/// Environment variables that resize the product's thread pools. A run
/// with either set would not be comparable, so the benchmark refuses it.
pub const POOL_OVERRIDES: [&str; 2] = ["DISTAL_THREADS", "DISTAL_EXECUTOR"];

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Which of [`POOL_OVERRIDES`] are set in the environment.
pub fn pool_overrides_set() -> Vec<&'static str> {
    POOL_OVERRIDES
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect()
}

fn cache_sizes() -> String {
    let mut sizes = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            break;
        };
        sizes.push(format!("L{} {} {}", level.trim(), kind.trim(), size.trim()));
    }
    if sizes.is_empty() {
        "unknown".into()
    } else {
        sizes.join(", ")
    }
}

/// The header every output starts with.
pub fn descriptor(seed: u64, seconds: f64, smoke: bool) -> Value {
    Value::obj([
        ("nproc", Value::Num(nproc() as f64)),
        ("rustc", Value::from(env!("BENCH_RUSTC_VERSION"))),
        (
            "commit",
            Value::Str(std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
        ),
        ("os", Value::from(std::env::consts::OS)),
        ("arch", Value::from(std::env::consts::ARCH)),
        ("caches", Value::Str(cache_sizes())),
        (
            "pool_overrides_set",
            Value::Arr(pool_overrides_set().into_iter().map(Value::from).collect()),
        ),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("smoke", Value::Bool(smoke)),
    ])
}

/// Peak resident set (`VmHWM`) in MiB; 0 where `/proc` has no such line.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Independent accumulators in the compute probe: enough to cover the
/// latency of a dependent multiply–add on every vector unit.
const LANES: usize = 32;

/// One core's multiply–add rate in GFLOP/s: `LANES` independent
/// `x = x·a + b` chains (separate multiply and add — the build targets
/// no FMA instruction, exactly like the product's kernels).
pub fn fma_gflops() -> f64 {
    const STEPS: usize = 4_000_000;
    let (a, b) = (black_box(0.999_999_9f64), black_box(1e-9f64));
    let mut best = 0.0f64;
    for _ in 0..3 {
        let mut x = [1.0f64; LANES];
        let start = Instant::now();
        for _ in 0..STEPS {
            for v in &mut x {
                *v = *v * a + b;
            }
        }
        let secs = start.elapsed().as_secs_f64();
        black_box(x);
        best = best.max(2.0 * (STEPS * LANES) as f64 / secs / 1e9);
    }
    best
}

/// Elements per triad array (64 MiB each; three arrays).
pub const TRIAD_LEN: usize = 8 << 20;

/// One core's sustainable bandwidth in GB/s: `a[i] = b[i] + s·c[i]` over
/// three [`TRIAD_LEN`]-element arrays, 24 bytes per element, computed
/// (not counted by hardware). The header prints the cache sizes beside
/// it: on hosts whose last-level cache exceeds the arrays this is a
/// cache rate, not a DRAM rate.
pub fn triad_gbs() -> f64 {
    let s = black_box(3.0f64);
    let b = vec![1.0f64; TRIAD_LEN];
    let c = vec![2.0f64; TRIAD_LEN];
    let mut a = vec![0.0f64; TRIAD_LEN];
    let mut best = 0.0f64;
    for _ in 0..4 {
        let start = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + s * *c;
        }
        let secs = start.elapsed().as_secs_f64();
        black_box(&mut a);
        best = best.max(24.0 * TRIAD_LEN as f64 / secs / 1e9);
    }
    best
}
