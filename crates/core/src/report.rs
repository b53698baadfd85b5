//! The backend-neutral execution report.
//!
//! Every [`Instance`](crate::plan::Instance) — dynamic runtime, static
//! SPMD, pure cost estimation — reports its placement and compute phases
//! in this one schema, so examples, tests, benches, and the autoscheduler
//! can compare backends without knowing which one produced the numbers.
//! The runtime's [`RunStats`] and the SPMD backend's `CommStats` +
//! α-β `CostReport` both normalize into it.

use crate::cache::CacheStats;
use crate::diagnostic::Diagnostic;
use distal_runtime::stats::{KernelClassStats, RunStats};
use std::collections::BTreeMap;
use std::fmt;

/// How a [`Report`]'s numbers were obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Real data moved and real kernels ran (functional execution).
    Measured,
    /// A model predicted the numbers without touching data.
    Modeled,
}

/// A normalized execution report: what one backend phase moved and spent.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// The backend that produced the report (e.g. `"runtime"`, `"spmd"`,
    /// `"cost"`).
    pub backend: String,
    /// Whether the numbers were measured or modeled.
    pub provenance: Provenance,
    /// Bytes moved between processors (staging/seeding traffic excluded).
    pub bytes_moved: u64,
    /// Discrete transfers: runtime copies, or SPMD messages.
    pub messages: u64,
    /// Critical-path (makespan) seconds: measured wall clock when the
    /// backend really ran (functional runtime, threaded SPMD transport),
    /// else the backend's timing model.
    pub critical_path_s: f64,
    /// The model's critical-path prediction when `critical_path_s` is a
    /// *measured* wall clock (the simulator's makespan beside a functional
    /// runtime run, the SPMD α-β makespan beside a threaded-transport
    /// run) — `None` when the headline number is itself the model's. See
    /// [`Report::modeled_vs_measured`].
    pub modeled_s: Option<f64>,
    /// Floating-point work performed (or modeled).
    pub flops: f64,
    /// Leaf tasks / compute blocks executed.
    pub tasks: u64,
    /// Peak transient memory attributable to the phase (scratch or
    /// instance buffers), in bytes. Backends that don't track it report 0.
    pub peak_bytes: u64,
    /// Plan-cache counters, when a [`crate::cache::ShardedPlanCache`]
    /// served the plan behind this report (see
    /// [`crate::cache::ShardedPlanCache::annotate`]). `None` for uncached
    /// compilations.
    pub cache: Option<CacheStats>,
    /// Work executed per leaf-kernel variant (`tape`, `gemm.gen`,
    /// `interpreter`, …), when the backend tracks it. Empty otherwise.
    pub kernel_classes: BTreeMap<String, KernelClassStats>,
    /// Findings from plan-time static verification (warnings only — an
    /// error-severity finding rejects the plan before any report
    /// exists). Empty on backends without a verifier.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report for a phase that did nothing (e.g. placement on a
    /// backend whose data already starts at rest in its distribution).
    pub fn empty(backend: impl Into<String>, provenance: Provenance) -> Self {
        Report {
            backend: backend.into(),
            provenance,
            bytes_moved: 0,
            messages: 0,
            critical_path_s: 0.0,
            modeled_s: None,
            flops: 0.0,
            tasks: 0,
            peak_bytes: 0,
            cache: None,
            kernel_classes: BTreeMap::new(),
            diagnostics: Vec::new(),
        }
    }

    /// Normalizes the dynamic runtime's statistics.
    pub fn from_run_stats(
        backend: impl Into<String>,
        provenance: Provenance,
        s: &RunStats,
    ) -> Self {
        Report {
            backend: backend.into(),
            provenance,
            bytes_moved: s.total_bytes(),
            messages: s.copies + s.reductions_applied,
            critical_path_s: s.makespan_s,
            modeled_s: None,
            flops: s.total_flops,
            tasks: s.tasks,
            peak_bytes: s.peak_mem_bytes.values().copied().max().unwrap_or(0),
            cache: None,
            kernel_classes: s.task_classes.clone(),
            diagnostics: Vec::new(),
        }
    }

    /// Accumulates a subsequent (sequential) phase: totals sum, makespans
    /// add, peaks take the maximum.
    pub fn merge(&mut self, other: &Report) {
        self.bytes_moved += other.bytes_moved;
        self.messages += other.messages;
        self.critical_path_s += other.critical_path_s;
        // A phase without its own model prediction contributes its
        // headline time, so the merged ratio still compares like spans.
        self.modeled_s = match (self.modeled_s, other.modeled_s) {
            (None, None) => None,
            (a, b) => Some(
                a.unwrap_or(self.critical_path_s - other.critical_path_s)
                    + b.unwrap_or(other.critical_path_s),
            ),
        };
        self.flops += other.flops;
        self.tasks += other.tasks;
        self.peak_bytes = self.peak_bytes.max(other.peak_bytes);
        if other.provenance == Provenance::Modeled {
            self.provenance = Provenance::Modeled;
        }
        // The later phase's cache view wins (it has seen more lookups);
        // keep ours when the other phase was uncached.
        if other.cache.is_some() {
            self.cache = other.cache;
        }
        for (k, v) in &other.kernel_classes {
            let e = self.kernel_classes.entry(k.clone()).or_default();
            e.tasks += v.tasks;
            e.flops += v.flops;
            e.busy_s += v.busy_s;
        }
        // Phases of one plan share its findings; don't repeat them.
        for d in &other.diagnostics {
            if !self.diagnostics.contains(d) {
                self.diagnostics.push(d.clone());
            }
        }
    }

    /// Modeled-over-measured critical-path ratio (`modeled_s /
    /// critical_path_s`): `1.0` means the cost model predicted the
    /// measured wall clock exactly, `> 1` that it over-estimated. `None`
    /// unless the report carries both numbers (functional runtime runs,
    /// threaded SPMD runs).
    pub fn modeled_vs_measured(&self) -> Option<f64> {
        match self.modeled_s {
            Some(m) if self.critical_path_s > 0.0 => Some(m / self.critical_path_s),
            _ => None,
        }
    }

    /// Achieved (or modeled) GFLOP/s over the critical path.
    pub fn gflops(&self) -> f64 {
        if self.critical_path_s <= 0.0 {
            return 0.0;
        }
        self.flops / self.critical_path_s / 1e9
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}/{}] {} msgs, {} B moved, {:.3e} flops, {} tasks, critical path {:.3} us",
            self.backend,
            match self.provenance {
                Provenance::Measured => "measured",
                Provenance::Modeled => "modeled",
            },
            self.messages,
            self.bytes_moved,
            self.flops,
            self.tasks,
            self.critical_path_s * 1e6
        )?;
        if let Some(ratio) = self.modeled_vs_measured() {
            write!(f, " (modeled/measured {ratio:.2})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distal_runtime::stats::ChannelClass;

    #[test]
    fn from_run_stats_normalizes() {
        let mut s = RunStats {
            makespan_s: 2.0,
            total_flops: 1e9,
            tasks: 4,
            copies: 3,
            reductions_applied: 1,
            ..RunStats::default()
        };
        s.bytes_by_class.insert(ChannelClass::InterNode, 100);
        s.bytes_by_class.insert(ChannelClass::Staging, 999);
        s.peak_mem_bytes.insert("SYS_MEM".into(), 64);
        let r = Report::from_run_stats("runtime", Provenance::Measured, &s);
        assert_eq!(r.bytes_moved, 100); // staging excluded
        assert_eq!(r.messages, 4);
        assert_eq!(r.tasks, 4);
        assert_eq!(r.peak_bytes, 64);
        assert!((r.gflops() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates_and_degrades_provenance() {
        let mut a = Report::empty("runtime", Provenance::Measured);
        a.bytes_moved = 10;
        a.critical_path_s = 1.0;
        let mut b = Report::empty("runtime", Provenance::Modeled);
        b.bytes_moved = 5;
        b.critical_path_s = 0.5;
        b.peak_bytes = 7;
        a.merge(&b);
        assert_eq!(a.bytes_moved, 15);
        assert_eq!(a.critical_path_s, 1.5);
        assert_eq!(a.peak_bytes, 7);
        assert_eq!(a.provenance, Provenance::Modeled);
    }

    #[test]
    fn empty_is_silent() {
        let r = Report::empty("spmd", Provenance::Measured);
        assert_eq!(r.bytes_moved, 0);
        assert_eq!(r.gflops(), 0.0);
        assert!(format!("{r}").contains("spmd"));
    }
}
