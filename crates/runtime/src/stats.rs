//! Execution statistics reported by the runtime.

use crate::region::RegionId;
use crate::topology::MemId;
use std::collections::BTreeMap;
use std::fmt;

/// Classification of a data transfer by the channel it uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ChannelClass {
    /// GPU↔GPU over NVLink within a node.
    IntraNodeNvlink,
    /// Socket↔socket DRAM traffic within a node.
    IntraNodeSys,
    /// Host↔device transfers within a node.
    HostDevice,
    /// NIC traffic between nodes.
    InterNode,
    /// Copies from the unbounded staging memory (functional-mode input
    /// seeding; free and excluded from bandwidth accounting).
    Staging,
}

/// What a logged copy was doing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CopyKind {
    /// A plain data movement satisfying a read requirement.
    Data,
    /// Folding a reduction instance into a destination instance.
    ReduceApply,
}

/// Per-kernel-variant execution totals: how much work ran under each
/// generated-leaf class (`interpreter`, `tape`, `gemm.gen`, `csr.gen`,
/// …). Accumulated in the shared timing pass, so the totals are identical
/// on any number of workers by construction.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KernelClassStats {
    /// Tasks executed under this variant.
    pub tasks: u64,
    /// Floating-point work attributed to this variant.
    pub flops: f64,
    /// Processor-busy seconds attributed to this variant.
    pub busy_s: f64,
}

/// One logged task execution (recorded when `record_copies` is enabled,
/// which turns on the full event log).
#[derive(Clone, Debug, PartialEq)]
pub struct TaskLogEntry {
    /// Kernel variant name.
    pub kernel: String,
    /// Processor the task ran on (`ProcId.0`).
    pub proc: u32,
    /// Floating-point work of the task.
    pub flops: f64,
    /// Simulated start time, seconds.
    pub start_s: f64,
    /// Simulated end time, seconds.
    pub end_s: f64,
}

/// One logged copy (recorded when `record_copies` is enabled).
#[derive(Clone, Debug, PartialEq)]
pub struct CopyLogEntry {
    /// Region moved.
    pub region: RegionId,
    /// Source memory.
    pub src_mem: MemId,
    /// Destination memory.
    pub dst_mem: MemId,
    /// Source node (`usize::MAX` = staging).
    pub src_node: usize,
    /// Destination node.
    pub dst_node: usize,
    /// Bytes moved.
    pub bytes: u64,
    /// Simulated start time, seconds.
    pub start_s: f64,
    /// Simulated end time, seconds.
    pub end_s: f64,
    /// Plain copy or reduction fold.
    pub kind: CopyKind,
}

/// Aggregate statistics for one program run.
///
/// `PartialEq` compares every field (including the copy log when present):
/// two runs of the same program on different worker counts must produce
/// *equal* statistics, and the parity tests assert exactly that.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunStats {
    /// End-to-end simulated time of the run, seconds.
    pub makespan_s: f64,
    /// Total floating-point work executed.
    pub total_flops: f64,
    /// Number of tasks executed.
    pub tasks: u64,
    /// Number of copies performed (excluding staging).
    pub copies: u64,
    /// Number of reduction folds applied.
    pub reductions_applied: u64,
    /// Bytes moved, per channel class.
    pub bytes_by_class: BTreeMap<ChannelClass, u64>,
    /// Peak bytes resident per memory kind name ("SYS_MEM", "GPU_FB_MEM").
    pub peak_mem_bytes: BTreeMap<String, u64>,
    /// Busy seconds per processor (indexed by `ProcId.0`).
    pub proc_busy_s: Vec<f64>,
    /// Work executed per kernel variant (`interpreter`, `tape`,
    /// `gemm.gen`, `csr.gen`, …).
    pub task_classes: BTreeMap<String, KernelClassStats>,
    /// Copy log (only when requested).
    pub copy_log: Option<Vec<CopyLogEntry>>,
    /// Task log (only when requested, alongside the copy log).
    pub task_log: Option<Vec<TaskLogEntry>>,
}

impl RunStats {
    /// Bytes moved across node boundaries.
    pub fn inter_node_bytes(&self) -> u64 {
        *self
            .bytes_by_class
            .get(&ChannelClass::InterNode)
            .unwrap_or(&0)
    }

    /// Total bytes moved over real channels — staging (functional-mode
    /// input seeding) excluded. This is the backend-neutral "bytes moved"
    /// figure higher layers normalize into their reports.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_by_class
            .iter()
            .filter(|(c, _)| !matches!(c, ChannelClass::Staging))
            .map(|(_, b)| *b)
            .sum()
    }

    /// Bytes moved inside nodes (NVLink + socket + host-device).
    pub fn intra_node_bytes(&self) -> u64 {
        self.bytes_by_class
            .iter()
            .filter(|(c, _)| {
                matches!(
                    c,
                    ChannelClass::IntraNodeNvlink
                        | ChannelClass::IntraNodeSys
                        | ChannelClass::HostDevice
                )
            })
            .map(|(_, b)| *b)
            .sum()
    }

    /// Achieved GFLOP/s per node for a run on `nodes` nodes.
    pub fn gflops_per_node(&self, nodes: usize) -> f64 {
        if self.makespan_s <= 0.0 {
            return 0.0;
        }
        self.total_flops / self.makespan_s / nodes as f64 / 1e9
    }

    /// Achieved GB/s per node of *useful* tensor traffic: `bytes` is the
    /// workload's logical footprint (used for bandwidth-bound kernels like
    /// TTV, Figure 16a/b).
    pub fn gbs_per_node(&self, logical_bytes: u64, nodes: usize) -> f64 {
        if self.makespan_s <= 0.0 {
            return 0.0;
        }
        logical_bytes as f64 / self.makespan_s / nodes as f64 / 1e9
    }

    /// Accumulates another (sequential) phase into this one: makespans add,
    /// counters and byte totals sum, peaks take the maximum.
    pub fn merge(&mut self, other: &RunStats) {
        self.makespan_s += other.makespan_s;
        self.total_flops += other.total_flops;
        self.tasks += other.tasks;
        self.copies += other.copies;
        self.reductions_applied += other.reductions_applied;
        for (c, b) in &other.bytes_by_class {
            *self.bytes_by_class.entry(*c).or_insert(0) += b;
        }
        for (k, v) in &other.peak_mem_bytes {
            let e = self.peak_mem_bytes.entry(k.clone()).or_insert(0);
            *e = (*e).max(*v);
        }
        if self.proc_busy_s.len() < other.proc_busy_s.len() {
            self.proc_busy_s.resize(other.proc_busy_s.len(), 0.0);
        }
        for (i, b) in other.proc_busy_s.iter().enumerate() {
            self.proc_busy_s[i] += b;
        }
        for (k, v) in &other.task_classes {
            let e = self.task_classes.entry(k.clone()).or_default();
            e.tasks += v.tasks;
            e.flops += v.flops;
            e.busy_s += v.busy_s;
        }
        if let Some(log) = &other.copy_log {
            self.copy_log
                .get_or_insert_with(Vec::new)
                .extend(log.iter().cloned());
        }
        if let Some(log) = &other.task_log {
            self.task_log
                .get_or_insert_with(Vec::new)
                .extend(log.iter().cloned());
        }
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "makespan: {:.6} s", self.makespan_s)?;
        writeln!(
            f,
            "tasks: {}, copies: {}, reductions: {}",
            self.tasks, self.copies, self.reductions_applied
        )?;
        writeln!(f, "flops: {:.3e}", self.total_flops)?;
        for (class, bytes) in &self.bytes_by_class {
            writeln!(f, "  {class:?}: {:.3} MB", *bytes as f64 / 1e6)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let mut s = RunStats {
            makespan_s: 2.0,
            total_flops: 8e9,
            ..RunStats::default()
        };
        s.bytes_by_class.insert(ChannelClass::InterNode, 100);
        s.bytes_by_class.insert(ChannelClass::IntraNodeNvlink, 50);
        s.bytes_by_class.insert(ChannelClass::Staging, 999);
        assert_eq!(s.inter_node_bytes(), 100);
        assert_eq!(s.intra_node_bytes(), 50);
        assert!((s.gflops_per_node(2) - 2.0).abs() < 1e-12);
        assert!((s.gbs_per_node(4_000_000_000, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates_phases() {
        let mut a = RunStats {
            makespan_s: 1.0,
            total_flops: 10.0,
            tasks: 2,
            copies: 1,
            proc_busy_s: vec![0.5],
            ..RunStats::default()
        };
        a.bytes_by_class.insert(ChannelClass::InterNode, 100);
        a.peak_mem_bytes.insert("SYS_MEM".into(), 50);
        let mut b = RunStats {
            makespan_s: 2.0,
            total_flops: 5.0,
            tasks: 3,
            copies: 2,
            reductions_applied: 4,
            proc_busy_s: vec![0.25, 1.0],
            ..RunStats::default()
        };
        b.bytes_by_class.insert(ChannelClass::InterNode, 11);
        b.peak_mem_bytes.insert("SYS_MEM".into(), 80);
        a.merge(&b);
        assert_eq!(a.makespan_s, 3.0);
        assert_eq!(a.total_flops, 15.0);
        assert_eq!(a.tasks, 5);
        assert_eq!(a.copies, 3);
        assert_eq!(a.reductions_applied, 4);
        assert_eq!(a.inter_node_bytes(), 111);
        assert_eq!(a.peak_mem_bytes["SYS_MEM"], 80); // max, not sum
        assert_eq!(a.proc_busy_s, vec![0.75, 1.0]);
    }

    #[test]
    fn zero_makespan_is_safe() {
        let s = RunStats::default();
        assert_eq!(s.gflops_per_node(4), 0.0);
        let shown = format!("{s}");
        assert!(shown.contains("makespan"));
    }
}
