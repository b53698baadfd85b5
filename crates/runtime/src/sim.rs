//! Event-driven timing simulation of the execution DAG.
//!
//! Processors and per-memory in/out ports are serial resources. A node may
//! start once all of its predecessors have finished and its resources are
//! free; communication and computation overlap exactly as the dependence
//! graph allows, mirroring Legion's deferred-execution model (§6).
//!
//! This pass is *pure*: it walks the DAG deterministically, computes every
//! statistic in [`RunStats`], and records the order in which nodes were
//! scheduled — but touches no instance data. It runs once per dependence
//! analysis, from [`crate::replay`], and its result is part of the
//! [`Trace`](crate::replay::Trace) that analysis yields. Side effects
//! (copies, fills, leaf kernels) are applied separately ([`crate::executor`]),
//! on one worker in the recorded order or on several along the DAG; both
//! yield identical numerics because the DAG serializes every conflicting
//! access, and identical statistics because both report this pass's.

use crate::graph::{GNodeKind, Graph, ResourceMap};
use crate::stats::{ChannelClass, CopyKind, CopyLogEntry, RunStats, TaskLogEntry};
use crate::topology::PhysicalMachine;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Heap key ordered by (time, sequence) with total float ordering.
#[derive(PartialEq)]
struct Key {
    t: f64,
    seq: u32,
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.t
            .total_cmp(&other.t)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// The outcome of the timing pass.
pub(crate) struct SimSchedule {
    /// Node indices in the deterministic order they were scheduled
    /// (a topological order of the DAG).
    pub order: Vec<u32>,
    /// Full run statistics (except peak memory, added by the runtime).
    pub stats: RunStats,
}

/// Runs the timing simulation over the DAG and returns per-run statistics
/// plus the scheduling order.
pub(crate) fn schedule_graph(
    machine: &PhysicalMachine,
    graph: &Graph,
    record_copies: bool,
) -> SimSchedule {
    let rmap = ResourceMap::new(machine);
    let n = graph.nodes.len();
    let mut indeg: Vec<u32> = graph.nodes.iter().map(|g| g.deps).collect();
    let mut ready: Vec<f64> = vec![0.0; n];
    let mut free: Vec<f64> = vec![0.0; rmap.len()];
    let mut heap: BinaryHeap<Reverse<Key>> = BinaryHeap::new();
    let mut stats = RunStats {
        proc_busy_s: vec![0.0; machine.procs().len()],
        ..RunStats::default()
    };
    let mut copy_log = if record_copies {
        Some(Vec::new())
    } else {
        None
    };
    let mut task_log = if record_copies {
        Some(Vec::new())
    } else {
        None
    };
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut makespan: f64 = 0.0;

    for (i, g) in graph.nodes.iter().enumerate() {
        if g.deps == 0 {
            heap.push(Reverse(Key {
                t: 0.0,
                seq: i as u32,
            }));
        }
    }

    while let Some(Reverse(Key { t, seq })) = heap.pop() {
        let node = &graph.nodes[seq as usize];
        // Recompute the earliest feasible start; requeue if it moved.
        let mut est = ready[seq as usize];
        for r in node.resources.iter().flatten() {
            est = est.max(free[r.0 as usize]);
        }
        if est > t + 1e-15 {
            heap.push(Reverse(Key { t: est, seq }));
            continue;
        }
        let start = est;
        let end = start + node.duration;
        for r in node.resources.iter().flatten() {
            free[r.0 as usize] = end;
        }
        makespan = makespan.max(end);
        order.push(seq);

        match &node.kind {
            GNodeKind::Barrier | GNodeKind::Fill { .. } => {}
            GNodeKind::Copy(c) => {
                if c.class != ChannelClass::Staging {
                    stats.copies += 1;
                }
                *stats.bytes_by_class.entry(c.class).or_insert(0) += c.bytes;
                if c.reduce {
                    stats.reductions_applied += 1;
                }
                if let Some(log) = &mut copy_log {
                    log.push(CopyLogEntry {
                        region: c.region,
                        src_mem: c.src_mem,
                        dst_mem: c.dst_mem,
                        src_node: machine.mem(c.src_mem).node,
                        dst_node: machine.mem(c.dst_mem).node,
                        bytes: c.bytes,
                        start_s: start,
                        end_s: end,
                        kind: if c.reduce {
                            CopyKind::ReduceApply
                        } else {
                            CopyKind::Data
                        },
                    });
                }
            }
            GNodeKind::Task(task) => {
                stats.tasks += 1;
                stats.total_flops += task.flops;
                stats.proc_busy_s[task.proc.0 as usize] += node.duration;
                let class = stats
                    .task_classes
                    .entry(task.kernel_name.as_ref().to_string())
                    .or_default();
                class.tasks += 1;
                class.flops += task.flops;
                class.busy_s += node.duration;
                if let Some(log) = &mut task_log {
                    log.push(TaskLogEntry {
                        kernel: task.kernel_name.as_ref().to_string(),
                        proc: task.proc.0,
                        flops: task.flops,
                        start_s: start,
                        end_s: end,
                    });
                }
            }
        }

        for &succ in &node.succs {
            let s = succ as usize;
            ready[s] = ready[s].max(end);
            indeg[s] -= 1;
            if indeg[s] == 0 {
                let mut est = ready[s];
                for r in graph.nodes[s].resources.iter().flatten() {
                    est = est.max(free[r.0 as usize]);
                }
                heap.push(Reverse(Key { t: est, seq: succ }));
            }
        }
    }

    stats.makespan_s = makespan;
    stats.copy_log = copy_log;
    stats.task_log = task_log;
    SimSchedule { order, stats }
}
