//! Programs: the instruction stream the compiler hands to the runtime.
//!
//! A [`Program`] is an ordered list of operations, mirroring a Legion
//! program: fills, index task launches (the parallel-for construct of
//! §6.1; one task is a one-point launch), barriers (a bulk-synchronous
//! lowering's, for systems that do not overlap communication with
//! computation), and scratch-discard hints that model
//! Legion instance reclamation for systolic double-buffering.
//!
//! Tasks name the *rectangles* of the regions they touch and the privilege
//! with which they touch them; the runtime inserts all communication
//! implicitly from these requirements.

use crate::kernel::Kernel;
use crate::region::RegionId;
use crate::topology::{MemId, ProcId};
use distal_machine::geom::{Point, Rect};
use std::fmt;
use std::sync::Arc;

/// Index of a kernel in a program's kernel table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KernelId(pub u32);

/// Privilege with which a task accesses a region requirement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Privilege {
    /// Read existing data.
    Read,
    /// Overwrite without reading (discard previous contents).
    Write,
    /// Read and update in place.
    ReadWrite,
    /// Sum-reduce into the region; multiple reducers may run in parallel
    /// through private reduction instances folded on the next read.
    Reduce,
}

/// One region requirement of a task.
#[derive(Clone, Debug)]
pub struct RegionReq {
    /// The region touched.
    pub region: RegionId,
    /// The rectangle touched.
    pub rect: Rect,
    /// Access privilege.
    pub privilege: Privilege,
    /// Memory in which the task wants the data materialized (chosen by the
    /// mapper layer).
    pub mem: MemId,
    /// Pin the materialized instance as a *home* instance (used by data
    /// placement launches, whose copies must survive scratch discards).
    pub pin: bool,
}

impl RegionReq {
    /// An unpinned requirement.
    pub fn new(region: RegionId, rect: Rect, privilege: Privilege, mem: MemId) -> Self {
        RegionReq {
            region,
            rect,
            privilege,
            mem,
            pin: false,
        }
    }
}

/// A single (point) task.
#[derive(Clone, Debug)]
pub struct TaskDesc {
    /// Kernel to run (index into [`Program::kernels`]).
    pub kernel: KernelId,
    /// Processor the mapper placed this task on.
    pub proc: ProcId,
    /// The launch-domain point of this task (for debugging/statistics).
    pub point: Point,
    /// Region requirements, in the order the kernel expects.
    pub reqs: Vec<RegionReq>,
    /// Floating-point work of the task (for the cost model).
    pub flops: f64,
    /// Bytes the task streams from its local memory (roofline term for
    /// bandwidth-bound kernels).
    pub bytes: f64,
    /// Fraction of peak the leaf kernel achieves (e.g. ~0.95 for GEMM).
    pub efficiency: f64,
    /// Scalar arguments forwarded to the kernel.
    pub scalars: Vec<i64>,
}

impl TaskDesc {
    /// A task with default cost fields, useful in tests.
    pub fn new(kernel: KernelId, proc: ProcId, point: Point, reqs: Vec<RegionReq>) -> Self {
        TaskDesc {
            kernel,
            proc,
            point,
            reqs,
            flops: 0.0,
            bytes: 0.0,
            efficiency: 1.0,
            scalars: Vec::new(),
        }
    }
}

/// A collection of point tasks launched together; tasks of one launch are
/// independent and may run in parallel (like a Legion index task launch).
#[derive(Clone, Debug)]
pub struct IndexLaunch {
    /// Debug name.
    pub name: String,
    /// The point tasks.
    pub tasks: Vec<TaskDesc>,
}

/// One operation of a program.
#[derive(Clone, Debug)]
pub enum Op {
    /// Initialize an entire region to a constant (creates a valid staging
    /// instance; placement tasks then move it where formats dictate).
    Fill { region: RegionId, value: f64 },
    /// Run a set of independent point tasks.
    IndexLaunch(IndexLaunch),
    /// Execution barrier: everything before completes before anything after
    /// starts. A bulk-synchronous lowering ends every compute launch with
    /// one: the ScaLAPACK/CTF baselines, which do not overlap
    /// communication with computation (§7.1.1).
    Barrier,
    /// Retire scratch (fetched) instances of `region` older than the
    /// `keep_recent` most recent generations, freeing their memory. Models
    /// the bounded buffering of systolic algorithms.
    DiscardScratch { region: RegionId, keep_recent: u64 },
}

/// A complete program: operations plus the kernel table they reference.
#[derive(Clone, Default)]
pub struct Program {
    /// The operations in program order.
    pub ops: Vec<Op>,
    /// Kernels referenced by tasks.
    pub kernels: Vec<Arc<dyn Kernel>>,
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Program ({} ops, {} kernels):",
            self.ops.len(),
            self.kernels.len()
        )?;
        for (i, op) in self.ops.iter().enumerate() {
            match op {
                Op::Fill { region, value } => writeln!(f, "  [{i}] fill {region:?} = {value}")?,
                Op::IndexLaunch(l) => writeln!(
                    f,
                    "  [{i}] index launch '{}' with {} point tasks",
                    l.name,
                    l.tasks.len()
                )?,
                Op::Barrier => writeln!(f, "  [{i}] barrier")?,
                Op::DiscardScratch {
                    region,
                    keep_recent,
                } => writeln!(f, "  [{i}] discard scratch {region:?} keep {keep_recent}")?,
            }
        }
        Ok(())
    }
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Registers a kernel and returns its id.
    pub fn register_kernel(&mut self, kernel: Arc<dyn Kernel>) -> KernelId {
        self.kernels.push(kernel);
        KernelId(self.kernels.len() as u32 - 1)
    }

    /// Appends an operation.
    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// Total number of point tasks across all launches.
    pub fn task_count(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                Op::IndexLaunch(l) => l.tasks.len(),
                _ => 0,
            })
            .sum()
    }
}

/// A launch of the one task `task`: how the crate's tests run a task.
#[cfg(test)]
pub(crate) fn one_task(task: TaskDesc) -> Op {
    Op::IndexLaunch(IndexLaunch {
        name: "task".into(),
        tasks: vec![task],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::NoopKernel;

    #[test]
    fn program_building_and_counts() {
        let mut p = Program::new();
        let k = p.register_kernel(Arc::new(NoopKernel));
        assert_eq!(k, KernelId(0));
        p.push(Op::Fill {
            region: RegionId(0),
            value: 0.0,
        });
        p.push(one_task(TaskDesc::new(
            k,
            ProcId(0),
            Point::zeros(1),
            vec![],
        )));
        p.push(Op::IndexLaunch(IndexLaunch {
            name: "l".into(),
            tasks: vec![
                TaskDesc::new(k, ProcId(0), Point::zeros(1), vec![]),
                TaskDesc::new(k, ProcId(1), Point::zeros(1), vec![]),
            ],
        }));
        assert_eq!(p.task_count(), 3);
        let dbg = format!("{p:?}");
        assert!(dbg.contains("index launch 'l'"));
    }
}
