//! Physical machine topology: processors, memories, and channels.
//!
//! A [`PhysicalMachine`] instantiates a [`MachineSpec`] into concrete
//! processor and memory tables. Following the paper's evaluation setup, each
//! CPU *socket* is one abstract processor with its own system-memory slice,
//! and each GPU is one processor with its own framebuffer memory. One extra
//! unbounded `Global` staging memory holds functional-mode input data before
//! placement.

use distal_machine::spec::{MachineSpec, MemKind, ProcKind};
use std::fmt;

/// Identifier of a physical processor.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u32);

impl fmt::Debug for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Identifier of a physical memory.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemId(pub u32);

impl fmt::Debug for MemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

/// A physical processor.
#[derive(Clone, Debug)]
pub struct Processor {
    /// This processor's id.
    pub id: ProcId,
    /// CPU socket or GPU.
    pub kind: ProcKind,
    /// Node index in `[0, spec.nodes)`.
    pub node: usize,
    /// Index of this processor within its node (socket index or GPU index).
    pub local_index: usize,
    /// The memory local to this processor (socket DRAM slice or GPU FB).
    pub local_mem: MemId,
}

/// A physical memory.
#[derive(Clone, Debug)]
pub struct Memory {
    /// This memory's id.
    pub id: MemId,
    /// System, framebuffer, or staging memory.
    pub kind: MemKind,
    /// Node index; `usize::MAX` for the global staging memory.
    pub node: usize,
    /// Capacity in bytes.
    pub capacity: u64,
}

/// The physical machine: processors, memories, and the channel cost model.
#[derive(Clone, Debug)]
pub struct PhysicalMachine {
    /// The spec this machine was built from.
    pub spec: MachineSpec,
    procs: Vec<Processor>,
    mems: Vec<Memory>,
    global_mem: MemId,
}

impl PhysicalMachine {
    /// Builds the processor/memory tables for a spec.
    ///
    /// Per node, processors are laid out as: CPU sockets first, then GPUs.
    pub fn new(spec: MachineSpec) -> Self {
        let mut procs = Vec::new();
        let mut mems = Vec::new();
        for node in 0..spec.nodes {
            for s in 0..spec.node.cpu_sockets {
                let mem = MemId(mems.len() as u32);
                mems.push(Memory {
                    id: mem,
                    kind: MemKind::Sys,
                    node,
                    capacity: spec.mem_capacity(MemKind::Sys),
                });
                procs.push(Processor {
                    id: ProcId(procs.len() as u32),
                    kind: ProcKind::Cpu,
                    node,
                    local_index: s,
                    local_mem: mem,
                });
            }
            for g in 0..spec.node.gpus {
                let mem = MemId(mems.len() as u32);
                mems.push(Memory {
                    id: mem,
                    kind: MemKind::Fb,
                    node,
                    capacity: spec.mem_capacity(MemKind::Fb),
                });
                procs.push(Processor {
                    id: ProcId(procs.len() as u32),
                    kind: ProcKind::Gpu,
                    node,
                    local_index: g,
                    local_mem: mem,
                });
            }
        }
        let global_mem = MemId(mems.len() as u32);
        mems.push(Memory {
            id: global_mem,
            kind: MemKind::Global,
            node: usize::MAX,
            capacity: u64::MAX,
        });
        PhysicalMachine {
            spec,
            procs,
            mems,
            global_mem,
        }
    }

    /// All processors.
    pub(crate) fn procs(&self) -> &[Processor] {
        &self.procs
    }

    /// All memories (the last one is the global staging memory).
    pub fn mems(&self) -> &[Memory] {
        &self.mems
    }

    /// Processor lookup.
    pub fn proc(&self, id: ProcId) -> &Processor {
        &self.procs[id.0 as usize]
    }

    /// Memory lookup.
    pub fn mem(&self, id: MemId) -> &Memory {
        &self.mems[id.0 as usize]
    }

    /// The unbounded staging memory.
    pub(crate) fn global_mem(&self) -> MemId {
        self.global_mem
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.spec.nodes
    }

    /// The `socket`-th CPU processor of `node`.
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of range.
    pub fn cpu_proc(&self, node: usize, socket: usize) -> ProcId {
        assert!(node < self.spec.nodes && socket < self.spec.node.cpu_sockets);
        let per_node = self.spec.node.cpu_sockets + self.spec.node.gpus;
        ProcId((node * per_node + socket) as u32)
    }

    /// The `gpu`-th GPU processor of `node`.
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of range.
    pub fn gpu_proc(&self, node: usize, gpu: usize) -> ProcId {
        assert!(node < self.spec.nodes && gpu < self.spec.node.gpus);
        let per_node = self.spec.node.cpu_sockets + self.spec.node.gpus;
        ProcId((node * per_node + self.spec.node.cpu_sockets + gpu) as u32)
    }

    /// All processors of one kind, in node-major order.
    pub fn procs_of_kind(&self, kind: ProcKind) -> Vec<ProcId> {
        self.procs
            .iter()
            .filter(|p| p.kind == kind)
            .map(|p| p.id)
            .collect()
    }

    /// Transfer duration in seconds of `bytes` between two memories.
    pub(crate) fn copy_time_s(&self, src: MemId, dst: MemId, bytes: u64) -> f64 {
        let (s, d) = (self.mem(src), self.mem(dst));
        let same_node = s.node == d.node;
        let gbs = self.spec.channel_gbs(s.kind, d.kind, same_node);
        let lat = self.spec.channel_latency_s(s.kind, d.kind, same_node);
        if gbs.is_infinite() {
            return 0.0;
        }
        lat + bytes as f64 / (gbs * 1e9)
    }

    /// Classifies a copy for the statistics report.
    pub(crate) fn channel_class(&self, src: MemId, dst: MemId) -> crate::stats::ChannelClass {
        use crate::stats::ChannelClass;
        let (s, d) = (self.mem(src), self.mem(dst));
        if s.kind == MemKind::Global || d.kind == MemKind::Global {
            ChannelClass::Staging
        } else if s.node != d.node {
            ChannelClass::InterNode
        } else if s.kind == MemKind::Fb && d.kind == MemKind::Fb {
            ChannelClass::IntraNodeNvlink
        } else if s.kind != d.kind {
            ChannelClass::HostDevice
        } else {
            ChannelClass::IntraNodeSys
        }
    }

    /// Model-mode duration of a leaf task: fixed runtime overhead plus a
    /// roofline term over the processor's compute and memory throughput.
    pub(crate) fn task_time_s(&self, proc: ProcId, flops: f64, bytes: f64, efficiency: f64) -> f64 {
        let kind = self.proc(proc).kind;
        let gflops = self.spec.proc_gflops(kind) * efficiency;
        let membw = match kind {
            ProcKind::Cpu => self.spec.node.intra_cpu_gbs,
            ProcKind::Gpu => 900.0,
        };
        let compute = flops / (gflops * 1e9);
        let memory = bytes / (membw * 1e9);
        self.spec.task_overhead_s + compute.max(memory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> PhysicalMachine {
        PhysicalMachine::new(MachineSpec::lassen(2))
    }

    #[test]
    fn builds_expected_processor_layout() {
        let m = machine();
        // 2 nodes x (2 sockets + 4 GPUs) = 12 processors.
        assert_eq!(m.procs().len(), 12);
        // 12 local memories + 1 global staging memory.
        assert_eq!(m.mems().len(), 13);
        assert_eq!(m.proc(m.cpu_proc(1, 0)).node, 1);
        assert_eq!(m.proc(m.cpu_proc(1, 0)).kind, ProcKind::Cpu);
        assert_eq!(m.proc(m.gpu_proc(0, 3)).kind, ProcKind::Gpu);
        assert_eq!(m.proc(m.gpu_proc(0, 3)).local_index, 3);
        assert_eq!(m.procs_of_kind(ProcKind::Gpu).len(), 8);
    }

    #[test]
    fn local_memory_kinds() {
        let m = machine();
        let cpu = m.proc(m.cpu_proc(0, 1));
        assert_eq!(m.mem(cpu.local_mem).kind, MemKind::Sys);
        let gpu = m.proc(m.gpu_proc(1, 2));
        assert_eq!(m.mem(gpu.local_mem).kind, MemKind::Fb);
        assert_eq!(m.mem(m.global_mem()).kind, MemKind::Global);
    }

    #[test]
    fn copy_times_respect_channels() {
        let m = machine();
        let fb0 = m.proc(m.gpu_proc(0, 0)).local_mem;
        let fb1 = m.proc(m.gpu_proc(0, 1)).local_mem;
        let fb_remote = m.proc(m.gpu_proc(1, 0)).local_mem;
        let bytes = 1 << 30;
        let nvlink = m.copy_time_s(fb0, fb1, bytes);
        let nic = m.copy_time_s(fb0, fb_remote, bytes);
        assert!(nic > nvlink * 3.0, "nic={nic} nvlink={nvlink}");
        // Staging copies are free.
        assert_eq!(m.copy_time_s(m.global_mem(), fb0, bytes), 0.0);
    }

    #[test]
    fn task_time_roofline() {
        let m = machine();
        let gpu = m.gpu_proc(0, 0);
        // Compute bound: 7 TFLOP at 7 TFLOP/s ≈ 1 s.
        let t = m.task_time_s(gpu, 7e12, 0.0, 1.0);
        assert!((t - 1.0).abs() < 0.01, "{t}");
        // Memory bound term dominates when bytes are large.
        let t2 = m.task_time_s(gpu, 1.0, 900e9, 1.0);
        assert!((t2 - 1.0).abs() < 0.01, "{t2}");
    }
}
