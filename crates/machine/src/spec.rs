//! Physical machine specifications and cost-model parameters.
//!
//! The paper evaluates on the Lassen supercomputer: each node has a dual
//! socket IBM Power9 CPU (40 available cores), four NVIDIA V100 GPUs
//! connected by NVLink 2.0, and an InfiniBand EDR interconnect (§7).
//!
//! [`MachineSpec`] captures the parameters the runtime's discrete-event
//! simulator needs: per-processor throughput, memory capacities, and
//! per-channel bandwidth/latency. [`MachineSpec::lassen`] is calibrated to
//! the single-node numbers reported in the paper:
//!
//! * CPU peak ≈ 750 GFLOP/s per node (Figure 15a's peak-utilization line);
//! * GPU peak ≈ 28 TFLOP/s per node (4 × ~7 TFLOP/s fp64, Figure 15b);
//! * NVLink 2.0 intra-node GPU links;
//! * inter-node peak 25 GB/s, with Legion's DMA reaching only 18 GB/s when
//!   data resides in GPU framebuffer memory (§7.1.2) — modelled by
//!   [`MachineSpec::gpu_fb_dma_efficiency`].

/// The kind of a physical processor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProcKind {
    /// A CPU socket (the paper models each CPU socket as one abstract
    /// processor, §7.1.1).
    Cpu,
    /// A single GPU.
    Gpu,
}

impl std::fmt::Display for ProcKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcKind::Cpu => write!(f, "CPU"),
            ProcKind::Gpu => write!(f, "GPU"),
        }
    }
}

/// The kind of a physical memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// Host DRAM attached to a CPU socket.
    Sys,
    /// GPU framebuffer (HBM) memory.
    Fb,
    /// An unbounded staging memory used to hold functional-mode input data
    /// before placement; copies from it are not charged to the interconnect.
    Global,
}

impl std::fmt::Display for MemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemKind::Sys => write!(f, "SYS_MEM"),
            MemKind::Fb => write!(f, "GPU_FB_MEM"),
            MemKind::Global => write!(f, "GLOBAL_MEM"),
        }
    }
}

/// Per-node hardware description.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeSpec {
    /// CPU sockets per node.
    pub cpu_sockets: usize,
    /// Worker cores per socket.
    pub cores_per_socket: usize,
    /// GPUs per node.
    pub gpus: usize,
    /// Peak double-precision GFLOP/s of one CPU socket (all its cores). A
    /// task runs at the peak times its leaf's efficiency, so a system whose
    /// leaves reach another fraction is a machine with the peaks scaled.
    pub cpu_socket_gflops: f64,
    /// Peak double-precision GFLOP/s of one GPU.
    pub gpu_gflops: f64,
    /// Host DRAM capacity per node, bytes.
    pub sysmem_bytes: u64,
    /// Framebuffer capacity per GPU, bytes.
    pub fb_bytes: u64,
    /// GPU↔GPU NVLink bandwidth within a node, GB/s.
    pub nvlink_gbs: f64,
    /// Host↔GPU transfer bandwidth, GB/s.
    pub host_dev_gbs: f64,
    /// CPU socket↔socket (and sysmem↔sysmem) intra-node bandwidth, GB/s.
    pub intra_cpu_gbs: f64,
}

/// A full machine: `nodes` copies of [`NodeSpec`] joined by an interconnect.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineSpec {
    /// Number of nodes.
    pub nodes: usize,
    /// Per-node hardware.
    pub node: NodeSpec,
    /// Peak inter-node bandwidth per NIC direction, GB/s.
    pub internode_gbs: f64,
    /// Inter-node message latency, seconds.
    pub internode_latency_s: f64,
    /// Intra-node copy latency, seconds.
    pub intranode_latency_s: f64,
    /// Fraction of `internode_gbs` achievable when the source or destination
    /// is GPU framebuffer memory (§7.1.2 reports 18/25 GB/s for Legion).
    pub gpu_fb_dma_efficiency: f64,
    /// Fixed per-task runtime overhead, seconds (Legion dynamic dependence
    /// analysis; the paper allocates 4 of 40 cores per node to it).
    pub task_overhead_s: f64,
    /// Per reduction-instance folding overhead, seconds. Models the Legion
    /// cost "algorithms used within Legion to manage the situation where
    /// portions of regions are replicated onto many nodes" (§7.2.2, MTTKRP).
    pub reduction_fold_overhead_s: f64,
    /// Fraction of each socket's cores available for application work
    /// (DISTAL reserves cores for the runtime: 36/40 on Lassen, §7.1.1).
    pub cpu_worker_fraction: f64,
}

impl NodeSpec {
    /// A Lassen node: dual-socket Power9 (40 available cores), 4 × V100.
    pub(crate) fn lassen() -> Self {
        NodeSpec {
            cpu_sockets: 2,
            cores_per_socket: 20,
            gpus: 4,
            // Figure 15a peak-utilization ≈ 750 GFLOP/s per node.
            cpu_socket_gflops: 375.0,
            // Figure 15b peak-utilization ≈ 28 TFLOP/s per node (4 GPUs).
            gpu_gflops: 7_000.0,
            sysmem_bytes: 256 * (1 << 30),
            fb_bytes: 16 * (1 << 30),
            nvlink_gbs: 75.0,
            host_dev_gbs: 32.0,
            intra_cpu_gbs: 110.0,
        }
    }

    /// Total peak GFLOP/s of the node's CPU sockets.
    pub fn cpu_node_gflops(&self) -> f64 {
        self.cpu_socket_gflops * self.cpu_sockets as f64
    }

    /// Total peak GFLOP/s of the node's GPUs.
    pub fn gpu_node_gflops(&self) -> f64 {
        self.gpu_gflops * self.gpus as f64
    }
}

impl MachineSpec {
    /// The Lassen supercomputer model with `nodes` nodes.
    ///
    /// The GPU framebuffer DMA efficiency models the Legion shortcoming the
    /// paper reports (§7.1.2): a single stream reaches 18/25 GB/s, and with
    /// a node's four GPUs contending, sustained aggregate traffic calibrates
    /// to 10/25 GB/s — which reproduces Figure 15b's communication-bound
    /// regime and its COSMA crossover.
    ///
    /// # Example
    ///
    /// ```
    /// use distal_machine::spec::MachineSpec;
    /// let m = MachineSpec::lassen(256);
    /// assert_eq!(m.nodes, 256);
    /// assert_eq!(m.node.gpus, 4);
    /// ```
    pub fn lassen(nodes: usize) -> Self {
        MachineSpec {
            nodes,
            node: NodeSpec::lassen(),
            internode_gbs: 25.0,
            internode_latency_s: 5e-6,
            intranode_latency_s: 1e-6,
            gpu_fb_dma_efficiency: 10.0 / 25.0,
            task_overhead_s: 30e-6,
            reduction_fold_overhead_s: 120e-6,
            cpu_worker_fraction: 36.0 / 40.0,
        }
    }

    /// A small, fast, laptop-scale machine used by tests and examples.
    pub fn small(nodes: usize) -> Self {
        let mut m = MachineSpec::lassen(nodes);
        m.node.sysmem_bytes = 8 * (1 << 30);
        m.node.fb_bytes = 2 * (1 << 30);
        m
    }

    /// Replaces the hardcoded per-socket CPU rate with a measured one —
    /// the calibration hook the kernel benchmark feeds with the flop rate
    /// its generated leaves actually sustain on the host, so cost-model
    /// pricing (`proc_gflops`, task durations) reflects real per-core
    /// throughput instead of the Lassen constant.
    ///
    /// # Example
    ///
    /// ```
    /// use distal_machine::spec::{MachineSpec, ProcKind};
    /// let m = MachineSpec::small(2).with_cpu_socket_gflops(42.0);
    /// assert_eq!(m.node.cpu_socket_gflops, 42.0);
    /// assert!(m.proc_gflops(ProcKind::Cpu) < 42.0); // worker fraction
    /// ```
    #[must_use]
    pub fn with_cpu_socket_gflops(mut self, gflops: f64) -> Self {
        self.node.cpu_socket_gflops = gflops;
        self
    }

    /// Total CPU sockets across the machine.
    pub fn total_cpu_sockets(&self) -> usize {
        self.nodes * self.node.cpu_sockets
    }

    /// Total GPUs across the machine.
    pub fn total_gpus(&self) -> usize {
        self.nodes * self.node.gpus
    }

    /// Effective GFLOP/s of one processor of the given kind, after reserving
    /// runtime cores on CPUs.
    pub fn proc_gflops(&self, kind: ProcKind) -> f64 {
        match kind {
            ProcKind::Cpu => self.node.cpu_socket_gflops * self.cpu_worker_fraction,
            ProcKind::Gpu => self.node.gpu_gflops,
        }
    }

    /// Bandwidth in GB/s for a copy between two memories.
    ///
    /// `same_node` says whether source and destination live on one node.
    pub fn channel_gbs(&self, src: MemKind, dst: MemKind, same_node: bool) -> f64 {
        use MemKind::*;
        match (src, dst) {
            // Staging memory: modelled as free (placement phase only).
            (Global, _) | (_, Global) => f64::INFINITY,
            _ if !same_node => {
                let fb_involved = src == Fb || dst == Fb;
                if fb_involved {
                    self.internode_gbs * self.gpu_fb_dma_efficiency
                } else {
                    self.internode_gbs
                }
            }
            (Fb, Fb) => self.node.nvlink_gbs,
            (Sys, Fb) | (Fb, Sys) => self.node.host_dev_gbs,
            (Sys, Sys) => self.node.intra_cpu_gbs,
        }
    }

    /// Latency in seconds for a copy between two memories.
    pub fn channel_latency_s(&self, src: MemKind, dst: MemKind, same_node: bool) -> f64 {
        if src == MemKind::Global || dst == MemKind::Global {
            0.0
        } else if same_node {
            self.intranode_latency_s
        } else {
            self.internode_latency_s
        }
    }

    /// Capacity in bytes of a memory of the given kind.
    pub fn mem_capacity(&self, kind: MemKind) -> u64 {
        match kind {
            MemKind::Sys => self.node.sysmem_bytes / self.node.cpu_sockets as u64,
            MemKind::Fb => self.node.fb_bytes,
            MemKind::Global => u64::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lassen_calibration() {
        let m = MachineSpec::lassen(1);
        // Single-node CPU peak near the paper's ~750 GFLOP/s line.
        let cpu_peak = m.node.cpu_node_gflops();
        assert!((700.0..800.0).contains(&cpu_peak), "{cpu_peak}");
        // Single-node GPU peak near ~28 TFLOP/s.
        let gpu_peak = m.node.gpu_node_gflops();
        assert!((26_000.0..30_000.0).contains(&gpu_peak), "{gpu_peak}");
        // DISTAL's CPU workers are 36/40 of the node.
        let eff = m.proc_gflops(ProcKind::Cpu) * m.node.cpu_sockets as f64;
        assert!((eff / cpu_peak - 0.9).abs() < 1e-9);
    }

    #[test]
    fn channel_model_matches_paper() {
        let m = MachineSpec::lassen(2);
        // Framebuffer-resident inter-node copies are penalized (the paper's
        // Legion DMA shortcoming; calibrated to 10/25 GB/s sustained).
        let fb = m.channel_gbs(MemKind::Fb, MemKind::Fb, false);
        assert!((fb - 10.0).abs() < 1e-9, "{fb}");
        // CPU-resident inter-node copies reach the full 25 GB/s.
        assert_eq!(m.channel_gbs(MemKind::Sys, MemKind::Sys, false), 25.0);
        // NVLink within a node is much faster than the NIC.
        assert!(m.channel_gbs(MemKind::Fb, MemKind::Fb, true) > 2.0 * fb);
        // Global staging memory is free.
        assert!(m
            .channel_gbs(MemKind::Global, MemKind::Fb, false)
            .is_infinite());
        assert_eq!(
            m.channel_latency_s(MemKind::Global, MemKind::Fb, false),
            0.0
        );
    }

    #[test]
    fn capacities() {
        let m = MachineSpec::lassen(1);
        assert_eq!(m.mem_capacity(MemKind::Fb), 16 * (1 << 30));
        assert_eq!(m.mem_capacity(MemKind::Global), u64::MAX);
        assert_eq!(m.total_gpus(), 4);
        assert_eq!(m.total_cpu_sockets(), 2);
    }

    #[test]
    fn latency_scales_with_distance() {
        let m = MachineSpec::lassen(2);
        assert!(
            m.channel_latency_s(MemKind::Fb, MemKind::Fb, false)
                > m.channel_latency_s(MemKind::Fb, MemKind::Fb, true)
        );
    }
}
