//! The mapper: binding abstract grid points to physical processors and
//! memories.
//!
//! DISTAL interfaces with a custom Legion mapper that "places data and
//! computation onto memories and processors" (paper Figure 3, contribution
//! 3). Here the mapper assigns the abstract machine grid's points to
//! physical processors rank-by-rank (node-major, so that trailing grid
//! dimensions stay within a node — GPUs in one node are grid neighbours and
//! communicate over NVLink), and resolves the memory in which each task
//! wants its region requirements.

use crate::error::CompileError;
use crate::machine::DistalMachine;
use distal_machine::spec::{MemKind, ProcKind};
use distal_runtime::topology::{MemId, PhysicalMachine, ProcId};

/// Maps abstract machine grid points onto physical processors.
#[derive(Clone, Debug)]
pub(crate) struct GridMapper {
    procs: Vec<ProcId>,
    proc_kind: ProcKind,
    /// For each node, its socket-0 system memory (host staging for GPUs).
    node_sysmem: Vec<MemId>,
    local_mems: Vec<MemId>,
    nodes_of: Vec<usize>,
}

impl GridMapper {
    /// Builds a mapper for an abstract machine on a physical one.
    ///
    /// # Errors
    ///
    /// Fails when the abstract grid needs more processors of the requested
    /// kind than the physical machine has.
    pub(crate) fn new(
        machine: &DistalMachine,
        phys: &PhysicalMachine,
    ) -> Result<Self, CompileError> {
        let procs = phys.procs_of_kind(machine.proc_kind);
        let required = machine.size();
        if required > procs.len() as i64 {
            return Err(CompileError::GridTooLarge {
                required,
                available: procs.len() as i64,
            });
        }
        let node_sysmem = (0..phys.nodes())
            .map(|n| phys.proc(phys.cpu_proc(n, 0)).local_mem)
            .collect();
        let local_mems = procs.iter().map(|p| phys.proc(*p).local_mem).collect();
        let nodes_of = procs.iter().map(|p| phys.proc(*p).node).collect();
        Ok(GridMapper {
            procs,
            proc_kind: machine.proc_kind,
            node_sysmem,
            local_mems,
            nodes_of,
        })
    }

    /// Physical processor for a rank.
    pub(crate) fn proc_for_rank(&self, rank: i64) -> ProcId {
        self.procs[rank as usize]
    }

    /// The memory in which a task on `proc` wants data of kind `kind`.
    ///
    /// GPUs asking for `Sys` memory get their node's host memory (the COSMA
    /// out-of-core staging pattern); CPUs asking for `Fb` fall back to their
    /// own system memory.
    pub(crate) fn mem_for(&self, rank: i64, kind: MemKind) -> MemId {
        let local = self.local_mems[rank as usize];
        match (self.proc_kind, kind) {
            (ProcKind::Gpu, MemKind::Fb) | (ProcKind::Cpu, MemKind::Sys) => local,
            (ProcKind::Gpu, _) => self.node_sysmem[self.nodes_of[rank as usize]],
            (ProcKind::Cpu, _) => local,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distal_machine::geom::Point;
    use distal_machine::grid::Grid;
    use distal_machine::spec::MachineSpec;

    #[test]
    fn gpu_grid_maps_node_major() {
        // 2 nodes x 4 GPUs; 2x4 grid: row 0 = node 0, row 1 = node 1.
        let phys = PhysicalMachine::new(MachineSpec::lassen(2));
        let m = DistalMachine::flat(Grid::grid2(2, 4), ProcKind::Gpu);
        let mapper = GridMapper::new(&m, &phys).unwrap();
        let grid = m.grid();
        let proc_at =
            |point: Vec<i64>| phys.proc(mapper.proc_for_rank(grid.linearize(&Point::new(point))));
        assert_eq!(proc_at(vec![0, 3]).node, 0);
        assert_eq!(proc_at(vec![1, 0]).node, 1);
        let p = proc_at(vec![1, 2]);
        assert_eq!(p.kind, ProcKind::Gpu);
        assert_eq!(p.local_index, 2);
    }

    #[test]
    fn grid_too_large_rejected() {
        let phys = PhysicalMachine::new(MachineSpec::lassen(1));
        let m = DistalMachine::flat(Grid::grid2(4, 4), ProcKind::Gpu);
        assert!(matches!(
            GridMapper::new(&m, &phys),
            Err(CompileError::GridTooLarge {
                required: 16,
                available: 4
            })
        ));
    }

    #[test]
    fn memory_resolution() {
        let phys = PhysicalMachine::new(MachineSpec::lassen(1));
        let m = DistalMachine::flat(Grid::line(4), ProcKind::Gpu);
        let mapper = GridMapper::new(&m, &phys).unwrap();
        // FB request -> the GPU's framebuffer.
        let fb = mapper.mem_for(2, MemKind::Fb);
        assert_eq!(phys.mem(fb).kind, MemKind::Fb);
        // Sys request from a GPU -> the node's host memory.
        let sys = mapper.mem_for(2, MemKind::Sys);
        assert_eq!(phys.mem(sys).kind, MemKind::Sys);
    }
}
