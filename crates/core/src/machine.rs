//! The abstract machine a computation is scheduled onto.

use distal_machine::grid::{Grid, MachineHierarchy};
use distal_machine::spec::ProcKind;

/// DISTAL's view of the target machine: a (possibly hierarchical) grid of
/// abstract processors of one kind (paper §3.1).
///
/// Schedules distribute loops over the *flattened* grid; formats may
/// distribute tensors per hierarchy level. The crate's grid mapper binds
/// abstract grid points to physical processors, filling the role of the
/// paper's custom Legion mapper.
#[derive(Clone, Debug)]
pub struct DistalMachine {
    /// The abstract grid hierarchy (e.g. nodes × GPUs-per-node).
    pub hierarchy: MachineHierarchy,
    /// Which physical processors the abstract processors stand for.
    pub proc_kind: ProcKind,
}

impl DistalMachine {
    /// A flat (single-level) machine grid.
    pub fn flat(grid: Grid, proc_kind: ProcKind) -> Self {
        DistalMachine {
            hierarchy: MachineHierarchy::flat(grid),
            proc_kind,
        }
    }

    /// A hierarchical machine (outermost level first).
    pub fn hierarchical(levels: Vec<Grid>, proc_kind: ProcKind) -> Self {
        DistalMachine {
            hierarchy: MachineHierarchy::new(levels),
            proc_kind,
        }
    }

    /// The flattened grid schedules distribute over.
    pub fn grid(&self) -> Grid {
        self.hierarchy.flat_grid()
    }

    /// Total abstract processors.
    pub fn size(&self) -> i64 {
        self.hierarchy.total_processors()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_and_hierarchical() {
        let m = DistalMachine::flat(Grid::grid2(4, 4), ProcKind::Gpu);
        assert_eq!(m.size(), 16);
        assert_eq!(m.grid(), Grid::grid2(4, 4));
        let h = DistalMachine::hierarchical(vec![Grid::grid2(2, 2), Grid::line(4)], ProcKind::Gpu);
        assert_eq!(h.size(), 16);
        assert_eq!(h.grid(), Grid::grid3(2, 2, 4));
    }
}
