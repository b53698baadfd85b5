//! Machine models for DISTAL.
//!
//! Pipeline layer 1 (problem definition) — `ARCHITECTURE.md` at the
//! workspace root maps all six layers.
//!
//! DISTAL models a distributed machine as a multidimensional grid of abstract
//! processors, each with an associated local memory (paper §3.1). Grids may be
//! hierarchical: each abstract processor can itself be a machine (e.g. a grid
//! of nodes where every node is a grid of GPUs).
//!
//! This crate provides:
//!
//! * [`geom`] — points, rectangles and blocked partitioning arithmetic shared
//!   by the whole workspace,
//! * [`grid`] — the abstract machine grids of the format/scheduling languages,
//! * [`spec`] — *physical* machine descriptions (processor kinds, memory
//!   capacities, interconnect bandwidths) used by the runtime's cost model,
//!   including a calibrated model of the Lassen supercomputer used in the
//!   paper's evaluation.
//!
//! # Example
//!
//! ```
//! use distal_machine::grid::{Grid, MachineHierarchy};
//! use distal_machine::spec::MachineSpec;
//!
//! // A 4x4 grid of abstract processors, one per GPU of a 4-node machine.
//! let grid = Grid::new(vec![4, 4]);
//! assert_eq!(grid.points().count(), 16);
//!
//! // Nodes in a 2x2 grid, each node a 1-D grid of 4 GPUs.
//! let hier = MachineHierarchy::new(vec![Grid::new(vec![2, 2]), Grid::new(vec![4])]);
//! assert_eq!(hier.total_processors(), 16);
//!
//! // The physical machine the paper evaluates on.
//! let lassen = MachineSpec::lassen(4);
//! assert_eq!(lassen.nodes, 4);
//! ```

#![forbid(unsafe_code)]

pub mod geom;
pub mod grid;
pub mod spec;

/// Element size in bytes (all tensors are `f64`, as in the paper).
///
/// Every backend — the dynamic runtime's regions and the static SPMD
/// backend's messages — derives wire and memory sizes from this single
/// constant so the two can never disagree about volume accounting.
pub const ELEM_BYTES: u64 = 8;

pub use geom::{Point, Rect, RectSet};
pub use grid::{Grid, MachineHierarchy};
pub use spec::{MachineSpec, MemKind, NodeSpec, ProcKind};
