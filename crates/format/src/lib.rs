//! Tensor distribution notation and formats (paper §3.2).
//!
//! Pipeline layer 1 (tensor registry) — `ARCHITECTURE.md` at the
//! workspace root maps all six layers.
//!
//! A tensor's *format* describes how it is stored — for DISTAL, how its
//! dimensions map onto the dimensions of a machine grid, and which memory
//! kind holds each piece. The mapping is written in *tensor distribution
//! notation*:
//!
//! ```text
//! T  x y  ↦  x y 0  M     (partition by both dims, fix to face 0)
//! T  x y  ↦  x y *  M     (partition by both dims, broadcast over z)
//! T  x y  ↦  x      M     (row-wise partition)
//! ```
//!
//! Dimension names shared between the tensor side and the machine side are
//! partitioned; machine dimensions named by a constant fix the partition to
//! that coordinate; `*` broadcasts it across the whole dimension.
//!
//! The semantics (paper §3.2) are the composition of an abstract
//! partitioning function `P : T → color` and a color-to-processors map
//! `F : color → M set`; both are implemented in [`semantics`]. `P` is
//! pluggable, as the paper notes: blocked (the default), element-cyclic
//! (`"xy->xy @cyclic"`), or ScaLAPACK-style block-cyclic (`"xy->xy @bc64"`)
//! — see [`notation::PartitionKind`].
//!
//! * [`notation`] — the syntax and validity of the notation (Figure 4);
//! * [`semantics`] — `P` and `F`, and the per-level pieces
//!   ([`semantics::hierarchical_pieces`]) both backends place data with;
//! * [`Format`] — a tensor's per-level distributions, memory kind and
//!   level formats (dense or compressed).
//!
//! # Example
//!
//! ```
//! use distal_format::TensorDistribution;
//! use distal_machine::{Grid, Rect};
//!
//! // Figure 5e: a 2x2 matrix replicated across the 3rd machine dimension.
//! let d = TensorDistribution::parse("xy->xy*").unwrap();
//! let m = Grid::new(vec![2, 2, 2]);
//! let t = Rect::sized(&[2, 2]);
//! // Tile (0, 1) lives on processors (0,1,0) AND (0,1,1).
//! let owners = d.owners_of(&t, &m, &[0, 1].to_vec().into());
//! assert_eq!(owners.len(), 2);
//! ```

#![forbid(unsafe_code)]

mod format;
pub mod notation;
pub mod semantics;

pub use format::{Format, LevelFormat};
pub use notation::{DimName, NotationError, PartitionKind, TensorDistribution};
