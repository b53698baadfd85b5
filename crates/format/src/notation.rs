//! Syntax and validity of tensor distribution notation (Figure 4).
//!
//! A statement `T X ↦ Y M` names each dimension of the tensor `T` (the
//! sequence `X`) and each dimension of the machine `M` (the sequence `Y`).
//! Entries of `Y` are either a dimension *variable* (which must appear in
//! `X`), a *constant* (fixing the partition to that machine coordinate), or
//! `*` (broadcasting across the dimension).
//!
//! Validity (paper §3.2): `|X| = dim T`, `|Y| = dim M`, no duplicate names
//! in `X` or `Y`, and all names in `Y` appear in `X`.

use std::collections::BTreeSet;
use std::fmt;

/// The abstract partitioning function `P` applied to each partitioned
/// dimension (paper §3.2).
///
/// The paper's formalization deliberately leaves `P` pluggable: *"We choose
/// to use a blocked partitioning function ... However, other functions such
/// as a cyclic distribution that maps adjacent coordinates to different
/// colors could also be used."* This enum realizes that choice. All three
/// kinds are special cases of block-cyclic with block width `b`:
/// coordinate `x` is in block `⌊x / b⌋`, and block `j` colors to
/// `j mod parts`.
///
/// * [`Blocked`](PartitionKind::Blocked) — `b = ⌈extent / parts⌉`: one
///   contiguous block per machine coordinate (the paper's default).
/// * [`Cyclic`](PartitionKind::Cyclic) — `b = 1`: adjacent coordinates go
///   to different machine coordinates (classic round-robin dealing).
/// * [`BlockCyclic`](PartitionKind::BlockCyclic) — explicit `b`: the
///   ScaLAPACK family's layout, balancing load for triangular access
///   patterns while keeping per-message granularity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionKind {
    /// Contiguous equal blocks (the paper's default `P`).
    Blocked,
    /// Round-robin single elements.
    Cyclic,
    /// Round-robin blocks of the given width.
    BlockCyclic {
        /// Block width (≥ 1).
        block: i64,
    },
}

impl PartitionKind {
    /// The block width `b` for a dimension of `extent` split `parts` ways.
    pub fn block_width(self, extent: i64, parts: i64) -> i64 {
        match self {
            PartitionKind::Blocked => (extent + parts - 1) / parts.max(1),
            PartitionKind::Cyclic => 1,
            PartitionKind::BlockCyclic { block } => block,
        }
        .max(1)
    }
}

impl fmt::Display for PartitionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionKind::Blocked => Ok(()),
            PartitionKind::Cyclic => write!(f, " @cyclic"),
            PartitionKind::BlockCyclic { block } => write!(f, " @bc{block}"),
        }
    }
}

/// One machine-side dimension name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DimName {
    /// A named dimension, shared with the tensor side.
    Var(String),
    /// Fix the partition to this coordinate of the machine dimension.
    Const(i64),
    /// Broadcast the partition across the machine dimension (`*`).
    Broadcast,
}

impl fmt::Display for DimName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimName::Var(v) => write!(f, "{v}"),
            DimName::Const(c) => write!(f, "{c}"),
            DimName::Broadcast => write!(f, "*"),
        }
    }
}

/// Errors from constructing tensor distribution notation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NotationError {
    /// A name appears twice on one side.
    DuplicateName(String),
    /// A machine-side variable is missing from the tensor side.
    UnboundMachineName(String),
    /// Parse failure.
    Parse(String),
    /// A block-cyclic block width must be at least 1.
    BadBlockSize(i64),
    /// The statement's arity doesn't match the tensor or machine.
    ArityMismatch {
        /// What didn't match ("tensor" or "machine").
        side: &'static str,
        /// Dimensions the notation names.
        notation: usize,
        /// Dimensions the object has.
        object: usize,
    },
}

impl fmt::Display for NotationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NotationError::DuplicateName(n) => write!(f, "duplicate dimension name '{n}'"),
            NotationError::UnboundMachineName(n) => {
                write!(
                    f,
                    "machine dimension '{n}' does not name a tensor dimension"
                )
            }
            NotationError::Parse(m) => write!(f, "parse error: {m}"),
            NotationError::BadBlockSize(b) => {
                write!(f, "block-cyclic block width must be positive, got {b}")
            }
            NotationError::ArityMismatch {
                side,
                notation,
                object,
            } => write!(
                f,
                "notation names {notation} {side} dimensions but the {side} has {object}"
            ),
        }
    }
}

impl std::error::Error for NotationError {}

/// A tensor distribution notation statement `T X ↦ Y M`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TensorDistribution {
    /// Tensor-side dimension names (`X`), one per tensor dimension.
    pub tensor_dims: Vec<String>,
    /// Machine-side entries (`Y`), one per machine dimension.
    pub machine_dims: Vec<DimName>,
    /// The partitioning function `P` applied to partitioned dimensions.
    pub partition: PartitionKind,
}

impl fmt::Display for TensorDistribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.tensor_dims {
            write!(f, "{d}")?;
        }
        write!(f, " ↦ ")?;
        for d in &self.machine_dims {
            write!(f, "{d}")?;
        }
        write!(f, "{}", self.partition)
    }
}

impl TensorDistribution {
    /// Creates and validates a distribution.
    ///
    /// # Errors
    ///
    /// Enforces the validity rules of §3.2.
    pub fn new(
        tensor_dims: Vec<String>,
        machine_dims: Vec<DimName>,
    ) -> Result<Self, NotationError> {
        let mut seen = BTreeSet::new();
        for d in &tensor_dims {
            if !seen.insert(d.clone()) {
                return Err(NotationError::DuplicateName(d.clone()));
            }
        }
        let mut mseen = BTreeSet::new();
        for d in &machine_dims {
            if let DimName::Var(v) = d {
                if !mseen.insert(v.clone()) {
                    return Err(NotationError::DuplicateName(v.clone()));
                }
                if !tensor_dims.contains(v) {
                    return Err(NotationError::UnboundMachineName(v.clone()));
                }
            }
        }
        Ok(TensorDistribution {
            tensor_dims,
            machine_dims,
            partition: PartitionKind::Blocked,
        })
    }

    /// Replaces the partitioning function (builder style).
    ///
    /// # Errors
    ///
    /// Rejects non-positive block-cyclic block widths.
    ///
    /// # Example
    ///
    /// ```
    /// use distal_format::notation::{PartitionKind, TensorDistribution};
    /// let d = TensorDistribution::parse("xy->xy")
    ///     .unwrap()
    ///     .with_partition(PartitionKind::Cyclic)
    ///     .unwrap();
    /// assert_eq!(d.partition, PartitionKind::Cyclic);
    /// ```
    pub fn with_partition(mut self, kind: PartitionKind) -> Result<Self, NotationError> {
        if let PartitionKind::BlockCyclic { block } = kind {
            if block < 1 {
                return Err(NotationError::BadBlockSize(block));
            }
        }
        self.partition = kind;
        Ok(self)
    }

    /// Parses compact notation like `"xy->xy0*"`: single-letter dimension
    /// names, single digits for constants, `*` for broadcast. An optional
    /// suffix selects the partitioning function: `"xy->xy @cyclic"` for
    /// element-cyclic, `"xy->xy @bc4"` for block-cyclic with width 4.
    ///
    /// # Errors
    ///
    /// Propagates validity errors and malformed syntax.
    ///
    /// # Example
    ///
    /// ```
    /// use distal_format::notation::{DimName, TensorDistribution};
    /// let d = TensorDistribution::parse("xz->x0z").unwrap();
    /// assert_eq!(d.machine_dims[1], DimName::Const(0));
    /// ```
    pub fn parse(input: &str) -> Result<Self, NotationError> {
        let (lhs, rhs) = input
            .split_once("->")
            .ok_or_else(|| NotationError::Parse("expected '->'".into()))?;
        let (rhs, partition) = match rhs.split_once('@') {
            None => (rhs, PartitionKind::Blocked),
            Some((dims, suffix)) => {
                let suffix = suffix.trim();
                let kind = if suffix == "cyclic" {
                    PartitionKind::Cyclic
                } else if let Some(width) = suffix.strip_prefix("bc") {
                    let block: i64 = width.parse().map_err(|_| {
                        NotationError::Parse(format!("bad block-cyclic width '{width}'"))
                    })?;
                    PartitionKind::BlockCyclic { block }
                } else {
                    return Err(NotationError::Parse(format!(
                        "unknown partition kind '@{suffix}'"
                    )));
                };
                (dims, kind)
            }
        };
        let tensor_dims: Vec<String> = lhs
            .trim()
            .chars()
            .filter(|c| !c.is_whitespace())
            .map(|c| c.to_string())
            .collect();
        let mut machine_dims = Vec::new();
        for c in rhs.trim().chars().filter(|c| !c.is_whitespace()) {
            machine_dims.push(match c {
                '*' => DimName::Broadcast,
                d if d.is_ascii_digit() => DimName::Const(d.to_digit(10).unwrap() as i64),
                v if v.is_alphabetic() => DimName::Var(v.to_string()),
                other => {
                    return Err(NotationError::Parse(format!(
                        "unexpected character '{other}'"
                    )))
                }
            });
        }
        TensorDistribution::new(tensor_dims, machine_dims)?.with_partition(partition)
    }

    /// Tensor dimensionality the notation expects.
    pub(crate) fn tensor_dim(&self) -> usize {
        self.tensor_dims.len()
    }

    /// Machine dimensionality the notation expects.
    pub(crate) fn machine_dim(&self) -> usize {
        self.machine_dims.len()
    }

    /// The partitioned dimension pairs `(tensor_dim_index, machine_dim_index)`
    /// — the set `p = X ∩ Y` of the paper, with positions.
    pub fn partitioned_pairs(&self) -> Vec<(usize, usize)> {
        self.pairs().collect()
    }

    /// [`TensorDistribution::partitioned_pairs`], as they are found.
    pub(crate) fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let machine = self.machine_dims.iter().enumerate();
        machine.filter_map(|(mi, d)| match d {
            DimName::Var(v) => Some((self.tensor_dims.iter().position(|t| t == v)?, mi)),
            _ => None,
        })
    }

    /// Checks the statement against concrete tensor/machine dimensionality.
    ///
    /// # Errors
    ///
    /// Returns [`NotationError::ArityMismatch`] on disagreement.
    pub fn check_arity(&self, tensor_dim: usize, machine_dim: usize) -> Result<(), NotationError> {
        if self.tensor_dim() != tensor_dim {
            return Err(NotationError::ArityMismatch {
                side: "tensor",
                notation: self.tensor_dim(),
                object: tensor_dim,
            });
        }
        if self.machine_dim() != machine_dim {
            return Err(NotationError::ArityMismatch {
                side: "machine",
                notation: self.machine_dim(),
                object: machine_dim,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_figure5_examples() {
        // 5a: vector blocked onto a 1-D machine.
        let d = TensorDistribution::parse("x->x").unwrap();
        assert_eq!(d.tensor_dim(), 1);
        assert_eq!(d.machine_dim(), 1);
        // 5b: row-wise.
        let d = TensorDistribution::parse("xy->x").unwrap();
        assert_eq!(d.partitioned_pairs(), vec![(0, 0)]);
        // 5c: tiles.
        let d = TensorDistribution::parse("xy->xy").unwrap();
        assert_eq!(d.partitioned_pairs(), vec![(0, 0), (1, 1)]);
        // 5d: fixed to a face.
        let d = TensorDistribution::parse("xy->xy0").unwrap();
        assert_eq!(d.machine_dims[2], DimName::Const(0));
        // 5e: broadcast.
        let d = TensorDistribution::parse("xy->xy*").unwrap();
        assert_eq!(d.machine_dims[2], DimName::Broadcast);
        // 5f: 3-tensor onto a 2-D grid.
        let d = TensorDistribution::parse("xyz->xy").unwrap();
        assert_eq!(d.tensor_dim(), 3);
        assert_eq!(d.partitioned_pairs(), vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn johnson_distributions_parse() {
        // Figure 9, Johnson's algorithm.
        assert!(TensorDistribution::parse("xy->xy0").is_ok());
        assert!(TensorDistribution::parse("xz->x0z").is_ok());
        assert!(TensorDistribution::parse("zy->0yz").is_ok());
    }

    #[test]
    fn validity_rules() {
        assert_eq!(
            TensorDistribution::parse("xx->x").unwrap_err(),
            NotationError::DuplicateName("x".into())
        );
        assert_eq!(
            TensorDistribution::parse("xy->xx").unwrap_err(),
            NotationError::DuplicateName("x".into())
        );
        assert_eq!(
            TensorDistribution::parse("xy->xz").unwrap_err(),
            NotationError::UnboundMachineName("z".into())
        );
        assert!(matches!(
            TensorDistribution::parse("xy"),
            Err(NotationError::Parse(_))
        ));
        assert!(matches!(
            TensorDistribution::parse("xy->x?"),
            Err(NotationError::Parse(_))
        ));
    }

    #[test]
    fn arity_check() {
        let d = TensorDistribution::parse("xy->xy").unwrap();
        assert!(d.check_arity(2, 2).is_ok());
        assert!(matches!(
            d.check_arity(3, 2),
            Err(NotationError::ArityMismatch { side: "tensor", .. })
        ));
        assert!(matches!(
            d.check_arity(2, 3),
            Err(NotationError::ArityMismatch {
                side: "machine",
                ..
            })
        ));
    }

    #[test]
    fn display_roundtrip() {
        let d = TensorDistribution::parse("xy->xy0").unwrap();
        assert_eq!(format!("{d}"), "xy ↦ xy0");
    }

    #[test]
    fn parse_partition_kinds() {
        let d = TensorDistribution::parse("xy->xy").unwrap();
        assert_eq!(d.partition, PartitionKind::Blocked);
        let d = TensorDistribution::parse("xy->xy @cyclic").unwrap();
        assert_eq!(d.partition, PartitionKind::Cyclic);
        assert_eq!(format!("{d}"), "xy ↦ xy @cyclic");
        let d = TensorDistribution::parse("xy->xy@bc16").unwrap();
        assert_eq!(d.partition, PartitionKind::BlockCyclic { block: 16 });
        assert_eq!(format!("{d}"), "xy ↦ xy @bc16");
    }

    #[test]
    fn partition_parse_errors() {
        assert!(matches!(
            TensorDistribution::parse("xy->xy @weird"),
            Err(NotationError::Parse(_))
        ));
        assert!(matches!(
            TensorDistribution::parse("xy->xy @bcx"),
            Err(NotationError::Parse(_))
        ));
        assert_eq!(
            TensorDistribution::parse("xy->xy @bc0").unwrap_err(),
            NotationError::BadBlockSize(0)
        );
        assert_eq!(
            TensorDistribution::parse("xy->xy")
                .unwrap()
                .with_partition(PartitionKind::BlockCyclic { block: -3 })
                .unwrap_err(),
            NotationError::BadBlockSize(-3)
        );
    }

    #[test]
    fn block_width_table() {
        // Blocked: ceil(extent/parts); cyclic: 1; block-cyclic: as given.
        assert_eq!(PartitionKind::Blocked.block_width(10, 3), 4);
        assert_eq!(PartitionKind::Cyclic.block_width(10, 3), 1);
        assert_eq!(
            PartitionKind::BlockCyclic { block: 2 }.block_width(10, 3),
            2
        );
        // Degenerate extents still give a positive width.
        assert_eq!(PartitionKind::Blocked.block_width(0, 4), 1);
    }
}
