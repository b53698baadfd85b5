//! Tensor formats: distribution + per-dimension level format + target
//! memory kind (paper Figure 2, extended with SpDISTAL-style sparsity).
//!
//! In DISTAL a tensor's format carries both its (dense) dimension layout and
//! its distribution onto the machine, plus the memory kind each piece should
//! live in — e.g. `Memory::GPU_MEM` in Figure 2 line 11. Following the
//! per-dimension level-format abstraction of Chou et al. (*Format
//! Abstraction for Sparse Tensor Algebra Compilers*) and its distributed
//! sequel SpDISTAL, each tensor dimension additionally carries a
//! [`LevelFormat`]: `Dense` dimensions store every coordinate, `Compressed`
//! dimensions store only the coordinates of nonzero entries (CSR-style
//! `pos`/`crd` arrays, realized by `distal-sparse`).

use crate::notation::{NotationError, TensorDistribution};
use distal_machine::spec::MemKind;

/// The storage format of one tensor dimension (the "level format" of the
/// TACO/SpDISTAL format abstraction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LevelFormat {
    /// Every coordinate is stored (flat dense layout).
    Dense,
    /// Only nonzero coordinates are stored (`pos`/`crd` compression).
    Compressed,
}

impl LevelFormat {
    /// Parses one level-format character: `d` = dense, `s` (sparse) or
    /// `c` = compressed.
    ///
    /// # Errors
    ///
    /// [`NotationError::Parse`] for any other character.
    pub(crate) fn parse_char(c: char) -> Result<Self, NotationError> {
        match c {
            'd' => Ok(LevelFormat::Dense),
            's' | 'c' => Ok(LevelFormat::Compressed),
            other => Err(NotationError::Parse(format!(
                "unknown level format '{other}' (expected 'd' for dense, 's'/'c' for compressed)"
            ))),
        }
    }
}

/// A tensor format: one distribution per machine-hierarchy level, the
/// per-dimension level formats, and the memory kind holding each local
/// tile.
#[derive(Clone, Debug, PartialEq)]
pub struct Format {
    /// Distributions, outermost machine level first. Empty means the tensor
    /// is not distributed (kept whole in staging memory).
    pub distributions: Vec<TensorDistribution>,
    /// Per-dimension level formats, outermost tensor dimension first. An
    /// empty vector means every dimension is [`LevelFormat::Dense`] — the
    /// default, preserving all pre-sparsity behavior.
    pub levels: Vec<LevelFormat>,
    /// Which memory kind tiles reside in.
    pub mem: MemKind,
}

impl Format {
    /// A format with a single-level distribution (all dimensions dense).
    pub fn new(distribution: TensorDistribution, mem: MemKind) -> Self {
        Format {
            distributions: vec![distribution],
            levels: Vec::new(),
            mem,
        }
    }

    /// A hierarchical format (one distribution per machine level, all
    /// dimensions dense).
    pub fn hierarchical(distributions: Vec<TensorDistribution>, mem: MemKind) -> Self {
        Format {
            distributions,
            levels: Vec::new(),
            mem,
        }
    }

    /// Parses a single-level format from compact notation (all dimensions
    /// dense).
    ///
    /// # Errors
    ///
    /// Propagates [`NotationError`] from the notation parser.
    ///
    /// # Example
    ///
    /// ```
    /// use distal_format::Format;
    /// use distal_machine::spec::MemKind;
    /// let f = Format::parse("xy->xy", MemKind::Fb).unwrap();
    /// assert_eq!(f.mem, MemKind::Fb);
    /// assert!(f.is_dense());
    /// ```
    pub fn parse(notation: &str, mem: MemKind) -> Result<Self, NotationError> {
        Ok(Format::new(TensorDistribution::parse(notation)?, mem))
    }

    /// Parses a single-level format plus per-dimension level formats: one
    /// character per tensor dimension, `d` = dense, `s`/`c` = compressed,
    /// outermost dimension first.
    ///
    /// Only the *innermost* dimension may be compressed (`d…ds`, i.e.
    /// CSR-style layouts): the storage layer (`distal-sparse`) compresses
    /// the innermost dimension under dense-linearized prefixes, and every
    /// consumer (payload accounting, sparse leaf kernels, the SPMD cost
    /// model) assumes that layout. Accepting an outer `s` here would be
    /// silently mis-accounted, so it is rejected instead.
    ///
    /// # Errors
    ///
    /// Propagates [`NotationError`] from the notation parser, rejects
    /// unknown level characters, compressed non-innermost dimensions, and
    /// level strings whose length doesn't match the notation's tensor
    /// arity.
    ///
    /// # Example
    ///
    /// CSR-style row-distributed sparse matrix (dense rows, compressed
    /// columns):
    ///
    /// ```
    /// use distal_format::{Format, LevelFormat};
    /// use distal_machine::spec::MemKind;
    /// let f = Format::parse_levels("xy->x", "ds", MemKind::Sys).unwrap();
    /// assert_eq!(f.levels, vec![LevelFormat::Dense, LevelFormat::Compressed]);
    /// assert!(!f.is_dense());
    /// ```
    pub fn parse_levels(notation: &str, levels: &str, mem: MemKind) -> Result<Self, NotationError> {
        let dist = TensorDistribution::parse(notation)?;
        let parsed: Vec<LevelFormat> = levels
            .chars()
            .map(LevelFormat::parse_char)
            .collect::<Result<_, _>>()?;
        if parsed.len() != dist.tensor_dim() {
            return Err(NotationError::ArityMismatch {
                side: "tensor",
                notation: parsed.len(),
                object: dist.tensor_dim(),
            });
        }
        if let Some(d) = parsed[..parsed.len().saturating_sub(1)]
            .iter()
            .position(|l| *l == LevelFormat::Compressed)
        {
            return Err(NotationError::Parse(format!(
                "dimension {d} is compressed but only the innermost dimension may be \
                 (CSR-style layouts; outer-level compression is not implemented)"
            )));
        }
        Ok(Format {
            distributions: vec![dist],
            levels: parsed,
            mem,
        })
    }

    /// Overrides the per-dimension level formats.
    #[must_use]
    pub fn with_levels(mut self, levels: Vec<LevelFormat>) -> Self {
        self.levels = levels;
        self
    }

    /// An undistributed format (whole tensor in staging memory).
    ///
    /// Note the memory-kind asymmetry with [`Format::parse`] call sites:
    /// undistributed tensors default to [`MemKind::Global`] — the unbounded
    /// *staging* memory where functional-mode input data waits before
    /// placement, whose copies are not charged to the interconnect —
    /// whereas distributed formats are parsed with an explicit placed
    /// memory (typically [`MemKind::Sys`] or [`MemKind::Fb`]). Use
    /// [`Format::undistributed_in`] when an undistributed tensor should
    /// nonetheless live in a *placed* memory kind (e.g. a workspace kept
    /// whole in one node's DRAM).
    pub fn undistributed() -> Self {
        Format::undistributed_in(MemKind::Global)
    }

    /// An undistributed format residing in an explicit memory kind, for
    /// callers that would otherwise hand-build the struct. See
    /// [`Format::undistributed`] for the `Global`-vs-placed distinction.
    pub fn undistributed_in(mem: MemKind) -> Self {
        Format {
            distributions: Vec::new(),
            levels: Vec::new(),
            mem,
        }
    }

    /// True when the tensor is distributed onto the machine.
    pub fn is_distributed(&self) -> bool {
        !self.distributions.is_empty()
    }

    /// True when every dimension is dense (no compressed levels) — the
    /// pre-sparsity default for which all dense code paths are preserved
    /// unchanged.
    pub fn is_dense(&self) -> bool {
        self.levels.iter().all(|l| *l == LevelFormat::Dense)
    }

    /// True when at least one dimension is [`LevelFormat::Compressed`].
    pub fn has_compressed(&self) -> bool {
        !self.is_dense()
    }

    /// The level format of dimension `d` (dense when unspecified).
    pub fn level(&self, d: usize) -> LevelFormat {
        self.levels.get(d).copied().unwrap_or(LevelFormat::Dense)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let f = Format::parse("xy->xy", MemKind::Sys).unwrap();
        assert!(f.is_distributed());
        assert!(f.is_dense());
        assert!(!f.has_compressed());
        assert_eq!(f.distributions.len(), 1);
        let u = Format::undistributed();
        assert!(!u.is_distributed());
        assert_eq!(u.mem, MemKind::Global);
        let w = Format::undistributed_in(MemKind::Sys);
        assert!(!w.is_distributed());
        assert_eq!(w.mem, MemKind::Sys);
    }

    #[test]
    fn hierarchical_format() {
        let f = Format::hierarchical(
            vec![
                TensorDistribution::parse("xy->xy").unwrap(),
                TensorDistribution::parse("xy->x").unwrap(),
            ],
            MemKind::Fb,
        );
        assert_eq!(f.distributions.len(), 2);
        assert!(f.is_dense());
    }

    #[test]
    fn parse_error_propagates() {
        assert!(Format::parse("xy->zz", MemKind::Sys).is_err());
    }

    #[test]
    fn level_formats_parse() {
        let f = Format::parse_levels("xy->xy", "ds", MemKind::Sys).unwrap();
        assert_eq!(f.levels, vec![LevelFormat::Dense, LevelFormat::Compressed]);
        assert!(f.has_compressed());
        assert!(!f.is_dense());
        assert_eq!(f.level(0), LevelFormat::Dense);
        assert_eq!(f.level(1), LevelFormat::Compressed);
        // Unspecified trailing dims are dense.
        assert_eq!(f.level(7), LevelFormat::Dense);
        // 'c' is accepted as a synonym for compressed.
        let c = Format::parse_levels("x->x", "c", MemKind::Sys).unwrap();
        assert_eq!(c.levels, vec![LevelFormat::Compressed]);
    }

    #[test]
    fn level_format_errors() {
        assert!(matches!(
            Format::parse_levels("xy->xy", "dz", MemKind::Sys),
            Err(NotationError::Parse(_))
        ));
        assert!(matches!(
            Format::parse_levels("xy->xy", "d", MemKind::Sys),
            Err(NotationError::ArityMismatch { .. })
        ));
        // Only the innermost dimension may be compressed: outer-level
        // compression would be silently mis-accounted as CSR.
        for bad in ["sd", "ss"] {
            assert!(
                matches!(
                    Format::parse_levels("xy->xy", bad, MemKind::Sys),
                    Err(NotationError::Parse(_))
                ),
                "{bad} must be rejected"
            );
        }
        // Innermost-only compression stays accepted.
        assert!(Format::parse_levels("xyz->xy", "dds", MemKind::Sys).is_ok());
    }

    #[test]
    fn with_levels_overrides() {
        let f = Format::parse("xy->xy", MemKind::Sys)
            .unwrap()
            .with_levels(vec![LevelFormat::Dense, LevelFormat::Compressed]);
        assert!(f.has_compressed());
    }
}
