//! Concrete index notation (paper §5.1).
//!
//! Concrete index notation (CIN) is a lower-level IR than tensor index
//! notation: it fixes the ordering of ∀ loops and tracks applied scheduling
//! transformations through `s.t.` clauses. Tensor index notation statements
//! lower into CIN by constructing a loop nest from a left-to-right traversal
//! of the statement's variables.
//!
//! Dense single-statement kernels — everything in the paper's evaluation —
//! lower to a single ∀-chain around one assignment, so we represent CIN as a
//! vector of [`Loop`]s (outermost first) plus the body and the
//! [`VarSolver`] that relates derived variables to original ones.
//!
//! # Example
//!
//! ```
//! use distal_ir::cin::ConcreteNotation;
//! use distal_ir::expr::Assignment;
//! use std::collections::BTreeMap;
//!
//! let mm = Assignment::parse("A(i,j) = B(i,k) * C(k,j)").unwrap();
//! let mut extents = BTreeMap::new();
//! for (v, e) in [("i", 8), ("j", 8), ("k", 8)] {
//!     extents.insert(v.into(), e);
//! }
//! let cin = ConcreteNotation::from_assignment(mm, &extents).unwrap();
//! assert_eq!(format!("{cin}"), "∀i ∀j ∀k A(i, j) += B(i, k) * C(k, j)");
//! ```

use crate::expr::{Assignment, IndexVar};
use crate::provenance::VarSolver;
use std::collections::BTreeMap;
use std::fmt;

/// One ∀ loop of a concrete index notation statement.
#[derive(Clone, Debug, PartialEq)]
pub struct Loop {
    /// The loop's index variable.
    pub var: IndexVar,
    /// Marked by `distribute`: iterations run on different processors at the
    /// same time (Figure 6).
    pub distributed: bool,
    /// Tensors whose communication is aggregated at this loop
    /// (`communicate(T, var)`, §3.3).
    pub communicate: Vec<String>,
    /// Marked by `parallelize`: leaf-level parallel loop (vectorize/thread).
    pub parallelized: bool,
}

impl Loop {
    /// A plain sequential loop.
    pub(crate) fn new(var: IndexVar) -> Self {
        Loop {
            var,
            distributed: false,
            communicate: Vec::new(),
            parallelized: false,
        }
    }
}

/// Errors from constructing concrete index notation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CinError {
    /// A variable's extent was not supplied.
    MissingExtent(String),
}

impl fmt::Display for CinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CinError::MissingExtent(v) => write!(f, "missing extent for index variable '{v}'"),
        }
    }
}

impl std::error::Error for CinError {}

/// A scheduled concrete index notation statement: the ∀-chain, the body,
/// the variable solver, and the `s.t.` relation trail.
#[derive(Clone, Debug)]
pub struct ConcreteNotation {
    /// Loops, outermost first.
    pub loops: Vec<Loop>,
    /// The body assignment (accesses use *original* variables; the solver
    /// relates them to loop variables).
    pub body: Assignment,
    /// Variable definitions and extents.
    pub solver: VarSolver,
    /// Human-readable trail of applied scheduling relations.
    pub relations: Vec<String>,
}

impl ConcreteNotation {
    /// Lowers tensor index notation into CIN: a ∀ loop per variable, free
    /// variables first (left-to-right), then reduction variables. Reductions
    /// become `+=` bodies.
    ///
    /// # Errors
    ///
    /// Every variable must have an extent in `extents`.
    pub fn from_assignment(
        assignment: Assignment,
        extents: &BTreeMap<IndexVar, i64>,
    ) -> Result<Self, CinError> {
        let mut solver = VarSolver::new();
        let vars = assignment.all_vars();
        for v in &vars {
            let e = extents
                .get(v)
                .ok_or_else(|| CinError::MissingExtent(v.0.clone()))?;
            solver.define_leaf(v.clone(), *e);
        }
        let mut body = assignment;
        if body.is_reduction() {
            body.increment = true;
        }
        Ok(ConcreteNotation {
            loops: vars.into_iter().map(Loop::new).collect(),
            body,
            solver,
            relations: Vec::new(),
        })
    }

    /// The loop variables, outermost first.
    pub fn loop_vars(&self) -> Vec<IndexVar> {
        self.loops.iter().map(|l| l.var.clone()).collect()
    }

    /// Position of a loop variable in the nest.
    pub fn position(&self, v: &IndexVar) -> Option<usize> {
        self.loops.iter().position(|l| &l.var == v)
    }

    /// The contiguous run of distributed loops starting at the outermost
    /// level; `None` when nothing is distributed.
    ///
    /// Code generation requires distributed loops to be outermost and
    /// consecutive (directly nested distributed loops are flattened into one
    /// multi-dimensional index launch, §6.2).
    pub fn distributed_prefix(&self) -> Option<&[Loop]> {
        let n = self.loops.iter().take_while(|l| l.distributed).count();
        if n == 0 {
            return None;
        }
        // No distributed loop may appear after the prefix.
        if self.loops[n..].iter().any(|l| l.distributed) {
            return None;
        }
        Some(&self.loops[..n])
    }

    /// Records an applied relation in the `s.t.` trail.
    pub fn note(&mut self, relation: impl Into<String>) {
        self.relations.push(relation.into());
    }
}

impl fmt::Display for ConcreteNotation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for l in &self.loops {
            write!(f, "∀{} ", l.var)?;
        }
        write!(f, "{}", self.body)?;
        if !self.relations.is_empty() {
            write!(f, " s.t. {}", self.relations.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::kernels;

    fn extents(pairs: &[(&str, i64)]) -> BTreeMap<IndexVar, i64> {
        pairs.iter().map(|(v, e)| (IndexVar::new(*v), *e)).collect()
    }

    #[test]
    fn lowering_builds_free_then_reduction_loops() {
        let cin = ConcreteNotation::from_assignment(
            kernels::matmul(),
            &extents(&[("i", 4), ("j", 4), ("k", 4)]),
        )
        .unwrap();
        assert_eq!(
            cin.loop_vars(),
            vec![IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k")]
        );
        // Reductions lower to +=.
        assert!(cin.body.increment);
        assert_eq!(cin.solver.extent(&IndexVar::new("k")), 4);
    }

    #[test]
    fn missing_extent_is_error() {
        let err = ConcreteNotation::from_assignment(kernels::matmul(), &extents(&[("i", 4)]))
            .unwrap_err();
        assert_eq!(err, CinError::MissingExtent("j".into()));
    }

    #[test]
    fn display_matches_paper_syntax() {
        let cin = ConcreteNotation::from_assignment(
            kernels::ttv(),
            &extents(&[("i", 2), ("j", 2), ("k", 2)]),
        )
        .unwrap();
        assert_eq!(format!("{cin}"), "∀i ∀j ∀k A(i, j) += B(i, j, k) * c(k)");
    }

    #[test]
    fn distributed_prefix_detection() {
        let mut cin = ConcreteNotation::from_assignment(
            kernels::matmul(),
            &extents(&[("i", 4), ("j", 4), ("k", 4)]),
        )
        .unwrap();
        assert!(cin.distributed_prefix().is_none());
        cin.loops[0].distributed = true;
        cin.loops[1].distributed = true;
        assert_eq!(cin.distributed_prefix().unwrap().len(), 2);
        // A gap makes the prefix invalid.
        cin.loops[1].distributed = false;
        cin.loops[2].distributed = true;
        assert!(cin.distributed_prefix().is_none());
    }
}
