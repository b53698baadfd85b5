//! The `precompute` scheduling transformation (paper §2): hoist the
//! computation of a subexpression into a workspace tensor.
//!
//! `precompute` factors one tensor index notation statement into two: a
//! *workspace* statement computing a chosen product of right-hand-side
//! factors, and a *remainder* statement consuming the workspace in place
//! of those factors. For chain products the rewrite changes asymptotic
//! work — the matrix triple product `A(i,l) = B(i,j)·C(j,k)·D(k,l)` costs
//! `O(n⁴)` fused but `O(n³)` through a workspace `T(i,k) = B(i,j)·C(j,k)`
//! — and in distributed schedules it lets each stage pick its own
//! distribution (the workspace-based MTTKRP formulations of Kjolstad et
//! al.'s workspace paper).
//!
//! # Example
//!
//! ```
//! use distal_ir::expr::Assignment;
//! use distal_ir::precompute::precompute_product;
//!
//! let a = Assignment::parse("A(i,l) = B(i,j) * C(j,k) * D(k,l)").unwrap();
//! let (ws, rest) = precompute_product(&a, &["B", "C"], "T", &["i", "k"]).unwrap();
//! assert_eq!(format!("{ws}"), "T(i, k) = B(i, j) * C(j, k)");
//! assert_eq!(format!("{rest}"), "A(i, l) = T(i, k) * D(k, l)");
//! ```

use crate::expr::{Access, Assignment, Expr, IndexVar};
use std::collections::BTreeSet;
use std::fmt;

/// Errors from the precompute rewrite.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PrecomputeError {
    /// The right-hand side is not a pure product of accesses.
    NotAProduct,
    /// A named factor does not occur on the right-hand side.
    UnknownFactor(String),
    /// No factors were selected, or all of them were.
    TrivialSplit,
    /// A workspace variable does not index any selected factor.
    BadWorkspaceVar(String),
    /// A variable reduced away by the workspace stage still occurs in the
    /// remainder (the split would change the result).
    EscapedReduction(String),
    /// The workspace name is already a tensor of the statement.
    NameInUse(String),
    /// Rebuilding a statement failed (duplicate workspace variables).
    Rebuild(String),
}

impl fmt::Display for PrecomputeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrecomputeError::NotAProduct => {
                write!(f, "precompute requires a pure product right-hand side")
            }
            PrecomputeError::UnknownFactor(t) => {
                write!(f, "factor '{t}' does not occur in the statement")
            }
            PrecomputeError::TrivialSplit => {
                write!(
                    f,
                    "precompute must hoist a proper, non-empty subset of the factors"
                )
            }
            PrecomputeError::BadWorkspaceVar(v) => {
                write!(
                    f,
                    "workspace variable '{v}' does not index any hoisted factor"
                )
            }
            PrecomputeError::EscapedReduction(v) => write!(
                f,
                "variable '{v}' is reduced by the workspace but still used outside it; \
                 add it to the workspace variables"
            ),
            PrecomputeError::NameInUse(t) => {
                write!(
                    f,
                    "workspace name '{t}' is already a tensor of the statement"
                )
            }
            PrecomputeError::Rebuild(m) => write!(f, "rebuild error: {m}"),
        }
    }
}

impl std::error::Error for PrecomputeError {}

/// Flattens a pure product into its access factors; `None` when the
/// expression contains additions or literals.
pub(crate) fn product_factors(e: &Expr) -> Option<Vec<Access>> {
    match e {
        Expr::Access(a) => Some(vec![a.clone()]),
        Expr::Mul(l, r) => {
            let mut out = product_factors(l)?;
            out.extend(product_factors(r)?);
            Some(out)
        }
        Expr::Add(..) | Expr::Literal(_) => None,
    }
}

fn product_of(accesses: &[Access]) -> Expr {
    let mut it = accesses.iter();
    let first = Expr::Access(it.next().expect("nonempty product").clone());
    it.fold(first, |acc, a| {
        Expr::Mul(Box::new(acc), Box::new(Expr::Access(a.clone())))
    })
}

/// Hoists the product of the factors named in `factors` into a workspace
/// tensor `workspace(ws_vars)`, returning `(workspace statement, remainder
/// statement)` to be executed in order.
///
/// The workspace stage sum-reduces every hoisted variable not listed in
/// `ws_vars`; such variables must not occur elsewhere in the statement.
///
/// # Errors
///
/// See [`PrecomputeError`] — notably [`PrecomputeError::EscapedReduction`]
/// when the chosen workspace variables would change the statement's value.
pub fn precompute_product(
    assignment: &Assignment,
    factors: &[&str],
    workspace: &str,
    ws_vars: &[&str],
) -> Result<(Assignment, Assignment), PrecomputeError> {
    let all = product_factors(&assignment.rhs).ok_or(PrecomputeError::NotAProduct)?;
    for f in factors {
        if !all.iter().any(|a| a.tensor == *f) {
            return Err(PrecomputeError::UnknownFactor(f.to_string()));
        }
    }
    if all.iter().any(|a| a.tensor == workspace) || assignment.lhs.tensor == workspace {
        return Err(PrecomputeError::NameInUse(workspace.to_string()));
    }
    let (hoisted, rest): (Vec<Access>, Vec<Access>) = all
        .iter()
        .cloned()
        .partition(|a| factors.contains(&a.tensor.as_str()));
    if hoisted.is_empty() || rest.is_empty() {
        return Err(PrecomputeError::TrivialSplit);
    }

    let ws_vars: Vec<IndexVar> = ws_vars.iter().map(|v| IndexVar::new(*v)).collect();
    let hoisted_vars: BTreeSet<IndexVar> = hoisted
        .iter()
        .flat_map(|a| a.indices.iter().cloned())
        .collect();
    for v in &ws_vars {
        if !hoisted_vars.contains(v) {
            return Err(PrecomputeError::BadWorkspaceVar(v.0.clone()));
        }
    }
    // Variables the workspace reduces away must not escape.
    let outside: BTreeSet<IndexVar> = rest
        .iter()
        .flat_map(|a| a.indices.iter().cloned())
        .chain(assignment.lhs.indices.iter().cloned())
        .collect();
    for v in &hoisted_vars {
        if !ws_vars.contains(v) && outside.contains(v) {
            return Err(PrecomputeError::EscapedReduction(v.0.clone()));
        }
    }

    let ws_stmt = Assignment::new(
        Access::new(workspace, ws_vars.clone()),
        product_of(&hoisted),
        false,
    )
    .map_err(|e| PrecomputeError::Rebuild(e.to_string()))?;

    // The remainder consumes the workspace where the first hoisted factor
    // stood, preserving the original factor order otherwise.
    let first_hoisted = all
        .iter()
        .position(|a| factors.contains(&a.tensor.as_str()))
        .expect("hoisted is nonempty");
    let mut remainder_factors: Vec<Access> = Vec::with_capacity(rest.len() + 1);
    let mut rest_iter = rest.into_iter();
    for (i, a) in all.iter().enumerate() {
        if i == first_hoisted {
            remainder_factors.push(Access::new(workspace, ws_vars.clone()));
        }
        if !factors.contains(&a.tensor.as_str()) {
            remainder_factors.push(rest_iter.next().expect("partition sizes agree"));
        }
    }
    let rest_stmt = Assignment::new(
        assignment.lhs.clone(),
        product_of(&remainder_factors),
        assignment.increment,
    )
    .map_err(|e| PrecomputeError::Rebuild(e.to_string()))?;
    Ok((ws_stmt, rest_stmt))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_product_splits() {
        let a = Assignment::parse("A(i,l) = B(i,j) * C(j,k) * D(k,l)").unwrap();
        let (ws, rest) = precompute_product(&a, &["B", "C"], "T", &["i", "k"]).unwrap();
        assert_eq!(format!("{ws}"), "T(i, k) = B(i, j) * C(j, k)");
        assert_eq!(format!("{rest}"), "A(i, l) = T(i, k) * D(k, l)");
        // The fused statement does O(n^4) work; the staged pair O(n^3).
        assert_eq!(a.all_vars().len(), 4);
        assert_eq!(ws.all_vars().len(), 3);
        assert_eq!(rest.all_vars().len(), 3);
    }

    #[test]
    fn mttkrp_workspace_formulation() {
        let a = Assignment::parse("A(i,l) = B(i,j,k) * C(j,l) * D(k,l)").unwrap();
        let (ws, rest) = precompute_product(&a, &["B", "D"], "T", &["i", "j", "l"]).unwrap();
        assert_eq!(format!("{ws}"), "T(i, j, l) = B(i, j, k) * D(k, l)");
        assert_eq!(format!("{rest}"), "A(i, l) = T(i, j, l) * C(j, l)");
    }

    #[test]
    fn factor_order_is_preserved() {
        let a = Assignment::parse("A(i,l) = B(i,j) * C(j,k) * D(k,l)").unwrap();
        let (_, rest) = precompute_product(&a, &["C", "D"], "W", &["j", "l"]).unwrap();
        assert_eq!(format!("{rest}"), "A(i, l) = B(i, j) * W(j, l)");
    }

    #[test]
    fn escaped_reduction_rejected() {
        let a = Assignment::parse("A(i,l) = B(i,j,k) * C(j,l) * D(k,l)").unwrap();
        // Hoisting B and D but dropping j from the workspace would reduce
        // j too early (C still uses it).
        assert_eq!(
            precompute_product(&a, &["B", "D"], "T", &["i", "l"]).unwrap_err(),
            PrecomputeError::EscapedReduction("j".into())
        );
    }

    #[test]
    fn validation_errors() {
        let a = Assignment::parse("A(i,l) = B(i,j) * C(j,k) * D(k,l)").unwrap();
        assert_eq!(
            precompute_product(&a, &["Z"], "T", &["i"]).unwrap_err(),
            PrecomputeError::UnknownFactor("Z".into())
        );
        assert_eq!(
            precompute_product(&a, &["B", "C", "D"], "T", &["i", "l"]).unwrap_err(),
            PrecomputeError::TrivialSplit
        );
        assert_eq!(
            precompute_product(&a, &["B", "C"], "D", &["i", "k"]).unwrap_err(),
            PrecomputeError::NameInUse("D".into())
        );
        assert_eq!(
            precompute_product(&a, &["B"], "T", &["k"]).unwrap_err(),
            PrecomputeError::BadWorkspaceVar("k".into())
        );
        let sum = Assignment::parse("A(i,j) = B(i,j) + C(i,j)").unwrap();
        assert_eq!(
            precompute_product(&sum, &["B"], "T", &["i"]).unwrap_err(),
            PrecomputeError::NotAProduct
        );
    }

    #[test]
    fn product_flattening() {
        let a = Assignment::parse("A(i,l) = B(i,j) * C(j,k) * D(k,l)").unwrap();
        let factors = product_factors(&a.rhs).unwrap();
        let names: Vec<&str> = factors.iter().map(|a| a.tensor.as_str()).collect();
        assert_eq!(names, vec!["B", "C", "D"]);
        let sum = Assignment::parse("A(i) = B(i) + c(i)").unwrap();
        assert!(product_factors(&sum.rhs).is_none());
    }
}
