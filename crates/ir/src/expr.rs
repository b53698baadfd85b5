//! Tensor index notation (paper §2).
//!
//! Statements are assignments whose left-hand side is an access and whose
//! right-hand side is built from addition and multiplication of accesses.
//! Index variables correspond to nested loops; variables appearing only on
//! the right-hand side are sum reductions over their domain.
//!
//! # Example
//!
//! ```
//! use distal_ir::expr::Assignment;
//! let mm = Assignment::parse("A(i,j) = B(i,k) * C(k,j)").unwrap();
//! assert_eq!(mm.free_vars().len(), 2);
//! assert_eq!(mm.reduction_vars().len(), 1);
//! assert_eq!(mm.to_string(), "A(i, j) = B(i, k) * C(k, j)");
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// An index variable (`i`, `j`, `k`, or derived ones like `io`, `ki`).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexVar(pub String);

impl IndexVar {
    /// Creates an index variable from a name.
    pub fn new(name: impl Into<String>) -> Self {
        IndexVar(name.into())
    }

    /// The variable's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for IndexVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for IndexVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for IndexVar {
    fn from(s: &str) -> Self {
        IndexVar(s.to_string())
    }
}

/// An access `T(i, j, ...)`.
#[derive(Clone, PartialEq, Eq)]
pub struct Access {
    /// Tensor name.
    pub tensor: String,
    /// One index variable per tensor dimension.
    pub indices: Vec<IndexVar>,
}

impl Access {
    /// Creates an access.
    pub fn new(tensor: impl Into<String>, indices: Vec<IndexVar>) -> Self {
        Access {
            tensor: tensor.into(),
            indices,
        }
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.tensor)?;
        for (i, v) in self.indices.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A right-hand-side expression.
#[derive(Clone, PartialEq)]
pub enum Expr {
    /// A tensor access.
    Access(Access),
    /// A scalar literal.
    Literal(f64),
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// All accesses in the expression, left to right.
    pub(crate) fn accesses(&self) -> Vec<&Access> {
        let mut out = Vec::new();
        self.for_each_access(&mut |a| out.push(a));
        out
    }

    /// Calls `f` on every access in the expression, left to right.
    fn for_each_access<'a>(&'a self, f: &mut impl FnMut(&'a Access)) {
        match self {
            Expr::Access(a) => f(a),
            Expr::Literal(_) => {}
            Expr::Add(l, r) | Expr::Mul(l, r) => {
                l.for_each_access(f);
                r.for_each_access(f);
            }
        }
    }

    /// Appends to `vars` each variable not yet in it, in order of first
    /// appearance. A statement has a handful of variables, so a scan
    /// beats a set.
    fn push_new_vars<'a>(&'a self, vars: &mut Vec<&'a IndexVar>) {
        self.for_each_access(&mut |a| {
            for v in &a.indices {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        });
    }

    /// Evaluates the expression given per-access scalar values, in access
    /// order, operands left to right: the one evaluator of the notation,
    /// which the reference leaf interpreter (and through it the
    /// sequential oracle) calls at every point.
    pub fn eval(&self, values: &mut impl Iterator<Item = f64>) -> f64 {
        match self {
            Expr::Access(_) => values.next().expect("missing access value"),
            Expr::Literal(c) => *c,
            Expr::Add(l, r) => l.eval(values) + r.eval(values),
            Expr::Mul(l, r) => l.eval(values) * r.eval(values),
        }
    }

    /// Number of arithmetic operations per iteration-space point.
    pub(crate) fn flops_per_point(&self) -> f64 {
        match self {
            Expr::Access(_) | Expr::Literal(_) => 0.0,
            Expr::Add(l, r) | Expr::Mul(l, r) => 1.0 + l.flops_per_point() + r.flops_per_point(),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Access(a) => write!(f, "{a}"),
            Expr::Literal(c) => write!(f, "{c}"),
            Expr::Add(l, r) => write!(f, "{l} + {r}"),
            Expr::Mul(l, r) => write!(f, "{l} * {r}"),
        }
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Errors from building or validating tensor index notation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExprError {
    /// A tensor appeared with two different arities.
    InconsistentArity {
        /// Tensor name.
        tensor: String,
        /// First arity seen.
        first: usize,
        /// Conflicting arity.
        second: usize,
    },
    /// The left-hand side repeats an index variable.
    DuplicateLhsVar(String),
    /// Parse failure.
    Parse(String),
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprError::InconsistentArity {
                tensor,
                first,
                second,
            } => write!(
                f,
                "tensor '{tensor}' used with both {first} and {second} indices"
            ),
            ExprError::DuplicateLhsVar(v) => {
                write!(f, "left-hand side repeats index variable '{v}'")
            }
            ExprError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for ExprError {}

/// A tensor index notation statement `lhs = rhs` (or `lhs += rhs`).
#[derive(Clone, PartialEq)]
pub struct Assignment {
    /// The destination access.
    pub lhs: Access,
    /// The right-hand side.
    pub rhs: Expr,
    /// True when the statement accumulates (`+=`).
    pub increment: bool,
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = if self.increment { "+=" } else { "=" };
        write!(f, "{} {} {}", self.lhs, op, self.rhs)
    }
}

impl fmt::Debug for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl Assignment {
    /// Creates and validates an assignment.
    ///
    /// # Errors
    ///
    /// Rejects inconsistent tensor arities and duplicate variables on the
    /// left-hand side.
    pub fn new(lhs: Access, rhs: Expr, increment: bool) -> Result<Self, ExprError> {
        let a = Assignment {
            lhs,
            rhs,
            increment,
        };
        a.validate()?;
        Ok(a)
    }

    fn validate(&self) -> Result<(), ExprError> {
        let mut arity: BTreeMap<&str, usize> = BTreeMap::new();
        for acc in self.accesses() {
            match arity.get(acc.tensor.as_str()) {
                Some(&n) if n != acc.indices.len() => {
                    return Err(ExprError::InconsistentArity {
                        tensor: acc.tensor.clone(),
                        first: n,
                        second: acc.indices.len(),
                    })
                }
                _ => {
                    arity.insert(&acc.tensor, acc.indices.len());
                }
            }
        }
        let mut seen = BTreeSet::new();
        for v in &self.lhs.indices {
            if !seen.insert(v) {
                return Err(ExprError::DuplicateLhsVar(v.0.clone()));
            }
        }
        Ok(())
    }

    /// All accesses: the destination followed by right-hand-side accesses.
    pub fn accesses(&self) -> Vec<&Access> {
        let mut out = vec![&self.lhs];
        out.extend(self.rhs.accesses());
        out
    }

    /// Right-hand-side accesses only.
    pub fn input_accesses(&self) -> Vec<&Access> {
        self.rhs.accesses()
    }

    /// Free variables: the left-hand side's, in order.
    pub fn free_vars(&self) -> Vec<IndexVar> {
        self.lhs.indices.clone()
    }

    /// Reduction variables: right-hand-side variables not on the left, in
    /// order of first appearance.
    pub fn reduction_vars(&self) -> Vec<IndexVar> {
        let free = self.lhs.indices.len();
        self.var_refs()
            .split_off(free)
            .into_iter()
            .cloned()
            .collect()
    }

    /// Free then reduction variables — the default loop order (§5.1:
    /// "constructing a loop nest based on a left-to-right traversal").
    pub fn all_vars(&self) -> Vec<IndexVar> {
        self.var_refs().into_iter().cloned().collect()
    }

    /// [`Assignment::all_vars`], borrowed from the statement.
    fn var_refs(&self) -> Vec<&IndexVar> {
        let mut vars = self.lhs.indices.iter().collect();
        self.rhs.push_new_vars(&mut vars);
        vars
    }

    /// Per access, in [`Assignment::accesses`] order (the destination,
    /// then the right-hand side), the position in
    /// [`Assignment::all_vars`] of each of its index variables: how leaf
    /// bounds, which come in `all_vars` order, project onto an access.
    pub fn access_positions(&self) -> Vec<Vec<usize>> {
        let vars = self.var_refs();
        let pos = |v: &IndexVar| {
            vars.iter()
                .position(|&x| x == v)
                .expect("a statement variable")
        };
        let mut out = vec![self.lhs.indices.iter().map(pos).collect()];
        self.rhs
            .for_each_access(&mut |acc| out.push(acc.indices.iter().map(pos).collect()));
        out
    }

    /// True when the statement reduces (has reduction variables or is an
    /// explicit increment).
    pub fn is_reduction(&self) -> bool {
        let mut reduces = self.increment;
        self.rhs.for_each_access(&mut |acc| {
            reduces |= acc.indices.iter().any(|v| !self.lhs.indices.contains(v));
        });
        reduces
    }

    /// Arithmetic operations per iteration point, counting the accumulation
    /// into the output when reducing (e.g. matmul = 2 flops/point).
    pub fn flops_per_point(&self) -> f64 {
        let rhs = self.rhs.flops_per_point();
        if self.is_reduction() {
            rhs + 1.0
        } else {
            rhs
        }
    }

    /// The extents each variable must have, inferred from per-tensor
    /// dimension sizes. Returns `None` if a tensor is missing from `dims` or
    /// two accesses imply conflicting extents.
    pub fn infer_extents(
        &self,
        dims: &BTreeMap<String, Vec<i64>>,
    ) -> Option<BTreeMap<IndexVar, i64>> {
        let mut extents: BTreeMap<IndexVar, i64> = BTreeMap::new();
        for acc in self.accesses() {
            let d = dims.get(&acc.tensor)?;
            if d.len() != acc.indices.len() {
                return None;
            }
            for (v, &e) in acc.indices.iter().zip(d.iter()) {
                match extents.get(v) {
                    Some(&prev) if prev != e => return None,
                    _ => {
                        extents.insert(v.clone(), e);
                    }
                }
            }
        }
        Some(extents)
    }

    /// Parses a statement like `A(i,j) = B(i,k) * C(k,j)` or `a += b(i)`.
    ///
    /// Scalars are written as zero-argument accesses: `a = B(i,j) * C(i,j)`
    /// means a full contraction into the scalar `a` (the paper's inner
    /// product, §7.2).
    ///
    /// # Errors
    ///
    /// Returns [`ExprError::Parse`] on malformed input, plus the validation
    /// errors of [`Assignment::new`].
    pub fn parse(input: &str) -> Result<Self, ExprError> {
        Parser::new(input).parse_assignment()
    }
}

/// Hand-rolled recursive-descent parser for tensor index notation.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser { src, pos: 0 }
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn skip_ws(&mut self) {
        while self.rest().starts_with(|c: char| c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(tok) {
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, ExprError> {
        self.skip_ws();
        let start = self.pos;
        for (i, c) in self.rest().char_indices() {
            if c.is_alphanumeric() || c == '_' {
                continue;
            }
            self.pos = start + i;
            break;
        }
        if self.pos == start {
            if self.rest().chars().all(|c| c.is_alphanumeric() || c == '_')
                && !self.rest().is_empty()
            {
                self.pos = self.src.len();
            } else {
                return Err(ExprError::Parse(format!(
                    "expected identifier at '{}'",
                    self.rest()
                )));
            }
        }
        Ok(self.src[start..self.pos].to_string())
    }

    fn access(&mut self) -> Result<Access, ExprError> {
        let name = self.ident()?;
        let mut indices = Vec::new();
        if self.eat("(") && !self.eat(")") {
            loop {
                indices.push(IndexVar::new(self.ident()?));
                if self.eat(")") {
                    break;
                }
                if !self.eat(",") {
                    return Err(ExprError::Parse(format!(
                        "expected ',' or ')' at '{}'",
                        self.rest()
                    )));
                }
            }
        }
        Ok(Access::new(name, indices))
    }

    fn factor(&mut self) -> Result<Expr, ExprError> {
        self.skip_ws();
        if self
            .rest()
            .starts_with(|c: char| c.is_ascii_digit() || c == '.')
        {
            let start = self.pos;
            while self
                .rest()
                .starts_with(|c: char| c.is_ascii_digit() || c == '.')
            {
                self.pos += 1;
            }
            let lit: f64 = self.src[start..self.pos]
                .parse()
                .map_err(|e| ExprError::Parse(format!("bad literal: {e}")))?;
            return Ok(Expr::Literal(lit));
        }
        Ok(Expr::Access(self.access()?))
    }

    fn term(&mut self) -> Result<Expr, ExprError> {
        let mut e = self.factor()?;
        while self.eat("*") {
            let r = self.factor()?;
            e = Expr::Mul(Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn expr(&mut self) -> Result<Expr, ExprError> {
        let mut e = self.term()?;
        while self.eat("+") {
            let r = self.term()?;
            e = Expr::Add(Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn parse_assignment(&mut self) -> Result<Assignment, ExprError> {
        let lhs = self.access()?;
        let increment = if self.eat("+=") {
            true
        } else if self.eat("=") {
            false
        } else {
            return Err(ExprError::Parse(format!(
                "expected '=' or '+=' at '{}'",
                self.rest()
            )));
        };
        let rhs = self.expr()?;
        self.skip_ws();
        if !self.rest().is_empty() {
            return Err(ExprError::Parse(format!(
                "trailing input: '{}'",
                self.rest()
            )));
        }
        Assignment::new(lhs, rhs, increment)
    }
}

/// The expressions evaluated in §7 of the paper, as parse helpers.
pub mod kernels {
    use super::Assignment;

    /// Matrix multiply: `A(i,j) = B(i,k) * C(k,j)`.
    pub fn matmul() -> Assignment {
        Assignment::parse("A(i,j) = B(i,k) * C(k,j)").unwrap()
    }

    /// Tensor-times-vector: `A(i,j) = B(i,j,k) * c(k)`.
    pub fn ttv() -> Assignment {
        Assignment::parse("A(i,j) = B(i,j,k) * c(k)").unwrap()
    }

    /// Inner product: `a = B(i,j,k) * C(i,j,k)`.
    pub fn innerprod() -> Assignment {
        Assignment::parse("a = B(i,j,k) * C(i,j,k)").unwrap()
    }

    /// Matricized tensor times Khatri-Rao product:
    /// `A(i,l) = B(i,j,k) * C(j,l) * D(k,l)`.
    pub fn mttkrp() -> Assignment {
        Assignment::parse("A(i,l) = B(i,j,k) * C(j,l) * D(k,l)").unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_matmul() {
        let a = Assignment::parse("A(i,j) = B(i,k) * C(k,j)").unwrap();
        assert_eq!(a.free_vars(), vec![IndexVar::new("i"), IndexVar::new("j")]);
        assert_eq!(a.reduction_vars(), vec![IndexVar::new("k")]);
        assert!(a.is_reduction());
        assert_eq!(a.flops_per_point(), 2.0);
        assert_eq!(a.to_string(), "A(i, j) = B(i, k) * C(k, j)");
    }

    #[test]
    fn parse_scalar_and_increment() {
        let a = Assignment::parse("a = B(i,j,k) * C(i,j,k)").unwrap();
        assert!(a.free_vars().is_empty());
        assert_eq!(a.reduction_vars().len(), 3);
        let b = Assignment::parse("A(i) += B(i)").unwrap();
        assert!(b.increment);
        assert!(b.is_reduction());
    }

    #[test]
    fn parse_mttkrp_three_operands() {
        let a = super::kernels::mttkrp();
        assert_eq!(a.input_accesses().len(), 3);
        assert_eq!(
            a.all_vars(),
            vec![
                IndexVar::new("i"),
                IndexVar::new("l"),
                IndexVar::new("j"),
                IndexVar::new("k")
            ]
        );
        // i,l free; j,k reduced. 3 muls... B*C*D = 2 muls + 1 add = 3 flops.
        assert_eq!(a.flops_per_point(), 3.0);
    }

    #[test]
    fn parse_addition_rhs() {
        let a = Assignment::parse("A(i) = B(i) + C(i)").unwrap();
        assert_eq!(a.flops_per_point(), 1.0);
        assert!(!a.is_reduction());
    }

    #[test]
    fn parse_literal() {
        let a = Assignment::parse("A(i) = B(i) * 2.5").unwrap();
        assert_eq!(a.to_string(), "A(i) = B(i) * 2.5");
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(
            Assignment::parse("A(i,i) = B(i)"),
            Err(ExprError::DuplicateLhsVar(_))
        ));
        assert!(matches!(
            Assignment::parse("A(i) = B(i) * B(i,j)"),
            Err(ExprError::InconsistentArity { .. })
        ));
        assert!(matches!(
            Assignment::parse("A(i) ~ B(i)"),
            Err(ExprError::Parse(_))
        ));
        assert!(matches!(
            Assignment::parse("A(i) = B(i) trailing"),
            Err(ExprError::Parse(_))
        ));
    }

    #[test]
    fn eval_in_access_order() {
        let a = Assignment::parse("A(i) = B(i) * C(i) + D(i)").unwrap();
        // Values supplied in RHS access order: B, C, D.
        let mut vals = [2.0, 3.0, 4.0].into_iter();
        assert_eq!(a.rhs.eval(&mut vals), 10.0);
    }

    #[test]
    fn infer_extents_consistency() {
        let a = super::kernels::matmul();
        let mut dims = BTreeMap::new();
        dims.insert("A".to_string(), vec![4, 6]);
        dims.insert("B".to_string(), vec![4, 5]);
        dims.insert("C".to_string(), vec![5, 6]);
        let e = a.infer_extents(&dims).unwrap();
        assert_eq!(e[&IndexVar::new("i")], 4);
        assert_eq!(e[&IndexVar::new("k")], 5);
        assert_eq!(e[&IndexVar::new("j")], 6);
        // Conflicting extents are rejected.
        dims.insert("C".to_string(), vec![9, 6]);
        assert!(a.infer_extents(&dims).is_none());
    }
}
