//! Variable provenance and bounds analysis.
//!
//! Scheduling transformations derive new index variables from old ones:
//! `divide(i, io, ii, p)` and `split(k, ko, ki, c)` introduce an
//! outer/inner pair with `orig = outer * extent(inner) + inner`, and
//! `rotate(t, I, r)` replaces `t` by a result variable `r` with
//! `t = (r + Σ I) mod extent(t)` (paper §5.2).
//!
//! The [`VarSolver`] records these definitions and evaluates the *interval*
//! an original variable spans given concrete values for some loop variables.
//! This is the "standard bounds analysis procedure using the extents of
//! index variables" the compiler uses to derive partition bounding boxes
//! (§6.2).

use crate::expr::IndexVar;
use std::collections::BTreeMap;
use std::fmt;

/// An inclusive integer interval.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Lower bound (inclusive).
    pub lo: i64,
    /// Upper bound (inclusive).
    pub hi: i64,
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

impl Interval {
    /// A single-point interval.
    pub fn point(v: i64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// The interval `[lo, hi]`.
    pub fn new(lo: i64, hi: i64) -> Self {
        Interval { lo, hi }
    }

    /// True when the interval contains exactly one value.
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// Number of values in the interval.
    pub fn len(&self) -> i64 {
        (self.hi - self.lo + 1).max(0)
    }

    /// True for an empty interval.
    pub fn is_empty(&self) -> bool {
        self.hi < self.lo
    }

    /// Clamps the interval into `[0, extent - 1]`.
    pub fn clamp_extent(&self, extent: i64) -> Interval {
        Interval {
            lo: self.lo.max(0),
            hi: self.hi.min(extent - 1),
        }
    }
}

/// How a variable is defined in terms of others.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VarDef {
    /// An original iteration-space variable with a known extent.
    Leaf {
        /// Domain size.
        extent: i64,
    },
    /// `self = outer * extent(inner) + inner`, clamped to `extent`.
    Divided {
        /// The outer derived variable.
        outer: IndexVar,
        /// The inner derived variable.
        inner: IndexVar,
        /// The original variable's extent (for clamping the tail block).
        extent: i64,
    },
    /// `self = (result + Σ over) mod extent` — the rotation relation.
    Rotated {
        /// The rotated loop variable that replaces `self` in the nest.
        result: IndexVar,
        /// Variables whose sum offsets the rotation.
        over: Vec<IndexVar>,
        /// The variable's extent (modulus).
        extent: i64,
    },
    /// `self = fused / extent(other)` (outer half of a `collapse`d pair)
    /// or `self = fused mod extent(self)` (inner half).
    Collapsed {
        /// The fused loop variable.
        fused: IndexVar,
        /// Extent of the inner variable of the collapsed pair.
        inner_extent: i64,
        /// True when `self` was the inner variable.
        is_inner: bool,
        /// This variable's extent.
        extent: i64,
    },
}

/// Records variable definitions and extents, and answers bounds queries.
///
/// # Example
///
/// ```
/// use distal_ir::expr::IndexVar;
/// use distal_ir::provenance::VarSolver;
/// use std::collections::BTreeMap;
///
/// let mut s = VarSolver::new();
/// let (i, io, ii) = (IndexVar::new("i"), IndexVar::new("io"), IndexVar::new("ii"));
/// s.define_leaf(i.clone(), 100);
/// s.divide(&i, io.clone(), ii.clone(), 4).unwrap();
/// let mut env = BTreeMap::new();
/// env.insert(io, 2);
/// let r = s.interval(&i, &env);
/// assert_eq!((r.lo, r.hi), (50, 74));
/// ```
#[derive(Clone, Debug, Default)]
pub struct VarSolver {
    defs: BTreeMap<IndexVar, VarDef>,
    extents: BTreeMap<IndexVar, i64>,
}

/// Errors from defining variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolverError {
    /// The variable being transformed is unknown.
    UnknownVar(String),
    /// A derived variable name is already in use.
    Redefinition(String),
    /// A split/divide factor must be positive.
    NonPositiveFactor(i64),
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::UnknownVar(v) => write!(f, "unknown index variable '{v}'"),
            SolverError::Redefinition(v) => write!(f, "index variable '{v}' already defined"),
            SolverError::NonPositiveFactor(n) => write!(f, "factor must be positive, got {n}"),
        }
    }
}

impl std::error::Error for SolverError {}

impl VarSolver {
    /// An empty solver.
    pub fn new() -> Self {
        VarSolver::default()
    }

    /// Declares an original variable with its domain size.
    pub fn define_leaf(&mut self, v: IndexVar, extent: i64) {
        self.extents.insert(v.clone(), extent);
        self.defs.insert(v, VarDef::Leaf { extent });
    }

    /// The extent of a variable.
    ///
    /// # Panics
    ///
    /// Panics if the variable is unknown.
    pub fn extent(&self, v: &IndexVar) -> i64 {
        self.extents[v]
    }

    /// True when the solver knows `v`.
    pub fn knows(&self, v: &IndexVar) -> bool {
        self.extents.contains_key(v)
    }

    /// `divide(v, outer, inner, parts)`: `outer` ranges over `parts` blocks,
    /// `inner` over `ceil(extent / parts)` elements.
    ///
    /// # Errors
    ///
    /// Rejects unknown `v`, reused names, and non-positive `parts`.
    pub fn divide(
        &mut self,
        v: &IndexVar,
        outer: IndexVar,
        inner: IndexVar,
        parts: i64,
    ) -> Result<(), SolverError> {
        if parts <= 0 {
            return Err(SolverError::NonPositiveFactor(parts));
        }
        let extent = *self
            .extents
            .get(v)
            .ok_or_else(|| SolverError::UnknownVar(v.0.clone()))?;
        let inner_extent = (extent + parts - 1) / parts;
        self.derive_pair(v, outer, inner, parts, inner_extent, extent)
    }

    /// `split(v, outer, inner, chunk)`: `inner` ranges over `chunk` elements,
    /// `outer` over `ceil(extent / chunk)` chunks.
    ///
    /// # Errors
    ///
    /// Rejects unknown `v`, reused names, and non-positive `chunk`.
    pub fn split(
        &mut self,
        v: &IndexVar,
        outer: IndexVar,
        inner: IndexVar,
        chunk: i64,
    ) -> Result<(), SolverError> {
        if chunk <= 0 {
            return Err(SolverError::NonPositiveFactor(chunk));
        }
        let extent = *self
            .extents
            .get(v)
            .ok_or_else(|| SolverError::UnknownVar(v.0.clone()))?;
        let outer_extent = (extent + chunk - 1) / chunk;
        self.derive_pair(v, outer, inner, outer_extent, chunk, extent)
    }

    fn derive_pair(
        &mut self,
        v: &IndexVar,
        outer: IndexVar,
        inner: IndexVar,
        outer_extent: i64,
        inner_extent: i64,
        extent: i64,
    ) -> Result<(), SolverError> {
        for name in [&outer, &inner] {
            if self.extents.contains_key(name) {
                return Err(SolverError::Redefinition(name.0.clone()));
            }
        }
        self.extents.insert(outer.clone(), outer_extent);
        self.extents.insert(inner.clone(), inner_extent);
        self.defs.insert(
            outer.clone(),
            VarDef::Leaf {
                extent: outer_extent,
            },
        );
        self.defs.insert(
            inner.clone(),
            VarDef::Leaf {
                extent: inner_extent,
            },
        );
        self.defs.insert(
            v.clone(),
            VarDef::Divided {
                outer,
                inner,
                extent,
            },
        );
        Ok(())
    }

    /// `collapse(a, b, fused)`: fuses the nested loops `a` (outer) and `b`
    /// (inner) into a single loop `fused` of extent `extent(a)·extent(b)`,
    /// with `a = fused / extent(b)` and `b = fused mod extent(b)`.
    ///
    /// # Errors
    ///
    /// Rejects unknown variables and reused fused names.
    pub fn collapse(
        &mut self,
        a: &IndexVar,
        b: &IndexVar,
        fused: IndexVar,
    ) -> Result<(), SolverError> {
        let ea = *self
            .extents
            .get(a)
            .ok_or_else(|| SolverError::UnknownVar(a.0.clone()))?;
        let eb = *self
            .extents
            .get(b)
            .ok_or_else(|| SolverError::UnknownVar(b.0.clone()))?;
        if self.extents.contains_key(&fused) {
            return Err(SolverError::Redefinition(fused.0.clone()));
        }
        self.extents.insert(fused.clone(), ea * eb);
        self.defs
            .insert(fused.clone(), VarDef::Leaf { extent: ea * eb });
        self.defs.insert(
            a.clone(),
            VarDef::Collapsed {
                fused: fused.clone(),
                inner_extent: eb,
                is_inner: false,
                extent: ea,
            },
        );
        self.defs.insert(
            b.clone(),
            VarDef::Collapsed {
                fused,
                inner_extent: eb,
                is_inner: true,
                extent: eb,
            },
        );
        Ok(())
    }

    /// `rotate(t, over, result)`: `result` replaces `t` in the loop nest and
    /// `t = (result + Σ over) mod extent(t)` (paper §5.2).
    ///
    /// # Errors
    ///
    /// Rejects unknown variables and reused result names.
    pub fn rotate(
        &mut self,
        t: &IndexVar,
        over: Vec<IndexVar>,
        result: IndexVar,
    ) -> Result<(), SolverError> {
        let extent = *self
            .extents
            .get(t)
            .ok_or_else(|| SolverError::UnknownVar(t.0.clone()))?;
        for v in &over {
            if !self.extents.contains_key(v) {
                return Err(SolverError::UnknownVar(v.0.clone()));
            }
        }
        if self.extents.contains_key(&result) {
            return Err(SolverError::Redefinition(result.0.clone()));
        }
        self.extents.insert(result.clone(), extent);
        self.defs.insert(result.clone(), VarDef::Leaf { extent });
        self.defs.insert(
            t.clone(),
            VarDef::Rotated {
                result,
                over,
                extent,
            },
        );
        Ok(())
    }

    /// The interval `v` spans, given concrete values for some loop
    /// variables. Unassigned loop variables span their full extent.
    pub fn interval(&self, v: &IndexVar, env: &BTreeMap<IndexVar, i64>) -> Interval {
        if let Some(&x) = env.get(v) {
            return Interval::point(x);
        }
        match self.defs.get(v) {
            None | Some(VarDef::Leaf { .. }) => {
                Interval::new(0, self.extents.get(v).copied().unwrap_or(1) - 1)
            }
            Some(VarDef::Divided {
                outer,
                inner,
                extent,
            }) => {
                let o = self.interval(outer, env);
                let i = self.interval(inner, env);
                let e_inner = self.extent(inner);
                Interval::new(o.lo * e_inner + i.lo, o.hi * e_inner + i.hi).clamp_extent(*extent)
            }
            Some(VarDef::Rotated {
                result,
                over,
                extent,
            }) => {
                let r = self.interval(result, env);
                let mut offset = 0;
                let mut concrete = r.is_point();
                for o in over {
                    let oi = self.interval(o, env);
                    concrete &= oi.is_point();
                    offset += oi.lo;
                }
                if concrete {
                    Interval::point((r.lo + offset).rem_euclid(*extent))
                } else {
                    Interval::new(0, extent - 1)
                }
            }
            Some(VarDef::Collapsed {
                fused,
                inner_extent,
                is_inner,
                extent,
            }) => {
                let f = self.interval(fused, env);
                if f.is_point() {
                    let v = if *is_inner {
                        f.lo % inner_extent
                    } else {
                        f.lo / inner_extent
                    };
                    Interval::point(v)
                } else if !*is_inner && f.lo % inner_extent == 0 && (f.hi + 1) % inner_extent == 0 {
                    // The fused range covers whole inner blocks: the outer
                    // variable spans an exact interval.
                    Interval::new(f.lo / inner_extent, f.hi / inner_extent)
                } else {
                    Interval::new(0, extent - 1)
                }
            }
        }
    }

    /// The concrete value of `v` under a full assignment; `None` when the
    /// environment leaves it underdetermined.
    pub fn value(&self, v: &IndexVar, env: &BTreeMap<IndexVar, i64>) -> Option<i64> {
        let i = self.interval(v, env);
        i.is_point().then_some(i.lo)
    }

    /// All loop variables that currently stand for themselves (not expanded
    /// into others) — i.e. candidates for appearing in a loop nest.
    pub fn live_vars(&self) -> Vec<IndexVar> {
        self.defs
            .iter()
            .filter(|&(_v, d)| matches!(d, VarDef::Leaf { .. }))
            .map(|(v, _d)| v.clone())
            .collect()
    }

    /// The original iteration-space variables a (possibly derived) variable
    /// descends from: `roots_of(ko)` for Cannon's schedule is `[k]` even
    /// through the `divide` + `rotate` chain; a `collapse`d variable has the
    /// roots of both fused loops.
    pub fn roots_of(&self, v: &IndexVar) -> Vec<IndexVar> {
        let mut parents = Vec::new();
        for (parent, def) in &self.defs {
            let hit = match def {
                VarDef::Divided { outer, inner, .. } => outer == v || inner == v,
                VarDef::Rotated { result, .. } => result == v,
                VarDef::Collapsed { fused, .. } => fused == v,
                VarDef::Leaf { .. } => false,
            };
            if hit {
                parents.push(parent.clone());
            }
        }
        if parents.is_empty() {
            return vec![v.clone()];
        }
        let mut out = Vec::new();
        for p in parents {
            for r in self.roots_of(&p) {
                if !out.contains(&r) {
                    out.push(r);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: &str) -> IndexVar {
        IndexVar::new(s)
    }

    #[test]
    fn divide_intervals() {
        let mut s = VarSolver::new();
        s.define_leaf(iv("i"), 100);
        s.divide(&iv("i"), iv("io"), iv("ii"), 4).unwrap();
        assert_eq!(s.extent(&iv("io")), 4);
        assert_eq!(s.extent(&iv("ii")), 25);
        let mut env = BTreeMap::new();
        env.insert(iv("io"), 3);
        assert_eq!(s.interval(&iv("i"), &env), Interval::new(75, 99));
        // Fully unknown: whole domain.
        assert_eq!(s.interval(&iv("i"), &BTreeMap::new()), Interval::new(0, 99));
    }

    #[test]
    fn divide_uneven_tail_clamped() {
        let mut s = VarSolver::new();
        s.define_leaf(iv("i"), 10);
        s.divide(&iv("i"), iv("io"), iv("ii"), 3).unwrap();
        // ceil(10/3) = 4; last block is [8, 9].
        let mut env = BTreeMap::new();
        env.insert(iv("io"), 2);
        assert_eq!(s.interval(&iv("i"), &env), Interval::new(8, 9));
    }

    #[test]
    fn split_chunk_semantics() {
        let mut s = VarSolver::new();
        s.define_leaf(iv("k"), 100);
        s.split(&iv("k"), iv("ko"), iv("ki"), 32).unwrap();
        assert_eq!(s.extent(&iv("ko")), 4);
        assert_eq!(s.extent(&iv("ki")), 32);
        let mut env = BTreeMap::new();
        env.insert(iv("ko"), 3);
        assert_eq!(s.interval(&iv("k"), &env), Interval::new(96, 99));
    }

    #[test]
    fn nested_divide_then_split() {
        let mut s = VarSolver::new();
        s.define_leaf(iv("k"), 64);
        s.divide(&iv("k"), iv("ko"), iv("ki"), 4).unwrap();
        s.split(&iv("ki"), iv("kio"), iv("kii"), 4).unwrap();
        let mut env = BTreeMap::new();
        env.insert(iv("ko"), 1);
        env.insert(iv("kio"), 2);
        // k = ko*16 + (kio*4 + kii) = 16 + 8..11 = [24, 27].
        assert_eq!(s.interval(&iv("k"), &env), Interval::new(24, 27));
    }

    #[test]
    fn rotate_concrete_and_unknown() {
        let mut s = VarSolver::new();
        s.define_leaf(iv("ko"), 3);
        s.define_leaf(iv("io"), 3);
        s.define_leaf(iv("jo"), 3);
        s.rotate(&iv("ko"), vec![iv("io"), iv("jo")], iv("kos"))
            .unwrap();
        let mut env = BTreeMap::new();
        env.insert(iv("kos"), 1);
        env.insert(iv("io"), 2);
        env.insert(iv("jo"), 2);
        // ko = (1 + 2 + 2) mod 3 = 2.
        assert_eq!(s.value(&iv("ko"), &env), Some(2));
        env.remove(&iv("jo"));
        assert_eq!(s.interval(&iv("ko"), &env), Interval::new(0, 2));
    }

    #[test]
    fn rotate_of_divided_var_composes() {
        // Cannon's schedule: divide k, then rotate ko.
        let mut s = VarSolver::new();
        s.define_leaf(iv("k"), 9);
        s.define_leaf(iv("io"), 3);
        s.define_leaf(iv("jo"), 3);
        s.divide(&iv("k"), iv("ko"), iv("ki"), 3).unwrap();
        s.rotate(&iv("ko"), vec![iv("io"), iv("jo")], iv("kos"))
            .unwrap();
        let mut env = BTreeMap::new();
        env.insert(iv("kos"), 0);
        env.insert(iv("io"), 1);
        env.insert(iv("jo"), 2);
        // ko = (0+1+2) mod 3 = 0 -> k in [0, 2].
        assert_eq!(s.interval(&iv("k"), &env), Interval::new(0, 2));
        env.insert(iv("kos"), 2);
        // ko = (2+1+2) mod 3 = 2 -> k in [6, 8].
        assert_eq!(s.interval(&iv("k"), &env), Interval::new(6, 8));
    }

    #[test]
    fn errors() {
        let mut s = VarSolver::new();
        s.define_leaf(iv("i"), 10);
        assert_eq!(
            s.divide(&iv("z"), iv("a"), iv("b"), 2),
            Err(SolverError::UnknownVar("z".into()))
        );
        assert_eq!(
            s.divide(&iv("i"), iv("i"), iv("b"), 2),
            Err(SolverError::Redefinition("i".into()))
        );
        assert_eq!(
            s.split(&iv("i"), iv("a"), iv("b"), 0),
            Err(SolverError::NonPositiveFactor(0))
        );
        assert_eq!(
            s.rotate(&iv("i"), vec![iv("q")], iv("r")),
            Err(SolverError::UnknownVar("q".into()))
        );
    }

    #[test]
    fn collapse_semantics() {
        let mut s = VarSolver::new();
        s.define_leaf(iv("i"), 4);
        s.define_leaf(iv("j"), 5);
        s.collapse(&iv("i"), &iv("j"), iv("f")).unwrap();
        assert_eq!(s.extent(&iv("f")), 20);
        let mut env = BTreeMap::new();
        env.insert(iv("f"), 13);
        assert_eq!(s.value(&iv("i"), &env), Some(2));
        assert_eq!(s.value(&iv("j"), &env), Some(3));
        // Whole-block fused ranges give exact outer intervals.
        let empty = BTreeMap::new();
        assert_eq!(s.interval(&iv("i"), &empty), Interval::new(0, 3));
        assert_eq!(s.roots_of(&iv("f")), vec![iv("i"), iv("j")]);
        assert_eq!(
            s.collapse(&iv("i"), &iv("zz"), iv("g")),
            Err(SolverError::UnknownVar("zz".into()))
        );
    }

    #[test]
    fn root_tracking_through_chains() {
        let mut s = VarSolver::new();
        s.define_leaf(iv("k"), 9);
        s.define_leaf(iv("io"), 3);
        s.divide(&iv("k"), iv("ko"), iv("ki"), 3).unwrap();
        s.rotate(&iv("ko"), vec![iv("io")], iv("kos")).unwrap();
        assert_eq!(s.roots_of(&iv("kos")), vec![iv("k")]);
        assert_eq!(s.roots_of(&iv("ki")), vec![iv("k")]);
        assert_eq!(s.roots_of(&iv("io")), vec![iv("io")]);
        assert_eq!(s.roots_of(&iv("k")), vec![iv("k")]);
    }

    #[test]
    fn interval_helpers() {
        let i = Interval::new(3, 7);
        assert_eq!(i.len(), 5);
        assert!(!i.is_point());
        assert!(!i.is_empty());
        assert!(Interval::new(4, 2).is_empty());
        assert_eq!(
            Interval::new(-5, 100).clamp_extent(50),
            Interval::new(0, 49)
        );
        assert_eq!(format!("{:?}", Interval::point(2)), "[2, 2]");
    }
}
