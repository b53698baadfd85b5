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
//!
//! Names live at the edge; below the schedule a variable is a dense
//! [`VarId`]. The schedule commands (`transform.rs`) name variables, and
//! the solver keeps the one name → id map for them. Its definitions name
//! their children by id, and the one interval evaluator,
//! [`VarSolver::interval`], reads an [`Env`] of one `i64` slot per id. A
//! lowering resolves the ids it walks once, then evaluates every
//! (sequential step, launch point) without touching a name.

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
    #[inline]
    pub(crate) fn point(v: i64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// The interval `[lo, hi]`.
    #[inline]
    pub(crate) fn new(lo: i64, hi: i64) -> Self {
        Interval { lo, hi }
    }

    /// True when the interval contains exactly one value.
    #[inline]
    pub(crate) fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// Number of values in the interval.
    #[inline]
    pub fn len(&self) -> i64 {
        (self.hi - self.lo + 1).max(0)
    }

    /// True for an empty interval.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.hi < self.lo
    }

    /// Clamps the interval into `[0, extent - 1]`.
    #[inline]
    pub fn clamp_extent(&self, extent: i64) -> Interval {
        Interval {
            lo: self.lo.max(0),
            hi: self.hi.min(extent - 1),
        }
    }
}

/// A variable's dense id: its position in its [`VarSolver`]'s tables, in
/// definition order. Ids are stable: a command that derives new variables
/// from `v` changes `v`'s definition, never its id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(u32);

impl VarId {
    /// The id's position in per-variable tables (an [`Env`]'s slots).
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Concrete values for some loop variables: one `i64` slot per
/// [`VarId`], with a marker for "unbound". A new environment binds
/// nothing and grows on [`Env::bind`], so one environment serves a walk
/// over every (sequential step, launch point): each point overwrites the
/// same slots.
#[derive(Clone, Debug, Default)]
pub struct Env {
    slots: Vec<i64>,
}

impl Env {
    /// The slot of a variable with no value.
    const UNBOUND: i64 = i64::MIN;

    /// An environment that binds nothing.
    pub fn new() -> Self {
        Env::default()
    }

    /// Binds `v` to `value`.
    #[inline]
    pub fn bind(&mut self, v: VarId, value: i64) {
        debug_assert_ne!(value, Env::UNBOUND, "the unbound marker is not a value");
        if v.index() >= self.slots.len() {
            self.slots.resize(v.index() + 1, Env::UNBOUND);
        }
        self.slots[v.index()] = value;
    }

    /// The value bound to `v`, if any.
    #[inline]
    fn get(&self, v: VarId) -> Option<i64> {
        let value = *self.slots.get(v.index())?;
        (value != Env::UNBOUND).then_some(value)
    }
}

/// How a variable is defined in terms of others (by id).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum VarDef {
    /// An original iteration-space variable with a known extent.
    Leaf {
        /// Domain size.
        extent: i64,
    },
    /// `self = outer * extent(inner) + inner`, clamped to `extent`.
    Divided {
        /// The outer derived variable.
        outer: VarId,
        /// The inner derived variable.
        inner: VarId,
        /// The original variable's extent (for clamping the tail block).
        extent: i64,
    },
    /// `self = (result + Σ over) mod extent` — the rotation relation.
    Rotated {
        /// The rotated loop variable that replaces `self` in the nest.
        result: VarId,
        /// Variables whose sum offsets the rotation.
        over: Vec<VarId>,
        /// The variable's extent (modulus).
        extent: i64,
    },
    /// `self = fused / extent(other)` (outer half of a `collapse`d pair)
    /// or `self = fused mod extent(self)` (inner half).
    Collapsed {
        /// The fused loop variable.
        fused: VarId,
        /// Extent of the inner variable of the collapsed pair.
        inner_extent: i64,
        /// True when `self` was the inner variable.
        is_inner: bool,
        /// This variable's extent.
        extent: i64,
    },
}

impl VarDef {
    /// The defined variable's extent.
    #[inline]
    fn extent(&self) -> i64 {
        match self {
            VarDef::Leaf { extent }
            | VarDef::Divided { extent, .. }
            | VarDef::Rotated { extent, .. }
            | VarDef::Collapsed { extent, .. } => *extent,
        }
    }

    /// True when `v` is one of the loop variables this definition derives
    /// the defined variable into (a rotation's offsets are not).
    fn derives_into(&self, v: VarId) -> bool {
        match self {
            VarDef::Leaf { .. } => false,
            VarDef::Divided { outer, inner, .. } => *outer == v || *inner == v,
            VarDef::Rotated { result, .. } => *result == v,
            VarDef::Collapsed { fused, .. } => *fused == v,
        }
    }
}

/// Records variable definitions and extents, and answers bounds queries.
///
/// # Example
///
/// ```
/// use distal_ir::expr::IndexVar;
/// use distal_ir::provenance::{Env, VarSolver};
///
/// let mut s = VarSolver::new();
/// let i = s.define_leaf(IndexVar::new("i"), 100);
/// s.divide(&IndexVar::new("i"), IndexVar::new("io"), IndexVar::new("ii"), 4).unwrap();
/// let io = s.id(&IndexVar::new("io")).unwrap();
/// let mut env = Env::new();
/// env.bind(io, 2);
/// let r = s.interval(i, &env);
/// assert_eq!((r.lo, r.hi), (50, 74));
/// ```
#[derive(Clone, Debug, Default)]
pub struct VarSolver {
    /// `defs[id]`: how every variable is defined, in definition order.
    defs: Vec<VarDef>,
    /// Name → id, for the schedule commands and look-ups at the edge.
    ids: BTreeMap<IndexVar, VarId>,
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
    pub fn define_leaf(&mut self, v: IndexVar, extent: i64) -> VarId {
        self.define(v, VarDef::Leaf { extent })
    }

    /// Gives `v` the definition `def`: a new id for a new name, the same
    /// id (and a replaced definition) for a known one.
    fn define(&mut self, v: IndexVar, def: VarDef) -> VarId {
        if let Some(&id) = self.ids.get(&v) {
            self.defs[id.index()] = def;
            return id;
        }
        let id = VarId(u32::try_from(self.defs.len()).expect("fewer than 2^32 variables"));
        self.ids.insert(v, id);
        self.defs.push(def);
        id
    }

    /// The id of a known variable.
    fn known(&self, v: &IndexVar) -> Result<VarId, SolverError> {
        self.id(v)
            .ok_or_else(|| SolverError::UnknownVar(v.0.clone()))
    }

    /// Rejects a name already in use.
    fn fresh(&self, v: &IndexVar) -> Result<(), SolverError> {
        if self.knows(v) {
            return Err(SolverError::Redefinition(v.0.clone()));
        }
        Ok(())
    }

    /// The id of variable `v`, `None` when the solver does not know it.
    pub fn id(&self, v: &IndexVar) -> Option<VarId> {
        self.ids.get(v).copied()
    }

    /// The name of variable `id` (a search: names are edge data).
    #[cfg(test)]
    fn name(&self, id: VarId) -> &IndexVar {
        let mut names = self.ids.iter().filter(|&(_, &v)| v == id);
        names.next().expect("an id of this solver").0
    }

    /// The extent of a variable.
    ///
    /// # Panics
    ///
    /// Panics if the variable is unknown.
    pub fn extent(&self, v: &IndexVar) -> i64 {
        self.defs[self.ids[v].index()].extent()
    }

    /// True when the solver knows `v`.
    pub fn knows(&self, v: &IndexVar) -> bool {
        self.ids.contains_key(v)
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
        let extent = self.defs[self.known(v)?.index()].extent();
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
        let extent = self.defs[self.known(v)?.index()].extent();
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
        self.fresh(&outer)?;
        self.fresh(&inner)?;
        if inner == outer {
            return Err(SolverError::Redefinition(inner.0));
        }
        let outer = self.define_leaf(outer, outer_extent);
        let inner = self.define_leaf(inner, inner_extent);
        let def = VarDef::Divided {
            outer,
            inner,
            extent,
        };
        self.define(v.clone(), def);
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
        let ea = self.defs[self.known(a)?.index()].extent();
        let eb = self.defs[self.known(b)?.index()].extent();
        self.fresh(&fused)?;
        let fused = self.define_leaf(fused, ea * eb);
        let half = |is_inner, extent| VarDef::Collapsed {
            fused,
            inner_extent: eb,
            is_inner,
            extent,
        };
        self.define(a.clone(), half(false, ea));
        self.define(b.clone(), half(true, eb));
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
        let extent = self.defs[self.known(t)?.index()].extent();
        let over = over
            .iter()
            .map(|v| self.known(v))
            .collect::<Result<Vec<_>, _>>()?;
        self.fresh(&result)?;
        let result = self.define_leaf(result, extent);
        let def = VarDef::Rotated {
            result,
            over,
            extent,
        };
        self.define(t.clone(), def);
        Ok(())
    }

    /// The interval `v` spans, given concrete values for some loop
    /// variables. Unassigned loop variables span their full extent.
    #[inline]
    pub fn interval(&self, v: VarId, env: &Env) -> Interval {
        if let Some(x) = env.get(v) {
            return Interval::point(x);
        }
        match &self.defs[v.index()] {
            VarDef::Leaf { extent } => Interval::new(0, extent - 1),
            def => self.derived_interval(def, env),
        }
    }

    /// [`VarSolver::interval`] of an unbound variable defined by `def`:
    /// the recursive case, kept out of line so that bound and leaf
    /// variables cost no call.
    fn derived_interval(&self, def: &VarDef, env: &Env) -> Interval {
        match def {
            VarDef::Leaf { extent } => Interval::new(0, extent - 1),
            VarDef::Divided {
                outer,
                inner,
                extent,
            } => {
                let o = self.interval(*outer, env);
                let i = self.interval(*inner, env);
                let e_inner = self.defs[inner.index()].extent();
                Interval::new(o.lo * e_inner + i.lo, o.hi * e_inner + i.hi).clamp_extent(*extent)
            }
            VarDef::Rotated {
                result,
                over,
                extent,
            } => {
                let r = self.interval(*result, env);
                let mut offset = 0;
                let mut concrete = r.is_point();
                for o in over {
                    let oi = self.interval(*o, env);
                    concrete &= oi.is_point();
                    offset += oi.lo;
                }
                if concrete {
                    Interval::point((r.lo + offset).rem_euclid(*extent))
                } else {
                    Interval::new(0, extent - 1)
                }
            }
            VarDef::Collapsed {
                fused,
                inner_extent,
                is_inner,
                extent,
            } => {
                let f = self.interval(*fused, env);
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
    pub fn value(&self, v: VarId, env: &Env) -> Option<i64> {
        let i = self.interval(v, env);
        i.is_point().then_some(i.lo)
    }

    /// The original iteration-space variables a (possibly derived) variable
    /// descends from: `roots_of(ko)` for Cannon's schedule is `[k]` even
    /// through the `divide` + `rotate` chain; a `collapse`d variable has the
    /// roots of both fused loops.
    pub fn roots_of(&self, v: &IndexVar) -> Vec<IndexVar> {
        let Some(id) = self.id(v) else {
            return vec![v.clone()];
        };
        // Parents in name order.
        let parents: Vec<&IndexVar> = self
            .ids
            .iter()
            .filter(|&(_, p)| self.defs[p.index()].derives_into(id))
            .map(|(name, _)| name)
            .collect();
        if parents.is_empty() {
            return vec![v.clone()];
        }
        let mut out = Vec::new();
        for p in parents {
            for r in self.roots_of(p) {
                if !out.contains(&r) {
                    out.push(r);
                }
            }
        }
        out
    }

    /// The name-keyed evaluator the slot evaluator replaced, kept as its
    /// oracle: every look-up goes through a name, and `env` maps names to
    /// values.
    #[cfg(test)]
    fn interval_by_name(&self, v: &IndexVar, env: &BTreeMap<IndexVar, i64>) -> Interval {
        if let Some(&x) = env.get(v) {
            return Interval::point(x);
        }
        let extent_of = |v: &IndexVar| self.id(v).map(|id| self.defs[id.index()].extent());
        match self.id(v).map(|id| &self.defs[id.index()]) {
            None | Some(VarDef::Leaf { .. }) => Interval::new(0, extent_of(v).unwrap_or(1) - 1),
            Some(VarDef::Divided {
                outer,
                inner,
                extent,
            }) => {
                let o = self.interval_by_name(self.name(*outer), env);
                let i = self.interval_by_name(self.name(*inner), env);
                let e_inner = self.extent(self.name(*inner));
                Interval::new(o.lo * e_inner + i.lo, o.hi * e_inner + i.hi).clamp_extent(*extent)
            }
            Some(VarDef::Rotated {
                result,
                over,
                extent,
            }) => {
                let r = self.interval_by_name(self.name(*result), env);
                let mut offset = 0;
                let mut concrete = r.is_point();
                for o in over {
                    let oi = self.interval_by_name(self.name(*o), env);
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
                let f = self.interval_by_name(self.name(*fused), env);
                if f.is_point() {
                    let v = if *is_inner {
                        f.lo % inner_extent
                    } else {
                        f.lo / inner_extent
                    };
                    Interval::point(v)
                } else if !*is_inner && f.lo % inner_extent == 0 && (f.hi + 1) % inner_extent == 0 {
                    Interval::new(f.lo / inner_extent, f.hi / inner_extent)
                } else {
                    Interval::new(0, extent - 1)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn iv(s: &str) -> IndexVar {
        IndexVar::new(s)
    }

    /// The id of a variable `s` knows.
    fn id(s: &VarSolver, name: &str) -> VarId {
        s.id(&iv(name)).expect("a known variable")
    }

    /// An environment binding the named variables.
    fn env(s: &VarSolver, bound: &[(&str, i64)]) -> Env {
        let mut env = Env::new();
        for &(name, value) in bound {
            env.bind(id(s, name), value);
        }
        env
    }

    /// `s.interval` of a named variable.
    fn interval(s: &VarSolver, name: &str, bound: &[(&str, i64)]) -> Interval {
        s.interval(id(s, name), &env(s, bound))
    }

    #[test]
    fn divide_intervals() {
        let mut s = VarSolver::new();
        s.define_leaf(iv("i"), 100);
        s.divide(&iv("i"), iv("io"), iv("ii"), 4).unwrap();
        assert_eq!(s.extent(&iv("io")), 4);
        assert_eq!(s.extent(&iv("ii")), 25);
        assert_eq!(interval(&s, "i", &[("io", 3)]), Interval::new(75, 99));
        // Fully unknown: whole domain.
        assert_eq!(interval(&s, "i", &[]), Interval::new(0, 99));
    }

    #[test]
    fn divide_uneven_tail_clamped() {
        let mut s = VarSolver::new();
        s.define_leaf(iv("i"), 10);
        s.divide(&iv("i"), iv("io"), iv("ii"), 3).unwrap();
        // ceil(10/3) = 4; last block is [8, 9].
        assert_eq!(interval(&s, "i", &[("io", 2)]), Interval::new(8, 9));
    }

    #[test]
    fn split_chunk_semantics() {
        let mut s = VarSolver::new();
        s.define_leaf(iv("k"), 100);
        s.split(&iv("k"), iv("ko"), iv("ki"), 32).unwrap();
        assert_eq!(s.extent(&iv("ko")), 4);
        assert_eq!(s.extent(&iv("ki")), 32);
        assert_eq!(interval(&s, "k", &[("ko", 3)]), Interval::new(96, 99));
    }

    #[test]
    fn nested_divide_then_split() {
        let mut s = VarSolver::new();
        s.define_leaf(iv("k"), 64);
        s.divide(&iv("k"), iv("ko"), iv("ki"), 4).unwrap();
        s.split(&iv("ki"), iv("kio"), iv("kii"), 4).unwrap();
        // k = ko*16 + (kio*4 + kii) = 16 + 8..11 = [24, 27].
        assert_eq!(
            interval(&s, "k", &[("ko", 1), ("kio", 2)]),
            Interval::new(24, 27)
        );
    }

    #[test]
    fn rotate_concrete_and_unknown() {
        let mut s = VarSolver::new();
        s.define_leaf(iv("ko"), 3);
        s.define_leaf(iv("io"), 3);
        s.define_leaf(iv("jo"), 3);
        s.rotate(&iv("ko"), vec![iv("io"), iv("jo")], iv("kos"))
            .unwrap();
        let env = env(&s, &[("kos", 1), ("io", 2), ("jo", 2)]);
        // ko = (1 + 2 + 2) mod 3 = 2.
        assert_eq!(s.value(id(&s, "ko"), &env), Some(2));
        // Without jo.
        assert_eq!(
            interval(&s, "ko", &[("kos", 1), ("io", 2)]),
            Interval::new(0, 2)
        );
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
        let mut env = env(&s, &[("kos", 0), ("io", 1), ("jo", 2)]);
        // ko = (0+1+2) mod 3 = 0 -> k in [0, 2].
        assert_eq!(s.interval(id(&s, "k"), &env), Interval::new(0, 2));
        env.bind(id(&s, "kos"), 2);
        // ko = (2+1+2) mod 3 = 2 -> k in [6, 8].
        assert_eq!(s.interval(id(&s, "k"), &env), Interval::new(6, 8));
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
        // One name for both halves would define it twice.
        assert_eq!(
            s.divide(&iv("i"), iv("a"), iv("a"), 2),
            Err(SolverError::Redefinition("a".into()))
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
        let env = env(&s, &[("f", 13)]);
        assert_eq!(s.value(id(&s, "i"), &env), Some(2));
        assert_eq!(s.value(id(&s, "j"), &env), Some(3));
        // Whole-block fused ranges give exact outer intervals.
        assert_eq!(interval(&s, "i", &[]), Interval::new(0, 3));
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

    #[test]
    fn an_env_grows_on_bind() {
        let mut env = Env::new();
        assert_eq!(env.get(VarId(3)), None);
        env.bind(VarId(3), 7);
        assert_eq!((env.get(VarId(3)), env.get(VarId(1))), (Some(7), None));
        assert_eq!(env.slots.len(), 4);
    }

    /// Every variable of `s` evaluates to the same interval under the slot
    /// evaluator as under the name-keyed oracle, for the bindings `bound`.
    fn agrees_with_the_oracle(s: &VarSolver, bound: &[(VarId, i64)]) -> Result<(), String> {
        let mut env = Env::new();
        let mut by_name = BTreeMap::new();
        for &(v, x) in bound {
            env.bind(v, x);
            by_name.insert(s.name(v).clone(), x);
        }
        for (name, &v) in &s.ids {
            let (got, want) = (s.interval(v, &env), s.interval_by_name(name, &by_name));
            if got != want {
                return Err(format!("{name}: {got:?} != {want:?} under {by_name:?}"));
            }
        }
        Ok(())
    }

    #[test]
    fn collapsed_whole_blocks_and_open_rotations_match_the_oracle() {
        // f = collapse(i, j) with f divided: a bound outer block of f
        // spans whole j blocks, so i is an exact interval.
        let mut s = VarSolver::new();
        s.define_leaf(iv("i"), 4);
        s.define_leaf(iv("j"), 3);
        s.define_leaf(iv("k"), 5);
        s.collapse(&iv("i"), &iv("j"), iv("f")).unwrap();
        s.divide(&iv("f"), iv("fo"), iv("fi"), 2).unwrap();
        s.rotate(&iv("k"), vec![iv("fo"), iv("fi")], iv("ks"))
            .unwrap();
        let (fo, ks) = (id(&s, "fo"), id(&s, "ks"));
        assert_eq!(
            s.interval(id(&s, "i"), &env(&s, &[("fo", 1)])),
            Interval::new(2, 3)
        );
        // `fi` is unbound: the rotation's offset is not concrete.
        assert_eq!(
            s.interval(id(&s, "k"), &env(&s, &[("fo", 1), ("ks", 2)])),
            Interval::new(0, 4)
        );
        for bound in [vec![(fo, 1)], vec![(fo, 1), (ks, 2)], vec![(ks, 4)], vec![]] {
            agrees_with_the_oracle(&s, &bound).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random `divide`/`split`/`rotate`/`collapse` chains over one to
        /// four original variables, under random partial environments: the
        /// slot evaluator returns the oracle's interval for every variable.
        /// Commands act on live loop variables, as the schedule's do; an
        /// environment binds some of them and, now and then, a derived one.
        #[test]
        fn slot_intervals_match_the_name_keyed_oracle(
            extents in prop::collection::vec(1i64..13, 1..5),
            commands in prop::collection::vec((0u8..4, 0usize..8, 0usize..8, 1i64..5), 0..7),
            binds in prop::collection::vec((0usize..64, 0i64..64, 0u8..8), 0..9),
        ) {
            let mut s = VarSolver::new();
            let mut live: Vec<IndexVar> = Vec::new();
            for (n, &e) in extents.iter().enumerate() {
                s.define_leaf(iv(&format!("x{n}")), e);
                live.push(iv(&format!("x{n}")));
            }
            for (n, &(kind, a, b, factor)) in commands.iter().enumerate() {
                let fresh = |suffix: &str| iv(&format!("v{n}{suffix}"));
                let t = live[a % live.len()].clone();
                let others: Vec<IndexVar> = live.iter().filter(|v| **v != t).cloned().collect();
                let at = live.iter().position(|v| *v == t).expect("live");
                match kind {
                    0 | 1 => {
                        let (o, i) = (fresh("o"), fresh("i"));
                        if kind == 0 {
                            s.divide(&t, o.clone(), i.clone(), factor).unwrap();
                        } else {
                            s.split(&t, o.clone(), i.clone(), factor).unwrap();
                        }
                        live.splice(at..=at, [o, i]);
                    }
                    2 => {
                        // `b`'s bits choose the offset variables.
                        let over: Vec<IndexVar> = others
                            .iter()
                            .enumerate()
                            .filter(|(k, _)| (b >> k) & 1 == 1)
                            .map(|(_, v)| v.clone())
                            .collect();
                        s.rotate(&t, over, fresh("r")).unwrap();
                        live[at] = fresh("r");
                    }
                    _ => {
                        let Some(inner) = others.get(b % others.len().max(1)).cloned() else {
                            continue;
                        };
                        s.collapse(&t, &inner, fresh("f")).unwrap();
                        live.retain(|v| *v != inner);
                        let at = live.iter().position(|v| *v == t).expect("live");
                        live[at] = fresh("f");
                    }
                }
            }
            // Mostly live loop variables (as a lowering binds them), each
            // within its extent; a derived variable one time in eight.
            let all: Vec<VarId> = s.ids.values().copied().collect();
            let bound: Vec<(VarId, i64)> = binds
                .iter()
                .map(|&(pick, value, derived)| {
                    let v = match derived {
                        0 => all[pick % all.len()],
                        _ => s.id(&live[pick % live.len()]).expect("live"),
                    };
                    (v, value % s.defs[v.index()].extent())
                })
                .collect();
            let agreed = agrees_with_the_oracle(&s, &bound);
            prop_assert!(agreed.is_ok(), "{:?}", agreed);
        }
    }
}
