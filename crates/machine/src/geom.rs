//! Points, rectangles, and blocked partitioning arithmetic.
//!
//! All index spaces in the workspace (tensor index spaces, machine grids,
//! launch domains) are hyper-rectangles of `i64` coordinates with *inclusive*
//! bounds. [`Rect`] supports intersection, containment, lexicographic point
//! iteration, difference (for coherence tracking in the runtime) and the
//! blocked partitioning function used by tensor distribution notation
//! (paper §3.2: "tensor dimensions partitioned across machine dimensions are
//! divided into equal-sized contiguous pieces").
//!
//! Two collections sit on top of [`Rect`]. [`RectSet`] is a *mutable* set
//! of disjoint rectangles — what is covered, with exact add/subtract — and
//! answers every question by walking its members. [`RectIndex`] is an
//! *immutable* look-up table from rectangles (overlapping or not) to
//! values: built once, it answers "which entries meet this rectangle?"
//! by visiting only the neighbourhood of the query, which is how the SPMD
//! lowering finds the holders of a tile among thousands of pieces.

use std::fmt;

/// A point in an n-dimensional integer space.
///
/// # Example
///
/// ```
/// use distal_machine::geom::Point;
/// let p = Point::new(vec![1, 2, 3]);
/// assert_eq!(p.dim(), 3);
/// assert_eq!(p[1], 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Point(pub Vec<i64>);

impl Point {
    /// Creates a point from its coordinates.
    pub fn new(coords: Vec<i64>) -> Self {
        Point(coords)
    }

    /// The origin of a `dim`-dimensional space.
    pub fn zeros(dim: usize) -> Self {
        Point(vec![0; dim])
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Coordinates as a slice.
    pub fn coords(&self) -> &[i64] {
        &self.0
    }

    /// Returns a new point with `value` appended as a trailing coordinate.
    pub fn extended(&self, value: i64) -> Point {
        let mut c = self.0.clone();
        c.push(value);
        Point(c)
    }

    /// Concatenates two points (used to flatten hierarchical machine
    /// coordinates).
    pub fn concat(&self, other: &Point) -> Point {
        let mut c = self.0.clone();
        c.extend_from_slice(&other.0);
        Point(c)
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl std::ops::Index<usize> for Point {
    type Output = i64;
    fn index(&self, i: usize) -> &i64 {
        &self.0[i]
    }
}

impl std::ops::IndexMut<usize> for Point {
    fn index_mut(&mut self, i: usize) -> &mut i64 {
        &mut self.0[i]
    }
}

impl From<Vec<i64>> for Point {
    fn from(v: Vec<i64>) -> Self {
        Point(v)
    }
}

/// An n-dimensional hyper-rectangle with inclusive bounds.
///
/// A rectangle is *empty* when any `hi[d] < lo[d]`.
///
/// # Example
///
/// ```
/// use distal_machine::geom::Rect;
/// let r = Rect::sized(&[4, 4]);
/// assert_eq!(r.volume(), 16);
/// let tile = r.block(0, 2, 1); // second of two row blocks
/// assert_eq!(tile.lo().coords(), &[2, 0]);
/// assert_eq!(tile.hi().coords(), &[3, 3]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rect {
    lo: Point,
    hi: Point,
}

impl fmt::Debug for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:?}..{:?}]", self.lo, self.hi)
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Rect {
    /// Creates a rectangle from inclusive bounds.
    ///
    /// # Panics
    ///
    /// Panics if `lo` and `hi` have different dimensionality.
    pub fn new(lo: Point, hi: Point) -> Self {
        assert_eq!(lo.dim(), hi.dim(), "rect bounds must share dimensionality");
        Rect { lo, hi }
    }

    /// The rectangle `[0, extents[d] - 1]` in every dimension.
    pub fn sized(extents: &[i64]) -> Self {
        let lo = Point::zeros(extents.len());
        let hi = Point::new(extents.iter().map(|e| e - 1).collect());
        Rect { lo, hi }
    }

    /// A canonical empty rectangle of the given dimensionality.
    pub fn empty(dim: usize) -> Self {
        Rect {
            lo: Point::new(vec![0; dim]),
            hi: Point::new(vec![-1; dim]),
        }
    }

    /// Lower bound (inclusive).
    pub fn lo(&self) -> &Point {
        &self.lo
    }

    /// Upper bound (inclusive).
    pub fn hi(&self) -> &Point {
        &self.hi
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.lo.dim()
    }

    /// True when the rectangle contains no points.
    pub fn is_empty(&self) -> bool {
        (0..self.dim()).any(|d| self.hi[d] < self.lo[d])
    }

    /// Extent (number of points) along dimension `d`; zero when empty.
    pub fn extent(&self, d: usize) -> i64 {
        (self.hi[d] - self.lo[d] + 1).max(0)
    }

    /// All extents.
    pub fn extents(&self) -> Vec<i64> {
        (0..self.dim()).map(|d| self.extent(d)).collect()
    }

    /// Total number of points.
    pub fn volume(&self) -> i64 {
        if self.is_empty() {
            return 0;
        }
        (0..self.dim()).map(|d| self.extent(d)).product()
    }

    /// True when `p` lies inside the rectangle.
    pub fn contains_point(&self, p: &Point) -> bool {
        p.dim() == self.dim() && (0..self.dim()).all(|d| self.lo[d] <= p[d] && p[d] <= self.hi[d])
    }

    /// True when `other` lies entirely inside `self` (empty rects are
    /// contained everywhere).
    pub fn contains_rect(&self, other: &Rect) -> bool {
        if other.is_empty() {
            return true;
        }
        (0..self.dim()).all(|d| self.lo[d] <= other.lo[d] && other.hi[d] <= self.hi[d])
    }

    /// Intersection of two rectangles (possibly empty).
    pub fn intersection(&self, other: &Rect) -> Rect {
        assert_eq!(self.dim(), other.dim());
        let lo = Point::new(
            (0..self.dim())
                .map(|d| self.lo[d].max(other.lo[d]))
                .collect(),
        );
        let hi = Point::new(
            (0..self.dim())
                .map(|d| self.hi[d].min(other.hi[d]))
                .collect(),
        );
        Rect { lo, hi }
    }

    /// True when the rectangles share at least one point (never, when
    /// either is empty). Compares bounds in place: nothing is allocated.
    pub fn overlaps(&self, other: &Rect) -> bool {
        assert_eq!(self.dim(), other.dim());
        (0..self.dim()).all(|d| self.lo[d].max(other.lo[d]) <= self.hi[d].min(other.hi[d]))
    }

    /// The smallest rectangle containing both inputs.
    pub fn union_bb(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let lo = Point::new(
            (0..self.dim())
                .map(|d| self.lo[d].min(other.lo[d]))
                .collect(),
        );
        let hi = Point::new(
            (0..self.dim())
                .map(|d| self.hi[d].max(other.hi[d]))
                .collect(),
        );
        Rect { lo, hi }
    }

    /// `self \ other` as a set of disjoint rectangles.
    ///
    /// Used by the runtime's coherence machinery to subtract invalidated
    /// sub-rectangles from an instance's valid set. Produces at most `2·dim`
    /// pieces via axis-by-axis guillotine cuts.
    pub fn difference(&self, other: &Rect) -> Vec<Rect> {
        if self.is_empty() {
            return vec![];
        }
        let inter = self.intersection(other);
        if inter.is_empty() {
            return vec![self.clone()];
        }
        if inter == *self {
            return vec![];
        }
        let mut pieces = Vec::new();
        let mut remaining = self.clone();
        for d in 0..self.dim() {
            // Piece below the intersection along dimension d.
            if remaining.lo[d] < inter.lo[d] {
                let mut hi = remaining.hi.clone();
                hi[d] = inter.lo[d] - 1;
                pieces.push(Rect::new(remaining.lo.clone(), hi));
                remaining.lo[d] = inter.lo[d];
            }
            // Piece above the intersection along dimension d.
            if remaining.hi[d] > inter.hi[d] {
                let mut lo = remaining.lo.clone();
                lo[d] = inter.hi[d] + 1;
                pieces.push(Rect::new(lo, remaining.hi.clone()));
                remaining.hi[d] = inter.hi[d];
            }
        }
        pieces
    }

    /// Lexicographic iteration over all points (last dimension fastest).
    pub fn points(&self) -> PointIter {
        PointIter {
            rect: self.clone(),
            next: if self.is_empty() {
                None
            } else {
                Some(self.lo.clone())
            },
        }
    }

    /// The `index`-th of `parts` equal-sized contiguous blocks along
    /// dimension `d` — the paper's blocked partitioning function.
    ///
    /// Block sizes are `ceil(extent / parts)`; trailing blocks may be smaller
    /// or empty.
    ///
    /// # Panics
    ///
    /// Panics if `parts == 0` or `index >= parts`.
    pub fn block(&self, d: usize, parts: i64, index: i64) -> Rect {
        assert!(parts > 0, "cannot split into zero parts");
        assert!(
            (0..parts).contains(&index),
            "block index {index} out of range for {parts} parts"
        );
        let extent = self.extent(d);
        let size = div_ceil(extent, parts);
        let mut lo = self.lo.clone();
        let mut hi = self.hi.clone();
        lo[d] = self.lo[d] + index * size;
        hi[d] = (self.lo[d] + (index + 1) * size - 1).min(self.hi[d]);
        Rect::new(lo, hi)
    }

    /// Restricts dimension `d` to the inclusive range `[lo, hi]`, clipping to
    /// the rectangle's own bounds.
    pub fn restrict(&self, d: usize, lo: i64, hi: i64) -> Rect {
        let mut r = self.clone();
        r.lo[d] = r.lo[d].max(lo);
        r.hi[d] = r.hi[d].min(hi);
        r
    }

    /// Linear (row-major) offset of a point inside the rectangle.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when the point is outside the rectangle.
    pub fn linearize(&self, p: &Point) -> usize {
        debug_assert!(self.contains_point(p), "{p:?} outside {self:?}");
        let mut idx: i64 = 0;
        for d in 0..self.dim() {
            idx = idx * self.extent(d) + (p[d] - self.lo[d]);
        }
        idx as usize
    }

    /// Inverse of [`Rect::linearize`].
    pub fn delinearize(&self, mut idx: i64) -> Point {
        let mut coords = vec![0; self.dim()];
        for d in (0..self.dim()).rev() {
            let e = self.extent(d);
            coords[d] = self.lo[d] + idx % e;
            idx /= e;
        }
        Point::new(coords)
    }
}

/// Ceiling division for positive divisors.
pub fn div_ceil(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    (a + b - 1) / b
}

/// The walk shared by [`copy_rect`] and [`fill_rect`]: visits `rect` as
/// contiguous runs of two row-major allocations at once.
struct RunWalk<'a> {
    rect: &'a Rect,
    a_alloc: &'a Rect,
    b_alloc: &'a Rect,
    /// Dimensions `[0, outer)` are stepped one index at a time; the rest
    /// form one contiguous run of `run` elements in both allocations.
    outer: usize,
    run: usize,
}

impl RunWalk<'_> {
    /// Calls `f(a_offset, b_offset, len)` once per run, in row-major order
    /// of `rect`. Empty rectangles yield no runs.
    ///
    /// # Panics
    ///
    /// Panics when either allocation does not cover `rect`.
    fn for_each(
        rect: &Rect,
        a_alloc: &Rect,
        b_alloc: &Rect,
        mut f: impl FnMut(usize, usize, usize),
    ) {
        if rect.is_empty() {
            return;
        }
        assert!(
            a_alloc.contains_rect(rect) && b_alloc.contains_rect(rect),
            "{rect} outside allocation {a_alloc} or {b_alloc}"
        );
        if rect.dim() == 0 {
            // Order-0 rectangles hold exactly one element.
            return f(0, 0, 1);
        }
        // A run grows outwards from the last dimension for as long as the
        // dimensions inside it span whole rows of both allocations.
        let mut outer = rect.dim() - 1;
        let mut inner = 1usize;
        while outer > 0
            && rect.extent(outer) == a_alloc.extent(outer)
            && rect.extent(outer) == b_alloc.extent(outer)
        {
            inner *= rect.extent(outer) as usize;
            outer -= 1;
        }
        let walk = RunWalk {
            rect,
            a_alloc,
            b_alloc,
            outer,
            run: inner * rect.extent(outer) as usize,
        };
        // Where the run starts along its own outermost dimension; the
        // dimensions inside begin at their allocations' origin.
        let a0 = (rect.lo[outer] - a_alloc.lo[outer]) as usize * inner;
        let b0 = (rect.lo[outer] - b_alloc.lo[outer]) as usize * inner;
        let (a_vol, b_vol) = (a_alloc.volume() as usize, b_alloc.volume() as usize);
        walk.step(0, (a0, a_vol), (b0, b_vol), &mut f);
    }

    /// Steps dimension `d`. Each side carries `(offset, span)`: the running
    /// offset of the indices fixed so far and the element count one index
    /// of dimension `d - 1` spans, so strides fall out by division and
    /// nothing is allocated.
    fn step(
        &self,
        d: usize,
        (a_off, a_span): (usize, usize),
        (b_off, b_span): (usize, usize),
        f: &mut impl FnMut(usize, usize, usize),
    ) {
        if d == self.outer {
            return f(a_off, b_off, self.run);
        }
        let a_stride = a_span / self.a_alloc.extent(d) as usize;
        let b_stride = b_span / self.b_alloc.extent(d) as usize;
        let a = a_off + (self.rect.lo[d] - self.a_alloc.lo[d]) as usize * a_stride;
        let b = b_off + (self.rect.lo[d] - self.b_alloc.lo[d]) as usize * b_stride;
        for i in 0..self.rect.extent(d) as usize {
            self.step(
                d + 1,
                (a + i * a_stride, a_stride),
                (b + i * b_stride, b_stride),
                f,
            );
        }
    }
}

/// Copies `rect` between two row-major buffers — the one primitive dense
/// data moves through, in the runtime and the rank VM alike.
///
/// `src_alloc`/`dst_alloc` are the rectangles the buffers are laid out
/// over; both must cover `rect`. `reduce` folds with `+=` instead of
/// overwriting. The copy walks running offsets, one contiguous run at a
/// time: a rectangle spanning whole rows of both allocations is a single
/// `copy_from_slice`.
///
/// # Panics
///
/// Panics when an allocation does not cover `rect` or a buffer is shorter
/// than its allocation.
///
/// # Example
///
/// ```
/// use distal_machine::geom::{copy_rect, Point, Rect};
/// let whole = Rect::sized(&[3, 3]);
/// let src: Vec<f64> = (0..9).map(f64::from).collect();
/// let tile = Rect::new(Point::new(vec![1, 1]), Point::new(vec![2, 2]));
/// let mut dst = vec![0.0; 4];
/// copy_rect(&whole, &src, &tile, &mut dst, &tile, false);
/// assert_eq!(dst, [4.0, 5.0, 7.0, 8.0]);
/// ```
pub fn copy_rect(
    src_alloc: &Rect,
    src: &[f64],
    dst_alloc: &Rect,
    dst: &mut [f64],
    rect: &Rect,
    reduce: bool,
) {
    RunWalk::for_each(rect, src_alloc, dst_alloc, |s, d, len| {
        let (from, to) = (&src[s..s + len], &mut dst[d..d + len]);
        if reduce {
            for (t, v) in to.iter_mut().zip(from) {
                *t += v;
            }
        } else {
            to.copy_from_slice(from);
        }
    });
}

/// Sets every element of `rect` to `value` in a row-major buffer laid out
/// over `alloc`, one contiguous run at a time.
///
/// # Panics
///
/// Panics when `alloc` does not cover `rect`.
pub fn fill_rect(alloc: &Rect, data: &mut [f64], rect: &Rect, value: f64) {
    RunWalk::for_each(rect, alloc, alloc, |o, _, len| data[o..o + len].fill(value));
}

/// Iterator over the points of a [`Rect`] in lexicographic order.
#[derive(Debug)]
pub struct PointIter {
    rect: Rect,
    next: Option<Point>,
}

impl Iterator for PointIter {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        let current = self.next.take()?;
        // Advance like an odometer, last dimension fastest.
        let mut succ = current.clone();
        let dim = self.rect.dim();
        let mut d = dim;
        loop {
            if d == 0 {
                self.next = None;
                break;
            }
            d -= 1;
            if succ[d] < self.rect.hi[d] {
                succ[d] += 1;
                for coord in d + 1..dim {
                    succ[coord] = self.rect.lo[coord];
                }
                self.next = Some(succ);
                break;
            }
        }
        Some(current)
    }
}

/// A set of disjoint rectangles, used to track which sub-rectangles of a
/// region are valid in a physical instance.
///
/// # Example
///
/// ```
/// use distal_machine::geom::{Rect, RectSet};
/// let mut s = RectSet::new();
/// s.add(Rect::sized(&[4, 4]));
/// s.subtract(&Rect::sized(&[2, 2]));
/// assert!(!s.covers(&Rect::sized(&[2, 2])));
/// assert!(s.covers(&Rect::sized(&[4, 4]).restrict(0, 2, 3)));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RectSet {
    rects: Vec<Rect>,
}

impl RectSet {
    /// An empty set.
    pub fn new() -> Self {
        RectSet { rects: Vec::new() }
    }

    /// A set containing a single rectangle.
    pub fn from_rect(r: Rect) -> Self {
        let mut s = RectSet::new();
        s.add(r);
        s
    }

    /// The rectangles of the set (disjoint, unordered).
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// True when the set covers no points.
    pub fn is_empty(&self) -> bool {
        self.rects.iter().all(Rect::is_empty)
    }

    /// Adds a rectangle, keeping members disjoint by subtracting existing
    /// coverage from the newcomer.
    pub fn add(&mut self, r: Rect) {
        if r.is_empty() {
            return;
        }
        let mut pending = vec![r];
        for existing in &self.rects {
            // Members the newcomer misses cost a bounds comparison each.
            if !pending.iter().any(|p| p.overlaps(existing)) {
                continue;
            }
            let mut next = Vec::new();
            for p in pending {
                if p.overlaps(existing) {
                    next.extend(p.difference(existing));
                } else {
                    next.push(p);
                }
            }
            pending = next;
            if pending.is_empty() {
                return;
            }
        }
        self.rects.extend(pending);
    }

    /// Removes a rectangle from the set.
    pub fn subtract(&mut self, r: &Rect) {
        if !self.overlaps(r) {
            return;
        }
        // Members `r` misses are moved, not re-derived.
        let mut out = Vec::with_capacity(self.rects.len());
        for existing in self.rects.drain(..) {
            if existing.overlaps(r) {
                out.extend(existing.difference(r));
            } else {
                out.push(existing);
            }
        }
        self.rects = out;
    }

    /// True when every point of `r` is covered by the set.
    pub fn covers(&self, r: &Rect) -> bool {
        if r.is_empty() {
            return true;
        }
        let mut missing = vec![r.clone()];
        for existing in &self.rects {
            let mut next = Vec::new();
            for m in missing {
                next.extend(m.difference(existing));
            }
            missing = next;
            if missing.is_empty() {
                return true;
            }
        }
        false
    }

    /// True when the set covers at least one point of `r`.
    pub fn overlaps(&self, r: &Rect) -> bool {
        self.rects.iter().any(|e| e.overlaps(r))
    }

    /// Total covered volume.
    pub fn volume(&self) -> i64 {
        self.rects.iter().map(Rect::volume).sum()
    }
}

/// An immutable index from rectangles to values: which `(Rect, T)` entries
/// overlap a query rectangle, in the order they were inserted.
///
/// Entries may overlap, repeat or be empty (an empty entry is never
/// returned). The index is a bucket grid over the entries' own lower
/// bounds: along each dimension the distinct `lo` coordinates cut the
/// space into slabs, every entry is filed once, in the cell of its `lo`
/// corner, and a query visits the cells from its own `hi` corner back to
/// as far before its `lo` corner as the widest entry reaches. For the
/// layouts tensor distribution notation produces — blocked, block-cyclic
/// and cyclic tilings, replicated or not — pieces do not straddle cuts, so
/// a query touches the cells it overlaps and nothing else, and its cost is
/// proportional to its answer. Mixed sizes degrade towards a linear scan,
/// never past it. Building sorts the cut points and files the entries:
/// `O(n log n)` time, `O(n)` space (cuts are thinned until there are at
/// most `n` cells).
///
/// # Example
///
/// ```
/// use distal_machine::geom::{Rect, RectIndex};
/// let whole = Rect::sized(&[4, 4]);
/// // Four row blocks, owned by ranks 0..4.
/// let index = RectIndex::new((0..4).map(|r| (whole.block(0, 4, r), r)).collect());
/// let rows_1_to_2 = whole.restrict(0, 1, 2);
/// let owners: Vec<i64> = index.query(&rows_1_to_2).map(|(_, _, r)| *r).collect();
/// assert_eq!(owners, [1, 2]);
/// ```
#[derive(Clone, Debug)]
pub struct RectIndex<T> {
    entries: Vec<(Rect, T)>,
    /// Per dimension, the sorted coordinates at which a slab starts (the
    /// first slab also takes everything below its cut).
    cuts: Vec<Vec<i64>>,
    /// Per dimension, the most slabs any one entry reaches across.
    reach: Vec<usize>,
    /// Cells are numbered row-major over the slabs; the entries filed in
    /// cell `c` are `filed[cell_start[c]..cell_start[c + 1]]`, ascending.
    cell_start: Vec<usize>,
    filed: Vec<usize>,
}

impl<T> Default for RectIndex<T> {
    fn default() -> Self {
        RectIndex::new(Vec::new())
    }
}

/// The slab of `cuts` that coordinate `x` falls in.
fn slab(cuts: &[i64], x: i64) -> usize {
    cuts.partition_point(|&c| c <= x).saturating_sub(1)
}

impl<T> RectIndex<T> {
    /// Indexes `entries`; an entry's position in the vector is its
    /// sequence number.
    ///
    /// # Panics
    ///
    /// Panics when the rectangles differ in dimensionality.
    pub fn new(entries: Vec<(Rect, T)>) -> Self {
        let dim = entries.first().map_or(0, |(r, _)| r.dim());
        assert!(
            entries.iter().all(|(r, _)| r.dim() == dim),
            "indexed rects must share dimensionality"
        );
        let live: Vec<usize> = (0..entries.len())
            .filter(|&i| !entries[i].0.is_empty())
            .collect();
        let mut cuts: Vec<Vec<i64>> = (0..dim)
            .map(|d| {
                let mut c: Vec<i64> = live.iter().map(|&i| entries[i].0.lo[d]).collect();
                c.sort_unstable();
                c.dedup();
                c
            })
            .collect();
        // At most one cell per entry: drop every other cut of the most
        // finely cut dimension until the grid is small enough.
        let cells = |cuts: &[Vec<i64>]| cuts.iter().fold(1usize, |n, c| n.saturating_mul(c.len()));
        while cells(&cuts) > live.len().max(1) {
            let finest = cuts.iter_mut().max_by_key(|c| c.len()).expect("dim > 0");
            *finest = finest.iter().copied().step_by(2).collect();
        }

        let cell_of =
            |r: &Rect| (0..dim).fold(0, |cell, d| cell * cuts[d].len() + slab(&cuts[d], r.lo[d]));
        let mut reach = vec![1usize; dim];
        let mut cell_start = vec![0usize; cells(&cuts) + 1];
        for &i in &live {
            let r = &entries[i].0;
            for (d, reach) in reach.iter_mut().enumerate() {
                let across = slab(&cuts[d], r.hi[d]) - slab(&cuts[d], r.lo[d]) + 1;
                *reach = (*reach).max(across);
            }
            cell_start[cell_of(r) + 1] += 1;
        }
        for c in 1..cell_start.len() {
            cell_start[c] += cell_start[c - 1];
        }
        // File in sequence order, so every cell's list is ascending.
        let mut next = cell_start.clone();
        let mut filed = vec![0usize; live.len()];
        for &i in &live {
            let slot = &mut next[cell_of(&entries[i].0)];
            filed[*slot] = i;
            *slot += 1;
        }
        RectIndex {
            entries,
            cuts,
            reach,
            cell_start,
            filed,
        }
    }

    /// The entries overlapping `rect`, as `(sequence number, rectangle,
    /// value)` in ascending sequence — insertion — order. An empty query
    /// meets nothing.
    ///
    /// # Panics
    ///
    /// Panics when `rect`'s dimensionality differs from the entries'.
    pub fn query<'a>(&'a self, rect: &Rect) -> impl Iterator<Item = (usize, &'a Rect, &'a T)> + 'a {
        let mut hits = Vec::new();
        if !rect.is_empty() && !self.filed.is_empty() {
            assert_eq!(rect.dim(), self.cuts.len());
            // Per dimension, the slabs an overlapping entry can be filed in.
            let slabs: Vec<(usize, usize)> = (0..rect.dim())
                .map(|d| {
                    let first = slab(&self.cuts[d], rect.lo[d]).saturating_sub(self.reach[d] - 1);
                    (first, slab(&self.cuts[d], rect.hi[d]))
                })
                .collect();
            self.visit(&slabs, 0, 0, &mut |i| {
                if self.entries[i].0.overlaps(rect) {
                    hits.push(i);
                }
            });
            hits.sort_unstable();
        }
        hits.into_iter().map(move |i| {
            let (r, t) = &self.entries[i];
            (i, r, t)
        })
    }

    /// Calls `f` on every entry filed in the cells spanned by `slabs`,
    /// having fixed the slabs of dimensions `[0, d)` at row-major offset
    /// `base`. The cells of the last dimension are consecutive, so they
    /// are walked as one run.
    fn visit(&self, slabs: &[(usize, usize)], d: usize, base: usize, f: &mut impl FnMut(usize)) {
        let (first, last) = slabs.get(d).copied().unwrap_or((0, 0));
        let base = base * self.cuts.get(d).map_or(1, Vec::len);
        if d + 1 >= slabs.len() {
            let run = self.cell_start[base + first]..self.cell_start[base + last + 1];
            self.filed[run].iter().copied().for_each(f);
        } else {
            for s in first..=last {
                self.visit(slabs, d + 1, base + s, f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_basics() {
        let p = Point::new(vec![3, 4]);
        assert_eq!(p.dim(), 2);
        assert_eq!(p[0], 3);
        assert_eq!(p.extended(5).coords(), &[3, 4, 5]);
        assert_eq!(p.concat(&Point::new(vec![7])).coords(), &[3, 4, 7]);
        assert_eq!(format!("{p}"), "(3, 4)");
    }

    #[test]
    fn rect_volume_and_extent() {
        let r = Rect::sized(&[3, 5]);
        assert_eq!(r.volume(), 15);
        assert_eq!(r.extent(0), 3);
        assert_eq!(r.extent(1), 5);
        assert!(!r.is_empty());
        assert!(Rect::empty(2).is_empty());
        assert_eq!(Rect::empty(2).volume(), 0);
    }

    #[test]
    fn rect_contains_and_intersection() {
        let a = Rect::sized(&[10, 10]);
        let b = Rect::new(Point::new(vec![5, 5]), Point::new(vec![14, 14]));
        let i = a.intersection(&b);
        assert_eq!(i, Rect::new(Point::new(vec![5, 5]), Point::new(vec![9, 9])));
        assert!(a.contains_rect(&i));
        assert!(b.contains_rect(&i));
        assert!(a.overlaps(&b));
        let far = Rect::new(Point::new(vec![20, 20]), Point::new(vec![25, 25]));
        assert!(!a.overlaps(&far));
        assert!(a.contains_rect(&Rect::empty(2)));
    }

    #[test]
    fn rect_union_bb() {
        let a = Rect::sized(&[2, 2]);
        let b = Rect::new(Point::new(vec![5, 5]), Point::new(vec![6, 6]));
        let u = a.union_bb(&b);
        assert_eq!(u, Rect::new(Point::zeros(2), Point::new(vec![6, 6])));
        assert_eq!(Rect::empty(2).union_bb(&a), a);
    }

    #[test]
    fn rect_difference_covers_complement() {
        let a = Rect::sized(&[6, 6]);
        let hole = Rect::new(Point::new(vec![2, 2]), Point::new(vec![3, 3]));
        let pieces = a.difference(&hole);
        let total: i64 = pieces.iter().map(Rect::volume).sum();
        assert_eq!(total, 36 - 4);
        // Pieces must be disjoint from the hole and from each other.
        for p in &pieces {
            assert!(!p.overlaps(&hole));
        }
        for (i, p) in pieces.iter().enumerate() {
            for q in &pieces[i + 1..] {
                assert!(!p.overlaps(q), "{p:?} overlaps {q:?}");
            }
        }
    }

    #[test]
    fn rect_difference_disjoint_and_total() {
        let a = Rect::sized(&[4]);
        assert_eq!(
            a.difference(&Rect::new(Point::new(vec![10]), Point::new(vec![12]))),
            vec![a.clone()]
        );
        assert!(a.difference(&a).is_empty());
    }

    #[test]
    fn rect_point_iteration_order() {
        let r = Rect::sized(&[2, 2]);
        let pts: Vec<_> = r.points().collect();
        assert_eq!(
            pts,
            vec![
                Point::new(vec![0, 0]),
                Point::new(vec![0, 1]),
                Point::new(vec![1, 0]),
                Point::new(vec![1, 1]),
            ]
        );
        assert_eq!(Rect::empty(2).points().count(), 0);
    }

    #[test]
    fn rect_blocking_matches_paper() {
        // 100 elements over 10 processors: 10 components each (paper §3.2).
        let r = Rect::sized(&[100]);
        for i in 0..10 {
            let b = r.block(0, 10, i);
            assert_eq!(b.volume(), 10);
            assert_eq!(b.lo()[0], i * 10);
        }
        // Uneven split: ceil sizes with a short tail.
        let r = Rect::sized(&[10]);
        assert_eq!(r.block(0, 3, 0).volume(), 4);
        assert_eq!(r.block(0, 3, 1).volume(), 4);
        assert_eq!(r.block(0, 3, 2).volume(), 2);
        // Over-decomposition yields empty trailing blocks.
        let r = Rect::sized(&[2]);
        assert!(r.block(0, 3, 2).is_empty());
    }

    #[test]
    fn rect_linearize_roundtrip() {
        let r = Rect::new(Point::new(vec![2, 3]), Point::new(vec![4, 7]));
        for (i, p) in r.points().enumerate() {
            assert_eq!(r.linearize(&p), i);
            assert_eq!(r.delinearize(i as i64), p);
        }
    }

    #[test]
    fn copy_rect_full_and_sub() {
        let r = Rect::sized(&[4, 4]);
        let src: Vec<f64> = (0..16).map(|x| x as f64).collect();
        let mut dst = vec![0.0; 16];
        copy_rect(&r, &src, &r, &mut dst, &r, false);
        assert_eq!(dst, src);

        // Sub-rectangle copy into a buffer with different bounds.
        let sub = Rect::new(Point::new(vec![1, 1]), Point::new(vec![2, 2]));
        let mut small = vec![0.0; 4];
        copy_rect(&r, &src, &sub, &mut small, &sub, false);
        assert_eq!(small, [5.0, 6.0, 9.0, 10.0]);
    }

    #[test]
    fn copy_rect_reduce_accumulates() {
        let r = Rect::sized(&[2, 2]);
        let src = vec![1.0; 4];
        let mut dst = vec![2.0; 4];
        copy_rect(&r, &src, &r, &mut dst, &r, true);
        assert_eq!(dst, vec![3.0; 4]);
    }

    #[test]
    fn copy_rect_1d_and_scalar() {
        let r = Rect::sized(&[5]);
        let src: Vec<f64> = (0..5).map(|x| x as f64).collect();
        let mut dst = vec![0.0; 5];
        let sub = Rect::new(Point::new(vec![1]), Point::new(vec![3]));
        copy_rect(&r, &src, &r, &mut dst, &sub, false);
        assert_eq!(dst, vec![0.0, 1.0, 2.0, 3.0, 0.0]);

        // Order-0 regions hold exactly one element.
        let s = Rect::sized(&[]);
        let mut one = vec![1.0];
        copy_rect(&s, &[4.0], &s, &mut one, &s, true);
        assert_eq!(one, vec![5.0]);
    }

    #[test]
    fn copy_rect_merges_whole_rows_into_one_run() {
        // Rows 1..=2 of a 4x3 buffer are contiguous in both allocations:
        // the walk must visit them as a single 6-element run.
        let whole = Rect::sized(&[4, 3]);
        let rows = Rect::new(Point::new(vec![1, 0]), Point::new(vec![2, 2]));
        let mut runs = Vec::new();
        RunWalk::for_each(&rows, &whole, &rows, |a, b, len| runs.push((a, b, len)));
        assert_eq!(runs, vec![(3, 0, 6)]);
        // A column strip is one run per row.
        let strip = Rect::new(Point::new(vec![1, 1]), Point::new(vec![2, 2]));
        runs.clear();
        RunWalk::for_each(&strip, &whole, &strip, |a, b, len| runs.push((a, b, len)));
        assert_eq!(runs, vec![(4, 0, 2), (7, 2, 2)]);
    }

    #[test]
    fn fill_rect_touches_only_the_rectangle() {
        let whole = Rect::sized(&[3, 3]);
        let mut data = vec![1.0; 9];
        let sub = Rect::new(Point::new(vec![1, 0]), Point::new(vec![2, 1]));
        fill_rect(&whole, &mut data, &sub, 0.0);
        assert_eq!(data, [1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0]);
        fill_rect(&whole, &mut data, &Rect::empty(2), 7.0);
        assert!(!data.contains(&7.0));
    }

    #[test]
    fn rectset_add_subtract_cover() {
        let mut s = RectSet::new();
        assert!(s.is_empty());
        s.add(Rect::sized(&[4, 4]));
        assert!(s.covers(&Rect::sized(&[4, 4])));
        assert_eq!(s.volume(), 16);
        // Adding an overlapping rect keeps the set disjoint.
        s.add(Rect::new(Point::new(vec![2, 2]), Point::new(vec![5, 5])));
        assert_eq!(s.volume(), 16 + 16 - 4);
        s.subtract(&Rect::sized(&[2, 2]));
        assert!(!s.covers(&Rect::sized(&[2, 2])));
        assert!(!s.covers(&Rect::sized(&[4, 4])));
        assert!(s.covers(&Rect::new(Point::new(vec![4, 4]), Point::new(vec![5, 5]))));
    }

    #[test]
    fn rectset_overlap() {
        let s = RectSet::from_rect(Rect::sized(&[3, 3]));
        assert!(s.overlaps(&Rect::new(Point::new(vec![2, 2]), Point::new(vec![8, 8]))));
        assert!(!s.overlaps(&Rect::new(Point::new(vec![5, 5]), Point::new(vec![8, 8]))));
    }
}
