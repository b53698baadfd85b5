//! Property tests for the geometry substrate: rectangle algebra must be
//! exact, since the runtime's coherence machinery depends on it.

use distal_machine::geom::{copy_rect, Point, Rect, RectIndex, RectSet, MAX_DIM};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

// A rectangle is a plain value: copied, never cloned onto the heap, and
// small enough to pass around by value.
const _: () = {
    const fn copy<T: Copy>() {}
    copy::<Rect>();
    assert!(std::mem::size_of::<Rect>() <= 2 * (MAX_DIM + 1) * 8);
};

/// The `Point` of before coordinates moved inline — a `Vec<i64>` with
/// derived traits and the same rendering — kept as the oracle the inline
/// geometry is held to.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct VecPoint(Vec<i64>);

impl fmt::Debug for VecPoint {
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

/// The matching `Rect`, with the allocating algorithms it used to run.
#[derive(Clone, PartialEq, Debug)]
struct VecRect {
    lo: Vec<i64>,
    hi: Vec<i64>,
}

impl VecRect {
    fn dim(&self) -> usize {
        self.lo.len()
    }

    fn is_empty(&self) -> bool {
        (0..self.dim()).any(|d| self.hi[d] < self.lo[d])
    }

    fn extent(&self, d: usize) -> i64 {
        (self.hi[d] - self.lo[d] + 1).max(0)
    }

    fn intersection(&self, o: &VecRect) -> VecRect {
        let lo = (0..self.dim()).map(|d| self.lo[d].max(o.lo[d])).collect();
        let hi = (0..self.dim()).map(|d| self.hi[d].min(o.hi[d])).collect();
        VecRect { lo, hi }
    }

    fn union_bb(&self, o: &VecRect) -> VecRect {
        if self.is_empty() {
            return o.clone();
        }
        if o.is_empty() {
            return self.clone();
        }
        let lo = (0..self.dim()).map(|d| self.lo[d].min(o.lo[d])).collect();
        let hi = (0..self.dim()).map(|d| self.hi[d].max(o.hi[d])).collect();
        VecRect { lo, hi }
    }

    fn difference(&self, o: &VecRect) -> Vec<VecRect> {
        if self.is_empty() {
            return vec![];
        }
        let inter = self.intersection(o);
        if inter.is_empty() {
            return vec![self.clone()];
        }
        if inter == *self {
            return vec![];
        }
        let (mut pieces, mut rest) = (Vec::new(), self.clone());
        for d in 0..self.dim() {
            if rest.lo[d] < inter.lo[d] {
                let mut hi = rest.hi.clone();
                hi[d] = inter.lo[d] - 1;
                pieces.push(VecRect {
                    lo: rest.lo.clone(),
                    hi,
                });
                rest.lo[d] = inter.lo[d];
            }
            if rest.hi[d] > inter.hi[d] {
                let mut lo = rest.lo.clone();
                lo[d] = inter.hi[d] + 1;
                pieces.push(VecRect {
                    lo,
                    hi: rest.hi.clone(),
                });
                rest.hi[d] = inter.hi[d];
            }
        }
        pieces
    }

    /// Every point, last dimension fastest.
    fn points(&self) -> Vec<VecPoint> {
        if self.is_empty() {
            return vec![];
        }
        let mut out = vec![VecPoint(self.lo.clone())];
        loop {
            let mut next = out.last().expect("one point").0.clone();
            let Some(d) = (0..self.dim()).rev().find(|&d| next[d] < self.hi[d]) else {
                return out;
            };
            next[d] += 1;
            next[d + 1..].copy_from_slice(&self.lo[d + 1..]);
            out.push(VecPoint(next));
        }
    }

    fn linearize(&self, p: &VecPoint) -> usize {
        (0..self.dim()).fold(0, |idx, d| idx * self.extent(d) + p.0[d] - self.lo[d]) as usize
    }

    fn delinearize(&self, mut idx: i64) -> VecPoint {
        let mut coords = vec![0; self.dim()];
        for d in (0..self.dim()).rev() {
            coords[d] = self.lo[d] + idx % self.extent(d);
            idx /= self.extent(d);
        }
        VecPoint(coords)
    }

    fn inline(&self) -> Rect {
        Rect::new(Point::from_slice(&self.lo), Point::from_slice(&self.hi))
    }
}

fn oracle(r: &Rect) -> VecRect {
    VecRect {
        lo: r.lo().coords().to_vec(),
        hi: r.hi().coords().to_vec(),
    }
}

fn hash_of(h: &impl Hash) -> u64 {
    let mut s = DefaultHasher::new();
    h.hash(&mut s);
    s.finish()
}

/// Per dimension of the largest case, `(lo, extent)` for two rectangles;
/// a case cuts out every dimensionality `0..=MAX_DIM` as a prefix. Extents
/// of 0 make empty rectangles.
fn bound_pairs() -> impl Strategy<Value = Vec<((i64, i64), (i64, i64))>> {
    prop::collection::vec(((-2i64..3, 0i64..4), (-2i64..3, 0i64..4)), MAX_DIM)
}

fn rect_strategy(dim: usize, max: i64) -> impl Strategy<Value = Rect> {
    prop::collection::vec((0..max, 0..max), dim).prop_map(|bounds| {
        let lo: Vec<i64> = bounds.iter().map(|(a, b)| *a.min(b)).collect();
        let hi: Vec<i64> = bounds.iter().map(|(a, b)| *a.max(b)).collect();
        Rect::new(Point::new(lo), Point::new(hi))
    })
}

/// Three rectangles of one random dimensionality (0–4): per dimension a
/// `(lo, extent)` pair each for the source allocation, the destination
/// allocation and a probe, placed so that they overlap often but not
/// always.
fn three_rects() -> impl Strategy<Value = [Rect; 3]> {
    let span = || (0i64..3, 1i64..6);
    prop::collection::vec((span(), span(), span()), 0..5).prop_map(|dims| {
        let rect = |which: usize| {
            let spans = dims.iter().map(|(a, b, c)| [a, b, c][which]);
            Rect::new(
                Point::new(spans.clone().map(|(lo, _)| *lo).collect()),
                Point::new(spans.map(|(lo, n)| lo + n - 1).collect()),
            )
        };
        [rect(0), rect(1), rect(2)]
    })
}

/// Entry sets and queries for [`RectIndex`] over one random
/// dimensionality (1–3): a disjoint tiling of `[0, 12)^dim` by random
/// per-dimension cuts (single-element pieces included), then random
/// rectangles on top — overlapping the tiles and each other, some
/// reaching outside the tiling, some empty (`hi < lo`) — and a duplicate
/// of every third entry. Queries are drawn like the extra rectangles, so
/// some are empty and some leave the entries' bounding box.
fn index_case() -> impl Strategy<Value = (Vec<Rect>, Vec<Rect>)> {
    // (lo, hi) pairs in [-3, 15): empty about two times in five. Drawn
    // for three dimensions and cut down to the case's own.
    let loose = |n| prop::collection::vec(prop::collection::vec((-3i64..15, -3i64..15), 3), n);
    let cuts = prop::collection::vec(prop::collection::vec(1i64..12, 0..5), 3);
    (1usize..4, cuts, any::<bool>(), loose(0..6), loose(1..6)).prop_map(
        |(dim, cuts, tiled, extra, queries)| {
            let rect = |bounds: &Vec<(i64, i64)>| {
                Rect::new(
                    Point::new(bounds[..dim].iter().map(|b| b.0).collect()),
                    Point::new(bounds[..dim].iter().map(|b| b.1).collect()),
                )
            };
            let mut entries = Vec::new();
            if tiled {
                // Per dimension, the [start, end] intervals between cuts.
                let intervals: Vec<Vec<(i64, i64)>> = cuts[..dim]
                    .iter()
                    .map(|c| {
                        let mut c = c.clone();
                        c.extend([0, 12]);
                        c.sort_unstable();
                        c.dedup();
                        c.windows(2).map(|w| (w[0], w[1] - 1)).collect()
                    })
                    .collect();
                let counts: Vec<i64> = intervals.iter().map(|i| i.len() as i64).collect();
                for tile in Rect::sized(&counts).points() {
                    let bounds = (0..dim).map(|d| intervals[d][tile[d] as usize]).collect();
                    entries.push(rect(&bounds));
                }
            }
            entries.extend(extra.iter().map(rect));
            let repeats: Vec<Rect> = entries.iter().step_by(3).cloned().collect();
            entries.extend(repeats);
            (entries, queries.iter().map(rect).collect())
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// RectIndex::query is a linear `overlaps` filter in insertion order,
    /// whatever the entries look like — indexed on slabs of their own or,
    /// through `new_like`, on the slabs of an unrelated entry set, which
    /// the entries' corners fall between, below and beyond. A strictly
    /// increasing map of every coordinate keeps every overlap, so the
    /// case is also run stretched past 2^32 and shifted by ±2^40: slab
    /// spacings and offsets from the first cut then exceed 32 bits.
    #[test]
    fn rect_index_matches_linear_filter(
        (entries, queries) in index_case(),
        (like, _) in index_case(),
        scale in prop_oneof![Just(1i64), Just((1i64 << 32) + 1)],
        shift in prop_oneof![Just(0i64), Just(1i64 << 40), Just(-(1i64 << 40))],
    ) {
        let map = |p: &Point| Point::new((0..p.dim()).map(|d| p[d] * scale + shift).collect());
        let stretch = |r: &Rect| Rect::new(map(r.lo()), map(r.hi()));
        let entries: Vec<Rect> = entries.iter().map(stretch).collect();
        let queries: Vec<Rect> = queries.iter().map(stretch).collect();
        let numbered = || entries.iter().cloned().enumerate().map(|(i, r)| (r, i)).collect();
        let like = RectIndex::new(like.into_iter().map(|r| (r, ())).collect());
        for index in [RectIndex::new(numbered()), RectIndex::new_like(&like, numbered())] {
            // One buffer for every query: a query starts from whatever the
            // last one left in it.
            let mut hits = Vec::new();
            for q in &queries {
                let want: Vec<usize> =
                    (0..entries.len()).filter(|&i| entries[i].overlaps(q)).collect();
                let got: Vec<usize> = index
                    .query(q, &mut hits)
                    .map(|(seq, r, value)| {
                        assert_eq!(r, &entries[seq]);
                        assert_eq!(*value, seq);
                        seq
                    })
                    .collect();
                prop_assert_eq!(got, want, "query {} over {:?}", q, entries);
            }
        }
    }

    /// The in-place overlap test is the intersection test, empty
    /// operands included (an empty rectangle overlaps nothing).
    #[test]
    fn overlaps_is_nonempty_intersection((entries, queries) in index_case()) {
        for a in entries.iter().chain(&queries) {
            for b in &queries {
                prop_assert_eq!(a.overlaps(b), !a.intersection(b).is_empty(), "{} vs {}", a, b);
                prop_assert_eq!(a.overlaps(b), b.overlaps(a));
            }
        }
    }
}

proptest! {
    // Five dimensionalities, two modes, and about half the cases of each
    // dimension empty: 64 cases would leave 4-D copies almost untested.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// copy_rect agrees bit for bit with a per-point copy, in both modes,
    /// for every dimensionality the workspace uses, and writes nothing
    /// outside the rectangle.
    #[test]
    fn copy_rect_matches_per_point_oracle(rects in three_rects(), reduce in any::<bool>()) {
        let [src_alloc, dst_alloc, probe] = rects;
        // The largest rectangle both allocations cover; empty when the
        // three do not meet.
        let rect = src_alloc.intersection(&dst_alloc).intersection(&probe);
        let src: Vec<f64> = (0..src_alloc.volume()).map(|i| 0.1 + i as f64 / 3.0).collect();
        let before: Vec<f64> = (0..dst_alloc.volume()).map(|i| -7.0 - i as f64 / 7.0).collect();

        let mut want = before.clone();
        for p in rect.points() {
            let v = src[src_alloc.linearize(&p)];
            let slot = &mut want[dst_alloc.linearize(&p)];
            if reduce { *slot += v } else { *slot = v }
        }
        let mut got = before;
        copy_rect(&src_alloc, &src, &dst_alloc, &mut got, &rect, reduce);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        prop_assert_eq!(bits(&got), bits(&want));
    }
}

proptest! {
    /// difference() partitions: |a \ b| + |a ∩ b| = |a|, all disjoint.
    #[test]
    fn difference_partitions(a in rect_strategy(2, 12), b in rect_strategy(2, 12)) {
        let pieces = a.difference(&b);
        let inter = a.intersection(&b);
        let total: i64 = pieces.iter().map(Rect::volume).sum();
        prop_assert_eq!(total + inter.volume(), a.volume());
        for p in &pieces {
            prop_assert!(!p.overlaps(&b));
            prop_assert!(a.contains_rect(p));
        }
        for (i, p) in pieces.iter().enumerate() {
            for q in &pieces[i + 1..] {
                prop_assert!(!p.overlaps(q));
            }
        }
    }

    /// RectSet add/subtract maintains exact coverage volume.
    #[test]
    fn rectset_volume_is_exact(
        rects in prop::collection::vec(rect_strategy(2, 10), 1..6),
        sub in rect_strategy(2, 10),
    ) {
        let mut s = RectSet::new();
        for r in &rects {
            s.add(*r);
        }
        // Volume equals the number of covered lattice points.
        let bb = rects.iter().fold(Rect::empty(2), |acc, r| acc.union_bb(r));
        let mut count = 0;
        for p in bb.points() {
            if rects.iter().any(|r| r.contains_point(&p)) {
                count += 1;
            }
        }
        prop_assert_eq!(s.volume(), count);
        // Subtracting removes exactly the covered intersection.
        let mut count_after = 0;
        for p in bb.points() {
            if rects.iter().any(|r| r.contains_point(&p)) && !sub.contains_point(&p) {
                count_after += 1;
            }
        }
        s.subtract(&sub);
        prop_assert_eq!(s.volume(), count_after);
    }

    /// covers() agrees with pointwise membership.
    #[test]
    fn rectset_covers_agrees_with_points(
        rects in prop::collection::vec(rect_strategy(2, 8), 1..5),
        probe in rect_strategy(2, 8),
    ) {
        let mut s = RectSet::new();
        for r in &rects {
            s.add(*r);
        }
        let pointwise = probe
            .points()
            .all(|p| rects.iter().any(|r| r.contains_point(&p)));
        prop_assert_eq!(s.covers(&probe), pointwise);
    }

    /// linearize/delinearize round-trip on arbitrary rects.
    #[test]
    fn linearize_roundtrip(r in rect_strategy(3, 6)) {
        for (i, p) in r.points().enumerate() {
            prop_assert_eq!(r.linearize(&p), i);
            prop_assert_eq!(r.delinearize(i as i64), p);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// At every dimensionality up to the cap, the inline point and
    /// rectangle answer exactly as the `Vec<i64>`-backed ones they
    /// replaced: comparison, equality, hashing, rendering, and the
    /// rectangle algebra.
    #[test]
    fn inline_geometry_matches_the_vec_oracle(bounds in bound_pairs(), cut in 0usize..MAX_DIM + 1) {
        for dim in 0..=MAX_DIM {
            let rect = |which: usize| {
                let spans = bounds[..dim].iter().map(|pair| [pair.0, pair.1][which]);
                VecRect {
                    lo: spans.clone().map(|(lo, _)| lo).collect(),
                    hi: spans.map(|(lo, n)| lo + n - 1).collect(),
                }
            };
            let (va, vb) = (rect(0), rect(1));
            let (a, b) = (va.inline(), vb.inline());
            prop_assert_eq!(format!("{a:?}"), format!("[{:?}..{:?}]", VecPoint(va.lo.clone()), VecPoint(va.hi.clone())));
            prop_assert_eq!(oracle(&a.intersection(&b)), va.intersection(&vb));
            prop_assert_eq!(oracle(&a.union_bb(&b)), va.union_bb(&vb));
            let pieces: Vec<VecRect> = a.difference(&b).iter().map(oracle).collect();
            prop_assert_eq!(pieces, va.difference(&vb));

            let points: Vec<Point> = a.points().collect();
            let want = va.points();
            prop_assert_eq!(points.len(), want.len());
            for (i, (p, v)) in points.iter().zip(&want).enumerate() {
                prop_assert_eq!(p.coords(), &v.0[..]);
                prop_assert_eq!(format!("{p:?}"), format!("{v:?}"));
                prop_assert_eq!(hash_of(p), hash_of(v));
                prop_assert_eq!(a.linearize(p), va.linearize(v));
                prop_assert_eq!(a.linearize(p), i);
                let back = VecPoint(a.delinearize(i as i64).coords().to_vec());
                prop_assert_eq!(back, va.delinearize(i as i64));
            }
            // Points of different dimensionalities (a prefix of the other
            // rectangle's corner, cut at random) compare as their slices.
            let (p, q) = (*a.lo(), Point::from_slice(&b.hi().coords()[..cut.min(dim)]));
            let (vp, vq) = (VecPoint(va.lo.clone()), VecPoint(vb.hi[..cut.min(dim)].to_vec()));
            prop_assert_eq!(p.cmp(&q), vp.cmp(&vq));
            prop_assert_eq!(p == q, vp == vq);
            prop_assert_eq!(hash_of(&q), hash_of(&vq));
        }
    }
}
