//! Property tests for the geometry substrate: rectangle algebra must be
//! exact, since the runtime's coherence machinery depends on it.

use distal_machine::geom::{copy_rect, Point, Rect, RectSet};
use proptest::prelude::*;

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

    /// Blocked partitioning covers the rect exactly, in order, disjointly.
    #[test]
    fn blocks_tile_exactly(extent in 1i64..40, parts in 1i64..10) {
        let r = Rect::sized(&[extent]);
        let mut total = 0;
        let mut next_lo = 0;
        for i in 0..parts {
            let b = r.block(0, parts, i);
            total += b.volume();
            if !b.is_empty() {
                prop_assert_eq!(b.lo()[0], next_lo);
                next_lo = b.hi()[0] + 1;
            }
        }
        prop_assert_eq!(total, extent);
    }

    /// RectSet add/subtract maintains exact coverage volume.
    #[test]
    fn rectset_volume_is_exact(
        rects in prop::collection::vec(rect_strategy(2, 10), 1..6),
        sub in rect_strategy(2, 10),
    ) {
        let mut s = RectSet::new();
        for r in &rects {
            s.add(r.clone());
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
            s.add(r.clone());
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
