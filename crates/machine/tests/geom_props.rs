//! Property tests for the geometry substrate: rectangle algebra must be
//! exact, since the runtime's coherence machinery depends on it.

use distal_machine::geom::{copy_rect, Point, Rect, RectIndex, RectSet};
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
    /// whatever the entries look like.
    #[test]
    fn rect_index_matches_linear_filter((entries, queries) in index_case()) {
        let index = RectIndex::new(entries.iter().cloned().enumerate().map(|(i, r)| (r, i)).collect());
        for q in &queries {
            let want: Vec<usize> = (0..entries.len()).filter(|&i| entries[i].overlaps(q)).collect();
            let got: Vec<usize> = index
                .query(q)
                .map(|(seq, r, value)| {
                    assert_eq!(r, &entries[seq]);
                    assert_eq!(*value, seq);
                    seq
                })
                .collect();
            prop_assert_eq!(got, want, "query {} over {:?}", q, entries);
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
