//! Property-based tests of the geometry substrate's algebraic laws.

use mps_geom::{BlockRanges, Coord, DimIndex, DimsBox, Interval, IntervalMap, Rect};
use proptest::prelude::*;

fn interval() -> impl Strategy<Value = Interval> {
    (-100i64..100, 0i64..80).prop_map(|(lo, len)| Interval::new(lo, lo + len))
}

fn rect() -> impl Strategy<Value = Rect> {
    (-50i64..50, -50i64..50, 1i64..40, 1i64..40)
        .prop_map(|(x, y, w, h)| Rect::from_xywh(x, y, w, h))
}

proptest! {
    // ------------------------------------------------------------------
    // Interval algebra.
    // ------------------------------------------------------------------

    #[test]
    fn intersect_is_commutative_and_contained(a in interval(), b in interval()) {
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        if let Some(i) = a.intersect(&b) {
            prop_assert!(a.contains_interval(&i));
            prop_assert!(b.contains_interval(&i));
            prop_assert!(a.overlaps(&b));
        } else {
            prop_assert!(!a.overlaps(&b));
        }
    }

    #[test]
    fn hull_contains_both_and_is_minimal(a in interval(), b in interval()) {
        let h = a.hull(&b);
        prop_assert!(h.contains_interval(&a));
        prop_assert!(h.contains_interval(&b));
        // Minimality: the hull's endpoints come from the operands.
        prop_assert!(h.lo() == a.lo() || h.lo() == b.lo());
        prop_assert!(h.hi() == a.hi() || h.hi() == b.hi());
    }

    #[test]
    fn subtract_partitions_the_interval(a in interval(), b in interval()) {
        // Every point of `a` is either in `b` or in exactly one piece.
        let pieces = a.subtract(&b).into_vec();
        for v in a.lo()..=a.hi() {
            let in_pieces = pieces.iter().filter(|p| p.contains(v)).count();
            if b.contains(v) {
                prop_assert_eq!(in_pieces, 0, "point {} should be cut", v);
            } else {
                prop_assert_eq!(in_pieces, 1, "point {} lost or duplicated", v);
            }
        }
        // Pieces never contain points outside `a`.
        for p in &pieces {
            prop_assert!(a.contains_interval(p));
        }
    }

    #[test]
    fn overlap_len_matches_pointwise_count(a in interval(), b in interval()) {
        let count = (a.lo()..=a.hi()).filter(|&v| b.contains(v)).count() as u64;
        prop_assert_eq!(a.overlap_len(&b), count);
    }

    #[test]
    fn split_at_reassembles(a in interval(), v in -120i64..120) {
        if let Some((l, r)) = a.split_at(v) {
            prop_assert_eq!(l.hull(&r), a);
            prop_assert!(l.adjacent(&r));
            prop_assert_eq!(l.len() + r.len(), a.len());
        }
    }

    // ------------------------------------------------------------------
    // Rectangles.
    // ------------------------------------------------------------------

    #[test]
    fn overlap_area_is_symmetric_and_bounded(a in rect(), b in rect()) {
        prop_assert_eq!(a.overlap_area(&b), b.overlap_area(&a));
        prop_assert!(a.overlap_area(&b) <= a.area().min(b.area()));
        prop_assert_eq!(a.overlap_area(&b) > 0, a.overlaps(&b));
        prop_assert_eq!(a.overlap_area(&a), a.area());
    }

    #[test]
    fn bounding_union_is_associative_enough(a in rect(), b in rect(), c in rect()) {
        let u1 = a.bounding_union(&b).bounding_union(&c);
        let u2 = a.bounding_union(&b.bounding_union(&c));
        prop_assert_eq!(u1, u2);
        prop_assert!(a.fits_inside(&u1) && b.fits_inside(&u1) && c.fits_inside(&u1));
    }

    // ------------------------------------------------------------------
    // DimsBox subtraction: the Resolve-Overlap primitive.
    // ------------------------------------------------------------------

    #[test]
    fn subtract_along_is_exact(
        wa in interval(), ha in interval(), cut in interval(), axis_w in prop::bool::ANY,
    ) {
        let b = DimsBox::new(vec![BlockRanges::new(wa, ha)]);
        let dim = DimIndex {
            block: 0,
            axis: if axis_w { mps_geom::Axis::Width } else { mps_geom::Axis::Height },
        };
        let pieces = b.subtract_along(dim, cut);
        // Pieces are disjoint from each other and from the cut slab, and
        // their union with the cut slab covers the original box along the
        // axis.
        let original = b.along(dim);
        let mut covered: u64 = original.overlap_len(&cut);
        for (i, p) in pieces.iter().enumerate() {
            let piv = p.along(dim);
            prop_assert!(original.contains_interval(&piv));
            prop_assert_eq!(piv.overlap_len(&cut), 0);
            covered += piv.len();
            for q in &pieces[i + 1..] {
                prop_assert!(!piv.overlaps(&q.along(dim)));
            }
        }
        prop_assert_eq!(covered, original.len());
    }

    // ------------------------------------------------------------------
    // IntervalMap bulk behaviour (complements the in-module model test).
    // ------------------------------------------------------------------

    #[test]
    fn interval_map_ranges_of_roundtrip(
        ranges in prop::collection::vec((0i64..60, 0i64..30), 1..10),
    ) {
        let mut map: IntervalMap<u32> = IntervalMap::new();
        for &(lo, len) in &ranges {
            map.insert(Interval::new(lo, lo + len), 1);
        }
        // ranges_of(1) is a minimal disjoint cover of all inserted points.
        let merged = map.ranges_of(1);
        for w in merged.windows(2) {
            prop_assert!(w[0].hi() + 1 < w[1].lo(), "not maximal/disjoint: {:?}", merged);
        }
        for &(lo, len) in &ranges {
            for v in lo..=(lo + len) {
                prop_assert!(merged.iter().any(|m| m.contains(v)));
            }
        }
        map.check_invariants().unwrap();
    }

    #[test]
    fn interval_map_covered_len_matches_query(
        // `(lo, len, id, chained)`: about half the intervals are points
        // (`len` 0), and a chained one starts right after the previous one.
        ops in prop::collection::vec(
            (-30i64..50, (0i64..40).prop_map(|l| (l - 20).max(0)), 0u32..4, prop::bool::ANY),
            1..20,
        ),
    ) {
        let mut intervals: Vec<(Interval, u32)> = Vec::new();
        for &(lo, len, id, chained) in &ops {
            let lo = match intervals.last() {
                Some((prev, _)) if chained => prev.hi() + 1,
                _ => lo,
            };
            intervals.push((Interval::new(lo, lo + len), id));
        }
        let mut map: IntervalMap<u32> = IntervalMap::new();
        for &(iv, id) in &intervals {
            map.insert(iv, id);
        }
        // The one-sweep builder equals the fold of `insert`.
        let swept: IntervalMap<u32> = intervals.iter().copied().collect();
        prop_assert_eq!(&swept, &map);
        let hi = intervals.iter().map(|(iv, _)| iv.hi()).max().unwrap_or(0);
        let by_query = (-35..hi + 5).filter(|&v| !map.query(v).is_empty()).count() as u64;
        prop_assert_eq!(map.covered_len(), by_query);
    }
}

// A couple of deterministic regression shapes distilled from failures the
// random suite would otherwise have to rediscover.
#[test]
fn subtract_along_regression_point_cut() {
    let b = DimsBox::new(vec![BlockRanges::new(
        Interval::new(0, 0),
        Interval::new(0, 5),
    )]);
    let pieces = b.subtract_along(
        DimIndex {
            block: 0,
            axis: mps_geom::Axis::Width,
        },
        Interval::point(0),
    );
    assert!(pieces.is_empty());
}

#[test]
fn interval_map_adjacent_different_ids_do_not_merge() {
    let mut map: IntervalMap<u32> = IntervalMap::new();
    map.insert(Interval::new(0, 4), 1);
    map.insert(Interval::new(5, 9), 2);
    assert_eq!(map.segment_count(), 2);
    assert_eq!(map.query(4), &[1]);
    assert_eq!(map.query(5), &[2]);
}

#[test]
fn rect_coord_type_is_reexported() {
    // Compile-time check that the public alias stays wired.
    let c: Coord = 5;
    let r = Rect::from_xywh(c, c, c, c);
    assert_eq!(r.area(), 25);
}
