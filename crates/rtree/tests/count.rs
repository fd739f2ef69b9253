//! Property-based equivalence for the counting fast path: `count_in`
//! must report exactly the hit count and node-access count the scalar
//! `search` path produces, on any tree and any window. This pins down
//! the counting walk's two node tests — the two-axis elision kernel
//! (windows that span the tree's full extent on the lifted axis) and the
//! chunked fallback for nodes wider than one 64-bit mask — against the
//! reference traversal. Each tree is also
//! exported to page images, and the same kernels walking those pages must
//! report the arena's hits, order and counts.

use mar_geom::{Point2, Point3, Rect2, Rect3};
use mar_rtree::{RTree, RTreeConfig, TreeView, Variant};
use proptest::prelude::*;

fn rect2(x: f64, y: f64, w: f64, h: f64) -> Rect2 {
    Rect2::new(Point2::new([x, y]), Point2::new([x + w, y + h]))
}

fn rect3(x: f64, y: f64, z: f64, w: f64, h: f64, d: f64) -> Rect3 {
    Rect3::new(Point3::new([x, y, z]), Point3::new([x + w, y + h, z + d]))
}

/// `count_in` must agree with the scalar search on hits, accesses, and
/// the cumulative io counter — on the arena and on its page images.
fn assert_count_equals_search<const N: usize>(tree: &RTree<N, u64>, windows: &[Rect<N>]) {
    let export = tree.export_pages(8, |t, buf| buf.extend_from_slice(&t.to_le_bytes()));
    let pages = export.tree(8, |b| {
        u64::from_le_bytes(b.try_into().expect("8-byte items"))
    });
    for w in windows {
        let mut hits = Vec::new();
        let io = tree.search(w, |_, &t| hits.push(t));
        let before = tree.io_count();
        let (count, accesses) = tree.count_in(w);
        assert_eq!(count, hits.len(), "hit count diverges");
        assert_eq!(accesses, io, "access count diverges");
        assert_eq!(tree.io_count() - before, accesses, "io counter diverges");
        let mut page_hits = Vec::new();
        let page_io = pages.search(w, |_, t| page_hits.push(t));
        assert_eq!(page_hits, hits, "page hit order diverges");
        assert_eq!(page_io, io, "page access count diverges");
        assert_eq!(pages.count_in(w), (hits.len(), io), "page count diverges");
    }
}

use mar_geom::Rect;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// 3-D trees (the wavelet index layout): full-span windows on the
    /// third axis exercise the elision kernel, narrow ones the full
    /// sweep — both must match the reference walk exactly.
    #[test]
    fn count_equals_search_3d(
        boxes in prop::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.0f64..1.0, 0.0f64..8.0, 0.0f64..8.0), 1..400),
        wins in prop::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.1f64..45.0, 0.1f64..45.0, 0usize..2), 1..60),
    ) {
        let items: Vec<(Rect3, u64)> = boxes
            .iter()
            .enumerate()
            .map(|(i, &(x, y, z, w, h))| (rect3(x, y, z, w, h, 0.0), i as u64))
            .collect();
        let tree = RTree::bulk_load(RTreeConfig::paper(), items);
        tree.validate().expect("bulk tree valid");
        let windows: Vec<Rect3> = wins
            .iter()
            .map(|&(x, y, w, h, full)| {
                // `full == 1` spans the whole z extent (elision fires);
                // otherwise a partial band that must keep all three axes.
                let (zlo, zd) = if full == 1 { (-1.0, 4.0) } else { (0.25, 0.5) };
                rect3(x, y, zlo, w, h, zd)
            })
            .collect();
        assert_count_equals_search(&tree, &windows);
    }

    /// Incremental 3-D trees: splits and forced reinsertion shuffle the
    /// lanes; counting must stay equivalent through all of it.
    #[test]
    fn count_equals_search_3d_incremental(
        boxes in prop::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.0f64..1.0, 0.0f64..6.0, 0.0f64..6.0), 1..250),
        wins in prop::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.1f64..45.0, 0.1f64..45.0, 0usize..2), 1..40),
        guttman in 0usize..2,
    ) {
        let variant = if guttman == 1 { Variant::Guttman } else { Variant::RStar };
        let mut tree: RTree<3, u64> = RTree::new(RTreeConfig::new(5, variant));
        for (i, &(x, y, z, w, h)) in boxes.iter().enumerate() {
            tree.insert(rect3(x, y, z, w, h, 0.0), i as u64);
        }
        tree.validate().expect("incremental tree valid");
        let windows: Vec<Rect3> = wins
            .iter()
            .map(|&(x, y, w, h, full)| {
                let (zlo, zd) = if full == 1 { (-1.0, 4.0) } else { (0.25, 0.5) };
                rect3(x, y, zlo, w, h, zd)
            })
            .collect();
        assert_count_equals_search(&tree, &windows);
    }

    /// Wide nodes (capacity beyond one 64-bit mask) take the chunked
    /// fallback; 2-D keeps the tree shallow so most accesses hit the
    /// multi-chunk sweep.
    #[test]
    fn count_equals_search_wide_nodes(
        boxes in prop::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.0f64..8.0, 0.0f64..8.0), 1..400),
        wins in prop::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.1f64..60.0, 0.1f64..60.0), 1..40),
    ) {
        let items: Vec<(Rect2, u64)> = boxes
            .iter()
            .enumerate()
            .map(|(i, &(x, y, w, h))| (rect2(x, y, w, h), i as u64))
            .collect();
        let tree = RTree::bulk_load(RTreeConfig::new(80, Variant::RStar), items);
        tree.validate().expect("wide-node tree valid");
        let windows: Vec<Rect2> = wins.iter().map(|&(x, y, w, h)| rect2(x, y, w, h)).collect();
        assert_count_equals_search(&tree, &windows);
    }
}
