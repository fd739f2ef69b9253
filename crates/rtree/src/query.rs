//! Window queries with node-access accounting: one set of descent
//! kernels — a scalar search, a batched multi-window group descent and a
//! counting walk — written once over a node-view trait.
//!
//! [`TreeView`] is all a kernel needs of a tree: a root id, a way to look
//! at node `id` through a [`NodeView`], how to read a leaf item, and the
//! counters to tally into. The in-RAM arena implements it over its SoA
//! lanes; the out-of-core backend implements it over decoded
//! [`crate::NodePage`] images fetched through a buffer pool. The kernels
//! are generic (monomorphised per backend, never `dyn`), so the two
//! backends cannot drift apart: same visit order, same access counts.
//!
//! The kernels are iterative and perform no allocation on the hot path:
//! the traversal stacks are thread-local scratch buffers that are taken
//! for the duration of one search and handed back (grown) afterwards, so
//! steady-state queries reuse the same capacity forever. A `Cell`
//! (take/replace) rather than a `RefCell` keeps re-entrant searches safe:
//! a query issued from inside a visitor simply starts from a fresh empty
//! stack.
//!
//! Node tests run through [`NodeView::match_bits`]: one test of up to 64
//! entries produces a hit bitmask that iterates by `trailing_zeros`. On
//! the arena this is the branchless lane sweep of [`Lanes::match_bits`];
//! the visit order (and therefore every access count) is identical to
//! the classic one-rect-at-a-time loop, which is what a page view runs.
//!
//! [`TreeView::search_batch`] extends this to K windows at once: the
//! stack carries `(node, window_bitmask)` pairs, so a node shared by
//! several windows is *physically* visited once per group while the
//! per-window **logical** access counts (what K independent scalar
//! descents would have reported, and what the cumulative
//! [`RTree::io_count`] tallies) are still attributed exactly. The
//! physical visit count — the improved node-access metric batching buys
//! — is returned alongside.
//!
//! [`Lanes::match_bits`]: crate::node::Lanes::match_bits

use crate::node::{Lanes, NodeKind};
use crate::{IoCounters, IoKind, RTree};
use mar_geom::Rect;
use std::cell::Cell;

thread_local! {
    /// Reusable traversal stack shared by every tree on this thread; node
    /// ids are plain `u32`s, so one buffer serves all backends.
    static SEARCH_STACK: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
    /// Reusable `(node, window-bitmask)` stack for the batched descent.
    static BATCH_STACK: Cell<Vec<(u32, u64)>> = const { Cell::new(Vec::new()) };
}

/// Access accounting of one [`TreeView::search_batch`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchAccesses {
    /// Logical node accesses per window — exactly what a scalar
    /// [`TreeView::search`] of the same window would have returned. These
    /// are what the cumulative [`RTree::io_count`] is incremented by, so
    /// existing I/O accounting is batch-invariant.
    pub per_window: Vec<u64>,
    /// Distinct node visits the grouped descent actually performed (a
    /// node shared by several windows of a 64-wide group counts once).
    /// `max(per_window) <= unique <= sum(per_window)`.
    pub unique: u64,
}

impl BatchAccesses {
    /// Sum of the per-window logical accesses (what K scalar searches
    /// would have cost).
    pub fn logical_total(&self) -> u64 {
        self.per_window.iter().sum()
    }
}

/// One tree node as the descent kernels see it.
pub trait NodeView<const N: usize> {
    /// True for a leaf (entries carry items), false for an internal node
    /// (entries carry child ids).
    fn is_leaf(&self) -> bool;

    /// Number of entries.
    fn len(&self) -> usize;

    /// True when the node holds no entries (an empty root leaf).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entry `i`'s rectangle.
    fn rect(&self, i: usize) -> Rect<N>;

    /// Entry `i`'s child id (internal nodes only).
    fn child(&self, i: usize) -> u32;

    /// Tests up to 64 entries starting at `start` (a multiple of 64)
    /// against `window` and returns `(hit_mask, tested)`: bit `j` is set
    /// iff entry `start + j` intersects `window` (closed intervals,
    /// exactly [`Rect::intersects`]).
    fn match_bits(&self, window: &Rect<N>, start: usize) -> (u64, usize) {
        let n = (self.len() - start).min(64);
        let mut mask = 0u64;
        for j in 0..n {
            mask |= u64::from(self.rect(start + j).intersects(window)) << j;
        }
        (mask, n)
    }

    /// [`NodeView::match_bits`] for a window already known to span every
    /// stored rectangle on each axis ≥ 2, so only the first two axes can
    /// reject (the axis elision of [`RTree::count_in`]). The default
    /// tests every axis, which is always exact.
    fn match_bits_front(&self, window: &Rect<N>, start: usize) -> (u64, usize) {
        self.match_bits(window, start)
    }
}

/// A tree the descent kernels can walk: a root, node lookup by id, leaf
/// item reads, and the node-access counters the walks tally into.
///
/// The provided methods are the kernels themselves, so every
/// implementation gets the same scalar search, group descent and
/// counting walk.
pub trait TreeView<const N: usize> {
    /// What a leaf entry hands the visitor.
    type Item;
    /// The node view; it may borrow a page fetched for one visit.
    type Node<'n>: NodeView<N>
    where
        Self: 'n;

    /// The root node's id.
    fn root(&self) -> u32;

    /// Runs `f` on node `id` (one node access).
    fn with_node<R>(&self, id: u32, f: impl FnOnce(&Self::Node<'_>) -> R) -> R;

    /// Leaf entry `i`'s item.
    fn item(&self, node: &Self::Node<'_>, i: usize) -> Self::Item;

    /// The cumulative node-access counters.
    fn io(&self) -> &IoCounters;

    /// Visits every `(rect, item)` whose rectangle intersects `window`,
    /// returning the number of node accesses the search performed. The
    /// counters are incremented by the same amount (logical and unique).
    ///
    /// Children are pushed in ascending entry order and popped LIFO, so
    /// the visit order is a pure function of the tree and the window.
    fn search(&self, window: &Rect<N>, mut visit: impl FnMut(Rect<N>, Self::Item)) -> u64 {
        let mut stack = SEARCH_STACK.with(Cell::take);
        stack.clear();
        let mut accesses = 0u64;
        stack.push(self.root());
        while let Some(id) = stack.pop() {
            accesses += 1;
            self.with_node(id, |node| {
                let mut start = 0;
                if node.is_leaf() {
                    while start < node.len() {
                        let (mut mask, n) = node.match_bits(window, start);
                        while mask != 0 {
                            let j = start + mask.trailing_zeros() as usize;
                            mask &= mask - 1;
                            visit(node.rect(j), self.item(node, j));
                        }
                        start += n;
                    }
                } else {
                    while start < node.len() {
                        let (mut mask, n) = node.match_bits(window, start);
                        while mask != 0 {
                            let j = start + mask.trailing_zeros() as usize;
                            mask &= mask - 1;
                            stack.push(node.child(j));
                        }
                        start += n;
                    }
                }
            });
        }
        SEARCH_STACK.with(|cell| cell.set(stack));
        self.io().add(IoKind::Logical, accesses);
        self.io().add(IoKind::Unique, accesses);
        accesses
    }

    /// Searches `K` windows in one grouped descent. `visit` receives
    /// `(window_index, rect, item)` for every window/item intersection —
    /// per window, exactly the hits (in exactly the order) the scalar
    /// [`TreeView::search`] of that window produces; emission may
    /// interleave windows.
    ///
    /// Windows are grouped 64 at a time (one bitmask lane each); within a
    /// group every node is physically visited at most once, while logical
    /// per-window accesses — and through them the cumulative counters —
    /// are attributed exactly as K scalar searches would have. See
    /// [`BatchAccesses`].
    fn search_batch(
        &self,
        windows: &[Rect<N>],
        mut visit: impl FnMut(usize, Rect<N>, Self::Item),
    ) -> BatchAccesses {
        let mut per_window = vec![0u64; windows.len()];
        let mut unique = 0u64;
        let mut stack = BATCH_STACK.with(Cell::take);
        for (chunk_idx, chunk) in windows.chunks(64).enumerate() {
            let base = chunk_idx * 64;
            let all = if chunk.len() == 64 {
                u64::MAX
            } else {
                (1u64 << chunk.len()) - 1
            };
            stack.clear();
            stack.push((self.root(), all));
            while let Some((id, group)) = stack.pop() {
                unique += 1;
                // Logical attribution: every window whose bit is set
                // "visits" this node, exactly as its own scalar descent
                // would have.
                let mut g = group;
                while g != 0 {
                    let w = g.trailing_zeros() as usize;
                    g &= g - 1;
                    per_window[base + w] += 1;
                }
                self.with_node(id, |node| {
                    if node.is_leaf() {
                        let mut g = group;
                        while g != 0 {
                            let w = g.trailing_zeros() as usize;
                            g &= g - 1;
                            let mut start = 0;
                            while start < node.len() {
                                let (mut mask, n) = node.match_bits(&chunk[w], start);
                                while mask != 0 {
                                    let j = start + mask.trailing_zeros() as usize;
                                    mask &= mask - 1;
                                    visit(base + w, node.rect(j), self.item(node, j));
                                }
                                start += n;
                            }
                        }
                    } else {
                        // Transpose window×entry hits into per-child
                        // window masks, then push surviving children in
                        // entry order.
                        let mut start = 0;
                        while start < node.len() {
                            let n = (node.len() - start).min(64);
                            let mut child_masks = [0u64; 64];
                            let mut g = group;
                            while g != 0 {
                                let w = g.trailing_zeros() as usize;
                                g &= g - 1;
                                let (mut mask, _) = node.match_bits(&chunk[w], start);
                                while mask != 0 {
                                    let j = mask.trailing_zeros() as usize;
                                    mask &= mask - 1;
                                    child_masks[j] |= 1u64 << w;
                                }
                            }
                            for (j, &cm) in child_masks[..n].iter().enumerate() {
                                if cm != 0 {
                                    stack.push((node.child(start + j), cm));
                                }
                            }
                            start += n;
                        }
                    }
                });
            }
        }
        BATCH_STACK.with(|cell| cell.set(stack));
        let total: u64 = per_window.iter().sum();
        self.io().add(IoKind::Logical, total);
        self.io().add(IoKind::Unique, unique);
        BatchAccesses { per_window, unique }
    }

    /// Counts items intersecting `window` without materialising them;
    /// returns `(hits, node accesses)`. Visits exactly the nodes
    /// [`TreeView::search`] would, in the same order, but leaf hits are
    /// tallied straight off the match bitmask with a popcount — no
    /// per-hit rectangle or item access.
    fn count_in(&self, window: &Rect<N>) -> (usize, u64) {
        count_walk::<N, Self, false>(self, window)
    }
}

/// The counting walk. `FRONT` selects [`NodeView::match_bits_front`],
/// valid only when the caller has proved the window spans the whole tree
/// on every axis ≥ 2.
fn count_walk<const N: usize, V: TreeView<N> + ?Sized, const FRONT: bool>(
    tree: &V,
    window: &Rect<N>,
) -> (usize, u64) {
    let mut stack = SEARCH_STACK.with(Cell::take);
    stack.clear();
    let mut accesses = 0u64;
    let mut hits = 0usize;
    stack.push(tree.root());
    while let Some(id) = stack.pop() {
        accesses += 1;
        tree.with_node(id, |node| {
            let leaf = node.is_leaf();
            let mut start = 0;
            while start < node.len() {
                let (mut mask, n) = if FRONT {
                    node.match_bits_front(window, start)
                } else {
                    node.match_bits(window, start)
                };
                if leaf {
                    hits += mask.count_ones() as usize;
                } else {
                    while mask != 0 {
                        let j = start + mask.trailing_zeros() as usize;
                        mask &= mask - 1;
                        stack.push(node.child(j));
                    }
                }
                start += n;
            }
        });
    }
    SEARCH_STACK.with(|cell| cell.set(stack));
    tree.io().add(IoKind::Logical, accesses);
    tree.io().add(IoKind::Unique, accesses);
    (hits, accesses)
}

/// An arena node resolved once per visit: its lanes plus the parallel
/// child or item array, so every per-entry access is a plain field read.
pub(crate) struct ArenaNode<'t, const N: usize, T> {
    leaf: bool,
    lanes: &'t Lanes<N>,
    children: &'t [u32],
    items: &'t [T],
}

impl<const N: usize, T> NodeView<N> for ArenaNode<'_, N, T> {
    #[inline(always)]
    fn is_leaf(&self) -> bool {
        self.leaf
    }

    #[inline(always)]
    fn len(&self) -> usize {
        self.lanes.len()
    }

    #[inline(always)]
    fn rect(&self, i: usize) -> Rect<N> {
        self.lanes.rect(i)
    }

    #[inline(always)]
    fn child(&self, i: usize) -> u32 {
        self.children[i]
    }

    #[inline(always)]
    fn match_bits(&self, window: &Rect<N>, start: usize) -> (u64, usize) {
        self.lanes.match_bits(window, start)
    }

    #[inline(always)]
    fn match_bits_front(&self, window: &Rect<N>, start: usize) -> (u64, usize) {
        self.lanes.match_bits_front(window, start)
    }
}

/// The arena as a [`TreeView`]: node ids are arena slots.
pub(crate) struct ArenaView<'t, const N: usize, T>(&'t RTree<N, T>);

impl<'t, const N: usize, T> TreeView<N> for ArenaView<'t, N, T> {
    type Item = &'t T;
    type Node<'n>
        = ArenaNode<'t, N, T>
    where
        Self: 'n;

    #[inline(always)]
    fn root(&self) -> u32 {
        self.0.root
    }

    #[inline(always)]
    fn with_node<R>(&self, id: u32, f: impl FnOnce(&ArenaNode<'t, N, T>) -> R) -> R {
        f(&match self.0.arena.node(id) {
            NodeKind::Leaf(node) => ArenaNode {
                leaf: true,
                lanes: &node.lanes,
                children: &[],
                items: node.items(),
            },
            NodeKind::Internal(node) => ArenaNode {
                leaf: false,
                lanes: &node.lanes,
                children: node.children(),
                items: &[],
            },
            // Free slots are never reachable from the root.
            NodeKind::Free => unreachable!("slot {id} is free"),
        })
    }

    #[inline(always)]
    fn item(&self, node: &ArenaNode<'t, N, T>, i: usize) -> &'t T {
        &node.items[i]
    }

    fn io(&self) -> &IoCounters {
        &self.0.io
    }
}

impl<const N: usize, T> RTree<N, T> {
    /// The tree as a [`TreeView`] for the shared descent kernels.
    pub(crate) fn view(&self) -> ArenaView<'_, N, T> {
        ArenaView(self)
    }

    /// Visits every `(rect, item)` whose rectangle intersects `window`,
    /// returning the number of node (page) accesses the search performed.
    /// The cumulative [`RTree::io_count`] is incremented by the same
    /// amount. See [`TreeView::search`].
    pub fn search<'a>(&'a self, window: &Rect<N>, visit: impl FnMut(Rect<N>, &'a T)) -> u64 {
        self.view().search(window, visit)
    }

    /// Searches `K` windows in one grouped descent; see
    /// [`TreeView::search_batch`].
    pub fn search_batch<'a>(
        &'a self,
        windows: &[Rect<N>],
        visit: impl FnMut(usize, Rect<N>, &'a T),
    ) -> BatchAccesses {
        self.view().search_batch(windows, visit)
    }

    /// Collects every item intersecting `window`; returns the items and the
    /// node accesses.
    pub fn query(&self, window: &Rect<N>) -> (Vec<&T>, u64) {
        let mut out = Vec::new();
        let io = self.search(window, |_, item| out.push(item));
        (out, io)
    }

    /// Counts items intersecting `window` without materialising them;
    /// see [`TreeView::count_in`].
    ///
    /// Axis elision: a full-band query (§VI-B) lifts the region by the
    /// entire magnitude range, so the window spans every stored rectangle
    /// on the lifted axis — those compares cannot reject anything and the
    /// walk may sweep the two spatial axes only. Exact because stored
    /// rects lie inside the root MBR and the interval compares are closed.
    pub fn count_in(&self, window: &Rect<N>) -> (usize, u64) {
        let elide_tail = N == 3
            && match self.arena.node(self.root) {
                NodeKind::Leaf(node) => node.lanes.axis_bounds(2),
                NodeKind::Internal(node) => node.lanes.axis_bounds(2),
                NodeKind::Free => None,
            }
            .is_some_and(|(lo, hi)| window.lo[2] <= lo && hi <= window.hi[2]);
        if elide_tail {
            count_walk::<N, _, true>(&self.view(), window)
        } else {
            count_walk::<N, _, false>(&self.view(), window)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{RTree, RTreeConfig, Variant};
    use mar_geom::{Point2, Rect2};

    fn pt(x: f64, y: f64) -> Rect2 {
        Rect2::point(Point2::new([x, y]))
    }

    fn grid_tree(variant: Variant) -> RTree<2, (i32, i32)> {
        let mut t = RTree::new(RTreeConfig::new(8, variant));
        for x in 0..20 {
            for y in 0..20 {
                t.insert(pt(x as f64, y as f64), (x, y));
            }
        }
        t
    }

    #[test]
    fn window_query_matches_bruteforce() {
        for variant in [Variant::Guttman, Variant::RStar] {
            let t = grid_tree(variant);
            let w = Rect2::new(Point2::new([3.5, 2.5]), Point2::new([8.5, 6.5]));
            let (mut got, io) = t.query(&w);
            assert!(io >= 1);
            let mut items: Vec<(i32, i32)> = got.drain(..).copied().collect();
            items.sort_unstable();
            let mut expect = Vec::new();
            for x in 4..=8 {
                for y in 3..=6 {
                    expect.push((x, y));
                }
            }
            assert_eq!(items, expect);
        }
    }

    #[test]
    fn boundary_inclusive() {
        let t = grid_tree(Variant::RStar);
        // A degenerate window exactly on a point.
        let w = Rect2::point(Point2::new([5.0, 5.0]));
        let (got, _) = t.query(&w);
        assert_eq!(got.len(), 1);
        assert_eq!(*got[0], (5, 5));
    }

    #[test]
    fn empty_window_returns_nothing() {
        let t = grid_tree(Variant::RStar);
        let w = Rect2::new(Point2::new([100.0, 100.0]), Point2::new([110.0, 110.0]));
        let (got, io) = t.query(&w);
        assert!(got.is_empty());
        assert_eq!(io, 1, "only the root should be touched");
    }

    #[test]
    fn io_counter_accumulates_and_resets() {
        let t = grid_tree(Variant::RStar);
        t.reset_io();
        let w = Rect2::new(Point2::new([0.0, 0.0]), Point2::new([19.0, 19.0]));
        let (_, io1) = t.query(&w);
        let (_, io2) = t.query(&w);
        assert_eq!(io1, io2);
        assert_eq!(t.io_count(), io1 + io2);
        t.reset_io();
        assert_eq!(t.io_count(), 0);
        // A full scan must touch every node.
        assert_eq!(io1 as usize, t.node_count());
    }

    #[test]
    fn smaller_windows_cost_fewer_accesses() {
        let t = grid_tree(Variant::RStar);
        let small = Rect2::new(Point2::new([5.0, 5.0]), Point2::new([6.0, 6.0]));
        let big = Rect2::new(Point2::new([0.0, 0.0]), Point2::new([19.0, 19.0]));
        let (_, io_small) = t.query(&small);
        let (_, io_big) = t.query(&big);
        assert!(io_small < io_big);
    }

    #[test]
    fn count_matches_query_len() {
        let t = grid_tree(Variant::Guttman);
        let w = Rect2::new(Point2::new([2.0, 2.0]), Point2::new([10.0, 4.0]));
        let (items, _) = t.query(&w);
        let (n, _) = t.count_in(&w);
        assert_eq!(items.len(), n);
    }

    #[test]
    fn reentrant_search_from_visitor() {
        // A query issued from inside a visitor must not corrupt the
        // thread-local scratch stack of the outer search.
        let t = grid_tree(Variant::RStar);
        let w = Rect2::new(Point2::new([0.0, 0.0]), Point2::new([19.0, 19.0]));
        let mut outer = 0usize;
        let mut inner_total = 0usize;
        t.search(&w, |_, _| {
            outer += 1;
            let small = Rect2::point(Point2::new([5.0, 5.0]));
            let (n, _) = t.count_in(&small);
            inner_total += n;
        });
        assert_eq!(outer, 400);
        assert_eq!(inner_total, 400);
    }

    #[test]
    fn batch_matches_scalar_hits_and_counts() {
        let t = grid_tree(Variant::RStar);
        let windows = [
            Rect2::new(Point2::new([3.5, 2.5]), Point2::new([8.5, 6.5])),
            Rect2::point(Point2::new([5.0, 5.0])),
            Rect2::new(Point2::new([100.0, 100.0]), Point2::new([110.0, 110.0])),
            Rect2::new(Point2::new([0.0, 0.0]), Point2::new([19.0, 19.0])),
        ];
        let mut batch_hits: Vec<Vec<(i32, i32)>> = vec![Vec::new(); windows.len()];
        let acc = t.search_batch(&windows, |w, _, &item| batch_hits[w].push(item));
        assert_eq!(acc.per_window.len(), windows.len());
        let mut logical_sum = 0;
        let mut max_logical = 0;
        for (w, window) in windows.iter().enumerate() {
            let (mut scalar, io) = t.query(window);
            let mut scalar: Vec<(i32, i32)> = scalar.drain(..).copied().collect();
            scalar.sort_unstable();
            batch_hits[w].sort_unstable();
            assert_eq!(batch_hits[w], scalar, "window {w} hit set");
            assert_eq!(acc.per_window[w], io, "window {w} logical accesses");
            logical_sum += io;
            max_logical = max_logical.max(io);
        }
        assert!(acc.unique >= max_logical);
        assert!(acc.unique <= logical_sum);
        assert_eq!(acc.logical_total(), logical_sum);
    }

    #[test]
    fn batch_shares_node_visits_across_duplicate_windows() {
        let t = grid_tree(Variant::RStar);
        let w = Rect2::new(Point2::new([2.0, 2.0]), Point2::new([10.0, 10.0]));
        let (_, scalar_io) = t.query(&w);
        let windows = vec![w; 16];
        let acc = t.search_batch(&windows, |_, _, _| {});
        // Every window is the same, so the group descends each shared node
        // exactly once: unique == one scalar descent.
        assert_eq!(acc.unique, scalar_io);
        assert!(acc.per_window.iter().all(|&io| io == scalar_io));
    }

    #[test]
    fn batch_io_counter_uses_logical_total() {
        let t = grid_tree(Variant::RStar);
        t.reset_io();
        let w = Rect2::new(Point2::new([0.0, 0.0]), Point2::new([9.0, 9.0]));
        let acc = t.search_batch(&[w, w, w], |_, _, _| {});
        assert_eq!(t.io_count(), acc.logical_total());
    }

    #[test]
    fn batch_handles_more_than_64_windows() {
        let t = grid_tree(Variant::RStar);
        let windows: Vec<Rect2> = (0..150)
            .map(|i| {
                let x = (i % 20) as f64;
                let y = (i / 20) as f64;
                Rect2::new(Point2::new([x, y]), Point2::new([x + 1.5, y + 1.5]))
            })
            .collect();
        let mut batch_counts = vec![0usize; windows.len()];
        let acc = t.search_batch(&windows, |w, _, _| batch_counts[w] += 1);
        for (w, window) in windows.iter().enumerate() {
            let (n, io) = t.count_in(window);
            assert_eq!(batch_counts[w], n, "window {w} count");
            assert_eq!(acc.per_window[w], io, "window {w} accesses");
        }
    }

    #[test]
    fn empty_batch_is_free() {
        let t = grid_tree(Variant::RStar);
        t.reset_io();
        let acc = t.search_batch(&[], |_, _, _| {});
        assert!(acc.per_window.is_empty());
        assert_eq!(acc.unique, 0);
        assert_eq!(t.io_count(), 0);
    }
}
