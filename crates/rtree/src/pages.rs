//! Fixed-stride page images of an arena tree (the out-of-core format).
//!
//! [`RTree::export_pages`] serializes every node into a self-contained
//! little-endian page payload, numbering nodes breadth-first from the
//! root (**page 0**), so internal entries reference children by page id
//! rather than arena slot. The images slot directly into `mar-store`'s
//! fixed-size page file; [`NodePage`] is the zero-copy decoder the paged
//! backend reads them back through. `NodePage` implements [`NodeView`],
//! so the shared descent kernels of [`crate::TreeView`] walk page images
//! exactly as they walk the arena.
//!
//! Page payload layout (all integers little-endian):
//!
//! ```text
//! [0]       node kind: 1 = leaf, 2 = internal
//! [1]       zero padding
//! [2..4)    entry count `len` (u16)
//! [4..8)    reserved, zero
//! [8..)     len × 2N f64: entry i's lo[0..N] then hi[0..N]
//! then      internal: len × u32 child page ids
//!           leaf:     len × item_size bytes (caller-encoded items)
//! ```
//!
//! The paper's page geometry (4 KB pages, capacity 20, `N = 3`) needs
//! `8 + 20·48 + 20·8 = 1128` bytes — comfortably inside one page.

use crate::node::NodeKind;
use crate::{IoCounters, NodeView, RTree, TreeView};
use mar_geom::{Point, Rect};
use std::collections::VecDeque;

/// Byte offset where the rectangle lanes start.
const HEADER: usize = 8;
const KIND_LEAF: u8 = 1;
const KIND_INTERNAL: u8 = 2;

/// Result of [`RTree::export_pages`]: one payload and one MBR per page,
/// indexed by page id (root = page 0, breadth-first).
#[derive(Debug, Clone)]
pub struct PageExport<const N: usize> {
    /// Serialized page payloads.
    pub pages: Vec<Vec<u8>>,
    /// MBR of each page's subtree — the geometry the motion-aware cache
    /// maps to heat. An empty root exports a degenerate rect at the
    /// origin.
    pub regions: Vec<Rect<N>>,
}

impl<const N: usize, T> RTree<N, T> {
    /// Serializes the tree into fixed-stride page images, breadth-first
    /// from the root (page 0). `encode_item` appends exactly `item_size`
    /// bytes per leaf item (checked per entry).
    pub fn export_pages(
        &self,
        item_size: usize,
        mut encode_item: impl FnMut(&T, &mut Vec<u8>),
    ) -> PageExport<N> {
        // First pass: BFS numbering of arena slots.
        let mut order: Vec<u32> = Vec::new();
        let mut page_of: std::collections::BTreeMap<u32, u32> = std::collections::BTreeMap::new();
        let mut queue: VecDeque<u32> = VecDeque::new();
        queue.push_back(self.root);
        page_of.insert(self.root, 0);
        while let Some(slot) = queue.pop_front() {
            order.push(slot);
            if let NodeKind::Internal(node) = self.arena.node(slot) {
                for &child in node.children() {
                    let id = page_of.len() as u32;
                    page_of.insert(child, id);
                    queue.push_back(child);
                }
            }
        }
        // Second pass: serialize each node in page-id order.
        let mut pages = Vec::with_capacity(order.len());
        let mut regions = Vec::with_capacity(order.len());
        for &slot in &order {
            let mut buf: Vec<u8> = Vec::new();
            match self.arena.node(slot) {
                NodeKind::Leaf(node) => {
                    write_header(&mut buf, KIND_LEAF, node.len());
                    for i in 0..node.len() {
                        write_rect(&mut buf, &node.rect(i));
                    }
                    for i in 0..node.len() {
                        let before = buf.len();
                        encode_item(node.item(i), &mut buf);
                        assert_eq!(
                            buf.len() - before,
                            item_size,
                            "encode_item must append exactly item_size bytes"
                        );
                    }
                }
                NodeKind::Internal(node) => {
                    write_header(&mut buf, KIND_INTERNAL, node.len());
                    for i in 0..node.len() {
                        write_rect(&mut buf, &node.rect(i));
                    }
                    for i in 0..node.len() {
                        // BFS numbered every reachable child above.
                        let id = page_of.get(&node.child(i)).copied().unwrap_or(u32::MAX);
                        buf.extend_from_slice(&id.to_le_bytes());
                    }
                }
                NodeKind::Free => {
                    // Free slots are unreachable from the root; BFS never
                    // enqueues one.
                }
            }
            regions.push(
                self.arena
                    .mbr(slot)
                    .unwrap_or_else(|| Rect::point(Point::new([0.0; N]))),
            );
            pages.push(buf);
        }
        PageExport { pages, regions }
    }
}

fn write_header(buf: &mut Vec<u8>, kind: u8, len: usize) {
    buf.push(kind);
    buf.push(0);
    buf.extend_from_slice(&(len as u16).to_le_bytes());
    buf.extend_from_slice(&[0u8; 4]);
}

fn write_rect<const N: usize>(buf: &mut Vec<u8>, r: &Rect<N>) {
    for d in 0..N {
        buf.extend_from_slice(&r.lo[d].to_le_bytes());
    }
    for d in 0..N {
        buf.extend_from_slice(&r.hi[d].to_le_bytes());
    }
}

/// Kind of a decoded node page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PagedNodeKind {
    /// Leaf page: entries carry items.
    Leaf,
    /// Internal page: entries carry child page ids.
    Internal,
}

/// Zero-copy view of one exported node page.
#[derive(Debug, Clone, Copy)]
pub struct NodePage<'a, const N: usize> {
    bytes: &'a [u8],
    kind: PagedNodeKind,
    len: usize,
    item_size: usize,
}

fn read_f64(b: &[u8], o: usize) -> f64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[o..o + 8]);
    f64::from_le_bytes(a)
}

fn read_u32(b: &[u8], o: usize) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&b[o..o + 4]);
    u32::from_le_bytes(a)
}

impl<'a, const N: usize> NodePage<'a, N> {
    /// Parses a page payload, validating the header and that every
    /// entry's rect and payload lie inside `bytes`. `item_size` is the
    /// per-item byte width leaf pages were exported with (ignored for
    /// internal pages). Returns `None` on any structural mismatch.
    pub fn parse(bytes: &'a [u8], item_size: usize) -> Option<Self> {
        if bytes.len() < HEADER {
            return None;
        }
        let kind = match bytes[0] {
            KIND_LEAF => PagedNodeKind::Leaf,
            KIND_INTERNAL => PagedNodeKind::Internal,
            _ => return None,
        };
        let len = u16::from_le_bytes([bytes[2], bytes[3]]) as usize;
        let entry_size = match kind {
            PagedNodeKind::Leaf => item_size,
            PagedNodeKind::Internal => 4,
        };
        let need = HEADER + len * (16 * N) + len * entry_size;
        if bytes.len() < need {
            return None;
        }
        Some(Self {
            bytes,
            kind,
            len,
            item_size,
        })
    }

    /// The page's node kind.
    pub fn kind(&self) -> PagedNodeKind {
        self.kind
    }

    /// Entries stored in the page.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the page holds no entries (an empty root leaf).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entry `i`'s rectangle.
    pub fn rect(&self, i: usize) -> Rect<N> {
        debug_assert!(i < self.len);
        let o = HEADER + i * 16 * N;
        Rect::from_corners(
            Point::new(std::array::from_fn(|d| read_f64(self.bytes, o + 8 * d))),
            Point::new(std::array::from_fn(|d| {
                read_f64(self.bytes, o + 8 * (N + d))
            })),
        )
    }

    /// Entry `i`'s child page id (internal pages only).
    pub fn child(&self, i: usize) -> u32 {
        debug_assert!(self.kind == PagedNodeKind::Internal && i < self.len);
        let o = HEADER + self.len * 16 * N + i * 4;
        read_u32(self.bytes, o)
    }

    /// Entry `i`'s encoded item bytes (leaf pages only).
    pub fn item_bytes(&self, i: usize) -> &'a [u8] {
        debug_assert!(self.kind == PagedNodeKind::Leaf && i < self.len);
        let o = HEADER + self.len * 16 * N + i * self.item_size;
        &self.bytes[o..o + self.item_size]
    }
}

impl<const N: usize> NodeView<N> for NodePage<'_, N> {
    fn is_leaf(&self) -> bool {
        self.kind == PagedNodeKind::Leaf
    }

    fn len(&self) -> usize {
        self.len
    }

    fn rect(&self, i: usize) -> Rect<N> {
        NodePage::rect(self, i)
    }

    fn child(&self, i: usize) -> u32 {
        NodePage::child(self, i)
    }
}

impl<const N: usize> PageExport<N> {
    /// The exported images as an in-memory [`TreeView`] (page 0 is the
    /// root), with leaf items decoded by `decode` from their
    /// `item_size`-byte encodings. This is how an export is checked
    /// against the arena it came from: the same kernels walk both.
    pub fn tree<I>(&self, item_size: usize, decode: fn(&[u8]) -> I) -> PageTree<'_, N, I> {
        PageTree {
            pages: &self.pages,
            item_size,
            decode,
            io: IoCounters::new(),
        }
    }
}

/// Exported page images walked in memory; see [`PageExport::tree`].
#[derive(Debug)]
pub struct PageTree<'a, const N: usize, I> {
    pages: &'a [Vec<u8>],
    item_size: usize,
    decode: fn(&[u8]) -> I,
    io: IoCounters,
}

impl<const N: usize, I> TreeView<N> for PageTree<'_, N, I> {
    type Item = I;
    type Node<'n>
        = NodePage<'n, N>
    where
        Self: 'n;

    fn root(&self) -> u32 {
        0
    }

    /// Panics on a malformed image: exports are well-formed by
    /// construction.
    fn with_node<R>(&self, id: u32, f: impl FnOnce(&NodePage<'_, N>) -> R) -> R {
        let page = NodePage::parse(&self.pages[id as usize], self.item_size);
        // mar-lint: allow(D004) — `export_pages` only writes well-formed images
        f(&page.expect("malformed exported page"))
    }

    fn item(&self, node: &NodePage<'_, N>, i: usize) -> I {
        (self.decode)(node.item_bytes(i))
    }

    fn io(&self) -> &IoCounters {
        &self.io
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RTreeConfig, Variant};
    use mar_geom::{Point2, Rect2};

    fn pt(x: f64, y: f64) -> Rect2 {
        Rect2::point(Point2::new([x, y]))
    }

    fn build(n: usize) -> RTree<2, u32> {
        let mut t = RTree::new(RTreeConfig::new(8, Variant::RStar));
        for i in 0..n {
            let x = (i % 23) as f64;
            let y = (i * 7 % 19) as f64;
            t.insert(pt(x, y), i as u32);
        }
        t
    }

    fn export(t: &RTree<2, u32>) -> PageExport<2> {
        t.export_pages(4, |item, buf| buf.extend_from_slice(&item.to_le_bytes()))
    }

    #[test]
    fn root_is_page_zero_and_count_matches() {
        let t = build(300);
        let ex = export(&t);
        assert_eq!(ex.pages.len(), t.node_count());
        assert_eq!(ex.regions.len(), ex.pages.len());
        let root = NodePage::<2>::parse(&ex.pages[0], 4).expect("root page");
        if t.height() > 1 {
            assert_eq!(root.kind(), PagedNodeKind::Internal);
        }
    }

    #[test]
    fn paged_search_matches_in_ram_search() {
        let t = build(500);
        let ex = export(&t);
        let pages = ex.tree(4, |b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
        for window in [
            Rect2::new(Point2::new([2.0, 3.0]), Point2::new([9.0, 11.0])),
            Rect2::point(Point2::new([4.0, 9.0])),
            Rect2::new(Point2::new([-5.0, -5.0]), Point2::new([50.0, 50.0])),
            Rect2::new(Point2::new([100.0, 100.0]), Point2::new([110.0, 110.0])),
        ] {
            let mut ram: Vec<u32> = Vec::new();
            let io = t.search(&window, |_, &item| ram.push(item));
            let mut paged: Vec<u32> = Vec::new();
            let accesses = pages.search(&window, |_, item| paged.push(item));
            assert_eq!(paged, ram, "hit order for {window:?}");
            assert_eq!(accesses, io, "node accesses for {window:?}");
            assert_eq!(pages.count_in(&window), (ram.len(), io));
        }
    }

    #[test]
    fn regions_cover_their_subtrees() {
        let t = build(200);
        let ex = export(&t);
        // Page 0's region is the tree's bounding rect.
        let root_mbr = t.bounding_rect().expect("non-empty");
        assert_eq!(ex.regions[0].lo, root_mbr.lo);
        assert_eq!(ex.regions[0].hi, root_mbr.hi);
    }

    #[test]
    fn empty_tree_exports_one_empty_leaf() {
        let t: RTree<2, u32> = RTree::new(RTreeConfig::paper());
        let ex = export(&t);
        assert_eq!(ex.pages.len(), 1);
        let page = NodePage::<2>::parse(&ex.pages[0], 4).expect("page");
        assert_eq!(page.kind(), PagedNodeKind::Leaf);
        assert!(page.is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(NodePage::<2>::parse(&[], 4).is_none());
        assert!(NodePage::<2>::parse(&[9, 0, 0, 0, 0, 0, 0, 0], 4).is_none());
        // Truncated: claims 3 entries but has no lane bytes.
        assert!(NodePage::<2>::parse(&[1, 0, 3, 0, 0, 0, 0, 0], 4).is_none());
    }
}
