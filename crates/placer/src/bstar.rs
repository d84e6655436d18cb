//! B*-trees: the second classic topological floorplan representation.
//!
//! A B*-tree encodes a *compacted* (admissible) placement as an ordered
//! binary tree: the root block sits at the origin; a node's left child is
//! the lowest block placed immediately to its right, its right child the
//! lowest block stacked directly above it at the same x. Packing is O(n)
//! amortized with a horizontal-contour sweep. B*-trees and sequence pairs
//! are the two representations virtually all modern analog placers
//! (KOAN successors, ALIGN, MAGICAL) build on; this implementation rounds
//! out the substrate so templates and legalizers can use either.
//!
//! # Example
//!
//! ```
//! use mps_placer::BStarTree;
//!
//! // A root with one block to its right and one above it.
//! let tree = BStarTree::chain(3);
//! let placement = tree.pack(&[(10, 5), (8, 5), (6, 5)]);
//! assert!(placement.is_legal(&[(10, 5), (8, 5), (6, 5)], None));
//! ```

use crate::Placement;
use mps_geom::{Coord, Point};
use rand::rngs::StdRng;
use rand::Rng;

/// One node of the B*-tree: indices into the node arena (`usize::MAX`
/// encodes "no child"; private, never exposed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    left: usize,
    right: usize,
    parent: usize,
}

const NONE: usize = usize::MAX;

/// A B*-tree over `n` blocks (block `i` is node `i`).
///
/// The tree is always a single connected binary tree rooted at
/// [`BStarTree::root`]. Mutating moves ([`BStarTree::rotate`],
/// [`BStarTree::swap_blocks`], [`BStarTree::move_subtree`]) preserve that
/// invariant, so packing is always well-defined and overlap-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BStarTree {
    nodes: Vec<Node>,
    root: usize,
}

impl BStarTree {
    /// A left-chain tree: every block to the right of the previous one (a
    /// single row after packing).
    #[must_use]
    pub fn chain(n: usize) -> Self {
        assert!(n > 0, "a B*-tree needs at least one block");
        let mut nodes = vec![
            Node {
                left: NONE,
                right: NONE,
                parent: NONE
            };
            n
        ];
        for i in 1..n {
            nodes[i - 1].left = i;
            nodes[i].parent = i - 1;
        }
        Self { nodes, root: 0 }
    }

    /// A random tree shape over `n` blocks: blocks are attached one by one
    /// to a random free slot.
    #[must_use]
    pub fn random(n: usize, rng: &mut StdRng) -> Self {
        assert!(n > 0, "a B*-tree needs at least one block");
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let mut nodes = vec![
            Node {
                left: NONE,
                right: NONE,
                parent: NONE
            };
            n
        ];
        let root = order[0];
        let mut free_slots: Vec<(usize, bool)> = vec![(root, false), (root, true)];
        for &b in &order[1..] {
            let slot = rng.random_range(0..free_slots.len());
            let (parent, is_right) = free_slots.swap_remove(slot);
            if is_right {
                nodes[parent].right = b;
            } else {
                nodes[parent].left = b;
            }
            nodes[b].parent = parent;
            free_slots.push((b, false));
            free_slots.push((b, true));
        }
        Self { nodes, root }
    }

    /// Number of blocks.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.nodes.len()
    }

    /// The root block (placed at the origin).
    #[must_use]
    pub fn root(&self) -> usize {
        self.root
    }

    /// Packs the tree with a contour sweep: left child abuts its parent's
    /// right edge, right child stacks above its parent at the same x; the
    /// y coordinate is the contour maximum over the block's x-span.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() != self.block_count()`.
    #[must_use]
    pub fn pack(&self, dims: &[(Coord, Coord)]) -> Placement {
        let n = self.nodes.len();
        assert_eq!(dims.len(), n, "dimension arity mismatch");
        let mut x = vec![0 as Coord; n];
        let mut y = vec![0 as Coord; n];
        // Contour as a list of (x_start, x_end, height) segments — simple
        // and O(n) per insertion in the worst case, O(n²) total; fine for
        // the ≤25-module circuits this workspace targets.
        let mut contour: Vec<(Coord, Coord, Coord)> = Vec::new();

        // DFS preorder: parents pack before children.
        let mut stack = vec![self.root];
        while let Some(b) = stack.pop() {
            let node = self.nodes[b];
            let bx = if node.parent == NONE {
                0
            } else if self.nodes[node.parent].left == b {
                // Left child: to the right of the parent.
                x[node.parent] + dims[node.parent].0
            } else {
                // Right child: stacked above the parent at the same x.
                x[node.parent]
            };
            let (w, h) = dims[b];
            let by = contour_height(&contour, bx, bx + w);
            x[b] = bx;
            y[b] = by;
            contour_insert(&mut contour, bx, bx + w, by + h);
            if node.right != NONE {
                stack.push(node.right);
            }
            if node.left != NONE {
                stack.push(node.left);
            }
        }
        Placement::new((0..n).map(|i| Point::new(x[i], y[i])).collect())
    }

    /// Swaps the tree positions of two random blocks (the blocks exchange
    /// coordinates after packing; tree shape unchanged).
    pub fn swap_blocks(&mut self, rng: &mut StdRng) {
        let n = self.nodes.len();
        if n < 2 {
            return;
        }
        let a = rng.random_range(0..n);
        let b = rng.random_range(0..n);
        if a != b {
            self.relabel(a, b);
        }
    }

    /// Detaches a random leaf and re-attaches it at a random free slot —
    /// the classic B*-tree "move" perturbation.
    pub fn move_subtree(&mut self, rng: &mut StdRng) {
        let n = self.nodes.len();
        if n < 2 {
            return;
        }
        // Pick a leaf (guaranteed to exist).
        let leaves: Vec<usize> = (0..n)
            .filter(|&i| self.nodes[i].left == NONE && self.nodes[i].right == NONE)
            .collect();
        let leaf = leaves[rng.random_range(0..leaves.len())];
        let parent = self.nodes[leaf].parent;
        if parent == NONE {
            return; // single-node tree
        }
        // Detach.
        if self.nodes[parent].left == leaf {
            self.nodes[parent].left = NONE;
        } else {
            self.nodes[parent].right = NONE;
        }
        self.nodes[leaf].parent = NONE;
        // Re-attach at a random free slot of another node.
        let mut slots: Vec<(usize, bool)> = Vec::new();
        for i in 0..n {
            if i == leaf {
                continue;
            }
            if self.nodes[i].left == NONE {
                slots.push((i, false));
            }
            if self.nodes[i].right == NONE {
                slots.push((i, true));
            }
        }
        let (target, is_right) = slots[rng.random_range(0..slots.len())];
        if is_right {
            self.nodes[target].right = leaf;
        } else {
            self.nodes[target].left = leaf;
        }
        self.nodes[leaf].parent = target;
    }

    /// Rotates the meaning of a random node's children (left ↔ right),
    /// i.e. flips "beside" and "above" for that subtree pair.
    pub fn rotate(&mut self, rng: &mut StdRng) {
        let i = rng.random_range(0..self.nodes.len());
        let node = &mut self.nodes[i];
        std::mem::swap(&mut node.left, &mut node.right);
    }

    /// Exchanges the tree positions of blocks `a` and `b`.
    fn relabel(&mut self, a: usize, b: usize) {
        let n = self.nodes.len();
        let mut perm: Vec<usize> = (0..n).collect();
        perm.swap(a, b);
        let old = self.nodes.clone();
        for i in 0..n {
            let src = old[perm[i]];
            self.nodes[i] = Node {
                left: if src.left == NONE {
                    NONE
                } else {
                    perm[src.left]
                },
                right: if src.right == NONE {
                    NONE
                } else {
                    perm[src.right]
                },
                parent: if src.parent == NONE {
                    NONE
                } else {
                    perm[src.parent]
                },
            };
        }
        if self.root == a {
            self.root = b;
        } else if self.root == b {
            self.root = a;
        }
    }

    /// Verifies the structural invariant: a single tree over all nodes
    /// with consistent parent/child links.
    ///
    /// # Errors
    ///
    /// Describes the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.nodes.len();
        if self.root >= n {
            return Err(format!("root {} out of range", self.root));
        }
        if self.nodes[self.root].parent != NONE {
            return Err("root has a parent".to_owned());
        }
        let mut seen = vec![false; n];
        let mut stack = vec![self.root];
        while let Some(b) = stack.pop() {
            if seen[b] {
                return Err(format!("node {b} reached twice (cycle or shared child)"));
            }
            seen[b] = true;
            for (child, side) in [(self.nodes[b].left, "left"), (self.nodes[b].right, "right")] {
                if child != NONE {
                    if child >= n {
                        return Err(format!("node {b} {side} child out of range"));
                    }
                    if self.nodes[child].parent != b {
                        return Err(format!(
                            "node {child} parent link inconsistent with {b}'s {side} child"
                        ));
                    }
                    stack.push(child);
                }
            }
        }
        if let Some(orphan) = seen.iter().position(|&s| !s) {
            return Err(format!("node {orphan} unreachable from root"));
        }
        Ok(())
    }
}

/// Maximum contour height over `[x0, x1)`.
fn contour_height(contour: &[(Coord, Coord, Coord)], x0: Coord, x1: Coord) -> Coord {
    contour
        .iter()
        .filter(|&&(s, e, _)| s < x1 && x0 < e)
        .map(|&(_, _, h)| h)
        .max()
        .unwrap_or(0)
}

/// Replaces the contour over `[x0, x1)` with height `h`.
fn contour_insert(contour: &mut Vec<(Coord, Coord, Coord)>, x0: Coord, x1: Coord, h: Coord) {
    let mut next: Vec<(Coord, Coord, Coord)> = Vec::with_capacity(contour.len() + 2);
    let mut placed = false;
    for &(s, e, ch) in contour.iter() {
        if e <= x0 || x1 <= s {
            next.push((s, e, ch));
            continue;
        }
        if s < x0 {
            next.push((s, x0, ch));
        }
        if !placed {
            next.push((x0, x1, h));
            placed = true;
        }
        if x1 < e {
            next.push((x1, e, ch));
        }
    }
    if !placed {
        next.push((x0, x1, h));
    }
    next.sort_by_key(|&(s, _, _)| s);
    *contour = next;
}

#[cfg(feature = "serde")]
serde::impl_serde_struct!(Node {
    left,
    right,
    parent,
});

#[cfg(feature = "serde")]
mod serde_impls {
    use super::*;
    use serde::{Deserialize, Error, Field, Map, Reader, Serialize, Value};

    impl Serialize for BStarTree {
        fn to_value(&self) -> Value {
            let mut map = Map::new();
            map.insert("nodes", self.nodes.to_value());
            map.insert("root", self.root.to_value());
            Value::Object(map)
        }
    }

    // Hand-written so the single-connected-tree invariant is re-validated
    // on load (a malformed tree would make packing loop or panic).
    impl Deserialize for BStarTree {
        fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
            let (mut nodes, mut root) = (
                Field::<Vec<Node>>::new("nodes"),
                Field::<usize>::new("root"),
            );
            serde::read_object(r, |key, r| match key {
                "nodes" => nodes.read(r),
                "root" => root.read(r),
                _ => r.skip_value(),
            })?;
            let tree = BStarTree {
                nodes: nodes.take("BStarTree")?,
                root: root.take("BStarTree")?,
            };
            if tree.nodes.is_empty() {
                return Err(Error::custom("BStarTree must have at least one node"));
            }
            tree.check_invariants()
                .map_err(|e| Error::custom(format!("invalid BStarTree: {e}")))?;
            Ok(tree)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn chain_packs_as_row() {
        let tree = BStarTree::chain(3);
        let dims = [(10, 5), (8, 7), (6, 5)];
        let p = tree.pack(&dims);
        assert_eq!(p.coords()[0], Point::new(0, 0));
        assert_eq!(p.coords()[1], Point::new(10, 0));
        assert_eq!(p.coords()[2], Point::new(18, 0));
        assert!(p.is_legal(&dims, None));
    }

    #[test]
    fn right_child_stacks_above() {
        // Build 0 with right child 1 manually via chain+rotate trick:
        let mut tree = BStarTree::chain(2);
        // chain: 0.left = 1. Rotate node 0 deterministically by swapping.
        tree.nodes[0].left = NONE;
        tree.nodes[0].right = 1;
        let dims = [(10, 5), (4, 4)];
        let p = tree.pack(&dims);
        assert_eq!(p.coords()[1], Point::new(0, 5));
        assert!(p.is_legal(&dims, None));
    }

    #[test]
    fn random_trees_pack_legally() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [1usize, 2, 5, 12, 25] {
            for _ in 0..20 {
                let tree = BStarTree::random(n, &mut rng);
                tree.check_invariants().unwrap();
                let dims: Vec<(Coord, Coord)> = (0..n)
                    .map(|_| (rng.random_range(1..50), rng.random_range(1..50)))
                    .collect();
                let p = tree.pack(&dims);
                assert!(p.is_legal(&dims, None), "n={n}");
                // Root at origin.
                assert_eq!(p.coords()[tree.root()], Point::origin());
            }
        }
    }

    #[test]
    fn moves_preserve_tree_invariants_and_legality() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut tree = BStarTree::random(10, &mut rng);
        let dims: Vec<(Coord, Coord)> = (0..10).map(|i| (5 + i, 15 - i)).collect();
        for step in 0..300 {
            match rng.random_range(0..3) {
                0 => tree.swap_blocks(&mut rng),
                1 => tree.move_subtree(&mut rng),
                _ => tree.rotate(&mut rng),
            }
            tree.check_invariants()
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
            assert!(tree.pack(&dims).is_legal(&dims, None), "step {step}");
        }
    }

    #[test]
    fn swap_blocks_exchanges_positions() {
        let mut tree = BStarTree::chain(3);
        // Deterministic relabel.
        tree.relabel(0, 2);
        tree.check_invariants().unwrap();
        let dims = [(10, 5), (10, 5), (10, 5)];
        let p = tree.pack(&dims);
        // Block 2 is now the root (x=0), block 0 at the tail.
        assert_eq!(p.coords()[2], Point::new(0, 0));
        assert_eq!(p.coords()[0], Point::new(20, 0));
    }

    #[test]
    fn single_block_edge_cases() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut tree = BStarTree::chain(1);
        tree.swap_blocks(&mut rng);
        tree.move_subtree(&mut rng);
        tree.rotate(&mut rng);
        tree.check_invariants().unwrap();
        let p = tree.pack(&[(7, 3)]);
        assert_eq!(p.coords()[0], Point::origin());
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn empty_tree_rejected() {
        let _ = BStarTree::chain(0);
    }

    #[test]
    fn contour_insert_merges_properly() {
        let mut c = Vec::new();
        contour_insert(&mut c, 0, 10, 5);
        assert_eq!(contour_height(&c, 0, 10), 5);
        contour_insert(&mut c, 5, 15, 9);
        assert_eq!(contour_height(&c, 0, 5), 5);
        assert_eq!(contour_height(&c, 5, 15), 9);
        assert_eq!(contour_height(&c, 12, 20), 9);
        assert_eq!(contour_height(&c, 15, 20), 0);
        // Covering insert replaces everything.
        contour_insert(&mut c, 0, 20, 11);
        assert_eq!(contour_height(&c, 3, 17), 11);
    }

    #[test]
    fn packing_is_compact_against_contour() {
        // A wide root with two children stacked above must place the
        // second child on top of the first, not floating.
        let mut tree = BStarTree::chain(3);
        tree.nodes[0].left = NONE;
        tree.nodes[0].right = 1;
        tree.nodes[1] = Node {
            left: NONE,
            right: 2,
            parent: 0,
        };
        tree.nodes[2] = Node {
            left: NONE,
            right: NONE,
            parent: 1,
        };
        let dims = [(10, 5), (10, 5), (10, 5)];
        let p = tree.pack(&dims);
        assert_eq!(p.coords()[1].y, 5);
        assert_eq!(p.coords()[2].y, 10);
    }
}
