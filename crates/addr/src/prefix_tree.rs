//! Radix prefix tree with per-node responsiveness statistics.
//!
//! The adaptive target-generation engine models a scan block as a tree
//! of sub-prefixes. Each node tracks how many probes it has absorbed
//! and how many drew a periphery response; the engine *splits* nodes
//! whose hit density warrants finer-grained probing, *prunes* nodes
//! that stayed silent, and marks fully enumerated nodes *exhausted*.
//!
//! The tree itself is policy-free: it stores structure and statistics
//! and enforces two structural invariants that the engine's correctness
//! argument rests on:
//!
//! 1. **Coverage is a partition** — at any time the terminal nodes
//!    (active, pruned, exhausted) cover the root's leaf-target space
//!    exactly once ([`PrefixTree::coverage_is_partition`]).
//! 2. **A responsive node is never pruned** — [`PrefixTree::prune`]
//!    refuses nodes with recorded hits.

use crate::Prefix;

/// Lifecycle state of a [`PrefixTree`] node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// In the sampling frontier.
    Active,
    /// Replaced by its children; no longer sampled itself.
    Split,
    /// Dismissed as silent; its span is no longer probed.
    Pruned,
    /// Fully enumerated: every leaf target under it has been probed.
    Exhausted,
}

/// One node of a [`PrefixTree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeNode {
    /// The sub-prefix this node spans.
    pub prefix: Prefix,
    /// Lifecycle state.
    pub state: NodeState,
    /// Probes sent into this node's span while it was active.
    pub probes: u64,
    /// Probes that drew a periphery response.
    pub hits: u64,
    /// Next unprobed position in the node's private sample permutation.
    pub cursor: u64,
    /// Children as a `(start, count)` range into the node vector, once
    /// split.
    pub children: Option<(u32, u32)>,
}

impl TreeNode {
    /// Hit density observed so far (0 when unprobed).
    pub fn density(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.hits as f64 / self.probes as f64
        }
    }
}

/// Radix tree over the sub-prefixes of one scan block.
///
/// Nodes live in a flat vector in creation order (children are appended
/// contiguously on split), so the same operations in the same order
/// build the same tree, indices included. All mutation entry points take node
/// indices as returned by [`frontier`](Self::frontier) or
/// [`split`](Self::split).
///
/// # Examples
///
/// ```
/// use xmap_addr::{Prefix, PrefixTree};
///
/// let root: Prefix = "2001:db8::/48".parse().unwrap();
/// let mut tree = PrefixTree::new(root, 64, 4);
/// assert_eq!(tree.span(0), 1 << 16);
/// let children = tree.split(0).unwrap();
/// assert_eq!(children.len(), 16);
/// assert!(tree.coverage_is_partition());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PrefixTree {
    root: Prefix,
    leaf_len: u8,
    branch_bits: u8,
    nodes: Vec<TreeNode>,
}

impl PrefixTree {
    /// A tree over `root` whose leaf targets are the `/leaf_len`
    /// sub-prefixes, splitting `branch_bits` bits at a time.
    ///
    /// # Panics
    ///
    /// Panics when `leaf_len` is not in `(root.len(), 128]`, the leaf
    /// space exceeds 2^64 targets, or `branch_bits` is not in `1..=8`.
    pub fn new(root: Prefix, leaf_len: u8, branch_bits: u8) -> Self {
        assert!(
            leaf_len > root.len() && leaf_len <= 128,
            "leaf length {leaf_len} must lie in ({}, 128]",
            root.len()
        );
        assert!(
            leaf_len - root.len() <= 64,
            "leaf space must fit in 64 bits"
        );
        assert!(
            (1..=8).contains(&branch_bits),
            "branch bits {branch_bits} must lie in 1..=8"
        );
        PrefixTree {
            root,
            leaf_len,
            branch_bits,
            nodes: vec![TreeNode {
                prefix: root,
                state: NodeState::Active,
                probes: 0,
                hits: 0,
                cursor: 0,
                children: None,
            }],
        }
    }

    /// The block this tree spans.
    pub fn root(&self) -> Prefix {
        self.root
    }

    /// Length of the leaf target sub-prefixes.
    pub fn leaf_len(&self) -> u8 {
        self.leaf_len
    }

    /// Number of nodes ever created.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree has no nodes (never true in practice: the root
    /// always exists).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node at `idx`.
    pub fn node(&self, idx: usize) -> &TreeNode {
        &self.nodes[idx]
    }

    /// All nodes in creation order.
    pub fn nodes(&self) -> impl Iterator<Item = &TreeNode> {
        self.nodes.iter()
    }

    /// Number of leaf targets under node `idx`.
    pub fn span(&self, idx: usize) -> u128 {
        self.nodes[idx]
            .prefix
            .subprefix_count(self.leaf_len)
            .expect("node length never exceeds leaf length")
    }

    /// Indices of the active (sampling-frontier) nodes, in canonical
    /// prefix order — deterministic regardless of split history.
    pub fn frontier(&self) -> Vec<usize> {
        let mut f: Vec<usize> = (0..self.nodes.len())
            .filter(|i| self.nodes[*i].state == NodeState::Active)
            .collect();
        f.sort_by_key(|i| {
            (
                self.nodes[*i].prefix.addr().bits(),
                self.nodes[*i].prefix.len(),
            )
        });
        f
    }

    /// Whether node `idx` can be split further (is coarser than a leaf).
    pub fn can_split(&self, idx: usize) -> bool {
        self.nodes[idx].prefix.len() < self.leaf_len
    }

    /// Records `probes` samples (advancing the node's cursor) of which
    /// `hits` drew a response.
    ///
    /// # Panics
    ///
    /// Panics when the node is not active or `hits > probes`.
    pub fn record(&mut self, idx: usize, probes: u64, hits: u64) {
        let node = &mut self.nodes[idx];
        assert_eq!(node.state, NodeState::Active, "recording on settled node");
        assert!(hits <= probes, "more hits than probes");
        node.probes += probes;
        node.hits += hits;
        node.cursor += probes;
    }

    /// Splits active node `idx` into its children, returning their index
    /// range. The node keeps its statistics but leaves the frontier.
    ///
    /// Returns `None` when the node is already at leaf granularity.
    ///
    /// # Panics
    ///
    /// Panics when the node is not active.
    pub fn split(&mut self, idx: usize) -> Option<std::ops::Range<usize>> {
        assert_eq!(
            self.nodes[idx].state,
            NodeState::Active,
            "splitting a settled node"
        );
        if !self.can_split(idx) {
            return None;
        }
        let prefix = self.nodes[idx].prefix;
        let child_len = prefix.len() + self.branch_bits.min(self.leaf_len - prefix.len());
        let count = prefix
            .subprefix_count(child_len)
            .expect("child length is valid") as u32;
        let start = self.nodes.len();
        for k in 0..count {
            self.nodes.push(TreeNode {
                prefix: prefix.subprefix(child_len, k as u128),
                state: NodeState::Active,
                probes: 0,
                hits: 0,
                cursor: 0,
                children: None,
            });
        }
        let node = &mut self.nodes[idx];
        node.state = NodeState::Split;
        node.children = Some((start as u32, count));
        Some(start..start + count as usize)
    }

    /// Prunes active node `idx` out of the frontier. Refuses (returning
    /// `false`, leaving the node active) when the node has hits: a
    /// responsive sub-prefix is never pruned.
    ///
    /// # Panics
    ///
    /// Panics when the node is not active.
    pub fn prune(&mut self, idx: usize) -> bool {
        let node = &mut self.nodes[idx];
        assert_eq!(node.state, NodeState::Active, "pruning a settled node");
        if node.hits > 0 {
            return false;
        }
        node.state = NodeState::Pruned;
        true
    }

    /// Marks active node `idx` exhausted (fully enumerated).
    ///
    /// # Panics
    ///
    /// Panics when the node is not active.
    pub fn exhaust(&mut self, idx: usize) {
        let node = &mut self.nodes[idx];
        assert_eq!(node.state, NodeState::Active, "exhausting a settled node");
        node.state = NodeState::Exhausted;
    }

    /// Leaf targets under terminal nodes in the given state.
    fn span_in(&self, state: NodeState) -> u128 {
        (0..self.nodes.len())
            .filter(|i| self.nodes[*i].state == state)
            .map(|i| self.span(i))
            .sum()
    }

    /// Leaf targets still in the frontier.
    pub fn active_span(&self) -> u128 {
        self.span_in(NodeState::Active)
    }

    /// Leaf targets dismissed by pruning.
    pub fn pruned_span(&self) -> u128 {
        self.span_in(NodeState::Pruned)
    }

    /// Leaf targets fully enumerated.
    pub fn exhausted_span(&self) -> u128 {
        self.span_in(NodeState::Exhausted)
    }

    /// Verifies the coverage invariant: terminal (non-split) nodes
    /// partition the root's leaf space — they are pairwise disjoint and
    /// their spans sum to the root span.
    pub fn coverage_is_partition(&self) -> bool {
        // Split nodes delegate their span to children, so the terminal
        // spans must add up exactly; disjointness follows from the
        // construction (children subdivide the parent).
        let terminal: u128 = self.active_span() + self.pruned_span() + self.exhausted_span();
        terminal == self.span(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> PrefixTree {
        PrefixTree::new("2001:db8::/48".parse().unwrap(), 64, 4)
    }

    #[test]
    fn root_starts_active_and_partitioned() {
        let t = tree();
        assert_eq!(t.len(), 1);
        assert_eq!(t.frontier(), vec![0]);
        assert_eq!(t.span(0), 1 << 16);
        assert!(t.coverage_is_partition());
    }

    #[test]
    fn split_produces_ordered_children() {
        let mut t = tree();
        let kids = t.split(0).unwrap();
        assert_eq!(kids, 1..17);
        assert_eq!(t.node(0).state, NodeState::Split);
        for (k, idx) in kids.clone().enumerate() {
            assert_eq!(
                t.node(idx).prefix,
                t.root().subprefix(52, k as u128),
                "child {k}"
            );
        }
        assert!(t.coverage_is_partition());
        assert_eq!(t.frontier().len(), 16);
    }

    #[test]
    fn split_clamps_to_leaf_length() {
        let mut t = PrefixTree::new("2001:db8::/48".parse().unwrap(), 50, 4);
        let kids = t.split(0).unwrap();
        assert_eq!(kids.len(), 4, "only 2 bits remain before the leaves");
        for idx in kids {
            assert!(!t.can_split(idx));
            assert!(t.split(idx).is_none());
        }
    }

    #[test]
    fn responsive_node_is_never_pruned() {
        let mut t = tree();
        t.record(0, 16, 1);
        assert!(!t.prune(0), "a responsive node must refuse pruning");
        assert_eq!(t.node(0).state, NodeState::Active);
        let mut t = tree();
        t.record(0, 16, 0);
        assert!(t.prune(0));
        assert_eq!(t.node(0).state, NodeState::Pruned);
    }

    #[test]
    fn record_advances_cursor() {
        let mut t = tree();
        t.record(0, 8, 2);
        t.record(0, 8, 0);
        let n = t.node(0);
        assert_eq!((n.probes, n.hits, n.cursor), (16, 2, 16));
        assert!((n.density() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn span_accounting_tracks_states() {
        let mut t = tree();
        let kids = t.split(0).unwrap();
        let per_child = 1u128 << 12;
        assert_eq!(t.active_span(), 16 * per_child);
        assert!(t.prune(kids.start));
        t.exhaust(kids.start + 1);
        assert_eq!(t.pruned_span(), per_child);
        assert_eq!(t.exhausted_span(), per_child);
        assert_eq!(t.active_span(), 14 * per_child);
        assert!(t.coverage_is_partition());
    }
}
