//! The Sequence Bloom Tree (Solomon & Kingsford, Nature Biotech 2016 —
//! reference [28] of the RAMBO paper).
//!
//! One equal-size Bloom filter per document at the leaves; every internal
//! node stores the OR (union) of its children. Queries descend from the
//! root, pruning subtrees whose union filter lacks the query. Best case
//! `O(log K)`, worst case `O(K)` — and inherently *sequential*, which is the
//! paper's core criticism ("tree-based traversal is a sequential algorithm",
//! §1).
//!
//! Construction uses the original greedy insertion: walk each new document's
//! filter down the tree, at every internal node choosing the child with the
//! larger bit overlap, then split the reached leaf.

use crate::traits::MembershipIndex;
use rambo_bitvec::BitVec;
use rambo_hash::HashPair;

/// Tree node shared by [`Sbt`] and the split-filter variants.
#[derive(Debug, Clone)]
pub(crate) struct TreeNode {
    /// Union filter (OR of all leaf filters below).
    pub union: BitVec,
    pub kind: NodeKind,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum NodeKind {
    Leaf { doc: u32 },
    Internal { left: usize, right: usize },
}

/// Greedy-insertion tree construction over per-document filters.
/// Returns the node arena and the root index (`None` for zero documents).
pub(crate) fn build_greedy_tree(filters: Vec<BitVec>) -> (Vec<TreeNode>, Option<usize>) {
    let mut nodes: Vec<TreeNode> = Vec::with_capacity(filters.len() * 2);
    let mut root: Option<usize> = None;
    for (doc, filter) in filters.into_iter().enumerate() {
        let doc = doc as u32;
        let Some(mut cur) = root else {
            nodes.push(TreeNode {
                union: filter,
                kind: NodeKind::Leaf { doc },
            });
            root = Some(0);
            continue;
        };
        // Walk to the most similar leaf, OR-ing the new filter into every
        // internal node on the way (its subtree will own the document).
        let mut parent: Option<(usize, bool)> = None; // (node, went_right)
        while let NodeKind::Internal { left, right } = nodes[cur].kind {
            nodes[cur].union.or_assign(&filter);
            let go_right =
                nodes[right].union.count_and(&filter) > nodes[left].union.count_and(&filter);
            parent = Some((cur, go_right));
            cur = if go_right { right } else { left };
        }
        // Split the leaf: new internal node adopts (old leaf, new leaf).
        let mut union = nodes[cur].union.clone();
        union.or_assign(&filter);
        let new_leaf = nodes.len();
        nodes.push(TreeNode {
            union: filter,
            kind: NodeKind::Leaf { doc },
        });
        let new_internal = nodes.len();
        nodes.push(TreeNode {
            union,
            kind: NodeKind::Internal {
                left: cur,
                right: new_leaf,
            },
        });
        match parent {
            None => root = Some(new_internal),
            Some((p, went_right)) => {
                if let NodeKind::Internal { left, right } = &mut nodes[p].kind {
                    if went_right {
                        *right = new_internal;
                    } else {
                        *left = new_internal;
                    }
                } else {
                    unreachable!("parent is always internal");
                }
            }
        }
    }
    (nodes, root)
}

/// The plain Sequence Bloom Tree.
#[derive(Debug, Clone)]
pub struct Sbt {
    nodes: Vec<TreeNode>,
    root: Option<usize>,
    m: usize,
    eta: u32,
    seed: u64,
    ndocs: usize,
}

impl Sbt {
    /// Build over a document batch. All filters share `m_bits`/`eta`/`seed`
    /// (required for unions to be meaningful — the SBT constraint the paper
    /// calls out as a memory overhead at every node).
    ///
    /// # Panics
    /// Panics if `m_bits == 0` or `eta == 0`.
    #[must_use]
    pub fn build(docs: &[(String, Vec<u64>)], m_bits: usize, eta: u32, seed: u64) -> Self {
        assert!(m_bits > 0 && eta > 0);
        let filters: Vec<BitVec> = docs
            .iter()
            .map(|(_, terms)| {
                let mut f = BitVec::zeros(m_bits);
                for &t in terms {
                    let pair = HashPair::of_u64(t, seed);
                    for i in 0..eta {
                        f.set(pair.index(i, m_bits as u64) as usize);
                    }
                }
                f
            })
            .collect();
        let (nodes, root) = build_greedy_tree(filters);
        Self {
            nodes,
            root,
            m: m_bits,
            eta,
            seed,
            ndocs: docs.len(),
        }
    }

    /// Bit positions a term probes.
    fn positions(&self, term: u64) -> Vec<usize> {
        let pair = HashPair::of_u64(term, self.seed);
        (0..self.eta)
            .map(|i| pair.index(i, self.m as u64) as usize)
            .collect()
    }

    /// Query with traversal accounting: returns `(hits, nodes_visited)`.
    /// The visit count is what Table 1's "best O(log K), worst O(K)" refers
    /// to; the benches report it directly.
    #[must_use]
    pub fn query_term_stats(&self, term: u64) -> (Vec<u32>, usize) {
        let Some(root) = self.root else {
            return (Vec::new(), 0);
        };
        let pos = self.positions(term);
        let mut hits = Vec::new();
        let mut visited = 0usize;
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            visited += 1;
            let node = &self.nodes[v];
            if !pos.iter().all(|&p| node.union.get(p)) {
                continue; // subtree pruned
            }
            match node.kind {
                NodeKind::Leaf { doc } => hits.push(doc),
                NodeKind::Internal { left, right } => {
                    stack.push(left);
                    stack.push(right);
                }
            }
        }
        hits.sort_unstable();
        (hits, visited)
    }

    /// θ-matching for sequence queries (the original SBT semantics): a node
    /// survives if at least `theta · terms.len()` of the query terms are
    /// fully present in its filter.
    ///
    /// # Panics
    /// Panics unless `0 < theta ≤ 1`.
    #[must_use]
    pub fn query_theta(&self, terms: &[u64], theta: f64) -> Vec<u32> {
        assert!(theta > 0.0 && theta <= 1.0, "theta must be in (0, 1]");
        let Some(root) = self.root else {
            return Vec::new();
        };
        if terms.is_empty() {
            return Vec::new();
        }
        let needed = (theta * terms.len() as f64).ceil() as usize;
        let pos: Vec<Vec<usize>> = terms.iter().map(|&t| self.positions(t)).collect();
        let mut hits = Vec::new();
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            let node = &self.nodes[v];
            let present = pos
                .iter()
                .filter(|ps| ps.iter().all(|&p| node.union.get(p)))
                .count();
            if present < needed {
                continue;
            }
            match node.kind {
                NodeKind::Leaf { doc } => hits.push(doc),
                NodeKind::Internal { left, right } => {
                    stack.push(left);
                    stack.push(right);
                }
            }
        }
        hits.sort_unstable();
        hits
    }
}

impl MembershipIndex for Sbt {
    fn label(&self) -> &'static str {
        "SBT"
    }

    fn num_documents(&self) -> usize {
        self.ndocs
    }

    fn query_term(&self, term: u64) -> Vec<u32> {
        self.query_term_stats(term).0
    }

    fn query_terms(&self, terms: &[u64]) -> Vec<u32> {
        self.query_theta(terms, 1.0)
    }

    fn size_bytes(&self) -> usize {
        self.nodes.iter().map(|n| n.union.size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs(k: usize, n: usize) -> Vec<(String, Vec<u64>)> {
        (0..k)
            .map(|d| {
                let base = (d as u64) << 24;
                (format!("doc{d}"), (0..n as u64).map(|t| base | t).collect())
            })
            .collect()
    }

    #[test]
    fn tree_has_2k_minus_1_nodes() {
        let sbt = Sbt::build(&docs(17, 20), 1 << 12, 2, 3);
        assert_eq!(sbt.nodes.len(), 2 * 17 - 1);
    }

    #[test]
    fn no_false_negatives() {
        let ds = docs(25, 40);
        let sbt = Sbt::build(&ds, 1 << 14, 2, 5);
        for (j, (_, terms)) in ds.iter().enumerate() {
            for &t in terms.iter().take(4) {
                assert!(sbt.query_term(t).contains(&(j as u32)), "doc {j}");
            }
        }
    }

    #[test]
    fn absent_terms_prune_near_root() {
        let ds = docs(64, 30);
        let sbt = Sbt::build(&ds, 1 << 15, 3, 7);
        let mut total_visits = 0usize;
        for probe in 0..100u64 {
            let (hits, visited) = sbt.query_term_stats(0xFFFF_0000_0000 + probe);
            assert!(hits.len() < 5);
            total_visits += visited;
        }
        // Absent terms should die high in the tree, far below visiting all
        // ~127 nodes each.
        assert!(
            total_visits < 100 * sbt.nodes.len() / 4,
            "visited {total_visits} nodes across 100 absent probes"
        );
    }

    #[test]
    fn present_terms_visit_at_least_depth() {
        let ds = docs(32, 30);
        let sbt = Sbt::build(&ds, 1 << 14, 2, 9);
        let (hits, visited) = sbt.query_term_stats(ds[5].1[0]);
        assert!(hits.contains(&5));
        assert!(visited >= 2, "must traverse root to leaf");
    }

    #[test]
    fn theta_one_is_conjunctive() {
        let ds = docs(20, 30);
        let sbt = Sbt::build(&ds, 1 << 14, 2, 11);
        let q = &ds[4].1[..5];
        let hits = sbt.query_theta(q, 1.0);
        assert!(hits.contains(&4));
        // Mixing two documents' exclusive terms: θ=1 finds nothing, θ=0.5
        // finds both.
        let mixed = [ds[4].1[0], ds[9].1[0]];
        assert!(sbt.query_theta(&mixed, 1.0).is_empty());
        let half = sbt.query_theta(&mixed, 0.5);
        assert!(half.contains(&4) && half.contains(&9));
    }

    #[test]
    fn empty_tree_and_empty_query() {
        let sbt = Sbt::build(&[], 1024, 2, 0);
        assert!(sbt.query_term(1).is_empty());
        let sbt = Sbt::build(&docs(3, 5), 1024, 2, 0);
        assert!(sbt.query_theta(&[], 1.0).is_empty());
    }

    #[test]
    fn size_counts_all_nodes() {
        let sbt = Sbt::build(&docs(10, 10), 1 << 10, 2, 1);
        // 19 nodes × 1024 bits = 2432 bytes.
        assert_eq!(sbt.size_bytes(), 19 * 128);
    }

    #[test]
    fn similar_documents_cluster() {
        // Two families of near-identical documents: the greedy insertion
        // should route family members into the same subtree, so a family
        // term's query visits far fewer nodes than 2K−1.
        let mut ds = Vec::new();
        for d in 0..16 {
            let family = if d < 8 { 0u64 } else { 1u64 << 40 };
            let terms: Vec<u64> = (0..30u64).map(|t| family | t).collect();
            ds.push((format!("doc{d}"), terms));
        }
        let sbt = Sbt::build(&ds, 1 << 13, 2, 13);
        let (hits, visited) = sbt.query_term_stats(5); // family-0 term
        assert_eq!(hits, (0..8).collect::<Vec<u32>>());
        assert!(visited < sbt.nodes.len(), "visited {visited}");
    }
}
