//! Split-filter Sequence Bloom Trees: SSBT (Solomon & Kingsford 2017,
//! reference [29]) and the HowDeSBT-like compressed variant (Harris &
//! Medvedev 2019, reference [19]).
//!
//! Each node stores two filters over the same `m` positions:
//!
//! * **sim** — bits present in *every* leaf below the node (and not already
//!   claimed by an ancestor's sim);
//! * **rem** — bits present in *at least one but not every* leaf below.
//!
//! Querying walks the tree with a set of unresolved probe positions. At a
//! node, a position found in `sim` is resolved *for the entire subtree* (the
//! big win over plain SBT: a query hitting a tight cluster stops high in the
//! tree); a position in `rem` stays unresolved and forces descent; a
//! position in neither is absent from every leaf below — prune. A node with
//! no unresolved positions reports its whole subtree without further probes.
//!
//! The HowDeSBT-like variant stores `sim`/`rem` as RRR-compressed vectors
//! (the paper's Table 3 credits RRR for the SBT family's sizes); full
//! HowDeSBT also culls determined bits, which we do not reproduce — see
//! DESIGN.md, "Substitutions" item 4.

use crate::sbt::{build_greedy_tree, NodeKind};
use crate::traits::MembershipIndex;
use rambo_bitvec::{BitVec, RrrVec};
use rambo_hash::HashPair;

/// Node filter storage: dense (SSBT) or RRR-compressed (HowDeSBT-like).
#[derive(Debug, Clone)]
enum NodeBits {
    Dense(BitVec),
    Rrr(RrrVec),
}

impl NodeBits {
    #[inline]
    fn get(&self, i: usize) -> bool {
        match self {
            Self::Dense(b) => b.get(i),
            Self::Rrr(r) => r.get(i),
        }
    }

    fn size_bytes(&self) -> usize {
        match self {
            Self::Dense(b) => b.size_bytes(),
            Self::Rrr(r) => r.size_bytes(),
        }
    }
}

#[derive(Debug, Clone)]
struct SplitNode {
    sim: NodeBits,
    rem: NodeBits,
    kind: NodeKind,
}

/// A split-filter SBT.
#[derive(Debug, Clone)]
pub struct SplitSbt {
    nodes: Vec<SplitNode>,
    root: Option<usize>,
    m: usize,
    eta: u32,
    seed: u64,
    ndocs: usize,
    compressed: bool,
}

impl SplitSbt {
    /// Build over a document batch; `compress` selects RRR node storage
    /// (the HowDeSBT-like configuration).
    ///
    /// # Panics
    /// Panics if `m_bits == 0` or `eta == 0`.
    #[must_use]
    pub fn build(
        docs: &[(String, Vec<u64>)],
        m_bits: usize,
        eta: u32,
        seed: u64,
        compress: bool,
    ) -> Self {
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
        let (tree, root) = build_greedy_tree(filters);

        // Pass 1 (bottom-up, iterative post-order): `all` = intersection of
        // leaf filters below each node. `union` is already in the tree.
        let mut all: Vec<Option<BitVec>> = vec![None; tree.len()];
        if let Some(root) = root {
            let mut stack = vec![(root, false)];
            while let Some((v, expanded)) = stack.pop() {
                match tree[v].kind {
                    NodeKind::Leaf { .. } => {
                        all[v] = Some(tree[v].union.clone());
                    }
                    NodeKind::Internal { left, right } => {
                        if expanded {
                            let mut a = all[left].clone().expect("child computed");
                            a.and_assign(all[right].as_ref().expect("child computed"));
                            all[v] = Some(a);
                        } else {
                            stack.push((v, true));
                            stack.push((left, false));
                            stack.push((right, false));
                        }
                    }
                }
            }
        }

        // Pass 2 (top-down): sim = all − ancestor sims; rem = union − all.
        let mut nodes: Vec<Option<SplitNode>> = (0..tree.len()).map(|_| None).collect();
        if let Some(root) = root {
            let mut stack: Vec<(usize, BitVec)> = vec![(root, BitVec::zeros(m_bits))];
            while let Some((v, acc)) = stack.pop() {
                let a = all[v].take().expect("all computed");
                let mut sim = a.clone();
                sim.and_not_assign(&acc);
                let mut rem = tree[v].union.clone();
                rem.and_not_assign(&a);
                let mut child_acc = acc;
                child_acc.or_assign(&sim);
                if let NodeKind::Internal { left, right } = tree[v].kind {
                    stack.push((left, child_acc.clone()));
                    stack.push((right, child_acc));
                }
                let (sim, rem) = if compress {
                    (
                        NodeBits::Rrr(RrrVec::from_bitvec(&sim)),
                        NodeBits::Rrr(RrrVec::from_bitvec(&rem)),
                    )
                } else {
                    (NodeBits::Dense(sim), NodeBits::Dense(rem))
                };
                nodes[v] = Some(SplitNode {
                    sim,
                    rem,
                    kind: tree[v].kind,
                });
            }
        }

        Self {
            nodes: nodes.into_iter().map(|n| n.expect("visited")).collect(),
            root,
            m: m_bits,
            eta,
            seed,
            ndocs: docs.len(),
            compressed: compress,
        }
    }

    /// Query with traversal accounting: `(hits, nodes_visited)`.
    #[must_use]
    pub fn query_term_stats(&self, term: u64) -> (Vec<u32>, usize) {
        let Some(root) = self.root else {
            return (Vec::new(), 0);
        };
        let pair = HashPair::of_u64(term, self.seed);
        let positions: Vec<usize> = (0..self.eta)
            .map(|i| pair.index(i, self.m as u64) as usize)
            .collect();
        let mut hits = Vec::new();
        let mut visited = 0usize;
        let mut stack: Vec<(usize, Vec<usize>)> = vec![(root, positions)];
        'outer: while let Some((v, unresolved)) = stack.pop() {
            visited += 1;
            let node = &self.nodes[v];
            let mut still = Vec::with_capacity(unresolved.len());
            for p in unresolved {
                if node.sim.get(p) {
                    continue; // resolved: present in every leaf below
                }
                if node.rem.get(p) {
                    still.push(p); // present somewhere below — descend
                } else {
                    continue 'outer; // absent below — prune subtree
                }
            }
            if still.is_empty() {
                // Every probe resolved: the whole subtree matches.
                leaves_below_split(&self.nodes, v, &mut hits);
                continue;
            }
            match node.kind {
                // Leaf rem is empty, so unresolved positions would have
                // pruned above; reaching here with `still` non-empty is
                // impossible.
                NodeKind::Leaf { .. } => unreachable!("leaf with unresolved positions"),
                NodeKind::Internal { left, right } => {
                    stack.push((left, still.clone()));
                    stack.push((right, still));
                }
            }
        }
        hits.sort_unstable();
        (hits, visited)
    }
}

/// `leaves_below` over split nodes (same shape, different node type).
fn leaves_below_split(nodes: &[SplitNode], start: usize, out: &mut Vec<u32>) {
    // Reconstruct a kind-only view and reuse the shared walker.
    let mut stack = vec![start];
    while let Some(v) = stack.pop() {
        match nodes[v].kind {
            NodeKind::Leaf { doc } => out.push(doc),
            NodeKind::Internal { left, right } => {
                stack.push(left);
                stack.push(right);
            }
        }
    }
}

impl MembershipIndex for SplitSbt {
    fn label(&self) -> &'static str {
        if self.compressed {
            "HowDeSBT~"
        } else {
            "SSBT"
        }
    }

    fn num_documents(&self) -> usize {
        self.ndocs
    }

    fn query_term(&self, term: u64) -> Vec<u32> {
        self.query_term_stats(term).0
    }

    fn size_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.sim.size_bytes() + n.rem.size_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sbt::Sbt;

    fn docs(k: usize, n: usize) -> Vec<(String, Vec<u64>)> {
        (0..k)
            .map(|d| {
                let base = (d as u64) << 24;
                (format!("doc{d}"), (0..n as u64).map(|t| base | t).collect())
            })
            .collect()
    }

    #[test]
    fn no_false_negatives_dense_and_compressed() {
        let ds = docs(20, 40);
        for compress in [false, true] {
            let t = SplitSbt::build(&ds, 1 << 14, 2, 5, compress);
            for (j, (_, terms)) in ds.iter().enumerate() {
                for &term in terms.iter().take(4) {
                    assert!(
                        t.query_term(term).contains(&(j as u32)),
                        "doc {j} lost (compress={compress})"
                    );
                }
            }
        }
    }

    #[test]
    fn agrees_with_plain_sbt() {
        // Same (m, η, seed) ⇒ identical leaf filters ⇒ identical answer sets
        // (both structures are exact over the same per-doc filters).
        let ds = docs(24, 35);
        let sbt = Sbt::build(&ds, 1 << 13, 2, 9);
        let split = SplitSbt::build(&ds, 1 << 13, 2, 9, false);
        let mut probes: Vec<u64> = ds.iter().flat_map(|(_, t)| t[..3].to_vec()).collect();
        probes.extend((0..200).map(|i| 0xEEEE_0000_0000u64 + i));
        for t in probes {
            assert_eq!(sbt.query_term(t), split.query_term(t), "term {t:#x}");
        }
    }

    #[test]
    fn compressed_matches_dense_results() {
        let ds = docs(18, 30);
        let dense = SplitSbt::build(&ds, 1 << 13, 2, 3, false);
        let rrr = SplitSbt::build(&ds, 1 << 13, 2, 3, true);
        for t in ds.iter().flat_map(|(_, t)| t[..2].to_vec()) {
            assert_eq!(dense.query_term(t), rrr.query_term(t));
        }
        assert_eq!(dense.label(), "SSBT");
        assert_eq!(rrr.label(), "HowDeSBT~");
    }

    #[test]
    fn compression_shrinks_sparse_trees() {
        // Low fill (small docs, big filters) → RRR wins clearly.
        let ds = docs(16, 10);
        let dense = SplitSbt::build(&ds, 1 << 15, 2, 7, false);
        let rrr = SplitSbt::build(&ds, 1 << 15, 2, 7, true);
        assert!(
            rrr.size_bytes() < dense.size_bytes() / 2,
            "rrr {} vs dense {}",
            rrr.size_bytes(),
            dense.size_bytes()
        );
    }

    #[test]
    fn shared_terms_resolve_high_in_the_tree() {
        // Every document shares a core term set: sim at the root should
        // resolve those probes immediately (few nodes visited, all docs
        // reported). This is SSBT's signature behaviour.
        let k = 16;
        let ds: Vec<(String, Vec<u64>)> = (0..k)
            .map(|d| {
                let mut terms: Vec<u64> = (0..20u64).collect(); // shared core
                terms.extend((0..10u64).map(|t| ((d as u64) << 24) | (t + 100)));
                (format!("doc{d}"), terms)
            })
            .collect();
        let t = SplitSbt::build(&ds, 1 << 14, 2, 11, false);
        let (hits, visited) = t.query_term_stats(5);
        assert_eq!(hits, (0..k as u32).collect::<Vec<_>>());
        assert!(
            visited <= 3,
            "shared term should resolve at/near the root, visited {visited}"
        );
    }

    #[test]
    fn absent_terms_prune_immediately() {
        let ds = docs(32, 25);
        let t = SplitSbt::build(&ds, 1 << 15, 3, 13, false);
        let mut total = 0usize;
        for probe in 0..100u64 {
            let (hits, visited) = t.query_term_stats(0xDDDD_0000_0000 + probe);
            assert!(hits.len() < 4);
            total += visited;
        }
        assert!(total < 100 * t.nodes.len() / 4, "visited {total}");
    }

    #[test]
    fn empty_tree() {
        let t = SplitSbt::build(&[], 1024, 2, 0, false);
        assert!(t.query_term(7).is_empty());
        assert_eq!(t.nodes.len(), 0);
    }

    #[test]
    fn single_document_tree() {
        let ds = docs(1, 10);
        let t = SplitSbt::build(&ds, 1 << 10, 2, 1, false);
        assert_eq!(t.query_term(ds[0].1[3]), vec![0]);
        assert!(t.query_term(0xFFFF_FFFF).is_empty());
    }
}
