//! The common query interface all evaluated indexes implement, plus the
//! adapter that puts RAMBO behind it.

use rambo_core::{QueryContext, QueryMode, Rambo};
use std::cell::RefCell;

/// A multi-set membership index: maps a term to the documents containing it.
///
/// The contract mirrors the paper's problem definition (§4): results must be
/// a **superset** of the true containing set (no false negatives) and are
/// returned as ascending document ids.
pub trait MembershipIndex {
    /// Short display name for harness tables.
    fn label(&self) -> &'static str;

    /// Number of indexed documents `K`.
    fn num_documents(&self) -> usize;

    /// Documents (possibly) containing `term`.
    fn query_term(&self, term: u64) -> Vec<u32>;

    /// Documents (possibly) containing *all* `terms`. The default
    /// implementation intersects per-term results with the §3.3.1 early
    /// exit; structures with a cheaper joint test override it.
    fn query_terms(&self, terms: &[u64]) -> Vec<u32> {
        let mut acc: Option<Vec<u32>> = None;
        for &t in terms {
            let hits = self.query_term(t);
            acc = Some(match acc {
                None => hits,
                Some(prev) => intersect_sorted(&prev, &hits),
            });
            if acc.as_ref().is_some_and(Vec::is_empty) {
                return Vec::new();
            }
        }
        acc.unwrap_or_default()
    }

    /// Index payload size in bytes (filters + auxiliary structures).
    fn size_bytes(&self) -> usize;
}

/// Intersection of two ascending id lists.
#[must_use]
fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// RAMBO behind the common interface (full evaluation). Owns a reusable
/// [`QueryContext`] so trait-object sweeps don't allocate per query.
pub struct RamboIndex {
    index: Rambo,
    ctx: RefCell<QueryContext>,
}

impl RamboIndex {
    /// Wrap a built index.
    #[must_use]
    pub fn new(index: Rambo) -> Self {
        Self {
            index,
            ctx: RefCell::new(QueryContext::new()),
        }
    }

    /// The wrapped index.
    #[must_use]
    pub fn inner(&self) -> &Rambo {
        &self.index
    }
}

impl MembershipIndex for RamboIndex {
    fn label(&self) -> &'static str {
        "RAMBO"
    }

    fn num_documents(&self) -> usize {
        self.index.num_documents()
    }

    fn query_term(&self, term: u64) -> Vec<u32> {
        self.index
            .query_terms_with(&[term], QueryMode::Full, &mut self.ctx.borrow_mut())
    }

    fn query_terms(&self, terms: &[u64]) -> Vec<u32> {
        self.index
            .query_terms_with(terms, QueryMode::Full, &mut self.ctx.borrow_mut())
    }

    fn size_bytes(&self) -> usize {
        self.index.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rambo_core::RamboParams;

    #[test]
    fn intersect_sorted_basic() {
        assert_eq!(intersect_sorted(&[1, 3, 5, 9], &[2, 3, 9]), vec![3, 9]);
        assert_eq!(intersect_sorted(&[], &[1]), Vec::<u32>::new());
        assert_eq!(intersect_sorted(&[7], &[7]), vec![7]);
    }

    #[test]
    fn adapters_expose_rambo() {
        let mut r = Rambo::new(RamboParams::flat(4, 2, 1 << 10, 2, 1)).unwrap();
        r.insert_document("a", [10u64, 11]).unwrap();
        r.insert_document("b", [12u64]).unwrap();
        let full = RamboIndex::new(r.clone());
        assert_eq!(full.num_documents(), 2);
        assert_eq!(full.query_term(10), r.query_u64(10));
        assert!(full.query_term(10).contains(&0));
        assert!(full.query_term(12).contains(&1));
        assert_eq!(full.label(), "RAMBO");
        assert!(full.size_bytes() > 0);
    }

    #[test]
    fn default_query_terms_intersects() {
        let mut r = Rambo::new(RamboParams::flat(4, 3, 1 << 12, 2, 2)).unwrap();
        r.insert_document("a", [1u64, 2, 3]).unwrap();
        r.insert_document("b", [2u64, 3, 4]).unwrap();
        let idx = RamboIndex::new(r);
        let both = idx.query_terms(&[2, 3]);
        assert!(both.contains(&0) && both.contains(&1));
        let only_a = idx.query_terms(&[1, 2]);
        assert!(only_a.contains(&0));
    }
}
