//! The exact oracle and the failure count.
//!
//! Every answer the program gives is held against two things: the exact
//! inverted index of the corpus (a document that truly matches and is not
//! returned is a false negative, which RAMBO never allows), and the answer
//! of a reference index built by another route from the same documents
//! (RAMBO's false positives are a function of its geometry and seeds, so the
//! whole answer, false positives included, must be the same bit for bit).

use crate::corpus::Corpus;

/// Exact inverted index: every `(term, doc)` pair of the corpus, sorted, and
/// each document's own terms, sorted (a membership test then stays inside
/// one small array instead of walking the whole corpus).
pub struct Inverted {
    pairs: Vec<(u64, u32)>,
    by_doc: Vec<Vec<u64>>,
}

impl Inverted {
    pub fn build(corpus: &Corpus) -> Self {
        let mut pairs = Vec::with_capacity(corpus.total_terms());
        for (d, terms) in corpus.docs.iter().enumerate() {
            pairs.extend(terms.iter().map(|&t| (t, d as u32)));
        }
        pairs.sort_unstable();
        let by_doc = corpus
            .docs
            .iter()
            .map(|terms| {
                let mut sorted = terms.clone();
                sorted.sort_unstable();
                sorted
            })
            .collect();
        Self { pairs, by_doc }
    }

    fn docs_of(&self, term: u64) -> impl Iterator<Item = u32> + '_ {
        let lo = self.pairs.partition_point(|&(t, _)| t < term);
        self.pairs[lo..]
            .iter()
            .take_while(move |&&(t, _)| t == term)
            .map(|&(_, d)| d)
    }

    fn holds(&self, term: u64, doc: u32) -> bool {
        self.by_doc[doc as usize].binary_search(&term).is_ok()
    }

    /// Documents with id below `visible` that hold every term.
    pub fn matching_all(&self, terms: &[u64], visible: u32) -> Vec<u32> {
        let Some((&first, rest)) = terms.split_first() else {
            return Vec::new();
        };
        self.docs_of(first)
            .filter(|&d| d < visible && rest.iter().all(|&t| self.holds(t, d)))
            .collect()
    }

    /// Documents with id below `visible` that hold at least
    /// `ceil(theta · terms.len())` of the terms.
    pub fn matching_theta(&self, terms: &[u64], theta: f64, visible: u32) -> Vec<u32> {
        let needed = ((theta * terms.len() as f64).ceil() as usize).max(1);
        let mut hits: Vec<u32> = terms
            .iter()
            .flat_map(|&t| self.docs_of(t))
            .filter(|&d| d < visible)
            .collect();
        hits.sort_unstable();
        hits.chunk_by(|a, b| a == b)
            .filter(|run| run.len() >= needed)
            .map(|run| run[0])
            .collect()
    }
}

/// Why an operation counts as failed.
#[derive(Debug, PartialEq, Eq)]
pub enum Mismatch {
    /// A truly matching document is missing from the answer.
    FalseNegative(u32),
    /// The answer differs from the reference index's answer.
    NotReference,
}

/// Hold one answer against the oracle. All three lists ascend. On success
/// returns how many of the returned documents are false positives.
pub fn check(answer: &[u32], truth: &[u32], reference: &[u32]) -> Result<usize, Mismatch> {
    if let Some(&missing) = truth.iter().find(|d| answer.binary_search(d).is_err()) {
        return Err(Mismatch::FalseNegative(missing));
    }
    if answer != reference {
        return Err(Mismatch::NotReference);
    }
    Ok(answer.len() - truth.len())
}

/// Operations attempted and failed, with the first few failures kept for
/// the report.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub false_positive_docs: u64,
    notes: Vec<String>,
}

impl Tally {
    const NOTES_KEPT: usize = 5;

    /// Count one operation whose answer arrived.
    pub fn answered(&mut self, what: &str, answer: &[u32], truth: &[u32], reference: &[u32]) {
        self.attempted += 1;
        match check(answer, truth, reference) {
            Ok(fp) => self.false_positive_docs += fp as u64,
            Err(m) => self.fail(format!("{what}: {m:?}")),
        }
    }

    /// Count one operation that got an error, a refusal or no reply at all.
    pub fn errored(&mut self, what: String) {
        self.attempted += 1;
        self.fail(what);
    }

    /// Count operations whose result needs no comparison (a build step whose
    /// product is checked as a whole).
    pub fn passed(&mut self, ops: u64) {
        self.attempted += ops;
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < Self::NOTES_KEPT {
            self.notes.push(note);
        }
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Corpus {
        Corpus {
            docs: vec![vec![1, 2, 3, 4], vec![3, 4, 5, 6], vec![1, 2, 3, 9]],
        }
    }

    #[test]
    fn inverted_index_answers_exactly() {
        let inv = Inverted::build(&corpus());
        assert_eq!(inv.matching_all(&[3], 3), vec![0, 1, 2]);
        assert_eq!(inv.matching_all(&[3, 4], 3), vec![0, 1]);
        assert_eq!(inv.matching_all(&[1, 2, 3], 3), vec![0, 2]);
        assert_eq!(inv.matching_all(&[1, 2, 3], 2), vec![0]);
        assert_eq!(inv.matching_all(&[7], 3), Vec::<u32>::new());
        // Three of four terms are enough at theta 0.75, not at 0.8.
        assert_eq!(inv.matching_theta(&[1, 2, 3, 4], 0.75, 3), vec![0, 2]);
        assert_eq!(inv.matching_theta(&[1, 2, 3, 4], 0.8, 3), vec![0]);
    }

    #[test]
    fn a_dropped_document_is_a_failed_operation() {
        let inv = Inverted::build(&corpus());
        let truth = inv.matching_all(&[3, 4], 3);
        let mut tally = Tally::default();
        // The honest answer, with one false positive the reference shares.
        tally.answered("ok", &[0, 1, 2], &truth, &[0, 1, 2]);
        assert_eq!((tally.attempted, tally.failed), (1, 0));
        assert_eq!(tally.false_positive_docs, 1);
        // The planted failure: document 1 dropped from the answer.
        tally.answered("planted", &[0, 2], &truth, &[0, 1, 2]);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(
            check(&[0, 2], &truth, &[0, 1, 2]),
            Err(Mismatch::FalseNegative(1))
        );
        // An extra document the reference does not return is a failure too.
        assert_eq!(
            check(&[0, 1, 2], &truth, &[0, 1]),
            Err(Mismatch::NotReference)
        );
        tally.errored("refused".into());
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert_eq!(tally.notes().len(), 2);
    }
}
