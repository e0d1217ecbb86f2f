//! An inverted index with tf-idf ranked search over a summary corpus.

use crate::vectorize::{tokenize, SparseVector, TfIdfModel};
use std::collections::HashMap;

/// Inverted index: term → postings, plus precomputed document vectors for
/// ranking. Document ids are the insertion order of the corpus.
pub struct InvertedIndex {
    model: TfIdfModel,
    postings: HashMap<usize, Vec<usize>>,
    doc_vectors: Vec<SparseVector>,
}

impl InvertedIndex {
    /// Builds the index over a corpus of summary texts.
    pub fn build<S: AsRef<str>>(docs: &[S]) -> Self {
        let model = TfIdfModel::fit(docs);
        let mut postings: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut doc_vectors = Vec::with_capacity(docs.len());
        for (doc_id, doc) in docs.iter().enumerate() {
            let v = model.transform(doc.as_ref());
            for (term, _) in v.entries() {
                postings.entry(*term).or_default().push(doc_id);
            }
            doc_vectors.push(v);
        }
        Self { model, postings, doc_vectors }
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.doc_vectors.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.doc_vectors.is_empty()
    }

    /// Documents containing `term` (exact token match).
    pub fn docs_with_term(&self, term: &str) -> &[usize] {
        self.model
            .term_id(term)
            .and_then(|id| self.postings.get(&id))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Ranked search: returns up to `k` `(doc_id, score)` pairs by tf-idf
    /// cosine similarity, best first. Candidate set is the union of the
    /// query terms' postings, so cost scales with matching docs, not corpus
    /// size.
    pub fn search(&self, query: &str, k: usize) -> Vec<(usize, f64)> {
        let qv = self.model.transform(query);
        if qv.is_zero() || k == 0 {
            return Vec::new();
        }
        let mut candidates: Vec<usize> = qv
            .entries()
            .iter()
            .filter_map(|(t, _)| self.postings.get(t))
            .flatten()
            .copied()
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        let mut scored: Vec<(usize, f64)> = candidates
            .into_iter()
            .map(|d| (d, qv.cosine(&self.doc_vectors[d])))
            .filter(|(_, s)| *s > 0.0)
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }

    /// All tokens of the query must appear in the document (boolean AND),
    /// ranked by cosine. The "semantic queries on trajectory summarization"
    /// future-work item of Sec. IX, in its simplest useful form.
    pub fn search_all_terms(&self, query: &str, k: usize) -> Vec<(usize, f64)> {
        let terms: Vec<usize> =
            tokenize(query).iter().filter_map(|t| self.model.term_id(t)).collect();
        if terms.is_empty() || terms.len() < tokenize(query).len() {
            return Vec::new(); // some term is out-of-vocabulary: no doc has all
        }
        let mut result: Option<Vec<usize>> = None;
        for t in &terms {
            let posting = self.postings.get(t).cloned().unwrap_or_default();
            result = Some(match result {
                None => posting,
                Some(cur) => intersect_sorted(&cur, &posting),
            });
            if result.as_ref().map(|r| r.is_empty()).unwrap_or(false) {
                return Vec::new();
            }
        }
        let qv = self.model.transform(query);
        let mut scored: Vec<(usize, f64)> = result
            .unwrap_or_default()
            .into_iter()
            .map(|d| (d, qv.cosine(&self.doc_vectors[d])))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }
}

fn intersect_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
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

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<&'static str> {
        vec![
            "The car started from the North Station to the Mall smoothly.",
            "The car started from the Mall to the Hospital with 2 staying points.",
            "The car started from the Park to the Station with conducting one U-turn at Ring Road.",
            "Then it moved from the Hospital to the Park with the speed of 30 km/h which was 20 km/h slower.",
        ]
    }

    #[test]
    fn term_postings() {
        let idx = InvertedIndex::build(&corpus());
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.docs_with_term("mall"), &[0, 1]);
        assert_eq!(idx.docs_with_term("u-turn"), &[2]);
        assert!(idx.docs_with_term("nonexistent").is_empty());
    }

    #[test]
    fn ranked_search_finds_best_doc_first() {
        let idx = InvertedIndex::build(&corpus());
        let hits = idx.search("staying points at the mall", 10);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].0, 1, "doc 1 matches both 'staying' and 'mall'");
        // Scores are descending.
        assert!(hits.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn search_respects_k_and_empty_query() {
        let idx = InvertedIndex::build(&corpus());
        assert!(idx.search("zzz unknown zzz", 5).is_empty());
        assert!(idx.search("station", 0).is_empty());
        assert_eq!(idx.search("station", 1).len(), 1);
    }

    #[test]
    fn boolean_and_search() {
        let idx = InvertedIndex::build(&corpus());
        let hits = idx.search_all_terms("station u-turn", 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 2);
        // A query with an out-of-vocabulary term matches nothing.
        assert!(idx.search_all_terms("station warpdrive", 10).is_empty());
        // Terms in different docs only: empty intersection.
        assert!(idx.search_all_terms("u-turn staying", 10).is_empty());
    }

    #[test]
    fn empty_corpus() {
        let idx = InvertedIndex::build::<&str>(&[]);
        assert!(idx.is_empty());
        assert!(idx.search("anything", 5).is_empty());
    }
}
