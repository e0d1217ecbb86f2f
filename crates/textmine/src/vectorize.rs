//! Tokenization and tf-idf document vectors.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Stopwords: the scaffolding every summary sentence shares. Filtering them
/// keeps vectors about *content* (landmarks, anomalies), not template glue.
const STOPWORDS: [&str; 28] = [
    "the", "a", "an", "to", "from", "of", "at", "in", "on", "with", "and", "then", "it", "was",
    "is", "for", "while", "most", "car", "moved", "started", "which", "than", "drivers", "prefer",
    "choose", "through", "usual",
];

/// Lowercases and splits into alphanumeric word tokens, dropping stopwords
/// and bare numbers (distances and durations vary per trip and would swamp
/// similarity with noise).
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            cur.extend(ch.to_lowercase());
        } else if ch == '-' && !cur.is_empty() {
            cur.push('-'); // keep "u-turn", "one-way"
        } else if !cur.is_empty() {
            push_token(&mut out, std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        push_token(&mut out, cur);
    }
    out
}

fn push_token(out: &mut Vec<String>, mut tok: String) {
    while tok.ends_with('-') {
        tok.pop();
    }
    if tok.is_empty() || tok.chars().all(|c| c.is_ascii_digit()) {
        return;
    }
    if STOPWORDS.contains(&tok.as_str()) {
        return;
    }
    out.push(tok);
}

/// A sparse, L2-normalized document vector: sorted `(term_id, weight)` pairs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseVector {
    entries: Vec<(usize, f64)>,
}

impl SparseVector {
    /// Builds from raw (term, weight) pairs; normalizes to unit L2 length.
    /// An all-zero input produces the zero vector.
    pub fn new(mut entries: Vec<(usize, f64)>) -> Self {
        entries.retain(|(_, w)| *w != 0.0);
        entries.sort_by_key(|(t, _)| *t);
        let norm = entries.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
        if norm > 0.0 {
            for (_, w) in entries.iter_mut() {
                *w /= norm;
            }
        }
        Self { entries }
    }

    /// The sorted entries.
    pub fn entries(&self) -> &[(usize, f64)] {
        &self.entries
    }

    /// Whether the vector is zero.
    pub fn is_zero(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cosine similarity with another unit vector (= dot product).
    pub fn cosine(&self, other: &SparseVector) -> f64 {
        let (mut i, mut j) = (0, 0);
        let mut dot = 0.0;
        while i < self.entries.len() && j < other.entries.len() {
            match self.entries[i].0.cmp(&other.entries[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    dot += self.entries[i].1 * other.entries[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        dot
    }
}

/// A fitted tf-idf vectorizer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TfIdfModel {
    vocab: HashMap<String, usize>,
    idf: Vec<f64>,
}

impl TfIdfModel {
    /// Fits vocabulary and idf over a corpus.
    pub fn fit<S: AsRef<str>>(docs: &[S]) -> Self {
        let mut vocab: HashMap<String, usize> = HashMap::new();
        let mut df: Vec<usize> = Vec::new();
        for doc in docs {
            let mut toks = tokenize(doc.as_ref());
            toks.sort();
            toks.dedup();
            for t in toks {
                let id = *vocab.entry(t).or_insert_with(|| {
                    df.push(0);
                    df.len() - 1
                });
                df[id] += 1;
            }
        }
        let n = docs.len().max(1);
        let idf = df.iter().map(|d| ((1.0 + n as f64) / (1.0 + *d as f64)).ln() + 1.0).collect();
        Self { vocab, idf }
    }

    /// Vocabulary size.
    pub fn vocab_len(&self) -> usize {
        self.idf.len()
    }

    /// The id for a term, if in vocabulary.
    pub fn term_id(&self, term: &str) -> Option<usize> {
        self.vocab.get(term).copied()
    }

    /// Transforms a document into its tf-idf unit vector (out-of-vocabulary
    /// terms are dropped).
    pub fn transform(&self, doc: &str) -> SparseVector {
        let mut counts: HashMap<usize, f64> = HashMap::new();
        for t in tokenize(doc) {
            if let Some(id) = self.vocab.get(&t) {
                *counts.entry(*id).or_insert(0.0) += 1.0;
            }
        }
        SparseVector::new(counts.into_iter().map(|(id, tf)| (id, tf * self.idf[id])).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_keeps_content_drops_glue() {
        let toks = tokenize(
            "The car started from the Daoxiang Community to the Haidian Hospital \
             with 2 staying points (in total for 167 seconds).",
        );
        assert!(toks.contains(&"daoxiang".to_string()));
        assert!(toks.contains(&"hospital".to_string()));
        assert!(toks.contains(&"staying".to_string()));
        assert!(!toks.contains(&"the".to_string()));
        assert!(!toks.contains(&"167".to_string()), "bare numbers dropped");
    }

    #[test]
    fn tokenize_preserves_hyphenated_terms() {
        let toks = tokenize("conducting one U-turn at Zhichun Road; one-way road");
        assert!(toks.contains(&"u-turn".to_string()), "{toks:?}");
        assert!(toks.contains(&"one-way".to_string()));
        // Trailing hyphens never survive.
        assert!(toks.iter().all(|t| !t.ends_with('-')));
    }

    #[test]
    fn sparse_vector_is_unit_length() {
        let v = SparseVector::new(vec![(3, 2.0), (1, 1.0), (7, 2.0)]);
        let norm: f64 = v.entries().iter().map(|(_, w)| w * w).sum();
        assert!((norm - 1.0).abs() < 1e-12);
        // Sorted by term id.
        assert!(v.entries().windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn cosine_of_disjoint_and_identical() {
        let a = SparseVector::new(vec![(0, 1.0), (1, 1.0)]);
        let b = SparseVector::new(vec![(2, 1.0)]);
        assert_eq!(a.cosine(&b), 0.0);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-12);
        let zero = SparseVector::new(vec![]);
        assert_eq!(a.cosine(&zero), 0.0);
    }

    #[test]
    fn tfidf_ranks_rare_terms_higher() {
        let docs = [
            "smoothly smoothly smoothly",
            "smoothly u-turn",
            "smoothly staying",
            "smoothly staying",
        ];
        let model = TfIdfModel::fit(&docs);
        let v = model.transform("smoothly u-turn");
        let smooth_id = model.term_id("smoothly").unwrap();
        let uturn_id = model.term_id("u-turn").unwrap();
        let get = |id| v.entries().iter().find(|(t, _)| *t == id).map(|(_, w)| *w).unwrap();
        assert!(get(uturn_id) > get(smooth_id), "rare term must outweigh common term");
    }

    #[test]
    fn transform_drops_unknown_terms() {
        let model = TfIdfModel::fit(&["staying points"]);
        let v = model.transform("completely novel words");
        assert!(v.is_zero());
    }

    #[test]
    fn fit_on_empty_corpus() {
        let model = TfIdfModel::fit::<&str>(&[]);
        assert_eq!(model.vocab_len(), 0);
        assert!(model.transform("anything").is_zero());
    }
}
