//! Property-based tests for the text-mining layer.

use proptest::prelude::*;
use stmaker_textmine::{tokenize, InvertedIndex, TfIdfModel};

fn docs_strategy() -> impl Strategy<Value = Vec<String>> {
    let word = prop::sample::select(vec![
        "staying", "points", "u-turn", "detour", "speed", "slower", "faster", "highway", "express",
        "station", "mall", "hospital", "smoothly", "junction",
    ]);
    prop::collection::vec(prop::collection::vec(word, 1..12), 1..20)
        .prop_map(|docs| docs.into_iter().map(|d| d.join(" ")).collect())
}

proptest! {
    #[test]
    fn tokenizer_never_panics_and_output_is_clean(text in ".{0,300}") {
        for tok in tokenize(&text) {
            prop_assert!(!tok.is_empty());
            prop_assert!(!tok.ends_with('-'));
            prop_assert!(tok.chars().all(|c| c.is_alphanumeric() || c == '-'));
            prop_assert_eq!(&tok.to_lowercase(), &tok);
        }
    }

    #[test]
    fn vectors_are_unit_or_zero(docs in docs_strategy()) {
        let model = TfIdfModel::fit(&docs);
        for d in &docs {
            let v = model.transform(d);
            if !v.is_zero() {
                let norm: f64 = v.entries().iter().map(|(_, w)| w * w).sum();
                prop_assert!((norm - 1.0).abs() < 1e-9);
            }
            // Self-similarity of a non-zero vector is 1.
            if !v.is_zero() {
                prop_assert!((v.cosine(&v) - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn search_results_are_sound(docs in docs_strategy(), qi in 0usize..20) {
        let index = InvertedIndex::build(&docs);
        let query = &docs[qi % docs.len()];
        let hits = index.search(query, docs.len());
        // Searching with an indexed document always finds it, with itself
        // at (or tied with) the top score.
        prop_assert!(!hits.is_empty());
        let self_id = docs.iter().position(|d| d == query).unwrap();
        let self_score = hits.iter().find(|(d, _)| *d == self_id).map(|(_, s)| *s);
        prop_assert!(self_score.is_some(), "query doc must be among its own results");
        prop_assert!(hits[0].1 <= self_score.unwrap() + 1e-9);
        // Scores descending and in (0, 1 + ε].
        prop_assert!(hits.windows(2).all(|w| w[0].1 >= w[1].1));
        prop_assert!(hits.iter().all(|(_, s)| *s > 0.0 && *s <= 1.0 + 1e-9));
    }
}
