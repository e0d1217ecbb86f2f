//! Property tests for [`FeatureMapBuilder::merge`] — the property the
//! parallel trainer leans on: splitting an observation stream into any
//! consecutive shards, building a partial map per shard, and merging the
//! partials in shard order must reproduce sequential insertion exactly, and
//! merge must be associative.
//!
//! Observation values are generated as small multiples of 0.25 so every
//! partial sum is exactly representable in an f64: the properties then hold
//! bit-for-bit, not just approximately, which is exactly the determinism
//! contract `Summarizer::train` relies on (DESIGN.md §10).

use proptest::prelude::*;
use stmaker_poi::LandmarkId;
use stmaker_routes::{FeatureMapBuilder, HistoricalFeatureMap};

/// One generated observation: (from, to, numeric-or-categorical, feature
/// index, quantized value).
type Ob = (u32, u32, u8, u8, u32);

const KEYS: [&str; 3] = ["speed", "stops", "grade"];

fn apply(m: &mut FeatureMapBuilder, obs: &[Ob]) {
    for &(from, to, kind, feat, val) in obs {
        let (from, to) = (LandmarkId(from), LandmarkId(to));
        let key = KEYS[feat as usize % KEYS.len()];
        if kind == 0 {
            // Multiples of 0.25 up to 8.0: exactly representable, and sums
            // of ≤ 60 of them stay exact, so grouping cannot change them.
            m.add_observation(from, to, key, f64::from(val) * 0.25);
        } else {
            m.add_categorical_observation(from, to, key, val % 5);
        }
    }
}

/// Builds one partial per consecutive shard of `obs` (split at the given
/// cut points) and merges the partials in shard order.
fn build_sharded(obs: &[Ob], cuts: &[usize]) -> HistoricalFeatureMap {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (obs.len() + 1)).collect();
    bounds.push(0);
    bounds.push(obs.len());
    bounds.sort_unstable();
    let mut merged = FeatureMapBuilder::new();
    for w in bounds.windows(2) {
        let mut partial = FeatureMapBuilder::new();
        apply(&mut partial, &obs[w[0]..w[1]]);
        merged.merge(&partial);
    }
    merged.finish()
}

/// Canonical form for exact comparison (sorted map serialization; exact
/// f64 sums make byte equality meaningful).
fn canon(m: &HistoricalFeatureMap) -> String {
    serde_json::to_string(m).expect("feature maps serialize")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn any_shard_split_matches_sequential_insertion(
        obs in prop::collection::vec((0u32..4, 0u32..4, 0u8..2, 0u8..3, 0u32..32), 0..60),
        cuts in prop::collection::vec(0usize..61, 0..6),
    ) {
        let mut sequential = FeatureMapBuilder::new();
        apply(&mut sequential, &obs);
        let sequential = sequential.finish();
        let sharded = build_sharded(&obs, &cuts);

        prop_assert_eq!(canon(&sharded), canon(&sequential));

        // Spot-check the query surface too, not just the serialized form.
        for from in 0..4u32 {
            for to in 0..4u32 {
                let (f, t) = (LandmarkId(from), LandmarkId(to));
                for key in KEYS {
                    prop_assert_eq!(sharded.regular_value(f, t, key), sequential.regular_value(f, t, key));
                    prop_assert_eq!(sharded.regular_category(f, t, key), sequential.regular_category(f, t, key));
                    prop_assert_eq!(sharded.observation_count(f, t, key), sequential.observation_count(f, t, key));
                }
            }
        }
    }

    #[test]
    fn merge_is_associative(
        a in prop::collection::vec((0u32..4, 0u32..4, 0u8..2, 0u8..3, 0u32..32), 0..30),
        b in prop::collection::vec((0u32..4, 0u32..4, 0u8..2, 0u8..3, 0u32..32), 0..30),
        c in prop::collection::vec((0u32..4, 0u32..4, 0u8..2, 0u8..3, 0u32..32), 0..30),
    ) {
        let build = |obs: &[Ob]| {
            let mut m = FeatureMapBuilder::new();
            apply(&mut m, obs);
            m
        };

        // (a ⊕ b) ⊕ c
        let mut left = build(&a);
        left.merge(&build(&b));
        left.merge(&build(&c));

        // a ⊕ (b ⊕ c)
        let mut bc = build(&b);
        bc.merge(&build(&c));
        let mut right = build(&a);
        right.merge(&bc);

        prop_assert_eq!(canon(&left.finish()), canon(&right.finish()));
    }
}
