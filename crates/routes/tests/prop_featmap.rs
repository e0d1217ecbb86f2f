//! Brute-force oracle for [`HistoricalFeatureMap`]: a random observation
//! stream is split into random consecutive shards, each shard fills its own
//! [`FeatureMapBuilder`], and the builders merge in shard order — the way
//! `Summarizer::train` builds the map. For every `(from, to, feature)`,
//! including ones never observed:
//!
//! * `regular_value` and `observation_count` equal a naive fold over the
//!   raw list — values summed in order within each shard, then the shard
//!   sums in shard order — bit for bit;
//! * `regular_category` is the naive mode, ties going to the smaller code;
//! * `from_parts` and the STC1 encoding each give back the same columns,
//!   sums compared bit for bit.
//!
//! Values are arbitrary floats, not exactly representable sums, so any
//! change to the summation order shows up in the bits.

use std::collections::BTreeMap;

use proptest::prelude::*;
use stmaker::TrainedModel;
use stmaker_io::{read_model_stc, write_model_stc};
use stmaker_poi::LandmarkId;
use stmaker_routes::{FeatureMapBuilder, HistoricalFeatureMap, PopularRoutes, PopularRoutesParts};

/// Landmarks the stream draws from; one more id is probed but never seen.
const LANDMARKS: u32 = 4;

/// Feature names, not in sorted order, plus one that is never observed.
const NAMES: [&str; 4] = ["speed", "grade", "a_width", "never"];

/// One generated observation: (from, to, categorical?, name index, value).
type Ob = (u32, u32, u8, usize, f64);

/// Categorical codes drawn from the value, so the same draw serves both.
fn code(value: f64) -> u32 {
    (value.abs() as u32) % 5
}

/// Splits `obs` into consecutive shards at `cuts`.
/// The numeric sums as bit patterns, so equal columns mean equal bits.
fn sum_bits(map: &HistoricalFeatureMap) -> Vec<u64> {
    map.parts().num_sum.iter().map(|s| s.to_bits()).collect()
}

fn shards<'a>(obs: &'a [Ob], cuts: &[usize]) -> Vec<&'a [Ob]> {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (obs.len() + 1)).collect();
    bounds.push(0);
    bounds.push(obs.len());
    bounds.sort_unstable();
    bounds.windows(2).map(|w| &obs[w[0]..w[1]]).collect()
}

fn build(shards: &[&[Ob]]) -> HistoricalFeatureMap {
    let mut merged = FeatureMapBuilder::new();
    for shard in shards {
        let mut partial = FeatureMapBuilder::new();
        for &(from, to, categorical, name, value) in *shard {
            let (from, to, name) = (LandmarkId(from), LandmarkId(to), NAMES[name]);
            if categorical == 1 {
                partial.add_categorical_observation(from, to, name, code(value));
            } else {
                partial.add_observation(from, to, name, value);
            }
        }
        merged.merge(&partial);
    }
    merged.finish()
}

/// The naive sum and count of the numeric observations of one key: each
/// shard's values folded in order, then the shard sums in shard order.
fn naive_numeric(shards: &[&[Ob]], key: (u32, u32, usize)) -> Option<(f64, u64)> {
    let mut total: Option<(f64, u64)> = None;
    for shard in shards {
        let values: Vec<f64> =
            shard.iter().filter(|o| o.2 == 0 && (o.0, o.1, o.3) == key).map(|o| o.4).collect();
        if !values.is_empty() {
            let sum = values.iter().fold(0.0, |acc, v| acc + v);
            let (s, n) = total.unwrap_or((0.0, 0));
            total = Some((s + sum, n + values.len() as u64));
        }
    }
    total
}

/// The naive mode of the categorical observations of one key, ties going
/// to the smaller code.
fn naive_mode(obs: &[Ob], key: (u32, u32, usize)) -> Option<u32> {
    let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
    for o in obs.iter().filter(|o| o.2 == 1 && (o.0, o.1, o.3) == key) {
        *counts.entry(code(o.4)).or_insert(0) += 1;
    }
    let best = counts.values().copied().max()?;
    counts.into_iter().find(|&(_, n)| n == best).map(|(code, _)| code)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_key_matches_the_naive_fold(
        obs in prop::collection::vec((0u32..LANDMARKS, 0u32..LANDMARKS, 0u8..2, 0usize..3, -1000.0f64..1000.0), 0..80),
        cuts in prop::collection::vec(0usize..81, 0..6),
    ) {
        let shards = shards(&obs, &cuts);
        let map = build(&shards);

        for from in 0..=LANDMARKS {
            for to in 0..=LANDMARKS {
                for (name, feature) in NAMES.iter().enumerate() {
                    let key = (from, to, name);
                    let (a, b) = (LandmarkId(from), LandmarkId(to));
                    let expect = naive_numeric(&shards, key);
                    let got = map.regular_value(a, b, feature).map(f64::to_bits);
                    prop_assert_eq!(got, expect.map(|(s, n)| (s / n as f64).to_bits()), "{:?}", key);
                    prop_assert_eq!(map.observation_count(a, b, feature), expect.map_or(0, |e| e.1));
                    prop_assert_eq!(map.regular_category(a, b, feature), naive_mode(&obs, key), "{:?}", key);
                }
            }
        }

        let rebuilt = HistoricalFeatureMap::from_parts(map.parts().clone()).expect("own columns validate");
        prop_assert_eq!(rebuilt.parts(), map.parts());

        let model = TrainedModel {
            popular: PopularRoutes::from_parts(PopularRoutesParts::default()).expect("empty miner"),
            featmap: map.clone(),
            n_trained: 0,
            registry_len: LANDMARKS as usize,
        };
        let bytes = write_model_stc(&model);
        let decoded = read_model_stc(&bytes).expect("own STC decodes");
        prop_assert_eq!(decoded.featmap.parts(), map.parts());
        prop_assert_eq!(sum_bits(&decoded.featmap), sum_bits(&map));
        prop_assert_eq!(write_model_stc(&decoded), bytes);
    }
}
