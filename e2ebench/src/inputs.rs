//! Workload inputs: the world, and the training corpus and each workload's
//! trips, derived from the run's seed. The program under test sees only
//! these generated inputs.

use stmaker::{standard_features, FeatureWeights, Summarizer, SummarizerConfig, TrainedModel};
use stmaker_generator::{TripConfig, TripGenerator, World, WorldConfig};
use stmaker_trajectory::RawTrajectory;

/// Input sizes. The full scale is what `BENCHMARK.json` describes; the
/// smoke scale runs the same code on a small world in well under a second.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub smoke: bool,
    /// Training corpus (the `train` workload's input and every model's).
    pub corpus_trips: usize,
    /// `batch-dense` trips per pass.
    pub dense_trips: usize,
    /// `serve-hub` request bodies.
    pub hub_trips: usize,
    /// Trips the traced breakdown pass walks one at a time.
    pub breakdown_trips: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        smoke: false,
        corpus_trips: 2000,
        dense_trips: 600,
        hub_trips: 400,
        breakdown_trips: 200,
    };

    pub const SMOKE: Scale =
        Scale { smoke: true, corpus_trips: 40, dense_trips: 8, hub_trips: 12, breakdown_trips: 4 };

    /// The world: the default city, the same for every seed.
    ///
    /// The seed varies the traffic, not the city. Letting it pick the city
    /// too moved model size, memory and per-trip cost by more than the
    /// benchmark's bounds from seed to seed (up to 20% in peak RSS, as
    /// hash-table capacities crossed powers of two).
    pub fn world(&self) -> WorldConfig {
        let default = WorldConfig::default();
        if self.smoke {
            WorldConfig::small(default.seed)
        } else {
            default
        }
    }
}

/// Independent sub-seeds per input stream (SplitMix64 finalizer).
fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Candidate trips generated per trip kept.
const POOL: usize = 4;
/// Seed of the pool that fixes every workload's size profile.
const PROFILE_SEED: u64 = 0;

/// A trip's size: sample count and route length in metres.
fn size(t: &RawTrajectory) -> (f64, f64) {
    let m: f64 = t.points().windows(2).map(|w| w[0].point.haversine_m(&w[1].point)).sum();
    (t.len() as f64, m) // cast-ok: sample count
}

/// `n` trips of `cfg` for `seed`, matched to a size profile that is the
/// same for every seed. Kept trips stay in generation order.
///
/// Work per trip grows faster than linearly with its size and sizes are
/// long-tailed, so `n` trips drawn at random differ in total work from seed
/// to seed by more than the benchmark's bounds (over ten seeds, 600 dense
/// trips: 5.6% inter-quartile spread in batch time; 3000 corpus trips: 2.6%
/// in model size). The profile is the sizes at evenly spaced quantiles of a
/// pool of `POOL * n` trips from a fixed seed; each seed draws its own pool
/// and keeps, largest target first, the unused trip nearest to each target
/// in sample count and route length (each scaled by the profile's median).
/// That brought the spreads to 1.0% and 0.5%.
fn profiled(world: &World, cfg: TripConfig, seed: u64, salt: u64, n: usize) -> Vec<RawTrajectory> {
    let gen = TripGenerator::new(world, cfg);
    let draw = |s: u64| -> Vec<RawTrajectory> {
        gen.generate_corpus(n * POOL, sub_seed(s, salt)).into_iter().map(|t| t.raw).collect()
    };
    let mut profile: Vec<(f64, f64)> = draw(PROFILE_SEED).iter().map(size).collect();
    profile.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let targets: Vec<(f64, f64)> = profile.into_iter().skip(POOL / 2).step_by(POOL).collect();
    let mid = |f: fn(&(f64, f64)) -> f64| -> f64 {
        let mut v: Vec<f64> = targets.iter().map(f).collect();
        v.sort_by(f64::total_cmp);
        v.get(v.len() / 2).copied().unwrap_or(1.0).max(1.0)
    };
    let (scale_n, scale_m) = (mid(|t| t.0), mid(|t| t.1));

    let pool = draw(seed);
    let sizes: Vec<(f64, f64)> = pool.iter().map(size).collect();
    let mut used = vec![false; pool.len()];
    let mut keep = Vec::with_capacity(n);
    for t in targets.iter().rev() {
        let nearest = sizes
            .iter()
            .enumerate()
            .filter(|(i, _)| !used[*i])
            .map(|(i, s)| ((s.0 - t.0).abs() / scale_n + (s.1 - t.1).abs() / scale_m, i))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        if let Some((_, i)) = nearest {
            used[i] = true;
            keep.push(i);
        }
    }
    keep.sort_unstable();
    let mut pool: Vec<Option<RawTrajectory>> = pool.into_iter().map(Some).collect();
    keep.into_iter().filter_map(|i| pool[i].take()).collect()
}

/// The training corpus: default sampling (3–12 s) and hub bias.
pub fn corpus(world: &World, seed: u64, n: usize) -> Vec<RawTrajectory> {
    profiled(world, TripConfig::default(), seed, 0x7EA1, n)
}

/// `batch-dense` trips: 1–3 s sampling, so hundreds of points each.
pub fn dense_trips(world: &World, seed: u64, n: usize) -> Vec<RawTrajectory> {
    let cfg = TripConfig { sample_interval_s: (1, 3), ..TripConfig::default() };
    profiled(world, cfg, seed, 0xDE45E, n)
}

/// `serve-hub` trips: 20–40 s sampling (a few dozen points) between hubs,
/// so origin–destination pairs repeat and the route cache has work to do.
pub fn hub_trips(world: &World, seed: u64, n: usize) -> Vec<RawTrajectory> {
    let cfg = TripConfig { sample_interval_s: (20, 40), hub_bias: 0.95, ..TripConfig::default() };
    profiled(world, cfg, seed, 0x4B0B, n)
}

/// Trains a model on `corpus` with the standard features.
pub fn train<'w>(
    world: &'w World,
    corpus: &[RawTrajectory],
    cfg: SummarizerConfig,
) -> Summarizer<'w> {
    let features = standard_features();
    let weights = FeatureWeights::uniform(&features);
    Summarizer::train(&world.net, &world.registry, corpus, features, weights, cfg)
}

/// A summarizer around `model` with the standard features.
pub fn summarizer<'w>(
    world: &'w World,
    model: TrainedModel,
    cfg: SummarizerConfig,
) -> Result<Summarizer<'w>, String> {
    let features = standard_features();
    let weights = FeatureWeights::uniform(&features);
    Summarizer::try_from_model(&world.net, &world.registry, model, features, weights, cfg)
        .map_err(|e| e.to_string())
}
