//! The end-to-end summarizer: the 4-step pipeline of Fig. 3.
//!
//! 1. rewrite the raw trajectory into a symbolic trajectory (calibration);
//! 2. partition the symbolic trajectory (Sec. IV);
//! 3. select the most irregular features per partition (Sec. V);
//! 4. plug the selections into phrase/sentence templates (Sec. VI-A).
//!
//! [`Summarizer::train`] builds the historical knowledge (popular routes +
//! feature map) from a training corpus, mirroring Sec. VII-A's 50k-trajectory
//! training split; [`Summarizer::summarize`] / [`Summarizer::summarize_k`]
//! then summarize unseen trajectories.

use crate::cached_routes::CachedRoutes;
use crate::context::{
    extract_segment_data, nearest_landmark_name, segment_context, ExtractionParams, SegmentData,
};
use crate::feature::{FeatureScale, FeatureSet, FeatureWeights};
use crate::partition::{optimal_k_partition, optimal_partition, PartitionResult, PartitionSpan};
use crate::select::{select_features_with, SelectScratch, SelectedFeature, SelectionInput};
use crate::similarity::consecutive_similarities;
use crate::template::{render_partition_sentence, PartitionFacts};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use stmaker_cache::CacheStats;
use stmaker_calibration::{
    calibrate_view, calibrate_view_traced, CalibrationError, CalibrationParams,
};
use stmaker_exec::Executor;
use stmaker_geo::{SpatialIndexKind, SpatialStats};
use stmaker_mapmatch::{MapMatcher, MatchParams};
use stmaker_obs::{ArgValue, Exemplar, ExemplarReservoir, Recorder, Report, SpanNode};
use stmaker_poi::{LandmarkId, LandmarkRegistry};
use stmaker_road::RoadNetwork;
use stmaker_routes::{FeatureMapBuilder, HistoricalFeatureMap, PopularRouteConfig, PopularRoutes};
use stmaker_trajectory::{RawPoint, RawTrajectory, RawView, SymbolicTrajectory, TrajectoryError};

/// All tunables of the pipeline. Defaults are the paper's experimental
/// settings (Sec. VII-B): Ca = 0.5, η = 0.2, unit feature weights.
#[derive(Debug, Clone)]
pub struct SummarizerConfig {
    /// Weight `Ca` of landmark significance in the partition potential.
    pub ca: f64,
    /// Irregular-rate selection threshold η.
    pub eta: f64,
    /// Calibration radius/spacing.
    pub calibration: CalibrationParams,
    /// Stay-point / U-turn detection thresholds.
    pub extraction: ExtractionParams,
    /// Map-matching parameters.
    pub matching: MatchParams,
    /// Popular-route mining parameters.
    pub popular: PopularRouteConfig,
    /// Worker threads for training and batch summarization; `0` (the
    /// default) means auto — `STMAKER_THREADS` if set, else
    /// [`std::thread::available_parallelism`]. Thread count never changes
    /// results: see `stmaker-exec`'s determinism contract.
    pub threads: usize,
    /// Capacity (in routes) of the read-through serving cache memoizing
    /// `PR(from, to)` and the per-hop regular value sequences; `0` (the
    /// default) disables it — a disabled cache costs one branch on the
    /// query path. Lookups are pure, so the cache never changes output
    /// bytes, only latency (DESIGN.md §12).
    pub route_cache: usize,
    /// Spatial index backend for the map-matching candidate pre-filter
    /// (R-tree by default; the grid is the `--spatial-index grid` escape
    /// hatch). Purely a latency knob: candidate sets, models and summaries
    /// are byte-identical under both backends (DESIGN.md §14). Calibration's
    /// corridor query follows the registry's own backend, which the CLI
    /// switches together with this field.
    pub spatial_index: SpatialIndexKind,
    /// Telemetry sink for per-stage spans and counters. Defaults to the
    /// disabled no-op recorder, which costs a branch per stage and
    /// nothing else — no allocation, no locking.
    pub recorder: Recorder,
}

impl Default for SummarizerConfig {
    fn default() -> Self {
        Self {
            ca: 0.5,
            eta: 0.2,
            calibration: CalibrationParams::default(),
            extraction: ExtractionParams::default(),
            matching: MatchParams::default(),
            popular: PopularRouteConfig::default(),
            threads: 0,
            route_cache: 0,
            spatial_index: SpatialIndexKind::default(),
            recorder: Recorder::disabled(),
        }
    }
}

impl SummarizerConfig {
    /// Attaches a telemetry recorder (builder style): every pipeline
    /// stage of a summarizer using this config emits spans and counters
    /// into it.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Sets the worker-thread count (builder style); `0` means auto.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables the read-through route cache with room for `capacity`
    /// routes (builder style); `0` disables it. Purely a latency knob:
    /// summaries are byte-identical with and without it.
    #[must_use]
    pub fn with_route_cache(mut self, capacity: usize) -> Self {
        self.route_cache = capacity;
        self
    }

    /// Selects the matcher's spatial index backend (builder style). Purely a
    /// latency knob: output bytes are identical under both backends.
    #[must_use]
    pub fn with_spatial_index(mut self, kind: SpatialIndexKind) -> Self {
        self.spatial_index = kind;
        self
    }
}

thread_local! {
    /// Per-thread selection scratch, reused across partitions and trips.
    /// Batch workers are scoped threads, so each naturally gets its own
    /// buffers with no cross-worker synchronization.
    static SELECT_SCRATCH: RefCell<SelectScratch> = RefCell::new(SelectScratch::default());
}

/// Why a trajectory could not be summarized.
#[derive(Debug)]
pub enum SummarizeError {
    /// The input buffer is not a valid trajectory (too few samples,
    /// defective coordinates, out-of-order timestamps). Route untrusted
    /// feeds through `stmaker_trajectory::sanitize` first.
    Input(TrajectoryError),
    /// Calibration failed (trajectory anchors fewer than two landmarks).
    Calibration(CalibrationError),
    /// The requested partition count is infeasible: `k` must be in
    /// `1..=max` (the number of segments).
    InvalidK {
        /// Requested partition count.
        k: usize,
        /// Number of segments available.
        max: usize,
    },
    /// A model trained against a registry of a different size was offered
    /// to [`Summarizer::try_from_model`] / [`Summarizer::swap_model`].
    /// Landmark ids are positional, so accepting it would silently rename
    /// every landmark.
    ModelMismatch {
        /// Registry size the model was trained against.
        model: usize,
        /// Size of the registry the summarizer is bound to.
        registry: usize,
    },
    /// A model names a landmark id at or past the end of the registry it
    /// records, so a lookup would reach a landmark that does not exist.
    LandmarkOutOfRange {
        /// The model column holding the id.
        column: &'static str,
        /// The offending landmark id.
        id: u32,
        /// The registry size the model records.
        registry: usize,
    },
}

impl std::fmt::Display for SummarizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SummarizeError::Input(e) => write!(f, "invalid trajectory input: {e}"),
            SummarizeError::Calibration(e) => write!(f, "calibration failed: {e}"),
            SummarizeError::InvalidK { k, max } => {
                write!(f, "cannot split {max} segment(s) into {k} partition(s)")
            }
            SummarizeError::ModelMismatch { model, registry } => {
                write!(
                    f,
                    "model was trained against a {model}-landmark registry, \
                     got {registry} landmarks"
                )
            }
            SummarizeError::LandmarkOutOfRange { column, id, registry } => {
                write!(
                    f,
                    "model landmark {id} in {column} is outside its {registry}-landmark registry"
                )
            }
        }
    }
}

impl std::error::Error for SummarizeError {}

impl From<CalibrationError> for SummarizeError {
    fn from(e: CalibrationError) -> Self {
        SummarizeError::Calibration(e)
    }
}

impl From<TrajectoryError> for SummarizeError {
    fn from(e: TrajectoryError) -> Self {
        SummarizeError::Input(e)
    }
}

/// The historical knowledge mined from the training corpus.
///
/// Serializable: train once (minutes over a large corpus), [`TrainedModel::save`]
/// the result, and [`TrainedModel::load`] it in every serving process —
/// summarization itself is milliseconds. Files are canonical JSON (sorted
/// map entries), so identical training runs produce byte-identical models.
#[derive(serde::Serialize, serde::Deserialize)]
pub struct TrainedModel {
    /// Popular-route miner over the training symbolic trajectories.
    pub popular: PopularRoutes,
    /// Per-hop historical feature statistics (moving *and* routing).
    pub featmap: HistoricalFeatureMap,
    /// Training trajectories successfully calibrated and ingested.
    pub n_trained: usize,
    /// Size of the landmark registry the model was trained against.
    /// Landmark ids are positional, so loading a model against a registry of
    /// a different size would silently rename every landmark;
    /// [`Summarizer::try_from_model`] rejects the mismatch.
    pub registry_len: usize,
}

impl TrainedModel {
    /// Serializes to canonical JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("model types serialize")
    }

    /// Parses a model from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Writes the model to a file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Reads a model from a file.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let body = std::fs::read_to_string(path)?;
        Self::from_json(&body).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// The summary of one trajectory partition.
#[derive(Debug, Clone)]
pub struct PartitionSummary {
    /// Segment range of the partition.
    pub span: PartitionSpan,
    /// Source landmark.
    pub from: LandmarkId,
    /// Destination landmark.
    pub to: LandmarkId,
    /// Source landmark display name.
    pub from_name: String,
    /// Destination landmark display name.
    pub to_name: String,
    /// Features selected for description, most irregular first.
    pub selected: Vec<SelectedFeature>,
    /// The rendered sentence.
    pub sentence: String,
}

/// A complete trajectory summary.
#[derive(Debug, Clone)]
pub struct Summary {
    /// The full summary text (partition sentences joined).
    pub text: String,
    /// Per-partition details.
    pub partitions: Vec<PartitionSummary>,
    /// `|T̄|` of the underlying symbolic trajectory.
    pub symbolic_len: usize,
    /// The minimized partition potential.
    pub potential: f64,
}

/// A prepared (calibrated + extracted) trajectory, reusable across
/// summarizations with different `k` (used by the Fig. 12 timing and the
/// parameter-sweep experiments).
pub struct Prepared {
    /// The calibrated symbolic trajectory.
    pub symbolic: SymbolicTrajectory,
    /// Per-segment extraction artefacts.
    pub data: Vec<SegmentData>,
    /// Per-segment feature value vectors.
    pub seg_values: Vec<Vec<f64>>,
}

/// The STMaker summarizer.
pub struct Summarizer<'a> {
    net: &'a RoadNetwork,
    registry: &'a LandmarkRegistry,
    matcher: MapMatcher<'a>,
    features: FeatureSet,
    weights: FeatureWeights,
    cfg: SummarizerConfig,
    model: TrainedModel,
    /// Read-through memo for `PR(from, to)` and per-hop value sequences,
    /// shared across batch workers; `None` unless
    /// [`SummarizerConfig::with_route_cache`] enabled it.
    route_cache: Option<Arc<CachedRoutes>>,
}

/// A trip the batch worker loop accepts: valid by construction, or a raw
/// buffer validated inside its worker.
trait BatchTrip: Sync {
    fn raw_view(&self) -> Result<RawView<'_>, TrajectoryError>;
}

impl BatchTrip for RawTrajectory {
    fn raw_view(&self) -> Result<RawView<'_>, TrajectoryError> {
        Ok(self.view())
    }
}

impl BatchTrip for Vec<RawPoint> {
    fn raw_view(&self) -> Result<RawView<'_>, TrajectoryError> {
        RawView::try_new(self)
    }
}

/// The route cache a config asks for (`None` when disabled).
fn build_route_cache(cfg: &SummarizerConfig) -> Option<Arc<CachedRoutes>> {
    (cfg.route_cache > 0).then(|| Arc::new(CachedRoutes::new(cfg.route_cache)))
}

/// Checks that `model` was trained against a registry of `registry`'s size
/// and names no landmark past it, in its feature-map keys or in its
/// popular-route corpus, pair, support, transfer and winner columns.
fn check_model(model: &TrainedModel, registry: &LandmarkRegistry) -> Result<(), SummarizeError> {
    let n = registry.len();
    if model.registry_len != n {
        return Err(SummarizeError::ModelMismatch { model: model.registry_len, registry: n });
    }
    let (f, p) = (model.featmap.parts(), model.popular.parts());
    check_ids("featmap numeric keys", f.num_from.iter().chain(&f.num_to).copied(), n)?;
    check_ids("featmap categorical keys", f.cat_from.iter().chain(&f.cat_to).copied(), n)?;
    check_ids("popular corpus", p.corpus_ids.iter().copied(), n)?;
    check_ids("popular pairs", pair_ids(&p.pair_keys), n)?;
    check_ids("popular supports", pair_ids(&p.sup_keys), n)?;
    check_ids("popular transfers", p.tr_src.iter().chain(&p.tr_dst).copied(), n)?;
    check_ids("popular winners", pair_ids(&p.win_keys).chain(p.win_ids.iter().copied()), n)
}

/// Fails with the first id in `ids` at or past a registry of `n` landmarks.
fn check_ids(
    column: &'static str,
    mut ids: impl Iterator<Item = LandmarkId>,
    n: usize,
) -> Result<(), SummarizeError> {
    match ids.find(|l| l.0 as usize >= n) {
        Some(l) => Err(SummarizeError::LandmarkOutOfRange { column, id: l.0, registry: n }),
        None => Ok(()),
    }
}

/// Both landmarks of every key in a `(from, to)` key column.
fn pair_ids(keys: &[(LandmarkId, LandmarkId)]) -> impl Iterator<Item = LandmarkId> + '_ {
    keys.iter().flat_map(|&(a, b)| [a, b])
}

impl<'a> Summarizer<'a> {
    /// Trains a summarizer: calibrates every training trajectory, mines
    /// popular routes, and builds the historical feature map (including
    /// per-hop routing statistics used to describe the popular route).
    /// Training trajectories that fail calibration are skipped.
    ///
    /// Training fans out over `cfg.threads` workers: the corpus is split
    /// into fixed shards (a function of corpus size only), each shard
    /// folds into a partial [`FeatureMapBuilder`], and the partials merge
    /// via [`FeatureMapBuilder::merge`] in ascending shard order before
    /// [`FeatureMapBuilder::finish`] freezes them — so the trained model is
    /// byte-identical for every thread count.
    pub fn train(
        net: &'a RoadNetwork,
        registry: &'a LandmarkRegistry,
        training: &[RawTrajectory],
        features: FeatureSet,
        weights: FeatureWeights,
        cfg: SummarizerConfig,
    ) -> Self {
        assert_eq!(weights.as_slice().len(), features.len(), "weights must match feature set");
        let obs = cfg.recorder.clone();
        let _train_span = obs.span("train");
        let matcher = MapMatcher::with_index(net, cfg.matching, cfg.spatial_index);
        let exec = Executor::new(cfg.threads).with_recorder(obs.clone());
        let (calibration, extraction) = (cfg.calibration, cfg.extraction);

        /// Per-shard training state; merged in shard order below.
        struct TrainShard {
            featmap: FeatureMapBuilder,
            symbolics: Vec<SymbolicTrajectory>,
            skipped: u64,
            elapsed: std::time::Duration,
        }

        let partials = exec.shard_partials(training, |_, _, shard| {
            // lint: wallclock — shard wall time is replayed to obs in shard order; model bytes never see it
            let t0 = Instant::now();
            let mut featmap = FeatureMapBuilder::new();
            let mut symbolics: Vec<SymbolicTrajectory> = Vec::new();
            let mut skipped = 0u64;
            for raw in shard {
                let raw = raw.view();
                let Ok(symbolic) = calibrate_view(raw, registry, calibration) else {
                    skipped += 1;
                    continue;
                };
                let data = extract_segment_data(raw, &symbolic, registry, &matcher, extraction);
                for i in 0..symbolic.segment_count() {
                    let ctx = segment_context(raw, &symbolic, &data, net, i);
                    let (from, to) = (ctx.from_landmark, ctx.to_landmark);
                    for f in features.features() {
                        let v = f.extract(&ctx);
                        match f.scale() {
                            FeatureScale::Numeric => featmap.add_observation(from, to, f.key(), v),
                            FeatureScale::Categorical => featmap.add_categorical_observation(
                                from,
                                to,
                                f.key(),
                                v.round().max(0.0) as u32,
                            ),
                        }
                    }
                }
                symbolics.push(symbolic);
            }
            TrainShard { featmap, symbolics, skipped, elapsed: t0.elapsed() }
        });

        let mut featmap = FeatureMapBuilder::new();
        let mut symbolics: Vec<SymbolicTrajectory> = Vec::new();
        let mut skipped = 0u64;
        for p in partials {
            obs.span_observed("train.shard", p.elapsed);
            featmap.merge(&p.featmap);
            symbolics.extend(p.symbolics);
            skipped += p.skipped;
        }
        let featmap = featmap.finish();

        let n_trained = symbolics.len();
        obs.add("train.trajectories_ingested", n_trained as u64); // cast-ok: corpus size
        obs.add("train.trajectories_skipped", skipped);
        let popular = PopularRoutes::build_with(&symbolics, cfg.popular, &exec);
        // Reuse the matcher built for extraction instead of indexing the
        // network's edge geometry a second time via try_from_model.
        let route_cache = build_route_cache(&cfg);
        Self {
            net,
            registry,
            matcher,
            features,
            weights,
            cfg,
            model: TrainedModel { popular, featmap, n_trained, registry_len: registry.len() },
            route_cache,
        }
    }

    /// Assembles a summarizer around an existing (e.g. loaded) model.
    ///
    /// A model that records a registry size different from `registry`'s is
    /// a [`SummarizeError::ModelMismatch`]: landmark ids are positional, and
    /// a mismatched registry would silently reinterpret every landmark in
    /// the model.
    pub fn try_from_model(
        net: &'a RoadNetwork,
        registry: &'a LandmarkRegistry,
        model: TrainedModel,
        features: FeatureSet,
        weights: FeatureWeights,
        cfg: SummarizerConfig,
    ) -> Result<Self, SummarizeError> {
        check_model(&model, registry)?;
        assert_eq!(weights.as_slice().len(), features.len(), "weights must match feature set");
        let matcher = MapMatcher::with_index(net, cfg.matching, cfg.spatial_index);
        let route_cache = build_route_cache(&cfg);
        Ok(Self { net, registry, matcher, features, weights, cfg, model, route_cache })
    }

    /// Replaces the trained model in place — the hot-swap primitive the
    /// serving layer builds on. The route cache memoizes pure functions of
    /// the *outgoing* model (including negative answers: pairs it had no
    /// route for), so a fresh cache is installed in the same step; keeping
    /// the old entries would silently answer queries from the previous
    /// model. Rejects a model trained against a different-sized registry.
    pub fn swap_model(&mut self, model: TrainedModel) -> Result<(), SummarizeError> {
        check_model(&model, self.registry)?;
        self.route_cache = build_route_cache(&self.cfg);
        self.model = model;
        Ok(())
    }

    /// Consumes the summarizer, handing back its trained model (what a
    /// trainer process ships to serving processes without a JSON round
    /// trip).
    pub fn into_model(self) -> TrainedModel {
        self.model
    }

    /// The trained historical model.
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// The feature set in use.
    pub fn features(&self) -> &FeatureSet {
        &self.features
    }

    /// The active configuration.
    pub fn config(&self) -> &SummarizerConfig {
        &self.cfg
    }

    /// The telemetry recorder this summarizer reports into (the disabled
    /// no-op unless one was attached via
    /// [`SummarizerConfig::with_recorder`]).
    pub fn recorder(&self) -> &Recorder {
        &self.cfg.recorder
    }

    /// Replaces the feature weights (Fig. 10(a)'s experiment knob).
    pub fn set_weights(&mut self, weights: FeatureWeights) {
        assert_eq!(weights.as_slice().len(), self.features.len());
        self.weights = weights;
    }

    /// Replaces the selection threshold / partition constants. Rebuilds
    /// the route cache to match the new capacity (memoized answers are
    /// pure, so dropping them is always safe).
    pub fn set_config(&mut self, cfg: SummarizerConfig) {
        self.route_cache = build_route_cache(&cfg);
        self.cfg = cfg;
    }

    /// Counter snapshot of the route cache (`None` when the cache is
    /// disabled) — what `demo --repeat` prints its hit rate from.
    pub fn route_cache_stats(&self) -> Option<CacheStats> {
        self.route_cache.as_ref().map(|c| c.stats())
    }

    /// Step 1 + feature extraction: calibrate and extract, reusable across
    /// different partition granularities.
    pub fn prepare(&self, raw: &RawTrajectory) -> Result<Prepared, SummarizeError> {
        self.prepare_view(raw.view(), &self.cfg.recorder)
    }

    /// [`Self::prepare`] over a borrowed sample buffer, reporting into
    /// `obs` (batch workers pass a disabled recorder so the shared span
    /// tree stays single-threaded).
    fn prepare_view(&self, raw: RawView<'_>, obs: &Recorder) -> Result<Prepared, SummarizeError> {
        let mut spatial = SpatialStats::default();
        let symbolic = {
            let _span = obs.span("calibrate");
            calibrate_view_traced(raw, self.registry, self.cfg.calibration, &mut spatial)?
        };
        obs.add("calibrate.landmarks_matched", symbolic.size() as u64); // cast-ok: landmark count
        obs.add("spatial.nodes_visited", spatial.nodes_visited);
        obs.add("spatial.leaves_scanned", spatial.leaves_scanned);
        obs.add("spatial.candidates_refined", spatial.candidates_refined);
        let _span = obs.span("extract");
        let data =
            extract_segment_data(raw, &symbolic, self.registry, &self.matcher, self.cfg.extraction);
        let seg_values: Vec<Vec<f64>> = (0..symbolic.segment_count())
            .map(|i| {
                let ctx = segment_context(raw, &symbolic, &data, self.net, i);
                self.features.extract_all(&ctx)
            })
            .collect();
        obs.add("extract.segments_scanned", seg_values.len() as u64); // cast-ok: segment count
        Ok(Prepared { symbolic, data, seg_values })
    }

    /// Opens the root telemetry span for one end-to-end summarization and
    /// records the requested granularity.
    fn summarize_span(&self, k: Option<usize>) -> stmaker_obs::Span {
        let span = self.cfg.recorder.span("summarize");
        if let Some(k) = k {
            self.cfg.recorder.gauge("summarize.requested_k", k as f64); // cast-ok: small k
        }
        span
    }

    /// Summarizes with the globally optimal partition (Eq. 4) — STMaker's
    /// default granularity.
    pub fn summarize(&self, raw: &RawTrajectory) -> Result<Summary, SummarizeError> {
        let _root = self.summarize_span(None);
        let prepared = self.prepare(raw)?;
        self.summarize_prepared(&prepared, None)
    }

    /// Summarizes with exactly `k` partitions (Algorithm 1).
    pub fn summarize_k(&self, raw: &RawTrajectory, k: usize) -> Result<Summary, SummarizeError> {
        let _root = self.summarize_span(Some(k));
        let prepared = self.prepare(raw)?;
        self.summarize_prepared(&prepared, Some(k))
    }

    /// Summarizes straight out of a borrowed sample buffer — the zero-copy
    /// path used by [`crate::streaming::StreamingSummarizer`], which would
    /// otherwise clone its whole buffer into an owned trajectory on every
    /// refresh.
    ///
    /// Never panics: a buffer violating the [`RawView`] invariants (too few
    /// samples, defective coordinates, decreasing timestamps) returns
    /// [`SummarizeError::Input`].
    pub fn summarize_points(&self, points: &[RawPoint]) -> Result<Summary, SummarizeError> {
        let raw = RawView::try_new(points)?;
        let _root = self.summarize_span(None);
        let prepared = self.prepare_view(raw, &self.cfg.recorder)?;
        self.summarize_prepared(&prepared, None)
    }

    /// Summarizes many trajectories in parallel over `cfg.threads` workers
    /// (default granularity). Results are index-aligned with `trips` —
    /// exactly what mapping [`Self::summarize`] over the slice would
    /// return, computed on however many workers are configured.
    pub fn summarize_batch(&self, trips: &[RawTrajectory]) -> Vec<Result<Summary, SummarizeError>> {
        self.summarize_batch_inner(trips, None)
    }

    /// [`Self::summarize_batch`] with exactly `k` partitions per trip.
    pub fn summarize_batch_k(
        &self,
        trips: &[RawTrajectory],
        k: usize,
    ) -> Vec<Result<Summary, SummarizeError>> {
        self.summarize_batch_inner(trips, Some(k))
    }

    /// Summarizes many *untrusted* sample buffers in parallel — the batch
    /// analogue of [`Self::summarize_points`]. Where [`Self::summarize_batch`]
    /// takes [`RawTrajectory`] values that are valid by construction, this
    /// accepts raw buffers straight off disk: each is validated inside its
    /// worker, and a defective buffer yields [`SummarizeError::Input`] at its
    /// index while every other trip still summarizes. Results stay
    /// index-aligned and byte-identical at any `cfg.threads`.
    pub fn summarize_batch_points(
        &self,
        trips: &[Vec<RawPoint>],
    ) -> Vec<Result<Summary, SummarizeError>> {
        self.summarize_batch_inner(trips, None)
    }

    /// The one batch worker loop behind every batch entry point; the trip
    /// type only decides how a trip becomes a [`RawView`].
    fn summarize_batch_inner<T: BatchTrip>(
        &self,
        trips: &[T],
        k: Option<usize>,
    ) -> Vec<Result<Summary, SummarizeError>> {
        let obs = &self.cfg.recorder;
        let _root = obs.span("summarize_batch");
        let cache_before = self.route_cache.as_ref().map(|c| c.stats());
        let exec = Executor::new(self.cfg.threads).with_recorder(obs.clone());
        // Workers run the pipeline against a private recorder (cross-thread
        // span opens would interleave nondeterministically in the shared
        // tree): a fresh enabled one per trip when telemetry is on (its
        // stage breakdown is replayed below in input order), the free
        // disabled one otherwise. Either way they measure their own wall
        // time and the caller replays the per-trip durations in input
        // order.
        let detailed = obs.is_enabled();
        let timed = exec.par_map(trips, |_, trip| {
            // lint: wallclock — per-trip duration is replayed to obs in input order, never folded into summaries
            let t0 = Instant::now();
            let local = if detailed { Recorder::enabled() } else { Recorder::disabled() };
            let r = trip.raw_view().map_err(SummarizeError::Input).and_then(|raw| {
                self.prepare_view(raw, &local)
                    .and_then(|p| self.summarize_prepared_obs(&p, k, &local))
            });
            (r, t0.elapsed(), detailed.then(|| local.report()))
        });
        let out = self.collect_batch(timed);
        self.record_cache_delta(cache_before);
        out
    }

    /// Emits the route cache's counter deltas for one batch —
    /// `cache.hits`/`cache.misses`/`cache.evictions` plus the
    /// `route_cache.capacity` gauge — into the shared recorder. A no-op
    /// when the cache is disabled.
    fn record_cache_delta(&self, before: Option<CacheStats>) {
        let (Some(cache), Some(before)) = (&self.route_cache, before) else { return };
        let obs = &self.cfg.recorder;
        let delta = cache.stats().since(&before);
        obs.add("cache.hits", delta.hits);
        obs.add("cache.misses", delta.misses);
        obs.add("cache.evictions", delta.evictions);
        obs.gauge("route_cache.capacity", cache.route_capacity() as f64); // cast-ok: entry count
    }

    /// Replays per-trip wall times into the shared recorder in input order
    /// and tallies the ok/failed counters — the deterministic tail every
    /// batch entry point funnels through. When workers carried a private
    /// recorder, each trip's stage breakdown is replayed as children of
    /// its `summarize_batch.trip` span, the worker's stage counters are
    /// merged into the shared recorder, and the slowest trips are offered
    /// to the exemplar reservoir and replayed as `exemplar.trip` spans.
    fn collect_batch(
        &self,
        timed: Vec<(Result<Summary, SummarizeError>, std::time::Duration, Option<Report>)>,
    ) -> Vec<Result<Summary, SummarizeError>> {
        let obs = &self.cfg.recorder;
        let mut out = Vec::with_capacity(timed.len());
        let (mut ok, mut failed) = (0u64, 0u64);
        let mut slowest = ExemplarReservoir::default();
        for (i, (r, dur, detail)) in timed.into_iter().enumerate() {
            match detail {
                None => obs.span_observed("summarize_batch.trip", dur),
                Some(report) => {
                    let trip = i as u64; // cast-ok: trip index
                    obs.replay_span(
                        "summarize_batch.trip",
                        dur,
                        &[("trip", ArgValue::U64(trip))],
                        |o| replay_stage_spans(o, &report.spans),
                    );
                    // Worker-side stage counters (landmarks matched, DP
                    // cells, cache probes, ...) would otherwise be lost
                    // with the private recorder.
                    for (name, v) in &report.counters {
                        obs.add(name, *v);
                    }
                    // Only successful trips become exemplars: every
                    // success runs the same stage set, so the replayed
                    // `exemplar.trip` event structure is independent of
                    // *which* trips were slowest — which keeps the
                    // logical-clock trace byte-identical across thread
                    // counts.
                    if r.is_ok() {
                        let ex = Exemplar {
                            id: format!("trip_{i}"),
                            total_ms: dur.as_secs_f64() * 1e3,
                            stages: stage_breakdown(&report.spans),
                        };
                        obs.exemplar(ex.clone());
                        slowest.offer(ex);
                    }
                }
            }
            match &r {
                Ok(_) => ok += 1,
                Err(_) => failed += 1,
            }
            out.push(r);
        }
        obs.add("batch.summaries_ok", ok);
        obs.add("batch.summaries_failed", failed);
        // Replay this batch's slowest trips as dedicated spans so the
        // exported trace shows the outliers with their stage breakdown.
        // The journal args deliberately omit the trip index: which trips
        // are slowest is wall-clock dependent, and the logical-clock trace
        // must stay byte-identical across thread counts.
        for ex in slowest.sorted() {
            let total = std::time::Duration::from_secs_f64(ex.total_ms.max(0.0) / 1e3);
            obs.replay_span("exemplar.trip", total, &[], |o| {
                for (name, ms) in &ex.stages {
                    o.span_observed(name, std::time::Duration::from_secs_f64(ms.max(0.0) / 1e3));
                }
            });
        }
        out
    }

    /// Steps 2–4 on an already prepared trajectory.
    pub fn summarize_prepared(
        &self,
        prepared: &Prepared,
        k: Option<usize>,
    ) -> Result<Summary, SummarizeError> {
        self.summarize_prepared_obs(prepared, k, &self.cfg.recorder)
    }

    /// [`Self::summarize_prepared`] reporting into `obs` instead of the
    /// configured recorder (batch workers pass the disabled one).
    fn summarize_prepared_obs(
        &self,
        prepared: &Prepared,
        k: Option<usize>,
        obs: &Recorder,
    ) -> Result<Summary, SummarizeError> {
        let symbolic = &prepared.symbolic;
        let n_segs = symbolic.segment_count();

        // --- Step 2: partition.
        let partition: PartitionResult = {
            let _span = obs.span("partition");
            let sims = consecutive_similarities(&prepared.seg_values, &self.weights);
            let sigs: Vec<f64> = (1..n_segs)
                .map(|b| self.registry.get(symbolic.points()[b].landmark).significance)
                .collect();
            obs.add("partition.segments_scanned", n_segs as u64); // cast-ok: segment count
                                                                  // DP table size, computed arithmetically so the hot loops in
                                                                  // partition.rs stay free of telemetry branches: the
                                                                  // k-constrained pass fills an (n-1) x k table; the
                                                                  // unconstrained pass is linear in the boundary count.
            let dp_cells = match k {
                Some(k) => (n_segs.saturating_sub(1)).saturating_mul(k),
                None => sims.len(),
            };
            obs.add("partition.dp_cells", dp_cells as u64); // cast-ok: table size
            match k {
                None => optimal_partition(&sims, &sigs, self.cfg.ca),
                Some(k) => optimal_k_partition(&sims, &sigs, self.cfg.ca, k)
                    .ok_or(SummarizeError::InvalidK { k, max: n_segs })?,
            }
        };

        // --- Steps 3 & 4 per partition.
        let mut partitions = Vec::with_capacity(partition.k());
        for (pi, span) in partition.spans.iter().enumerate() {
            let from = symbolic.points()[span.seg_start].landmark;
            let to = symbolic.points()[span.seg_end + 1].landmark;
            let hops: Vec<(LandmarkId, LandmarkId)> = (span.seg_start..=span.seg_end)
                .map(|i| (symbolic.points()[i].landmark, symbolic.points()[i + 1].landmark))
                .collect();
            // The popular route comes either from the shared memo (an
            // `Arc` slice — a probe and a refcount bump) or as an owned
            // vector from the model; both locals must outlive `pr`. A
            // disabled cache costs exactly this one branch.
            let _pr_span = obs.span("popular_route");
            let (pr_owned, pr_cached): (Option<Vec<LandmarkId>>, Option<Arc<[LandmarkId]>>) =
                match &self.route_cache {
                    None => (self.model.popular.popular_route(from, to), None),
                    Some(cache) => (None, cache.popular_route(&self.model.popular, from, to)),
                };
            let pr: Option<&[LandmarkId]> = pr_owned.as_deref().or(pr_cached.as_deref());
            obs.add(if pr.is_some() { "popular_route.hits" } else { "popular_route.misses" }, 1);
            drop(_pr_span);
            let seg_values = &prepared.seg_values[span.seg_start..=span.seg_end];

            let selected = {
                let _span = obs.span("select");
                let input = SelectionInput {
                    features: &self.features,
                    weights: &self.weights,
                    eta: self.cfg.eta,
                    seg_values,
                    hops: &hops,
                    popular_route: pr,
                    featmap: &self.model.featmap,
                    route_cache: self.route_cache.as_deref(),
                };
                let selected =
                    SELECT_SCRATCH.with(|s| select_features_with(&input, &mut s.borrow_mut()));
                obs.add("select.features_kept", selected.len() as u64); // cast-ok: feature count
                obs.add(
                    "select.features_dropped",
                    self.features.len().saturating_sub(selected.len()) as u64, // cast-ok: feature count
                );
                selected
            };

            let _render_span = obs.span("render");
            let facts = self.partition_facts(prepared, span, from, to);
            let sentence = render_partition_sentence(pi == 0, &facts, &selected, &self.features);
            drop(_render_span);
            partitions.push(PartitionSummary {
                span: *span,
                from,
                to,
                from_name: facts.from_name.clone(),
                to_name: facts.to_name.clone(),
                selected,
                sentence,
            });
        }

        let text = partitions.iter().map(|p| p.sentence.as_str()).collect::<Vec<_>>().join(" ");
        Ok(Summary {
            text,
            partitions,
            symbolic_len: symbolic.size(),
            potential: partition.potential,
        })
    }

    /// Assembles the template facts for one partition: landmark names, the
    /// dominant road name, and the stay/U-turn by-products.
    fn partition_facts(
        &self,
        prepared: &Prepared,
        span: &PartitionSpan,
        from: LandmarkId,
        to: LandmarkId,
    ) -> PartitionFacts {
        let mut stay_total_secs = 0i64;
        let mut stay_count = 0usize;
        let mut u_turn_places = Vec::new();
        let mut road_names: std::collections::BTreeMap<&str, usize> = Default::default();
        for i in span.seg_start..=span.seg_end {
            let d = &prepared.data[i];
            for s in &d.stays {
                stay_total_secs += s.duration_secs();
                stay_count += 1;
            }
            for u in &d.u_turns {
                u_turn_places.push(nearest_landmark_name(self.registry, &u.point));
            }
            if let Some(e) = d.edge {
                *road_names.entry(self.net.edge(e).name.as_str()).or_insert(0) += 1;
            }
        }
        let road_name = road_names
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(a.0)))
            .map(|(n, _)| n.to_owned());
        PartitionFacts {
            from_name: self.registry.get(from).name.clone(),
            to_name: self.registry.get(to).name.clone(),
            road_name,
            stay_total_secs,
            stay_count,
            u_turn_places,
        }
    }
}

/// Replays a worker-local span tree into `o` via the determinism
/// contract: one `span_observed` per leaf, nested `replay_span` calls
/// for interior nodes, in the local report's first-seen (pipeline)
/// order. Names come from the worker report, so every replayed span is
/// already a registered stage name.
fn replay_stage_spans(o: &Recorder, nodes: &[SpanNode]) {
    for n in nodes {
        let total = std::time::Duration::from_secs_f64(n.total_ms.max(0.0) / 1e3);
        if n.children.is_empty() {
            o.span_observed(&n.name, total);
        } else {
            o.replay_span(&n.name, total, &[], |o| replay_stage_spans(o, &n.children));
        }
    }
}

/// Flattens a worker report's root spans into the per-stage millisecond
/// map an [`Exemplar`] carries (summing repeated stages).
fn stage_breakdown(nodes: &[SpanNode]) -> std::collections::BTreeMap<String, f64> {
    let mut out = std::collections::BTreeMap::new();
    for n in nodes {
        *out.entry(n.name.clone()).or_insert(0.0) += n.total_ms;
    }
    out
}

/// Convenience: does the summary mention feature `key` in any partition?
pub fn summary_mentions(summary: &Summary, key: &str) -> bool {
    summary.partitions.iter().any(|p| p.selected.iter().any(|s| s.key == key))
}

/// The set of feature keys mentioned anywhere in the summary — the unit the
/// paper's feature-frequency (FF) metric counts.
pub fn mentioned_keys(summary: &Summary) -> std::collections::BTreeSet<String> {
    summary.partitions.iter().flat_map(|p| p.selected.iter().map(|s| s.key.clone())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_papers_experimental_settings() {
        // Sec. VII-B: "we set the weight of the landmark significance in the
        // potential function as 0.5, the feature weight as 1 and the
        // irregular rate threshold for a selected feature as 0.2."
        let cfg = SummarizerConfig::default();
        assert_eq!(cfg.ca, 0.5);
        assert_eq!(cfg.eta, 0.2);
        assert!(cfg.extraction.hmm_matching);
    }

    #[test]
    fn error_messages_are_actionable() {
        let e = SummarizeError::InvalidK { k: 9, max: 4 };
        assert_eq!(e.to_string(), "cannot split 4 segment(s) into 9 partition(s)");
        let e: SummarizeError = stmaker_calibration::CalibrationError::TooFewLandmarks(1).into();
        assert!(e.to_string().contains("calibration failed"));
        assert!(e.to_string().contains("need at least 2"));
        let e = SummarizeError::ModelMismatch { model: 12, registry: 40 };
        assert_eq!(
            e.to_string(),
            "model was trained against a 12-landmark registry, got 40 landmarks"
        );
    }

    #[test]
    fn empty_model_serializes_and_parses() {
        let model = TrainedModel {
            popular: PopularRoutes::build(&[], PopularRouteConfig::default()),
            featmap: HistoricalFeatureMap::new(),
            n_trained: 0,
            registry_len: 0,
        };
        let json = model.to_json();
        let back = TrainedModel::from_json(&json).expect("round-trips");
        assert_eq!(back.n_trained, 0);
        assert_eq!(back.to_json(), json, "canonical form is stable");
        assert!(TrainedModel::from_json("{broken").is_err());

        // Model files from before the popular-route tables and the registry
        // length existed lack those keys; they fail to load instead of
        // taking a second, slower code path.
        fn strip(value: &mut serde_json::Value, key: &str) {
            match value {
                serde_json::Value::Map(entries) => {
                    entries.retain(|(k, _)| k != key);
                    entries.iter_mut().for_each(|(_, v)| strip(v, key));
                }
                serde_json::Value::Seq(items) => items.iter_mut().for_each(|v| strip(v, key)),
                _ => {}
            }
        }
        for key in ["winners", "supports", "registry_len"] {
            let mut value = serde_json::to_value(&model).expect("serializes");
            strip(&mut value, key);
            let json = serde_json::to_string(&value).expect("serializes");
            let err = TrainedModel::from_json(&json).err().expect("legacy model must not load");
            assert!(err.to_string().contains(key), "{key}: {err}");
        }
    }
}
