//! Long-lived HTTP serving layer over the stmaker summarization stack.
//!
//! The paper frames summarization as an offline batch step; the ROADMAP
//! north-star is the same pipeline as a service under heavy traffic. This
//! crate is that frontend: a std-only HTTP/1.1 server (no framework, no
//! async runtime — `TcpListener` + a scoped worker pool, the same
//! threading idiom as `stmaker-exec`) exposing the pipeline as endpoints:
//!
//! | endpoint                | what it does                                       |
//! |-------------------------|----------------------------------------------------|
//! | `POST /summarize`       | one trip body (`?format=csv\|jsonl\|stc`) → summary text |
//! | `POST /summarize_batch` | many trips (blank-line blocks or one STC1 container) → one summary per line |
//! | `POST /ingest`          | streaming push into a [`StreamingSummarizer`] session |
//! | `GET /model`            | serving parameters; `?format=stc` downloads the model |
//! | `POST /model`           | hot-swap a new [`TrainedModel`] (STC1 body)         |
//! | `GET /healthz`          | liveness + current model version                   |
//! | `GET /metrics`          | the obs [`Report`](stmaker::Report) as JSON        |
//! | `POST /shutdown`        | graceful drain: finish queued requests, then exit  |
//!
//! # Determinism contract
//!
//! A served summary is **byte-identical** to what `stmaker-cli summarize`
//! prints for the same input: both front ends decode trips through the one
//! `stmaker_io::decode` entry point under the same [`SanitizePolicy`] and
//! call the same two [`Summarizer`] entry points with the same `k`:
//! [`Summarizer::summarize`] for one trip, and [`Summarizer::summarize_batch`]
//! for the batch endpoint, which fans out through the `stmaker-exec` pool
//! with an index-preserving merge. The e2e tests and the CI "Serve
//! smoke" step `cmp` the two byte-for-byte.
//!
//! # Model hot-swap and the cache-generation invariant
//!
//! The model slot is `Mutex<Arc<Generation>>` (ArcSwap-style: writers
//! swap the `Arc`, readers clone it and work lock-free afterwards). Each
//! `Generation` owns its *own* [`Summarizer`] — and therefore its own
//! route cache, built fresh by [`Summarizer::try_from_model`]. That is
//! the fix for a cache-staleness bug: route-cache
//! entries are keyed by landmark pair, not model identity (including
//! memoized *negative* answers), so a swapped-in model must never see the
//! previous generation's cache. Swapping the whole generation atomically
//! makes stale reuse structurally impossible: in-flight requests finish
//! against the generation they started with, new requests see the new
//! model with a cold cache. See the "one cache, one model" note on the
//! summarizer's route cache and DESIGN.md §15.
//!
//! # Ingest sessions
//!
//! Each `/ingest` session owns one [`StreamingSummarizer`], kept across
//! requests; a request pushes only its own samples, under the generation
//! current for that request. A hot-swap therefore keeps a session's
//! buffer and refresh bookkeeping, and its next refresh and `finish=1`
//! use the new model. The stream's `try_push` alone decides which samples
//! are accepted.
//!
//! # Backpressure
//!
//! Admission control is a bounded handoff queue: the accept loop answers
//! `429 Too Many Requests` the moment the queue is at `queue_depth`, and
//! `503 Service Unavailable` once a drain began — typed, immediate
//! rejections instead of unbounded buffering (tail latency under overload
//! is the cost the DESIGN doc's serving scenario refuses to pay).

use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use stmaker::{
    standard_features, FeatureWeights, Recorder, StreamConfig, StreamingSummarizer, SummarizeError,
    Summarizer, SummarizerConfig, TrainedModel,
};
use stmaker_io::{
    decode_batch, decode_runs, decode_trip, read_model_stc, write_model_stc, DecodeError,
    DecodedTrip, TripFormat,
};
use stmaker_poi::LandmarkRegistry;
use stmaker_road::RoadNetwork;
use stmaker_trajectory::{RawPoint, SanitizePolicy};

mod http;

use http::{json_str, HttpError, Request, Response};

/// Serving parameters. `Default` is tuned for tests (loopback, ephemeral
/// port); the `serve` CLI subcommand overrides from flags.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8080`; port 0 picks an ephemeral port
    /// (read it back via [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads handling requests; 0 = one per available core,
    /// capped at 8.
    pub workers: usize,
    /// Bound on accepted-but-unserviced connections; at the bound new
    /// connections are answered `429` immediately.
    pub queue_depth: usize,
    /// Cap on a request body, bytes; beyond it the request is `413`.
    pub max_body_bytes: usize,
    /// Per-connection read/write timeout.
    pub io_timeout: Duration,
    /// Default ingest-hardening policy for request bodies; a request may
    /// override with `?sanitize=POLICY`. `None` = strict parsing.
    pub sanitize: Option<SanitizePolicy>,
    /// Bound on concurrently open `/ingest` sessions.
    pub max_sessions: usize,
    /// Bound on buffered points per `/ingest` session. A request is `413`
    /// when the buffered points plus all of its samples, counted before
    /// the stream drops any, would pass it.
    pub max_session_points: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: 0,
            queue_depth: 64,
            max_body_bytes: 8 * 1024 * 1024,
            io_timeout: Duration::from_secs(10),
            sanitize: None,
            max_sessions: 64,
            max_session_points: 100_000,
        }
    }
}

/// Why the server could not be brought up.
#[derive(Debug)]
pub enum ServeError {
    /// The listen socket could not be bound.
    Bind {
        /// The requested address.
        addr: String,
        /// The OS-level failure.
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { addr, message } => write!(f, "cannot bind {addr}: {message}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One immutable (model, summarizer, route-cache) unit. Swapped as a
/// whole so cache entries can never outlive the model they memoize.
struct Generation<'w> {
    /// Monotonic model version; generation 1 is the model served at bind.
    version: u64,
    summarizer: Summarizer<'w>,
}

/// Writes `resp` and closes `stream` without losing the response to a TCP
/// reset: closing a socket with unread received data RSTs the connection,
/// which can discard the response out of the peer's receive buffer — the
/// rejection paths answer *before* reading the request, so they would hit
/// exactly that. Send FIN first, then drain (bounded) until the peer
/// closes.
fn respond_and_close(mut stream: TcpStream, resp: &Response) -> u64 {
    let n = resp.write_to(&mut stream).unwrap_or(0);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut sink = [0u8; 4096];
    for _ in 0..64 {
        match std::io::Read::read(&mut stream, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => continue,
        }
    }
    n
}

/// Poison-absorbing lock helper (the route memo's idiom): a poisoned
/// mutex only means another worker panicked mid-request; serving state is
/// still internally consistent, so keep serving.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Poison-absorbing condvar wait, same contract as [`lock`].
fn wait<'g, T>(cv: &Condvar, g: MutexGuard<'g, T>) -> MutexGuard<'g, T> {
    match cv.wait(g) {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// The serving frontend. Borrows the world (`RoadNetwork`,
/// `LandmarkRegistry`) like every other consumer of the stack; owns the
/// listen socket, the generation slot, the admission queue, and the
/// ingest session table.
pub struct Server<'w> {
    net: &'w RoadNetwork,
    registry: &'w LandmarkRegistry,
    cfg: ServeConfig,
    /// Template config each generation's summarizer is assembled from
    /// (threads, route-cache size, recorder).
    base_cfg: SummarizerConfig,
    listener: TcpListener,
    addr: SocketAddr,
    slot: Mutex<Arc<Generation<'w>>>,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    stop: AtomicBool,
    /// Open `/ingest` sessions, each the stream its requests push into.
    sessions: Mutex<BTreeMap<String, StreamingSummarizer>>,
    obs: Recorder,
}

impl<'w> Server<'w> {
    /// Binds the listen socket and serves `summarizer` as generation 1.
    /// Hot-swapped models are assembled over the same world with the same
    /// config; the feature set is the standard one with uniform weights.
    pub fn from_summarizer(
        summarizer: Summarizer<'w>,
        cfg: ServeConfig,
    ) -> Result<Self, ServeError> {
        let obs = summarizer.recorder().clone();
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| ServeError::Bind { addr: cfg.addr.clone(), message: e.to_string() })?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Bind { addr: cfg.addr.clone(), message: e.to_string() })?;
        Ok(Self {
            net: summarizer.network(),
            registry: summarizer.registry(),
            cfg,
            base_cfg: summarizer.config().clone(),
            listener,
            addr,
            slot: Mutex::new(Arc::new(Generation { version: 1, summarizer })),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            sessions: Mutex::new(BTreeMap::new()),
            obs,
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Worker-thread count after resolving `workers == 0` to the core
    /// count (capped at 8 — serving is I/O-light, summarization itself
    /// parallelizes through the exec pool per request).
    pub fn worker_count(&self) -> usize {
        if self.cfg.workers > 0 {
            return self.cfg.workers;
        }
        std::thread::available_parallelism().map(usize::from).unwrap_or(4).min(8)
    }

    /// Serves until [`Server::shutdown`] (or `POST /shutdown`) and the
    /// queue drains. Blocks the calling thread; workers are scoped, so
    /// returning means every in-flight request finished.
    pub fn run(&self) {
        self.publish_gauges();
        std::thread::scope(|s| {
            for _ in 0..self.worker_count() {
                s.spawn(|| self.worker_loop());
            }
            self.accept_loop();
            self.queue_cv.notify_all();
        });
    }

    /// Flips the drain flag and unblocks the accept loop. Safe to call
    /// from any thread, including a worker mid-request.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        // `accept` has no timeout; a loopback connection is the portable
        // way to wake it so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        self.queue_cv.notify_all();
    }

    /// Whether a drain has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    // -- threading ---------------------------------------------------------

    fn accept_loop(&self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((s, _)) => s,
                Err(_) => {
                    if self.is_shutting_down() {
                        break;
                    }
                    continue;
                }
            };
            if self.is_shutting_down() {
                // Drain began: answer the typed unavailable error rather
                // than letting the connection hang, then stop accepting.
                self.obs.add("serve.rejected_unavailable", 1);
                respond_and_close(stream, &Response::error(503, "server is draining"));
                break;
            }
            let _ = stream.set_read_timeout(Some(self.cfg.io_timeout));
            let _ = stream.set_write_timeout(Some(self.cfg.io_timeout));
            let _ = stream.set_nodelay(true);
            let mut q = lock(&self.queue);
            if q.len() >= self.cfg.queue_depth {
                drop(q);
                self.obs.add("serve.rejected_busy", 1);
                respond_and_close(stream, &Response::error(429, "request queue is full"));
            } else {
                q.push_back(stream);
                drop(q);
                self.queue_cv.notify_one();
            }
        }
        self.queue_cv.notify_all();
    }

    fn worker_loop(&self) {
        loop {
            let mut q = lock(&self.queue);
            let job = loop {
                if let Some(s) = q.pop_front() {
                    break Some(s);
                }
                if self.is_shutting_down() {
                    break None;
                }
                q = wait(&self.queue_cv, q);
            };
            drop(q);
            match job {
                Some(stream) => self.handle_conn(stream),
                None => return,
            }
        }
    }

    fn handle_conn(&self, mut stream: TcpStream) {
        // lint: wallclock — latency feeds serve.request_ms/serve.request in the recorder only; no response reads the clock
        let t0 = std::time::Instant::now();
        let parsed = http::read_request(&mut stream, self.cfg.max_body_bytes);
        let resp = match parsed {
            Ok(req) => {
                self.obs.add("serve.requests", 1);
                self.obs.add("serve.bytes_in", req.wire_bytes);
                self.route(&req)
            }
            // Nothing arrived at all: a port probe or the shutdown wake
            // connection. Not a request; not worth a counter.
            Err(HttpError::Disconnected { clean: true }) => return,
            Err(e) => {
                self.obs.add("serve.requests", 1);
                let status = match e {
                    HttpError::Timeout => 408,
                    HttpError::HeadTooLarge => 431,
                    HttpError::BodyTooLarge { .. } => 413,
                    _ => 400,
                };
                Response::error(status, &e.to_string())
            }
        };
        match resp.status {
            200..=299 => self.obs.add("serve.responses_ok", 1),
            500..=599 => self.obs.add("serve.responses_server_error", 1),
            _ => self.obs.add("serve.responses_client_error", 1),
        }
        let written = respond_and_close(stream, &resp);
        if written > 0 {
            self.obs.add("serve.bytes_out", written);
        }
        let dt = t0.elapsed();
        self.obs.observe_ms("serve.request_ms", dt.as_secs_f64() * 1e3);
        self.obs.span_observed("serve.request", dt);
    }

    // -- generation slot ---------------------------------------------------

    /// The current generation; requests clone the `Arc` once and never
    /// touch the slot again, so a concurrent swap cannot change the model
    /// (or the cache) under a request already in flight.
    fn current(&self) -> Arc<Generation<'w>> {
        lock(&self.slot).clone()
    }

    /// Builds a full generation from `model` — fresh summarizer, fresh
    /// route cache — and swaps it in. The expensive assembly runs before
    /// the slot lock; the critical section is a pointer swap.
    fn swap_in(&self, model: TrainedModel) -> Result<u64, SummarizeError> {
        let features = standard_features();
        let weights = FeatureWeights::uniform(&features);
        let next = Summarizer::try_from_model(
            self.net,
            self.registry,
            model,
            features,
            weights,
            self.base_cfg.clone(),
        )?;
        let mut slot = lock(&self.slot);
        let version = slot.version + 1;
        *slot = Arc::new(Generation { version, summarizer: next });
        drop(slot);
        self.obs.add("serve.model_swaps", 1);
        self.obs.gauge("serve.model_version", version as f64); // cast-ok: gauge display
        Ok(version)
    }

    fn publish_gauges(&self) {
        let gen = self.current();
        self.obs.gauge("serve.model_version", gen.version as f64); // cast-ok: gauge display
        self.obs.gauge("serve.workers", self.worker_count() as f64); // cast-ok: gauge display
        self.obs.gauge("serve.queue_depth", self.cfg.queue_depth as f64); // cast-ok: gauge display
        let sessions = lock(&self.sessions).len();
        self.obs.gauge("serve.sessions_active", sessions as f64); // cast-ok: gauge display
    }

    // -- routing -----------------------------------------------------------

    fn route(&self, req: &Request) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => self.handle_healthz(),
            ("GET", "/model") => self.handle_model_get(req),
            ("POST", "/model") => self.handle_model_post(req),
            ("GET", "/metrics") => self.handle_metrics(),
            ("POST", "/summarize") => self.handle_summarize(req),
            ("POST", "/summarize_batch") => self.handle_batch(req),
            ("POST", "/ingest") => self.handle_ingest(req),
            ("POST", "/shutdown") => self.handle_shutdown(),
            (
                _,
                "/healthz" | "/model" | "/metrics" | "/summarize" | "/summarize_batch" | "/ingest"
                | "/shutdown",
            ) => Response::error(405, "method not allowed for this endpoint"),
            _ => Response::error(404, "unknown endpoint"),
        }
    }

    fn handle_healthz(&self) -> Response {
        let gen = self.current();
        Response::json(200, format!("{{\"status\": \"ok\", \"model_version\": {}}}\n", gen.version))
    }

    /// `?format=stc` downloads the model in its STC1 encoding; no
    /// parameter answers the serving parameters as JSON metadata.
    fn handle_model_get(&self, req: &Request) -> Response {
        let gen = self.current();
        let model = gen.summarizer.model();
        match req.query("format") {
            Some("stc") => return Response::binary(200, write_model_stc(model)),
            Some(other) => {
                return Response::error(400, &format!("unknown model format {other:?}"));
            }
            None => {}
        }
        let cfg = gen.summarizer.config();
        Response::json(
            200,
            format!(
                "{{\"model_version\": {}, \"n_trained\": {}, \"registry_len\": {}, \
                 \"threads\": {}, \"route_cache\": {}, \"workers\": {}, \"queue_depth\": {}}}\n",
                gen.version,
                model.n_trained,
                self.registry.len(),
                cfg.threads,
                cfg.route_cache,
                self.worker_count(),
                self.cfg.queue_depth,
            ),
        )
    }

    /// Decodes an STC1 model body and swaps it in. A body that does not
    /// decode, or a model that does not fit the registry, is a typed 422
    /// and leaves the serving generation as it was.
    fn handle_model_post(&self, req: &Request) -> Response {
        let model = match read_model_stc(&req.body) {
            Ok(m) => m,
            Err(e) => return Response::error(422, &format!("model does not decode: {e}")),
        };
        match self.swap_in(model) {
            Ok(version) => Response::json(200, format!("{{\"model_version\": {version}}}\n")),
            Err(e) => Response::error(422, &e.to_string()),
        }
    }

    fn handle_metrics(&self) -> Response {
        self.publish_gauges();
        let mut body = self.obs.report().to_json_pretty();
        if !body.ends_with('\n') {
            body.push('\n');
        }
        Response::json(200, body)
    }

    fn handle_shutdown(&self) -> Response {
        self.shutdown();
        Response::json(200, "{\"status\": \"draining\"}\n".to_owned())
    }

    // -- summarization endpoints -------------------------------------------

    /// `?sanitize=POLICY` override, falling back to the server default.
    /// `?sanitize=off` forces strict parsing even when the server default
    /// is lenient.
    fn request_policy(&self, req: &Request) -> Result<Option<SanitizePolicy>, Response> {
        match req.query("sanitize") {
            None => Ok(self.cfg.sanitize),
            Some("off") => Ok(None),
            Some(p) => p
                .parse::<SanitizePolicy>()
                .map(Some)
                .map_err(|e| Response::error(400, &format!("bad sanitize param: {e}"))),
        }
    }

    /// The trip encoding named by `?format=`; CSV when absent.
    fn trip_format(req: &Request) -> Result<TripFormat, Response> {
        match req.query("format") {
            None => Ok(TripFormat::Csv),
            Some(v) => v.parse().map_err(|e: String| Response::error(400, &e)),
        }
    }

    /// Records the sanitize reports of decoded trips into the recorder.
    fn record_reports(&self, trips: &[DecodedTrip]) {
        for report in trips.iter().filter_map(|d| d.report.as_ref()) {
            report.record(&self.obs);
        }
    }

    /// The requested partition count: `None` (the optimal partition) when
    /// `k` is absent or `0`.
    fn parse_k(req: &Request) -> Result<Option<usize>, Response> {
        match req.query("k") {
            None => Ok(None),
            Some(v) => v
                .parse::<usize>()
                .map(|k| (k > 0).then_some(k))
                .map_err(|_| Response::error(400, &format!("bad k param {v:?}"))),
        }
    }

    fn handle_summarize(&self, req: &Request) -> Response {
        let k = match Self::parse_k(req) {
            Ok(k) => k,
            Err(r) => return r,
        };
        let policy = match self.request_policy(req) {
            Ok(p) => p,
            Err(r) => return r,
        };
        let format = match Self::trip_format(req) {
            Ok(f) => f,
            Err(r) => return r,
        };
        let decoded = match decode_trip(&req.body, format, policy) {
            Ok(d) => d,
            Err(e) => return decode_rejected(&e),
        };
        self.record_reports(std::slice::from_ref(&decoded));
        let raw = match decoded.trip {
            Ok(raw) => raw,
            Err(e) => return decode_rejected(&e),
        };
        match self.current().summarizer.summarize(raw.points(), k) {
            // Trailing newline matches `stmaker-cli summarize`'s `println!`
            // so the two outputs `cmp` equal.
            Ok(s) => Response::text(200, format!("{}\n", s.text)),
            Err(e) => Response::error(422, &e.to_string()),
        }
    }

    fn handle_batch(&self, req: &Request) -> Response {
        let k = match Self::parse_k(req) {
            Ok(k) => k,
            Err(r) => return r,
        };
        let policy = match self.request_policy(req) {
            Ok(p) => p,
            Err(r) => return r,
        };
        let format = match Self::trip_format(req) {
            Ok(f) => f,
            Err(r) => return r,
        };
        // Per-trip decode failures become per-line errors, not a failed
        // request — index alignment with the input trips is the contract.
        // (Container-level STC corruption still fails the whole request:
        // there is no trip boundary left to align to.)
        let decoded = match decode_batch(&req.body, format, policy) {
            Ok(d) => d,
            Err(e) => return decode_rejected(&e),
        };
        if decoded.is_empty() {
            return Response::error(
                422,
                "empty batch: no trips in the body (text trips are separated by blank lines)",
            );
        }
        self.record_reports(&decoded);
        let mut lines = Vec::with_capacity(decoded.len());
        let mut trips = Vec::new();
        let mut at = Vec::new();
        for (i, d) in decoded.into_iter().enumerate() {
            match d.trip {
                Ok(raw) => {
                    trips.push(raw);
                    at.push(i);
                    lines.push(String::new());
                }
                Err(e) => lines.push(format!("error: {e}")),
            }
        }
        // A trip refused at decode never reaches the summarizer; count it
        // with the trips that failed there.
        self.obs.add("batch.summaries_failed", (lines.len() - trips.len()) as u64); // cast-ok: trip count

        // The throughput path: fans out through the stmaker-exec pool,
        // deterministic index-preserving merge.
        let results = self.current().summarizer.summarize_batch(&trips, k);
        for (i, result) in at.into_iter().zip(results) {
            lines[i] = match result {
                Ok(s) => s.text,
                Err(e) => format!("error: {e}"),
            };
        }
        let mut out = lines.join("\n");
        out.push('\n');
        Response::text(200, out)
    }

    // -- streaming ingest --------------------------------------------------

    fn handle_ingest(&self, req: &Request) -> Response {
        let Some(session_id) = req.query("session") else {
            return Response::error(400, "missing session param");
        };
        if session_id.is_empty()
            || session_id.len() > 64
            || !session_id.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
        {
            return Response::error(400, "session must be 1-64 chars of [A-Za-z0-9_-]");
        }
        let finish = req.query("finish").is_some_and(|v| v != "0");
        let format = match Self::trip_format(req) {
            Ok(TripFormat::Stc) => {
                return Response::error(400, "ingest takes csv or jsonl bodies, not stc")
            }
            Ok(f) => f,
            Err(r) => return r,
        };
        // Always the lenient read: the session's stream decides per sample
        // which ones it accepts (`StreamingSummarizer::try_push`).
        let new_points: Vec<RawPoint> = match decode_runs(&req.body, format) {
            Ok(runs) => runs.into_iter().flatten().collect(),
            Err(e) => return decode_rejected(&e),
        };

        let gen = self.current();
        // The session table lock is held while this request's samples are
        // pushed, which serializes /ingest requests against each other
        // (only — the batch endpoints never touch this lock). The work
        // under it is this request's pushes and the refreshes they fire.
        let mut sessions = lock(&self.sessions);
        // Nothing is created or changed before the request is accepted.
        // The bound counts the request's samples before the stream drops
        // any of them.
        let buffered = sessions.get(session_id).map_or(0, StreamingSummarizer::len);
        if buffered + new_points.len() > self.cfg.max_session_points {
            return Response::error(
                413,
                &format!("session exceeds {} buffered points", self.cfg.max_session_points),
            );
        }
        // The stream is out of the table while this request pushes into
        // it, and goes back unless the request finishes the session.
        let mut stream = match sessions.remove(session_id) {
            Some(stream) => stream,
            None => {
                if finish && new_points.is_empty() {
                    return Response::error(404, "unknown session");
                }
                if sessions.len() >= self.cfg.max_sessions {
                    return Response::error(429, "session table is full");
                }
                self.obs.add("serve.sessions_opened", 1);
                match StreamingSummarizer::try_new(StreamConfig::default()) {
                    Ok(s) => s,
                    Err(e) => return Response::error(500, &e.to_string()),
                }
            }
        };
        // A hot-swap between requests only changes which model the next
        // refresh (and `finish`) runs under; the buffer and refresh
        // bookkeeping carry over.
        let mut refreshed = false;
        for p in new_points {
            refreshed |= matches!(stream.try_push(&gen.summarizer, p), Ok(Some(_)));
        }
        let n_points = stream.len();
        let (dropped_out_of_order, dropped_invalid) = stream.dropped();

        let (summary, finished) = if finish {
            self.obs.add("serve.sessions_finished", 1);
            match stream.finish(&gen.summarizer) {
                Ok(s) => (Some(s.text), true),
                Err(e) => {
                    return Response::error(
                        422,
                        &format!("session closed, final summary failed: {e}"),
                    )
                }
            }
        } else {
            let summary = stream.current().map(|s| s.text.clone());
            sessions.insert(session_id.to_owned(), stream);
            (summary, false)
        };

        let summary_json = match &summary {
            Some(text) => json_str(text),
            None => "null".to_owned(),
        };
        Response::json(
            200,
            format!(
                "{{\"session\": {}, \"model_version\": {}, \"points\": {n_points}, \
                 \"dropped_invalid\": {dropped_invalid}, \
                 \"dropped_out_of_order\": {dropped_out_of_order}, \
                 \"refreshed\": {refreshed}, \"finished\": {finished}, \
                 \"summary\": {summary_json}}}\n",
                json_str(session_id),
                gen.version,
            ),
        )
    }
}

/// A decode failure as a response: a non-UTF-8 body is malformed (400),
/// anything else is well-formed input the pipeline refuses (422).
fn decode_rejected(e: &DecodeError) -> Response {
    match e {
        DecodeError::NotUtf8 => Response::error(400, &e.to_string()),
        DecodeError::TripCount { .. } => {
            Response::error(422, &format!("{e} (use /summarize_batch)"))
        }
        _ => Response::error(422, &e.to_string()),
    }
}

impl std::fmt::Debug for Server<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("workers", &self.worker_count())
            .field("queue_depth", &self.cfg.queue_depth)
            .finish_non_exhaustive()
    }
}
