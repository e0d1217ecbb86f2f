//! End-to-end tests against a live `stmaker-server` on a loopback socket:
//! concurrency byte-identity with the CLI serving path, model hot-swap
//! cache-staleness regression, admission control, streaming ingest, and
//! graceful shutdown.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use stmaker::{
    standard_features, FeatureWeights, Recorder, Summarizer, SummarizerConfig, TrainedModel,
};
use stmaker_generator::{TripConfig, TripGenerator, World, WorldConfig};
use stmaker_io::{
    read_model_stc, read_trajectory_csv, write_model_stc, write_trajectory_csv,
    write_trajectory_jsonl, write_trips_stc,
};
use stmaker_server::{ServeConfig, Server};
use stmaker_trajectory::RawPoint;

// -- fixtures ---------------------------------------------------------------

struct Fixture {
    world: World,
    /// Trip bodies exactly as a client would POST them (CSV text).
    trip_csvs: Vec<String>,
}

impl Fixture {
    fn new() -> Self {
        let world = World::generate(WorldConfig::small(77));
        let gen = TripGenerator::new(&world, TripConfig::default());
        let trip_csvs = gen
            .generate_corpus(6, 2002)
            .into_iter()
            .map(|t| write_trajectory_csv(&t.raw))
            .collect();
        Self { world, trip_csvs }
    }

    fn train(&self, n: usize, seed: u64) -> TrainedModel {
        let gen = TripGenerator::new(&self.world, TripConfig::default());
        let corpus: Vec<_> = gen.generate_corpus(n, seed).into_iter().map(|t| t.raw).collect();
        let features = standard_features();
        let weights = FeatureWeights::uniform(&features);
        Summarizer::train(
            &self.world.net,
            &self.world.registry,
            &corpus,
            features,
            weights,
            SummarizerConfig::default(),
        )
        .into_model()
    }

    fn summarizer(&self, model: TrainedModel, cfg: SummarizerConfig) -> Summarizer<'_> {
        let features = standard_features();
        let weights = FeatureWeights::uniform(&features);
        Summarizer::try_from_model(
            &self.world.net,
            &self.world.registry,
            model,
            features,
            weights,
            cfg,
        )
        .expect("registry matches")
    }

    /// What the CLI path would print for each trip CSV (text + newline),
    /// or None where summarization errors.
    fn reference_texts(&self, summarizer: &Summarizer<'_>) -> Vec<Option<String>> {
        self.trip_csvs
            .iter()
            .map(|csv| {
                let points = read_trajectory_csv(csv).expect("fixture parses").points().to_vec();
                summarizer.summarize_points(&points).ok().map(|s| format!("{}\n", s.text))
            })
            .collect()
    }
}

/// Runs `server` on scoped threads, passes the bound address to `f`, and
/// guarantees a drain even when `f` panics (otherwise the scope would
/// never join and the test would hang instead of failing).
fn with_running<'w, F: FnOnce(SocketAddr)>(server: &Server<'w>, f: F) {
    struct Drain<'a, 'w>(&'a Server<'w>);
    impl Drop for Drain<'_, '_> {
        fn drop(&mut self) {
            self.0.shutdown();
        }
    }
    std::thread::scope(|s| {
        s.spawn(|| server.run());
        let _drain = Drain(server);
        f(server.local_addr());
    });
}

// -- tiny HTTP client -------------------------------------------------------

fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let head =
        format!("{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n", body.len());
    s.write_all(head.as_bytes()).expect("write head");
    s.write_all(body).expect("write body");
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).expect("read response");
    let text_end = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("response head");
    let status: u16 = std::str::from_utf8(&raw[..text_end])
        .expect("ascii head")
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    (status, raw[text_end + 4..].to_vec())
}

fn body_text(body: &[u8]) -> String {
    String::from_utf8(body.to_vec()).expect("utf-8 body")
}

// -- tests ------------------------------------------------------------------

/// Satellite 4: N client threads against `/summarize` and
/// `/summarize_batch` get bytes identical to the sequential CLI path, at
/// threads 1/2/4, with and without the route cache.
#[test]
fn concurrent_clients_get_cli_identical_bytes() {
    let fx = Fixture::new();
    let reference = {
        let summarizer = fx.summarizer(fx.train(60, 1001), SummarizerConfig::default());
        fx.reference_texts(&summarizer)
    };
    let batch_body: String = fx.trip_csvs.join("\n");
    let batch_reference: String = reference
        .iter()
        .map(|r| match r {
            Some(text) => text.clone(),
            None => "error".to_owned(), // prefix-checked below
        })
        .collect();

    for threads in [1usize, 2, 4] {
        for route_cache in [0usize, 64] {
            let base_cfg =
                SummarizerConfig::default().with_threads(threads).with_route_cache(route_cache);
            let server = Server::bind(
                &fx.world.net,
                &fx.world.registry,
                fx.train(60, 1001),
                base_cfg,
                ServeConfig::default(),
            )
            .expect("bind");
            with_running(&server, |addr| {
                std::thread::scope(|s| {
                    for _client in 0..3 {
                        s.spawn(|| {
                            for (csv, expect) in fx.trip_csvs.iter().zip(&reference) {
                                let (status, body) =
                                    request(addr, "POST", "/summarize", csv.as_bytes());
                                match expect {
                                    Some(text) => {
                                        assert_eq!(status, 200, "{}", body_text(&body));
                                        assert_eq!(&body_text(&body), text);
                                    }
                                    None => assert_eq!(status, 422),
                                }
                            }
                        });
                    }
                });
                // Trips separated by blank lines; one line per trip, index
                // aligned, errors inline.
                let (status, body) =
                    request(addr, "POST", "/summarize_batch", batch_body.as_bytes());
                assert_eq!(status, 200);
                let got = body_text(&body);
                for (line, expect) in got.lines().zip(batch_reference.lines()) {
                    if expect == "error" {
                        assert!(line.starts_with("error:"), "{line}");
                    } else {
                        assert_eq!(line, expect, "threads={threads} cache={route_cache}");
                    }
                }
                assert_eq!(got.lines().count(), fx.trip_csvs.len());
            });
        }
    }
}

/// Satellite 1 over the wire: a hot-swapped model must never be answered
/// from the previous generation's memoized route entries (negative
/// answers included). Post-swap responses are compared byte-for-byte
/// against a cold-cache summarizer built from the same new model.
#[test]
fn hot_swap_serves_cold_cache_bytes() {
    let fx = Fixture::new();
    let model_a = fx.train(60, 1001);
    let model_b = fx.train(8, 5005);
    let model_b_json = model_b.to_json();

    let cold_b = {
        let summarizer =
            fx.summarizer(fx.train(8, 5005), SummarizerConfig::default().with_route_cache(64));
        fx.reference_texts(&summarizer)
    };
    let warm_a = {
        let summarizer = fx.summarizer(model_a, SummarizerConfig::default().with_route_cache(64));
        fx.reference_texts(&summarizer)
    };
    assert_ne!(warm_a, cold_b, "models must disagree for the test to have teeth");

    let server = Server::bind(
        &fx.world.net,
        &fx.world.registry,
        fx.train(60, 1001),
        SummarizerConfig::default().with_route_cache(64),
        ServeConfig::default(),
    )
    .expect("bind");
    with_running(&server, |addr| {
        // Warm generation A's cache: every trip twice, so the second pass
        // is served from memoized entries (misses memoize negatives too).
        for _pass in 0..2 {
            for (csv, expect) in fx.trip_csvs.iter().zip(&warm_a) {
                let (status, body) = request(addr, "POST", "/summarize", csv.as_bytes());
                if let Some(text) = expect {
                    assert_eq!((status, body_text(&body)), (200, text.clone()));
                }
            }
        }
        let (status, body) = request(addr, "POST", "/model", model_b_json.as_bytes());
        assert_eq!(status, 200, "{}", body_text(&body));
        assert!(body_text(&body).contains("\"model_version\": 2"));
        let (status, body) = request(addr, "GET", "/healthz", b"");
        assert_eq!(status, 200);
        assert!(body_text(&body).contains("\"model_version\": 2"), "{}", body_text(&body));

        for (csv, expect) in fx.trip_csvs.iter().zip(&cold_b) {
            let (status, body) = request(addr, "POST", "/summarize", csv.as_bytes());
            match expect {
                Some(text) => assert_eq!((status, body_text(&body)), (200, text.clone())),
                None => assert_eq!(status, 422),
            }
        }

        // A model for a different registry is a typed 422, not a swap.
        let mut bad = fx.train(8, 5005);
        bad.registry_len += 1;
        let (status, body) = request(addr, "POST", "/model", bad.to_json().as_bytes());
        assert_eq!(status, 422);
        assert!(body_text(&body).contains("registry"), "{}", body_text(&body));

        // So is a model written before the precomputed winners table.
        let json = fx.train(8, 5005).to_json();
        let start = json.find(",\"winners\":").expect("winners key");
        let end = start + json[start..].find(",\"cfg\":").expect("cfg follows winners");
        let legacy = format!("{}{}", &json[..start], &json[end..]);
        let (status, body) = request(addr, "POST", "/model", legacy.as_bytes());
        assert_eq!(status, 422);
        assert!(body_text(&body).contains("winners"), "{}", body_text(&body));

        // So is a model whose popular-route occurrence lies outside its
        // corpus, in either encoding: it would panic a worker on the
        // first query that reached the occurrence scan.
        let good = fx.train(8, 5005);
        let json = good.to_json();
        let at = json.find("{\"traj\":").expect("an occurrence") + 8;
        let end = at + json[at..].find(',').expect("traj value end");
        let bad_json = format!("{}1000000{}", &json[..at], &json[end..]);
        let mut bad_stc = stmaker_io::write_model_stc(&good);
        let occ_traj = stmaker_io::stc::section_range(&bad_stc, 0x35).expect("occ_traj section");
        bad_stc[occ_traj.start..occ_traj.start + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        for body in [bad_json.into_bytes(), bad_stc] {
            let (status, resp) = request(addr, "POST", "/model", &body);
            assert_eq!(status, 422);
            assert!(body_text(&resp).contains("outside the corpus"), "{}", body_text(&resp));
        }

        // So is a feature-map row with a zero count (its regular value
        // would be infinite), and a feature-map key naming a landmark past
        // the registry, in either encoding.
        let stc = stmaker_io::write_model_stc(&good);
        for (name, body) in poisoned_models(&json, &stc) {
            let (status, resp) = request(addr, "POST", "/model", &body);
            assert_eq!(status, 422, "{name}: {}", body_text(&resp));
            let reason = if name.starts_with("zero") { "zero count" } else { "registry" };
            assert!(body_text(&resp).contains(reason), "{name}: {}", body_text(&resp));
        }
        let (status, body) = request(addr, "GET", "/healthz", b"");
        assert_eq!(status, 200);
        assert!(body_text(&body).contains("\"model_version\": 2"), "{}", body_text(&body));
    });
}

/// Patches a trained model in both encodings: `zero` sets the first
/// numeric feature-map count to 0, `far` moves the last numeric
/// feature-map key's target to landmark 999999 (past any registry; the
/// rows stay sorted).
fn poisoned_models(json: &str, stc: &[u8]) -> [(&'static str, Vec<u8>); 4] {
    let featmap = json.find("\"featmap\"").expect("feature map");
    let at = featmap + json[featmap..].find("\"count\":").expect("a count") + 8;
    let end = at + json[at..].find('}').expect("count value end");
    let zero_json = format!("{}0{}", &json[..at], &json[end..]);
    let categorical = featmap + json[featmap..].find("\"categorical\"").expect("categorical");
    let key = json[..categorical].rfind("[[").expect("a numeric edge key") + 2;
    let to = key + json[key..].find(',').expect("key separator") + 1;
    let to_end = to + json[to..].find(']').expect("key end");
    let far_json = format!("{}999999{}", &json[..to], &json[to_end..]);

    let patch = |tag: u32, from_end: bool, value: &[u8]| {
        let mut bytes = stc.to_vec();
        let s = stmaker_io::stc::section_range(&bytes, tag).expect("section present");
        let at = if from_end { s.end - value.len() } else { s.start };
        bytes[at..at + value.len()].copy_from_slice(value);
        bytes
    };
    [
        ("zero_count.json", zero_json.into_bytes()),
        ("zero_count.stc", patch(0x26, false, &0u64.to_le_bytes())),
        ("far_landmark.json", far_json.into_bytes()),
        ("far_landmark.stc", patch(0x23, true, &999_999u32.to_le_bytes())),
    ]
}

/// Admission control: with one worker wedged and the depth-1 queue
/// occupied, the accept loop answers 429 immediately.
#[test]
fn full_queue_answers_429() {
    let fx = Fixture::new();
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 1,
        io_timeout: Duration::from_secs(2),
        ..ServeConfig::default()
    };
    let server = Server::bind(
        &fx.world.net,
        &fx.world.registry,
        fx.train(20, 1001),
        SummarizerConfig::default(),
        cfg,
    )
    .expect("bind");
    with_running(&server, |addr| {
        // Wedge the only worker: a half-written request holds it in the
        // body read until the io timeout.
        let mut held1 = TcpStream::connect(addr).expect("held1");
        held1.write_all(b"POST /summarize HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").expect("w");
        std::thread::sleep(Duration::from_millis(300));
        // Occupy the single queue slot the same way.
        let mut held2 = TcpStream::connect(addr).expect("held2");
        held2.write_all(b"POST /summarize HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").expect("w");
        std::thread::sleep(Duration::from_millis(300));

        let (status, body) = request(addr, "GET", "/healthz", b"");
        assert_eq!(status, 429, "{}", body_text(&body));
        assert!(body_text(&body).contains("queue"), "{}", body_text(&body));
    });
}

/// `POST /shutdown` drains: the response arrives, `run` returns (the
/// harness scope joins), and the listener stops accepting.
#[test]
fn shutdown_endpoint_drains_cleanly() {
    let fx = Fixture::new();
    let server = Server::bind(
        &fx.world.net,
        &fx.world.registry,
        fx.train(20, 1001),
        SummarizerConfig::default(),
        ServeConfig::default(),
    )
    .expect("bind");
    let mut addr_out = None;
    with_running(&server, |addr| {
        let (status, body) = request(addr, "GET", "/healthz", b"");
        assert_eq!(status, 200, "{}", body_text(&body));
        let (status, body) = request(addr, "POST", "/shutdown", b"");
        assert_eq!(status, 200);
        assert!(body_text(&body).contains("draining"));
        addr_out = Some(addr);
    });
    // The scope joined, so run() returned. The kernel may still complete
    // handshakes against the listen backlog until the Server drops, but
    // nobody serves them: a post-drain request must never get an answer.
    let addr = addr_out.expect("addr");
    std::thread::sleep(Duration::from_millis(50));
    match TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
        Err(_) => {} // listener already gone — even better
        Ok(mut s) => {
            s.set_read_timeout(Some(Duration::from_millis(300))).expect("timeout");
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            let mut buf = Vec::new();
            let got = s.read_to_end(&mut buf);
            assert!(
                got.is_err() || buf.is_empty(),
                "drained server still answered: {:?}",
                String::from_utf8_lossy(&buf)
            );
        }
    }
}

/// `/ingest` sessions: chunked pushes replay deterministically, defective
/// samples are dropped and counted, and `finish=1` returns the same text
/// as a one-shot summarize of the accepted points.
#[test]
fn ingest_session_replays_and_finishes() {
    let fx = Fixture::new();
    let model = fx.train(60, 1001);
    let reference = {
        let summarizer = fx.summarizer(fx.train(60, 1001), SummarizerConfig::default());
        let points: Vec<RawPoint> =
            read_trajectory_csv(&fx.trip_csvs[0]).expect("parses").points().to_vec();
        summarizer.summarize_points(&points).expect("summarizes").text
    };
    let server = Server::bind(
        &fx.world.net,
        &fx.world.registry,
        model,
        SummarizerConfig::default(),
        ServeConfig::default(),
    )
    .expect("bind");
    with_running(&server, |addr| {
        let csv = &fx.trip_csvs[0];
        let lines: Vec<&str> = csv.lines().collect();
        let (header, rows) = (lines[0], &lines[1..]);
        let mid = rows.len() / 2;
        // Chunk 1, plus one defective and one out-of-order row that the
        // stream must drop (not reject).
        let chunk1 = format!("{header}\n{}\n999.0,0.0,12\n{}\n", rows[..mid].join("\n"), rows[0]);
        let (status, body) = request(addr, "POST", "/ingest?session=trip-0", chunk1.as_bytes());
        assert_eq!(status, 200, "{}", body_text(&body));
        let text = body_text(&body);
        assert!(text.contains("\"dropped_invalid\": 1"), "{text}");
        assert!(text.contains("\"dropped_out_of_order\": 1"), "{text}");
        assert!(text.contains("\"finished\": false"), "{text}");

        let chunk2 = format!("{header}\n{}\n", rows[mid..].join("\n"));
        let (status, body) =
            request(addr, "POST", "/ingest?session=trip-0&finish=1", chunk2.as_bytes());
        assert_eq!(status, 200, "{}", body_text(&body));
        let text = body_text(&body);
        assert!(text.contains("\"finished\": true"), "{text}");
        let expected = format!("\"summary\": \"{reference}\"");
        assert!(text.contains(&expected), "final summary must match one-shot:\n{text}");

        // The session is gone: finishing it again is a 404.
        let (status, _) = request(addr, "POST", "/ingest?session=trip-0&finish=1", b"");
        assert_eq!(status, 404);
        // Bad session names are a 400.
        let (status, _) = request(addr, "POST", "/ingest?session=..%2Fetc", b"");
        assert_eq!(status, 400);
    });
}

/// `/metrics` serves the obs report: valid JSON under the schema
/// validator, with the serve.* counters moving.
#[test]
fn metrics_reports_serve_counters() {
    let fx = Fixture::new();
    let obs = Recorder::enabled();
    let server = Server::bind(
        &fx.world.net,
        &fx.world.registry,
        fx.train(20, 1001),
        SummarizerConfig::default().with_recorder(obs.clone()),
        ServeConfig::default(),
    )
    .expect("bind");
    let mut summary_len = 0;
    with_running(&server, |addr| {
        let (status, _) = request(addr, "GET", "/healthz", b"");
        assert_eq!(status, 200);
        let (status, body) = request(addr, "POST", "/summarize", fx.trip_csvs[0].as_bytes());
        assert_eq!(status, 200);
        let (status, body2) = request(addr, "GET", "/metrics", b"");
        assert_eq!(status, 200);
        let json = body_text(&body2);
        let names = stmaker_obs::report::validate_json(&json).expect("metrics validate");
        assert!(names.contains("serve.request"), "{names:?}");
        let report = stmaker_obs::Report::from_json(&json).expect("parses");
        assert!(report.counters.get("serve.requests").copied().unwrap_or(0) >= 2, "{report:?}");
        assert!(report.counters.get("serve.responses_ok").copied().unwrap_or(0) >= 2);
        assert!(report.histograms.contains_key("serve.request_ms"), "latency histogram");
        assert!(report.gauges.contains_key("serve.model_version"));
        summary_len = body.len() as u64;
    });
    // Bytes out and latency are recorded after a response is written, so
    // read them once the drained server has joined its workers: every
    // request is timed.
    let report = obs.report();
    assert!(report.counters.get("serve.bytes_out").copied().unwrap_or(0) > summary_len);
    let timed = report.histograms.get("serve.request_ms").map_or(0, |h| h.count);
    assert_eq!(timed, 3, "latency histogram timed {timed} requests");
}

/// Per-request sanitize override: a defective body is a typed 422 under
/// strict parsing and a 200 under `?sanitize=repair`.
#[test]
fn sanitize_is_per_request() {
    let fx = Fixture::new();
    let server = Server::bind(
        &fx.world.net,
        &fx.world.registry,
        fx.train(60, 1001),
        SummarizerConfig::default(),
        ServeConfig::default(),
    )
    .expect("bind");
    with_running(&server, |addr| {
        // Inject an out-of-range row into an otherwise good trip.
        let csv = &fx.trip_csvs[0];
        let lines: Vec<&str> = csv.lines().collect();
        let defective = format!(
            "{}\n{}\n99.0,0.0,999999\n{}\n",
            lines[0],
            lines[1..4].join("\n"),
            lines[4..].join("\n"),
        );
        let (status, body) = request(addr, "POST", "/summarize", defective.as_bytes());
        assert_eq!(status, 422, "strict default must refuse: {}", body_text(&body));
        let (status, body) =
            request(addr, "POST", "/summarize?sanitize=repair", defective.as_bytes());
        assert_eq!(status, 200, "repair must serve: {}", body_text(&body));
        let (status, _) = request(addr, "POST", "/summarize?sanitize=bogus", b"x");
        assert_eq!(status, 400);
    });
}

/// The STC1 wire surface: `GET /model?format=stc` round-trips to the
/// identical canonical JSON, a binary `POST /model` hot-swaps (sniffed,
/// no format parameter needed), and `?format=stc` trip bodies produce
/// byte-identical summaries to the CSV path.
#[test]
fn stc_wire_surface_is_equivalent() {
    let fx = Fixture::new();
    let model_a_json = fx.train(60, 1001).to_json();
    let model_b = fx.train(8, 5005);
    let cold_b = {
        let summarizer = fx.summarizer(fx.train(8, 5005), SummarizerConfig::default());
        fx.reference_texts(&summarizer)
    };
    let trips: Vec<_> =
        fx.trip_csvs.iter().map(|csv| read_trajectory_csv(csv).expect("fixture parses")).collect();
    let stc_container = write_trips_stc(&trips);
    let single_stc = write_trips_stc(&trips[..1]);

    let server = Server::bind(
        &fx.world.net,
        &fx.world.registry,
        fx.train(60, 1001),
        SummarizerConfig::default(),
        ServeConfig::default(),
    )
    .expect("bind");
    with_running(&server, |addr| {
        // Download both encodings of generation 1's model; they must
        // describe the same model, and the STC bytes must decode to the
        // identical canonical JSON (the byte-identity contract, over HTTP).
        let (status, stc_body) = request(addr, "GET", "/model?format=stc", b"");
        assert_eq!(status, 200);
        assert!(stc_body.starts_with(b"STC1"), "binary download carries the magic");
        let downloaded = read_model_stc(&stc_body).expect("served STC decodes");
        assert_eq!(downloaded.to_json(), model_a_json);
        let (status, json_body) = request(addr, "GET", "/model?format=json", b"");
        assert_eq!(status, 200);
        assert_eq!(body_text(&json_body).trim_end(), model_a_json.trim_end());
        let (status, _) = request(addr, "GET", "/model?format=bogus", b"");
        assert_eq!(status, 400);

        // Summaries from STC bodies are byte-identical to CSV bodies.
        let (status, csv_resp) = request(addr, "POST", "/summarize", fx.trip_csvs[0].as_bytes());
        assert_eq!(status, 200, "{}", body_text(&csv_resp));
        let (status, stc_resp) = request(addr, "POST", "/summarize?format=stc", &single_stc);
        assert_eq!(status, 200, "{}", body_text(&stc_resp));
        assert_eq!(stc_resp, csv_resp);

        // Batch: one line per trip in container order, matching the CSV
        // blank-line batch byte for byte.
        let batch_body: String = fx.trip_csvs.join("\n");
        let (status, csv_batch) = request(addr, "POST", "/summarize_batch", batch_body.as_bytes());
        assert_eq!(status, 200);
        let (status, stc_batch) =
            request(addr, "POST", "/summarize_batch?format=stc", &stc_container);
        assert_eq!(status, 200);
        assert_eq!(stc_batch, csv_batch);

        // A multi-trip container on the single-trip endpoint is typed.
        let (status, body) = request(addr, "POST", "/summarize?format=stc", &stc_container);
        assert_eq!(status, 422);
        assert!(body_text(&body).contains("exactly one"), "{}", body_text(&body));
        // Corrupt container: typed 422, not a hang or a 500. (Cut deep —
        // shaving a byte or two only removes alignment padding, which the
        // reader rightly tolerates.)
        let mut corrupt = single_stc.clone();
        let half = corrupt.len() / 2;
        corrupt.truncate(half);
        let (status, _) = request(addr, "POST", "/summarize?format=stc", &corrupt);
        assert_eq!(status, 422);

        // Binary model hot-swap: magic-sniffed, no query parameter.
        let (status, body) = request(addr, "POST", "/model", &write_model_stc(&model_b));
        assert_eq!(status, 200, "{}", body_text(&body));
        assert!(body_text(&body).contains("\"model_version\": 2"));
        for (csv, expect) in fx.trip_csvs.iter().zip(&cold_b) {
            let (status, body) = request(addr, "POST", "/summarize", csv.as_bytes());
            match expect {
                Some(text) => assert_eq!((status, body_text(&body)), (200, text.clone())),
                None => assert_eq!(status, 422),
            }
        }
        // Corrupt binary model: typed 422, generation unchanged.
        let mut bad_model = write_model_stc(&model_b);
        bad_model.truncate(bad_model.len() / 2);
        let (status, body) = request(addr, "POST", "/model", &bad_model);
        assert_eq!(status, 422, "{}", body_text(&body));
        let (status, body) = request(addr, "GET", "/healthz", b"");
        assert_eq!(status, 200);
        assert!(body_text(&body).contains("\"model_version\": 2"), "{}", body_text(&body));
    });
}

/// Routing edges: unknown path 404, wrong method 405, bad params 400.
#[test]
fn routing_rejects_are_typed() {
    let fx = Fixture::new();
    let server = Server::bind(
        &fx.world.net,
        &fx.world.registry,
        fx.train(20, 1001),
        SummarizerConfig::default(),
        ServeConfig::default(),
    )
    .expect("bind");
    with_running(&server, |addr| {
        let (status, _) = request(addr, "GET", "/nope", b"");
        assert_eq!(status, 404);
        let (status, _) = request(addr, "GET", "/summarize", b"");
        assert_eq!(status, 405);
        let (status, _) = request(addr, "POST", "/healthz", b"");
        assert_eq!(status, 405);
        let (status, _) = request(addr, "POST", "/summarize?k=many", b"x");
        assert_eq!(status, 400);
        let (status, _) = request(addr, "POST", "/ingest", b"");
        assert_eq!(status, 400);
        let (status, body) = request(addr, "POST", "/model", b"not json");
        assert_eq!(status, 422, "{}", body_text(&body));
        // `?format=` is typed on every trip endpoint, and ingest streams
        // text only.
        for path in
            ["/summarize?format=gpx", "/summarize_batch?format=gpx", "/ingest?session=s&format=gpx"]
        {
            let (status, body) = request(addr, "POST", path, b"x");
            assert_eq!(status, 400, "{path}");
            assert!(body_text(&body).contains("csv|jsonl|stc"), "{path}: {}", body_text(&body));
        }
        let (status, body) = request(addr, "POST", "/ingest?session=s&format=stc", b"STC1");
        assert_eq!(status, 400);
        assert!(body_text(&body).contains("csv or jsonl"), "{}", body_text(&body));
    });
}

/// The JSON-lines wire path: `?format=jsonl` bodies summarize to the
/// CLI's bytes, one trip at a time and as a blank-line-separated batch.
#[test]
fn jsonl_wire_path_matches_cli_bytes() {
    let fx = Fixture::new();
    let reference = {
        let summarizer = fx.summarizer(fx.train(60, 1001), SummarizerConfig::default());
        fx.reference_texts(&summarizer)
    };
    let jsonl: Vec<String> = fx
        .trip_csvs
        .iter()
        .map(|csv| write_trajectory_jsonl(&read_trajectory_csv(csv).expect("fixture parses")))
        .collect();
    let server = Server::bind(
        &fx.world.net,
        &fx.world.registry,
        fx.train(60, 1001),
        SummarizerConfig::default(),
        ServeConfig::default(),
    )
    .expect("bind");
    with_running(&server, |addr| {
        for (body, expect) in jsonl.iter().zip(&reference) {
            let (status, got) = request(addr, "POST", "/summarize?format=jsonl", body.as_bytes());
            match expect {
                Some(text) => assert_eq!((status, body_text(&got)), (200, text.clone())),
                None => assert_eq!(status, 422),
            }
        }
        let (status, csv_batch) =
            request(addr, "POST", "/summarize_batch", fx.trip_csvs.join("\n").as_bytes());
        assert_eq!(status, 200);
        let (status, jsonl_batch) =
            request(addr, "POST", "/summarize_batch?format=jsonl", jsonl.join("\n").as_bytes());
        assert_eq!(status, 200);
        assert_eq!(body_text(&jsonl_batch), body_text(&csv_batch));
        for (line, expect) in body_text(&jsonl_batch).lines().zip(&reference) {
            match expect {
                Some(text) => assert_eq!(line, text.trim_end()),
                None => assert!(line.starts_with("error:"), "{line}"),
            }
        }
    });
}

/// A batch trip refused at decode is an inline error line *and* a
/// `batch.summaries_failed` count; a multi-trip container on the
/// single-trip endpoint names the batch endpoint.
#[test]
fn batch_decode_failures_are_counted() {
    let fx = Fixture::new();
    let obs = Recorder::enabled();
    let server = Server::bind(
        &fx.world.net,
        &fx.world.registry,
        fx.train(20, 1001),
        SummarizerConfig::default().with_recorder(obs.clone()),
        ServeConfig::default(),
    )
    .expect("bind");
    let mut errors = 0;
    with_running(&server, |addr| {
        let body = format!("{}\nlat,lon,ts\nnot,a,row\n", fx.trip_csvs[0]);
        let (status, out) = request(addr, "POST", "/summarize_batch", body.as_bytes());
        assert_eq!(status, 200);
        let out = body_text(&out);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert!(lines[1].starts_with("error: line 2"), "{out}");
        errors = lines.iter().filter(|l| l.starts_with("error:")).count() as u64;

        let trips: Vec<_> =
            fx.trip_csvs[..2].iter().map(|c| read_trajectory_csv(c).expect("parses")).collect();
        let (status, body) =
            request(addr, "POST", "/summarize?format=stc", &write_trips_stc(&trips));
        assert_eq!(status, 422);
        assert!(body_text(&body).contains("/summarize_batch"), "{}", body_text(&body));
    });
    let failed = obs.report().counters.get("batch.summaries_failed").copied().unwrap_or(0);
    assert_eq!(failed, errors, "every error line is a counted failure");
}
