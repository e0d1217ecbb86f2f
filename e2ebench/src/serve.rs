//! `serve-hub`: short hub-to-hub trips POSTed to `stmaker-cli serve`
//! processes, in timed batch requests and in an open loop at a fixed rate
//! with one new connection per request.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

use serde_json::Value;
use stmaker::{Summarizer, SummarizerConfig};
use stmaker_io::{read_model_stc, read_trajectory_csv, write_trajectory_csv};

use crate::digest::Fnv;
use crate::http;
use crate::inputs;
use crate::openloop::{self, PhaseStats};
use crate::procfs::{cpu_seconds, peak_rss_mb};
use crate::stats::median;
use crate::trace::{self, now, Tracer};
use crate::workload::{fastest, setup_round, Inputs, Outcome, RunOpts, PASS_THREADS};

/// Route-cache capacity of the server, above the distinct pair count of
/// any workload so that repeated pairs hit.
pub const ROUTE_CACHE: usize = 4096;
/// Load-generator threads, each with at most one open connection.
const CLIENTS: usize = 2;

/// Open-loop rate, requests per second.
const RATE: f64 = 1000.0;

/// The measured phase runs in this many equal segments, each a round of
/// server set-ups, then a fresh server taking batch requests and then the
/// open loop, so that each samples the whole phase.
const SEGMENTS: usize = 10;
/// Trips per timed `POST /summarize_batch` request: a few milliseconds of
/// server work.
pub const BATCH_TRIPS: usize = 20;

/// A running `stmaker-cli serve` process. Dropping it kills the process if
/// it is still running and waits for it.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    log: Option<JoinHandle<String>>,
}

impl Server {
    /// Starts the server on an ephemeral port over the files in `dir` and
    /// waits for its first `200` from `/healthz`; returns it with the
    /// seconds that took.
    pub fn start(cli: &Path, dir: &Path) -> Result<(Server, f64), String> {
        let t0 = now();
        let mut child = Command::new(cli)
            .arg("serve")
            .arg("--dir")
            .arg(dir)
            .args(["--addr", "127.0.0.1:0", "--workers", "2", "--model"])
            .arg(dir.join("model.stc"))
            .args(["--route-cache", &ROUTE_CACHE.to_string()])
            // One summarizer thread per batch request, as in the other
            // timed passes: with two, the fastest batch request moved by
            // 13.7% between runs against 5.6% with one.
            .env("STMAKER_THREADS", PASS_THREADS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cli.display()))?;
        let stderr = child.stderr.take().ok_or("server stderr is not piped")?;
        let (tx, rx) = mpsc::channel();
        // Reads the bound address off the server's log, then keeps
        // draining it so the server never blocks on a full pipe.
        let log = std::thread::spawn(move || {
            let mut log = String::new();
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("serving on http://").nth(1) {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_owned();
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr);
                    }
                }
                log.push_str(&line);
                log.push('\n');
            }
            log
        });
        let mut server =
            Server { child, addr: SocketAddr::from(([127, 0, 0, 1], 0)), log: Some(log) };
        let addr =
            rx.recv_timeout(Duration::from_secs(120)).map_err(|_| server.fail("no address"))?;
        server.addr = addr.parse().map_err(|_| server.fail(&format!("bad address {addr:?}")))?;
        loop {
            match http::request(server.addr, "GET", "/healthz", b"") {
                Ok(r) if r.status == 200 => break,
                _ if t0.elapsed() > Duration::from_secs(120) => {
                    return Err(server.fail("no /healthz"))
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        Ok((server, t0.elapsed().as_secs_f64()))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Kills the process and returns an error carrying its log.
    fn fail(&mut self, what: &str) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let log = self.log.take().and_then(|h| h.join().ok()).unwrap_or_default();
        format!("server failed to start ({what}): {}", log.trim())
    }

    /// Drains the server through `POST /shutdown` and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let _ = http::request(self.addr, "POST", "/shutdown", b"");
        let deadline = now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if now() < deadline => std::thread::sleep(Duration::from_millis(5)),
                _ => return Err("server did not drain within 30 s".to_owned()),
            }
        }
        if let Some(h) = self.log.take() {
            let _ = h.join();
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.log.take() {
            let _ = h.join();
        }
    }
}

/// What the server must answer for one body: the CLI's summary line, or
/// `None` where summarizing fails and the server must answer `422`.
pub fn expected_reply(s: &Summarizer<'_>, body: &[u8]) -> Option<Vec<u8>> {
    let text = std::str::from_utf8(body).ok()?;
    let traj = read_trajectory_csv(text).ok()?;
    s.summarize_points(traj.points()).ok().map(|sum| format!("{}\n", sum.text).into_bytes())
}

/// Whether a reply matches what was expected.
pub fn reply_ok(reply: &std::io::Result<http::Reply>, want: &Option<Vec<u8>>) -> bool {
    match (reply, want) {
        (Ok(r), Some(text)) => r.status == 200 && r.body == *text,
        (Ok(r), None) => r.status == 422,
        (Err(_), _) => false,
    }
}

/// The request bodies: one CSV trip each.
pub fn bodies(inp: &Inputs) -> Vec<Vec<u8>> {
    inp.trips.iter().map(|t| write_trajectory_csv(t).into_bytes()).collect()
}

/// Reads one counter from a `/metrics` report.
pub fn counter(metrics: &Value, name: &str) -> f64 {
    metrics["counters"][name].as_f64().unwrap_or(0.0)
}

/// Sends request `i` (body `i mod n`) and checks its reply; in traced runs
/// records a `server.request` span with its `server.connect` child.
fn send_checked(
    addr: SocketAddr,
    bodies: &[Vec<u8>],
    expected: &[Option<Vec<u8>>],
    i: usize,
    tr: &mut Tracer,
) -> bool {
    let n = bodies.len();
    let id = i as u64; // cast-ok: request index
    let t0 = tr.is_enabled().then(now);
    let open = tr.begin("server.request", id);
    let reply = http::request(addr, "POST", "/summarize", &bodies[i % n]);
    if let (Some(t0), Ok(r)) = (t0, &reply) {
        tr.record("server.connect", id, t0, r.connected);
    }
    tr.end(open);
    reply_ok(&reply, &expected[i % n])
}

/// One `POST /summarize_batch` body: the CSV bodies as blank-line
/// separated blocks.
pub fn batch_body(bodies: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for b in bodies {
        out.extend_from_slice(b);
        if !b.ends_with(b"\n") {
            out.push(b'\n');
        }
        out.push(b'\n');
    }
    out
}

/// Lines of a `/summarize_batch` reply that differ from what was expected
/// (a summary, or any error line where the reference fails), plus missing
/// or extra lines; a failed request counts every trip.
pub fn batch_mismatches(reply: &std::io::Result<http::Reply>, want: &[Option<Vec<u8>>]) -> u64 {
    let Some(r) = reply.as_ref().ok().filter(|r| r.status == 200) else {
        return want.len() as u64; // cast-ok: trip count
    };
    let body = r.body.strip_suffix(b"\n").unwrap_or(&r.body);
    let lines: Vec<&[u8]> = body.split(|c| *c == b'\n').collect();
    let differ = lines
        .iter()
        .zip(want)
        .filter(|(line, w)| match w {
            Some(text) => text.strip_suffix(b"\n") != Some(**line),
            None => !line.starts_with(b"error: "),
        })
        .count();
    (differ + lines.len().abs_diff(want.len())) as u64 // cast-ok: line count
}

/// The diagnostic `trip_ms` is the server's time per trip on
/// `POST /summarize_batch` requests of [`BATCH_TRIPS`] trips each, the sum
/// of each request's fastest repeat divided by the trips.
///
/// Why not the open loop's median latency, which the open loop still
/// reports: on the 2-vCPU host it is set by thread wake-ups as much as by
/// work, and wake-up cost follows the load of other tenants for minutes at
/// a time. Over eight runs its inter-quartile spread was 14.5%, and even
/// each body's fastest request moved by 19%, while three server processes
/// measured side by side agreed within 1.5%. A batch request costs
/// milliseconds of parse, queue, route-cache and summary work, and its
/// fastest repeat is as steady as the `batch-dense` units.
pub fn run(inp: &Inputs, opts: &RunOpts) -> Result<Outcome, String> {
    let rate = if opts.scale.smoke { 100.0 } else { RATE };
    let bodies = bodies(inp);
    let model = read_model_stc(&inp.model_stc).map_err(|e| e.to_string())?;
    let reference = inputs::summarizer(&inp.world, model, SummarizerConfig::default())?;
    let expected: Vec<Option<Vec<u8>>> =
        bodies.iter().map(|b| expected_reply(&reference, b)).collect();
    let mut o = Outcome::default();
    let mut digest = Fnv::default();
    for e in &expected {
        digest.update(e.as_deref().unwrap_or(b"422\n"));
    }
    o.digest = digest.finish();

    let mut tr = if opts.traced { Tracer::enabled(now()) } else { Tracer::disabled() };
    let mut clients: Vec<Tracer> = (0..CLIENTS).map(|_| tr.sibling()).collect();
    let half = Duration::from_secs_f64(opts.seconds / (2 * SEGMENTS) as f64); // cast-ok: small count
    let batches: Vec<Vec<u8>> = bodies.chunks(BATCH_TRIPS).map(batch_body).collect();
    let mut best_ms = vec![f64::INFINITY; batches.len()];
    let (mut setup_s, mut samples, mut cpu, mut peak) = (vec![], vec![], 0.0, 0.0f64);
    let (mut batch_passes, mut rejected) = (0u32, 0.0);
    for _ in 0..SEGMENTS {
        // Set-up: spawn until the first 200 from /healthz. Each server
        // drains before the next starts, so set-ups never overlap.
        setup_round(&mut setup_s, || {
            let (s, secs) = Server::start(&opts.cli, &opts.work_dir)?;
            s.stop().map(|()| secs)
        })?;
        // A fresh server per segment, as each workload measures several
        // processes (see `workload::PROCESSES`). Half the segment goes to
        // batch requests, whose first pass fills the route cache; the
        // other half to the open loop.
        let (server, _) = Server::start(&opts.cli, &opts.work_dir)?;
        let (addr, pid) = (server.addr, server.pid());
        let b0 = now();
        loop {
            let (attempted, failed) = batch_pass(addr, &batches, &expected, &mut best_ms, &mut tr);
            o.attempted += attempted;
            o.failed += failed;
            batch_passes += 1;
            if b0.elapsed() >= half {
                break;
            }
        }
        let send = |i: usize, tr: &mut Tracer| send_checked(addr, &bodies, &expected, i, tr);
        let c0 = cpu_seconds(Some(pid)).map_err(|e| e.to_string())?;
        samples.extend(openloop::run(rate, half, &mut clients, send));
        cpu += cpu_seconds(Some(pid)).map_err(|e| e.to_string())? - c0;
        peak = peak.max(peak_rss_mb(Some(pid)).map_err(|e| e.to_string())?);
        let report = http::request(addr, "GET", "/metrics", b"")
            .ok()
            .and_then(|r| serde_json::from_str::<Value>(&String::from_utf8_lossy(&r.body)).ok())
            .unwrap_or_default();
        rejected += counter(&report, "serve.rejected_busy")
            + counter(&report, "serve.rejected_unavailable");
        server.stop()?;
    }
    let st = openloop::summarize(&samples);
    let trips = bodies.len() as f64; // cast-ok: trip count
    o.metrics.insert("setup_s".into(), median(&setup_s));
    o.metrics.insert("peak_rss_mb".into(), peak);
    o.diagnostics.insert("trip_ms".into(), best_ms.iter().sum::<f64>() / trips);
    let per_trip = cpu * 1e6 / st.sent.max(1) as f64; // cast-ok: count
    o.diagnostics.insert("cpu_us_per_trip".into(), per_trip);
    o.diagnostics.insert("setup_s_fastest".into(), fastest(&setup_s));
    o.diagnostics.insert("batch_passes".into(), f64::from(batch_passes));
    o.diagnostics.insert("rejected".into(), rejected);
    let busy = cpu / (half.as_secs_f64() * SEGMENTS as f64); // cast-ok: small count
    phase_diagnostics(&mut o, &format!("r{rate}"), &st, busy);
    o.attempted += st.sent as u64; // cast-ok: count
    o.failed += st.failed as u64; // cast-ok: count
    for c in clients {
        tr.absorb(c);
    }
    o.spans = trace::summary_json(tr.spans());
    Ok(o)
}

/// One pass of timed `POST /summarize_batch` requests, one per entry of
/// `batches`: keeps each request's fastest time in `best_ms` and returns
/// the trips attempted and failed.
fn batch_pass(
    addr: SocketAddr,
    batches: &[Vec<u8>],
    expected: &[Option<Vec<u8>>],
    best_ms: &mut [f64],
    tr: &mut Tracer,
) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    let wants = expected.chunks(BATCH_TRIPS);
    for (k, ((body, want), best)) in batches.iter().zip(wants).zip(best_ms).enumerate() {
        let id = k as u64; // cast-ok: request index
        let t0 = now();
        let reply =
            tr.span("server.batch", id, || http::request(addr, "POST", "/summarize_batch", body));
        *best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        attempted += want.len() as u64; // cast-ok: trip count
        failed += batch_mismatches(&reply, want);
    }
    (attempted, failed)
}

fn phase_diagnostics(o: &mut Outcome, label: &str, st: &PhaseStats, busy: f64) {
    let d = &mut o.diagnostics;
    d.insert(format!("req_ms_p50.{label}"), st.p50_ms);
    d.insert(format!("req_ms_p90.{label}"), st.p90_ms);
    d.insert(format!("req_ms_p99.{label}"), st.p99_ms);
    d.insert(format!("req_ms_p999.{label}"), st.p999_ms);
    d.insert(format!("requests.{label}"), st.sent as f64); // cast-ok: count
    d.insert(format!("gen_late_ms_p99.{label}"), st.late_p99_ms);
    d.insert(format!("cpu_busy_share.{label}"), busy);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(status: u16, body: &str) -> std::io::Result<http::Reply> {
        Ok(http::Reply { status, body: body.as_bytes().to_vec(), connected: now() })
    }

    #[test]
    fn batch_bodies_are_blank_line_separated_blocks() {
        let b = batch_body(&[b"a,b\n1,2\n".to_vec(), b"a,b\n3,4".to_vec()]);
        assert_eq!(b, b"a,b\n1,2\n\na,b\n3,4\n\n");
    }

    #[test]
    fn batch_replies_are_checked_line_by_line() {
        let want = [Some(b"first\n".to_vec()), None, Some(b"third\n".to_vec())];
        assert_eq!(batch_mismatches(&reply(200, "first\nerror: bad\nthird\n"), &want), 0);
        // A wrong summary, a summary where an error is due, a missing line.
        assert_eq!(batch_mismatches(&reply(200, "frist\nerror: bad\nthird\n"), &want), 1);
        assert_eq!(batch_mismatches(&reply(200, "first\nsecond\nthird\n"), &want), 1);
        assert_eq!(batch_mismatches(&reply(200, "first\nerror: bad\n"), &want), 1);
        // A refused or failed request fails every trip in it.
        assert_eq!(batch_mismatches(&reply(429, ""), &want), 3);
        let refused = Err(std::io::Error::other("connection refused"));
        assert_eq!(batch_mismatches(&refused, &want), 3);
    }
}
