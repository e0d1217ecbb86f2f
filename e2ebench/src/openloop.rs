//! Open-loop load generation: requests are due on a fixed schedule whether
//! or not earlier ones finished, and each is timed from when it was due, so
//! a stall shows up in the latency of every request it delayed.

use std::time::Duration;

use crate::stats::{percentile_sorted, sorted};
use crate::trace::now;

/// One scheduled request. Times are nanoseconds since the phase started.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub due_ns: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ok: bool,
}

impl Sample {
    /// Latency as a user sees it: from when the request was due to when
    /// its response was complete.
    pub fn latency_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.due_ns) as f64 / 1e6 // cast-ok: ns span
    }

    /// How late the generator sent it.
    pub fn late_ms(&self) -> f64 {
        self.start_ns.saturating_sub(self.due_ns) as f64 / 1e6 // cast-ok: ns span
    }
}

/// Summary of one fixed-rate phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStats {
    pub sent: usize,
    pub failed: usize,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
    pub p999_ms: f64,
    pub late_p99_ms: f64,
}

/// Percentiles over every request; a failed request counts as missing any
/// latency limit, so it enters as infinitely slow.
pub fn summarize(samples: &[Sample]) -> PhaseStats {
    let lat: Vec<f64> =
        samples.iter().map(|s| if s.ok { s.latency_ms() } else { f64::INFINITY }).collect();
    let lat = sorted(&lat);
    let late = sorted(&samples.iter().map(Sample::late_ms).collect::<Vec<_>>());
    PhaseStats {
        sent: samples.len(),
        failed: samples.iter().filter(|s| !s.ok).count(),
        p50_ms: percentile_sorted(&lat, 0.5),
        p90_ms: percentile_sorted(&lat, 0.9),
        p99_ms: percentile_sorted(&lat, 0.99),
        p999_ms: percentile_sorted(&lat, 0.999),
        late_p99_ms: percentile_sorted(&late, 0.99),
    }
}

/// Runs `duration` of requests due every `1 / rate` seconds, spread
/// round-robin over one thread per entry of `clients`.
/// `send(i, client)` performs request `i` and reports whether it
/// succeeded; each thread owns its client state, so the hot path takes no
/// lock. Samples come back in due order.
pub fn run<C, F>(rate: f64, duration: Duration, clients: &mut [C], send: F) -> Vec<Sample>
where
    C: Send,
    F: Fn(usize, &mut C) -> bool + Sync,
{
    let n = clients.len().max(1);
    let interval_ns = 1e9 / rate;
    let limit_ns = duration.as_nanos() as f64; // cast-ok: run lengths are seconds
    let t0 = now();
    let mut out: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, state)| {
                let send = &send;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    for i in (c..).step_by(n) {
                        let due_ns = i as f64 * interval_ns; // cast-ok: request index
                        if due_ns >= limit_ns {
                            break;
                        }
                        let due = t0 + Duration::from_nanos(due_ns as u64); // cast-ok: ns
                        let current = now();
                        if due > current {
                            std::thread::sleep(due - current);
                        }
                        let start = t0.elapsed();
                        let ok = send(i, state);
                        let end = t0.elapsed();
                        mine.push(Sample {
                            due_ns: due_ns as u64,             // cast-ok: ns
                            start_ns: start.as_nanos() as u64, // cast-ok: run lengths are seconds
                            end_ns: end.as_nanos() as u64,     // cast-ok: run lengths are seconds
                            ok,
                        });
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load-generator thread panicked"))
            .collect()
    });
    out.sort_by_key(|s| s.due_ns);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time() {
        let s = Sample { due_ns: 1_000_000, start_ns: 4_000_000, end_ns: 5_000_000, ok: true };
        assert_eq!(s.latency_ms(), 4.0, "the 3 ms the generator ran late is part of latency");
        assert_eq!(s.late_ms(), 3.0);
        let early = Sample { due_ns: 2_000_000, start_ns: 2_000_000, end_ns: 2_500_000, ok: true };
        assert_eq!(early.late_ms(), 0.0);
        assert_eq!(early.latency_ms(), 0.5);
    }

    #[test]
    fn failed_requests_count_as_infinitely_slow() {
        let ok = |i: u64| Sample { due_ns: i, start_ns: i, end_ns: i + 1_000_000, ok: true };
        let mut v: Vec<Sample> = (0..9).map(ok).collect();
        v.push(Sample { ok: false, ..ok(9) });
        let st = summarize(&v);
        assert_eq!((st.sent, st.failed), (10, 1));
        assert_eq!(st.p50_ms, 1.0);
        assert!(st.p99_ms.is_infinite());
    }

    #[test]
    fn a_stall_delays_the_requests_due_behind_it() {
        // One client at 1000/s: request 0 stalls 20 ms, so requests 1..=19
        // start late and their latency includes the wait.
        let mut clients = [()];
        let samples = run(1000.0, Duration::from_millis(30), &mut clients, |i, _| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
            true
        });
        assert_eq!(samples.len(), 30, "one request per due slot");
        let s1 = samples[1];
        assert!(s1.late_ms() >= 18.0, "request 1 was sent late: {}", s1.late_ms());
        assert!(s1.latency_ms() >= 19.0, "latency counts from due: {}", s1.latency_ms());
        assert!(summarize(&samples).late_p99_ms >= 18.0);
    }
}
