//! Served traffic: log records sent through `try_search_partial`, with a
//! click on the top result after every n-th search where the workload asks
//! for clicks. Every replay walks the log in issue order, continuing where
//! the previous one stopped and wrapping at the end, so that replays do not
//! re-send one prefix the cache already holds.
//!
//! A closed-loop replay has one client that sends the next record only
//! after the previous answer. An open-loop replay (traced runs only) fires
//! Poisson arrivals from `QueryLog::open_loop_schedule` at fixed rates,
//! then bisects for the highest rate that meets the latency limit. Its
//! latency runs from each request's *scheduled* arrival to its answer, so a
//! stall also delays every request queued behind it; how late the senders
//! fired is recorded separately as generator lag.

use crate::check::Expected;
use crate::stats::{median, windowed};
use crate::trace::Tracer;
use crate::uncached::K;
use datagen::querylog::QueryLog;
use qunit_core::QunitSearchEngine;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Traffic shared by every replay of a run.
pub struct Traffic<'a> {
    engine: &'a QunitSearchEngine,
    log: &'a QueryLog,
    /// The next log record to send.
    next_record: AtomicUsize,
    click_every: Option<usize>,
    /// Answers to compare with; `None` when clicks change the answers.
    expected: Option<&'a Expected>,
    tracer: Option<&'a Tracer>,
    /// Searches sent so far; positions the clicks.
    searches: AtomicU64,
    /// Searches that returned an error.
    pub errors: AtomicU64,
    /// Time of each `record_click`, in microseconds.
    pub clicks_us: Mutex<Vec<f64>>,
}

impl<'a> Traffic<'a> {
    pub fn new(
        engine: &'a QunitSearchEngine,
        log: &'a QueryLog,
        click_every: Option<usize>,
        expected: Option<&'a Expected>,
        tracer: Option<&'a Tracer>,
    ) -> Self {
        Traffic {
            engine,
            log,
            next_record: AtomicUsize::new(0),
            click_every,
            expected,
            tracer,
            searches: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            clicks_us: Mutex::new(Vec::new()),
        }
    }

    /// Searches sent so far.
    pub fn sent(&self) -> u64 {
        self.searches.load(Ordering::Relaxed)
    }

    pub fn clicks(&self) -> u64 {
        self.clicks_us.lock().expect("click lock").len() as u64
    }

    /// One search, then a click on its top result when one is due.
    fn send(&self, query: &str) {
        let n = self.searches.fetch_add(1, Ordering::Relaxed) + 1;
        let root = self.tracer.map(|t| t.root("query.served"));
        let span = match (self.tracer, &root) {
            (Some(t), Some(root)) => Some(t.child(root, "core.try_search_partial")),
            _ => None,
        };
        let response = self.engine.try_search_partial(query, K);
        if let (Some(t), Some(span)) = (self.tracer, span) {
            t.end(span);
        }
        let top = match response {
            Ok(response) => {
                if let Some(expected) = self.expected {
                    expected.check(query, &response.results);
                }
                response.results.into_iter().next().map(|r| r.key)
            }
            Err(e) => {
                if self.errors.fetch_add(1, Ordering::Relaxed) < 3 {
                    eprintln!("perfbench: search {query:?} failed: {e}");
                }
                None
            }
        };
        if let (Some(every), Some(top)) = (self.click_every, top) {
            if n.is_multiple_of(every as u64) {
                let span = match (self.tracer, &root) {
                    (Some(t), Some(root)) => Some(t.child(root, "core.record_click")),
                    _ => None,
                };
                let start = Instant::now();
                self.engine.record_click(query, &top);
                let us = start.elapsed().as_secs_f64() * 1e6;
                if let (Some(t), Some(span)) = (self.tracer, span) {
                    t.end(span);
                }
                self.clicks_us.lock().expect("click lock").push(us);
            }
        }
        if let (Some(t), Some(root)) = (self.tracer, root) {
            t.end(root);
        }
    }

    /// The query of the `i`-th log record, wrapping at the end of the log.
    fn record(&self, i: usize) -> &'a str {
        &self.log.records[i % self.log.records.len()].raw
    }

    /// Claim the next `n` log records; returns the first one's position.
    fn claim(&self, n: usize) -> usize {
        self.next_record.fetch_add(n, Ordering::Relaxed)
    }

    /// The last `n` queries sent, most recent first.
    pub fn recent(&self, n: usize) -> impl Iterator<Item = &'a str> + '_ {
        let end = self.next_record.load(Ordering::Relaxed);
        (end.saturating_sub(n)..end).rev().map(|i| self.record(i))
    }

    /// Closed loop: send the next `n` records, one after the other.
    pub fn replay(&self, n: usize) {
        let first = self.claim(n);
        for i in first..first + n {
            self.send(self.record(i));
        }
    }

    /// Closed loop for `budget`; returns each request's latency in
    /// microseconds.
    pub fn replay_for(&self, budget: Duration) -> Vec<f64> {
        let mut latencies = Vec::new();
        let start = Instant::now();
        while start.elapsed() < budget {
            let query = self.record(self.claim(1));
            let t = Instant::now();
            self.send(query);
            latencies.push(t.elapsed().as_secs_f64() * 1e6);
        }
        latencies
    }

    /// Open loop with `senders` threads: request `i` is due `dues[i]` after
    /// the start and sends the next record.
    pub fn open_loop(&self, dues: &[Duration], senders: usize) -> Point {
        let first = self.claim(dues.len());
        let cursor = AtomicUsize::new(0);
        let start = Instant::now();
        let mut latencies = Vec::with_capacity(dues.len());
        let mut lags_us = Vec::with_capacity(dues.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..senders)
                .map(|_| {
                    scope.spawn(|| {
                        let mut latencies = Vec::new();
                        let mut lags = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(due) = dues.get(i) else { break };
                            let query = self.record(first + i);
                            let now = start.elapsed();
                            if *due > now {
                                std::thread::sleep(*due - now);
                            }
                            lags.push(start.elapsed().saturating_sub(*due).as_secs_f64() * 1e6);
                            self.send(query);
                            let latency = start.elapsed().saturating_sub(*due);
                            latencies.push((*due, latency.as_secs_f64() * 1e6));
                        }
                        (latencies, lags)
                    })
                })
                .collect();
            for h in handles {
                let (mine, lags) = h.join().expect("sender thread panicked");
                latencies.extend(mine);
                lags_us.extend(lags);
            }
        });
        latencies.sort_by_key(|(due, _)| *due);
        Point {
            span: start.elapsed(),
            scheduled: dues.last().copied().unwrap_or_default(),
            latencies_us: latencies.into_iter().map(|(_, us)| us).collect(),
            lags_us,
        }
    }
}

/// One open-loop replay.
pub struct Point {
    /// Until the last answer.
    pub span: Duration,
    /// The last scheduled arrival.
    pub scheduled: Duration,
    /// In scheduled order.
    pub latencies_us: Vec<f64>,
    pub lags_us: Vec<f64>,
}

impl Point {
    /// The median of the per-window p99s.
    pub fn p99_us(&self) -> f64 {
        median(&mut windowed(&self.latencies_us, 0.99))
    }

    /// Kept up: the p99 meets `limit` and the replay ended within 5% (plus
    /// 50 ms of scheduling slack) of its timetable, so no backlog grew.
    pub fn sustained(&self, limit: Duration) -> bool {
        self.p99_us() <= limit.as_secs_f64() * 1e6
            && self.span.as_secs_f64() <= self.scheduled.as_secs_f64() * 1.05 + 0.05
    }
}

/// The open-loop plan: `segments` replays at each of two fixed rates, the
/// rates alternating, then `bisections` log-scale steps between the higher
/// fixed rate and `ceiling`. A step fails only when two replays in a row
/// miss the limit.
pub struct Plan {
    pub rates: [f64; 2],
    pub segments: usize,
    pub segment_secs: f64,
    pub bisections: usize,
    pub probe_secs: f64,
    pub ceiling: f64,
    pub limit: Duration,
    pub senders: usize,
    pub seed: u64,
}

/// What the open loop measured.
pub struct OpenLoop {
    /// Latencies at the fixed rates, in microseconds.
    pub fixed_us: Vec<f64>,
    /// Generator lag at the fixed rates, in microseconds.
    pub lags_us: Vec<f64>,
    /// The highest rate any replay sustained.
    pub sustainable_qps: f64,
    /// Every replay: its rate, whether it was sustained, and its p99.
    pub replays: Vec<(f64, bool, f64)>,
    /// Requests sent.
    pub sent: u64,
}

pub fn open_loop(traffic: &Traffic, plan: &Plan) -> OpenLoop {
    let mut out = OpenLoop {
        fixed_us: Vec::new(),
        lags_us: Vec::new(),
        sustainable_qps: 0.0,
        replays: Vec::new(),
        sent: 0,
    };
    let replay = |rate: f64, secs: f64, out: &mut OpenLoop| {
        let arrivals = ((rate * secs) as usize).max(1);
        let seed = plan.seed ^ out.replays.len() as u64;
        let dues: Vec<Duration> = traffic
            .log
            .open_loop_schedule(rate, arrivals, seed)
            .into_iter()
            .map(|(due, _)| due)
            .collect();
        let p = traffic.open_loop(&dues, plan.senders);
        let ok = p.sustained(plan.limit);
        if ok {
            out.sustainable_qps = out.sustainable_qps.max(rate);
        }
        out.replays.push((rate, ok, p.p99_us()));
        out.sent += arrivals as u64;
        (ok, p)
    };
    for _ in 0..plan.segments {
        for rate in plan.rates {
            let (_, p) = replay(rate, plan.segment_secs, &mut out);
            out.fixed_us.extend(p.latencies_us);
            out.lags_us.extend(p.lags_us);
        }
    }
    let (mut lo, mut hi) = (plan.rates[1], plan.ceiling);
    for _ in 0..plan.bisections {
        let mid = (lo * hi).sqrt();
        if replay(mid, plan.probe_secs, &mut out).0 || replay(mid, plan.probe_secs, &mut out).0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    out
}

/// After serving: for the distinct queries among the last `recent` sent,
/// a cached answer must equal `search_uncached` at the same feedback
/// generation. Returns the searches sent and how many lookups hit.
pub fn check_cached(traffic: &Traffic, recent: usize, expected: &Expected) -> (u64, u64) {
    let engine = traffic.engine;
    let (mut sent, mut hits) = (0, 0);
    let mut seen = std::collections::HashSet::new();
    for query in traffic.recent(recent) {
        if !seen.insert(query) {
            continue;
        }
        let generation = engine.feedback().generation();
        let before = engine.cache_stats().hits;
        sent += 1;
        let cached = match engine.try_search_partial(query, K) {
            Ok(response) => response.results,
            Err(e) => {
                expected.fail(&format!("cached search {query:?} failed: {e}"));
                continue;
            }
        };
        if engine.cache_stats().hits == before {
            continue;
        }
        hits += 1;
        sent += 1;
        let uncached = engine.search_uncached(query, K);
        if engine.feedback().generation() != generation
            || !crate::check::same(&cached, &crate::check::ranked(&uncached))
        {
            expected.fail(&format!(
                "cached answer for {query:?} differs from uncached"
            ));
        }
    }
    (sent, hits)
}
