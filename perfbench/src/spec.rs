//! The workloads: corpus size, engine configuration and traffic shape.
//!
//! Every workload reports every metric, so each one runs the same phases
//! (set-up, warm-up, timed rounds of uncached and served traffic, and in a
//! traced run the open loop). What differs is the corpus, the engine
//! configuration, whether clicks are sent, and how a round is split. The
//! README gives the reason each workload exists.

use std::time::Duration;

/// One workload's fixed parameters. Only the seed varies between runs.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// IMDb generator size.
    pub movies: usize,
    pub people: usize,
    /// Records in the Zipf query log; the uncached slices send its unique
    /// queries, the served slices its records in issue order.
    pub log_records: usize,
    /// `Some(n)` overrides `EngineConfig::cache_capacity`; `None` keeps the
    /// default.
    pub cache_capacity: Option<usize>,
    /// Send `record_click(query, top result)` after every n-th served search.
    pub click_every: Option<usize>,
    /// Share of each timed round spent in the uncached slice; the rest goes
    /// to the served slice.
    pub uncached_share: f64,
    /// Log records one client replays before the timed rounds: warms the
    /// cache and yields cache and dispatch counts that repeat exactly.
    pub warmup_records: usize,
    /// Fixed open-loop arrival rates (queries per second), at about a
    /// quarter and two fifths of the workload's sustainable rate with two
    /// senders on a 2-core machine.
    pub served_rates: [f64; 2],
    /// Latency limit on the open-loop p99 for `open_loop.sustainable_qps`.
    pub latency_limit: Duration,
    /// Upper end of the open-loop bisection.
    pub qps_ceiling: f64,
    /// Check every answer against an engine built on one shard.
    pub one_shard_reference: bool,
}

pub static WORKLOADS: &[Workload] = &[
    Workload {
        name: "uncached_typed",
        movies: 2_000,
        people: 4_000,
        log_records: 20_000,
        cache_capacity: Some(0),
        click_every: None,
        uncached_share: 0.75,
        warmup_records: 1_000,
        served_rates: [450.0, 700.0],
        latency_limit: Duration::from_millis(20),
        qps_ceiling: 2_600.0,
        one_shard_reference: true,
    },
    Workload {
        name: "served_clicks",
        movies: 2_000,
        people: 4_000,
        log_records: 20_000,
        cache_capacity: None,
        click_every: Some(1_000),
        uncached_share: 0.25,
        warmup_records: 3_000,
        served_rates: [600.0, 900.0],
        latency_limit: Duration::from_millis(20),
        qps_ceiling: 3_600.0,
        one_shard_reference: false,
    },
    Workload {
        name: "large_cold_start",
        movies: 8_000,
        people: 16_000,
        log_records: 3_000,
        cache_capacity: None,
        click_every: None,
        uncached_share: 0.75,
        warmup_records: 500,
        served_rates: [250.0, 375.0],
        latency_limit: Duration::from_millis(50),
        qps_ceiling: 1_600.0,
        one_shard_reference: false,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
