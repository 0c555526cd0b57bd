//! The uncached closed loop: one client sends the unique queries through
//! `search_uncached`, the next only after the previous answer.
//!
//! An untimed check pass first answers every unique query once. The timed
//! loop then runs in slices, one per round of the run, walking the same
//! queries in the same seeded order.
//!
//! In a traced run every second query is traced: the benchmark brackets the
//! engine call with `shard_stats` reads (the rank fan-out), then times the
//! segmenter, `type_scores` (segment + route) and the unfiltered kernel on
//! the snapshot-loaded index for the same query. The other queries are
//! timed plainly, which gives the tracing overhead.

use crate::check::Expected;
use crate::trace::Tracer;
use irengine::{ScoringFunction, ShardedIndex, ShardedSearcher};
use qunit_core::{QunitResult, QunitSearchEngine};
use qunit_eval::SystemAnswer;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Results per query, as a user asks for them.
pub const K: usize = 10;

/// The engine's IR fetch depth for `K` (`max(10·k, 50)`), so the kernel
/// probe scores as deep as the engine's rank phase does.
pub const FETCH: usize = if 10 * K > 50 { 10 * K } else { 50 };

/// Entries the cache probe holds: the engine's default cache capacity.
pub const CACHE_FILL: usize = 1024;

/// What the check pass kept.
pub struct CheckPass {
    /// Top answer per unique query, for answer quality.
    pub tops: HashMap<String, Option<SystemAnswer>>,
    /// The first `CACHE_FILL` answers, for the cache probe.
    pub cache_fill: Vec<(String, Vec<QunitResult>)>,
}

/// Answer every query once: check it against the expected answer, or set
/// the expected answer where there is none yet.
pub fn check_pass(
    engine: &QunitSearchEngine,
    queries: &[String],
    expected: &mut Expected,
) -> CheckPass {
    let mut pass = CheckPass {
        tops: HashMap::with_capacity(queries.len()),
        cache_fill: Vec::with_capacity(CACHE_FILL),
    };
    for query in queries {
        let results = engine.search_uncached(query, K);
        if expected.contains(query) {
            expected.check(query, &results);
        } else {
            expected.insert(query, &results);
        }
        pass.tops.insert(
            query.clone(),
            results.first().map(|top| SystemAnswer {
                text: top.text.clone(),
                covered_fields: top.fields.clone(),
            }),
        );
        if pass.cache_fill.len() < CACHE_FILL {
            pass.cache_fill.push((query.clone(), results));
        }
    }
    pass
}

/// One traced query, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct LayerSample {
    pub total: u64,
    pub segment: u64,
    pub type_scores: u64,
    /// Sum of the per-shard scoring time the query added.
    pub rank: u64,
    /// The slowest shard's share of it.
    pub rank_slowest: u64,
    pub kernel: u64,
}

/// The layer probes a traced run adds.
pub struct Probes<'a> {
    pub tracer: &'a Tracer,
    pub kernel_index: &'a ShardedIndex,
}

/// One slice of the timed loop.
#[derive(Default)]
pub struct Slice {
    /// Plainly timed queries, in microseconds.
    pub latencies_us: Vec<f64>,
    pub layers: Vec<LayerSample>,
}

pub struct Loop<'a> {
    engine: &'a QunitSearchEngine,
    queries: &'a [String],
    probes: Option<(&'a Probes<'a>, ShardedSearcher<'a>)>,
    next: usize,
}

impl<'a> Loop<'a> {
    pub fn new(
        engine: &'a QunitSearchEngine,
        queries: &'a [String],
        probes: Option<&'a Probes<'a>>,
    ) -> Self {
        Loop {
            engine,
            queries,
            probes: probes.map(|p| {
                let searcher = ShardedSearcher::new(p.kernel_index, ScoringFunction::default());
                (p, searcher)
            }),
            next: 0,
        }
    }

    /// Send queries for `budget`, continuing the walk where the last slice
    /// stopped; compare each answer with `expected` when given.
    pub fn slice(&mut self, budget: Duration, expected: Option<&Expected>) -> Slice {
        let mut slice = Slice::default();
        let start = Instant::now();
        while start.elapsed() < budget {
            let i = self.next;
            self.next += 1;
            let query = self.queries[i % self.queries.len()].as_str();
            let results = match &self.probes {
                Some((p, searcher)) if i % 2 == 1 => {
                    let (results, sample) = traced_query(self.engine, query, p, searcher);
                    slice.layers.push(sample);
                    results
                }
                _ => {
                    let t = Instant::now();
                    let results = self.engine.search_uncached(query, K);
                    slice.latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
                    results
                }
            };
            if let Some(expected) = expected {
                expected.check(query, &results);
            }
        }
        slice
    }

    /// Queries sent so far.
    pub fn sent(&self) -> u64 {
        self.next as u64
    }
}

fn traced_query(
    engine: &QunitSearchEngine,
    query: &str,
    p: &Probes,
    searcher: &ShardedSearcher,
) -> (Vec<QunitResult>, LayerSample) {
    let t = p.tracer;
    let root = t.root("query.uncached");
    let before = engine.shard_stats().per_shard_nanos;
    let span = t.child(&root, "core.search_uncached");
    let results = engine.search_uncached(query, K);
    let total = t.end(span);
    let after = engine.shard_stats().per_shard_nanos;
    let per_shard = after.iter().zip(&before).map(|(a, b)| a - b);
    let rank = per_shard.clone().sum();
    let rank_slowest = per_shard.max().unwrap_or(0);

    let span = t.child(&root, "core.segment");
    black_box(engine.segmenter().segment(query));
    let segment = t.end(span);

    let span = t.child(&root, "core.type_scores");
    black_box(engine.type_scores(query));
    let type_scores = t.end(span);

    let terms = p.kernel_index.analyzer().tokenize(query);
    let span = t.child(&root, "ir.search_terms");
    black_box(searcher.search_terms(&terms, FETCH));
    let kernel = t.end(span);
    t.end(root);
    (
        results,
        LayerSample {
            total,
            segment,
            type_scores,
            rank,
            rank_slowest,
            kernel,
        },
    )
}
