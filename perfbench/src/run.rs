//! One run of one workload: set up, measure, check, and collect metrics.

use crate::check::Expected;
use crate::served::{self, OpenLoop, Plan, Traffic};
use crate::setup::{self, Inputs, SnapshotProbe};
use crate::spec::Workload;
use crate::stats::{mean, median, p99, share};
use crate::trace::Tracer;
use crate::uncached::{self, LayerSample, Probes, Slice, CACHE_FILL, FETCH, K};
use irengine::{
    DispatchPolicy, ExecutorStats, ScoringFunction, ScratchPool, SearchContext, ShardedIndex,
    ShardedSearcher,
};
use qunit_core::{CacheStats, EngineConfig, QueryCache, QunitResult, QunitSearchEngine};
use qunit_eval::{GoldStandard, Oracle, SystemAnswer};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Queries checked between the cold-built and the restarted engine.
const RESTART_SAMPLE: usize = 128;
/// Recent queries looked up again after serving to check cached answers.
const CACHED_SAMPLE: usize = 256;
/// Clicks a traced run times when its traffic sends none.
const CLICK_PROBE: usize = 64;
/// Lookups per cached entry in the cache probe.
const CACHE_PROBE_ROUNDS: usize = 16;
/// Rounds of the timed part of a run. Each round runs an uncached slice
/// and a served slice, so that a slow spell of the host (neighbours on a
/// shared machine take the CPU for seconds at a time) hits both alike.
const ROUNDS: usize = 6;
/// Rounds whose samples each timed metric uses (see [`quiet`]).
const QUIET_ROUNDS: usize = ROUNDS / 2;
/// The open loop of a traced run lasts this share of `--seconds`.
const OPEN_LOOP_SHARE: f64 = 0.75;
/// Open-loop replays per fixed rate.
const SEGMENTS: usize = 3;
/// Open-loop bisection steps.
const BISECTIONS: usize = 5;
/// Share of the open loop spent at the two fixed rates; the rest goes to
/// the bisection.
const FIXED_SHARE: f64 = 0.6;

pub struct Args {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The run's scratch directory under `out/`, removed when the run ends.
struct RunDir(PathBuf);

impl RunDir {
    fn create(out: &Path) -> Result<RunDir, String> {
        let dir = out.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Failed operations the engine counted: answers degraded to empty or
/// partial, and contained internal errors.
fn engine_failures(engine: &QunitSearchEngine) -> u64 {
    let o = engine.obs_snapshot();
    o.degraded_to_empty + o.degraded_results + o.internal_errors
}

/// The engine's public counters, read at a phase boundary.
#[derive(Clone, Copy)]
struct Counters {
    cache: CacheStats,
    /// `(inline, dispatched)` rank passes.
    dispatch: (u64, u64),
    exec: ExecutorStats,
    /// Scoring time summed over shards.
    rank_nanos: u64,
}

impl Counters {
    fn read(engine: &QunitSearchEngine) -> Self {
        Counters {
            cache: engine.cache_stats(),
            dispatch: engine.dispatch_counts(),
            exec: engine.executor_stats(),
            rank_nanos: engine.shard_stats().per_shard_nanos.iter().sum(),
        }
    }
}

/// Executor work added by the uncached slices.
#[derive(Default)]
struct SliceWork {
    inline: u64,
    dispatched: u64,
    queue_wait_nanos: u64,
    rank_nanos: u64,
}

impl SliceWork {
    fn add(&mut self, before: &Counters, after: &Counters) {
        self.inline += after.dispatch.0 - before.dispatch.0;
        self.dispatched += after.dispatch.1 - before.dispatch.1;
        self.queue_wait_nanos += after.exec.queue_wait_nanos - before.exec.queue_wait_nanos;
        self.rank_nanos += after.rank_nanos - before.rank_nanos;
    }
}

/// One round of the timed part.
struct Round {
    uncached: Slice,
    /// Closed-loop latencies through the served path, in microseconds.
    served_us: Vec<f64>,
}

/// What the timed rounds measured.
struct Timed {
    /// Plainly timed uncached latencies, per round.
    uncached_us: Vec<Vec<f64>>,
    /// Closed-loop latencies through the served path, per round.
    served_us: Vec<Vec<f64>>,
    /// Traced queries of every round.
    layers: Vec<LayerSample>,
    work: SliceWork,
    /// Counters around the warm-up and the rounds.
    before_warmup: Counters,
    before_rounds: Counters,
    after_rounds: Counters,
}

impl Timed {
    fn new(rounds: Vec<Round>, work: SliceWork, counters: [Counters; 3]) -> Self {
        let mut timed = Timed {
            uncached_us: Vec::with_capacity(rounds.len()),
            served_us: Vec::with_capacity(rounds.len()),
            layers: Vec::new(),
            work,
            before_warmup: counters[0],
            before_rounds: counters[1],
            after_rounds: counters[2],
        };
        for r in rounds {
            timed.uncached_us.push(r.uncached.latencies_us);
            timed.layers.extend(r.uncached.layers);
            timed.served_us.push(r.served_us);
        }
        timed
    }
}

/// `stat` over the samples pooled from the `QUIET_ROUNDS` rounds whose own
/// samples give the lowest `stat`: the rounds the host disturbed least, as
/// that statistic sees them.
fn quiet(per_round: &[Vec<f64>], stat: impl Fn(&mut [f64]) -> f64) -> f64 {
    let mut order: Vec<(f64, usize)> = per_round
        .iter()
        .enumerate()
        .filter(|(_, samples)| !samples.is_empty())
        .map(|(i, samples)| (stat(&mut samples.clone()), i))
        .collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut pooled: Vec<f64> = order
        .iter()
        .take(QUIET_ROUNDS)
        .flat_map(|&(_, i)| per_round[i].iter().copied())
        .collect();
    stat(&mut pooled)
}

pub fn run(w: &Workload, args: &Args, out: &Path) -> Result<Outcome, String> {
    let dir = RunDir::create(out)?;
    let tracer = args.trace.then(Tracer::new);
    let tracer = tracer.as_ref();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let inputs = Inputs::generate(w, args.seed)?;
    let snapshot = dir.0.join("index.qsnap");
    let setup::Engines {
        setup_s,
        restart_s,
        cold,
        engine,
    } = setup::engines(&inputs, w, &snapshot, tracer)?;
    let config = setup::engine_config(w);
    eprintln!(
        "perfbench: workload {} seed {}: {} instances, {} postings, {} log records, {} unique queries",
        w.name,
        args.seed,
        engine.num_instances(),
        engine.num_postings(),
        inputs.log.records.len(),
        inputs.queries.len()
    );
    eprintln!(
        "perfbench: resolved config: {} shards, executor pool {}, codec {}, block size {}, cache {}, {} open-loop sender threads, {cores} cores",
        engine.num_shards(),
        engine.executor_pool_size(),
        if engine.postings_compressed() { "delta-varint" } else { "flat" },
        config.block_size,
        config.cache_capacity,
        cores.min(2),
    );

    let mut expected = Expected::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // The restart must serve exactly what the cold build serves.
    if engine.index_fingerprint() != cold.index_fingerprint()
        || engine.num_instances() != cold.num_instances()
    {
        expected.fail("restarted index differs from the cold-built one");
    }
    for query in inputs.queries.iter().take(RESTART_SAMPLE) {
        expected.insert(query, &cold.search_uncached(query, K));
        attempted += 1;
    }
    failed += engine_failures(&cold);
    drop(cold);

    // The expected answers, top answers and cache-probe fill come from one
    // untimed pass at feedback generation 0. On `uncached_typed` that pass
    // runs on a 1-shard engine (answers are shard-count invariant), so every
    // answer the timed loop gets is checked against it.
    let reference = match w.one_shard_reference {
        true => Some(setup::build(
            &inputs,
            EngineConfig {
                search_shards: 1,
                ..config.clone()
            },
        )?),
        false => None,
    };
    let pass = uncached::check_pass(
        reference.as_ref().unwrap_or(&engine),
        &inputs.queries,
        &mut expected,
    );
    attempted += inputs.queries.len() as u64;
    if let Some(one) = reference {
        failed += engine_failures(&one);
    }

    // Set-up layer probes, traced runs only.
    let setup_probes = match tracer {
        Some(t) => {
            let (materialize_s, materialized) = setup::materialize(&inputs, Some(t))?;
            if materialized != engine.num_instances() {
                expected.fail("materialize_all count differs from the engine's instances");
            }
            let probe = setup::snapshot_probe(&snapshot, &dir.0.join("copy.qsnap"), Some(t))?;
            if probe.index.fingerprint() != engine.index_fingerprint() {
                expected.fail("snapshot-loaded index differs from the engine's");
            }
            Some((materialize_s, probe))
        }
        None => None,
    };

    // Warm-up: one client replays the first log records, which fills the
    // cache and gives counts that repeat exactly. Without clicks every answer
    // from here on must equal the expected one.
    let unchanged = w.click_every.is_none().then_some(&expected);
    let traffic = Traffic::new(&engine, &inputs.log, w.click_every, unchanged, tracer);
    let before_warmup = Counters::read(&engine);
    traffic.replay(w.warmup_records);
    let before_rounds = Counters::read(&engine);

    // The timed rounds: an uncached slice, then a closed-loop slice of the
    // log through the served path.
    let probes = match (tracer, &setup_probes) {
        (Some(tracer), Some((_, probe))) => Some(Probes {
            tracer,
            kernel_index: &probe.index,
        }),
        _ => None,
    };
    let mut uncached = uncached::Loop::new(&engine, &inputs.queries, probes.as_ref());
    let round_secs = args.seconds as f64 / ROUNDS as f64;
    let uncached_budget = Duration::from_secs_f64(round_secs * w.uncached_share);
    let served_budget = Duration::from_secs_f64(round_secs * (1.0 - w.uncached_share));
    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut work = SliceWork::default();
    for _ in 0..ROUNDS {
        let before = Counters::read(&engine);
        let slice = uncached.slice(uncached_budget, unchanged);
        work.add(&before, &Counters::read(&engine));
        rounds.push(Round {
            uncached: slice,
            served_us: traffic.replay_for(served_budget),
        });
    }
    let timed = Timed::new(
        rounds,
        work,
        [before_warmup, before_rounds, Counters::read(&engine)],
    );
    attempted += uncached.sent();

    // The open loop, traced runs only.
    let open = tracer.map(|_| {
        let secs = args.seconds as f64 * OPEN_LOOP_SHARE;
        let plan = Plan {
            rates: w.served_rates,
            segments: SEGMENTS,
            segment_secs: secs * FIXED_SHARE / (2 * SEGMENTS) as f64,
            bisections: BISECTIONS,
            // About half the steps fail once and replay again.
            probe_secs: secs * (1.0 - FIXED_SHARE) / (1.5 * BISECTIONS as f64),
            ceiling: w.qps_ceiling,
            limit: w.latency_limit,
            senders: cores.min(2),
            seed: setup::derive_seed(args.seed, 3),
        };
        let open = served::open_loop(&traffic, &plan);
        for (rate, ok, p99) in &open.replays {
            eprintln!(
                "perfbench: open loop at {rate:.0} qps: p99 {p99:.0} us, {}",
                if *ok { "sustained" } else { "not sustained" }
            );
        }
        open
    });

    if config.cache_capacity > 0 {
        let (sent, hits) = served::check_cached(&traffic, CACHED_SAMPLE, &expected);
        attempted += sent;
        if hits == 0 {
            expected.fail("no cached answer to check after serving");
        }
    }
    let mut clicks_us = traffic.clicks_us.lock().expect("click lock").clone();
    attempted += traffic.sent() + clicks_us.len() as u64;
    failed += traffic.errors.load(std::sync::atomic::Ordering::Relaxed);

    let metrics = match (tracer, setup_probes, open) {
        (Some(t), Some((materialize_s, probe)), Some(open)) => {
            if clicks_us.is_empty() {
                attempted += click_probe(&engine, &inputs.queries, t, &mut clicks_us);
            }
            let mut metrics = vec![
                metric("materialize.s", materialize_s, "s"),
                metric(
                    "index_build.s",
                    median(&mut setup_s.clone()) - materialize_s,
                    "s",
                ),
            ];
            metrics.extend(layer_metrics(
                &engine,
                &inputs.queries,
                &timed,
                &open,
                &pass.cache_fill,
                &probe,
                &mut clicks_us,
                traffic.clicks(),
                &expected,
            )?);
            let file = out.join(format!("trace-{}-seed{}.jsonl", w.name, args.seed));
            t.write_jsonl(&file)
                .map_err(|e| format!("write {}: {e}", file.display()))?;
            eprintln!("perfbench: {} spans written to {}", t.len(), file.display());
            metrics
        }
        _ => end_to_end_metrics(&engine, &setup_s, &restart_s, &timed, &pass, &inputs),
    };
    failed += engine_failures(&engine);
    eprintln!(
        "perfbench: {} answers checked, {} mismatches; {} of {} operations failed",
        expected.checked(),
        expected.mismatches(),
        failed,
        attempted
    );
    Ok(Outcome {
        correct: expected.mismatches() == 0,
        attempted,
        failed,
        metrics,
    })
}

fn end_to_end_metrics(
    engine: &QunitSearchEngine,
    setup_s: &[f64],
    restart_s: &[f64],
    timed: &Timed,
    pass: &uncached::CheckPass,
    inputs: &Inputs,
) -> Vec<Metric> {
    vec![
        metric("setup_s", median(&mut setup_s.to_vec()), "s"),
        metric("restart_s", median(&mut restart_s.to_vec()), "s"),
        metric(
            "index_bytes_per_posting",
            engine.posting_store_bytes() as f64 / engine.num_postings() as f64,
            "B",
        ),
        metric("uncached_p50_us", quiet(&timed.uncached_us, median), "us"),
        metric("uncached_p99_us", quiet(&timed.uncached_us, p99), "us"),
        metric("uncached_qps", 1e6 / quiet(&timed.uncached_us, mean), "1/s"),
        metric("served_mean_us", quiet(&timed.served_us, mean), "us"),
        metric("served_p99_us", quiet(&timed.served_us, p99), "us"),
        metric(
            "answer_quality",
            answer_quality(inputs, &pass.tops),
            "score",
        ),
    ]
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    engine: &QunitSearchEngine,
    queries: &[String],
    timed: &Timed,
    open: &OpenLoop,
    cache_fill: &[(String, Vec<QunitResult>)],
    probe: &SnapshotProbe,
    clicks_us: &mut [f64],
    invalidations: u64,
    expected: &Expected,
) -> Result<Vec<Metric>, String> {
    if timed.layers.is_empty() {
        return Err("the traced loop traced no query".into());
    }
    let col = |f: &dyn Fn(&LayerSample) -> f64| -> f64 {
        median(&mut timed.layers.iter().map(f).collect::<Vec<f64>>()) / 1e3
    };
    let total = col(&|s| s.total as f64);
    let segment = col(&|s| s.segment as f64);
    let route = col(&|s| s.type_scores as f64 - s.segment as f64);
    let rank = col(&|s| s.rank as f64);
    let slowest = col(&|s| s.rank_slowest as f64);
    let kernel = col(&|s| s.kernel as f64);
    let rerank = col(&|s| s.total as f64 - s.type_scores as f64 - s.rank as f64);
    let (postings, skipped, scored) = kernel_work(&probe.index, queries);
    let n = queries.len() as f64;
    let warmup = (timed.before_warmup, timed.before_rounds);
    let serving = (timed.before_rounds, timed.after_rounds);
    let work = &timed.work;
    let lookups = |c: &CacheStats| c.hits + c.misses;
    let end = Counters::read(engine).exec;
    Ok(vec![
        metric("snapshot.save_s", median(&mut probe.save_s.clone()), "s"),
        metric("snapshot.load_s", median(&mut probe.load_s.clone()), "s"),
        metric("snapshot.bytes", probe.bytes as f64, "B"),
        metric("segment.us", segment, "us"),
        metric("route.us", route, "us"),
        metric("rank.us", rank, "us"),
        metric("rank.slowest_shard_us", slowest, "us"),
        metric("rank.filter_overhead_us", rank - kernel, "us"),
        metric("kernel.us", kernel, "us"),
        metric("kernel.postings", postings as f64 / n, "count"),
        metric("kernel.blocks_skipped", skipped as f64 / n, "count"),
        metric("kernel.blocks_scored", scored as f64 / n, "count"),
        metric("rerank.us", rerank, "us"),
        metric(
            "cache.hit_rate",
            share(
                serving.1.cache.hits - serving.0.cache.hits,
                lookups(&serving.1.cache) - lookups(&serving.0.cache),
            ),
            "ratio",
        ),
        metric("cache.hit_us", cache_hit_us(cache_fill, expected), "us"),
        metric(
            "warmup.cache_hits",
            (warmup.1.cache.hits - warmup.0.cache.hits) as f64,
            "count",
        ),
        metric(
            "warmup.cache_misses",
            (warmup.1.cache.misses - warmup.0.cache.misses) as f64,
            "count",
        ),
        metric(
            "warmup.inline",
            (warmup.1.dispatch.0 - warmup.0.dispatch.0) as f64,
            "count",
        ),
        metric(
            "warmup.dispatched",
            (warmup.1.dispatch.1 - warmup.0.dispatch.1) as f64,
            "count",
        ),
        metric("click.us", median(clicks_us), "us"),
        metric("cache.invalidations", invalidations as f64, "count"),
        metric(
            "exec.dispatched_share",
            share(work.dispatched, work.inline + work.dispatched),
            "ratio",
        ),
        metric(
            "exec.queue_wait_share",
            share(work.queue_wait_nanos, work.rank_nanos),
            "ratio",
        ),
        metric("exec.max_queue_depth", end.max_queue_depth as f64, "count"),
        metric("exec.overflowed", end.overflowed as f64, "count"),
        metric("open_loop.mean_us", mean(&mut open.fixed_us.clone()), "us"),
        metric("open_loop.p99_us", p99(&mut open.fixed_us.clone()), "us"),
        metric("open_loop.sustainable_qps", open.sustainable_qps, "1/s"),
        metric("open_loop.lag_p99_us", p99(&mut open.lags_us.clone()), "us"),
        metric(
            "trace.overhead",
            total / median(&mut timed.uncached_us.concat()) - 1.0,
            "ratio",
        ),
    ])
}

/// Time `record_click` on the top answer of the first queries; returns the
/// operations sent.
fn click_probe(
    engine: &QunitSearchEngine,
    queries: &[String],
    tracer: &Tracer,
    clicks_us: &mut Vec<f64>,
) -> u64 {
    let mut sent = 0;
    for query in queries.iter().take(CLICK_PROBE) {
        sent += 1;
        if let Some(top) = engine.search(query, K).into_iter().next() {
            let root = tracer.root("probe.click");
            let start = Instant::now();
            engine.record_click(query, &top.key);
            clicks_us.push(start.elapsed().as_secs_f64() * 1e6);
            tracer.end(root);
            sent += 1;
        }
    }
    sent
}

/// Mean oracle quality of the top answer over the log records that carry a
/// gold information need.
fn answer_quality(inputs: &Inputs, tops: &HashMap<String, Option<SystemAnswer>>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for record in &inputs.log.records {
        if let Some(need) = &record.need {
            let gold = GoldStandard {
                need: *need,
                entities: record.entities.clone(),
            };
            let top = tops.get(&record.raw).and_then(|t| t.as_ref());
            sum += Oracle::quality(&gold, top);
            n += 1;
        }
    }
    sum / n.max(1) as f64
}

/// Kernel work over every unique query at the engine's fetch depth, read
/// from the scratch buffers of a benchmark-owned pool: postings visited,
/// blocks skipped and blocks scored.
fn kernel_work(index: &ShardedIndex, queries: &[String]) -> (u64, u64, u64) {
    let pool = ScratchPool::new();
    let ctx = SearchContext {
        pool: Some(&pool),
        policy: DispatchPolicy::force_inline(),
        ..SearchContext::default()
    };
    let searcher = ShardedSearcher::new(index, ScoringFunction::default());
    for query in queries {
        let terms = index.analyzer().tokenize(query);
        std::hint::black_box(
            searcher
                .try_search_terms_where_ctx(&terms, FETCH, None, &ctx)
                .map(|o| o.hits.len())
                .unwrap_or(0),
        );
    }
    // Drain the pool: a fresh scratch (all counters 0) means it is empty.
    let mut totals = (0, 0, 0);
    loop {
        let s = pool.take();
        let work = (s.postings_visited(), s.blocks_skipped(), s.blocks_scored());
        if work == (0, 0, 0) {
            return totals;
        }
        totals = (totals.0 + work.0, totals.1 + work.1, totals.2 + work.2);
    }
}

/// Median time of a `QueryCache::get` hit, on a cache holding as many of
/// this run's answer lists as the engine caches by default. The capacity
/// is doubled so that no shard of the cache evicts.
fn cache_hit_us(fill: &[(String, Vec<QunitResult>)], expected: &Expected) -> f64 {
    let cache: QueryCache<Vec<QunitResult>> = QueryCache::new(2 * CACHE_FILL);
    for (query, results) in fill {
        cache.insert(query.clone(), K, 0, results.clone());
    }
    let mut samples = Vec::with_capacity(fill.len() * CACHE_PROBE_ROUNDS);
    for _ in 0..CACHE_PROBE_ROUNDS {
        for (query, results) in fill {
            let start = Instant::now();
            let hit = cache.get(query, K, 0);
            samples.push(start.elapsed().as_secs_f64() * 1e6);
            if hit.as_ref() != Some(results) {
                expected.fail("cache probe lookup missed or returned another answer");
                return 0.0;
            }
        }
    }
    median(&mut samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_pools_the_least_disturbed_rounds() {
        let rounds = vec![
            vec![1.0, 1.0],
            vec![9.0, 9.0],
            vec![],
            vec![2.0, 2.0],
            vec![8.0],
            vec![3.0],
            vec![7.0],
        ];
        assert_eq!(quiet(&rounds, median), 2.0);
        assert_eq!(quiet(&rounds, mean), 9.0 / 5.0);
    }
}
