//! Inputs from the seed, engine builds and restarts, and the set-up layer
//! probes (materialization and snapshot I/O).

use crate::spec::Workload;
use crate::stats::SplitMix;
use crate::trace::Tracer;
use datagen::imdb::{ImdbConfig, ImdbData};
use datagen::querylog::{QueryLog, QueryLogConfig};
use irengine::ShardedIndex;
use qunit_core::derive::manual::expert_imdb_qunits;
use qunit_core::{materialize_all, EngineConfig, QunitCatalog, QunitDefinition, QunitSearchEngine};
use std::path::Path;
use std::time::Instant;

/// Builds, restarts, snapshot loads and snapshot saves timed per run; the
/// median of each is reported.
const REPEATS: usize = 3;

/// The corpus is the same for every seed: the seed varies the traffic (the
/// query log, the query order and the arrival times), not the data. With
/// both varying, which entities the Zipf log makes popular changes with the
/// corpus, and one seed's queries answer 30% faster than another's.
const CORPUS_SEED: u64 = 42;

/// Everything a run derives from its seed.
pub struct Inputs {
    pub data: ImdbData,
    pub log: QueryLog,
    pub catalog: QunitCatalog,
    /// The log's unique queries, in a seeded order.
    pub queries: Vec<String>,
}

/// A seed for one input stream of the run.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    SplitMix::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

impl Inputs {
    pub fn generate(w: &Workload, seed: u64) -> Result<Inputs, String> {
        let data = ImdbData::generate(ImdbConfig {
            seed: CORPUS_SEED,
            n_movies: w.movies,
            n_people: w.people,
            ..ImdbConfig::default()
        });
        let log = QueryLog::generate(
            &data,
            QueryLogConfig {
                seed: derive_seed(seed, 1),
                n_queries: w.log_records,
                ..QueryLogConfig::default()
            },
        );
        let catalog = expert_imdb_qunits(&data.db).map_err(|e| format!("catalog: {e}"))?;
        let mut queries: Vec<String> = log.unique_queries().into_iter().map(|(q, _)| q).collect();
        SplitMix::new(derive_seed(seed, 2)).shuffle(&mut queries);
        Ok(Inputs {
            data,
            log,
            catalog,
            queries,
        })
    }
}

/// The engine configuration a workload measures.
pub fn engine_config(w: &Workload) -> EngineConfig {
    let mut config = EngineConfig::default();
    if let Some(capacity) = w.cache_capacity {
        config.cache_capacity = capacity;
    }
    config
}

pub fn build(inputs: &Inputs, config: EngineConfig) -> Result<QunitSearchEngine, String> {
    QunitSearchEngine::build(&inputs.data.db, inputs.catalog.clone(), config)
        .map_err(|e| format!("engine build: {e}"))
}

fn timed_build(
    inputs: &Inputs,
    config: EngineConfig,
    tracer: Option<&Tracer>,
    name: &'static str,
) -> Result<(QunitSearchEngine, f64), String> {
    let span = tracer.map(|t| t.root(name));
    let start = Instant::now();
    let engine = build(inputs, config)?;
    let secs = start.elapsed().as_secs_f64();
    if let (Some(t), Some(span)) = (tracer, span) {
        t.end(span);
    }
    Ok((engine, secs))
}

/// The engines of one run and the set-up times they took.
pub struct Engines {
    /// Cold builds (no snapshot), seconds each.
    pub setup_s: Vec<f64>,
    /// Builds that load the snapshot, seconds each.
    pub restart_s: Vec<f64>,
    /// The last cold build, kept to check the restarted engine against.
    pub cold: QunitSearchEngine,
    /// The last restart: the engine every phase measures.
    pub engine: QunitSearchEngine,
}

/// Build cold `REPEATS` times, write a snapshot with one more build, then
/// restart from it `REPEATS` times. Only one engine of each kind is alive
/// at a time.
pub fn engines(
    inputs: &Inputs,
    w: &Workload,
    snapshot: &Path,
    tracer: Option<&Tracer>,
) -> Result<Engines, String> {
    let config = engine_config(w);
    let mut setup_s = Vec::with_capacity(REPEATS);
    let mut cold = None;
    for _ in 0..REPEATS {
        drop(cold.take());
        let (engine, secs) = timed_build(inputs, config.clone(), tracer, "core.build.cold")?;
        setup_s.push(secs);
        cold = Some(engine);
    }
    let with_snapshot = EngineConfig {
        snapshot_path: Some(snapshot.to_path_buf()),
        ..config
    };
    drop(build(inputs, with_snapshot.clone())?);
    if !snapshot.is_file() {
        return Err(format!("no snapshot written to {}", snapshot.display()));
    }
    let mut restart_s = Vec::with_capacity(REPEATS);
    let mut engine = None;
    for _ in 0..REPEATS {
        drop(engine.take());
        let (e, secs) = timed_build(inputs, with_snapshot.clone(), tracer, "core.build.restart")?;
        restart_s.push(secs);
        engine = Some(e);
    }
    Ok(Engines {
        setup_s,
        restart_s,
        cold: cold.expect("REPEATS > 0"),
        engine: engine.expect("REPEATS > 0"),
    })
}

/// Wall time of `materialize_all` over the whole catalog, fanned over the
/// same workers and chunks as the engine build, plus the instance count.
pub fn materialize(inputs: &Inputs, tracer: Option<&Tracer>) -> Result<(f64, usize), String> {
    let defs: Vec<&QunitDefinition> = inputs.catalog.iter().collect();
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, defs.len().max(1));
    let chunk = defs.len().div_ceil(workers).max(1);
    let db = &inputs.data.db;
    let span = tracer.map(|t| t.root("core.materialize_all"));
    let start = Instant::now();
    let counts: Vec<Result<usize, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = defs
            .chunks(chunk)
            .map(|defs| {
                scope.spawn(move || {
                    defs.iter().try_fold(0usize, |n, def| {
                        materialize_all(db, def)
                            .map(|instances| n + instances.len())
                            .map_err(|e| format!("materialize {}: {e}", def.name))
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("materialize worker panicked"))
            .collect()
    });
    let secs = start.elapsed().as_secs_f64();
    if let (Some(t), Some(span)) = (tracer, span) {
        t.end(span);
    }
    let mut total = 0;
    for count in counts {
        total += count?;
    }
    Ok((secs, total))
}

/// Snapshot I/O timed through `ShardedIndex` directly.
pub struct SnapshotProbe {
    pub load_s: Vec<f64>,
    pub save_s: Vec<f64>,
    pub bytes: u64,
    /// The index as loaded from the snapshot, for the kernel probe.
    pub index: ShardedIndex,
}

pub fn snapshot_probe(
    snapshot: &Path,
    copy: &Path,
    tracer: Option<&Tracer>,
) -> Result<SnapshotProbe, String> {
    let mut load_s = Vec::with_capacity(REPEATS);
    let mut save_s = Vec::with_capacity(REPEATS);
    let mut index = None;
    for _ in 0..REPEATS {
        drop(index.take());
        let span = tracer.map(|t| t.root("ir.load_snapshot"));
        let start = Instant::now();
        let loaded = ShardedIndex::load_snapshot(snapshot).map_err(|e| format!("load: {e}"))?;
        load_s.push(start.elapsed().as_secs_f64());
        if let (Some(t), Some(span)) = (tracer, span) {
            t.end(span);
        }
        index = Some(loaded);
    }
    let index = index.expect("REPEATS > 0");
    for _ in 0..REPEATS {
        let span = tracer.map(|t| t.root("ir.save_snapshot"));
        let start = Instant::now();
        index
            .save_snapshot(copy)
            .map_err(|e| format!("save: {e}"))?;
        save_s.push(start.elapsed().as_secs_f64());
        if let (Some(t), Some(span)) = (tracer, span) {
            t.end(span);
        }
    }
    let bytes = std::fs::metadata(snapshot)
        .map_err(|e| format!("snapshot size: {e}"))?
        .len();
    Ok(SnapshotProbe {
        load_s,
        save_s,
        bytes,
        index,
    })
}
