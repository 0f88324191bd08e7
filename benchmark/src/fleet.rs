//! The `fleet` workload: a sharded two-island search that checkpoints,
//! exchanges elites and re-reads its round files every few episodes.

use crate::layers::{shares_line, Layers};
use crate::report::{self, RunResult};
use crate::search::{outcome_hash, Repetitions, BATCH, EPISODES, WORKERS};
use crate::setup::{self, SetupTimes, ATTRS};
use muffin::{
    run_sharded, EvalCacheFile, SearchCheckpoint, SearchConfig, SearchFingerprint, SearchOutcome,
    ShardedConfig, Tracer,
};
use muffin_data::DatasetSplit;
use muffin_models::ModelPool;
use muffin_trace::{EventData, TraceLog};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub fn config() -> SearchConfig {
    SearchConfig::fast(&ATTRS)
        .with_episodes(EPISODES)
        .with_reinforce_batch(BATCH)
}

pub fn sharded() -> ShardedConfig {
    ShardedConfig {
        islands: 2,
        exchange_every: 4,
        shards: WORKERS,
        island_workers: 1,
        ..ShardedConfig::default()
    }
}

fn shard_dir(index: u64) -> PathBuf {
    PathBuf::from(format!(
        "{}/fleet-{}-{index}",
        crate::OUT_DIR,
        std::process::id()
    ))
}

/// One fleet run in a fresh shard directory, timed around `run_sharded`
/// alone. The directory is left for the caller to inspect and remove.
fn run_once(
    split: &DatasetSplit,
    pool: &ModelPool,
    fleet_seed: u64,
    dir: &Path,
    tracer: &Tracer,
) -> Result<(SearchOutcome, f64), String> {
    std::fs::remove_dir_all(dir).ok();
    let (pool, split) = (pool.clone(), split.clone());
    let start = Instant::now();
    let outcome = run_sharded(
        pool,
        split,
        config(),
        &sharded(),
        fleet_seed,
        dir,
        false,
        None,
        tracer,
    )
    .map_err(|e| format!("fleet failed: {e}"))?;
    Ok((outcome, start.elapsed().as_secs_f64()))
}

fn inputs(seed: u64) -> Result<((DatasetSplit, ModelPool), SetupTimes), String> {
    let mut times = SetupTimes::default();
    let inputs = setup::inputs(seed, &mut times);
    Ok((inputs, times))
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    if trace {
        traced(seed, &mut out)?;
        return Ok(out);
    }
    let (data, setup_s) = setup::several(|k| inputs(setup::data_seed(seed, k)))?;
    // One fleet per data set, repeated: fleet work is mostly fixed
    // coordination and disk cost, so min-of-N over repeats fits it.
    let reps = Repetitions::measure(seconds, Some(data.len() as u64), |i| {
        let (split, pool) = &data[i as usize % data.len()];
        let dir = shard_dir(i);
        let result = run_once(
            split,
            pool,
            setup::derived_seed(seed, "fleet", i),
            &dir,
            &Tracer::noop(),
        );
        std::fs::remove_dir_all(&dir).ok();
        let (outcome, wall) = result?;
        Ok((outcome_hash(&outcome), outcome.history.len() as u32, wall))
    });
    reps.report(&mut out, "fleet");
    out.push("setup_s", setup_s, "s");
    Ok(out)
}

/// Span intervals (µs) of every span event called `name`.
fn spans(log: &TraceLog, name: &str) -> Vec<(u64, u64)> {
    log.events
        .iter()
        .filter(|e| e.name == name && matches!(e.data, EventData::Span { .. }))
        .map(|e| (e.timing.start_us, e.timing.start_us + e.timing.duration_us))
        .collect()
}

fn counter(log: &TraceLog, name: &str) -> f64 {
    log.events
        .iter()
        .find_map(|e| match (&e.data, e.name == name) {
            (EventData::Counter { value }, true) => Some(*value as f64),
            _ => None,
        })
        .unwrap_or(0.0)
}

fn ratio(hits: f64, misses: f64) -> f64 {
    hits / (hits + misses).max(1.0)
}

fn traced(seed: u64, out: &mut RunResult) -> Result<(), String> {
    let mut layers = Layers::default();
    let ((split, pool), times) = inputs(setup::data_seed(seed, 0))?;
    layers.setup(&times, &pool);
    let fleet_seed = setup::derived_seed(seed, "fleet", 0);
    let dir = shard_dir(0);

    // The first run in a process pays one-off costs (page faults, cold
    // file metadata); warm up so the untraced/traced pair compares alike.
    run_once(&split, &pool, fleet_seed, &dir, &Tracer::noop())?;
    let (plain, untraced_s) = run_once(&split, &pool, fleet_seed, &dir, &Tracer::noop())?;
    let tracer = Tracer::capturing();
    let (outcome, wall_s) = run_once(&split, &pool, fleet_seed, &dir, &tracer)?;
    let log = tracer.finish();
    let episodes = outcome.history.len() as f64;
    out.attempted += outcome.history.len() as u64;
    if outcome_hash(&outcome) != outcome_hash(&plain) {
        out.failed += outcome.history.len() as u64;
        out.check_failures
            .push("traced fleet outcome differs from the untraced one".into());
    }

    // Wall-time decomposition: time inside some island's `search.run`,
    // the rest of the `sharded.run` span, and what lies outside it.
    let run = spans(&log, "sharded.run");
    let [(run_start, run_end)] = run[..] else {
        return Err(format!(
            "expected one sharded.run span, found {}",
            run.len()
        ));
    };
    let search_runs = spans(&log, "search.run");
    let inside_ms = report::covered((0, u64::MAX), &search_runs) as f64 / 1e3;
    let run_ms = (run_end - run_start) as f64 / 1e3;
    let wall_ms = wall_s * 1e3;
    let layer_ms = [
        ("sharded.inside_run_ms", inside_ms.min(run_ms)),
        ("sharded.outside_run_ms", (run_ms - inside_ms).max(0.0)),
    ];
    let values: Vec<f64> = layer_ms.iter().map(|&(_, v)| v).collect();
    let unattributed = report::unattributed(wall_ms, &values);
    if !report::adds_up(wall_ms, &values, unattributed) || unattributed < -1.0 {
        out.check_failures.push(format!(
            "fleet layers {values:?} exceed the traced wall time {wall_ms:.3} ms"
        ));
    }
    for (name, value) in layer_ms {
        layers.set(name, value);
    }
    layers.set("sharded.unattributed_ms", unattributed);

    // Work counted by the program's own spans and counters. Islands run
    // on `shards` threads, so span time counts once per thread.
    let shards = sharded().shards as f64;
    let train: f64 = spans(&log, "fusing.train_head")
        .iter()
        .map(|&(s, e)| (e - s) as f64)
        .sum();
    layers.set("fusing.train_head_ms", train / 1e3 / shards);
    let epochs: f64 = log
        .events
        .iter()
        .filter(|e| e.name == "fusing.train_head")
        .filter_map(|e| match e.field("epochs") {
            Some(muffin_trace::FieldValue::Int { v }) => Some(*v as f64),
            _ => None,
        })
        .sum();
    layers.set("fusing.head_epochs", epochs);
    let eval_us: f64 = log
        .events
        .iter()
        .filter(|e| {
            e.name == "fusing.predict_batch" && matches!(e.data, EventData::Histogram { .. })
        })
        .map(|e| e.timing.duration_us as f64)
        .sum();
    layers.set("fusing.eval_ms", eval_us / 1e3 / shards);
    layers.set(
        "search.cache_hit_ratio",
        ratio(
            counter(&log, "search.cache_hit"),
            counter(&log, "search.cache_miss"),
        ),
    );
    layers.set(
        "body_cache.hit_ratio",
        ratio(
            counter(&log, "fusing.body_cache_hit"),
            counter(&log, "fusing.body_cache_miss"),
        ),
    );
    let writes = counter(&log, "search.checkpoint_write");
    layers.set("checkpoint.writes", writes);
    layers.set("sharded.exchanges", counter(&log, "sharded.elite_exchange"));
    layers.set(
        "sharded.disk_hit_ratio",
        counter(&log, "search.cache_hit_disk") / episodes,
    );

    // Artifact accounting on the files this run left behind.
    let runs = search_runs.len() as f64;
    let artifacts = artifacts(&dir, &split, &pool);
    std::fs::remove_dir_all(&dir).ok();
    let a = artifacts?;
    layers.set("checkpoint.bytes", a.bytes as f64);
    // Each island segment (one `search.run`) builds a fingerprint and
    // reloads a checkpoint and a round cache; each checkpoint write is one
    // save. Islands run `shards` at a time, so wall share is the total
    // divided by `shards`.
    layers.set(
        "checkpoint.load_ms",
        (a.checkpoint_load_ms + a.cache_load_ms) * runs / shards,
    );
    layers.set("checkpoint.save_ms", a.checkpoint_save_ms * writes / shards);
    layers.set("json.fingerprint_ms", a.fingerprint_ms * runs / shards);
    layers.set("trace.wall_ms", wall_ms);
    layers.set(
        "trace.overhead_per_s",
        episodes / untraced_s - episodes / wall_s,
    );
    out.note(format!(
        "fleet: {} artifact files, {} bytes; {} search.run spans, {writes} checkpoint writes; \
         per call: checkpoint load {:.3} ms, cache load {:.3} ms, checkpoint save {:.3} ms, \
         fingerprint {:.3} ms",
        a.files,
        a.bytes,
        search_runs.len(),
        a.checkpoint_load_ms,
        a.cache_load_ms,
        a.checkpoint_save_ms,
        a.fingerprint_ms
    ));
    out.note(format!(
        "untraced fleet {untraced_s:.3} s, traced {wall_s:.3} s; layer shares: {}",
        shares_line(&layer_ms, unattributed, wall_ms)
    ));
    layers.emit(out);
    Ok(())
}

/// Sizes of a fleet's artifacts and the cost of re-reading them.
struct Artifacts {
    files: usize,
    bytes: u64,
    checkpoint_load_ms: f64,
    cache_load_ms: f64,
    checkpoint_save_ms: f64,
    fingerprint_ms: f64,
}

/// Sums the bytes of the shard checkpoints, round caches and elite files
/// in `dir`, and times re-reading them with the program's own loaders.
fn artifacts(dir: &Path, split: &DatasetSplit, pool: &ModelPool) -> Result<Artifacts, String> {
    const REPS: usize = 5;
    let mut files = 0;
    let mut bytes = 0;
    let mut largest_cache: Option<(u64, PathBuf)> = None;
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let counted = (name.starts_with("shard-") && name.ends_with(".ckpt.json"))
            || ((name.starts_with("cache-") || name.starts_with("elites-"))
                && name.ends_with(".json"));
        if counted {
            let len = entry.metadata().map_err(|e| e.to_string())?.len();
            files += 1;
            bytes += len;
            if name.starts_with("cache-") && largest_cache.as_ref().is_none_or(|&(l, _)| len > l) {
                largest_cache = Some((len, entry.path()));
            }
        }
    }
    let ckpt_path = dir.join("shard-0.ckpt.json");
    let text = std::fs::read_to_string(&ckpt_path)
        .map_err(|e| format!("cannot read {}: {e}", ckpt_path.display()))?;
    let ckpt: SearchCheckpoint = muffin_json::from_str(&text).map_err(|e| e.to_string())?;
    let fp = ckpt.fingerprint.clone();
    let checkpoint_load_ms =
        report::median_ms(REPS, || SearchCheckpoint::load(&ckpt_path, &fp).map(|_| ()));
    SearchCheckpoint::load(&ckpt_path, &fp).map_err(|e| e.to_string())?;
    // Islands re-read one round cache per segment; time the largest.
    let cache_path = largest_cache
        .ok_or_else(|| format!("no cache file in {}", dir.display()))?
        .1;
    let cache_load_ms = report::median_ms(REPS, || {
        EvalCacheFile::load_shared(&cache_path, &fp).map(|_| ())
    });
    EvalCacheFile::load_shared(&cache_path, &fp).map_err(|e| e.to_string())?;
    let save_path = dir.join("bench-save.ckpt.json");
    let checkpoint_save_ms = report::median_ms(REPS, || ckpt.save(&save_path));
    std::fs::remove_file(&save_path).ok();
    let fingerprint_ms = report::median_ms(REPS, || {
        SearchFingerprint::new(
            fp.rng_state,
            &fp.config,
            &fp.space,
            &muffin_json::to_string(pool),
            pool.manifest(),
            &muffin_json::to_string(split),
        )
    });
    Ok(Artifacts {
        files,
        bytes,
        checkpoint_load_ms,
        cache_load_ms,
        checkpoint_save_ms,
        fingerprint_ms,
    })
}
