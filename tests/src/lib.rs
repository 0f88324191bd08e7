//! Shared helpers for the cross-crate integration tests of the Muffin
//! workspace. The tests themselves live in this package's `tests/`
//! directory.

use muffin::{
    random_search, run_sharded, MuffinError, MuffinSearch, PersistenceOptions, SearchConfig,
    SearchOutcome, SearchSpace, ShardedConfig, Tracer, WorkerPool,
};
use muffin_data::{DatasetSplit, IsicLike};
use muffin_models::{Architecture, BackboneConfig, ModelPool};
use muffin_nn::Activation;
use muffin_tensor::Rng64;
use std::path::{Path, PathBuf};

/// Builds a small, deterministic ISIC-like split plus a three-model pool —
/// the shared fixture most integration tests start from.
pub fn small_fixture(seed: u64) -> (DatasetSplit, ModelPool, Rng64) {
    let mut rng = Rng64::seed(seed);
    let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
    let pool = ModelPool::train(
        &split.train,
        &[
            Architecture::resnet18(),
            Architecture::densenet121(),
            Architecture::shufflenet_v2_x1_0(),
        ],
        &BackboneConfig::fast(),
        &mut rng,
    );
    (split, pool, rng)
}

/// Seed of the golden-snapshot recipe. Everything about the recipe is
/// frozen: changing any part of it invalidates the committed snapshot.
pub const GOLDEN_SEED: u64 = 20230717;

/// The frozen search the golden snapshot captures: the `small_fixture`
/// pool, two target attributes, 8 episodes with a REINFORCE batch of 3
/// (so the snapshot also pins batched-update and partial-batch behaviour).
pub fn golden_search() -> (MuffinSearch, Rng64) {
    let (split, pool, rng) = small_fixture(GOLDEN_SEED);
    let config = SearchConfig::fast(&["age", "site"])
        .with_episodes(8)
        .with_reinforce_batch(3);
    let search = MuffinSearch::new(pool, split, config).expect("golden recipe is valid");
    (search, rng)
}

/// Runs the golden recipe on `workers` and serialises the outcome exactly
/// as [`SearchOutcome::save_json`] would write it.
pub fn golden_outcome_json(workers: &WorkerPool) -> String {
    let (search, rng) = golden_search();
    let outcome: SearchOutcome = search
        .run_with_pool(&mut rng.clone(), workers)
        .expect("golden search runs");
    muffin_json::to_string(&outcome)
}

/// Path of the committed golden snapshot
/// (`tests/golden/search_outcome.json` from the repository root).
pub fn golden_snapshot_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join("search_outcome.json")
}

/// The stripped trace logs of the golden recipe, as committed at
/// `tests/golden/search_trace.json`: one object holding the serial
/// REINFORCE run's log under `"search"` and the log of [`random_search`]
/// on the same recipe under `"random_search"`. The second covers the
/// uncached candidate path (train a head, then evaluate it).
pub fn golden_trace_json() -> String {
    let (search, rng) = golden_search();
    let search = search.with_tracer(Tracer::capturing());
    search
        .run_with_pool(&mut rng.clone(), &WorkerPool::serial())
        .expect("golden search runs");
    let reinforce = search.tracer().finish().stripped();

    let (search, rng) = golden_search();
    let search = search.with_tracer(Tracer::capturing());
    random_search(&search, &mut rng.clone()).expect("golden random search runs");
    let random = search.tracer().finish().stripped();

    format!(
        "{{\"search\":{},\"random_search\":{}}}",
        reinforce.to_json_string(),
        random.to_json_string()
    )
}

/// Path of the committed golden trace snapshot
/// (`tests/golden/search_trace.json` from the repository root).
pub fn golden_trace_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join("search_trace.json")
}

/// Runs the golden recipe **interrupted**: the first run halts (with a
/// checkpoint) at the first batch boundary at or past `halt_after`, a
/// second run resumes from that checkpoint, and the resumed outcome is
/// serialised exactly as [`SearchOutcome::save_json`] would write it.
///
/// `tag` keeps concurrent tests' checkpoint files apart.
pub fn golden_outcome_json_resumed(workers: &WorkerPool, halt_after: u32, tag: &str) -> String {
    let dir = std::env::temp_dir().join("muffin_golden_resume");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ckpt = dir.join(format!(
        "ckpt_{tag}_{halt_after}_w{}.json",
        workers.workers()
    ));
    std::fs::remove_file(&ckpt).ok();

    let (search, rng) = golden_search();
    let interrupted = search
        .run_persistent(
            &mut rng.clone(),
            workers,
            &PersistenceOptions::checkpoint_to(&ckpt).with_halt_after(halt_after),
        )
        .expect_err("halted run must not complete");
    assert!(
        matches!(interrupted, MuffinError::Halted { .. }),
        "expected Halted, got {interrupted}"
    );

    let (search, rng) = golden_search();
    let outcome = search
        .run_persistent(
            &mut rng.clone(),
            workers,
            &PersistenceOptions::checkpoint_to(&ckpt).with_resume(true),
        )
        .expect("resumed golden search runs");
    std::fs::remove_file(&ckpt).ok();
    muffin_json::to_string(&outcome)
}

/// Root seed of the golden fleet recipe. Like [`GOLDEN_SEED`], everything
/// about the recipe is frozen: changing any part of it invalidates the
/// committed fleet snapshot.
const FLEET_SEED: u64 = 4242;

/// A 9-point search space over the 3-model fixture pool: small enough
/// that the halving screen plus a few episodes cover most of it, so
/// later islands hit the shared disk cache instead of re-training heads.
fn fleet_space() -> SearchSpace {
    SearchSpace::new(3, 2, vec![2], vec![8], vec![Activation::Relu]).expect("valid space")
}

/// The golden fleet's search configuration: 24 episodes over four
/// islands with a REINFORCE batch of 2.
fn fleet_config() -> SearchConfig {
    SearchConfig::fast(&["age", "site"])
        .with_episodes(24)
        .with_reinforce_batch(2)
        .with_space(fleet_space())
}

/// The golden fleet's identity knobs (four islands, elite exchange every
/// 4 episodes, a 6-candidate two-rung screen) with the given pure
/// concurrency knobs.
fn fleet_sharded(shards: usize, island_workers: usize) -> ShardedConfig {
    ShardedConfig {
        islands: 4,
        exchange_every: 4,
        elites: 2,
        screen_budget: 6,
        screen_rungs: 2,
        screen_keep: 0.5,
        screen_epochs: 2,
        shards,
        island_workers,
    }
}

/// Runs the golden fleet recipe with fleet state in `dir` and serialises
/// the merged outcome exactly as [`SearchOutcome::save_json`] would write
/// it. Without `resume` the caller is expected to pass a fresh directory.
pub fn fleet_outcome_json(
    dir: &Path,
    shards: usize,
    island_workers: usize,
    resume: bool,
    tracer: &Tracer,
) -> String {
    let (split, pool, _) = small_fixture(FLEET_SEED);
    let outcome = run_sharded(
        pool,
        split,
        fleet_config(),
        &fleet_sharded(shards, island_workers),
        FLEET_SEED,
        dir,
        resume,
        None,
        tracer,
    )
    .expect("fleet runs");
    muffin_json::to_string(&outcome)
}

/// Path of the committed golden fleet snapshot
/// (`tests/golden/fleet_outcome.json` from the repository root).
pub fn golden_fleet_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join("fleet_outcome.json")
}
