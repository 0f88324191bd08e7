//! The sharded-search determinism contract: the merged [`SearchOutcome`]
//! depends only on `(seed, config, islands)` — never on the number of
//! concurrent shard slots, per-island worker threads, or which shard
//! finishes first. Every shard-slot × worker cell must reproduce the
//! committed `tests/golden/fleet_outcome.json` byte for byte. A fleet sharing one on-disk eval cache must also skip
//! re-evaluating screened candidates (`search.cache_hit_disk > 0`), and
//! re-running a completed fleet with `resume` must be a byte-identical
//! no-op.

use muffin::{merge_shard_histories, EpisodeRecord, Tracer};
use muffin_integration_tests::{fleet_outcome_json, golden_fleet_path};
use std::path::PathBuf;

fn fleet_dir(tag: &str) -> PathBuf {
    std::env::temp_dir()
        .join("muffin_sharded_equiv")
        .join(format!("{tag}_{}", std::process::id()))
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = fleet_dir(tag);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Runs the golden fleet recipe and returns the outcome JSON. Without
/// `resume` the fleet starts in a fresh directory; with it, the caller
/// prepared the directory and the fleet continues from its state.
fn run_fleet(
    tag: &str,
    shards: usize,
    island_workers: usize,
    resume: bool,
    tracer: &Tracer,
) -> String {
    let dir = if resume {
        fleet_dir(tag)
    } else {
        fresh_dir(tag)
    };
    fleet_outcome_json(&dir, shards, island_workers, resume, tracer)
}

#[test]
fn merged_outcome_is_identical_across_shard_slots_and_workers() {
    let path = golden_fleet_path();
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read committed fleet snapshot {}: {e}\n\
             generate it with scripts/regen-golden.sh",
            path.display()
        )
    });
    for (shards, workers) in [(1usize, 1usize), (2, 1), (4, 1), (2, 2), (4, 2)] {
        let json = run_fleet(
            &format!("s{shards}w{workers}"),
            shards,
            workers,
            false,
            &Tracer::noop(),
        );
        assert!(
            json == expected,
            "merged outcome at shards={shards} island_workers={workers} diverged from \
             tests/golden/fleet_outcome.json ({} vs {} bytes).\n\
             If this change is intentional, refresh the snapshot with \
             scripts/regen-golden.sh and commit the updated file.",
            json.len(),
            expected.len()
        );
    }
}

#[test]
fn stripped_trace_logs_are_identical_across_shard_slots() {
    let serial = Tracer::capturing();
    run_fleet("trace_s1", 1, 1, false, &serial);
    let serial_stripped = muffin_json::to_string(&serial.finish().stripped());
    for shards in [2usize, 4] {
        let tracer = Tracer::capturing();
        run_fleet(&format!("trace_s{shards}"), shards, 1, false, &tracer);
        assert_eq!(
            muffin_json::to_string(&tracer.finish().stripped()),
            serial_stripped,
            "stripped trace log diverged at {shards} shard slots"
        );
    }
}

#[test]
fn fleet_shares_the_disk_cache_across_islands() {
    let tracer = Tracer::capturing();
    run_fleet("cache_hits", 2, 1, false, &tracer);
    let hits = tracer.counter_value("search.cache_hit_disk");
    assert!(
        hits > 0,
        "a 2-shard fleet over a 9-point space must serve some \
         evaluations from the shared disk cache (got {hits} hits)"
    );
}

#[test]
fn resuming_a_completed_fleet_is_a_byte_identical_noop() {
    let first = run_fleet("resume_done", 2, 1, false, &Tracer::noop());
    let again = run_fleet("resume_done", 2, 1, true, &Tracer::noop());
    assert!(
        first == again,
        "re-running a completed fleet with resume changed the merged outcome"
    );
}

#[test]
fn merge_is_independent_of_shard_completion_order() {
    // Simulates shards finishing in arbitrary order: the reduce sorts by
    // island index before renumbering, so reversed and interleaved
    // completion orders must produce the same bytes.
    let record = |island: usize, episode: u32, reward: f32| EpisodeRecord {
        episode,
        actions: vec![island, episode as usize],
        model_names: vec![format!("m{island}")],
        head_desc: format!("h{island}"),
        accuracy: 0.5,
        unfairness: vec![0.1, 0.2],
        reward,
        head_params: 10,
        total_params: 100,
        head_seed: 7,
        first_seen: episode,
    };
    let shard = |island: usize| {
        (
            island,
            (0..3)
                .map(|e| record(island, e, island as f32 + e as f32 * 0.1))
                .collect::<Vec<_>>(),
        )
    };
    let attrs = || vec!["age".to_string(), "site".to_string()];

    let ordered =
        merge_shard_histories(vec![shard(0), shard(1), shard(2)], attrs()).expect("merges");
    let reversed =
        merge_shard_histories(vec![shard(2), shard(1), shard(0)], attrs()).expect("merges");
    let shuffled =
        merge_shard_histories(vec![shard(1), shard(2), shard(0)], attrs()).expect("merges");

    let ordered_json = muffin_json::to_string(&ordered);
    assert_eq!(ordered_json, muffin_json::to_string(&reversed));
    assert_eq!(ordered_json, muffin_json::to_string(&shuffled));
}
