//! Golden-snapshot determinism suite: the serialised `SearchOutcome` of a
//! frozen recipe is committed at `tests/golden/search_outcome.json`, and
//! re-running the recipe — serially or on a four-worker pool — must
//! reproduce it byte for byte. The sharded fleet recipe's merged outcome
//! is committed next to it at `tests/golden/fleet_outcome.json` and
//! checked by the sharded-equivalence suite, and the recipe's stripped
//! trace at `tests/golden/search_trace.json` by the trace-determinism
//! suite.
//!
//! If an intentional behaviour change invalidates a snapshot, regenerate
//! both with `scripts/regen-golden.sh` and commit the diff alongside the
//! change that caused it.

use muffin::{MuffinError, PersistenceOptions, Tracer, WorkerPool};
use muffin_integration_tests::{
    fleet_outcome_json, golden_fleet_path, golden_outcome_json, golden_outcome_json_resumed,
    golden_search, golden_snapshot_path, golden_trace_json, golden_trace_path,
};

fn committed_snapshot() -> String {
    let path = golden_snapshot_path();
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read committed golden snapshot {}: {e}\n\
             generate it with scripts/regen-golden.sh",
            path.display()
        )
    })
}

fn assert_matches_snapshot(actual: &str, label: &str) {
    let expected = committed_snapshot();
    assert!(
        actual == expected,
        "{label} SearchOutcome diverged from tests/golden/search_outcome.json \
         ({} vs {} bytes).\n\
         If this change is intentional, refresh the snapshot with \
         scripts/regen-golden.sh and commit the updated file.",
        actual.len(),
        expected.len()
    );
}

#[test]
fn serial_search_reproduces_the_committed_snapshot() {
    assert_matches_snapshot(&golden_outcome_json(&WorkerPool::serial()), "serial");
}

#[test]
fn four_worker_search_reproduces_the_committed_snapshot() {
    assert_matches_snapshot(&golden_outcome_json(&WorkerPool::new(4)), "4-worker");
}

// The golden recipe runs 8 episodes with a REINFORCE batch of 3, so the
// interruptible batch boundaries are episodes 3 and 6. Killing at either
// and resuming must reproduce the committed snapshot byte for byte — the
// checkpoint/resume path may not perturb the trajectory at any worker
// count.

#[test]
fn kill_at_first_boundary_and_resume_reproduces_the_snapshot() {
    assert_matches_snapshot(
        &golden_outcome_json_resumed(&WorkerPool::serial(), 3, "serial"),
        "serial kill-at-3 + resume",
    );
}

#[test]
fn kill_at_second_boundary_and_resume_reproduces_the_snapshot() {
    assert_matches_snapshot(
        &golden_outcome_json_resumed(&WorkerPool::serial(), 6, "serial"),
        "serial kill-at-6 + resume",
    );
}

#[test]
fn four_worker_kill_and_resume_reproduces_the_snapshot() {
    assert_matches_snapshot(
        &golden_outcome_json_resumed(&WorkerPool::new(4), 3, "par"),
        "4-worker kill-at-3 + resume",
    );
}

// The blocked matmul kernels promise byte-identical floats regardless of
// how work is sliced, so the committed snapshot must be reproduced at
// *every* worker count, not just the serial and 4-worker recipes above —
// a kernel whose result depended on batch shape or scratch-buffer reuse
// would diverge somewhere in this sweep.

#[test]
fn blocked_kernels_reproduce_the_snapshot_at_every_worker_count() {
    for workers in [2usize, 3, 5, 8] {
        assert_matches_snapshot(
            &golden_outcome_json(&WorkerPool::new(workers)),
            &format!("{workers}-worker (blocked-kernel sweep)"),
        );
    }
}

// Where the loop leaves the caller's RNG is part of the stream contract
// too: a caller that keeps drawing from it after a search (a second
// search, a test split) must see the same stream on every version. The
// states below are pinned from the golden recipe: after a full run (and
// after a halt at episode 3 plus resume, which must end identically) and
// after the halt alone.

const GOLDEN_RNG_AFTER_RUN: [u64; 4] = [
    2294371298836489241,
    2485977900303081321,
    16879790751587670198,
    12345239336069448090,
];
const GOLDEN_RNG_AFTER_HALT_AT_3: [u64; 4] = [
    15183872584572405872,
    6989030955300131231,
    17709492523882555985,
    18022016963218974015,
];

#[test]
fn golden_recipe_leaves_the_caller_rng_in_its_pinned_state() {
    let (search, rng) = golden_search();
    let mut full = rng.clone();
    search
        .run_with_pool(&mut full, &WorkerPool::new(2))
        .expect("golden search runs");
    assert_eq!(full.state(), GOLDEN_RNG_AFTER_RUN, "after a full run");

    let ckpt = std::env::temp_dir().join(format!(
        "muffin_golden_rng_{}.ckpt.json",
        std::process::id()
    ));
    std::fs::remove_file(&ckpt).ok();
    let mut halted = rng.clone();
    let err = search
        .run_persistent(
            &mut halted,
            &WorkerPool::serial(),
            &PersistenceOptions::checkpoint_to(&ckpt).with_halt_after(3),
        )
        .expect_err("halted run must not complete");
    assert!(matches!(err, MuffinError::Halted { episode: 3 }), "{err}");
    assert_eq!(halted.state(), GOLDEN_RNG_AFTER_HALT_AT_3, "after the halt");

    let mut resumed = rng.clone();
    search
        .run_persistent(
            &mut resumed,
            &WorkerPool::serial(),
            &PersistenceOptions::checkpoint_to(&ckpt).with_resume(true),
        )
        .expect("resumed golden search runs");
    std::fs::remove_file(&ckpt).ok();
    assert_eq!(resumed.state(), GOLDEN_RNG_AFTER_RUN, "after halt + resume");
}

/// Regeneration path, invoked by `scripts/regen-golden.sh`:
/// `cargo test ... -- --ignored regenerate_golden_snapshot`.
#[test]
#[ignore = "rewrites the tests/golden/ snapshots; run via scripts/regen-golden.sh"]
fn regenerate_golden_snapshot() {
    let write = |path: std::path::PathBuf, json: String| {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &json)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("wrote {} ({} bytes)", path.display(), json.len());
    };
    write(
        golden_snapshot_path(),
        golden_outcome_json(&WorkerPool::serial()),
    );
    write(golden_trace_path(), golden_trace_json());

    let dir = std::env::temp_dir().join(format!("muffin_golden_fleet_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let fleet = fleet_outcome_json(&dir, 1, 1, false, &Tracer::noop());
    std::fs::remove_dir_all(&dir).ok();
    write(golden_fleet_path(), fleet);
}
