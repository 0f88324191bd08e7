//! The observability determinism contract at integration scope: attaching a
//! capturing tracer never changes search results, and the event log — once
//! wall-clock timings are stripped — is byte-identical across repeated runs
//! and across worker counts. The stripped logs of the golden recipe are
//! committed at `tests/golden/search_trace.json`, so a refactor of the
//! code that emits them cannot add, drop or reorder an event unnoticed.

use muffin::{Tracer, WorkerPool};
use muffin_integration_tests::{golden_search, golden_trace_json, golden_trace_path};
use muffin_trace::TraceLog;

/// Runs the golden recipe with `tracer` on `workers`, returning the outcome
/// JSON and the finished trace log.
fn traced_run(tracer: Tracer, workers: &WorkerPool) -> (String, TraceLog) {
    let (search, mut rng) = golden_search();
    let search = search.with_tracer(tracer);
    let outcome = search
        .run_with_pool(&mut rng, workers)
        .expect("search runs");
    (muffin_json::to_string(&outcome), search.tracer().finish())
}

#[test]
fn capturing_tracer_does_not_change_the_outcome() {
    let (noop_json, noop_log) = traced_run(Tracer::noop(), &WorkerPool::serial());
    let (traced_json, traced_log) = traced_run(Tracer::capturing(), &WorkerPool::serial());
    assert!(
        noop_log.events.is_empty(),
        "no-op tracer must record nothing"
    );
    assert!(
        !traced_log.events.is_empty(),
        "capturing tracer must record events"
    );
    assert!(
        noop_json == traced_json,
        "attaching a capturing tracer changed the SearchOutcome bytes"
    );
}

#[test]
fn stripped_logs_are_byte_identical_across_runs() {
    let (_, first) = traced_run(Tracer::capturing(), &WorkerPool::serial());
    let (_, second) = traced_run(Tracer::capturing(), &WorkerPool::serial());
    assert_eq!(
        muffin_json::to_string(&first.stripped()),
        muffin_json::to_string(&second.stripped()),
        "two identical runs produced different stripped trace logs"
    );
}

#[test]
fn stripped_logs_are_byte_identical_across_worker_counts() {
    let (serial_json, serial_log) = traced_run(Tracer::capturing(), &WorkerPool::serial());
    let serial_stripped = muffin_json::to_string(&serial_log.stripped());
    for workers in [2usize, 4] {
        let (json, log) = traced_run(Tracer::capturing(), &WorkerPool::new(workers));
        assert!(json == serial_json, "outcome diverged at {workers} workers");
        assert_eq!(
            muffin_json::to_string(&log.stripped()),
            serial_stripped,
            "stripped trace log diverged at {workers} workers"
        );
    }
}

#[test]
fn stripped_logs_reproduce_the_committed_trace_snapshot() {
    let path = golden_trace_path();
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read committed trace snapshot {}: {e}\n\
             generate it with scripts/regen-golden.sh",
            path.display()
        )
    });
    let actual = golden_trace_json();
    assert!(
        actual == expected,
        "stripped golden trace diverged from tests/golden/search_trace.json \
         ({} vs {} bytes).\n\
         If this change is intentional, refresh the snapshot with \
         scripts/regen-golden.sh and commit the updated file.",
        actual.len(),
        expected.len()
    );
}
