//! The `serve` workload: a closed loop of two clients, each keeping one
//! request in flight, against the batching server.

use crate::layers::Layers;
use crate::report::{self, NsHistogram, RunResult};
use crate::search::WORKERS;
use crate::setup::{self, SetupTimes, ATTRS};
use muffin::{BodyOutputCache, FusingStructure, MuffinSearch, SearchConfig, Tracer, WorkerPool};
use muffin_models::ModelPool;
use muffin_serve::{serve_scoped, ServeClient, ServeConfig, ServeEngine};
use muffin_tensor::{instrument::finiteness_scans, Matrix, Rng64};
use std::time::{Duration, Instant};

/// Client threads; each keeps exactly one request in flight.
pub const CLIENTS: usize = 2;
/// Distinct test rows requests are drawn from.
const ROWS: usize = 512;
/// Seed of the short search whose best structure is deployed: fixed, so
/// the deployment depends on the workload seed only through the data.
const DEPLOY_SEARCH_SEED: u64 = 0x5e7e;
/// Un-timed warm-up before the measured sessions.
const WARMUP: Duration = Duration::from_millis(300);
/// Length of one measured session.
const SESSION: Duration = Duration::from_secs(1);
/// Length of each session of a traced run.
const TRACE_SESSION: Duration = Duration::from_secs(3);

/// A deployed engine plus the requests and the answers they must get.
struct Deployment {
    engine: ServeEngine,
    pool: ModelPool,
    fusing: FusingStructure,
    rows: Matrix,
    expected: Vec<usize>,
}

/// Data, pool, a short fixed-seed search, the rebuilt best structure and
/// the expected answer for every request row.
fn deploy(seed: u64) -> Result<(Deployment, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let (split, pool) = setup::inputs(seed, &mut times);
    let start = Instant::now();
    let test = split.test.clone();
    let feature_dim = split.train.feature_dim();
    let config = SearchConfig::fast(&ATTRS)
        .with_episodes(8)
        .with_reinforce_batch(4);
    let search = MuffinSearch::new(pool, split, config).map_err(|e| e.to_string())?;
    let outcome = search
        .run_with_pool(
            &mut Rng64::seed(DEPLOY_SEARCH_SEED),
            &WorkerPool::new(WORKERS),
        )
        .map_err(|e| format!("deployment search failed: {e}"))?;
    let fusing = search.rebuild(outcome.best()).map_err(|e| e.to_string())?;
    let mut rng = Rng64::seed(setup::derived_seed(seed, "serve-rows", 0));
    let indices: Vec<usize> = (0..ROWS).map(|_| rng.below(test.len())).collect();
    let rows = test.features().select_rows(&indices);
    let expected = fusing.predict(search.pool(), &rows);
    let pool = search.pool().clone();
    let engine = ServeEngine::new(pool.clone(), fusing.clone(), feature_dim);
    times.prepare_ms = start.elapsed().as_secs_f64() * 1e3;
    Ok((
        Deployment {
            engine,
            pool,
            fusing,
            rows,
            expected,
        },
        times,
    ))
}

/// What the clients of one session saw.
#[derive(Debug, Default)]
struct Session {
    /// Client-side latency of every request.
    latency: NsHistogram,
    ok: u64,
    wrong: u64,
    errors: u64,
    wall_s: f64,
    shed: u64,
    batches: u64,
    completed: u64,
}

impl Session {
    fn attempted(&self) -> u64 {
        self.ok + self.wrong + self.errors
    }

    fn failed(&self) -> u64 {
        self.wrong + self.errors
    }

    fn requests_per_s(&self) -> f64 {
        self.ok as f64 / self.wall_s
    }

    /// Adds another session's (or client's) counts and latencies.
    fn absorb(&mut self, other: Session) {
        self.latency.merge(&other.latency);
        self.ok += other.ok;
        self.wrong += other.wrong;
        self.errors += other.errors;
        self.wall_s += other.wall_s;
        self.shed += other.shed;
        self.batches += other.batches;
        self.completed += other.completed;
    }
}

/// One client: draw a row, send it, check the answer, repeat until
/// `deadline`, recording into `s`.
fn client_loop(
    client: &ServeClient<'_>,
    d: &Deployment,
    seed: u64,
    deadline: Instant,
    mut s: Session,
) -> Session {
    let mut rng = Rng64::seed(seed);
    let mut now = Instant::now();
    while now < deadline {
        let i = rng.below(d.rows.rows());
        let reply = client.request(d.rows.row(i));
        let done = Instant::now();
        s.latency.record((done - now).as_nanos() as u64);
        match reply {
            Ok(class) if class == d.expected[i] => s.ok += 1,
            Ok(_) => s.wrong += 1,
            Err(_) => s.errors += 1,
        }
        now = done;
    }
    s
}

fn session(d: &Deployment, seed: u64, length: Duration, tracer: &Tracer) -> Session {
    let start = Instant::now();
    let deadline = start + length;
    let (clients, stats) = serve_scoped(&d.engine, &ServeConfig::default(), tracer, |client| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS as u64)
                .map(|c| {
                    let client_seed = setup::derived_seed(seed, "serve-client", c);
                    // Allocated here, on the calling thread, so histogram
                    // memory is reused run after run instead of piling up
                    // in per-thread allocator arenas (which `peak_rss_mb`
                    // would see).
                    let log = Session::default();
                    scope.spawn(move || client_loop(client, d, client_seed, deadline, log))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client threads do not panic"))
                .collect::<Vec<Session>>()
        })
    });
    let mut all = Session {
        wall_s: start.elapsed().as_secs_f64(),
        shed: stats.shed,
        batches: stats.batches,
        completed: stats.completed,
        ..Session::default()
    };
    for c in clients {
        all.absorb(c);
    }
    all
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    if trace {
        traced(seed, &mut out)?;
        return Ok(out);
    }
    let (deployments, setup_s) = setup::several(|k| deploy(setup::data_seed(seed, k)))?;
    let warm = session(&deployments[0], seed ^ 1, WARMUP, &Tracer::noop());
    out.attempted = warm.attempted();
    out.failed = warm.failed();
    // Short sessions round-robin over the deployments, keeping each one's
    // fastest session (min-of-N, as for search and fleet runs). Every
    // session's replies are checked and counted.
    let mut best: Vec<Option<Session>> = deployments.iter().map(|_| None).collect();
    let started = Instant::now();
    let mut sessions = 0usize;
    while started.elapsed().as_secs_f64() < seconds {
        let k = sessions % deployments.len();
        let client_seed = setup::derived_seed(seed, "serve", sessions as u64);
        let s = session(&deployments[k], client_seed, SESSION, &Tracer::noop());
        out.attempted += s.attempted();
        out.failed += s.failed();
        if best[k]
            .as_ref()
            .is_none_or(|b| s.requests_per_s() > b.requests_per_s())
        {
            best[k] = Some(s);
        }
        sessions += 1;
    }
    let mut s = Session::default();
    for b in best.into_iter().flatten() {
        s.absorb(b);
    }
    out.push("ops_per_s", s.requests_per_s(), "1/s");
    let n = s.latency.len();
    out.push("latency_us", s.latency.quantile_us(0.5), "us");
    let tail = report::gated_tail_percentile(n);
    out.push("latency_tail_us", s.latency.quantile_us(tail / 100.0), "us");
    out.push("setup_s", setup_s, "s");
    out.note(format!(
        "serve: {sessions} sessions over {} deployments; fastest per deployment: {} requests \
         in {:.3} s, {} batches",
        deployments.len(),
        s.attempted(),
        s.wall_s,
        s.batches
    ));
    out.note(report::tail_note(
        "serve request latency",
        n,
        |q| s.latency.quantile_us(q),
        "us",
    ));
    Ok(out)
}

fn traced(seed: u64, out: &mut RunResult) -> Result<(), String> {
    let mut layers = Layers::default();
    let (d, times) = deploy(setup::data_seed(seed, 0))?;
    layers.setup(&times, &d.pool);
    session(&d, seed ^ 1, WARMUP, &Tracer::noop());
    let plain = session(&d, seed, TRACE_SESSION, &Tracer::noop());
    let tracer = Tracer::capturing();
    let s = session(&d, seed, TRACE_SESSION, &tracer);
    drop(tracer.finish());
    out.attempted = plain.attempted() + s.attempted();
    out.failed = plain.failed() + s.failed();

    // Compute at the observed batch size, by direct calls on this thread:
    // the body forwards (a fresh per-batch cache, as the engine builds),
    // then the head on the filled cache.
    let batch_mean = s.completed as f64 / s.batches.max(1) as f64;
    let batch = (batch_mean.round() as usize).clamp(1, d.rows.rows());
    let indices: Vec<usize> = (0..batch).collect();
    let features = d.rows.select_rows(&indices);
    const REPS: usize = 2_000;
    let body = || {
        let cache = BodyOutputCache::new(&d.pool, features.clone());
        for &m in d.fusing.model_indices() {
            cache.probs(m);
        }
        cache
    };
    let body_us = 1e3 * report::median_ms(REPS, body);
    let filled = body();
    let head_us = 1e3
        * report::median_ms(REPS, || {
            d.fusing
                .try_predict_cached(&filled)
                .expect("valid structure")
        });
    let scans = finiteness_scans();
    d.engine
        .predict_batch(features.clone())
        .map_err(|e| format!("direct predict_batch failed: {e}"))?;
    let scans_per_batch = finiteness_scans() - scans;

    let p50 = s.latency.quantile_us(0.5);
    let queue_wait_us = p50 - body_us - head_us;
    layers.set("serve.batch_size_mean", batch_mean);
    layers.set("serve.body_us", body_us);
    layers.set("serve.head_us", head_us);
    layers.set("serve.queue_wait_us", queue_wait_us);
    layers.set("serve.shed", s.shed as f64);
    layers.set(
        "tensor.finiteness_scans",
        (scans_per_batch * s.batches) as f64,
    );
    layers.set("trace.wall_ms", s.wall_s * 1e3);
    layers.set(
        "trace.overhead_per_s",
        plain.requests_per_s() - s.requests_per_s(),
    );
    out.note(format!(
        "serve traced: {} requests, {} batches (mean {batch_mean:.3} requests), shed {}; \
         p50 {p50:.3} us = body {body_us:.3} + head {head_us:.3} + queue wait {queue_wait_us:.3}",
        s.attempted(),
        s.batches,
        s.shed
    ));
    out.note(format!(
        "untraced session {:.0} req/s, traced {:.0} req/s",
        plain.requests_per_s(),
        s.requests_per_s()
    ));
    layers.emit(out);
    Ok(())
}
