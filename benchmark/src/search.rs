//! The `search` workload: the paper's episode loop as the CLI runs it, in
//! memory, on a two-worker pool.

use crate::layers::{shares_line, Layers};
use crate::report::{self, RunResult};
use crate::setup::{self, ATTRS};
use crate::spans::SpanLog;
use muffin::{
    BodyOutputCache, Candidate, FusingStructure, MuffinSearch, RnnController, SampledEpisode,
    SearchConfig, SearchOutcome, WorkerPool,
};
use muffin_tensor::{instrument::finiteness_scans, Rng64, SplitMix64};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Episodes per search.
pub const EPISODES: u32 = 48;
/// REINFORCE batch size `m` of Eq. 4.
pub const BATCH: usize = 4;
/// Evaluation workers: the machine has two cores.
pub const WORKERS: usize = 2;

pub fn config() -> SearchConfig {
    SearchConfig::paper(&ATTRS)
        .with_episodes(EPISODES)
        .with_reinforce_batch(BATCH)
}

/// FNV-1a 64 of the outcome's canonical JSON: equal hashes mean
/// byte-identical outcomes.
pub fn outcome_hash(outcome: &SearchOutcome) -> u64 {
    muffin::fnv1a64(muffin_json::to_string(outcome).as_bytes())
}

/// One unit of work a run repeats: a search or fleet with fixed inputs.
#[derive(Debug)]
struct Unit {
    /// Wall seconds of the fastest run.
    best_s: f64,
    episodes: u32,
    /// Outcome hash of the first run; every repeat must match it.
    hash: u64,
}

/// Runs of a workload's units, keeping each unit's fastest run. The
/// machine's neighbours slow it in bursts, and the fastest of repeated
/// identical runs (min-of-N) is the steadiest estimate of a unit's cost.
#[derive(Debug, Default)]
pub struct Repetitions {
    units: BTreeMap<u64, Unit>,
    runs: usize,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Repetitions {
    /// Runs `one(unit)` round-robin over `units` units (`None`: every run
    /// is a unit of its own) until `seconds` have passed, then unit 0 again
    /// if it has run only once, so at least one repeat is checked. `one`
    /// returns the outcome hash, the episodes and the wall seconds of the
    /// program call alone.
    pub fn measure(
        seconds: f64,
        units: Option<u64>,
        mut one: impl FnMut(u64) -> Result<(u64, u32, f64), String>,
    ) -> Self {
        let mut reps = Repetitions::default();
        let started = Instant::now();
        let mut unit_zero_runs = 0;
        for index in 0u64.. {
            let done = started.elapsed().as_secs_f64() >= seconds;
            if done && unit_zero_runs >= 2 {
                break;
            }
            let unit = if done {
                0
            } else {
                units.map_or(index, |n| index % n)
            };
            if unit == 0 {
                unit_zero_runs += 1;
            }
            reps.runs += 1;
            match one(unit) {
                Ok((hash, episodes, wall)) => reps.record(unit, hash, episodes, wall),
                Err(e) => {
                    reps.attempted += 1;
                    reps.failed += 1;
                    reps.errors.push(e);
                }
            }
        }
        reps
    }

    fn record(&mut self, unit: u64, hash: u64, episodes: u32, wall: f64) {
        self.attempted += u64::from(episodes);
        match self.units.get_mut(&unit) {
            None => {
                self.units.insert(
                    unit,
                    Unit {
                        best_s: wall,
                        episodes,
                        hash,
                    },
                );
            }
            Some(u) => {
                if hash != u.hash {
                    self.failed += u64::from(episodes);
                    self.errors.push(format!(
                        "a repeat of unit {unit} hashed {hash:016x}, its first run {:016x}",
                        u.hash
                    ));
                }
                u.best_s = u.best_s.min(wall);
            }
        }
    }

    /// Appends `ops_per_s` and the latency metrics over each unit's fastest
    /// run. Seen from outside the loop, a unit yields one per-episode time
    /// (its wall ÷ its episodes), too few for any percentile to have ten
    /// samples beyond it; both latency metrics report the mean time per
    /// episode.
    pub fn report(&self, out: &mut RunResult, what: &str) {
        let episodes: u64 = self.units.values().map(|u| u64::from(u.episodes)).sum();
        let wall: f64 = self.units.values().map(|u| u.best_s).sum();
        let mut per_episode_us: Vec<f64> = self
            .units
            .values()
            .map(|u| u.best_s * 1e6 / f64::from(u.episodes.max(1)))
            .collect();
        per_episode_us.sort_by(f64::total_cmp);
        let mean_us = wall * 1e6 / episodes.max(1) as f64;
        out.push("ops_per_s", episodes as f64 / wall, "1/s");
        out.push("latency_us", mean_us, "us");
        out.push("latency_tail_us", mean_us, "us");
        out.note(format!(
            "{what}: {} runs of {} units; fastest runs: {episodes} episodes in {wall:.3} s; \
             outcome hash of unit 0: {:016x}",
            self.runs,
            self.units.len(),
            self.units.get(&0).map_or(0, |u| u.hash)
        ));
        let walls: Vec<String> = self
            .units
            .values()
            .map(|u| format!("{:.3}", u.best_s))
            .collect();
        out.note(format!(
            "{what} fastest wall per unit (s): {}",
            walls.join(" ")
        ));
        out.note(report::tail_note(
            &format!("{what} per-episode time (one sample per unit)"),
            per_episode_us.len(),
            |q| report::quantile_sorted(&per_episode_us, q),
            "us",
        ));
        out.attempted += self.attempted;
        out.failed += self.failed;
        out.check_failures.extend(self.errors.iter().cloned());
    }
}

/// One untraced search: the outcome hash and its episode count.
fn run_once(search: &MuffinSearch, seed: u64, pool: &WorkerPool) -> Result<SearchOutcome, String> {
    search
        .run_with_pool(&mut Rng64::seed(seed), pool)
        .map_err(|e| format!("search failed: {e}"))
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    if trace {
        traced(seed, &mut out)?;
        return Ok(out);
    }
    let (searches, setup_s) =
        setup::several(|k| setup::search(setup::data_seed(seed, k), config()))?;
    let pool = WorkerPool::new(WORKERS);
    // Every search is distinct: one search's cost depends on which
    // candidates its controller samples, so a run averages over many.
    let reps = Repetitions::measure(seconds, None, |i| {
        let search = &searches[i as usize % searches.len()];
        let start = Instant::now();
        let outcome = run_once(search, setup::derived_seed(seed, "search", i), &pool)?;
        let wall = start.elapsed().as_secs_f64();
        Ok((outcome_hash(&outcome), outcome.history.len() as u32, wall))
    });
    reps.report(&mut out, "search");
    out.push("setup_s", setup_s, "s");
    Ok(out)
}

/// Multiply-adds of one forward pass through the head per row.
fn head_forward_macs(fusing: &FusingStructure, input_dim: usize, classes: usize) -> u64 {
    let spec = fusing.head_spec().to_mlp_spec(input_dim, classes);
    let mut dims = vec![spec.input_dim()];
    dims.extend_from_slice(spec.hidden());
    dims.push(spec.output_dim());
    dims.windows(2).map(|w| (w[0] * w[1]) as u64).sum()
}

/// What one replayed job measured on its worker thread.
struct JobResult {
    log: SpanLog,
    /// Finiteness scans counted on the thread that ran the job.
    scans: u64,
    /// Whether the job ran on the calling thread (a one-job batch), whose
    /// counter the caller reads itself.
    inline: bool,
    evaluation: Result<muffin_models::ModelEvaluation, String>,
    macs: u64,
    forced_lookups: u64,
}

/// Traced run: one untraced search, then the same search replayed
/// through the library's public calls with a span around each, checked
/// reward-for-reward against the untraced outcome.
fn traced(seed: u64, out: &mut RunResult) -> Result<(), String> {
    let mut layers = Layers::default();
    let (search, times) = setup::search(setup::data_seed(seed, 0), config())?;
    layers.setup(&times, search.pool());
    let search_seed = setup::derived_seed(seed, "search", 0);
    let pool = WorkerPool::new(WORKERS);

    let t = Instant::now();
    let outcome = run_once(&search, search_seed, &pool)?;
    let untraced_s = t.elapsed().as_secs_f64();

    let origin = Instant::now();
    let replay = replay(&search, search_seed, &pool, origin);
    let wall_ms = origin.elapsed().as_secs_f64() * 1e3;
    let replay = replay?;
    std::fs::create_dir_all(crate::OUT_DIR)
        .map_err(|e| format!("cannot create {}: {e}", crate::OUT_DIR))?;
    let spans_path = format!("{}/search-seed{seed}-spans.json", crate::OUT_DIR);
    std::fs::write(&spans_path, replay.log.to_json())
        .map_err(|e| format!("cannot write {spans_path}: {e}"))?;

    // Replay check 1: every episode reward bit-exact.
    let expected: Vec<u32> = outcome.history.iter().map(|r| r.reward.to_bits()).collect();
    let got: Vec<u32> = replay.rewards.iter().map(|r| r.to_bits()).collect();
    let matching = expected.iter().zip(&got).filter(|(a, b)| a == b).count();
    out.attempted += expected.len() as u64;
    out.failed += (expected.len() - matching.min(expected.len())) as u64;
    if expected.len() != got.len() || matching != expected.len() {
        out.check_failures.push(format!(
            "replay rewards: {matching} of {} episodes bit-exact (replay produced {})",
            expected.len(),
            got.len()
        ));
    }
    out.note(format!(
        "search replay: {matching}/{} rewards bit-exact; spans written to {spans_path}",
        expected.len()
    ));

    // Replay check 2: layer self times plus the residual equal the wall.
    let log = &replay.log;
    let mut own = log.self_times();
    let mut busy_ns = 0.0;
    let mut capacity_ns = 0.0;
    for (i, span) in log.spans.iter().enumerate() {
        if span.name != "par.map" {
            continue;
        }
        let wall = (span.end_ns - span.start_ns) as f64;
        let jobs_ns: u64 = log
            .spans
            .iter()
            .filter(|s| s.parent == Some(i) && s.lane != span.lane)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let straggler = wall - jobs_ns as f64 / WORKERS as f64;
        own[i] = straggler.max(0.0) as u64;
        busy_ns += jobs_ns as f64;
        capacity_ns += wall * WORKERS as f64;
    }
    let share = log.wall_share_by_name(&own);
    let by = |names: &[&str]| -> f64 { names.iter().filter_map(|n| share.get(n)).sum() };
    let root_ms = {
        let (s, e) = log.interval(0);
        (e - s) as f64 / 1e6
    };
    let layer_ms = [
        (
            "fusing.train_head_ms",
            by(&["fusing.new", "fusing.train_head"]),
        ),
        ("fusing.eval_ms", by(&["fusing.evaluate"])),
        ("controller.sample_ms", by(&["controller.sample"])),
        ("controller.update_ms", by(&["controller.update"])),
        ("body_cache.fill_ms", by(&["body_cache.fill"])),
        ("body_cache.lookup_ms", by(&["body_cache.head_inputs"])),
        (
            "search.self_ms",
            by(&[
                "search.setup",
                "search.batch",
                "search.decode",
                "search.evaluate",
                "search.reward",
            ]),
        ),
        ("par.straggler_ms", by(&["par.map"])),
    ];
    let unattributed = by(&["search.replay"]);
    let values: Vec<f64> = layer_ms.iter().map(|&(_, v)| v).collect();
    if !report::adds_up(root_ms, &values, unattributed) {
        out.check_failures.push(format!(
            "replay layers sum to {:.6} ms but the replay took {root_ms:.6} ms",
            values.iter().sum::<f64>() + unattributed
        ));
    }
    for (name, value) in layer_ms {
        layers.set(name, value);
    }
    layers.set("search.unattributed_ms", unattributed);
    layers.set("par.busy_share", busy_ns / capacity_ns.max(1.0));

    let episodes = outcome.history.len() as f64;
    layers.set("fusing.head_epochs", replay.head_epochs as f64);
    layers.set("fusing.head_macs", replay.head_macs as f64);
    layers.set("tensor.finiteness_scans", replay.scans as f64);
    layers.set("controller.calls", replay.controller_calls as f64);
    layers.set("body_cache.hit_ratio", replay.body_hit_ratio);
    layers.set(
        "search.cache_hit_ratio",
        1.0 - replay.jobs as f64 / episodes,
    );
    layers.set("trace.wall_ms", wall_ms);
    layers.set(
        "trace.overhead_per_s",
        episodes / untraced_s - episodes / (wall_ms / 1e3),
    );
    out.note(format!(
        "untraced search {:.3} s, traced replay {:.3} s; layer shares of the replay: {}",
        untraced_s,
        wall_ms / 1e3,
        shares_line(&layer_ms, unattributed, root_ms)
    ));
    layers.emit(out);
    Ok(())
}

/// What the replay produced.
struct Replay {
    log: SpanLog,
    rewards: Vec<f32>,
    jobs: usize,
    head_epochs: u64,
    head_macs: u64,
    scans: u64,
    controller_calls: u64,
    body_hit_ratio: f64,
}

/// The episode loop of `MuffinSearch::run_with_pool`, rebuilt from public
/// calls with a span around each: same RNG draws, same batching, same
/// de-duplication, so the rewards must match the real run bit for bit.
fn replay(
    search: &MuffinSearch,
    search_seed: u64,
    pool: &WorkerPool,
    origin: Instant,
) -> Result<Replay, String> {
    let mut log = SpanLog::new(origin);
    let caller = std::thread::current().id();
    let scans_before = finiteness_scans();
    let root = log.open("search.replay", None, None);
    let config = search.config();
    let space = search.space();
    let models = search.pool();
    let split = search.split();
    let proxy = search.proxy();
    let targets: Vec<&str> = config
        .target_attributes
        .iter()
        .map(String::as_str)
        .collect();
    let classes = split.train.num_classes();
    let mut rng = Rng64::seed(search_seed);

    let setup_span = log.open("search.setup", Some(root), None);
    let mut controller = RnnController::new(space.clone(), config.controller, &mut rng);
    let mut seed_stream = SplitMix64::new(rng.next_u64());
    let head_seeds: Vec<u64> = (0..config.episodes)
        .map(|_| seed_stream.next_u64())
        .collect();
    let proxy_cache =
        BodyOutputCache::new(models, split.train.features().select_rows(proxy.indices()));
    let val_cache = BodyOutputCache::new(models, split.val.features().clone());
    let proxy_labels: Vec<usize> = proxy
        .indices()
        .iter()
        .map(|&i| split.train.labels()[i])
        .collect();
    log.close(setup_span);

    let mut rewards_by_actions: HashMap<Vec<usize>, f32> = HashMap::new();
    let mut rewards = Vec::with_capacity(config.episodes as usize);
    let mut stats = Replay {
        log: SpanLog::new(origin),
        rewards: Vec::new(),
        jobs: 0,
        head_epochs: 0,
        head_macs: 0,
        scans: 0,
        controller_calls: 0,
        body_hit_ratio: 0.0,
    };
    let mut forced_lookups = 0u64;
    let mut episode = 0u32;
    while episode < config.episodes {
        let batch = log.open("search.batch", Some(root), None);
        let batch_len = (config.reinforce_batch as u32).min(config.episodes - episode) as usize;
        let sampled: Vec<SampledEpisode> = (0..batch_len)
            .map(|k| {
                log.time(
                    "controller.sample",
                    Some(batch),
                    Some(episode + k as u32),
                    || controller.sample(&mut rng),
                )
            })
            .collect();
        stats.controller_calls += batch_len as u64;

        let mut jobs: Vec<(usize, Candidate, u64)> = Vec::new();
        for (k, s) in sampled.iter().enumerate() {
            let fresh = !rewards_by_actions.contains_key(&s.actions)
                && !jobs
                    .iter()
                    .any(|&(j, _, _)| sampled[j].actions == s.actions);
            if fresh {
                let ep = episode + k as u32;
                let candidate = log
                    .time("search.decode", Some(batch), Some(ep), || {
                        space.decode(&s.actions)
                    })
                    .map_err(|e| format!("decode failed: {e}"))?;
                jobs.push((k, candidate, head_seeds[ep as usize]));
            }
        }
        stats.jobs += jobs.len();

        let map_span = log.open("par.map", Some(batch), None);
        let results: Vec<JobResult> = pool.map(&jobs, |_, (k, candidate, seed)| {
            let ep = Some(episode + *k as u32);
            let inline = std::thread::current().id() == caller;
            let scans = finiteness_scans();
            let mut job = SpanLog::new(origin);
            let top = job.open("search.evaluate", None, ep);
            let mut head_rng = Rng64::seed(*seed);
            let built = job.time("fusing.new", Some(top), ep, || {
                FusingStructure::new(
                    candidate.model_indices.clone(),
                    candidate.head.clone(),
                    models,
                    &mut head_rng,
                )
            });
            let mut fusing = match built {
                Ok(f) => f,
                Err(e) => {
                    job.close(top);
                    return JobResult {
                        log: job,
                        scans: 0,
                        inline,
                        evaluation: Err(format!("fusing structure: {e}")),
                        macs: 0,
                        forced_lookups: 0,
                    };
                }
            };
            // Fill the body slots this candidate needs up front, so fill
            // time is separated from training and evaluation.
            job.time("body_cache.fill", Some(top), ep, || {
                for &m in &candidate.model_indices {
                    proxy_cache.probs(m);
                    val_cache.probs(m);
                }
            });
            let inputs = job.time("body_cache.head_inputs", Some(top), ep, || {
                proxy_cache.head_inputs(&candidate.model_indices)
            });
            let noop = muffin::Tracer::noop();
            job.time("fusing.train_head", Some(top), ep, || {
                fusing.train_head_on_inputs_traced(
                    &inputs,
                    &proxy_labels,
                    proxy.weights(),
                    &config.head,
                    &mut head_rng,
                    &noop,
                )
            });
            let evaluation = job.time("fusing.evaluate", Some(top), ep, || {
                fusing.evaluate_cached_traced(models, &val_cache, &split.val, &noop)
            });
            job.close(top);
            let macs = 3
                * head_forward_macs(&fusing, inputs.cols(), classes)
                * proxy_labels.len() as u64
                * u64::from(config.head.epochs);
            JobResult {
                log: job,
                scans: finiteness_scans() - scans,
                inline,
                evaluation: Ok(evaluation),
                macs,
                forced_lookups: 2 * candidate.model_indices.len() as u64,
            }
        });
        log.close(map_span);

        for (lane, ((k, _, _), result)) in jobs.iter().zip(results).enumerate() {
            log.absorb(result.log, map_span, lane + 1, WORKERS);
            if !result.inline {
                stats.scans += result.scans;
            }
            stats.head_macs += result.macs;
            stats.head_epochs += u64::from(config.head.epochs);
            forced_lookups += result.forced_lookups;
            let evaluation = result.evaluation?;
            let reward = log.time(
                "search.reward",
                Some(batch),
                Some(episode + *k as u32),
                || {
                    config
                        .reward_kind
                        .evaluate(&evaluation, &targets, config.reward)
                },
            );
            rewards_by_actions.insert(sampled[*k].actions.clone(), reward);
        }

        let pending: Vec<(SampledEpisode, f32)> = sampled
            .into_iter()
            .map(|s| {
                let reward = rewards_by_actions[&s.actions];
                rewards.push(reward);
                (s, reward)
            })
            .collect();
        log.time("controller.update", Some(batch), None, || {
            controller.update_batch(&pending)
        });
        stats.controller_calls += 1;
        episode += batch_len as u32;
        log.close(batch);
    }
    log.close(root);

    let hits = proxy_cache.hits() + val_cache.hits();
    let misses = proxy_cache.misses() + val_cache.misses();
    // The forced fills above add one lookup per body model per cache; the
    // first lookup of a slot is its miss, every other forced one a hit.
    let real_hits = hits.saturating_sub(forced_lookups.saturating_sub(misses));
    stats.body_hit_ratio = real_hits as f64 / (real_hits + misses).max(1) as f64;
    stats.scans += finiteness_scans() - scans_before;
    stats.rewards = rewards;
    stats.log = log;
    Ok(stats)
}
