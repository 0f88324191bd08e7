//! Workload inputs, generated from the workload seed: the ISIC-like data
//! split and the vanilla pool trained on it.

use muffin::{MuffinSearch, SearchConfig};
use muffin_data::{DatasetSplit, IsicLike};
use muffin_models::{Architecture, BackboneConfig, ModelPool};
use muffin_tensor::Rng64;
use std::time::Instant;

/// Samples in the generated dataset (64/16/20 split).
pub const SAMPLES: usize = 4_000;

/// Set-ups per run, each on a data set of its own; `setup_s` is their
/// median.
pub const SETUP_REPS: usize = 3;

/// The attributes every search targets.
pub const ATTRS: [&str; 2] = ["age", "site"];

/// The paper's vanilla ISIC zoo, in Figure 1 order.
pub fn zoo() -> Vec<Architecture> {
    vec![
        Architecture::shufflenet_v2_x1_0(),
        Architecture::mobilenet_v3_small(),
        Architecture::mobilenet_v2(),
        Architecture::densenet121(),
        Architecture::resnet18(),
        Architecture::resnet34(),
        Architecture::resnet50(),
        Architecture::mobilenet_v3_large(),
    ]
}

/// Wall times of the set-up layers, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub data_ms: f64,
    pub pool_ms: f64,
    pub prepare_ms: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        (self.data_ms + self.pool_ms + self.prepare_ms) / 1e3
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Generates the data and trains the pool, deterministically in `seed`.
pub fn inputs(seed: u64, times: &mut SetupTimes) -> (DatasetSplit, ModelPool) {
    let mut rng = Rng64::seed(seed);
    let start = Instant::now();
    let split = IsicLike::new()
        .with_num_samples(SAMPLES)
        .generate(&mut rng)
        .split_default(&mut rng);
    times.data_ms = ms(start);
    let start = Instant::now();
    let pool = ModelPool::train(&split.train, &zoo(), &BackboneConfig::fast(), &mut rng);
    times.pool_ms = ms(start);
    (split, pool)
}

/// Inputs plus a prepared search (privilege inference and the
/// Algorithm-1 proxy set) under `config`.
pub fn search(seed: u64, config: SearchConfig) -> Result<(MuffinSearch, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let (split, pool) = inputs(seed, &mut times);
    let start = Instant::now();
    let search = MuffinSearch::new(pool, split, config).map_err(|e| e.to_string())?;
    times.prepare_ms = ms(start);
    Ok((search, times))
}

/// Runs `build(k)` for each of the [`SETUP_REPS`] data sets of a run and
/// returns every result with the median set-up time in seconds. Several
/// data sets per run average out what one data set makes cheap or dear
/// (its proxy size, how soon its search converges).
pub fn several<T>(
    mut build: impl FnMut(u64) -> Result<(T, SetupTimes), String>,
) -> Result<(Vec<T>, f64), String> {
    let mut totals = Vec::with_capacity(SETUP_REPS);
    let mut built = Vec::with_capacity(SETUP_REPS);
    for k in 0..SETUP_REPS as u64 {
        let (value, times) = build(k)?;
        totals.push(times.total_s());
        built.push(value);
    }
    Ok((built, crate::report::median(&totals)))
}

/// The seed of a run's `k`-th data set.
pub fn data_seed(seed: u64, k: u64) -> u64 {
    derived_seed(seed, "data", k)
}

/// A seed for the `index`-th repetition of a workload, derived from the
/// workload seed on a stream of its own.
pub fn derived_seed(seed: u64, stream: &str, index: u64) -> u64 {
    let mut s = muffin_tensor::SplitMix64::new(seed ^ muffin::fnv1a64(stream.as_bytes()));
    let mut out = s.next_u64();
    for _ in 0..index {
        out = s.next_u64();
    }
    out
}
