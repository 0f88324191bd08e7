//! The per-layer metrics every traced run reports, whichever workload it
//! traces.

use crate::report::RunResult;
use crate::setup::SetupTimes;
use std::collections::HashMap;

/// Per-layer metrics every traced run reports, in print order, with their
/// units. Layers a workload bypasses read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fusing.train_head_ms", "ms"),
    ("fusing.head_epochs", "count"),
    ("fusing.head_macs", "MAC_computed"),
    ("fusing.eval_ms", "ms"),
    ("tensor.finiteness_scans", "count"),
    ("controller.sample_ms", "ms"),
    ("controller.update_ms", "ms"),
    ("controller.calls", "count"),
    ("body_cache.fill_ms", "ms"),
    ("body_cache.lookup_ms", "ms"),
    ("body_cache.hit_ratio", "ratio"),
    ("search.self_ms", "ms"),
    ("search.cache_hit_ratio", "ratio"),
    ("search.unattributed_ms", "ms"),
    ("par.busy_share", "ratio"),
    ("par.straggler_ms", "ms"),
    ("checkpoint.writes", "count"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("json.fingerprint_ms", "ms"),
    ("sharded.inside_run_ms", "ms"),
    ("sharded.outside_run_ms", "ms"),
    ("sharded.unattributed_ms", "ms"),
    ("sharded.exchanges", "count"),
    ("sharded.disk_hit_ratio", "ratio"),
    ("serve.batch_size_mean", "requests"),
    ("serve.body_us", "us"),
    ("serve.head_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.shed", "count"),
    ("data.generate_ms", "ms"),
    ("models.train_pool_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("json.pool_bytes", "bytes"),
    ("trace.wall_ms", "ms"),
    ("trace.overhead_per_s", "1/s"),
];

/// Collects per-layer values for a traced run and emits all of
/// [`PER_LAYER`], zero-filling layers the workload does not reach.
#[derive(Debug, Default)]
pub struct Layers(HashMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }

    pub fn setup(&mut self, times: &SetupTimes, pool: &muffin_models::ModelPool) {
        self.set("data.generate_ms", times.data_ms);
        self.set("models.train_pool_ms", times.pool_ms);
        self.set("core.prepare_ms", times.prepare_ms);
        self.set("json.pool_bytes", muffin_json::to_string(pool).len() as f64);
    }

    pub fn emit(self, out: &mut RunResult) {
        for &(name, unit) in PER_LAYER {
            out.push(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// `name pct%` for each layer, largest first.
pub fn shares_line(layers: &[(&str, f64)], unattributed: f64, wall: f64) -> String {
    let mut all: Vec<(&str, f64)> = layers.to_vec();
    all.push(("unattributed", unattributed));
    all.sort_by(|a, b| b.1.total_cmp(&a.1));
    all.iter()
        .map(|(n, v)| format!("{n} {:.2}%", 100.0 * v / wall.max(1e-12)))
        .collect::<Vec<_>>()
        .join(", ")
}
