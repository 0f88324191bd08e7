use crate::checkpoint::{
    EvalCacheFile, PersistenceOptions, SearchCheckpoint, SearchFingerprint, CHECKPOINT_VERSION,
};
use crate::{
    Candidate, ControllerConfig, FusingStructure, HeadTrainConfig, MuffinError, PrivilegeMap,
    ProxyDataset, RewardConfig, RewardKind, RnnController, SearchSpace,
};
use muffin_data::{Dataset, DatasetSplit};
use muffin_models::{fnv1a64, ModelEvaluation, ModelPool, PoolRelation};
use muffin_par::WorkerPool;
use muffin_tensor::{Rng64, SplitMix64};
use muffin_trace::{Field, Tracer};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::time::{Duration, Instant};

/// Configuration of a full Muffin search.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Reinforcement-learning episodes (the paper uses 500).
    pub episodes: u32,
    /// Number of body slots the controller fills (paper default: 2).
    pub num_slots: usize,
    /// Names of the unfair attributes being optimised (e.g. age and site).
    pub target_attributes: Vec<String>,
    /// Muffin-head training configuration.
    pub head: HeadTrainConfig,
    /// Reward configuration (Eq. 3).
    pub reward: RewardConfig,
    /// Reward shape (the paper's Eq. 3 ratio by default; alternatives for
    /// the reward ablation).
    pub reward_kind: RewardKind,
    /// Controller hyper-parameters (Eq. 4).
    pub controller: ControllerConfig,
    /// Margin used when inferring unprivileged groups from the pool.
    pub privilege_margin: f32,
    /// Pool models forced into every candidate's body (Table I fixes the
    /// base model and searches only for its partner).
    pub required_models: Vec<usize>,
    /// REINFORCE batch size `m` of Eq. 4: the controller accumulates this
    /// many episodes before each policy update.
    pub reinforce_batch: usize,
    /// Explicit search space overriding the paper default built by
    /// [`MuffinSearch::space`]. When set, its pool size must match the
    /// model pool; `num_slots`/`required_models` are read from the space
    /// itself. Mainly for tests that need a small, exactly-enumerable
    /// space.
    pub space: Option<SearchSpace>,
}

muffin_json::impl_json!(struct SearchConfig {
    episodes, num_slots, target_attributes, head, reward, reward_kind, controller,
    privilege_margin, required_models, reinforce_batch, space,
});

impl SearchConfig {
    /// The paper's configuration for the given unfair attributes:
    /// 500 episodes, two body slots.
    pub fn paper(target_attributes: &[&str]) -> Self {
        Self {
            episodes: 500,
            num_slots: 2,
            target_attributes: target_attributes.iter().map(|s| s.to_string()).collect(),
            head: HeadTrainConfig::default(),
            reward: RewardConfig::default(),
            reward_kind: RewardKind::PaperRatio,
            controller: ControllerConfig::default(),
            privilege_margin: 0.02,
            required_models: Vec::new(),
            reinforce_batch: 1,
            space: None,
        }
    }

    /// A fast configuration for tests and examples (few episodes).
    pub fn fast(target_attributes: &[&str]) -> Self {
        Self {
            episodes: 30,
            head: HeadTrainConfig::fast(),
            ..Self::paper(target_attributes)
        }
    }

    /// Overrides the episode budget.
    pub fn with_episodes(mut self, episodes: u32) -> Self {
        self.episodes = episodes;
        self
    }

    /// Overrides the number of body slots.
    pub fn with_slots(mut self, num_slots: usize) -> Self {
        self.num_slots = num_slots;
        self
    }

    /// Forces pool models into every candidate's body.
    pub fn with_required_models(mut self, required: Vec<usize>) -> Self {
        self.required_models = required;
        self
    }

    /// Overrides the reward shape (ablation).
    pub fn with_reward_kind(mut self, kind: RewardKind) -> Self {
        self.reward_kind = kind;
        self
    }

    /// Overrides the Eq. 4 REINFORCE batch size `m`.
    pub fn with_reinforce_batch(mut self, m: usize) -> Self {
        self.reinforce_batch = m;
        self
    }

    /// Overrides the search space (see [`SearchConfig::space`]).
    pub fn with_space(mut self, space: SearchSpace) -> Self {
        self.space = Some(space);
        self
    }
}

/// Metrics of one evaluated candidate during the search.
#[derive(Debug, Clone)]
pub struct EpisodeRecord {
    /// Episode number (0-based). Re-evaluations of a cached candidate keep
    /// the episode index of their first evaluation in `first_seen`.
    pub episode: u32,
    /// The controller's raw action vector.
    pub actions: Vec<usize>,
    /// Names of the selected body models.
    pub model_names: Vec<String>,
    /// Head description, e.g. `[16,18,12,8] relu`.
    pub head_desc: String,
    /// Validation accuracy of the fused model.
    pub accuracy: f32,
    /// Validation unfairness per target attribute, in config order.
    pub unfairness: Vec<f32>,
    /// Eq. 3 reward.
    pub reward: f32,
    /// Trainable parameters in the head.
    pub head_params: usize,
    /// Total parameters including frozen bodies (reported CNN sizes).
    pub total_params: u64,
    /// Seed used for head initialisation/training, for exact rebuilds.
    pub head_seed: u64,
    /// Episode at which this candidate was first evaluated.
    pub first_seen: u32,
}

muffin_json::impl_json!(struct EpisodeRecord {
    episode, actions, model_names, head_desc, accuracy, unfairness, reward,
    head_params, total_params, head_seed, first_seen,
});

impl EpisodeRecord {
    /// The record of a candidate first evaluated at `episode`: its
    /// validation metrics, the search's reward for them and the sizes of
    /// the trained structure. Every search strategy builds its records
    /// here.
    pub(crate) fn evaluated(
        search: &MuffinSearch,
        actions: Vec<usize>,
        candidate: &Candidate,
        (fusing, eval): &(FusingStructure, ModelEvaluation),
        head_seed: u64,
        episode: u32,
    ) -> Self {
        let config = search.config();
        let target_names: Vec<&str> = config
            .target_attributes
            .iter()
            .map(String::as_str)
            .collect();
        Self {
            episode,
            actions,
            model_names: candidate
                .model_indices
                .iter()
                .filter_map(|&i| search.pool().get(i))
                .map(|m| m.name().to_string())
                .collect(),
            head_desc: candidate.head.to_string(),
            accuracy: eval.accuracy,
            unfairness: target_names
                .iter()
                .map(|n| eval.attribute(n).map_or(f32::NAN, |a| a.unfairness))
                .collect(),
            reward: config
                .reward_kind
                .evaluate(eval, &target_names, config.reward),
            head_params: fusing.head_param_count(),
            total_params: fusing.total_reported_params(search.pool()),
            head_seed,
            first_seen: episode,
        }
    }
}

/// Result of a completed search: full history plus the best structures.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// One record per episode (cached candidates repeat their metrics).
    pub history: Vec<EpisodeRecord>,
    /// Index into `history` of the highest-reward candidate.
    pub best_by_reward: usize,
    /// The names of the targeted attributes, in reward order.
    pub target_attributes: Vec<String>,
}

muffin_json::impl_json!(struct SearchOutcome { history, best_by_reward, target_attributes });

impl SearchOutcome {
    /// Distinct evaluated candidates (first occurrence of each action
    /// vector).
    pub fn distinct(&self) -> Vec<&EpisodeRecord> {
        let mut seen = std::collections::HashSet::new();
        self.history
            .iter()
            .filter(|r| seen.insert(r.actions.clone()))
            .collect()
    }

    /// The best record overall by reward.
    pub fn best(&self) -> &EpisodeRecord {
        &self.history[self.best_by_reward]
    }

    /// Lexicographic (unfairness ↑, reward ↓) order used by the `best_*`
    /// selectors. `total_cmp` keeps the comparator a total order even if a
    /// reward is NaN (NaN rewards lose ties instead of winning randomly).
    fn selection_order(ua: f32, ra: f32, ub: f32, rb: f32) -> std::cmp::Ordering {
        ua.total_cmp(&ub).then(rb.total_cmp(&ra))
    }

    /// The distinct record with the lowest unfairness on `attr_index`
    /// (ties broken by reward) — the paper's Muffin-Age / Muffin-Site /
    /// Muffin-Balance selections.
    ///
    /// Records whose unfairness on `attr_index` is missing or non-finite
    /// (`run` stores NaN when an attribute was absent from an evaluation)
    /// are excluded: a NaN entry must never win the paper's Table I picks.
    pub fn best_for_attribute(&self, attr_index: usize) -> Option<&EpisodeRecord> {
        self.distinct()
            .into_iter()
            .filter(|r| attr_index < r.unfairness.len() && r.unfairness[attr_index].is_finite())
            .min_by(|a, b| {
                Self::selection_order(
                    a.unfairness[attr_index],
                    a.reward,
                    b.unfairness[attr_index],
                    b.reward,
                )
            })
    }

    /// The distinct record with the lowest **summed** unfairness over all
    /// targets (Muffin-Balance in the Fitzpatrick experiment).
    ///
    /// Records with any non-finite unfairness entry are excluded — one NaN
    /// would poison the sum and the comparison.
    pub fn best_balanced(&self) -> Option<&EpisodeRecord> {
        self.distinct()
            .into_iter()
            .filter(|r| r.unfairness.iter().all(|u| u.is_finite()))
            .min_by(|a, b| {
                let ua: f32 = a.unfairness.iter().sum();
                let ub: f32 = b.unfairness.iter().sum();
                Self::selection_order(ua, a.reward, ub, b.reward)
            })
    }

    /// Like [`SearchOutcome::best_for_attribute`] but restricted to
    /// candidates that genuinely **unite** at least two models — the
    /// paper's Muffin-Age / Muffin-Site always pair models; degenerate
    /// single-model bodies (duplicate slot picks) are excluded.
    pub fn best_united_for_attribute(&self, attr_index: usize) -> Option<&EpisodeRecord> {
        self.distinct()
            .into_iter()
            .filter(|r| {
                r.model_names.len() >= 2
                    && attr_index < r.unfairness.len()
                    && r.unfairness[attr_index].is_finite()
            })
            .min_by(|a, b| {
                Self::selection_order(
                    a.unfairness[attr_index],
                    a.reward,
                    b.unfairness[attr_index],
                    b.reward,
                )
            })
    }

    /// Like [`SearchOutcome::best_balanced`] but restricted to candidates
    /// uniting at least two models.
    pub fn best_united_balanced(&self) -> Option<&EpisodeRecord> {
        self.distinct()
            .into_iter()
            .filter(|r| r.model_names.len() >= 2 && r.unfairness.iter().all(|u| u.is_finite()))
            .min_by(|a, b| {
                let ua: f32 = a.unfairness.iter().sum();
                let ub: f32 = b.unfairness.iter().sum();
                Self::selection_order(ua, a.reward, ub, b.reward)
            })
    }

    /// Serialises the outcome to a JSON file so search histories can be
    /// archived or plotted externally.
    ///
    /// # Errors
    ///
    /// Returns an error string if serialisation or the write fails.
    pub fn save_json(&self, path: impl AsRef<std::path::Path>) -> Result<(), String> {
        let json = muffin_json::to_string(self);
        std::fs::write(path, json).map_err(|e| e.to_string())
    }

    /// Loads an outcome previously written by [`SearchOutcome::save_json`].
    ///
    /// # Errors
    ///
    /// Returns an error string if the file cannot be read or parsed, or
    /// if `best_by_reward` does not index a record of a non-empty
    /// `history` (so [`SearchOutcome::best`] cannot panic on a loaded
    /// outcome).
    pub fn load_json(path: impl AsRef<std::path::Path>) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let outcome: Self = muffin_json::from_str(&text).map_err(|e| e.to_string())?;
        if outcome.history.is_empty() {
            return Err("outcome history is empty: best_by_reward has no record to index".into());
        }
        if outcome.best_by_reward >= outcome.history.len() {
            return Err(format!(
                "outcome best_by_reward {} is out of range for a history of {} record(s)",
                outcome.best_by_reward,
                outcome.history.len()
            ));
        }
        Ok(outcome)
    }
}

/// The Muffin automated tool: iterates components ①–④ of the paper's
/// framework — sample a model-fusing structure, train its head on the
/// fairness proxy dataset, compute the multi-fairness reward, and update
/// the RNN controller.
///
/// # Example
///
/// ```no_run
/// use muffin::{MuffinSearch, SearchConfig};
/// use muffin_data::IsicLike;
/// use muffin_models::{Architecture, BackboneConfig, ModelPool};
/// use muffin_tensor::Rng64;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = Rng64::seed(7);
/// let split = IsicLike::new().generate(&mut rng).split_default(&mut rng);
/// let pool = ModelPool::train(
///     &split.train,
///     &[Architecture::resnet18(), Architecture::densenet121()],
///     &BackboneConfig::default(),
///     &mut rng,
/// );
/// let search = MuffinSearch::new(pool, split, SearchConfig::paper(&["age", "site"]))?;
/// let outcome = search.run(&mut rng)?;
/// println!("best reward {:.2}", outcome.best().reward);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MuffinSearch {
    pool: ModelPool,
    split: DatasetSplit,
    config: SearchConfig,
    privilege: PrivilegeMap,
    proxy: ProxyDataset,
    tracer: Tracer,
}

/// The per-run [`BodyOutputCache`]s a search shares across all candidate
/// evaluations: one over the proxy subset of the training features (head
/// training inputs) and one over the validation features (candidate
/// evaluation), plus the proxy labels both paths need.
struct RunBodyCaches<'p> {
    proxy: crate::BodyOutputCache<'p>,
    val: crate::BodyOutputCache<'p>,
    proxy_labels: Vec<usize>,
}

impl MuffinSearch {
    /// Prepares a search: infers the privilege map from the pool on the
    /// validation split and builds the Algorithm-1 proxy dataset.
    ///
    /// # Errors
    ///
    /// Returns an error if the pool is empty, the configuration is
    /// inconsistent with it, an attribute name is unknown, or no
    /// unprivileged samples exist.
    pub fn new(
        pool: ModelPool,
        split: DatasetSplit,
        config: SearchConfig,
    ) -> Result<Self, MuffinError> {
        Self::validate(&pool, &config)?;
        let attrs: Result<Vec<_>, _> = config
            .target_attributes
            .iter()
            .map(|name| {
                split
                    .train
                    .schema()
                    .by_name(name)
                    .ok_or_else(|| MuffinError::UnknownAttribute(name.clone()))
            })
            .collect();
        let privilege = PrivilegeMap::infer(&pool, &split.val, &attrs?, config.privilege_margin);
        Self::assemble(pool, split, config, privilege)
    }

    /// Prepares a search with an explicitly provided privilege map
    /// (skipping inference).
    ///
    /// # Errors
    ///
    /// Same as [`MuffinSearch::new`].
    pub fn with_privilege(
        pool: ModelPool,
        split: DatasetSplit,
        config: SearchConfig,
        privilege: PrivilegeMap,
    ) -> Result<Self, MuffinError> {
        Self::validate(&pool, &config)?;
        Self::assemble(pool, split, config, privilege)
    }

    /// The configuration checks both constructors share: everything the
    /// search loop and [`MuffinSearch::space`] would otherwise panic on.
    fn validate(pool: &ModelPool, config: &SearchConfig) -> Result<(), MuffinError> {
        if pool.is_empty() {
            return Err(MuffinError::EmptyPool);
        }
        if config.episodes == 0 {
            return Err(MuffinError::InvalidConfig(
                "episodes must be positive".into(),
            ));
        }
        if config.reinforce_batch == 0 {
            return Err(MuffinError::InvalidConfig(
                "reinforce_batch must be positive".into(),
            ));
        }
        if config.head.batch_size == 0 {
            return Err(MuffinError::InvalidConfig(
                "head.batch_size must be positive".into(),
            ));
        }
        if let Some(&bad) = config.required_models.iter().find(|&&i| i >= pool.len()) {
            return Err(MuffinError::InvalidConfig(format!(
                "required model {bad} out of range for pool of {}",
                pool.len()
            )));
        }
        match &config.space {
            Some(space) if space.pool_size() != pool.len() => {
                Err(MuffinError::InvalidConfig(format!(
                    "config.space is over a pool of {}, actual pool has {}",
                    space.pool_size(),
                    pool.len()
                )))
            }
            None if config.num_slots == 0 => Err(MuffinError::InvalidConfig(
                "num_slots must be positive".into(),
            )),
            _ => Ok(()),
        }
    }

    fn assemble(
        pool: ModelPool,
        split: DatasetSplit,
        config: SearchConfig,
        privilege: PrivilegeMap,
    ) -> Result<Self, MuffinError> {
        let proxy = ProxyDataset::build(&split.train, &privilege)?;
        Ok(Self {
            pool,
            split,
            config,
            privilege,
            proxy,
            tracer: Tracer::noop(),
        })
    }

    /// Attaches a tracer: every run records spans for episodes, head
    /// training epochs and batch evaluations, plus cache-hit counters.
    ///
    /// The default is the no-op tracer, and tracing never touches any RNG,
    /// so the [`SearchOutcome`] is bit-identical with tracing on or off
    /// (enforced by the golden-snapshot and trace-determinism suites).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The tracer runs record into ([`Tracer::noop`] unless
    /// [`MuffinSearch::with_tracer`] was used).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The model pool being searched over.
    pub fn pool(&self) -> &ModelPool {
        &self.pool
    }

    /// The train/val/test split driving the search.
    pub fn split(&self) -> &DatasetSplit {
        &self.split
    }

    /// The inferred (or supplied) privilege map.
    pub fn privilege(&self) -> &PrivilegeMap {
        &self.privilege
    }

    /// The Algorithm-1 proxy dataset.
    pub fn proxy(&self) -> &ProxyDataset {
        &self.proxy
    }

    /// The search configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Trains and evaluates one candidate on a dataset, returning the
    /// trained structure and its evaluation. Deterministic in `head_seed`;
    /// records head-training spans and prediction latency into `tracer`.
    ///
    /// # Errors
    ///
    /// Propagates candidate-construction errors.
    pub fn evaluate_candidate(
        &self,
        candidate: &Candidate,
        eval_on: &Dataset,
        head_seed: u64,
        tracer: &Tracer,
    ) -> Result<(FusingStructure, ModelEvaluation), MuffinError> {
        let mut head_rng = Rng64::seed(head_seed);
        let mut fusing = FusingStructure::new(
            candidate.model_indices.clone(),
            candidate.head.clone(),
            &self.pool,
            &mut head_rng,
        )?;
        fusing.train_head(
            &self.pool,
            &self.split.train,
            &self.proxy,
            &self.config.head,
            &mut head_rng,
            tracer,
        );
        let eval = fusing.evaluate(&self.pool, eval_on, tracer);
        Ok((fusing, eval))
    }

    /// Like [`MuffinSearch::evaluate_candidate`] but with all body
    /// forward passes served from the run's shared [`crate::BodyOutputCache`]s.
    ///
    /// Draws from the head RNG in exactly the same order as the uncached
    /// path (seed → head init → training), so the trained structure and
    /// its evaluation are bit-identical.
    fn evaluate_candidate_cached(
        &self,
        candidate: &Candidate,
        caches: &RunBodyCaches<'_>,
        head_seed: u64,
        tracer: &Tracer,
    ) -> Result<(FusingStructure, ModelEvaluation), MuffinError> {
        let mut head_rng = Rng64::seed(head_seed);
        let mut fusing = FusingStructure::new(
            candidate.model_indices.clone(),
            candidate.head.clone(),
            &self.pool,
            &mut head_rng,
        )?;
        let inputs = caches.proxy.head_inputs(&candidate.model_indices);
        fusing.train_head_on_inputs_traced(
            &inputs,
            &caches.proxy_labels,
            self.proxy.weights(),
            &self.config.head,
            &mut head_rng,
            tracer,
        );
        let eval = fusing.evaluate_cached_traced(&self.pool, &caches.val, &self.split.val, tracer);
        Ok((fusing, eval))
    }

    /// Rebuilds the trained structure of a history record exactly.
    ///
    /// # Errors
    ///
    /// Propagates candidate-construction errors.
    pub fn rebuild(&self, record: &EpisodeRecord) -> Result<FusingStructure, MuffinError> {
        let space = self.space();
        let candidate = space.decode(&record.actions)?;
        let (fusing, _) = self.evaluate_candidate(
            &candidate,
            &self.split.val,
            record.head_seed,
            &Tracer::noop(),
        )?;
        Ok(fusing)
    }

    /// The controller search space for this pool and configuration: the
    /// explicit [`SearchConfig::space`] override when set, else the paper
    /// default shaped by `num_slots`/`required_models`.
    pub fn space(&self) -> SearchSpace {
        if let Some(space) = &self.config.space {
            return space.clone();
        }
        SearchSpace::paper_default(self.pool.len())
            .with_slots(self.config.num_slots)
            .expect("validated num_slots")
            .with_required_models(self.config.required_models.clone())
            .expect("validated required models")
    }

    /// Runs the reinforcement-learning loop serially and returns the
    /// history. Equivalent to [`MuffinSearch::run_with_pool`] with a
    /// single-worker pool — and guaranteed to produce the **same outcome**
    /// as any parallel run with the same `rng` seed.
    ///
    /// # Errors
    ///
    /// Propagates candidate-construction errors (which indicate a bug, not
    /// a user error, since sampled actions are always in range).
    pub fn run(&self, rng: &mut Rng64) -> Result<SearchOutcome, MuffinError> {
        self.run_with_pool(rng, &WorkerPool::serial())
    }

    /// Runs the reinforcement-learning loop, evaluating each REINFORCE
    /// batch's uncached candidates on `pool`.
    ///
    /// Candidates are trained once and cached by action vector; repeated
    /// samples reuse the cached metrics (the controller still receives the
    /// reward each time, as in the paper's episode loop).
    ///
    /// **Determinism:** the outcome is bit-identical for every worker
    /// count. REINFORCE (Eq. 4) only needs episode rewards at the batch
    /// boundary, so each batch is processed in three phases:
    ///
    /// 1. sample the whole batch from the controller on the caller's RNG
    ///    stream (policy is frozen within a batch);
    /// 2. evaluate the batch's distinct uncached candidates concurrently —
    ///    each evaluation is a pure function of (candidate, head seed),
    ///    with head seeds pre-derived per episode from a [`SplitMix64`]
    ///    stream that is split off the caller's RNG once at the start;
    /// 3. merge the records back in episode order and apply one batched
    ///    policy update.
    ///
    /// Because no evaluation touches the shared RNG and results are merged
    /// index-ordered, scheduling cannot influence the search trajectory.
    ///
    /// # Errors
    ///
    /// Same as [`MuffinSearch::run`].
    pub fn run_with_pool(
        &self,
        rng: &mut Rng64,
        pool: &WorkerPool,
    ) -> Result<SearchOutcome, MuffinError> {
        self.run_persistent(rng, pool, &PersistenceOptions::default())
    }

    /// Builds the staleness fingerprint of a run starting from the given
    /// caller-RNG state: the exact identity a checkpoint or evaluation
    /// cache must carry to be replayed into this search.
    fn fingerprint(&self, rng_state: [u64; 4]) -> SearchFingerprint {
        SearchFingerprint::new(
            rng_state,
            &self.config,
            &self.space(),
            &muffin_json::to_string(&self.pool),
            self.pool.manifest(),
            &muffin_json::to_string(&self.split),
        )
    }

    /// Opens the `search.run` span one stretch of the episode loop
    /// records into: a whole [`MuffinSearch::run_persistent`] call, or one
    /// island's segment between two sharded round barriers.
    pub(crate) fn run_span(&self) -> muffin_trace::Span<'_> {
        let mut span = self.tracer.span("search.run");
        span.field("episodes", self.config.episodes as usize);
        span.field("slots", self.config.num_slots);
        span.field("pool_models", self.pool.len());
        span.field("reinforce_batch", self.config.reinforce_batch);
        span
    }

    /// Like [`MuffinSearch::run_with_pool`], with durable persistence.
    ///
    /// Depending on `opts`, the run additionally:
    ///
    /// * writes a [`SearchCheckpoint`] atomically at REINFORCE batch
    ///   boundaries (`checkpoint` + `checkpoint_every`);
    /// * **resumes** from such a checkpoint (`resume`), continuing the
    ///   interrupted trajectory so the final [`SearchOutcome`] is
    ///   byte-identical to an uninterrupted run at any worker count;
    /// * loads and rewrites a cross-run [`EvalCacheFile`] (`eval_cache`),
    ///   skipping head training for candidates already evaluated by an
    ///   earlier run with the same fingerprint — each skipped evaluation
    ///   is counted on the `search.cache_hit_disk` tracer counter;
    /// * halts gracefully at the first batch boundary at or past
    ///   `halt_after`, writing a checkpoint and returning
    ///   [`MuffinError::Halted`] (deterministic kill simulation for
    ///   tests and operator drills).
    ///
    /// Checkpoints are only taken at batch boundaries because the policy
    /// update schedule is part of the trajectory: resuming mid-batch
    /// under a different episode budget would realign the Eq. 4 update
    /// boundaries and silently diverge. For the same reason a resumed
    /// run must share the checkpoint's REINFORCE batch size, which the
    /// fingerprint enforces.
    ///
    /// # Errors
    ///
    /// In addition to [`MuffinSearch::run`]'s errors:
    ///
    /// * [`MuffinError::InvalidConfig`] if `resume` or `halt_after` is
    ///   set without a `checkpoint` path;
    /// * [`MuffinError::Io`] / [`MuffinError::StaleArtifact`] for
    ///   unreadable, corrupt or mismatched persistence files;
    /// * [`MuffinError::Halted`] when `halt_after` stops the run early.
    pub fn run_persistent(
        &self,
        rng: &mut Rng64,
        pool: &WorkerPool,
        opts: &PersistenceOptions,
    ) -> Result<SearchOutcome, MuffinError> {
        if opts.resume && opts.checkpoint.is_none() {
            return Err(MuffinError::InvalidConfig(
                "resume requires a checkpoint path".into(),
            ));
        }
        if opts.halt_after.is_some() && opts.checkpoint.is_none() {
            return Err(MuffinError::InvalidConfig(
                "halt_after requires a checkpoint path".into(),
            ));
        }
        // Serialising the pool and split for hashing is not free; skip it
        // entirely for plain in-memory runs.
        let fingerprint = (opts.checkpoint.is_some() || opts.eval_cache.is_some())
            .then(|| self.fingerprint(rng.state()));
        let tracer = &self.tracer;
        let run_span = self.run_span();

        let (mut state, pool_grew) = match (&opts.checkpoint, &fingerprint) {
            (Some(path), Some(fp)) if opts.resume => {
                // Resuming also accepts a checkpoint written against a
                // pool that has since grown by appended models.
                let (ckpt, relation) = SearchCheckpoint::load_for_resume(path, fp)?;
                let grew = matches!(relation, PoolRelation::Grew { .. });
                let state = SearchState::from_checkpoint(self, rng, path, ckpt, &relation)?;
                (state, grew)
            }
            _ => (SearchState::fresh(self, rng), false),
        };

        if let (Some(path), Some(fp)) = (&opts.eval_cache, &fingerprint) {
            if let Some((mut file, relation)) = EvalCacheFile::load_warm(path, fp)? {
                if matches!(relation, PoolRelation::Grew { .. }) {
                    // The cache predates the pool extension: translate
                    // every record's chosen models through their content
                    // ids into current pool indices (the identity map
                    // under prefix growth, but keyed by id on principle).
                    let dropped =
                        file.rekey_records(state.space.num_slots(), &self.pool.manifest());
                    if dropped > 0 {
                        tracer.progress(|| {
                            format!(
                                "eval cache {}: dropped {dropped} record(s) naming models \
                                 absent from the current pool",
                                path.display()
                            )
                        });
                    }
                }
                tracer.progress(|| {
                    format!(
                        "eval cache {}: {} record(s)",
                        path.display(),
                        file.records.len()
                    )
                });
                state.seed_cache(&file.records);
            }
        }
        if pool_grew {
            state.revalidate_best()?;
        }

        let episodes = self.config.episodes;
        let mut last_checkpoint = state.episode();
        while state.episode() < episodes {
            state.step_batch(pool)?;
            let episode = state.episode();
            let halting = opts
                .halt_after
                .is_some_and(|h| episode >= h && episode < episodes);
            if let (Some(path), Some(fp)) = (&opts.checkpoint, &fingerprint) {
                let due = episode - last_checkpoint >= opts.checkpoint_every
                    || episode == episodes
                    || halting;
                if due {
                    state.checkpoint(fp).save(path)?;
                    last_checkpoint = episode;
                    tracer.count("search.checkpoint_write", 1);
                }
            }
            if halting {
                self.write_eval_cache(opts, &fingerprint, &state)?;
                run_span.finish();
                return Err(MuffinError::Halted { episode });
            }
        }
        run_span.finish();
        self.write_eval_cache(opts, &fingerprint, &state)?;
        Ok(state.into_outcome())
    }

    /// Rewrites the cross-run evaluation cache (when configured) with the
    /// union of what was loaded and what this run evaluated, merging with
    /// any concurrent writer's entries ([`EvalCacheFile::save_merged`]).
    fn write_eval_cache(
        &self,
        opts: &PersistenceOptions,
        fingerprint: &Option<SearchFingerprint>,
        state: &SearchState<'_>,
    ) -> Result<(), MuffinError> {
        let (Some(path), Some(fp)) = (&opts.eval_cache, fingerprint) else {
            return Ok(());
        };
        let file = EvalCacheFile {
            version: CHECKPOINT_VERSION,
            fingerprint: fp.clone(),
            records: state.cache_records(),
        };
        file.save_merged(path)
    }
}

/// Everything the episode loop carries from one REINFORCE batch to the
/// next, held in memory: the caller's RNG, the pre-derived head seeds, the
/// controller, the history, the evaluation cache and the run's frozen-body
/// caches.
///
/// [`SearchState::step_batch`] is the loop's only step.
/// [`MuffinSearch::run_persistent`] drives one state to the episode
/// budget, and [`crate::run_sharded`] drives one per island, round by
/// round, without ever reloading it from disk.
pub(crate) struct SearchState<'s> {
    search: &'s MuffinSearch,
    space: SearchSpace,
    rng: &'s mut Rng64,
    seed_stream_seed: u64,
    /// Per-episode head seeds, pre-derived so evaluation order (and the
    /// cache hit pattern) can never perturb the controller's stream.
    head_seeds: Vec<u64>,
    controller: RnnController,
    history: Vec<EpisodeRecord>,
    cache: HashMap<Vec<usize>, EpisodeRecord>,
    /// Action vectors of the last [`SearchState::seed_cache`] input.
    disk_origin: HashSet<Vec<usize>>,
    best_idx: usize,
    best_reward: f32,
    /// Round-tripped verbatim through every checkpoint: only the sharded
    /// supervisor advances it, through [`SearchState::apply_elites`].
    exchanges_applied: u32,
    /// Frozen-body outputs never change within a run: each (model ×
    /// split) forward runs once, lazily, shared read-only across all
    /// candidate evaluations and workers.
    bodies: RunBodyCaches<'s>,
    body_hits: u64,
    body_misses: u64,
}

impl<'s> SearchState<'s> {
    /// A new run: the controller consumes the caller's RNG first, then one
    /// draw seeds the head-seed stream.
    pub(crate) fn fresh(search: &'s MuffinSearch, rng: &'s mut Rng64) -> Self {
        let space = search.space();
        let controller = RnnController::new(space.clone(), search.config.controller, rng);
        let seed_stream_seed = rng.next_u64();
        Self::assemble(search, space, rng, controller, seed_stream_seed, Vec::new())
    }

    /// Continues the run `ckpt` snapshots. `relation` says how the current
    /// pool relates to the checkpoint's: identical, or grown by appended
    /// models (a warm start over the extended space).
    ///
    /// The controller still consumes the caller's RNG first, so
    /// construction order stays a frozen part of the stream contract; its
    /// parameters and the RNG are then overwritten from the checkpoint.
    pub(crate) fn from_checkpoint(
        search: &'s MuffinSearch,
        rng: &'s mut Rng64,
        path: &Path,
        ckpt: SearchCheckpoint,
        relation: &PoolRelation,
    ) -> Result<Self, MuffinError> {
        let space = search.space();
        let mut controller = RnnController::new(space.clone(), search.config.controller, rng);
        let episodes = search.config.episodes;
        if ckpt.episode > episodes {
            return Err(MuffinError::StaleArtifact(format!(
                "checkpoint {} already covers {} episodes, more than the requested {episodes}",
                path.display(),
                ckpt.episode,
            )));
        }
        // A checkpoint ending mid-batch (the final snapshot of a finished
        // run whose last batch was partial) can only stand in for a run
        // with that same episode budget.
        let on_boundary = ckpt.episode % search.config.reinforce_batch as u32 == 0;
        if !on_boundary && ckpt.episode != episodes {
            return Err(MuffinError::StaleArtifact(format!(
                "checkpoint {} ends mid-batch at episode {} (written by a {}-episode run); \
                 it can only resume a run with that same episode budget",
                path.display(),
                ckpt.episode,
                ckpt.target_episodes
            )));
        }
        match relation {
            PoolRelation::Identical => controller.import_state(ckpt.controller)?,
            PoolRelation::Grew { added } => {
                // Warm start over the grown pool: rebuild the controller
                // for the new space from a deterministic extension stream
                // (so the new models' logits and embedding rows are
                // reproducible), then graft every learned parameter and
                // optimizer moment back in.
                let ext_seed =
                    SplitMix64::new(ckpt.seed_stream_seed ^ fnv1a64(b"pool-extension")).next_u64();
                controller = RnnController::new(
                    space.clone(),
                    search.config.controller,
                    &mut Rng64::seed(ext_seed),
                );
                controller.import_extended(&ckpt.fingerprint.space, ckpt.controller)?;
                let names: Vec<String> = added.iter().map(ToString::to_string).collect();
                search.tracer.progress(|| {
                    format!(
                        "pool grew since checkpoint: warm-starting over {} added model(s): {}",
                        names.len(),
                        names.join(", ")
                    )
                });
            }
            PoolRelation::Changed { .. } => {
                return Err(MuffinError::StaleArtifact(
                    "checkpoint pool relation must be identical or grown".into(),
                ))
            }
        }
        *rng = Rng64::from_state(ckpt.rng_state);
        let mut state = Self::assemble(
            search,
            space,
            rng,
            controller,
            ckpt.seed_stream_seed,
            ckpt.history,
        );
        state.exchanges_applied = ckpt.exchanges_applied;
        state.cache = ckpt
            .cache
            .into_iter()
            .map(|record| (record.actions.clone(), record))
            .collect();
        search.tracer.progress(|| {
            format!(
                "resumed from {} at episode {}",
                path.display(),
                state.episode()
            )
        });
        Ok(state)
    }

    fn assemble(
        search: &'s MuffinSearch,
        space: SearchSpace,
        rng: &'s mut Rng64,
        controller: RnnController,
        seed_stream_seed: u64,
        history: Vec<EpisodeRecord>,
    ) -> Self {
        let mut seed_stream = SplitMix64::new(seed_stream_seed);
        let head_seeds = (0..search.config.episodes)
            .map(|_| seed_stream.next_u64())
            .collect();
        let bodies = RunBodyCaches {
            proxy: crate::BodyOutputCache::new(
                &search.pool,
                search
                    .split
                    .train
                    .features()
                    .select_rows(search.proxy.indices()),
            ),
            val: crate::BodyOutputCache::new(&search.pool, search.split.val.features().clone()),
            proxy_labels: search
                .proxy
                .indices()
                .iter()
                .map(|&i| search.split.train.labels()[i])
                .collect(),
        };
        let mut state = Self {
            search,
            space,
            rng,
            seed_stream_seed,
            head_seeds,
            controller,
            history: Vec::with_capacity(search.config.episodes as usize),
            cache: HashMap::new(),
            disk_origin: HashSet::new(),
            best_idx: 0,
            best_reward: f32::MIN,
            exchanges_applied: 0,
            bodies,
            body_hits: 0,
            body_misses: 0,
        };
        // Replaying best-candidate tracking over a restored history is
        // identical to having tracked it live.
        for record in history {
            state.push(record);
        }
        state
    }

    /// The search this state steps.
    pub(crate) fn search(&self) -> &'s MuffinSearch {
        self.search
    }

    /// Completed episodes.
    pub(crate) fn episode(&self) -> u32 {
        self.history.len() as u32
    }

    /// Elite-exchange rounds folded into the controller so far.
    pub(crate) fn exchanges_applied(&self) -> u32 {
        self.exchanges_applied
    }

    /// One record per completed episode, in order.
    pub(crate) fn history(&self) -> &[EpisodeRecord] {
        &self.history
    }

    /// The evaluation cache, sorted by action vector.
    pub(crate) fn cache_records(&self) -> Vec<EpisodeRecord> {
        let mut records: Vec<EpisodeRecord> = self.cache.values().cloned().collect();
        records.sort_by(|a, b| a.actions.cmp(&b.actions));
        records
    }

    /// Adds evaluations made elsewhere (an eval-cache file, a sharded
    /// round snapshot) to the cache; an entry already present wins.
    /// Episodes served by these records count on `search.cache_hit_disk`
    /// until the next call.
    pub(crate) fn seed_cache(&mut self, records: &[EpisodeRecord]) {
        self.disk_origin = records.iter().map(|r| r.actions.clone()).collect();
        for record in records {
            self.cache
                .entry(record.actions.clone())
                .or_insert_with(|| record.clone());
        }
    }

    /// After a pool extension, the cached records were re-keyed through
    /// model content ids. Re-validates the best candidate so far from the
    /// cache: its action vector must still unite exactly the models its
    /// episode recorded, or the re-keying (or a pool edit the fingerprint
    /// could not see) scrambled model identity.
    fn revalidate_best(&self) -> Result<(), MuffinError> {
        let tracer = &self.search.tracer;
        let best = self
            .history
            .iter()
            .max_by(|a, b| a.reward.total_cmp(&b.reward));
        let Some(best) = best else {
            return Ok(());
        };
        match self.cache.get(&best.actions) {
            Some(record) if record.model_names == best.model_names => {
                // Served from cache, not re-evaluated; the disk counter
                // keeps its meaning of "episodes answered by records
                // loaded from --eval-cache".
                if self.disk_origin.contains(&best.actions) {
                    tracer.count("search.cache_hit_disk", 1);
                }
                let names = record.model_names.join(" + ");
                tracer.progress(|| {
                    format!("re-validated best candidate ({names}) from the eval cache")
                });
                Ok(())
            }
            Some(record) => Err(MuffinError::StaleArtifact(format!(
                "eval cache re-keying maps the best candidate to {}, but its \
                 episode recorded {}",
                record.model_names.join(" + "),
                best.model_names.join(" + ")
            ))),
            None => Ok(()),
        }
    }

    fn push(&mut self, record: EpisodeRecord) {
        if record.reward > self.best_reward {
            self.best_reward = record.reward;
            self.best_idx = self.history.len();
        }
        self.history.push(record);
    }

    /// Runs one REINFORCE batch — the only place the loop samples,
    /// evaluates, merges and updates the policy (see
    /// [`MuffinSearch::run_with_pool`] for the three phases). The batch
    /// ends at the next multiple of the batch size or at the episode
    /// budget, whichever comes first.
    pub(crate) fn step_batch(&mut self, workers: &WorkerPool) -> Result<(), MuffinError> {
        let search = self.search;
        let config = &search.config;
        let tracer = &search.tracer;
        let episode = self.episode();
        let mut batch_span = tracer.span("search.batch");
        let batch_len = (config.reinforce_batch as u32).min(config.episodes - episode) as usize;

        // Phase 1: sample the whole batch under the frozen policy.
        let sampled: Vec<crate::SampledEpisode> = (0..batch_len)
            .map(|_| self.controller.sample(self.rng))
            .collect();

        // Phase 2: evaluate each distinct uncached action vector once,
        // keyed to the episode of its first occurrence in this batch.
        let mut jobs: Vec<(usize, Candidate, u64)> = Vec::new();
        for (k, s) in sampled.iter().enumerate() {
            let fresh = !self.cache.contains_key(&s.actions)
                && !jobs
                    .iter()
                    .any(|&(j, _, _)| sampled[j].actions == s.actions);
            if fresh {
                let seed = self.head_seeds[episode as usize + k];
                jobs.push((k, self.space.decode(&s.actions)?, seed));
            }
        }
        batch_span.field("episodes", batch_len);
        // Worker-queue occupancy: distinct uncached candidates handed to
        // the pool this batch.
        batch_span.field("jobs", jobs.len());
        tracer.count("search.cache_miss", jobs.len() as u64);
        tracer.count("search.cache_hit", (batch_len - jobs.len()) as u64);
        // Episodes served by records loaded from disk. Only emitted when
        // non-zero so cold runs keep their exact pre-persistence trace
        // shape.
        let disk_hits = sampled
            .iter()
            .filter(|s| self.disk_origin.contains(&s.actions))
            .count() as u64;
        if disk_hits > 0 {
            tracer.count("search.cache_hit_disk", disk_hits);
        }

        // Workers measure their own durations and record into per-job
        // forks; the forks are absorbed below in job order, so the event
        // log is identical for every worker count.
        let forks: Vec<Tracer> = jobs.iter().map(|_| tracer.fork()).collect();
        let bodies = &self.bodies;
        let evaluated = workers.map(&jobs, |idx, (_, candidate, seed)| {
            let eval_start = Instant::now();
            let result = search.evaluate_candidate_cached(candidate, bodies, *seed, &forks[idx]);
            (result, eval_start.elapsed())
        });
        // All evaluations are done (map is a barrier), so the per-batch
        // hit/miss deltas are deterministic at any worker count; emitted
        // from this thread to keep the log shape fixed.
        let hits = bodies.proxy.hits() + bodies.val.hits();
        let misses = bodies.proxy.misses() + bodies.val.misses();
        tracer.count("fusing.body_cache_hit", hits - self.body_hits);
        tracer.count("fusing.body_cache_miss", misses - self.body_misses);
        self.body_hits = hits;
        self.body_misses = misses;
        let mut eval_time: HashMap<Vec<usize>, Duration> = HashMap::new();
        for ((&(k, ref candidate, seed), (result, took)), fork) in
            jobs.iter().zip(evaluated).zip(&forks)
        {
            tracer.absorb(fork);
            eval_time.insert(sampled[k].actions.clone(), took);
            let evaluation = result?;
            let record = EpisodeRecord::evaluated(
                search,
                sampled[k].actions.clone(),
                candidate,
                &evaluation,
                seed,
                episode + k as u32,
            );
            self.cache.insert(sampled[k].actions.clone(), record);
        }

        // Phase 3: merge records in episode order and update the policy
        // once per batch (Eq. 4 with m = batch_len).
        let target_names = &config.target_attributes;
        let mut pending: Vec<(crate::SampledEpisode, f32)> = Vec::with_capacity(batch_len);
        for (k, s) in sampled.into_iter().enumerate() {
            let mut record = self
                .cache
                .get(&s.actions)
                .expect("evaluated or cached above")
                .clone();
            record.episode = episode + k as u32;
            if tracer.is_enabled() {
                let cached = record.first_seen != record.episode;
                let took = if cached {
                    Duration::ZERO
                } else {
                    eval_time.get(&s.actions).copied().unwrap_or(Duration::ZERO)
                };
                let mut fields = vec![
                    Field::new("episode", record.episode as usize),
                    Field::new("first_seen", record.first_seen as usize),
                    Field::new("cached", i64::from(cached)),
                    Field::new("reward", record.reward),
                    Field::new("accuracy", record.accuracy),
                ];
                for (name, u) in target_names.iter().zip(&record.unfairness) {
                    fields.push(Field::new(format!("U_{name}"), *u));
                }
                tracer.record_span("search.episode", fields, took);
            }
            pending.push((s, record.reward));
            self.push(record);
        }
        self.controller.update_batch(&pending);
        batch_span.finish();
        tracer.progress(|| {
            format!(
                "episode {}/{}: {} new evaluation(s), best reward {:.3}",
                self.episode(),
                config.episodes,
                jobs.len(),
                self.best_reward,
            )
        });
        Ok(())
    }

    /// Snapshots the state at the current batch boundary — the only point
    /// the whole loop state is summarised by (rng, controller, history,
    /// cache), so the only point a run can resume from without drift.
    pub(crate) fn checkpoint(&mut self, fingerprint: &SearchFingerprint) -> SearchCheckpoint {
        SearchCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: fingerprint.clone(),
            target_episodes: self.search.config.episodes,
            episode: self.episode(),
            rng_state: self.rng.state(),
            seed_stream_seed: self.seed_stream_seed,
            controller: self.controller.export_state(),
            history: self.history.clone(),
            cache: self.cache_records(),
            exchanges_applied: self.exchanges_applied,
        }
    }

    /// Nudges the live policy toward a sharded fleet's elites: replays
    /// each elite teacher-forced and applies one batched REINFORCE update
    /// at the elites' observed rewards. Records `round` as the last
    /// exchange applied, so a checkpoint written next can never replay
    /// it.
    pub(crate) fn apply_elites(
        &mut self,
        elites: &[EpisodeRecord],
        round: u32,
    ) -> Result<(), MuffinError> {
        if !elites.is_empty() {
            let batch: Vec<(crate::SampledEpisode, f32)> = elites
                .iter()
                .map(|e| self.controller.replay(&e.actions).map(|ep| (ep, e.reward)))
                .collect::<Result<_, _>>()?;
            self.controller.update_batch(&batch);
        }
        self.exchanges_applied = round;
        Ok(())
    }

    /// The finished run's history and its best record.
    pub(crate) fn into_outcome(self) -> SearchOutcome {
        SearchOutcome {
            history: self.history,
            best_by_reward: self.best_idx,
            target_attributes: self.search.config.target_attributes.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muffin_data::IsicLike;
    use muffin_models::{Architecture, BackboneConfig};

    fn setup(episodes: u32) -> (MuffinSearch, Rng64) {
        let mut rng = Rng64::seed(77);
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
        let config = SearchConfig::fast(&["age", "site"]).with_episodes(episodes);
        let search = MuffinSearch::new(pool, split, config).expect("valid search");
        (search, rng)
    }

    #[test]
    fn construction_builds_proxy_and_privilege() {
        let (search, _) = setup(5);
        assert!(!search.proxy().is_empty());
        assert_eq!(search.privilege().len(), 2);
    }

    #[test]
    fn unknown_attribute_is_rejected() {
        let mut rng = Rng64::seed(1);
        let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
        let pool = ModelPool::train(
            &split.train,
            &[Architecture::resnet18()],
            &BackboneConfig::fast(),
            &mut rng,
        );
        let err = MuffinSearch::new(pool, split, SearchConfig::fast(&["nope"])).unwrap_err();
        assert_eq!(err, MuffinError::UnknownAttribute("nope".into()));
    }

    #[test]
    fn zero_episodes_is_invalid() {
        let mut rng = Rng64::seed(2);
        let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
        let pool = ModelPool::train(
            &split.train,
            &[Architecture::resnet18()],
            &BackboneConfig::fast(),
            &mut rng,
        );
        let err = MuffinSearch::new(pool, split, SearchConfig::fast(&["age"]).with_episodes(0))
            .unwrap_err();
        assert!(matches!(err, MuffinError::InvalidConfig(_)));
    }

    #[test]
    fn run_produces_one_record_per_episode() {
        let (search, mut rng) = setup(6);
        let outcome = search.run(&mut rng).expect("search runs");
        assert_eq!(outcome.history.len(), 6);
        assert_eq!(outcome.target_attributes, vec!["age", "site"]);
        for r in &outcome.history {
            assert_eq!(r.unfairness.len(), 2);
            assert!(r.reward.is_finite());
            assert!(r.accuracy > 0.0);
            assert!(r.total_params > 1_000_000);
        }
    }

    #[test]
    fn best_record_has_max_reward() {
        let (search, mut rng) = setup(8);
        let outcome = search.run(&mut rng).expect("search runs");
        let max = outcome
            .history
            .iter()
            .map(|r| r.reward)
            .fold(f32::MIN, f32::max);
        assert_eq!(outcome.best().reward, max);
    }

    #[test]
    fn cached_candidates_reuse_metrics() {
        let (search, mut rng) = setup(12);
        let outcome = search.run(&mut rng).expect("search runs");
        let distinct = outcome.distinct();
        // With a tiny space and 12 episodes there are usually repeats; at
        // minimum distinct <= total.
        assert!(distinct.len() <= outcome.history.len());
        // Records with equal actions must carry equal rewards.
        for r in &outcome.history {
            let first = outcome
                .history
                .iter()
                .find(|o| o.actions == r.actions)
                .expect("exists");
            assert_eq!(first.reward, r.reward);
            assert_eq!(first.head_seed, r.head_seed);
        }
    }

    #[test]
    fn rebuild_reproduces_recorded_metrics() {
        let (search, mut rng) = setup(4);
        let outcome = search.run(&mut rng).expect("search runs");
        let record = outcome.best();
        let fusing = search.rebuild(record).expect("rebuild");
        let eval = fusing.evaluate(search.pool(), &search.split().val, &Tracer::noop());
        assert!(
            (eval.accuracy - record.accuracy).abs() < 1e-6,
            "rebuild must be exact"
        );
    }

    #[test]
    fn outcome_json_round_trips() {
        let (search, mut rng) = setup(4);
        let outcome = search.run(&mut rng).expect("search runs");
        let path = std::env::temp_dir().join("muffin_outcome_roundtrip.json");
        outcome.save_json(&path).expect("save");
        let loaded = SearchOutcome::load_json(&path).expect("load");
        assert_eq!(loaded.history.len(), outcome.history.len());
        assert_eq!(loaded.best().actions, outcome.best().actions);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn malformed_outcome_error_carries_line_and_column() {
        let path = std::env::temp_dir().join("muffin_outcome_malformed.json");
        // Stray comma on line 2.
        std::fs::write(&path, "{\n  \"history\": [,]\n}").expect("write");
        let msg = SearchOutcome::load_json(&path).unwrap_err();
        assert!(msg.contains("line 2"), "missing line in: {msg}");
        assert!(msg.contains("column"), "missing column in: {msg}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn outcome_with_an_unindexable_best_is_rejected_naming_the_field() {
        let path = std::env::temp_dir().join("muffin_outcome_bad_best.json");
        let attrs = vec!["age".to_string()];
        let write = |outcome: &SearchOutcome| {
            std::fs::write(&path, muffin_json::to_string(outcome)).expect("write")
        };
        write(&SearchOutcome {
            history: Vec::new(),
            best_by_reward: 3,
            target_attributes: attrs.clone(),
        });
        let msg = SearchOutcome::load_json(&path).unwrap_err();
        assert!(msg.contains("history is empty"), "{msg}");
        write(&SearchOutcome {
            history: vec![synthetic_record(0, vec![0.1], 1.0)],
            best_by_reward: 3,
            target_attributes: attrs,
        });
        let msg = SearchOutcome::load_json(&path).unwrap_err();
        assert!(msg.contains("best_by_reward 3 is out of range"), "{msg}");
        std::fs::remove_file(path).ok();
    }

    /// `with_privilege` runs the same configuration checks as `new`.
    fn with_privilege_error(config: SearchConfig) -> MuffinError {
        let (search, _) = setup(2);
        MuffinSearch::with_privilege(
            search.pool().clone(),
            search.split().clone(),
            config,
            search.privilege().clone(),
        )
        .unwrap_err()
    }

    #[test]
    fn with_privilege_rejects_a_zero_reinforce_batch() {
        let config = SearchConfig::fast(&["age", "site"]).with_reinforce_batch(0);
        let err = with_privilege_error(config);
        assert!(matches!(err, MuffinError::InvalidConfig(ref m) if m.contains("reinforce_batch")));
    }

    #[test]
    fn with_privilege_rejects_an_out_of_range_required_model() {
        let config = SearchConfig::fast(&["age", "site"]).with_required_models(vec![7]);
        let err = with_privilege_error(config);
        assert!(matches!(err, MuffinError::InvalidConfig(ref m) if m.contains("required model 7")));
    }

    #[test]
    fn with_privilege_rejects_zero_episodes() {
        let config = SearchConfig::fast(&["age", "site"]).with_episodes(0);
        let err = with_privilege_error(config);
        assert!(matches!(err, MuffinError::InvalidConfig(ref m) if m.contains("episodes")));
    }

    #[test]
    fn zero_head_batch_size_is_rejected_instead_of_panicking_in_training() {
        let mut config = SearchConfig::fast(&["age", "site"]);
        config.head.batch_size = 0;
        let err = with_privilege_error(config.clone());
        assert!(matches!(err, MuffinError::InvalidConfig(ref m) if m.contains("head.batch_size")));
        let (search, _) = setup(2);
        let err =
            MuffinSearch::new(search.pool().clone(), search.split().clone(), config).unwrap_err();
        assert!(matches!(err, MuffinError::InvalidConfig(ref m) if m.contains("head.batch_size")));
    }

    #[test]
    fn zero_slots_are_rejected_instead_of_panicking_in_space() {
        let config = SearchConfig::fast(&["age", "site"]).with_slots(0);
        let err = with_privilege_error(config);
        assert!(matches!(err, MuffinError::InvalidConfig(ref m) if m.contains("num_slots")));
    }

    #[test]
    fn united_selectors_skip_single_model_bodies() {
        let (search, mut rng) = setup(10);
        let outcome = search.run(&mut rng).expect("search runs");
        if let Some(r) = outcome.best_united_for_attribute(0) {
            assert!(r.model_names.len() >= 2);
        }
        if let Some(r) = outcome.best_united_balanced() {
            assert!(r.model_names.len() >= 2);
        }
    }

    fn synthetic_record(episode: u32, unfairness: Vec<f32>, reward: f32) -> EpisodeRecord {
        EpisodeRecord {
            episode,
            actions: vec![episode as usize, 0, 0],
            model_names: vec!["A".into(), "B".into()],
            head_desc: "[8] relu".into(),
            accuracy: 0.8,
            unfairness,
            reward,
            head_params: 100,
            total_params: 2_000_000,
            head_seed: episode as u64,
            first_seen: episode,
        }
    }

    #[test]
    fn nan_unfairness_never_wins_selection() {
        // Regression: partial_cmp(..).unwrap_or(Equal) let NaN records win
        // min_by arbitrarily depending on iteration order.
        let outcome = SearchOutcome {
            history: vec![
                synthetic_record(0, vec![f32::NAN, 0.0], 9.0),
                synthetic_record(1, vec![0.3, 0.4], 1.0),
                synthetic_record(2, vec![0.2, f32::INFINITY], 2.0),
                synthetic_record(3, vec![0.5, 0.1], 3.0),
            ],
            best_by_reward: 0,
            target_attributes: vec!["age".into(), "site".into()],
        };
        // Attribute 0: NaN (record 0) excluded; 0.2 (record 2) wins.
        assert_eq!(outcome.best_for_attribute(0).unwrap().episode, 2);
        // Attribute 1: record 0 has unfairness 0.0 — finite, so it wins.
        assert_eq!(outcome.best_for_attribute(1).unwrap().episode, 0);
        // Balanced: records 0 (NaN) and 2 (∞) excluded; among the finite
        // records, 3 sums to 0.6 and beats 1's 0.7.
        assert_eq!(outcome.best_balanced().unwrap().episode, 3);
        assert_eq!(outcome.best_united_for_attribute(0).unwrap().episode, 2);
        assert_eq!(outcome.best_united_balanced().unwrap().episode, 3);
    }

    #[test]
    fn all_nan_history_selects_nothing() {
        let outcome = SearchOutcome {
            history: vec![synthetic_record(0, vec![f32::NAN], 1.0)],
            best_by_reward: 0,
            target_attributes: vec!["age".into()],
        };
        assert!(outcome.best_for_attribute(0).is_none());
        assert!(outcome.best_balanced().is_none());
        assert!(outcome.best_united_for_attribute(0).is_none());
        assert!(outcome.best_united_balanced().is_none());
    }

    #[test]
    fn head_seeds_follow_the_pinned_splitmix_stream() {
        // The per-episode head-seed derivation is a frozen contract: the
        // controller consumes the caller's RNG first, then one draw seeds a
        // SplitMix64 stream whose k-th output is episode k's head seed.
        let (search, rng) = setup(8);
        let mut replay = rng.clone();
        let outcome = search.run(&mut rng.clone()).expect("search runs");

        let _controller =
            RnnController::new(search.space(), search.config().controller, &mut replay);
        let mut stream = SplitMix64::new(replay.next_u64());
        let expected: Vec<u64> = (0..8).map(|_| stream.next_u64()).collect();
        for r in &outcome.history {
            assert_eq!(
                r.head_seed, expected[r.first_seen as usize],
                "episode {} (first seen {}) diverged from the seed stream",
                r.episode, r.first_seen
            );
        }
        // 64-bit stream seeds: distinct across first occurrences (the old
        // 32-bit-entropy derivation collided readily).
        let mut firsts: Vec<u64> = outcome.distinct().iter().map(|r| r.head_seed).collect();
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), outcome.distinct().len());
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let (search, rng) = setup(9);
        let serial = search
            .run_with_pool(&mut rng.clone(), &WorkerPool::serial())
            .expect("serial run");
        for workers in [2usize, 4] {
            let parallel = search
                .run_with_pool(&mut rng.clone(), &WorkerPool::new(workers))
                .expect("parallel run");
            assert_eq!(serial.best_by_reward, parallel.best_by_reward);
            assert_eq!(serial.history.len(), parallel.history.len());
            for (s, p) in serial.history.iter().zip(&parallel.history) {
                assert_eq!(s.actions, p.actions);
                assert_eq!(s.reward.to_bits(), p.reward.to_bits());
                assert_eq!(s.accuracy.to_bits(), p.accuracy.to_bits());
                assert_eq!(s.head_seed, p.head_seed);
                assert_eq!(s.first_seen, p.first_seen);
            }
        }
    }

    #[test]
    fn batched_reinforce_runs_and_fills_history() {
        let (mut search, rng) = setup(10);
        // Exercise a partial final batch (10 episodes, batch of 4).
        search.config.reinforce_batch = 4;
        let outcome = search.run(&mut rng.clone()).expect("search runs");
        assert_eq!(outcome.history.len(), 10);
        for (i, r) in outcome.history.iter().enumerate() {
            assert_eq!(r.episode, i as u32);
            assert!(r.first_seen <= r.episode);
        }
    }

    #[test]
    fn traced_run_matches_untraced_and_strips_deterministically() {
        let (search, rng) = setup(6);
        let untraced = search.run(&mut rng.clone()).expect("untraced run");

        let run_traced = |workers: &WorkerPool| {
            let (fresh, traced_rng) = setup(6);
            let tracer = Tracer::capturing();
            let fresh = fresh.with_tracer(tracer.clone());
            let outcome = fresh
                .run_with_pool(&mut traced_rng.clone(), workers)
                .expect("traced run");
            (outcome, tracer.finish())
        };
        let (serial_outcome, serial_log) = run_traced(&WorkerPool::serial());
        let (parallel_outcome, parallel_log) = run_traced(&WorkerPool::new(3));

        // Tracing must not perturb the search.
        for (a, b) in untraced.history.iter().zip(&serial_outcome.history) {
            assert_eq!(a.actions, b.actions);
            assert_eq!(a.reward.to_bits(), b.reward.to_bits());
        }
        assert_eq!(
            muffin_json::to_string(&serial_outcome),
            muffin_json::to_string(&parallel_outcome),
        );

        // The event log (modulo timings) is identical at any worker count.
        assert_eq!(
            muffin_json::to_string(&serial_log.stripped()),
            muffin_json::to_string(&parallel_log.stripped()),
        );

        // The log carries the promised structure.
        let count = |name: &str| serial_log.events.iter().filter(|e| e.name == name).count();
        assert_eq!(count("search.run"), 1);
        assert_eq!(count("search.episode"), 6);
        let distinct = serial_outcome.distinct().len();
        assert_eq!(count("fusing.train_head"), distinct);
        assert_eq!(
            count("nn.epoch"),
            distinct * search.config().head.epochs as usize
        );
        let hits = serial_log
            .events
            .iter()
            .find(|e| e.name == "search.cache_hit")
            .expect("cache-hit counter");
        assert_eq!(
            hits.data,
            muffin_trace::EventData::Counter {
                value: (6 - distinct) as u64
            }
        );
    }

    #[test]
    fn best_for_attribute_minimises_that_attribute() {
        let (search, mut rng) = setup(8);
        let outcome = search.run(&mut rng).expect("search runs");
        let best_age = outcome.best_for_attribute(0).expect("non-empty");
        for r in outcome.distinct() {
            assert!(best_age.unfairness[0] <= r.unfairness[0] + 1e-6);
        }
        let balanced = outcome.best_balanced().expect("non-empty");
        let sum: f32 = balanced.unfairness.iter().sum();
        for r in outcome.distinct() {
            assert!(sum <= r.unfairness.iter().sum::<f32>() + 1e-6);
        }
    }
}
