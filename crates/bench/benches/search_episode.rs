//! Benches for the Muffin search loop — the single episode that the
//! paper's 500-episode budget is made of, plus the serial-vs-parallel
//! REINFORCE batch evaluation whose speedup is tracked across PRs (see
//! `DESIGN.md` §7): compare `search/reinforce_batch8/serial` against
//! `search/reinforce_batch8/parallel_4w` in the suite JSON.

use muffin::{
    multi_fairness_reward, MuffinSearch, RewardConfig, RnnController, SearchConfig, Tracer,
    WorkerPool,
};
use muffin_bench::timing::{black_box, Harness};
use muffin_data::IsicLike;
use muffin_models::{Architecture, BackboneConfig, ModelPool};
use muffin_tensor::Rng64;

fn fast_search(episodes: u32, reinforce_batch: usize) -> MuffinSearch {
    let mut rng = Rng64::seed(30);
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
    let config = SearchConfig::fast(&["age", "site"])
        .with_episodes(episodes)
        .with_reinforce_batch(reinforce_batch);
    MuffinSearch::new(pool, split, config).expect("search setup")
}

fn bench_full_episode(h: &mut Harness) {
    let search = fast_search(30, 1);
    let space = search.space();
    let mut rng = Rng64::seed(31);
    let controller = RnnController::new(space.clone(), search.config().controller, &mut rng);

    h.sample_size(5);
    h.bench("search/one_episode_train_and_reward", || {
        let sampled = controller.sample(&mut rng);
        let candidate = space.decode(&sampled.actions).expect("in range");
        let (_, eval) = search
            .evaluate_candidate(&candidate, &search.split().val, 1234, &Tracer::noop())
            .expect("candidate evaluates");
        black_box(multi_fairness_reward(&eval, &["age", "site"], RewardConfig::default()));
    });
}

fn bench_reinforce_batch_parallelism(h: &mut Harness) {
    // One REINFORCE batch of 8 episodes on the fast config: the candidate
    // evaluations are independent, so the pooled run should approach the
    // worker count until the distinct-candidate supply runs out.
    let search = fast_search(8, 8);
    h.sample_size(5);
    for (label, workers) in [("serial", 1usize), ("parallel_4w", 4)] {
        let pool = WorkerPool::new(workers);
        h.bench(&format!("search/reinforce_batch8/{label}"), || {
            // Fresh RNG per run: both variants replay the identical
            // trajectory, so the timings differ only by scheduling.
            let mut rng = Rng64::seed(77);
            black_box(search.run_with_pool(&mut rng, &pool).expect("search runs"))
        });
    }
}

fn main() {
    let mut h = Harness::new("search_episode");
    bench_full_episode(&mut h);
    bench_reinforce_batch_parallelism(&mut h);
    h.finish();
}
