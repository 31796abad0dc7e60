//! The greedy evaluator against the loop it replaced.
//!
//! `oracle` is the one-episode-after-another loop `TrainedModel` and
//! `trainer::evaluate` ran before evaluation became lockstep lanes: one
//! reset per episode on the caller's environment, one single-row
//! `act_greedy` per step, the mean summed step by step across episodes.
//! Both public entry points must reproduce it bit for bit — the mean,
//! every episode's return and length, and the caller environment's next
//! reset — for every policy head, on environments that run as lanes
//! (airdrop reference, point mass, plain grid) and at width 1 (gusty
//! airdrop and the slippery grid, whose steps read the RNG).

use airdrop_sim::{ActionMode, AirdropConfig, AirdropEnv};
use dist_exec::TrainedModel;
use gymrs::envs::{GridWorld, PointMass};
use gymrs::rollout::EpisodeStats;
use gymrs::{Environment, Space};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_algos::trainer::{evaluate, EvalSpec, TrainedPolicy};
use rl_algos::{Greedy, PpoConfig, PpoLearner, SacConfig, SacLearner};

/// Builds the same seeded environment on every call.
type Make = Box<dyn Fn() -> Box<dyn Environment>>;

/// The removed loop: `(mean, per-episode returns, per-episode lengths)`.
fn oracle(
    policy: Greedy<'_>,
    env: &mut dyn Environment,
    episodes: usize,
    max_steps: usize,
) -> (f64, Vec<f64>, Vec<usize>) {
    let act = |obs: &[f64]| match policy {
        Greedy::Ppo(p) => p.act_greedy(obs),
        Greedy::Sac(l) => l.act_greedy(obs),
    };
    let (mut total, mut returns, mut lengths) = (0.0, Vec::new(), Vec::new());
    for _ in 0..episodes {
        let mut obs = env.reset();
        let (mut ret, mut len) = (0.0, 0);
        for _ in 0..max_steps {
            let s = env.step(&act(&obs));
            total += s.reward;
            ret += s.reward;
            len += 1;
            let done = s.done();
            obs = s.obs;
            if done {
                break;
            }
        }
        returns.push(ret);
        lengths.push(len);
    }
    (total / episodes as f64, returns, lengths)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn stats_bits(s: &EpisodeStats) -> [u64; 6] {
    let (n, m, sd) = (s.episodes as u64, s.mean_return.to_bits(), s.std_return.to_bits());
    [n, m, sd, s.min_return.to_bits(), s.max_return.to_bits(), s.mean_length.to_bits()]
}

/// Both entry points against the oracle, each on a fresh `make()`.
fn check(name: &str, model: &TrainedModel, trained: &TrainedPolicy<'_>, make: &Make) {
    for episodes in [0, 1, 2, 7, 20] {
        for max_steps in [5, 100_000] {
            let case = format!("{name}: {episodes} episodes, max_steps {max_steps}");
            let mut want_env = make();
            let (mean, returns, lengths) =
                oracle(model.greedy(), want_env.as_mut(), episodes, max_steps);
            let next = want_env.reset();

            let mut env = make();
            let (got_mean, got_returns) =
                model.evaluate_episodes(env.as_mut(), episodes, max_steps);
            assert_eq!(got_mean.to_bits(), mean.to_bits(), "{case}: mean");
            assert_eq!(bits(&got_returns), bits(&returns), "{case}: per-episode returns");
            assert_eq!(bits(&env.reset()), bits(&next), "{case}: caller env's next reset");

            let mut env = make();
            let spec = EvalSpec { episodes, max_steps };
            let got = evaluate(trained, env.as_mut(), &spec);
            let pairs: Vec<(f64, usize)> = returns.iter().copied().zip(lengths.clone()).collect();
            let want = EpisodeStats::from_episodes(&pairs);
            assert_eq!(stats_bits(&got), stats_bits(&want), "{case}: trainer::evaluate");
            assert_eq!(bits(&env.reset()), bits(&next), "{case}: trainer's env's next reset");
        }
    }
}

fn airdrop(config: AirdropConfig, seed: u64) -> Make {
    Box::new(move || {
        let mut env = AirdropEnv::new(config.clone());
        env.seed(seed);
        Box::new(env)
    })
}

fn ppo(obs_dim: usize, actions: &Space, seed: u64) -> PpoLearner {
    let cfg = PpoConfig { hidden: vec![16, 16], ..PpoConfig::fast_test() };
    PpoLearner::new(obs_dim, actions, cfg, &mut StdRng::seed_from_u64(seed))
}

fn sac(obs_dim: usize, actions: &Space, seed: u64) -> SacLearner {
    let cfg = SacConfig { hidden: vec![16, 16], ..SacConfig::fast_test() };
    SacLearner::new(obs_dim, actions, cfg, &mut StdRng::seed_from_u64(seed))
}

#[test]
fn gaussian_ppo_and_sac_match_the_sequential_loop() {
    let reference = AirdropConfig::fast_test().reference();
    assert!(!AirdropEnv::new(reference.clone()).steps_read_rng(), "the reference runs as lanes");
    let gusty = AirdropConfig {
        gusts_enabled: true,
        gust_probability: 0.3,
        gust_strength: 2.0,
        ..AirdropConfig::fast_test().reference()
    };
    assert!(AirdropEnv::new(gusty.clone()).steps_read_rng(), "gusts run at width 1");
    let envs: [(&str, Make); 3] = [
        ("airdrop reference", airdrop(reference, 5)),
        ("gusty airdrop", airdrop(gusty, 6)),
        (
            "point mass",
            Box::new(|| {
                let mut env = PointMass::new();
                env.seed(7);
                Box::new(env) as Box<dyn Environment>
            }),
        ),
    ];
    for (name, make) in &envs {
        let probe = make();
        let (obs_dim, actions) = (probe.observation_space().dim(), probe.action_space());
        let learner = ppo(obs_dim, &actions, 1);
        let model = TrainedModel::Ppo(Box::new(learner.policy.clone()));
        check(&format!("ppo gaussian, {name}"), &model, &TrainedPolicy::Ppo(&learner), make);
        let learner = sac(obs_dim, &actions, 2);
        let model = TrainedModel::Sac(Box::new(sac(obs_dim, &actions, 2)));
        check(&format!("sac, {name}"), &model, &TrainedPolicy::Sac(&learner), make);
    }
}

#[test]
fn categorical_ppo_matches_the_sequential_loop() {
    let discrete =
        AirdropConfig { action_mode: ActionMode::Discrete3, ..AirdropConfig::fast_test() };
    let grid = |slip: f64| -> Make {
        Box::new(move || {
            let mut env = GridWorld::new(4);
            env.slip = slip;
            env.seed(8);
            Box::new(env)
        })
    };
    let envs: [(&str, Make); 3] = [
        ("discrete airdrop reference", airdrop(discrete.reference(), 9)),
        ("grid", grid(0.0)),
        ("slippery grid", grid(0.3)),
    ];
    for (name, make) in &envs {
        let probe = make();
        let learner = ppo(probe.observation_space().dim(), &probe.action_space(), 3);
        let model = TrainedModel::Ppo(Box::new(learner.policy.clone()));
        check(&format!("ppo categorical, {name}"), &model, &TrainedPolicy::Ppo(&learner), make);
    }
}
