//! One number for "the learner update produced these exact parameters".
//!
//! Two digests, each every actor/critic/`log_std`/α bit folded into one
//! `u64`: three PPO updates and twenty SAC updates from fixed seeds, and
//! three V-trace updates on rollouts from a stale snapshot for each policy
//! head. The test asserts each repeats within the process and prints them
//! as `update-digest <hex>` and `update-digest vtrace <hex>`.
//! `Isa::cached()` is process-wide, so tiers cannot be switched in-process:
//! CI runs this target under `RLDT_SIMD=scalar`, `RLDT_SIMD=avx2` and unset
//! and fails unless the printed lines are identical — the check that the
//! backward pass, not just each kernel, is tier-independent. No absolute
//! value is pinned: it depends on the `rand` stream, not on anything this
//! repository promises.

use gymrs::envs::{GridWorld, PointMass};
use gymrs::{Environment, VecEnv};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_algos::buffer::Transition;
use rl_algos::collect::collect_lockstep;
use rl_algos::impala::ImpalaConfig;
use rl_algos::on_policy::OnPolicyLearner;
use rl_algos::ppo::{PpoConfig, PpoLearner};
use rl_algos::sac::{SacConfig, SacLearner};
use tinynn::Mlp;

fn fold(h: &mut u64, bits: u64) {
    *h = (*h ^ bits).wrapping_mul(0x0000_0100_0000_01b3);
}

fn fold_net(h: &mut u64, net: &mut Mlp) {
    net.visit_params(|params, _| params.iter().for_each(|p| fold(h, p.to_bits())));
}

fn digest() -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;

    // PPO: the paper's 64×64 tanh trunks, a two-column Gaussian head and a
    // one-column value head, minibatches of 64.
    let mut rng = StdRng::seed_from_u64(7);
    let mut env = PointMass::new();
    env.seed(7);
    let cfg = PpoConfig { n_steps: 256, epochs: 4, minibatch: 64, ..PpoConfig::default() };
    let mut ppo = PpoLearner::new(4, &env.action_space(), cfg, &mut rng);
    let mut obs = env.reset();
    for _ in 0..3 {
        let out = ppo.collect(&mut env, &mut obs, 256, &mut rng);
        ppo.update(&out.rollout, &mut rng);
    }
    fold_net(&mut h, &mut ppo.policy.actor);
    fold_net(&mut h, &mut ppo.policy.critic);
    ppo.policy.log_std.iter().for_each(|l| fold(&mut h, l.to_bits()));

    // SAC: 64×64 relu actor and twin critics, batch 64.
    let mut rng = StdRng::seed_from_u64(8);
    let cfg = SacConfig { batch: 64, ..SacConfig::default() };
    let mut sac = SacLearner::new(4, &env.action_space(), cfg, &mut rng);
    for i in 0..256 {
        let x = (i as f64 * 0.05).sin();
        sac.replay.push(Transition {
            obs: vec![x, -x, 0.5 * x, 0.1],
            action: vec![(i as f64 * 0.3).cos(), -x],
            reward: -x.abs(),
            next_obs: vec![x + 0.01, -x, 0.5 * x - 0.01, 0.1],
            terminated: i % 64 == 63,
        });
    }
    for _ in 0..20 {
        sac.update_from_batch(&mut rng);
    }
    fold_net(&mut h, &mut sac.actor);
    fold_net(&mut h, &mut sac.q1);
    fold_net(&mut h, &mut sac.q2);
    fold(&mut h, sac.alpha().to_bits());
    h
}

/// Three V-trace updates of the 64×64 learner on two-segment rollouts
/// (closed tail mid-batch) that a never-refreshed snapshot collects.
fn vtrace_leg<E: Environment>(h: &mut u64, envs: Vec<E>, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let obs_dim = envs[0].observation_space().dim();
    let actions = envs[0].action_space();
    let mut learner = OnPolicyLearner::impala(obs_dim, &actions, ImpalaConfig::default(), &mut rng);
    let stale = learner.policy.clone();
    let mut venv = VecEnv::new(envs, seed);
    venv.reset_all();
    for _ in 0..3 {
        let rollout = collect_lockstep(&stale, &mut venv, 64, &mut rng).rollout;
        learner.update(&rollout, &mut rng);
    }
    fold_net(h, &mut learner.policy.actor);
    fold_net(h, &mut learner.policy.critic);
    learner.policy.log_std.iter().for_each(|l| fold(h, l.to_bits()));
}

fn vtrace_digest() -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    vtrace_leg(&mut h, vec![PointMass::new(), PointMass::new()], 11);
    vtrace_leg(&mut h, vec![GridWorld::new(3), GridWorld::new(3)], 12);
    h
}

#[test]
fn update_digest_repeats() {
    let first = digest();
    assert_eq!(first, digest(), "the same seeds must give the same parameters");
    println!("update-digest {first:016x}");
    let vtrace = vtrace_digest();
    assert_eq!(vtrace, vtrace_digest(), "the same seeds must give the same parameters");
    println!("update-digest vtrace {vtrace:016x}");
}
