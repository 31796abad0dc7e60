//! Proximal Policy Optimization (clipped surrogate objective).
//!
//! The on-policy algorithm of the paper's study. The implementation
//! follows the reference semantics shared by Stable Baselines, RLlib and
//! TF-Agents: GAE-λ advantages, ratio clipping, minibatched epochs over
//! the rollout, entropy bonus and a separate value network.
//!
//! The learner is split from collection so the distributed backends can
//! feed it rollouts gathered by remote workers ([`PpoLearner::update`]
//! consumes any [`RolloutBuffer`]).

// Index loops here co-index several arrays; zip chains would obscure them.
#![allow(clippy::needless_range_loop)]
use crate::buffer::RolloutBuffer;
use crate::collect::collect_lockstep;
use crate::gae;
use crate::policy::{ActorCritic, Dist, PolicyHead};
use gymrs::{Action, Environment, Space, VecEnv};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use tinynn::{backward_flops, clip_grad_norm, forward_flops, Adam, Matrix, Optimizer, Tape};

/// PPO hyperparameters (defaults follow the frameworks' shared defaults).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PpoConfig {
    /// Adam learning rate.
    pub lr: f64,
    /// Discount factor γ.
    pub gamma: f64,
    /// GAE λ.
    pub lambda: f64,
    /// Clip range ε.
    pub clip: f64,
    /// Optimisation epochs per rollout.
    pub epochs: usize,
    /// Minibatch size.
    pub minibatch: usize,
    /// Entropy bonus coefficient.
    pub ent_coef: f64,
    /// Value-loss coefficient.
    pub vf_coef: f64,
    /// Global gradient-norm clip.
    pub max_grad_norm: f64,
    /// Hidden layer sizes of actor and critic.
    pub hidden: Vec<usize>,
    /// Rollout horizon (steps collected per update, per environment).
    pub n_steps: usize,
    /// Normalize advantages per batch.
    pub normalize_advantage: bool,
    /// Optional learning-rate schedule over training progress (applied by
    /// the training loops via [`PpoLearner::anneal`]); the frameworks'
    /// default is linear annealing to zero.
    pub lr_schedule: Option<crate::schedules::Schedule>,
}

impl Default for PpoConfig {
    fn default() -> Self {
        Self {
            lr: 3e-4,
            gamma: 0.99,
            lambda: 0.95,
            clip: 0.2,
            epochs: 10,
            minibatch: 64,
            ent_coef: 0.0,
            vf_coef: 0.5,
            max_grad_norm: 0.5,
            hidden: vec![64, 64],
            n_steps: 2048,
            normalize_advantage: true,
            lr_schedule: None,
        }
    }
}

impl PpoConfig {
    /// A small/fast configuration for unit tests.
    pub fn fast_test() -> Self {
        Self { hidden: vec![32, 32], n_steps: 256, epochs: 6, minibatch: 64, ..Self::default() }
    }
}

/// Diagnostics from one PPO update.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct PpoStats {
    /// Mean clipped-surrogate loss.
    pub policy_loss: f64,
    /// Mean value loss.
    pub value_loss: f64,
    /// Mean policy entropy.
    pub entropy: f64,
    /// Mean approximate KL between old and new policy.
    pub approx_kl: f64,
    /// Fraction of samples whose ratio was clipped.
    pub clip_fraction: f64,
}

/// One rollout-collection result.
#[derive(Debug)]
pub struct CollectOutcome {
    /// The collected segment.
    pub rollout: RolloutBuffer,
    /// Environment work units consumed (derivative evaluations).
    pub env_work: u64,
    /// `(return, length)` of episodes that finished during collection.
    pub episodes: Vec<(f64, usize)>,
}

/// The PPO learner: policy + optimizers + work accounting.
pub struct PpoLearner {
    /// The actor-critic being trained.
    pub policy: ActorCritic,
    cfg: PpoConfig,
    actor_opt: Adam,
    critic_opt: Adam,
    // Adam state for the free log_std vector.
    ls_m: Vec<f64>,
    ls_v: Vec<f64>,
    ls_t: u64,
    /// Number of gradient updates performed.
    pub updates: u64,
    /// Accumulated learning FLOPs (forward + backward), for the cost model.
    pub flops: u64,
    // Reused forward tapes — allocated once, resized per minibatch.
    atape: Tape,
    vtape: Tape,
}

impl PpoLearner {
    /// Create a learner for the given observation dim and action space.
    pub fn new(obs_dim: usize, action_space: &Space, cfg: PpoConfig, rng: &mut impl Rng) -> Self {
        let policy = ActorCritic::new(obs_dim, action_space, &cfg.hidden, rng);
        let k = policy.log_std.len();
        Self {
            policy,
            actor_opt: Adam::new(cfg.lr),
            critic_opt: Adam::new(cfg.lr),
            ls_m: vec![0.0; k],
            ls_v: vec![0.0; k],
            ls_t: 0,
            cfg,
            updates: 0,
            flops: 0,
            atape: Tape::new(),
            vtape: Tape::new(),
        }
    }

    /// The hyperparameters.
    pub fn config(&self) -> &PpoConfig {
        &self.cfg
    }

    /// Collect `n_steps` of experience from `env` starting at `*obs`
    /// (which is updated to the observation where collection stopped).
    ///
    /// Episode boundaries auto-reset; the final step bootstraps with the
    /// critic's value of the carried observation.
    ///
    /// The bootstrap value `V(s')` of one step is exactly the current
    /// value `V(s)` of the next, so it is cached instead of recomputed —
    /// the critic runs roughly once per step instead of twice, with
    /// bitwise-identical results (the critic is deterministic and draws
    /// nothing from `rng`).
    pub fn collect(
        &mut self,
        env: &mut dyn Environment,
        obs: &mut Vec<f64>,
        n_steps: usize,
        rng: &mut impl Rng,
    ) -> CollectOutcome {
        let mut rollout = RolloutBuffer::with_capacity(n_steps);
        let mut env_work = 0u64;
        let mut episodes = Vec::new();
        let mut ep_ret = 0.0;
        let mut ep_len = 0usize;
        let mut value = self.policy.value(obs);
        let mut critic_rows = 1usize;
        for _ in 0..n_steps {
            let d = self.policy.dist(obs);
            let action = d.sample(rng);
            let log_prob = d.log_prob(&action);
            let s = env.step(&action);
            env_work += env.last_step_work();
            ep_ret += s.reward;
            ep_len += 1;
            let done = s.done();
            // Truncated episodes bootstrap from the (real) final state;
            // terminated ones do not.
            let next_value = if s.terminated {
                0.0
            } else {
                critic_rows += 1;
                self.policy.value(&s.obs)
            };
            rollout.push(
                std::mem::take(obs),
                action,
                s.reward,
                s.terminated,
                done,
                value,
                next_value,
                log_prob,
            );
            if done {
                episodes.push((ep_ret, ep_len));
                ep_ret = 0.0;
                ep_len = 0;
                *obs = env.reset();
                value = self.policy.value(obs);
                critic_rows += 1;
            } else {
                *obs = s.obs;
                value = next_value;
            }
        }
        // Inference cost of collection: one actor pass per step plus the
        // critic rows actually evaluated.
        let a_sizes = self.policy.actor.sizes();
        let c_sizes = self.policy.critic.sizes();
        self.flops += forward_flops(&a_sizes, n_steps) + forward_flops(&c_sizes, critic_rows);
        CollectOutcome { rollout, env_work, episodes }
    }

    /// Collect `ticks` lockstep sweeps from a vectorized environment with
    /// *batched* policy evaluation: one actor and one critic forward per
    /// tick regardless of the number of sub-environments. See
    /// [`collect_lockstep`] for the exact semantics (per-env segments
    /// concatenated, tails closed, truncation bootstrapped from the
    /// pre-reset observation).
    pub fn collect_vec<E: Environment>(
        &mut self,
        venv: &mut VecEnv<E>,
        ticks: usize,
        rng: &mut impl Rng,
    ) -> CollectOutcome {
        let out = collect_lockstep(&self.policy, venv, ticks, rng);
        let a_sizes = self.policy.actor.sizes();
        let c_sizes = self.policy.critic.sizes();
        self.flops += forward_flops(&a_sizes, out.actor_rows as usize)
            + forward_flops(&c_sizes, out.critic_rows as usize);
        CollectOutcome { rollout: out.rollout, env_work: out.env_work, episodes: out.episodes }
    }

    /// One PPO update over a rollout (epochs × minibatches).
    pub fn update(&mut self, rollout: &RolloutBuffer, rng: &mut impl Rng) -> PpoStats {
        let n = rollout.len();
        assert!(n > 0, "cannot update from an empty rollout");
        let (mut adv, rets) = rollout.advantages(self.cfg.gamma, self.cfg.lambda);
        if self.cfg.normalize_advantage {
            gae::normalize(&mut adv);
        }

        let mut idx: Vec<usize> = (0..n).collect();
        let mut stats = PpoStats::default();
        let mut stat_count = 0.0;

        let act_dim = match self.policy.head() {
            PolicyHead::Categorical { n } => n,
            PolicyHead::Gaussian { dim } => dim,
        };
        let obs_dim = rollout.obs[0].len();

        // Minibatch buffers, reused across every epoch × minibatch pass.
        let mut x = Matrix::default();
        let mut dout = Matrix::default();
        let mut dv = Matrix::default();
        let mut g = vec![0.0; act_dim];
        let mut dls = vec![0.0; self.policy.log_std.len()];

        for _epoch in 0..self.cfg.epochs {
            idx.shuffle(rng);
            for chunk in idx.chunks(self.cfg.minibatch) {
                let mb = chunk.len();
                // Assemble the minibatch observation matrix.
                x.resize_zeroed(mb, obs_dim);
                for (r, &i) in chunk.iter().enumerate() {
                    x.row_slice_mut(r).copy_from_slice(&rollout.obs[i]);
                }

                // ---- Actor pass ----
                self.policy.actor.forward_into(&x, &mut self.atape);
                let out = self.atape.output();
                dout.resize_zeroed(mb, act_dim);
                dls.fill(0.0);
                let inv_mb = 1.0 / mb as f64;

                for (r, &i) in chunk.iter().enumerate() {
                    let row = out.row_slice(r);
                    let d = self.policy.dist_from_actor_row(row);
                    let action = &rollout.actions[i];
                    let lp_new = d.log_prob(action);
                    let lp_old = rollout.log_probs[i];
                    let a = adv[i];
                    let ratio = (lp_new - lp_old).exp();
                    let clipped = ratio.clamp(1.0 - self.cfg.clip, 1.0 + self.cfg.clip);
                    let unclipped_active = ratio * a <= clipped * a;
                    // dL/dlogp — gradient of -min(r A, clip(r) A).
                    let dlp = if unclipped_active { -a * ratio } else { 0.0 };

                    stats.policy_loss += -(ratio * a).min(clipped * a);
                    stats.entropy += d.entropy();
                    stats.approx_kl += lp_old - lp_new;
                    if (ratio - clipped).abs() > 1e-12 {
                        stats.clip_fraction += 1.0;
                    }

                    match (&d, action) {
                        (Dist::Categorical(c), Action::Discrete(act)) => {
                            let drow = dout.row_slice_mut(r);
                            c.d_log_prob_d_logits(*act, &mut g);
                            for (o, gi) in drow.iter_mut().zip(&g) {
                                *o += dlp * gi * inv_mb;
                            }
                            if self.cfg.ent_coef != 0.0 {
                                c.d_entropy_d_logits(&mut g);
                                for (o, gi) in drow.iter_mut().zip(&g) {
                                    *o -= self.cfg.ent_coef * gi * inv_mb;
                                }
                            }
                        }
                        (Dist::Gaussian(gss), Action::Continuous(act)) => {
                            let drow = dout.row_slice_mut(r);
                            gss.d_log_prob_d_mean(act, &mut g);
                            for (o, gi) in drow.iter_mut().zip(&g) {
                                *o += dlp * gi * inv_mb;
                            }
                            gss.d_log_prob_d_log_std(act, &mut g);
                            for (o, gi) in dls.iter_mut().zip(&g) {
                                // Entropy gradient w.r.t. log_std is 1.
                                *o += (dlp * gi - self.cfg.ent_coef) * inv_mb;
                            }
                        }
                        _ => unreachable!("head/action mismatch"),
                    }
                    stat_count += 1.0;
                }

                self.policy.actor.zero_grad();
                self.policy.actor.backward_params(&self.atape, &dout);
                clip_grad_norm(&mut self.policy.actor, self.cfg.max_grad_norm);
                self.actor_opt.step(&mut self.policy.actor);
                self.step_log_std(&dls);

                // ---- Critic pass ----
                self.policy.critic.forward_into(&x, &mut self.vtape);
                let v = self.vtape.output();
                dv.resize_zeroed(mb, 1);
                for (r, &i) in chunk.iter().enumerate() {
                    let err = v.get(r, 0) - rets[i];
                    stats.value_loss += 0.5 * err * err;
                    dv.set(r, 0, self.cfg.vf_coef * err * inv_mb);
                }
                self.policy.critic.zero_grad();
                self.policy.critic.backward_params(&self.vtape, &dv);
                clip_grad_norm(&mut self.policy.critic, self.cfg.max_grad_norm);
                self.critic_opt.step(&mut self.policy.critic);

                self.updates += 1;
            }
        }

        // Learning cost: forward + backward over both networks for every
        // epoch over the whole rollout.
        let a_sizes = self.policy.actor.sizes();
        let c_sizes = self.policy.critic.sizes();
        let per_epoch = forward_flops(&a_sizes, n)
            + backward_flops(&a_sizes, n)
            + forward_flops(&c_sizes, n)
            + backward_flops(&c_sizes, n);
        self.flops += per_epoch * self.cfg.epochs as u64;

        if stat_count > 0.0 {
            stats.policy_loss /= stat_count;
            stats.value_loss /= stat_count;
            stats.entropy /= stat_count;
            stats.approx_kl /= stat_count;
            stats.clip_fraction /= stat_count;
        }
        stats
    }

    /// Apply the learning-rate schedule at training progress `p ∈ [0,1]`.
    ///
    /// No-op when the config has no schedule.
    pub fn anneal(&mut self, progress: f64) {
        if let Some(schedule) = self.cfg.lr_schedule {
            let lr = schedule.at(progress).max(0.0);
            self.actor_opt.set_lr(lr);
            self.critic_opt.set_lr(lr);
        }
    }

    /// Adam step for the free log_std vector, clamped to a sane range.
    fn step_log_std(&mut self, grad: &[f64]) {
        if grad.is_empty() {
            return;
        }
        self.ls_t += 1;
        let (b1, b2, eps) = (0.9, 0.999, 1e-8);
        let bc1 = 1.0 - b1_pow(b1, self.ls_t);
        let bc2 = 1.0 - b1_pow(b2, self.ls_t);
        for i in 0..grad.len() {
            self.ls_m[i] = b1 * self.ls_m[i] + (1.0 - b1) * grad[i];
            self.ls_v[i] = b2 * self.ls_v[i] + (1.0 - b2) * grad[i] * grad[i];
            let mh = self.ls_m[i] / bc1;
            let vh = self.ls_v[i] / bc2;
            self.policy.log_std[i] =
                (self.policy.log_std[i] - self.cfg.lr * mh / (vh.sqrt() + eps)).clamp(-4.0, 1.0);
        }
    }
}

fn b1_pow(b: f64, t: u64) -> f64 {
    b.powi(t.min(i32::MAX as u64) as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gymrs::envs::{GridWorld, PointMass};
    use gymrs::Environment;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn eval_greedy(learner: &PpoLearner, env: &mut dyn Environment, episodes: usize) -> f64 {
        let mut total = 0.0;
        for _ in 0..episodes {
            let mut obs = env.reset();
            loop {
                let s = env.step(&learner.policy.act_greedy(&obs));
                total += s.reward;
                let done = s.done();
                obs = s.obs;
                if done {
                    break;
                }
            }
        }
        total / episodes as f64
    }

    fn train_on<E: Environment>(
        env: &mut E,
        cfg: PpoConfig,
        iters: usize,
        seed: u64,
    ) -> PpoLearner {
        let mut rng = StdRng::seed_from_u64(seed);
        env.seed(seed);
        let obs_dim = env.observation_space().dim();
        let aspace = env.action_space();
        let mut learner = PpoLearner::new(obs_dim, &aspace, cfg, &mut rng);
        let mut obs = env.reset();
        for _ in 0..iters {
            let out = learner.collect(env, &mut obs, learner.cfg.n_steps, &mut rng);
            learner.update(&out.rollout, &mut rng);
        }
        learner
    }

    #[test]
    fn ppo_learns_grid_world() {
        let mut env = GridWorld::new(4);
        let cfg = PpoConfig { ent_coef: 0.01, ..PpoConfig::fast_test() };
        let learner = train_on(&mut env, cfg, 35, 7);
        // Evaluate the stochastic policy (the greedy argmax of a still-
        // entropic policy can deadlock against a wall; sampling is what
        // training-time returns measure).
        let mut rng = StdRng::seed_from_u64(100);
        let mut total = 0.0;
        let episodes = 20;
        for _ in 0..episodes {
            let mut obs = env.reset();
            loop {
                let (a, _, _) = learner.policy.act(&obs, &mut rng);
                let s = env.step(&a);
                total += s.reward;
                let done = s.done();
                obs = s.obs;
                if done {
                    break;
                }
            }
        }
        let score = total / episodes as f64;
        // Optimal is 0.8; a random policy scores far below 0.
        assert!(score > 0.4, "sampled return {score} should be near-optimal");
    }

    #[test]
    fn ppo_learns_point_mass() {
        let mut env = PointMass::new();
        let cfg = PpoConfig { n_steps: 512, ..PpoConfig::fast_test() };
        let mut learner = train_on(&mut env, cfg, 25, 11);
        let score = eval_greedy(&learner, &mut env, 10);
        // An idle policy scores around -1.5 .. -2.5 (drift); a trained one
        // must decisively beat it.
        assert!(score > -0.9, "greedy return {score} too low");
        let _ = &mut learner;
    }

    #[test]
    fn update_improves_surrogate_on_fixed_batch() {
        // The clipped objective on the same batch must not get worse after
        // an update (sanity of gradient signs).
        let mut rng = StdRng::seed_from_u64(3);
        let mut env = PointMass::new();
        env.seed(3);
        let mut learner = PpoLearner::new(4, &env.action_space(), PpoConfig::fast_test(), &mut rng);
        let mut obs = env.reset();
        let out = learner.collect(&mut env, &mut obs, 256, &mut rng);
        let stats1 = learner.update(&out.rollout, &mut rng);
        // Re-evaluate the surrogate on the same data with the new policy:
        // the ratios should have moved toward higher-advantage actions, so
        // approximate KL should be positive and finite.
        assert!(stats1.approx_kl.abs() < 0.5, "KL exploded: {}", stats1.approx_kl);
        assert!(stats1.value_loss.is_finite());
        assert!(!learner.policy.actor.has_non_finite());
    }

    #[test]
    fn collect_handles_episode_boundaries() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut env = GridWorld::new(3);
        env.seed(5);
        let mut learner = PpoLearner::new(2, &env.action_space(), PpoConfig::fast_test(), &mut rng);
        let mut obs = env.reset();
        let out = learner.collect(&mut env, &mut obs, 300, &mut rng);
        assert_eq!(out.rollout.len(), 300);
        assert!(!out.episodes.is_empty(), "300 steps must finish some episodes");
        // Terminated steps must have zero bootstrap value.
        for (i, &term) in out.rollout.terminateds.iter().enumerate() {
            if term {
                assert_eq!(out.rollout.next_values[i], 0.0);
            }
        }
        assert_eq!(out.env_work, 300, "grid world costs 1 unit per step");
    }

    #[test]
    fn collect_vec_matches_sequential_collect() {
        // A single-sub-env VecEnv collection must reproduce the per-step
        // collector exactly: the batched kernels are row-bitwise
        // deterministic and the rng draw order is identical.
        let cfg = PpoConfig::fast_test();
        let mut learner_a = PpoLearner::new(
            2,
            &gymrs::Space::Discrete(4),
            cfg.clone(),
            &mut StdRng::seed_from_u64(21),
        );
        let mut learner_b =
            PpoLearner::new(2, &gymrs::Space::Discrete(4), cfg, &mut StdRng::seed_from_u64(21));

        let mut env = GridWorld::new(3);
        env.seed(7);
        let mut obs = env.reset();
        let seq = learner_a.collect(&mut env, &mut obs, 200, &mut StdRng::seed_from_u64(33));

        let mut venv = gymrs::VecEnv::new(vec![GridWorld::new(3)], 7);
        venv.reset_all();
        let vec_out = learner_b.collect_vec(&mut venv, 200, &mut StdRng::seed_from_u64(33));

        assert_eq!(vec_out.rollout.obs, seq.rollout.obs);
        assert_eq!(vec_out.rollout.actions, seq.rollout.actions);
        assert_eq!(vec_out.rollout.rewards, seq.rollout.rewards);
        assert_eq!(vec_out.rollout.values, seq.rollout.values);
        assert_eq!(vec_out.rollout.next_values, seq.rollout.next_values);
        assert_eq!(vec_out.rollout.log_probs, seq.rollout.log_probs);
        assert_eq!(vec_out.env_work, seq.env_work);
        assert_eq!(vec_out.episodes, seq.episodes);
        assert!(learner_b.flops > 0);
    }

    #[test]
    fn flops_accounting_grows_with_work() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut env = GridWorld::new(3);
        env.seed(6);
        let mut learner = PpoLearner::new(2, &env.action_space(), PpoConfig::fast_test(), &mut rng);
        assert_eq!(learner.flops, 0);
        let mut obs = env.reset();
        let out = learner.collect(&mut env, &mut obs, 64, &mut rng);
        let after_collect = learner.flops;
        assert!(after_collect > 0);
        learner.update(&out.rollout, &mut rng);
        assert!(learner.flops > after_collect);
        assert!(learner.updates > 0);
    }

    #[test]
    #[should_panic(expected = "empty rollout")]
    fn empty_rollout_panics() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut learner =
            PpoLearner::new(2, &gymrs::Space::Discrete(2), PpoConfig::fast_test(), &mut rng);
        learner.update(&RolloutBuffer::default(), &mut rng);
    }

    #[test]
    fn log_std_stays_in_clamp_range() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut env = PointMass::new();
        env.seed(9);
        let mut learner = PpoLearner::new(
            4,
            &env.action_space(),
            PpoConfig { lr: 0.05, ..PpoConfig::fast_test() },
            &mut rng,
        );
        let mut obs = env.reset();
        for _ in 0..5 {
            let out = learner.collect(&mut env, &mut obs, 128, &mut rng);
            learner.update(&out.rollout, &mut rng);
        }
        for &ls in &learner.policy.log_std {
            assert!((-4.0..=1.0).contains(&ls), "log_std out of range: {ls}");
        }
    }
}
