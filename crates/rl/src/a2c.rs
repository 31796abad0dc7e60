//! Advantage Actor-Critic (synchronous A2C).
//!
//! The synchronous sibling of A3C, which the paper's §II-A cites as the
//! archetypal distributed actor-critic. A2C takes **one** gradient step
//! per collected batch (no ratio clipping, no epochs), which makes it the
//! natural third algorithm for extending the study beyond {PPO, SAC} —
//! the `table1 --ablation algo` sweep and the `hyperparameter_search`
//! example can drive it through the same collection machinery as PPO.

// Index loops here co-index several arrays; zip chains would obscure them.
#![allow(clippy::needless_range_loop)]
use crate::buffer::RolloutBuffer;
use crate::gae;
use crate::policy::{ActorCritic, Dist, PolicyHead};
use gymrs::{Action, Space};
use rand::Rng;
use serde::{Deserialize, Serialize};
use tinynn::{backward_flops, clip_grad_norm, forward_flops, Adam, Matrix, Optimizer};

/// A2C hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct A2cConfig {
    /// Learning rate (A2C traditionally uses RMSProp; Adam works fine).
    pub lr: f64,
    /// Discount γ.
    pub gamma: f64,
    /// GAE λ (1.0 recovers the classic n-step advantage).
    pub lambda: f64,
    /// Entropy bonus coefficient.
    pub ent_coef: f64,
    /// Value-loss coefficient.
    pub vf_coef: f64,
    /// Gradient-norm clip.
    pub max_grad_norm: f64,
    /// Hidden sizes.
    pub hidden: Vec<usize>,
    /// Steps per update (A2C default is much shorter than PPO's).
    pub n_steps: usize,
}

impl Default for A2cConfig {
    fn default() -> Self {
        Self {
            lr: 7e-4,
            gamma: 0.99,
            lambda: 1.0,
            ent_coef: 0.01,
            vf_coef: 0.5,
            max_grad_norm: 0.5,
            hidden: vec![64, 64],
            n_steps: 32,
        }
    }
}

/// Diagnostics from one A2C update.
#[derive(Debug, Clone, Copy, Default)]
pub struct A2cStats {
    /// Mean policy-gradient loss.
    pub policy_loss: f64,
    /// Mean value loss.
    pub value_loss: f64,
    /// Mean entropy.
    pub entropy: f64,
}

/// The A2C learner (shares [`ActorCritic`] with PPO, so the distributed
/// collection helpers work unchanged).
pub struct A2cLearner {
    /// The actor-critic being trained.
    pub policy: ActorCritic,
    cfg: A2cConfig,
    actor_opt: Adam,
    critic_opt: Adam,
    ls_m: Vec<f64>,
    ls_v: Vec<f64>,
    ls_t: u64,
    /// Gradient updates performed.
    pub updates: u64,
    /// Accumulated learning FLOPs.
    pub flops: u64,
}

impl A2cLearner {
    /// Create a learner.
    pub fn new(obs_dim: usize, action_space: &Space, cfg: A2cConfig, rng: &mut impl Rng) -> Self {
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
        }
    }

    /// The hyperparameters.
    pub fn config(&self) -> &A2cConfig {
        &self.cfg
    }

    /// One A2C update: a single gradient step over the whole batch.
    pub fn update(&mut self, rollout: &RolloutBuffer) -> A2cStats {
        let n = rollout.len();
        assert!(n > 0, "cannot update from an empty rollout");
        let (mut adv, rets) = rollout.advantages(self.cfg.gamma, self.cfg.lambda);
        gae::normalize(&mut adv);

        let act_dim = match self.policy.head() {
            PolicyHead::Categorical { n } => n,
            PolicyHead::Gaussian { dim } => dim,
        };
        let obs_dim = rollout.obs[0].len();
        let mut x = Matrix::zeros(n, obs_dim);
        for (r, o) in rollout.obs.iter().enumerate() {
            x.row_slice_mut(r).copy_from_slice(o);
        }

        let mut stats = A2cStats::default();
        let inv_n = 1.0 / n as f64;

        // ---- Actor: L = -(log π) A - ent H.
        let tape = self.policy.actor.forward(&x);
        let out = tape.output();
        let mut dout = Matrix::zeros(n, act_dim);
        let mut dls = vec![0.0; self.policy.log_std.len()];
        let mut g = vec![0.0; act_dim];
        for i in 0..n {
            let d = self.policy.dist_from_actor_row(out.row_slice(i));
            let action = &rollout.actions[i];
            let a = adv[i];
            stats.policy_loss += -d.log_prob(action) * a * inv_n;
            stats.entropy += d.entropy() * inv_n;
            // dL/dlogπ = -A.
            match (&d, action) {
                (Dist::Categorical(c), Action::Discrete(act)) => {
                    let drow = dout.row_slice_mut(i);
                    c.d_log_prob_d_logits(*act, &mut g);
                    for (o, gi) in drow.iter_mut().zip(&g) {
                        *o += -a * gi * inv_n;
                    }
                    if self.cfg.ent_coef != 0.0 {
                        c.d_entropy_d_logits(&mut g);
                        for (o, gi) in drow.iter_mut().zip(&g) {
                            *o -= self.cfg.ent_coef * gi * inv_n;
                        }
                    }
                }
                (Dist::Gaussian(gss), Action::Continuous(act)) => {
                    let drow = dout.row_slice_mut(i);
                    gss.d_log_prob_d_mean(act, &mut g);
                    for (o, gi) in drow.iter_mut().zip(&g) {
                        *o += -a * gi * inv_n;
                    }
                    gss.d_log_prob_d_log_std(act, &mut g);
                    for (o, gi) in dls.iter_mut().zip(&g) {
                        *o += (-a * gi - self.cfg.ent_coef) * inv_n;
                    }
                }
                _ => unreachable!("head/action mismatch"),
            }
        }
        self.policy.actor.zero_grad();
        self.policy.actor.backward_params(&tape, &dout);
        clip_grad_norm(&mut self.policy.actor, self.cfg.max_grad_norm);
        self.actor_opt.step(&mut self.policy.actor);
        self.step_log_std(&dls);

        // ---- Critic.
        let vtape = self.policy.critic.forward(&x);
        let v = vtape.output();
        let mut dv = Matrix::zeros(n, 1);
        for i in 0..n {
            let err = v.get(i, 0) - rets[i];
            stats.value_loss += 0.5 * err * err * inv_n;
            dv.set(i, 0, self.cfg.vf_coef * err * inv_n);
        }
        self.policy.critic.zero_grad();
        self.policy.critic.backward_params(&vtape, &dv);
        clip_grad_norm(&mut self.policy.critic, self.cfg.max_grad_norm);
        self.critic_opt.step(&mut self.policy.critic);

        self.updates += 1;
        let a_sizes = self.policy.actor.sizes();
        let c_sizes = self.policy.critic.sizes();
        self.flops += forward_flops(&a_sizes, n)
            + backward_flops(&a_sizes, n)
            + forward_flops(&c_sizes, n)
            + backward_flops(&c_sizes, n);
        stats
    }

    fn step_log_std(&mut self, grad: &[f64]) {
        if grad.is_empty() {
            return;
        }
        self.ls_t += 1;
        let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let bc1 = 1.0 - b1.powi(self.ls_t.min(i32::MAX as u64) as i32);
        let bc2 = 1.0 - b2.powi(self.ls_t.min(i32::MAX as u64) as i32);
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

#[cfg(test)]
mod tests {
    use super::*;
    use gymrs::envs::{GridWorld, PointMass};
    use gymrs::Environment;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Shared minimal collection helper for the A2C tests (PPO's collect
    /// lives on its learner; A2C reuses the standalone segment collector).
    mod backendsless_collect {
        use super::*;
        pub fn collect_for_tests(
            policy: &ActorCritic,
            env: &mut dyn gymrs::Environment,
            obs: &mut Vec<f64>,
            n: usize,
            rng: &mut StdRng,
        ) -> (RolloutBuffer, Vec<(f64, usize)>) {
            let mut rollout = RolloutBuffer::with_capacity(n);
            let mut episodes = Vec::new();
            let mut ep_ret = 0.0;
            let mut ep_len = 0;
            for _ in 0..n {
                let (action, log_prob, value) = policy.act(obs, rng);
                let s = env.step(&action);
                ep_ret += s.reward;
                ep_len += 1;
                let done = s.done();
                let next_value = if s.terminated { 0.0 } else { policy.value(&s.obs) };
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
                } else {
                    *obs = s.obs;
                }
            }
            if let Some(last) = rollout.dones.last_mut() {
                *last = true;
            }
            (rollout, episodes)
        }
    }
    fn train_a2c(env: &mut dyn Environment, steps: usize, seed: u64) -> (A2cLearner, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        env.seed(seed);
        let obs_dim = env.observation_space().dim();
        let aspace = env.action_space();
        let cfg = A2cConfig { hidden: vec![32, 32], ..A2cConfig::default() };
        let mut learner = A2cLearner::new(obs_dim, &aspace, cfg, &mut rng);
        let mut obs = env.reset();
        let mut returns = Vec::new();
        let mut collected = 0usize;
        while collected < steps {
            let (rollout, eps) = backendsless_collect::collect_for_tests(
                &learner.policy,
                env,
                &mut obs,
                learner.cfg.n_steps,
                &mut rng,
            );
            collected += rollout.len();
            returns.extend(eps.iter().map(|e| e.0));
            learner.update(&rollout);
        }
        let tail = &returns[returns.len().saturating_sub(10)..];
        let recent = if tail.is_empty() {
            f64::NEG_INFINITY
        } else {
            tail.iter().sum::<f64>() / tail.len() as f64
        };
        (learner, recent)
    }

    #[test]
    fn a2c_learns_grid_world() {
        let mut env = GridWorld::new(3);
        let (_, recent) = train_a2c(&mut env, 12_000, 3);
        // Optimal return on the 3x3 grid is 1 - 0.04*3 = 0.88; random
        // wandering is far below zero.
        assert!(recent > 0.4, "recent mean return {recent}");
    }

    #[test]
    fn a2c_improves_on_point_mass() {
        let mut env = PointMass::new();
        let (_, recent) = train_a2c(&mut env, 15_000, 5);
        // Idle policies score around -1.5..-2.5.
        assert!(recent > -1.2, "recent mean return {recent}");
    }

    #[test]
    fn update_keeps_parameters_finite() {
        let mut env = PointMass::new();
        let (learner, _) = train_a2c(&mut env, 2_000, 7);
        assert!(!learner.policy.actor.has_non_finite());
        assert!(!learner.policy.critic.has_non_finite());
        assert!(learner.updates > 0);
        assert!(learner.flops > 0);
    }

    #[test]
    #[should_panic(expected = "empty rollout")]
    fn empty_rollout_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut learner = A2cLearner::new(2, &Space::Discrete(2), A2cConfig::default(), &mut rng);
        learner.update(&RolloutBuffer::default());
    }

    #[test]
    fn log_std_stays_clamped() {
        let mut env = PointMass::new();
        let (learner, _) = train_a2c(&mut env, 3_000, 9);
        for &ls in &learner.policy.log_std {
            assert!((-4.0..=1.0).contains(&ls));
        }
    }
}
