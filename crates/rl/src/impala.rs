//! IMPALA-style learner: policy gradient with V-trace correction.
//!
//! §II-A: "IMPALA, a highly scalable agent introducing a new off-policy
//! algorithm called V-trace". This learner consumes rollouts collected by
//! *stale* policy snapshots (the regime the RLlib-like backend creates on
//! two nodes) and corrects them with [`crate::vtrace`], so throughput can
//! scale without the reward degradation the paper observes for naive
//! distribution (§VI-D, configs 7 vs 8).
//!
//! Approximation note: true IMPALA evaluates `V` with the learner's
//! critic; our rollout buffers store the behaviour snapshot's values
//! (they lack successor observations). The snapshots are at most a few
//! updates stale, and the ρ/c importance corrections — which address the
//! *policy* mismatch, the dominant error source — are exact.

// Index loops here co-index several arrays; zip chains would obscure them.
#![allow(clippy::needless_range_loop)]
use crate::buffer::RolloutBuffer;
use crate::gae;
use crate::policy::{ActorCritic, Dist, PolicyHead};
use crate::vtrace::{vtrace, VtraceConfig};
use gymrs::{Action, Space};
use rand::Rng;
use serde::{Deserialize, Serialize};
use tinynn::{backward_flops, clip_grad_norm, forward_flops, Adam, Matrix, Optimizer};

/// IMPALA hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ImpalaConfig {
    /// Learning rate.
    pub lr: f64,
    /// Discount γ.
    pub gamma: f64,
    /// V-trace ρ̄ clip.
    pub rho_clip: f64,
    /// V-trace c̄ clip.
    pub c_clip: f64,
    /// Entropy bonus coefficient.
    pub ent_coef: f64,
    /// Value-loss coefficient.
    pub vf_coef: f64,
    /// Gradient-norm clip.
    pub max_grad_norm: f64,
    /// Hidden sizes.
    pub hidden: Vec<usize>,
    /// Steps per update batch.
    pub n_steps: usize,
}

impl Default for ImpalaConfig {
    fn default() -> Self {
        Self {
            lr: 6e-4,
            gamma: 0.99,
            rho_clip: 1.0,
            c_clip: 1.0,
            ent_coef: 0.01,
            vf_coef: 0.5,
            max_grad_norm: 0.5,
            hidden: vec![64, 64],
            n_steps: 256,
        }
    }
}

/// Diagnostics from one IMPALA update.
#[derive(Debug, Clone, Copy, Default)]
pub struct ImpalaStats {
    /// Mean policy-gradient loss.
    pub policy_loss: f64,
    /// Mean value loss (toward the V-trace targets).
    pub value_loss: f64,
    /// Mean entropy.
    pub entropy: f64,
    /// Mean clipped importance weight (1.0 = on-policy).
    pub mean_rho: f64,
}

/// The IMPALA learner.
pub struct ImpalaLearner {
    /// The actor-critic being trained.
    pub policy: ActorCritic,
    cfg: ImpalaConfig,
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

impl ImpalaLearner {
    /// Create a learner.
    pub fn new(
        obs_dim: usize,
        action_space: &Space,
        cfg: ImpalaConfig,
        rng: &mut impl Rng,
    ) -> Self {
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
    pub fn config(&self) -> &ImpalaConfig {
        &self.cfg
    }

    /// One V-trace-corrected update over a (possibly stale) rollout.
    pub fn update(&mut self, rollout: &RolloutBuffer) -> ImpalaStats {
        let n = rollout.len();
        assert!(n > 0, "cannot update from an empty rollout");
        let act_dim = match self.policy.head() {
            PolicyHead::Categorical { n } => n,
            PolicyHead::Gaussian { dim } => dim,
        };
        let obs_dim = rollout.obs[0].len();
        let mut x = Matrix::zeros(n, obs_dim);
        for (r, o) in rollout.obs.iter().enumerate() {
            x.row_slice_mut(r).copy_from_slice(o);
        }

        // ---- Target log-probs under the current policy.
        let tape = self.policy.actor.forward(&x);
        let out = tape.output();
        let mut target_lp = Vec::with_capacity(n);
        let mut dists = Vec::with_capacity(n);
        for i in 0..n {
            let d = self.policy.dist_from_actor_row(out.row_slice(i));
            target_lp.push(d.log_prob(&rollout.actions[i]));
            dists.push(d);
        }

        // ---- V-trace correction.
        let vt = vtrace(
            &rollout.log_probs,
            &target_lp,
            &rollout.rewards,
            &rollout.values,
            &rollout.next_values,
            &rollout.dones,
            &VtraceConfig {
                gamma: self.cfg.gamma,
                rho_clip: self.cfg.rho_clip,
                c_clip: self.cfg.c_clip,
            },
        );
        let mut adv = vt.pg_advantages.clone();
        gae::normalize(&mut adv);

        let mut stats = ImpalaStats {
            mean_rho: vt.rhos.iter().sum::<f64>() / n as f64,
            ..ImpalaStats::default()
        };
        let inv_n = 1.0 / n as f64;

        // ---- Actor step: L = -(log π) Â_vtrace - ent H.
        let mut dout = Matrix::zeros(n, act_dim);
        let mut dls = vec![0.0; self.policy.log_std.len()];
        let mut g = vec![0.0; act_dim];
        for i in 0..n {
            let a = adv[i];
            stats.policy_loss += -target_lp[i] * a * inv_n;
            stats.entropy += dists[i].entropy() * inv_n;
            match (&dists[i], &rollout.actions[i]) {
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

        // ---- Critic toward the V-trace targets.
        let vtape = self.policy.critic.forward(&x);
        let v = vtape.output();
        let mut dv = Matrix::zeros(n, 1);
        for i in 0..n {
            let err = v.get(i, 0) - vt.vs[i];
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
        self.flops += 2 * forward_flops(&a_sizes, n)
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
    use gymrs::envs::GridWorld;
    use gymrs::Environment;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn collect(
        policy: &ActorCritic,
        env: &mut dyn Environment,
        obs: &mut Vec<f64>,
        n: usize,
        rng: &mut StdRng,
    ) -> (RolloutBuffer, Vec<f64>) {
        let mut rollout = RolloutBuffer::with_capacity(n);
        let mut returns = Vec::new();
        let mut ep = 0.0;
        for _ in 0..n {
            let (action, log_prob, value) = policy.act(obs, rng);
            let s = env.step(&action);
            ep += s.reward;
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
                returns.push(ep);
                ep = 0.0;
                *obs = env.reset();
            } else {
                *obs = s.obs;
            }
        }
        if let Some(last) = rollout.dones.last_mut() {
            *last = true;
        }
        (rollout, returns)
    }

    #[test]
    fn impala_learns_grid_world_with_stale_actors() {
        // The defining property: the *behaviour* policy lags the learner
        // by several updates (as remote IMPALA actors do), and learning
        // still works thanks to the V-trace correction.
        let mut rng = StdRng::seed_from_u64(3);
        let mut env = GridWorld::new(3);
        env.seed(3);
        let cfg = ImpalaConfig { hidden: vec![32, 32], n_steps: 128, ..ImpalaConfig::default() };
        let mut learner = ImpalaLearner::new(2, &env.action_space(), cfg, &mut rng);
        let mut behaviour = learner.policy.clone();
        let mut obs = env.reset();
        let mut recent = Vec::new();
        for iter in 0..120 {
            // Actors refresh their snapshot only every 4 iterations.
            if iter % 4 == 0 {
                behaviour.copy_params_from(&learner.policy);
            }
            let (rollout, rets) = collect(&behaviour, &mut env, &mut obs, 128, &mut rng);
            recent.extend(rets);
            let stats = learner.update(&rollout);
            assert!(stats.value_loss.is_finite());
            assert!((0.0..=1.0 + 1e-9).contains(&stats.mean_rho));
        }
        let tail = &recent[recent.len().saturating_sub(15)..];
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(mean > 0.3, "stale-actor IMPALA should still learn: {mean}");
        assert!(!learner.policy.actor.has_non_finite());
    }

    #[test]
    fn on_policy_rho_is_one() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut env = GridWorld::new(3);
        env.seed(5);
        let mut learner = ImpalaLearner::new(
            2,
            &env.action_space(),
            ImpalaConfig { hidden: vec![16], ..ImpalaConfig::default() },
            &mut rng,
        );
        let behaviour = learner.policy.clone();
        let mut obs = env.reset();
        let (rollout, _) = collect(&behaviour, &mut env, &mut obs, 64, &mut rng);
        let stats = learner.update(&rollout);
        assert!(
            (stats.mean_rho - 1.0).abs() < 1e-9,
            "fresh snapshot => on-policy => mean rho 1, got {}",
            stats.mean_rho
        );
    }

    #[test]
    fn stale_rollouts_reduce_mean_rho() {
        // After the learner moves away from the behaviour snapshot, the
        // clipped importance weights drop below 1 on average.
        let mut rng = StdRng::seed_from_u64(7);
        let mut env = GridWorld::new(3);
        env.seed(7);
        let cfg = ImpalaConfig { hidden: vec![16], n_steps: 64, ..ImpalaConfig::default() };
        let mut learner = ImpalaLearner::new(2, &env.action_space(), cfg, &mut rng);
        let behaviour = learner.policy.clone();
        let mut obs = env.reset();
        // Several updates with fresh data move the learner away.
        for _ in 0..10 {
            let (rollout, _) = collect(&learner.policy.clone(), &mut env, &mut obs, 64, &mut rng);
            learner.update(&rollout);
        }
        let (stale, _) = collect(&behaviour, &mut env, &mut obs, 64, &mut rng);
        let stats = learner.update(&stale);
        assert!(stats.mean_rho < 1.0, "stale data must clip: {}", stats.mean_rho);
    }

    #[test]
    #[should_panic(expected = "empty rollout")]
    fn empty_rollout_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut learner =
            ImpalaLearner::new(2, &Space::Discrete(2), ImpalaConfig::default(), &mut rng);
        learner.update(&RolloutBuffer::default());
    }
}
