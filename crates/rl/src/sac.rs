//! Soft Actor-Critic with twin critics, target networks and automatic
//! entropy-temperature tuning.
//!
//! The off-policy algorithm of the paper's study. Continuous actions only
//! (the squashed-Gaussian policy), matching the frameworks' SAC
//! implementations; the airdrop environment exposes a continuous steering
//! mode for exactly this reason.

// Index loops here co-index several arrays; zip chains would obscure them.
#![allow(clippy::needless_range_loop)]
use crate::buffer::{ReplayBuffer, Transition};
use gymrs::{Action, Space};
use rand::Rng;
use simd_kernels::mathf64::{exp, ln};
use tinynn::dist::{PathwisePartials, SquashedGaussian, SquashedSample, LOG_STD_MAX, LOG_STD_MIN};
use tinynn::{
    backward_flops, clip_grad_norm, forward_flops, Activation, Adam, Matrix, Mlp, Optimizer, Tape,
};

/// SAC hyperparameters.
#[derive(Debug, Clone)]
pub struct SacConfig {
    /// Adam learning rate (all networks).
    pub lr: f64,
    /// Discount factor γ.
    pub gamma: f64,
    /// Polyak averaging rate for target networks.
    pub tau: f64,
    /// Replay batch size.
    pub batch: usize,
    /// Replay buffer capacity.
    pub buffer_capacity: usize,
    /// Steps of uniform-random exploration before using the policy.
    pub start_steps: usize,
    /// Environment steps between gradient updates.
    pub update_every: usize,
    /// Updates performed at each update point.
    pub updates_per_step: usize,
    /// Hidden sizes for actor and critics.
    pub hidden: Vec<usize>,
    /// Entropy target (defaults to `-action_dim` when `None`).
    pub target_entropy: Option<f64>,
    /// Initial temperature α.
    pub init_alpha: f64,
    /// Learning rate for the temperature.
    pub alpha_lr: f64,
    /// Global gradient clip.
    pub max_grad_norm: f64,
}

impl Default for SacConfig {
    fn default() -> Self {
        Self {
            lr: 3e-4,
            gamma: 0.99,
            tau: 0.005,
            batch: 256,
            buffer_capacity: 100_000,
            start_steps: 1_000,
            update_every: 1,
            updates_per_step: 1,
            hidden: vec![64, 64],
            target_entropy: None,
            init_alpha: 0.2,
            alpha_lr: 3e-4,
            max_grad_norm: 10.0,
        }
    }
}

impl SacConfig {
    /// Small/fast configuration for unit tests.
    pub fn fast_test() -> Self {
        Self {
            batch: 64,
            buffer_capacity: 20_000,
            start_steps: 300,
            update_every: 2,
            hidden: vec![32, 32],
            ..Self::default()
        }
    }
}

/// The SAC learner.
pub struct SacLearner {
    /// Actor network: obs → `[mean | log_std]` (2 × action dim outputs).
    pub actor: Mlp,
    /// First critic: `[obs | act]` → Q.
    pub q1: Mlp,
    /// Second critic.
    pub q2: Mlp,
    q1_target: Mlp,
    q2_target: Mlp,
    log_alpha: f64,
    cfg: SacConfig,
    actor_opt: Adam,
    q1_opt: Adam,
    q2_opt: Adam,
    act_dim: usize,
    obs_dim: usize,
    target_entropy: f64,
    /// Replay storage.
    pub replay: ReplayBuffer,
    /// Environment steps observed.
    pub steps_observed: u64,
    /// Gradient updates performed.
    pub updates: u64,
    /// Accumulated learning FLOPs.
    pub flops: u64,
    scratch: Scratch,
}

/// Forward tapes and batch matrices of one update, held on the learner
/// (the way `PpoLearner` holds its tapes) and resized in place, so a
/// warmed-up update builds none of them afresh. Each is reused as soon as
/// its previous contents have been consumed.
#[derive(Default)]
struct Scratch {
    /// Actor pass over the next observations, then over the observations.
    actor_tape: Tape,
    /// Target critic 1 on `[s' | a']`, then critic 1 on `[s | a_π]` and `[s | a]`.
    q1_tape: Tape,
    /// The same for critic 2.
    q2_tape: Tape,
    /// `b × obs_dim`: next observations, then observations.
    obs_in: Matrix,
    /// `b × (obs_dim + act_dim)`: `[s' | a']`, then `[s | a_π]`, then `[s | a]`.
    q_in: Matrix,
    /// `b × 1` critic output gradient: all ones, then the TD errors.
    dq: Matrix,
    /// `b × 2·act_dim` actor output gradient.
    dactor: Matrix,
    /// TD targets.
    y: Vec<f64>,
    /// Per batch row, the policy distribution and the action drawn from
    /// it: at the next observations, then at the observations.
    dists: Vec<SquashedGaussian>,
    samples: Vec<SquashedSample>,
    /// Pathwise partials of the row being turned into actor gradient.
    parts: PathwisePartials,
}

impl SacLearner {
    /// Create a learner; the action space must be continuous.
    pub fn new(obs_dim: usize, action_space: &Space, cfg: SacConfig, rng: &mut impl Rng) -> Self {
        let act_dim = match action_space {
            Space::Box { low, .. } => low.len(),
            Space::Discrete(_) => panic!("SAC requires a continuous action space"),
        };
        let mut actor_sizes = vec![obs_dim];
        actor_sizes.extend_from_slice(&cfg.hidden);
        actor_sizes.push(2 * act_dim);
        let mut q_sizes = vec![obs_dim + act_dim];
        q_sizes.extend_from_slice(&cfg.hidden);
        q_sizes.push(1);

        let actor = Mlp::new(&actor_sizes, Activation::Relu, Activation::Identity, rng);
        let q1 = Mlp::new(&q_sizes, Activation::Relu, Activation::Identity, rng);
        let q2 = Mlp::new(&q_sizes, Activation::Relu, Activation::Identity, rng);
        let q1_target = q1.clone();
        let q2_target = q2.clone();
        Self {
            actor,
            q1,
            q2,
            q1_target,
            q2_target,
            log_alpha: ln(cfg.init_alpha),
            actor_opt: Adam::new(cfg.lr),
            q1_opt: Adam::new(cfg.lr),
            q2_opt: Adam::new(cfg.lr),
            act_dim,
            obs_dim,
            target_entropy: cfg.target_entropy.unwrap_or(-(act_dim as f64)),
            replay: ReplayBuffer::new(cfg.buffer_capacity),
            steps_observed: 0,
            updates: 0,
            flops: 0,
            scratch: Scratch::default(),
            cfg,
        }
    }

    /// Current temperature α.
    pub fn alpha(&self) -> f64 {
        exp(self.log_alpha)
    }

    /// Policy distribution for an observation.
    fn policy_dist(&self, obs: &[f64]) -> SquashedGaussian {
        let out = self.actor.infer(&Matrix::row(obs));
        let row = out.row_slice(0);
        SquashedGaussian::new(&row[..self.act_dim], &row[self.act_dim..])
    }

    /// Select an action for environment interaction (random during the
    /// warmup phase, stochastic policy afterwards).
    pub fn act(&self, obs: &[f64], rng: &mut impl Rng) -> Action {
        if (self.steps_observed as usize) < self.cfg.start_steps {
            return Action::Continuous(
                (0..self.act_dim).map(|_| rng.gen_range(-1.0..=1.0)).collect(),
            );
        }
        Action::Continuous(self.policy_dist(obs).rsample(rng).action)
    }

    /// Deterministic action for evaluation.
    pub fn act_greedy(&self, obs: &[f64]) -> Action {
        Action::Continuous(self.policy_dist(obs).mode())
    }

    /// [`SacLearner::act_greedy`] for every row of `obs`, one actor
    /// forward on `tape` — SAC's half of [`crate::Greedy::act_batch`].
    pub(crate) fn act_greedy_batch(&self, obs: &Matrix, tape: &mut Tape) -> Vec<Action> {
        let out = self.actor.infer_into(obs, tape);
        (0..out.rows())
            .map(|r| {
                let row = out.row_slice(r);
                let dist = SquashedGaussian::new(&row[..self.act_dim], &row[self.act_dim..]);
                Action::Continuous(dist.mode())
            })
            .collect()
    }

    /// Record a transition and run any due updates.
    pub fn observe(&mut self, t: Transition, rng: &mut impl Rng) {
        self.replay.push(t);
        self.steps_observed += 1;
        let warm = (self.steps_observed as usize) >= self.cfg.start_steps.max(self.cfg.batch);
        let due = self.steps_observed.is_multiple_of(self.cfg.update_every as u64);
        if !(warm && due) {
            return;
        }
        for _ in 0..self.cfg.updates_per_step {
            self.update_from_batch(rng);
        }
    }

    /// One gradient update from a replay sample.
    pub fn update_from_batch(&mut self, rng: &mut impl Rng) {
        let batch = self.replay.sample(self.cfg.batch, rng);
        let b = batch.len();
        let gamma = self.cfg.gamma;
        let alpha = self.alpha();
        let (obs_dim, act_dim) = (self.obs_dim, self.act_dim);
        let Scratch {
            actor_tape,
            q1_tape,
            q2_tape,
            obs_in,
            q_in,
            dq,
            dactor,
            y,
            dists,
            samples,
            parts,
        } = &mut self.scratch;
        dists.resize_with(b, SquashedGaussian::default);
        samples.resize_with(b, SquashedSample::default);

        // ---- 1. Targets: y = r + γ(1-d)(min Q_t(s',a') - α log π(a'|s'))
        fill_rows(obs_in, &batch, obs_dim, |t| &t.next_obs);
        let next_out = self.actor.infer_into(obs_in, actor_tape);
        q_in.resize_zeroed(b, obs_dim + act_dim);
        for i in 0..b {
            let row = next_out.row_slice(i);
            dists[i].assign(&row[..act_dim], &row[act_dim..]);
            dists[i].rsample_into(rng, &mut samples[i]);
            let dst = q_in.row_slice_mut(i);
            dst[..obs_dim].copy_from_slice(&batch[i].next_obs);
            dst[obs_dim..].copy_from_slice(&samples[i].action);
        }
        let q1t = self.q1_target.infer_into(q_in, q1_tape);
        let q2t = self.q2_target.infer_into(q_in, q2_tape);
        y.clear();
        for i in 0..b {
            let qmin = q1t.get(i, 0).min(q2t.get(i, 0));
            let not_done = if batch[i].terminated { 0.0 } else { 1.0 };
            y.push(batch[i].reward + gamma * not_done * (qmin - alpha * samples[i].log_prob));
        }

        // ---- 2. Actor update (before the critic step: `din1`/`din2` are
        // lent from the critics' backward buffers, which step 4 reuses).
        fill_rows(obs_in, &batch, obs_dim, |t| &t.obs);
        self.actor.forward_into(obs_in, actor_tape);
        let actor_out = actor_tape.output();
        for i in 0..b {
            let row = actor_out.row_slice(i);
            dists[i].assign(&row[..act_dim], &row[act_dim..]);
            dists[i].rsample_into(rng, &mut samples[i]);
            let dst = q_in.row_slice_mut(i);
            dst[..obs_dim].copy_from_slice(&batch[i].obs);
            dst[obs_dim..].copy_from_slice(&samples[i].action);
        }
        // dQmin/da via the critics' input gradients.
        self.q1.forward_into(q_in, q1_tape);
        self.q2.forward_into(q_in, q2_tape);
        let q1v = q1_tape.output();
        let q2v = q2_tape.output();
        dq.resize_zeroed(b, 1);
        dq.as_mut_slice().fill(1.0);
        let din1 = self.q1.backward_input(q1_tape, dq);
        let din2 = self.q2.backward_input(q2_tape, dq);

        dactor.resize_zeroed(b, 2 * act_dim);
        let inv_b = 1.0 / b as f64;
        for i in 0..b {
            let use_q1 = q1v.get(i, 0) <= q2v.get(i, 0);
            let din = if use_q1 { din1.row_slice(i) } else { din2.row_slice(i) };
            let dq_da = &din[obs_dim..];
            dists[i].pathwise_partials_into(&samples[i], parts);
            let raw_ls = &actor_out.row_slice(i)[act_dim..];
            let drow = dactor.row_slice_mut(i);
            for k in 0..act_dim {
                // L = α log π - Q_min
                let dmean = alpha * parts.dlp_dmean[k] - dq_da[k] * parts.da_dmean[k];
                let mut dls = alpha * parts.dlp_dlogstd[k] - dq_da[k] * parts.da_dlogstd[k];
                // Clamp in SquashedGaussian::new has zero gradient outside.
                if raw_ls[k] <= LOG_STD_MIN || raw_ls[k] >= LOG_STD_MAX {
                    dls = 0.0;
                }
                drow[k] = dmean * inv_b;
                drow[act_dim + k] = dls * inv_b;
            }
        }
        self.actor.zero_grad();
        self.actor.backward_params(actor_tape, dactor);
        clip_grad_norm(&mut self.actor, self.cfg.max_grad_norm);
        self.actor_opt.step(&mut self.actor);

        // ---- 3. Temperature update: dL/dlogα = -(log π + target_H).
        let mean_logp: f64 = samples.iter().map(|s| s.log_prob).sum::<f64>() * inv_b;
        self.log_alpha -= self.cfg.alpha_lr * (mean_logp + self.target_entropy);
        self.log_alpha = self.log_alpha.clamp(-10.0, 2.0);

        // ---- 4. Critic update on the stored (s, a) pairs.
        for i in 0..b {
            let dst = q_in.row_slice_mut(i);
            dst[..obs_dim].copy_from_slice(&batch[i].obs);
            dst[obs_dim..].copy_from_slice(&batch[i].action);
        }
        for (q, opt) in [(&mut self.q1, &mut self.q1_opt), (&mut self.q2, &mut self.q2_opt)] {
            q.forward_into(q_in, q1_tape);
            let out = q1_tape.output();
            for i in 0..b {
                let err = out.get(i, 0) - y[i];
                dq.set(i, 0, err * inv_b);
            }
            q.zero_grad();
            q.backward_params(q1_tape, dq);
            clip_grad_norm(q, self.cfg.max_grad_norm);
            opt.step(q);
        }

        // ---- 5. Polyak-average the targets.
        self.q1_target.polyak_from(&self.q1, self.cfg.tau);
        self.q2_target.polyak_from(&self.q2, self.cfg.tau);

        self.updates += 1;
        // Work accounting: actor fwd+bwd, critics 2×(fwd+bwd) + target fwd
        // + actor-path fwd/bwd.
        let a_sizes = self.actor.sizes();
        let q_sizes = self.q1.sizes();
        self.flops += forward_flops(&a_sizes, 2 * b)
            + backward_flops(&a_sizes, b)
            + 4 * forward_flops(&q_sizes, b)
            + 4 * backward_flops(&q_sizes, b)
            + 2 * forward_flops(&q_sizes, b);
    }

    /// Serialized parameter bytes (for network-payload accounting).
    pub fn param_bytes(&self) -> u64 {
        self.actor.param_bytes() + self.q1.param_bytes() + self.q2.param_bytes()
    }
}

/// Make `m` the `b × dim` matrix of one field of every sampled transition.
fn fill_rows(
    m: &mut Matrix,
    batch: &[&Transition],
    dim: usize,
    field: impl Fn(&Transition) -> &Vec<f64>,
) {
    m.resize_zeroed(batch.len(), dim);
    for (i, t) in batch.iter().enumerate() {
        m.row_slice_mut(i).copy_from_slice(field(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gymrs::envs::PointMass;
    use gymrs::Environment;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make_learner(seed: u64) -> SacLearner {
        let mut rng = StdRng::seed_from_u64(seed);
        SacLearner::new(4, &Space::symmetric_box(2, 1.0), SacConfig::fast_test(), &mut rng)
    }

    #[test]
    #[should_panic(expected = "continuous action space")]
    fn discrete_space_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        SacLearner::new(4, &Space::Discrete(3), SacConfig::fast_test(), &mut rng);
    }

    #[test]
    fn warmup_actions_are_random_and_bounded() {
        let learner = make_learner(2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let a = learner.act(&[0.0; 4], &mut rng);
            let v = a.continuous();
            assert_eq!(v.len(), 2);
            assert!(v.iter().all(|x| x.abs() <= 1.0));
        }
    }

    #[test]
    fn greedy_actions_are_squashed() {
        let learner = make_learner(4);
        let a = learner.act_greedy(&[0.5; 4]);
        assert!(a.continuous().iter().all(|x| x.abs() < 1.0));
    }

    #[test]
    fn no_updates_before_warmup() {
        let mut learner = make_learner(5);
        let mut rng = StdRng::seed_from_u64(6);
        for i in 0..100 {
            learner.observe(
                Transition {
                    obs: vec![0.0; 4],
                    action: vec![0.0; 2],
                    reward: 0.0,
                    next_obs: vec![0.0; 4],
                    terminated: false,
                },
                &mut rng,
            );
            assert_eq!(learner.updates, 0, "update fired too early at step {i}");
        }
    }

    #[test]
    fn updates_fire_after_warmup_and_stay_finite() {
        let mut learner = make_learner(7);
        let mut rng = StdRng::seed_from_u64(8);
        for i in 0..600 {
            let x = (i as f64 * 0.01).sin();
            learner.observe(
                Transition {
                    obs: vec![x; 4],
                    action: vec![0.1, -0.1],
                    reward: -x.abs(),
                    next_obs: vec![x + 0.01; 4],
                    terminated: i % 50 == 49,
                },
                &mut rng,
            );
        }
        assert!(learner.updates > 0, "updates must fire after warmup");
        assert!(!learner.actor.has_non_finite());
        assert!(!learner.q1.has_non_finite());
        assert!(learner.flops > 0);
    }

    #[test]
    fn critic_fits_constant_reward() {
        // Feed transitions with constant reward 1 and termination: Q must
        // approach 1 on the stored pairs.
        let mut learner = make_learner(9);
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..400 {
            learner.observe(
                Transition {
                    obs: vec![0.5; 4],
                    action: vec![0.0, 0.0],
                    reward: 1.0,
                    next_obs: vec![0.5; 4],
                    terminated: true,
                },
                &mut rng,
            );
        }
        for _ in 0..300 {
            learner.update_from_batch(&mut rng);
        }
        let mut input = Matrix::zeros(1, 6);
        input.row_slice_mut(0).copy_from_slice(&[0.5, 0.5, 0.5, 0.5, 0.0, 0.0]);
        let q = learner.q1.infer(&input).get(0, 0);
        assert!((q - 1.0).abs() < 0.15, "Q = {q}, want ≈ 1");
    }

    #[test]
    fn sac_improves_on_point_mass() {
        // A short SAC run must clearly beat the random policy. (Full
        // convergence is exercised by the slower integration tests.)
        let mut rng = StdRng::seed_from_u64(11);
        let mut env = PointMass::new();
        env.seed(11);
        let mut learner = SacLearner::new(
            4,
            &env.action_space(),
            SacConfig { start_steps: 200, update_every: 2, ..SacConfig::fast_test() },
            &mut rng,
        );

        let eval = |learner: &SacLearner, env: &mut PointMass| -> f64 {
            let mut total = 0.0;
            for _ in 0..5 {
                let mut obs = env.reset();
                loop {
                    let s = env.step(&learner.act_greedy(&obs));
                    total += s.reward;
                    let done = s.done();
                    obs = s.obs;
                    if done {
                        break;
                    }
                }
            }
            total / 5.0
        };

        let before = eval(&learner, &mut env);
        let mut obs = env.reset();
        for _ in 0..5_000 {
            let a = learner.act(&obs, &mut rng);
            let s = env.step(&a);
            let t = Transition {
                obs: obs.clone(),
                action: a.continuous().to_vec(),
                reward: s.reward,
                next_obs: s.obs.clone(),
                terminated: s.terminated,
            };
            learner.observe(t, &mut rng);
            obs = if s.done() { env.reset() } else { s.obs };
        }
        let after = eval(&learner, &mut env);
        assert!(
            after > before + 0.2 || after > -0.8,
            "SAC failed to improve: before={before}, after={after}"
        );
    }

    #[test]
    fn alpha_stays_clamped() {
        let mut learner = make_learner(12);
        learner.log_alpha = 100.0;
        learner.log_alpha = learner.log_alpha.clamp(-10.0, 2.0);
        assert!(learner.alpha() <= (2.0f64).exp());
    }
}
