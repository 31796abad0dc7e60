//! The on-policy actor-critic learner: PPO.
//!
//! One update is GAE-λ targets on the values recorded at collection,
//! then the clipped surrogate over shuffled epochs × minibatches — per
//! minibatch an actor forward, a per-row weight on ∂log π, the
//! categorical/Gaussian gradient fill, clip + Adam + the log-std step,
//! and critic regression toward the targets.

// Index loops here co-index several arrays; zip chains would obscure them.
#![allow(clippy::needless_range_loop)]
use crate::buffer::RolloutBuffer;
use crate::collect::{collect_lockstep, Collected};
use crate::gae;
use crate::policy::{ActorCritic, Dist, PolicyHead};
use crate::ppo::PpoConfig;
use gymrs::{Action, Environment, Space, VecEnv};
use rand::seq::SliceRandom;
use rand::Rng;
use simd_kernels::mathf64::exp;
use tinynn::{backward_flops, clip_grad_norm, forward_flops, Adam, Matrix, Mlp, Optimizer, Tape};

/// Diagnostics from one update, averaged over every row of every pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct UpdateStats {
    /// Mean clipped-surrogate policy loss.
    pub(crate) policy_loss: f64,
    /// Mean value loss toward the targets.
    pub(crate) value_loss: f64,
    /// Mean policy entropy.
    pub(crate) entropy: f64,
    /// Mean approximate KL between the behaviour and the current policy.
    pub(crate) approx_kl: f64,
    /// Fraction of samples whose ratio was clipped.
    pub(crate) clip_fraction: f64,
}

/// The on-policy learner: policy + optimizers + work accounting.
#[derive(Clone)]
pub struct OnPolicyLearner {
    /// The actor-critic being trained.
    pub policy: ActorCritic,
    cfg: PpoConfig,
    /// Number of gradient updates performed.
    pub updates: u64,
    /// Accumulated learning FLOPs (forward + backward), for the cost model.
    pub flops: u64,
    // Every pass's row order: one permutation of the rollout per epoch.
    order: Vec<usize>,
    actor: ActorFit,
    critic: CriticFit,
}

/// The actor's side of an update: its optimizer, the Adam state of the
/// free log-std, and the tape and minibatch buffers of its passes —
/// allocated once, resized per minibatch.
#[derive(Clone)]
struct ActorFit {
    opt: Adam,
    ls_m: Vec<f64>,
    ls_v: Vec<f64>,
    ls_t: u64,
    tape: Tape,
    x: Matrix,
    dout: Matrix,
}

/// The critic's side: regression toward targets fixed before the first
/// pass. It shares nothing with the actor's side but the rollout and the
/// row order, so it runs on a thread of its own; its buffers live here, so
/// that thread allocates nothing once they have grown.
#[derive(Clone)]
struct CriticFit {
    opt: Adam,
    tape: Tape,
    x: Matrix,
    dv: Matrix,
}

/// What both sides of one update read.
struct Passes<'a> {
    rollout: &'a RolloutBuffer,
    /// Epoch after epoch, a permutation of `0..rollout.len()`.
    order: &'a [usize],
    adv: &'a [f64],
    targets: &'a [f64],
    cfg: &'a PpoConfig,
}

impl<'a> Passes<'a> {
    /// The minibatches in pass order: each epoch's rows cut into
    /// `cfg.minibatch`-row chunks, the last of an epoch possibly shorter.
    fn minibatches(&self) -> impl Iterator<Item = &'a [usize]> {
        let (n, minibatch) = (self.rollout.len(), self.cfg.minibatch);
        self.order.chunks(n).flat_map(move |epoch| epoch.chunks(minibatch))
    }
}

impl OnPolicyLearner {
    /// A PPO learner for the given observation dim and action space.
    pub fn new(obs_dim: usize, action_space: &Space, cfg: PpoConfig, rng: &mut impl Rng) -> Self {
        let policy = ActorCritic::new(obs_dim, action_space, &cfg.hidden, rng);
        let k = policy.log_std.len();
        Self {
            policy,
            actor: ActorFit {
                opt: Adam::new(cfg.lr),
                ls_m: vec![0.0; k],
                ls_v: vec![0.0; k],
                ls_t: 0,
                tape: Tape::new(),
                x: Matrix::default(),
                dout: Matrix::default(),
            },
            critic: CriticFit {
                opt: Adam::new(cfg.lr),
                tape: Tape::new(),
                x: Matrix::default(),
                dv: Matrix::default(),
            },
            cfg,
            updates: 0,
            flops: 0,
            order: Vec::new(),
        }
    }

    /// Steps collected per update (the configured rollout horizon).
    pub fn n_steps(&self) -> usize {
        self.cfg.n_steps
    }

    /// Collect `n_steps` of experience from `env` starting at `*obs`
    /// (which is updated to the observation where collection stopped),
    /// charging the inference to [`OnPolicyLearner::flops`]: `env` runs
    /// as a width-1 [`VecEnv`] through [`collect_lockstep`], so episode
    /// boundaries auto-reset and the tail is closed, like every lockstep
    /// segment's. An episode begun before the call is counted from the
    /// call's first step: unlike [`crate::train`]'s loop, this call
    /// carries no open episode across calls.
    pub fn collect(
        &mut self,
        env: &mut dyn Environment,
        obs: &mut Vec<f64>,
        n_steps: usize,
        rng: &mut impl Rng,
    ) -> Collected {
        let mut lane = VecEnv::resume(vec![env], vec![std::mem::take(obs)]);
        let out = collect_lockstep(&self.policy, &mut lane, n_steps, rng);
        obs.clone_from(&lane.observations()[0]);
        self.flops += out.infer_flops(&self.policy);
        out
    }

    /// One update over a rollout: `cfg.epochs` shuffled passes in
    /// `cfg.minibatch`-row minibatches, each a gradient step on actor,
    /// log-std and critic.
    ///
    /// The critic's steps run on a scoped thread while this one takes the
    /// actor's and log-std's, joined once at the end. Every shuffle is
    /// drawn before the first pass, so the rng, the parameters and the
    /// returned statistics get the bits of running the passes in turn.
    pub fn update(&mut self, rollout: &RolloutBuffer, rng: &mut impl Rng) -> UpdateStats {
        let n = rollout.len();
        assert!(n > 0, "cannot update from an empty rollout");
        let a_sizes = self.policy.actor.sizes();
        let c_sizes = self.policy.critic.sizes();
        let head = self.policy.head();
        let mut stats = UpdateStats::default();

        let (mut adv, targets) = rollout.advantages(self.cfg.gamma, self.cfg.lambda);
        gae::normalize(&mut adv);

        let epochs = self.cfg.epochs;
        // Every epoch's shuffle (each permuting the one before), drawn
        // before any pass runs: no pass reads the rng, so these are the
        // draws of shuffling at the top of each epoch, in the same order.
        self.order.clear();
        self.order.extend(0..n);
        for e in 0..epochs {
            if e > 0 {
                self.order.extend_from_within((e - 1) * n..e * n);
            }
            self.order[e * n..].shuffle(rng);
        }

        let passes =
            Passes { rollout, order: &self.order, adv: &adv, targets: &targets, cfg: &self.cfg };
        let ActorCritic { actor, critic, log_std, .. } = &mut self.policy;
        let (actor_fit, critic_fit) = (&mut self.actor, &mut self.critic);
        stats.value_loss = std::thread::scope(|s| {
            let critic = s.spawn(|| critic_fit.fit(critic, &passes));
            actor_fit.fit(actor, log_std, head, &passes, &mut stats);
            critic.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        });
        self.updates += (epochs * n.div_ceil(self.cfg.minibatch)) as u64;

        // Learning cost: forward + backward over both networks for every
        // pass over the whole rollout.
        let per_pass = forward_flops(&a_sizes, n)
            + backward_flops(&a_sizes, n)
            + forward_flops(&c_sizes, n)
            + backward_flops(&c_sizes, n);
        self.flops += per_pass * epochs as u64;

        let rows = (epochs * n) as f64;
        stats.policy_loss /= rows;
        stats.value_loss /= rows;
        stats.entropy /= rows;
        stats.approx_kl /= rows;
        stats.clip_fraction /= rows;
        stats
    }
}

impl ActorFit {
    /// Every minibatch step of the actor and the log-std, adding each
    /// row's policy diagnostics to `stats`.
    fn fit(
        &mut self,
        net: &mut Mlp,
        log_std: &mut [f64],
        head: PolicyHead,
        p: &Passes,
        stats: &mut UpdateStats,
    ) {
        let act_dim = net.out_dim();
        let mut g = vec![0.0; act_dim];
        let mut dls = vec![0.0; log_std.len()];
        for chunk in p.minibatches() {
            let mb = chunk.len();
            let inv_mb = 1.0 / mb as f64;
            fill_rows(&mut self.x, p.rollout, chunk);
            net.forward_into(&self.x, &mut self.tape);
            let out = self.tape.output();
            self.dout.resize_zeroed(mb, act_dim);
            dls.fill(0.0);

            for (r, &i) in chunk.iter().enumerate() {
                let d = Dist::from_actor_row(head, out.row_slice(r), log_std);
                let action = &p.rollout.actions[i];
                let lp_new = d.log_prob(action);
                let lp_old = p.rollout.log_probs[i];
                let a = p.adv[i];
                let clip = p.cfg.clip;
                let ratio = exp(lp_new - lp_old);
                let clipped = ratio.clamp(1.0 - clip, 1.0 + clip);
                stats.policy_loss += -(ratio * a).min(clipped * a);
                if (ratio - clipped).abs() > 1e-12 {
                    stats.clip_fraction += 1.0;
                }
                // dL/dlogp, the per-row weight on ∂log π: the gradient of
                // -min(r A, clip(r) A).
                let dlp = if ratio * a <= clipped * a { -a * ratio } else { 0.0 };
                stats.entropy += d.entropy();
                stats.approx_kl += lp_old - lp_new;

                let ent_coef = p.cfg.ent_coef;
                let drow = self.dout.row_slice_mut(r);
                match (&d, action) {
                    (Dist::Categorical(c), Action::Discrete(act)) => {
                        c.d_log_prob_d_logits(*act, &mut g);
                        for (o, gi) in drow.iter_mut().zip(&g) {
                            *o += dlp * gi * inv_mb;
                        }
                        if ent_coef != 0.0 {
                            c.d_entropy_d_logits(&mut g);
                            for (o, gi) in drow.iter_mut().zip(&g) {
                                *o -= ent_coef * gi * inv_mb;
                            }
                        }
                    }
                    (Dist::Gaussian(gss), Action::Continuous(act)) => {
                        gss.d_log_prob_d_mean(act, &mut g);
                        for (o, gi) in drow.iter_mut().zip(&g) {
                            *o += dlp * gi * inv_mb;
                        }
                        gss.d_log_prob_d_log_std(act, &mut g);
                        for (o, gi) in dls.iter_mut().zip(&g) {
                            // Entropy gradient w.r.t. log_std is 1.
                            *o += (dlp * gi - ent_coef) * inv_mb;
                        }
                    }
                    _ => unreachable!("head/action mismatch"),
                }
            }

            net.zero_grad();
            net.backward_params(&self.tape, &self.dout);
            clip_grad_norm(net, p.cfg.max_grad_norm);
            self.opt.step(net);
            self.step_log_std(log_std, &dls);
        }
    }

    /// Adam step for the free log_std vector — one more tensor of the
    /// actor's optimizer, at its current rate — clamped to a sane range.
    fn step_log_std(&mut self, log_std: &mut [f64], grad: &[f64]) {
        if grad.is_empty() {
            return;
        }
        self.ls_t += 1;
        self.opt.step_tensor(self.ls_t, log_std, grad, &mut self.ls_m, &mut self.ls_v);
        for l in log_std {
            *l = l.clamp(-4.0, 1.0);
        }
    }
}

impl CriticFit {
    /// Every minibatch step of the critic toward `p.targets`; returns the
    /// value loss summed in row order.
    fn fit(&mut self, net: &mut Mlp, p: &Passes) -> f64 {
        let mut loss = 0.0;
        for chunk in p.minibatches() {
            let mb = chunk.len();
            let inv_mb = 1.0 / mb as f64;
            fill_rows(&mut self.x, p.rollout, chunk);
            net.forward_into(&self.x, &mut self.tape);
            let v = self.tape.output();
            self.dv.resize_zeroed(mb, 1);
            for (r, &i) in chunk.iter().enumerate() {
                let err = v.get(r, 0) - p.targets[i];
                loss += 0.5 * err * err;
                self.dv.set(r, 0, p.cfg.vf_coef * err * inv_mb);
            }
            net.zero_grad();
            net.backward_params(&self.tape, &self.dv);
            clip_grad_norm(net, p.cfg.max_grad_norm);
            self.opt.step(net);
        }
        loss
    }
}

/// Assemble the observation matrix of `rows` (indices into `rollout`).
fn fill_rows(x: &mut Matrix, rollout: &RolloutBuffer, rows: &[usize]) {
    x.resize_zeroed(rows.len(), rollout.obs[0].len());
    for (r, &i) in rows.iter().enumerate() {
        x.row_slice_mut(r).copy_from_slice(&rollout.obs[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gymrs::envs::{GridWorld, PointMass};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn ppo(env: &dyn Environment, cfg: PpoConfig, rng: &mut StdRng) -> OnPolicyLearner {
        OnPolicyLearner::new(env.observation_space().dim(), &env.action_space(), cfg, rng)
    }

    #[test]
    #[should_panic(expected = "empty rollout")]
    fn empty_rollout_panics() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut learner = ppo(&GridWorld::new(3), PpoConfig::fast_test(), &mut rng);
        learner.update(&RolloutBuffer::default(), &mut rng);
    }

    #[test]
    fn flops_accounting_grows_with_work() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut env = GridWorld::new(3);
        env.seed(6);
        let mut learner = ppo(&env, PpoConfig::fast_test(), &mut rng);
        assert_eq!(learner.flops, 0);
        let mut obs = env.reset();
        let out = learner.collect(&mut env, &mut obs, 64, &mut rng);
        let after_collect = learner.flops;
        assert_eq!(after_collect, out.infer_flops(&learner.policy));
        assert!(after_collect > 0);
        learner.update(&out.rollout, &mut rng);
        // Every epoch is one forward + backward of both networks over
        // the rollout, in ⌈64 / minibatch⌉ = 1 step each.
        let (a, c) = (learner.policy.actor.sizes(), learner.policy.critic.sizes());
        let pass = forward_flops(&a, 64)
            + backward_flops(&a, 64)
            + forward_flops(&c, 64)
            + backward_flops(&c, 64);
        let epochs = PpoConfig::fast_test().epochs as u64;
        assert_eq!(learner.flops - after_collect, epochs * pass);
        assert_eq!(learner.updates, epochs);
    }

    #[test]
    fn update_draws_exactly_the_epoch_shuffles() {
        // 100 rows in minibatches of 64: every epoch ends on a short one.
        let mut rng = StdRng::seed_from_u64(12);
        let mut env = PointMass::new();
        env.seed(12);
        let mut learner = ppo(&env, PpoConfig::fast_test(), &mut rng);
        let mut obs = env.reset();
        let out = learner.collect(&mut env, &mut obs, 100, &mut rng);
        let mut twin = rng.clone();
        learner.update(&out.rollout, &mut rng);

        let mut idx: Vec<usize> = (0..100).collect();
        let mut order = Vec::new();
        for _ in 0..PpoConfig::fast_test().epochs {
            idx.shuffle(&mut twin);
            order.extend_from_slice(&idx);
        }
        assert_eq!(learner.order, order);
        assert_eq!(rng.next_u64(), twin.next_u64());
    }

    fn stat_bits(s: &UpdateStats) -> [u64; 5] {
        [s.policy_loss, s.value_loss, s.entropy, s.approx_kl, s.clip_fraction].map(f64::to_bits)
    }

    fn param_bits(l: &mut OnPolicyLearner) -> Vec<u64> {
        let mut bits: Vec<u64> = l.policy.log_std.iter().map(|x| x.to_bits()).collect();
        for net in [&mut l.policy.actor, &mut l.policy.critic] {
            net.visit_params(|p, _| bits.extend(p.iter().map(|x| x.to_bits())));
        }
        bits
    }

    /// Two clones of `learner`, each updated twice over `rollout` from
    /// equal rngs, must agree bit for bit: statistics, parameters and rng.
    fn assert_clones_agree(learner: OnPolicyLearner, rollout: &RolloutBuffer, seed: u64) {
        let (mut a, mut b) = (learner.clone(), learner);
        let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        for round in 0..2 {
            let (sa, sb) = (a.update(rollout, &mut rng_a), b.update(rollout, &mut rng_b));
            assert_eq!(stat_bits(&sa), stat_bits(&sb), "stats, round {round}");
            assert_eq!(param_bits(&mut a), param_bits(&mut b), "params, round {round}");
            assert_eq!(a.updates, b.updates);
        }
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }

    #[test]
    fn clones_updated_alike_agree_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut point = PointMass::new();
        point.seed(13);
        let mut grid = GridWorld::new(3);
        grid.seed(13);
        let cfg = PpoConfig { ent_coef: 0.01, ..PpoConfig::fast_test() };
        for env in [&mut point as &mut dyn Environment, &mut grid] {
            let mut learner = ppo(env, cfg.clone(), &mut rng);
            let mut obs = env.reset();
            let out = learner.collect(env, &mut obs, 150, &mut rng);
            assert_clones_agree(learner, &out.rollout, 14);
        }
    }
}
