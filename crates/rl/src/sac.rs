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
use crate::helper::Lane;
use gymrs::{Action, Environment, Space};
use rand::Rng;
use simd_kernels::mathf64::{exp, ln};
use std::sync::{Arc, Mutex, MutexGuard};
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
    /// Actor network: obs → `[mean | log_std]` (2 × action dim outputs),
    /// shared with the helper's pass over s'.
    actor: Arc<Mlp>,
    /// First critic: `[obs | act]` → Q.
    q1: Critic,
    /// The helper's share of an update, critic 2 with it.
    share: Arc<Mutex<Share>>,
    log_alpha: f64,
    cfg: SacConfig,
    actor_opt: Adam,
    act_dim: usize,
    obs_dim: usize,
    target_entropy: f64,
    /// Replay storage.
    pub replay: ReplayBuffer,
    /// Environment steps observed.
    pub(crate) steps_observed: u64,
    /// Gradient updates performed.
    pub updates: u64,
    /// Accumulated learning FLOPs.
    pub flops: u64,
    scratch: Scratch,
}

/// One of the twin critics: online and target network, optimizer, and the
/// buffers of its share of an update, each phase of which reads only
/// these and its input, so the two critics' phases run in either order.
struct Critic {
    net: Mlp,
    target: Mlp,
    opt: Adam,
    /// Where the action columns of the critic input start.
    obs_dim: usize,
    max_grad_norm: f64,
    tau: f64,
    /// The target pass on `[s' | a']`, then the online passes on
    /// `[s | a_π]` and `[s | a]`.
    tape: Tape,
    /// `b × 1` output gradient: all ones, then the TD errors.
    dq: Matrix,
    /// `b × act_dim`: ∂Q/∂a at the actor's actions.
    dq_da: Matrix,
}

/// What the helper's jobs read and write (`helper::Lane`): the actor
/// pass over the next observations, then critic 2's passes on its own
/// copy of the critic input and the TD targets.
struct Share {
    /// `b × obs_dim` next observations.
    next_obs: Matrix,
    actor_tape: Tape,
    critic: Critic,
    /// The critic input: `[s' | a']`, then `[s | a_π]`, then `[s | a]`.
    x: Matrix,
    /// TD targets.
    y: Vec<f64>,
}

impl Critic {
    fn new(net: Mlp, obs_dim: usize, cfg: &SacConfig) -> Self {
        Self {
            target: net.clone(),
            net,
            opt: Adam::new(cfg.lr),
            obs_dim,
            max_grad_norm: cfg.max_grad_norm,
            tau: cfg.tau,
            tape: Tape::default(),
            dq: Matrix::default(),
            dq_da: Matrix::default(),
        }
    }

    /// The last pass's output column.
    fn q(&self) -> &Matrix {
        self.tape.output()
    }

    /// The target network on `x = [s' | a']`.
    fn target_pass(&mut self, x: &Matrix) {
        self.target.forward_into(x, &mut self.tape);
    }

    /// Q on `x = [s | a_π]` and its gradient in the action columns.
    fn actor_path(&mut self, x: &Matrix) {
        let (b, obs_dim) = (x.rows(), self.obs_dim);
        self.net.forward_into(x, &mut self.tape);
        self.dq.resize_zeroed(b, 1);
        self.dq.as_mut_slice().fill(1.0);
        let din = self.net.backward_input(&self.tape, &self.dq);
        self.dq_da.resize_zeroed(b, x.cols() - obs_dim);
        for i in 0..b {
            self.dq_da.row_slice_mut(i).copy_from_slice(&din.row_slice(i)[obs_dim..]);
        }
    }

    /// One regression step toward `y` on the stored pairs `x = [s | a]`,
    /// then the Polyak step of the target network.
    fn regress(&mut self, x: &Matrix, y: &[f64]) {
        let inv_b = 1.0 / x.rows() as f64;
        self.dq.resize_zeroed(x.rows(), 1);
        self.net.forward_into(x, &mut self.tape);
        let out = self.tape.output();
        for (i, y) in y.iter().enumerate() {
            self.dq.set(i, 0, (out.get(i, 0) - y) * inv_b);
        }
        self.net.zero_grad();
        self.net.backward_params(&self.tape, &self.dq);
        clip_grad_norm(&mut self.net, self.max_grad_norm);
        self.opt.step(&mut self.net);
        self.target.polyak_from(&self.net, self.tau);
    }
}

/// Forward tapes and batch matrices of one update, held on the learner
/// (the way `PpoLearner` holds its tapes) and resized in place, so a
/// warmed-up update builds none of them afresh. Each is reused as soon as
/// its previous contents have been consumed.
#[derive(Default)]
struct Scratch {
    /// Actor pass over the observations.
    actor_tape: Tape,
    /// `b × obs_dim` observations.
    obs_in: Matrix,
    /// `b × (obs_dim + act_dim)`: `[s' | a']`, then `[s | a_π]`, then `[s | a]`.
    q_in: Matrix,
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
        Self {
            actor: Arc::new(actor),
            q1: Critic::new(q1, obs_dim, &cfg),
            share: Arc::new(Mutex::new(Share {
                next_obs: Matrix::default(),
                actor_tape: Tape::default(),
                critic: Critic::new(q2, obs_dim, &cfg),
                x: Matrix::default(),
                y: Vec::new(),
            })),
            log_alpha: ln(cfg.init_alpha),
            actor_opt: Adam::new(cfg.lr),
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

    /// Visit `(param, grad)` slices of every tensor of the actor, then
    /// critic 1, then critic 2.
    pub fn visit_params(&mut self, mut f: impl FnMut(&mut [f64], &[f64])) {
        Arc::make_mut(&mut self.actor).visit_params(&mut f);
        self.q1.net.visit_params(&mut f);
        lock(&self.share).critic.net.visit_params(&mut f);
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

    /// One interaction step: act on `*obs`, step `env`, observe the
    /// transition, and advance the open episode. `*obs` becomes the next
    /// observation (a fresh episode's first after a done step) and
    /// `*ep_ret` the open episode's return. Returns the step's work units
    /// and the return of the episode it finished, if any.
    pub fn interact(
        &mut self,
        env: &mut dyn Environment,
        obs: &mut Vec<f64>,
        ep_ret: &mut f64,
        rng: &mut impl Rng,
    ) -> (u64, Option<f64>) {
        let a = self.act(obs, rng);
        let s = env.step(&a);
        let work = env.last_step_work();
        *ep_ret += s.reward;
        let t = Transition {
            obs: std::mem::take(obs),
            action: a.continuous().to_vec(),
            reward: s.reward,
            next_obs: s.obs.clone(),
            terminated: s.terminated,
        };
        self.observe(t, rng);
        if s.done() {
            *obs = env.reset();
            (work, Some(std::mem::take(ep_ret)))
        } else {
            *obs = s.obs;
            (work, None)
        }
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
    ///
    /// Critic 2's phases run on the process's helper thread when this
    /// update can hold it, else inline; the bits are the same either way.
    pub fn update_from_batch(&mut self, rng: &mut impl Rng) {
        self.update_on(&mut Lane::claim(), rng);
    }

    /// [`SacLearner::update_from_batch`] with the helper's share on
    /// `lane`: critic 2's passes and the actor pass over s'. This thread
    /// keeps every other pass, every RNG draw and critic 1.
    fn update_on(&mut self, lane: &mut Lane, rng: &mut impl Rng) {
        let batch = self.replay.sample(self.cfg.batch, rng);
        let b = batch.len();
        let gamma = self.cfg.gamma;
        let alpha = self.alpha();
        let (obs_dim, act_dim) = (self.obs_dim, self.act_dim);
        let Scratch { actor_tape, obs_in, q_in, dactor, y, dists, samples, parts } =
            &mut self.scratch;
        dists.resize_with(b, SquashedGaussian::default);
        samples.resize_with(b, SquashedSample::default);
        let share = &self.share;
        // Hand critic 2 a copy of `q_in` and start `phase` on it.
        let start_critic = |lane: &mut Lane, q_in: &Matrix, phase: fn(&mut Share)| {
            lock(share).x.copy_from_flat(b, obs_dim + act_dim, q_in.as_slice());
            start(lane, share, phase);
        };

        // ---- 1. Targets: y = r + γ(1-d)(min Q_t(s',a') - α log π(a'|s')).
        // The actor pass over s' runs beside the one over s that step 2 reads.
        fill_rows(&mut lock(share).next_obs, &batch, obs_dim, |t| &t.next_obs);
        let actor = Arc::clone(&self.actor);
        start(lane, share, move |s| actor.forward_into(&s.next_obs, &mut s.actor_tape));
        fill_rows(obs_in, &batch, obs_dim, |t| &t.obs);
        self.actor.forward_into(obs_in, actor_tape);
        lane.join();
        q_in.resize_zeroed(b, obs_dim + act_dim);
        {
            let next_out = &lock(share).actor_tape;
            for i in 0..b {
                let row = next_out.output().row_slice(i);
                dists[i].assign(&row[..act_dim], &row[act_dim..]);
                dists[i].rsample_into(rng, &mut samples[i]);
                let dst = q_in.row_slice_mut(i);
                dst[..obs_dim].copy_from_slice(&batch[i].next_obs);
                dst[obs_dim..].copy_from_slice(&samples[i].action);
            }
        }
        start_critic(lane, q_in, |s| s.critic.target_pass(&s.x));
        self.q1.target_pass(q_in);
        lane.join();
        {
            let s = &mut *lock(share);
            let (q1t, q2t) = (self.q1.q(), s.critic.q());
            y.clear();
            for i in 0..b {
                let qmin = q1t.get(i, 0).min(q2t.get(i, 0));
                let not_done = if batch[i].terminated { 0.0 } else { 1.0 };
                y.push(batch[i].reward + gamma * not_done * (qmin - alpha * samples[i].log_prob));
            }
            s.y.clone_from(y);
        }

        // ---- 2. Actor update, from dQmin/da via the critics' input
        // gradients at a_π ~ π(·|s).
        let actor_out = actor_tape.output();
        for i in 0..b {
            let row = actor_out.row_slice(i);
            dists[i].assign(&row[..act_dim], &row[act_dim..]);
            dists[i].rsample_into(rng, &mut samples[i]);
            let dst = q_in.row_slice_mut(i);
            dst[..obs_dim].copy_from_slice(&batch[i].obs);
            dst[obs_dim..].copy_from_slice(&samples[i].action);
        }
        start_critic(lane, q_in, |s| s.critic.actor_path(&s.x));
        self.q1.actor_path(q_in);
        lane.join();

        dactor.resize_zeroed(b, 2 * act_dim);
        let inv_b = 1.0 / b as f64;
        {
            let s = lock(share);
            let (q1, q2) = (&self.q1, &s.critic);
            for i in 0..b {
                let use_q1 = q1.q().get(i, 0) <= q2.q().get(i, 0);
                let dq_da = if use_q1 { q1.dq_da.row_slice(i) } else { q2.dq_da.row_slice(i) };
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
        }

        // ---- 3. Critic regression on the stored (s, a) pairs, critic 2's
        // beside the actor's step and critic 1's.
        for i in 0..b {
            let dst = q_in.row_slice_mut(i);
            dst[..obs_dim].copy_from_slice(&batch[i].obs);
            dst[obs_dim..].copy_from_slice(&batch[i].action);
        }
        start_critic(lane, q_in, |s| s.critic.regress(&s.x, &s.y));

        // The helper's actor pass has ended, so the actor is this thread's.
        let actor = Arc::make_mut(&mut self.actor);
        actor.zero_grad();
        actor.backward_params(actor_tape, dactor);
        clip_grad_norm(actor, self.cfg.max_grad_norm);
        self.actor_opt.step(actor);

        // ---- 4. Temperature update: dL/dlogα = -(log π + target_H).
        let mean_logp: f64 = samples.iter().map(|s| s.log_prob).sum::<f64>() * inv_b;
        self.log_alpha -= self.cfg.alpha_lr * (mean_logp + self.target_entropy);
        self.log_alpha = self.log_alpha.clamp(-10.0, 2.0);

        self.q1.regress(q_in, y);
        lane.join();

        self.updates += 1;
        // Work accounting: actor fwd+bwd, critics 2×(fwd+bwd) + target fwd
        // + actor-path fwd/bwd.
        let a_sizes = self.actor.sizes();
        let q_sizes = self.q1.net.sizes();
        self.flops += forward_flops(&a_sizes, 2 * b)
            + backward_flops(&a_sizes, b)
            + 4 * forward_flops(&q_sizes, b)
            + 4 * backward_flops(&q_sizes, b)
            + 2 * forward_flops(&q_sizes, b);
    }

    /// Serialized parameter bytes (for network-payload accounting).
    pub fn param_bytes(&self) -> u64 {
        // The twin critics share a shape.
        self.actor.param_bytes() + 2 * self.q1.net.param_bytes()
    }
}

/// Lock the helper's share of an update. Only a job that panicked
/// poisons it, and the update that ran the job re-raised that panic.
fn lock(share: &Mutex<Share>) -> MutexGuard<'_, Share> {
    share.lock().expect("a job on the helper's share panicked in an earlier update")
}

/// Start `phase` on the helper's share of an update, in `lane`.
fn start(
    lane: &mut Lane,
    share: &Arc<Mutex<Share>>,
    phase: impl FnOnce(&mut Share) + Send + 'static,
) {
    let share = Arc::clone(share);
    lane.start(move || phase(&mut lock(&share)));
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make_learner(seed: u64) -> SacLearner {
        let mut rng = StdRng::seed_from_u64(seed);
        SacLearner::new(4, &Space::symmetric_box(2, 1.0), SacConfig::fast_test(), &mut rng)
    }

    #[test]
    fn interact_feeds_the_learner_and_tracks_episodes() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut env = PointMass::new();
        env.seed(4);
        let mut learner = SacLearner::new(4, &env.action_space(), SacConfig::fast_test(), &mut rng);
        let (mut obs, mut ep_ret) = (env.reset(), 0.0);
        let mut finished = 0;
        for _ in 0..130 {
            let (w, fin) = learner.interact(&mut env, &mut obs, &mut ep_ret, &mut rng);
            assert_eq!(w, 1);
            finished += fin.is_some() as usize;
        }
        assert_eq!(learner.steps_observed, 130);
        assert_eq!(finished, 2, "horizon 60 => two episodes in 130 steps");
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
        assert!(!learner.q1.net.has_non_finite());
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
        let q = learner.q1.net.infer(&input).get(0, 0);
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

    /// A learner at `batch` over a replay twice the batch (at least 128
    /// transitions), and the rng its updates draw from.
    fn filled(batch: usize, seed: u64) -> (SacLearner, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = SacConfig { batch, ..SacConfig::default() };
        let mut learner = SacLearner::new(4, &Space::symmetric_box(2, 1.0), cfg, &mut rng);
        for i in 0..(2 * batch).max(128) {
            let x = (i as f64 * 0.05).sin();
            learner.replay.push(Transition {
                obs: vec![x, -x, 0.5 * x, 0.1],
                action: vec![(i as f64 * 0.3).cos(), -x],
                reward: -x.abs(),
                next_obs: vec![x + 0.01, -x, 0.5 * x - 0.01, 0.1],
                terminated: i % 64 == 63,
            });
        }
        (learner, rng)
    }

    /// Every parameter, α and the rng's next draw, as bits.
    fn bits(learner: &mut SacLearner, rng: &mut StdRng) -> Vec<u64> {
        let mut out = Vec::new();
        learner.visit_params(|w, _| out.extend(w.iter().map(|x| x.to_bits())));
        out.push(learner.alpha().to_bits());
        out.push(rng.gen());
        out
    }

    #[test]
    fn updates_on_the_helper_equal_updates_inline() {
        for (batch, n) in [(1, 12), (3, 12), (64, 8), (256, 4)] {
            let (mut helped, mut rng_h) = filled(batch, 21);
            let (mut inline, mut rng_i) = filled(batch, 21);
            // While this test holds the helper, `inline` cannot claim it.
            let mut lane = crate::helper::tests::helper_lane();
            for _ in 0..n {
                inline.update_from_batch(&mut rng_i);
            }
            for _ in 0..n {
                match &mut lane {
                    Some(lane) => helped.update_on(lane, &mut rng_h),
                    None => helped.update_from_batch(&mut rng_h),
                }
            }
            drop(lane);
            assert_eq!(helped.updates, n as u64);
            assert_eq!(helped.flops, inline.flops);
            assert!(
                bits(&mut helped, &mut rng_h) == bits(&mut inline, &mut rng_i),
                "batch {batch}: the helper's update moved bits"
            );
        }
    }

    #[test]
    fn concurrent_learners_equal_their_sequential_runs() {
        let run = |seed, start: &std::sync::Barrier| {
            let (mut learner, mut rng) = filled(64, seed);
            start.wait();
            for _ in 0..10 {
                learner.update_from_batch(&mut rng);
            }
            bits(&mut learner, &mut rng)
        };
        let alone = std::sync::Barrier::new(1);
        let sequential = [run(31, &alone), run(32, &alone)];
        // Both learners start updating together, one on each thread.
        let together = std::sync::Barrier::new(2);
        let concurrent = std::thread::scope(|s| {
            let a = s.spawn(|| run(31, &together));
            let b = run(32, &together);
            [a.join().unwrap(), b]
        });
        assert!(sequential == concurrent, "a concurrent learner moved bits");
    }
}
