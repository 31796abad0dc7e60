//! Actor-critic policy used by PPO (and for evaluation rollouts).

use gymrs::{Action, Space};
use rand::Rng;
use tinynn::{Activation, Categorical, DiagGaussian, Matrix, Mlp, Tape};

/// The action head kind, derived from the environment's action space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyHead {
    /// Softmax over `n` discrete actions.
    Categorical {
        /// Number of actions.
        n: usize,
    },
    /// Diagonal Gaussian with a state-independent log-std vector.
    Gaussian {
        /// Action dimensionality.
        dim: usize,
    },
}

/// A sampled-or-evaluated action distribution for one observation.
#[derive(Debug, Clone)]
pub(crate) enum Dist {
    /// Discrete head.
    Categorical(Categorical),
    /// Continuous head.
    Gaussian(DiagGaussian),
}

impl Dist {
    /// The distribution `head` reads off one actor output row; `log_std`
    /// is the Gaussian head's free log-std.
    pub(crate) fn from_actor_row(head: PolicyHead, row: &[f64], log_std: &[f64]) -> Self {
        match head {
            PolicyHead::Categorical { .. } => Dist::Categorical(Categorical::from_logits(row)),
            PolicyHead::Gaussian { .. } => Dist::Gaussian(DiagGaussian::new(row, log_std)),
        }
    }

    /// Sample an action.
    pub(crate) fn sample(&self, rng: &mut impl Rng) -> Action {
        match self {
            Dist::Categorical(c) => Action::Discrete(c.sample(rng)),
            Dist::Gaussian(g) => Action::Continuous(g.sample(rng)),
        }
    }

    /// Most likely action (greedy evaluation).
    pub(crate) fn mode(&self) -> Action {
        match self {
            Dist::Categorical(c) => Action::Discrete(c.mode()),
            Dist::Gaussian(g) => Action::Continuous(g.mean.clone()),
        }
    }

    /// `log π(a|s)`.
    pub(crate) fn log_prob(&self, action: &Action) -> f64 {
        match (self, action) {
            (Dist::Categorical(c), Action::Discrete(a)) => c.log_prob(*a),
            (Dist::Gaussian(g), Action::Continuous(a)) => g.log_prob(a),
            _ => panic!("action kind does not match policy head"),
        }
    }

    /// Distribution entropy.
    pub(crate) fn entropy(&self) -> f64 {
        match self {
            Dist::Categorical(c) => c.entropy(),
            Dist::Gaussian(g) => g.entropy(),
        }
    }
}

/// Separate actor and critic networks with an optional trainable log-std.
///
/// This is the Stable-Baselines default architecture (`MlpPolicy` with
/// shared=False): two 64-unit tanh hidden layers each.
#[derive(Debug, Clone)]
pub struct ActorCritic {
    /// Policy network: observation → logits (discrete) or mean (continuous).
    pub actor: Mlp,
    /// Value network: observation → scalar value.
    pub critic: Mlp,
    /// State-independent log standard deviations (Gaussian head only).
    pub log_std: Vec<f64>,
    /// Accumulated gradient for `log_std`.
    pub log_std_grad: Vec<f64>,
    head: PolicyHead,
}

impl ActorCritic {
    /// Build for an observation dimension and action space, with the given
    /// hidden sizes (the paper's frameworks default to `[64, 64]`).
    pub fn new(obs_dim: usize, action_space: &Space, hidden: &[usize], rng: &mut impl Rng) -> Self {
        let head = match action_space {
            Space::Discrete(n) => PolicyHead::Categorical { n: *n },
            Space::Box { low, .. } => PolicyHead::Gaussian { dim: low.len() },
        };
        let out_dim = match head {
            PolicyHead::Categorical { n } => n,
            PolicyHead::Gaussian { dim } => dim,
        };
        let mut actor_sizes = vec![obs_dim];
        actor_sizes.extend_from_slice(hidden);
        actor_sizes.push(out_dim);
        let mut critic_sizes = vec![obs_dim];
        critic_sizes.extend_from_slice(hidden);
        critic_sizes.push(1);
        let log_std_len = match head {
            PolicyHead::Gaussian { dim } => dim,
            PolicyHead::Categorical { .. } => 0,
        };
        Self {
            actor: Mlp::new(&actor_sizes, Activation::Tanh, Activation::Identity, rng),
            critic: Mlp::new(&critic_sizes, Activation::Tanh, Activation::Identity, rng),
            log_std: vec![-0.5; log_std_len],
            log_std_grad: vec![0.0; log_std_len],
            head: PolicyHead::Gaussian { dim: log_std_len },
        }
        .with_head(head)
    }

    fn with_head(mut self, head: PolicyHead) -> Self {
        self.head = head;
        self
    }

    /// The head kind.
    pub fn head(&self) -> PolicyHead {
        self.head
    }

    /// Distribution for a single observation.
    pub(crate) fn dist(&self, obs: &[f64]) -> Dist {
        let out = self.actor.infer(&Matrix::row(obs));
        self.dist_from_actor_row(out.row_slice(0))
    }

    /// Distribution given a precomputed actor output row.
    pub(crate) fn dist_from_actor_row(&self, row: &[f64]) -> Dist {
        Dist::from_actor_row(self.head, row, &self.log_std)
    }

    /// Critic value of a single observation.
    pub fn value(&self, obs: &[f64]) -> f64 {
        self.critic.infer(&Matrix::row(obs)).get(0, 0)
    }

    /// Distributions for a batch of observations (one per matrix row),
    /// derived from a single batched actor forward pass.
    pub(crate) fn dists_batch(&self, obs: &Matrix) -> Vec<Dist> {
        let out = self.actor.infer(obs);
        (0..out.rows()).map(|r| self.dist_from_actor_row(out.row_slice(r))).collect()
    }

    /// Critic values for a batch of observations (one per matrix row),
    /// from a single batched critic forward pass.
    pub fn value_batch(&self, obs: &Matrix) -> Vec<f64> {
        self.critic.infer(obs).as_slice().to_vec()
    }

    /// Sample an action; returns `(action, log_prob, value)`.
    pub fn act(&self, obs: &[f64], rng: &mut impl Rng) -> (Action, f64, f64) {
        let d = self.dist(obs);
        let a = d.sample(rng);
        let lp = d.log_prob(&a);
        (a, lp, self.value(obs))
    }

    /// Sample actions for a whole batch of observations with one actor
    /// and one critic forward pass; returns `(action, log_prob, value)`
    /// per row.
    ///
    /// Row `i` consumes `rng` exactly as a sequential [`ActorCritic::act`]
    /// on row `i` would, and the matmul kernels guarantee batched rows are
    /// bitwise identical to single-row evaluation, so this agrees with the
    /// per-row path exactly — the vectorized collectors rely on it.
    pub fn act_batch(&self, obs: &Matrix, rng: &mut impl Rng) -> Vec<(Action, f64, f64)> {
        let dists = self.dists_batch(obs);
        let values = self.value_batch(obs);
        dists
            .into_iter()
            .zip(values)
            .map(|(d, v)| {
                let a = d.sample(rng);
                let lp = d.log_prob(&a);
                (a, lp, v)
            })
            .collect()
    }

    /// Greedy action for evaluation.
    pub fn act_greedy(&self, obs: &[f64]) -> Action {
        self.dist(obs).mode()
    }

    /// Greedy actions for a batch of observations, one actor forward on
    /// `tape` — PPO's half of [`crate::Greedy::act_batch`].
    pub(crate) fn act_greedy_batch(&self, obs: &Matrix, tape: &mut Tape) -> Vec<Action> {
        let out = self.actor.infer_into(obs, tape);
        (0..out.rows()).map(|r| self.dist_from_actor_row(out.row_slice(r)).mode()).collect()
    }

    /// Copy all parameters from a structurally identical policy (weight
    /// sync in the distributed backends).
    pub fn copy_params_from(&mut self, other: &ActorCritic) {
        self.actor.copy_params_from(&other.actor);
        self.critic.copy_params_from(&other.critic);
        self.log_std.clone_from(&other.log_std);
    }

    /// Serialized parameter bytes (network payload on weight sync).
    pub fn param_bytes(&self) -> u64 {
        self.actor.param_bytes() + self.critic.param_bytes() + (self.log_std.len() * 8) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gaussian_policy() -> ActorCritic {
        let mut rng = StdRng::seed_from_u64(1);
        ActorCritic::new(3, &Space::symmetric_box(2, 1.0), &[16, 16], &mut rng)
    }

    fn categorical_policy() -> ActorCritic {
        let mut rng = StdRng::seed_from_u64(2);
        ActorCritic::new(3, &Space::Discrete(4), &[16], &mut rng)
    }

    #[test]
    fn gaussian_head_shapes() {
        let p = gaussian_policy();
        assert_eq!(p.head(), PolicyHead::Gaussian { dim: 2 });
        assert_eq!(p.log_std.len(), 2);
        let (a, lp, v) = p.act(&[0.1, 0.2, 0.3], &mut StdRng::seed_from_u64(3));
        assert_eq!(a.continuous().len(), 2);
        assert!(lp.is_finite() && v.is_finite());
    }

    #[test]
    fn categorical_head_shapes() {
        let p = categorical_policy();
        assert_eq!(p.head(), PolicyHead::Categorical { n: 4 });
        assert!(p.log_std.is_empty());
        let (a, lp, _) = p.act(&[0.0; 3], &mut StdRng::seed_from_u64(4));
        assert!(a.discrete() < 4);
        assert!(lp <= 0.0);
    }

    #[test]
    fn dist_log_prob_matches_underlying() {
        let p = gaussian_policy();
        let d = p.dist(&[0.5, -0.5, 0.0]);
        let a = Action::Continuous(vec![0.3, 0.1]);
        match &d {
            Dist::Gaussian(g) => {
                assert!((d.log_prob(&a) - g.log_prob(&[0.3, 0.1])).abs() < 1e-15)
            }
            _ => panic!("expected Gaussian"),
        }
    }

    #[test]
    fn greedy_action_is_mode() {
        let p = categorical_policy();
        let d = p.dist(&[0.1, 0.1, 0.1]);
        let g = p.act_greedy(&[0.1, 0.1, 0.1]);
        assert_eq!(g, d.mode());
    }

    #[test]
    fn copy_params_synchronizes_policies() {
        let src = gaussian_policy();
        let mut rng = StdRng::seed_from_u64(9);
        let mut dst = ActorCritic::new(3, &Space::symmetric_box(2, 1.0), &[16, 16], &mut rng);
        dst.copy_params_from(&src);
        let obs = [0.2, -0.1, 0.7];
        assert_eq!(src.value(&obs), dst.value(&obs));
        assert_eq!(src.act_greedy(&obs), dst.act_greedy(&obs));
    }

    #[test]
    fn param_bytes_include_log_std() {
        let p = gaussian_policy();
        assert_eq!(p.param_bytes(), p.actor.param_bytes() + p.critic.param_bytes() + 16);
    }

    #[test]
    #[should_panic(expected = "does not match policy head")]
    fn mismatched_action_log_prob_panics() {
        let p = gaussian_policy();
        p.dist(&[0.0; 3]).log_prob(&Action::Discrete(0));
    }

    #[test]
    fn act_batch_matches_per_row_act() {
        let rows: [&[f64]; 4] =
            [&[0.1, 0.2, 0.3], &[-1.0, 0.5, 0.0], &[0.7, -0.7, 0.7], &[0.0, 0.0, 0.0]];
        let obs = Matrix::from_rows(&rows);
        for p in [gaussian_policy(), categorical_policy()] {
            let batched = p.act_batch(&obs, &mut StdRng::seed_from_u64(11));
            // Same seed, per-row path: actions and rng consumption must
            // line up row for row, log-probs/values to 1e-12.
            let mut rng = StdRng::seed_from_u64(11);
            for (i, row) in rows.iter().enumerate() {
                let (a, lp, v) = p.act(row, &mut rng);
                assert_eq!(a, batched[i].0, "action row {i}");
                assert!((lp - batched[i].1).abs() < 1e-12, "log_prob row {i}");
                assert!((v - batched[i].2).abs() < 1e-12, "value row {i}");
            }
        }
    }

    #[test]
    fn value_batch_matches_per_row_value() {
        let p = gaussian_policy();
        let rows: [&[f64]; 3] = [&[0.3, 0.1, -0.2], &[1.0, 1.0, 1.0], &[-0.4, 0.0, 0.9]];
        let obs = Matrix::from_rows(&rows);
        let vals = p.value_batch(&obs);
        assert_eq!(vals.len(), 3);
        for (i, row) in rows.iter().enumerate() {
            assert!((p.value(row) - vals[i]).abs() < 1e-12, "row {i}");
        }
    }

    #[test]
    fn act_greedy_batch_matches_per_row_greedy() {
        let p = categorical_policy();
        let rows: [&[f64]; 2] = [&[0.1, 0.1, 0.1], &[-0.5, 0.3, 0.8]];
        let obs = Matrix::from_rows(&rows);
        let batched = p.act_greedy_batch(&obs, &mut Tape::new());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(batched[i], p.act_greedy(row), "row {i}");
        }
    }

    #[test]
    fn act_batch_handles_empty_batch() {
        let p = gaussian_policy();
        let obs = Matrix::zeros(0, 3);
        assert!(p.act_batch(&obs, &mut StdRng::seed_from_u64(1)).is_empty());
        assert!(p.value_batch(&obs).is_empty());
    }
}
