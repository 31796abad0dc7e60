//! Experience storage: on-policy rollouts and an off-policy replay ring.

use gymrs::Action;
use rand::Rng;

/// One environment transition (SAC replay format).
#[derive(Debug, Clone)]
pub struct Transition {
    /// Observation before the action.
    pub obs: Vec<f64>,
    /// The action taken (continuous vector for SAC).
    pub action: Vec<f64>,
    /// Reward received.
    pub reward: f64,
    /// Observation after the action.
    pub next_obs: Vec<f64>,
    /// Episode terminated (bootstrapping cut). Truncations store `false`.
    pub terminated: bool,
}

/// Fixed-capacity FIFO replay buffer with uniform sampling.
pub struct ReplayBuffer {
    data: Vec<Transition>,
    capacity: usize,
    head: usize,
    filled: bool,
}

impl ReplayBuffer {
    /// A buffer holding at most `capacity` transitions; its storage grows
    /// with the pushes, up to that.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self { data: Vec::new(), capacity, head: 0, filled: false }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        if self.filled {
            self.capacity
        } else {
            self.data.len()
        }
    }

    /// True when no transitions are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push a transition, evicting the oldest when full.
    pub fn push(&mut self, t: Transition) {
        if self.data.len() < self.capacity {
            self.data.push(t);
        } else {
            self.filled = true;
            self.data[self.head] = t;
            self.head = (self.head + 1) % self.capacity;
        }
        if self.data.len() == self.capacity {
            self.filled = true;
        }
    }

    /// Sample `n` transitions uniformly with replacement.
    pub fn sample<'a>(&'a self, n: usize, rng: &mut impl Rng) -> Vec<&'a Transition> {
        assert!(!self.is_empty(), "cannot sample from an empty replay buffer");
        (0..n).map(|_| &self.data[rng.gen_range(0..self.len())]).collect()
    }
}

/// On-policy rollout storage for PPO.
///
/// Stores fixed-horizon segments collected from (possibly several)
/// environments, plus the action log-probs and value estimates recorded at
/// collection time.
#[derive(Debug, Clone, Default)]
pub struct RolloutBuffer {
    /// Observations at each step.
    pub obs: Vec<Vec<f64>>,
    /// Actions taken.
    pub actions: Vec<Action>,
    /// Rewards received.
    pub rewards: Vec<f64>,
    /// Whether the episode *terminated* after the step.
    pub terminateds: Vec<bool>,
    /// Whether the episode ended (terminated or truncated) after the step.
    pub dones: Vec<bool>,
    /// Value estimates `V(obs)` recorded at collection time.
    pub values: Vec<f64>,
    /// Value estimate of the successor state (0 if terminated).
    pub next_values: Vec<f64>,
    /// `log π(a|s)` recorded at collection time.
    pub log_probs: Vec<f64>,
}

impl RolloutBuffer {
    /// Empty buffer with pre-allocated capacity.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            obs: Vec::with_capacity(n),
            actions: Vec::with_capacity(n),
            rewards: Vec::with_capacity(n),
            terminateds: Vec::with_capacity(n),
            dones: Vec::with_capacity(n),
            values: Vec::with_capacity(n),
            next_values: Vec::with_capacity(n),
            log_probs: Vec::with_capacity(n),
        }
    }

    /// Number of stored steps.
    pub fn len(&self) -> usize {
        self.obs.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.obs.is_empty()
    }

    /// Append one step.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        obs: Vec<f64>,
        action: Action,
        reward: f64,
        terminated: bool,
        done: bool,
        value: f64,
        next_value: f64,
        log_prob: f64,
    ) {
        self.obs.push(obs);
        self.actions.push(action);
        self.rewards.push(reward);
        self.terminateds.push(terminated);
        self.dones.push(done);
        self.values.push(value);
        self.next_values.push(next_value);
        self.log_probs.push(log_prob);
    }

    /// Merge another rollout into this one (used by the distributed
    /// backends to aggregate worker segments; segment boundaries always
    /// coincide with `done` handling because each worker bootstraps its
    /// own tail).
    pub fn extend(&mut self, other: RolloutBuffer) {
        self.obs.extend(other.obs);
        self.actions.extend(other.actions);
        self.rewards.extend(other.rewards);
        self.terminateds.extend(other.terminateds);
        self.dones.extend(other.dones);
        self.values.extend(other.values);
        self.next_values.extend(other.next_values);
        self.log_probs.extend(other.log_probs);
    }

    /// Compute GAE over this buffer.
    ///
    /// `dones` (terminated, truncated, or a closed segment tail) cuts the
    /// λ-recursion; the bootstrap cut is encoded in `next_values`, which
    /// stores 0 exactly for terminal successors.
    pub fn advantages(&self, gamma: f64, lambda: f64) -> (Vec<f64>, Vec<f64>) {
        crate::gae::gae(&self.rewards, &self.values, &self.dones, &self.next_values, gamma, lambda)
    }

    /// Approximate serialized size in bytes — what a worker ships to the
    /// learner over the simulated network.
    pub fn payload_bytes(&self) -> u64 {
        let obs_bytes: usize = self.obs.iter().map(|o| o.len() * 8).sum();
        let act_bytes: usize = self
            .actions
            .iter()
            .map(|a| match a {
                Action::Discrete(_) => 8,
                Action::Continuous(v) => v.len() * 8,
            })
            .sum();
        (obs_bytes + act_bytes + self.len() * (8 * 4 + 2)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn tr(x: f64) -> Transition {
        Transition {
            obs: vec![x],
            action: vec![0.0],
            reward: x,
            next_obs: vec![x + 1.0],
            terminated: false,
        }
    }

    #[test]
    fn replay_len_grows_then_saturates() {
        let mut rb = ReplayBuffer::new(3);
        assert!(rb.is_empty());
        for i in 0..5 {
            rb.push(tr(i as f64));
        }
        assert_eq!(rb.len(), 3);
    }

    #[test]
    fn replay_evicts_oldest_first() {
        let mut rb = ReplayBuffer::new(3);
        for i in 0..5 {
            rb.push(tr(i as f64));
        }
        // Remaining rewards must be {2, 3, 4}.
        let mut rng = StdRng::seed_from_u64(1);
        let rewards: std::collections::BTreeSet<i64> =
            rb.sample(200, &mut rng).iter().map(|t| t.reward as i64).collect();
        assert_eq!(rewards, [2, 3, 4].into_iter().collect());
    }

    fn slots(rb: &ReplayBuffer) -> Vec<i64> {
        rb.data.iter().map(|t| t.reward as i64).collect()
    }

    #[test]
    fn replay_overwrites_the_oldest_slot_at_capacity() {
        let mut rb = ReplayBuffer::new(3);
        for i in 0..3 {
            rb.push(tr(i as f64));
        }
        assert_eq!(slots(&rb), [0, 1, 2]);
        for (i, want) in [(3, [3, 1, 2]), (4, [3, 4, 2]), (5, [3, 4, 5]), (6, [6, 4, 5])] {
            rb.push(tr(i as f64));
            assert_eq!(slots(&rb), want, "after pushing {i}");
            assert_eq!(rb.len(), 3);
        }
    }

    #[test]
    fn replay_sample_draws_one_index_per_row() {
        // Row k of a sample is the slot `gen_range(0..len)` names on the
        // k-th draw, filling or full: a seeded sequence is fixed by the
        // slot layout above and the rng alone.
        for (pushes, layout) in [(3, vec![0, 1, 2]), (9, vec![5, 6, 7, 8, 4])] {
            let mut rb = ReplayBuffer::new(5);
            for i in 0..pushes {
                rb.push(tr(i as f64));
            }
            assert_eq!(slots(&rb), layout);
            let mut rng = StdRng::seed_from_u64(4);
            let mut twin = rng.clone();
            let got: Vec<i64> = rb.sample(40, &mut rng).iter().map(|t| t.reward as i64).collect();
            let want: Vec<i64> = (0..40).map(|_| layout[twin.gen_range(0..layout.len())]).collect();
            assert_eq!(got, want, "{pushes} pushes");
            assert_eq!(rng.next_u64(), twin.next_u64());
        }
    }

    #[test]
    fn replay_sampling_covers_the_buffer() {
        let mut rb = ReplayBuffer::new(10);
        for i in 0..10 {
            rb.push(tr(i as f64));
        }
        let mut rng = StdRng::seed_from_u64(2);
        let seen: std::collections::BTreeSet<i64> =
            rb.sample(500, &mut rng).iter().map(|t| t.reward as i64).collect();
        assert_eq!(seen.len(), 10, "uniform sampling should hit every slot");
    }

    #[test]
    #[should_panic(expected = "empty replay buffer")]
    fn sampling_empty_replay_panics() {
        let rb = ReplayBuffer::new(4);
        let mut rng = StdRng::seed_from_u64(3);
        rb.sample(1, &mut rng);
    }

    #[test]
    fn rollout_push_and_len() {
        let mut rb = RolloutBuffer::with_capacity(4);
        rb.push(vec![0.0], Action::Discrete(1), 1.0, false, false, 0.5, 0.6, -0.1);
        rb.push(vec![1.0], Action::Discrete(0), 0.0, true, true, 0.4, 0.0, -0.2);
        assert_eq!(rb.len(), 2);
        assert!(!rb.is_empty());
    }

    #[test]
    fn rollout_extend_concatenates() {
        let mut a = RolloutBuffer::with_capacity(2);
        a.push(vec![0.0], Action::Discrete(0), 1.0, false, false, 0.0, 0.0, 0.0);
        let mut b = RolloutBuffer::with_capacity(2);
        b.push(vec![1.0], Action::Discrete(1), 2.0, true, true, 0.0, 0.0, 0.0);
        a.extend(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.rewards, vec![1.0, 2.0]);
    }

    #[test]
    fn rollout_advantages_match_direct_gae() {
        let mut rb = RolloutBuffer::with_capacity(3);
        rb.push(vec![0.0], Action::Discrete(0), 1.0, false, false, 0.5, 0.4, 0.0);
        rb.push(vec![1.0], Action::Discrete(0), -1.0, false, false, 0.4, 0.3, 0.0);
        rb.push(vec![2.0], Action::Discrete(0), 2.0, true, true, 0.3, 0.0, 0.0);
        let (adv, ret) = rb.advantages(0.99, 0.95);
        let (adv2, ret2) =
            crate::gae::gae(&rb.rewards, &rb.values, &rb.dones, &rb.next_values, 0.99, 0.95);
        assert_eq!(adv, adv2);
        assert_eq!(ret, ret2);
    }

    #[test]
    fn payload_bytes_counts_obs_and_actions() {
        let mut rb = RolloutBuffer::with_capacity(1);
        rb.push(vec![0.0; 10], Action::Continuous(vec![0.0; 2]), 0.0, false, false, 0.0, 0.0, 0.0);
        // 10*8 obs + 2*8 action + 34 fixed = 148
        assert_eq!(rb.payload_bytes(), 80 + 16 + 34);
    }
}
