//! A small deterministic grid world with discrete actions.
//!
//! The agent starts in the top-left corner of an `n × n` grid and must
//! reach the bottom-right goal. Reward is `-0.04` per move (living cost)
//! and `+1` on reaching the goal. Observations are the normalized `(x, y)`
//! position. The shortest path takes `2 (n-1)` moves, the last of which
//! earns `+1` instead of the cost, so the optimal return is
//! `1 - 0.04 · (2n - 3)`.

use crate::env::{Action, EnvSnapshot, Environment, SnapshotError, Step};
use crate::space::Space;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Movement actions.
pub(crate) const ACTIONS: [(i32, i32); 4] = [(0, -1), (0, 1), (-1, 0), (1, 0)]; // up, down, left, right

/// Deterministic grid world; see the module docs.
#[derive(Clone)]
pub struct GridWorld {
    n: usize,
    x: usize,
    y: usize,
    steps: usize,
    max_steps: usize,
    /// Probability that an action is replaced by a random one ("slip").
    pub slip: f64,
    rng: StdRng,
}

impl GridWorld {
    /// An `n × n` grid with an episode cap of `4 n²` steps.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2);
        Self {
            n,
            x: 0,
            y: 0,
            steps: 0,
            max_steps: 4 * n * n,
            slip: 0.0,
            rng: StdRng::seed_from_u64(0),
        }
    }

    fn obs(&self) -> Vec<f64> {
        let d = (self.n - 1) as f64;
        vec![self.x as f64 / d, self.y as f64 / d]
    }
}

impl Environment for GridWorld {
    fn observation_space(&self) -> Space {
        Space::Box { low: vec![0.0, 0.0], high: vec![1.0, 1.0] }
    }

    fn action_space(&self) -> Space {
        Space::Discrete(4)
    }

    fn seed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    fn reset(&mut self) -> Vec<f64> {
        self.x = 0;
        self.y = 0;
        self.steps = 0;
        self.obs()
    }

    fn step(&mut self, action: &Action) -> Step {
        let mut a = action.discrete();
        debug_assert!(a < 4);
        if self.slip > 0.0 && self.rng.gen::<f64>() < self.slip {
            a = self.rng.gen_range(0..4);
        }
        let (dx, dy) = ACTIONS[a];
        self.x = (self.x as i32 + dx).clamp(0, self.n as i32 - 1) as usize;
        self.y = (self.y as i32 + dy).clamp(0, self.n as i32 - 1) as usize;
        self.steps += 1;

        let at_goal = self.x == self.n - 1 && self.y == self.n - 1;
        let reward = if at_goal { 1.0 } else { -0.04 };
        Step {
            obs: self.obs(),
            reward,
            terminated: at_goal,
            truncated: !at_goal && self.steps >= self.max_steps,
        }
    }

    /// Only a slip draws from the RNG.
    fn steps_read_rng(&self) -> bool {
        self.slip > 0.0
    }

    fn snapshot(&mut self) -> Option<EnvSnapshot> {
        let rng_seed = self.rng.gen::<u64>();
        self.seed(rng_seed);
        Some(EnvSnapshot {
            kind: "grid_world".into(),
            f: Vec::new(),
            u: vec![self.x as u64, self.y as u64, self.steps as u64],
            rng_seed,
        })
    }

    fn restore(&mut self, snapshot: &EnvSnapshot) -> Result<(), SnapshotError> {
        if snapshot.kind != "grid_world" {
            return Err(SnapshotError::Mismatch("kind"));
        }
        if snapshot.u.len() != 3 || !snapshot.f.is_empty() {
            return Err(SnapshotError::Mismatch("buffer layout"));
        }
        self.x = snapshot.u[0] as usize;
        self.y = snapshot.u[1] as usize;
        self.steps = snapshot.u[2] as usize;
        self.seed(snapshot.rng_seed);
        Ok(())
    }

    fn duplicate(&self) -> Option<Box<dyn Environment>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shortest_path_reaches_goal_with_optimal_return() {
        let mut env = GridWorld::new(4);
        env.reset();
        let mut total = 0.0;
        let mut done = false;
        // Go right 3, down 3.
        for a in [3, 3, 3, 1, 1, 1] {
            let s = env.step(&Action::Discrete(a));
            total += s.reward;
            done = s.done();
        }
        assert!(done);
        assert!((total - (1.0 - 0.04 * 5.0)).abs() < 1e-12);
    }

    #[test]
    fn walls_clamp_movement() {
        let mut env = GridWorld::new(3);
        let start = env.reset();
        let s = env.step(&Action::Discrete(2)); // left from (0,0)
        assert_eq!(s.obs, start);
    }

    #[test]
    fn truncates_at_max_steps() {
        let mut env = GridWorld::new(2);
        env.reset();
        let mut last = None;
        for _ in 0..16 {
            last = Some(env.step(&Action::Discrete(0))); // keep bumping the wall
        }
        let last = last.expect("episode ran");
        assert!(last.truncated && !last.terminated);
    }

    #[test]
    fn observations_are_normalized() {
        let mut env = GridWorld::new(5);
        env.reset();
        for _ in 0..4 {
            env.step(&Action::Discrete(3));
        }
        let s = env.step(&Action::Discrete(1));
        assert!(s.obs.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn slip_changes_trajectories() {
        let mut env = GridWorld::new(8);
        env.slip = 1.0;
        env.seed(1);
        env.reset();
        let a = Action::Discrete(3);
        let path1: Vec<Vec<f64>> = (0..10).map(|_| env.step(&a).obs).collect();
        env.seed(2);
        env.reset();
        let path2: Vec<Vec<f64>> = (0..10).map(|_| env.step(&a).obs).collect();
        assert_ne!(path1, path2);
    }

    #[test]
    fn default_step_work_is_one() {
        let env = GridWorld::new(3);
        assert_eq!(env.last_step_work(), 1);
    }
}
