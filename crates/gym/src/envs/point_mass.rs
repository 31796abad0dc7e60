//! A continuous-control reference task: drive a 2-D point mass to the
//! origin.
//!
//! State is `[x, y, vx, vy]`; the action is a bounded acceleration in
//! `[-1, 1]²`. Reward per step is `-(‖p‖ + 0.1 ‖a‖²) / T`; an episode
//! lasts `T` steps. A policy that brakes into the origin scores close to
//! zero; a random policy drifts and scores far below. Both PPO and SAC
//! learn this task in a few thousand steps, which makes it the algorithm
//! acceptance test of the workspace.

use crate::env::{Action, EnvSnapshot, Environment, SnapshotError, Step};
use crate::space::Space;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Continuous point-mass task; see the module docs.
#[derive(Clone)]
pub struct PointMass {
    pos: [f64; 2],
    vel: [f64; 2],
    t: usize,
    /// Episode length.
    pub(crate) horizon: usize,
    /// Integration step.
    pub(crate) dt: f64,
    rng: StdRng,
}

impl Default for PointMass {
    fn default() -> Self {
        Self::new()
    }
}

impl PointMass {
    /// Standard task: horizon 60, dt 0.15.
    pub fn new() -> Self {
        Self {
            pos: [0.0; 2],
            vel: [0.0; 2],
            t: 0,
            horizon: 60,
            dt: 0.15,
            rng: StdRng::seed_from_u64(0),
        }
    }

    fn obs(&self) -> Vec<f64> {
        vec![self.pos[0], self.pos[1], self.vel[0], self.vel[1]]
    }
}

impl Environment for PointMass {
    fn observation_space(&self) -> Space {
        Space::unbounded_box(4)
    }

    fn action_space(&self) -> Space {
        Space::symmetric_box(2, 1.0)
    }

    fn seed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    fn reset(&mut self) -> Vec<f64> {
        self.pos = [self.rng.gen_range(-2.0..=2.0), self.rng.gen_range(-2.0..=2.0)];
        self.vel = [0.0, 0.0];
        self.t = 0;
        self.obs()
    }

    fn step(&mut self, action: &Action) -> Step {
        let a = action.continuous();
        debug_assert_eq!(a.len(), 2);
        let ax = a[0].clamp(-1.0, 1.0);
        let ay = a[1].clamp(-1.0, 1.0);
        // Semi-implicit Euler with mild drag.
        self.vel[0] = 0.98 * (self.vel[0] + self.dt * ax);
        self.vel[1] = 0.98 * (self.vel[1] + self.dt * ay);
        self.pos[0] += self.dt * self.vel[0];
        self.pos[1] += self.dt * self.vel[1];
        self.t += 1;

        let dist = (self.pos[0].powi(2) + self.pos[1].powi(2)).sqrt();
        let effort = ax * ax + ay * ay;
        let reward = -(dist + 0.1 * effort) / self.horizon as f64;
        Step { obs: self.obs(), reward, terminated: false, truncated: self.t >= self.horizon }
    }

    /// The RNG places the start in `reset`; `step` never reads it.
    fn steps_read_rng(&self) -> bool {
        false
    }

    fn snapshot(&mut self) -> Option<EnvSnapshot> {
        let rng_seed = self.rng.gen::<u64>();
        self.seed(rng_seed);
        Some(EnvSnapshot {
            kind: "point_mass".into(),
            f: vec![self.pos[0], self.pos[1], self.vel[0], self.vel[1]],
            u: vec![self.t as u64],
            rng_seed,
        })
    }

    fn restore(&mut self, snapshot: &EnvSnapshot) -> Result<(), SnapshotError> {
        if snapshot.kind != "point_mass" {
            return Err(SnapshotError::Mismatch("kind"));
        }
        if snapshot.f.len() != 4 || snapshot.u.len() != 1 {
            return Err(SnapshotError::Mismatch("buffer layout"));
        }
        self.pos = [snapshot.f[0], snapshot.f[1]];
        self.vel = [snapshot.f[2], snapshot.f[3]];
        self.t = snapshot.u[0] as usize;
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

    /// A proportional-derivative controller that solves the task — used to
    /// bound what "good" looks like for the learning tests.
    pub(crate) fn pd_action(obs: &[f64]) -> Action {
        let ax = (-2.0 * obs[0] - 2.5 * obs[2]).clamp(-1.0, 1.0);
        let ay = (-2.0 * obs[1] - 2.5 * obs[3]).clamp(-1.0, 1.0);
        Action::Continuous(vec![ax, ay])
    }

    fn rollout(env: &mut PointMass, policy: impl Fn(&[f64]) -> Action) -> f64 {
        let mut obs = env.reset();
        let mut total = 0.0;
        loop {
            let s = env.step(&policy(&obs));
            total += s.reward;
            let done = s.done();
            obs = s.obs;
            if done {
                break;
            }
        }
        total
    }

    #[test]
    fn pd_controller_beats_zero_action() {
        let mut env = PointMass::new();
        env.seed(42);
        let good: f64 = (0..10).map(|_| rollout(&mut env, pd_action)).sum();
        env.seed(42);
        let idle: f64 =
            (0..10).map(|_| rollout(&mut env, |_| Action::Continuous(vec![0.0, 0.0]))).sum();
        assert!(good > idle + 1.0, "good={good} idle={idle}");
    }

    #[test]
    fn episodes_truncate_at_horizon() {
        let mut env = PointMass::new();
        env.reset();
        for t in 1..=env.horizon {
            let s = env.step(&Action::Continuous(vec![0.0, 0.0]));
            assert_eq!(s.done(), t == env.horizon);
        }
    }

    #[test]
    fn reset_is_seed_deterministic() {
        let mut a = PointMass::new();
        let mut b = PointMass::new();
        a.seed(7);
        b.seed(7);
        assert_eq!(a.reset(), b.reset());
        a.seed(8);
        assert_ne!(a.reset(), b.reset());
    }

    #[test]
    fn actions_are_clamped() {
        let mut env = PointMass::new();
        env.seed(1);
        env.reset();
        let s1 = env.step(&Action::Continuous(vec![100.0, 0.0]));
        env.seed(1);
        env.reset();
        let s2 = env.step(&Action::Continuous(vec![1.0, 0.0]));
        // Position/velocity identical; reward differs through the effort
        // term which is computed from the clamped action.
        assert_eq!(s1.obs, s2.obs);
        assert_eq!(s1.reward, s2.reward);
    }

    #[test]
    fn reward_is_negative_away_from_origin() {
        let mut env = PointMass::new();
        env.seed(3);
        env.reset();
        let s = env.step(&Action::Continuous(vec![0.0, 0.0]));
        assert!(s.reward < 0.0);
    }
}
