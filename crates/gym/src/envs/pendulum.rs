//! The classic pendulum swing-up task (gym's `Pendulum-v1`).
//!
//! A harder continuous-control reference than [`super::PointMass`]: the
//! torque limit forces the agent to pump energy before it can balance.
//! Used to stress the RL algorithms beyond the airdrop case study.

use crate::env::{Action, EnvSnapshot, Environment, SnapshotError, Step};
use crate::space::Space;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pendulum swing-up; see the module docs.
#[derive(Clone)]
pub struct Pendulum {
    theta: f64,
    theta_dot: f64,
    t: usize,
    /// Episode length (gym default 200).
    pub(crate) horizon: usize,
    /// Maximum torque.
    pub(crate) max_torque: f64,
    /// Gravity.
    pub(crate) g: f64,
    rng: StdRng,
}

impl Default for Pendulum {
    fn default() -> Self {
        Self::new()
    }
}

impl Pendulum {
    /// Standard parameters (g = 10, torque limit 2, horizon 200).
    pub fn new() -> Self {
        Self {
            theta: 0.0,
            theta_dot: 0.0,
            t: 0,
            horizon: 200,
            max_torque: 2.0,
            g: 10.0,
            rng: StdRng::seed_from_u64(0),
        }
    }

    fn obs(&self) -> Vec<f64> {
        vec![self.theta.cos(), self.theta.sin(), self.theta_dot / 8.0]
    }

    /// Angle from upright, wrapped into `(-π, π]`.
    pub(crate) fn angle_error(&self) -> f64 {
        let mut a = self.theta % std::f64::consts::TAU;
        if a > std::f64::consts::PI {
            a -= std::f64::consts::TAU;
        } else if a <= -std::f64::consts::PI {
            a += std::f64::consts::TAU;
        }
        a
    }
}

impl Environment for Pendulum {
    fn observation_space(&self) -> Space {
        Space::Box { low: vec![-1.0, -1.0, -1.0], high: vec![1.0, 1.0, 1.0] }
    }

    fn action_space(&self) -> Space {
        Space::symmetric_box(1, 1.0)
    }

    fn seed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    fn reset(&mut self) -> Vec<f64> {
        self.theta = self.rng.gen_range(-std::f64::consts::PI..=std::f64::consts::PI);
        self.theta_dot = self.rng.gen_range(-1.0..=1.0);
        self.t = 0;
        self.obs()
    }

    fn step(&mut self, action: &Action) -> Step {
        let u = action.continuous()[0].clamp(-1.0, 1.0) * self.max_torque;
        let dt = 0.05;
        let (m, l) = (1.0, 1.0);
        // θ measured from upright; gravity accelerates away from it.
        let theta_err = self.angle_error();
        let reward =
            -(theta_err * theta_err + 0.1 * self.theta_dot * self.theta_dot + 0.001 * u * u)
                / self.horizon as f64
                * 10.0;
        self.theta_dot += (3.0 * self.g / (2.0 * l) * theta_err.sin() + 3.0 / (m * l * l) * u) * dt;
        self.theta_dot = self.theta_dot.clamp(-8.0, 8.0);
        self.theta += self.theta_dot * dt;
        self.t += 1;
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
            kind: "pendulum".into(),
            f: vec![self.theta, self.theta_dot],
            u: vec![self.t as u64],
            rng_seed,
        })
    }

    fn restore(&mut self, snapshot: &EnvSnapshot) -> Result<(), SnapshotError> {
        if snapshot.kind != "pendulum" {
            return Err(SnapshotError::Mismatch("kind"));
        }
        if snapshot.f.len() != 2 || snapshot.u.len() != 1 {
            return Err(SnapshotError::Mismatch("buffer layout"));
        }
        self.theta = snapshot.f[0];
        self.theta_dot = snapshot.f[1];
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

    #[test]
    fn episode_truncates_at_horizon() {
        let mut env = Pendulum::new();
        env.reset();
        for t in 1..=env.horizon {
            let s = env.step(&Action::Continuous(vec![0.0]));
            assert_eq!(s.done(), t == env.horizon);
        }
    }

    #[test]
    fn observations_are_bounded() {
        let mut env = Pendulum::new();
        env.seed(1);
        env.reset();
        for _ in 0..100 {
            let s = env.step(&Action::Continuous(vec![1.0]));
            assert!(s.obs[0].abs() <= 1.0 + 1e-12);
            assert!(s.obs[1].abs() <= 1.0 + 1e-12);
            assert!(s.obs[2].abs() <= 1.0 + 1e-12);
            if s.done() {
                env.reset();
            }
        }
    }

    #[test]
    fn reward_is_best_near_upright() {
        let mut env = Pendulum::new();
        env.theta = 0.0;
        env.theta_dot = 0.0;
        let r_up = env.step(&Action::Continuous(vec![0.0])).reward;

        let mut env = Pendulum::new();
        env.theta = std::f64::consts::PI;
        env.theta_dot = 0.0;
        let r_down = env.step(&Action::Continuous(vec![0.0])).reward;
        assert!(r_up > r_down);
    }

    #[test]
    fn unstable_equilibrium_falls_without_control() {
        let mut env = Pendulum::new();
        env.theta = 0.05; // slightly off upright
        env.theta_dot = 0.0;
        env.t = 0;
        let mut max_dev = 0.0f64;
        for _ in 0..100 {
            env.step(&Action::Continuous(vec![0.0]));
            max_dev = max_dev.max(env.angle_error().abs());
        }
        assert!(max_dev > 0.5, "must fall away from upright (max deviation {max_dev})");
    }

    #[test]
    fn torque_is_clamped() {
        let run = |u: f64| {
            let mut env = Pendulum::new();
            env.theta = 1.0;
            env.theta_dot = 0.0;
            env.t = 0;
            env.step(&Action::Continuous(vec![u]));
            env.theta_dot
        };
        assert_eq!(run(1.0), run(100.0));
    }

    #[test]
    fn seeded_resets_are_reproducible() {
        let mut a = Pendulum::new();
        let mut b = Pendulum::new();
        a.seed(9);
        b.seed(9);
        assert_eq!(a.reset(), b.reset());
    }

    #[test]
    fn angle_error_wraps() {
        let mut env = Pendulum::new();
        env.theta = std::f64::consts::TAU + 0.1;
        assert!((env.angle_error() - 0.1).abs() < 1e-12);
        env.theta = -std::f64::consts::TAU - 0.1;
        assert!((env.angle_error() + 0.1).abs() < 1e-12);
    }
}
