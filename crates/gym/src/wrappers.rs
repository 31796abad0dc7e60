//! Environment wrappers: the episode time limit.

use crate::env::{Action, Environment, Step};
use crate::space::Space;

/// Truncate episodes after `max_steps` steps.
pub struct TimeLimit<E: Environment> {
    inner: E,
    max_steps: usize,
    t: usize,
}

impl<E: Environment> TimeLimit<E> {
    /// Wrap `inner` with an episode cap.
    pub fn new(inner: E, max_steps: usize) -> Self {
        assert!(max_steps > 0);
        Self { inner, max_steps, t: 0 }
    }
}

impl<E: Environment> Environment for TimeLimit<E> {
    fn observation_space(&self) -> Space {
        self.inner.observation_space()
    }
    fn action_space(&self) -> Space {
        self.inner.action_space()
    }
    fn seed(&mut self, seed: u64) {
        self.inner.seed(seed)
    }
    fn reset(&mut self) -> Vec<f64> {
        self.t = 0;
        self.inner.reset()
    }
    fn step(&mut self, action: &Action) -> Step {
        let mut s = self.inner.step(action);
        self.t += 1;
        if self.t >= self.max_steps && !s.terminated {
            s.truncated = true;
        }
        s
    }
    fn last_step_work(&self) -> u64 {
        self.inner.last_step_work()
    }
    fn duplicate(&self) -> Option<Box<dyn Environment>> {
        let inner = self.inner.duplicate()?;
        Some(Box::new(TimeLimit { inner, max_steps: self.max_steps, t: self.t }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envs::{GridWorld, PointMass};

    #[test]
    fn time_limit_truncates() {
        let mut env = TimeLimit::new(PointMass::new(), 5);
        env.reset();
        for t in 1..=5 {
            let s = env.step(&Action::Continuous(vec![0.0, 0.0]));
            assert_eq!(s.done(), t == 5, "t={t}");
        }
    }

    #[test]
    fn time_limit_does_not_mask_termination() {
        let mut env = TimeLimit::new(GridWorld::new(2), 100);
        env.reset();
        env.step(&Action::Discrete(3));
        let s = env.step(&Action::Discrete(1));
        assert!(s.terminated && !s.truncated);
    }

    #[test]
    fn time_limit_passes_work_through() {
        let env = TimeLimit::new(GridWorld::new(3), 10);
        assert_eq!(env.last_step_work(), 1);
    }
}
