//! The [`Environment`] trait and step/action types.

use crate::space::Space;
use std::ops::DerefMut;

/// An agent action: either a discrete index or a continuous vector.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Index into a [`Space::Discrete`].
    Discrete(usize),
    /// Vector in a [`Space::Box`].
    Continuous(Vec<f64>),
}

impl Action {
    /// The discrete index; panics on continuous actions.
    pub fn discrete(&self) -> usize {
        match self {
            Action::Discrete(a) => *a,
            Action::Continuous(_) => panic!("expected a discrete action"),
        }
    }

    /// The continuous vector; panics on discrete actions.
    pub fn continuous(&self) -> &[f64] {
        match self {
            Action::Continuous(a) => a,
            Action::Discrete(_) => panic!("expected a continuous action"),
        }
    }
}

/// A saved environment state, restorable via [`Environment::restore`].
///
/// Snapshots are plain data — two flat buffers plus an RNG reseed — so
/// they serialize trivially (the dist-exec wire codec) and stay
/// independent of any concrete environment type. Each environment defines
/// its own layout for `f`/`u`; the `kind` tag guards against restoring a
/// snapshot into the wrong environment.
///
/// # The sequence-point contract
///
/// `snapshot()` takes `&mut self` because capturing is a *sequence
/// point*: the environment re-keys its RNG with a freshly drawn seed
/// (recorded in [`EnvSnapshot::rng_seed`]) and drops any hidden
/// integrator caches (FSAL derivatives), so that after the call the live
/// environment and any restored copy are in bitwise-identical states.
/// The guaranteed property, which the snapshot round-trip sweeps pin
/// down for every snapshot-capable environment:
///
/// ```text
/// snapshot(); step^n        ==  snapshot(); restore(); step^n
/// ```
///
/// — identical observations, rewards and termination flags, bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvSnapshot {
    /// Environment kind tag (e.g. `"grid_world"`); checked on restore.
    pub kind: String,
    /// Floating-point state (layout is environment-defined).
    pub f: Vec<f64>,
    /// Integer state — counters, flags (layout is environment-defined).
    pub u: Vec<u64>,
    /// Seed the RNG was re-keyed with at capture time; `restore` replays
    /// it so both sides continue from the same stream.
    pub rng_seed: u64,
}

/// Why a [`Environment::restore`] call was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The environment does not implement snapshotting.
    Unsupported,
    /// The snapshot's `kind` tag or buffer layout does not match this
    /// environment.
    Mismatch(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Unsupported => write!(f, "environment does not support snapshots"),
            SnapshotError::Mismatch(what) => write!(f, "snapshot does not fit environment: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The result of one environment transition.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Observation after the transition.
    pub obs: Vec<f64>,
    /// Scalar reward.
    pub reward: f64,
    /// The episode reached a terminal state (e.g. the package landed).
    pub terminated: bool,
    /// The episode was cut short (e.g. a time limit) without terminating.
    pub truncated: bool,
}

impl Step {
    /// Terminal or truncated.
    pub fn done(&self) -> bool {
        self.terminated || self.truncated
    }
}

/// A gym-style environment.
///
/// Mirrors the `gym` API the paper's simulator exposes: `reset` starts an
/// episode and returns the first observation, `step` applies an action.
/// `Send` so vectorized/distributed drivers can move envs across threads.
pub trait Environment: Send {
    /// Observation space.
    fn observation_space(&self) -> Space;

    /// Action space.
    fn action_space(&self) -> Space;

    /// Reseed the environment's RNG (determinism across configurations is
    /// the crux of the paper's §VI-D reproducibility discussion).
    fn seed(&mut self, seed: u64);

    /// Start a new episode; returns the initial observation.
    fn reset(&mut self) -> Vec<f64>;

    /// Apply an action.
    fn step(&mut self, action: &Action) -> Step;

    /// Work units consumed by the most recent `step` call — the abstract
    /// cost the cluster simulator converts to time/energy. One unit is one
    /// derivative evaluation of the parachute dynamics; plain environments
    /// default to 1 unit per step.
    fn last_step_work(&self) -> u64 {
        1
    }

    /// Whether `step` may draw from the RNG that [`Environment::seed`]
    /// keys. When it does not, two copies restored from one snapshot and
    /// fed the same actions step identically whatever their seeds, so a
    /// harness may run one of them for both. The default, `true`, is
    /// always safe; override it only where `step` visibly reads no RNG.
    fn steps_read_rng(&self) -> bool {
        true
    }

    /// Downcast hook for the batched lockstep fast path. Environments
    /// that participate in batched integration override this to return
    /// `Some(self)`; the default opts out.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }

    /// Build a batcher that can advance `n_envs` homogeneous copies of
    /// this environment in one call (see
    /// [`crate::vec_env::AnyLockstepBatcher`]). The default — no batcher —
    /// keeps every environment on the scalar path.
    fn lockstep_batcher(
        &self,
        n_envs: usize,
    ) -> Option<Box<dyn crate::vec_env::AnyLockstepBatcher>> {
        let _ = n_envs;
        None
    }

    /// Capture the current mid-episode state as an [`EnvSnapshot`], or
    /// `None` when the environment does not support snapshotting (the
    /// default). Capturing is a sequence point — see the contract on
    /// [`EnvSnapshot`].
    fn snapshot(&mut self) -> Option<EnvSnapshot> {
        None
    }

    /// Restore a state previously captured by [`Environment::snapshot`]
    /// on an environment of the same kind and configuration. The default
    /// rejects with [`SnapshotError::Unsupported`].
    fn restore(&mut self, snapshot: &EnvSnapshot) -> Result<(), SnapshotError> {
        let _ = snapshot;
        Err(SnapshotError::Unsupported)
    }

    /// An independent copy with the same configuration, episode state and
    /// RNG position, which fed the same actions steps bit for bit like
    /// `self` — or `None`, the default, when the environment cannot copy
    /// itself. Hidden integrator caches (FSAL) start empty in the copy, as
    /// they are right after [`Environment::reset`]: that is where to take
    /// it. Unlike [`Environment::snapshot`] this is no sequence point;
    /// `self` is untouched.
    fn duplicate(&self) -> Option<Box<dyn Environment>> {
        None
    }
}

/// A pointer to an environment is one too, every method forwarding to the
/// environment behind it: a `VecEnv<Box<dyn Environment>>` holds lanes of
/// mixed types, and lanes borrowed as `&mut dyn Environment` step like
/// owned ones.
impl<P: DerefMut<Target: Environment> + Send> Environment for P {
    fn observation_space(&self) -> Space {
        (**self).observation_space()
    }
    fn action_space(&self) -> Space {
        (**self).action_space()
    }
    fn seed(&mut self, seed: u64) {
        (**self).seed(seed)
    }
    fn reset(&mut self) -> Vec<f64> {
        (**self).reset()
    }
    fn step(&mut self, action: &Action) -> Step {
        (**self).step(action)
    }
    fn last_step_work(&self) -> u64 {
        (**self).last_step_work()
    }
    fn steps_read_rng(&self) -> bool {
        (**self).steps_read_rng()
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        (**self).as_any_mut()
    }
    fn lockstep_batcher(
        &self,
        n_envs: usize,
    ) -> Option<Box<dyn crate::vec_env::AnyLockstepBatcher>> {
        (**self).lockstep_batcher(n_envs)
    }
    fn snapshot(&mut self) -> Option<EnvSnapshot> {
        (**self).snapshot()
    }
    fn restore(&mut self, snapshot: &EnvSnapshot) -> Result<(), SnapshotError> {
        (**self).restore(snapshot)
    }
    fn duplicate(&self) -> Option<Box<dyn Environment>> {
        (**self).duplicate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_accessors() {
        assert_eq!(Action::Discrete(2).discrete(), 2);
        assert_eq!(Action::Continuous(vec![0.5]).continuous(), &[0.5]);
    }

    #[test]
    #[should_panic(expected = "expected a discrete action")]
    fn wrong_accessor_panics() {
        Action::Continuous(vec![1.0]).discrete();
    }

    #[test]
    fn step_done_combines_flags() {
        let mut s = Step { obs: vec![], reward: 0.0, terminated: false, truncated: false };
        assert!(!s.done());
        s.truncated = true;
        assert!(s.done());
        s.truncated = false;
        s.terminated = true;
        assert!(s.done());
    }
}
