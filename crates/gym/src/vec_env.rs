//! Vectorized environments.
//!
//! Stable Baselines parallelizes training "through vectorization": the
//! learner steps `n` sub-environments in lockstep, one per CPU core (the
//! paper's §V-b and the §VI-C discussion of how the *number of vectorized
//! environments* changes results). [`VecEnv`] reproduces that mechanism.
//!
//! A tick steps its lanes one of two ways — all at once through the
//! environment's batched stepper when one is installed (at and above the
//! scalar/SIMD crossover), otherwise one after another through
//! [`step_lanes`] — and then settles every lane's episode books in one
//! place, whichever way served it.

use crate::env::{Action, Environment};
use crate::keys;
use crate::space::Space;
use std::any::Any;
use telemetry::SharedRecorder;

/// Random-access view over the sub-environments handed to an
/// [`AnyLockstepBatcher`]. Each lane resolves through
/// [`Environment::as_any_mut`], so a batcher can downcast to the concrete
/// environment type without the `VecEnv` knowing it.
pub trait EnvLanes {
    /// Number of lanes (sub-environments).
    fn len(&self) -> usize;
    /// Whether there are no lanes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Mutable downcast handle for lane `i`; `None` when the environment
    /// type opted out of batching.
    fn lane(&mut self, i: usize) -> Option<&mut dyn Any>;
}

/// [`EnvLanes`] over a vector of environments — owned
/// (`VecEnv<AirdropEnv>`), boxed (`VecEnv<Box<dyn Environment>>`) or
/// borrowed (`Vec<&mut dyn Environment>`): the pointer impls forward
/// `as_any_mut` to the concrete type.
impl<E: Environment> EnvLanes for Vec<E> {
    fn len(&self) -> usize {
        self.as_slice().len()
    }
    fn lane(&mut self, i: usize) -> Option<&mut dyn Any> {
        self[i].as_any_mut()
    }
}

/// Step lane `i` of `envs` with `actions[i]` through its own
/// [`Environment::step`], in lane order: the scalar tick. Fills
/// `steps[i]` and, when the caller passes an observation buffer, moves the
/// post-step observation into `obs[i]`; like a batcher, it resets no lane.
pub fn step_lanes<E: Environment>(
    envs: &mut [E],
    actions: &[Action],
    mut obs: Option<&mut [Vec<f64>]>,
    steps: &mut [LaneStep],
) {
    for (i, (env, action)) in envs.iter_mut().zip(actions).enumerate() {
        let s = env.step(action);
        steps[i] = LaneStep {
            reward: s.reward,
            terminated: s.terminated,
            truncated: s.truncated,
            work: env.last_step_work(),
        };
        if let Some(obs) = obs.as_deref_mut() {
            obs[i] = s.obs;
        }
    }
}

/// Per-lane result of one lockstep tick — [`crate::Step`] minus the observation
/// allocation (observations land in the `VecEnv`'s reusable buffers).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LaneStep {
    /// Scalar reward.
    pub reward: f64,
    /// The episode reached a terminal state.
    pub terminated: bool,
    /// The episode was cut short without terminating.
    pub truncated: bool,
    /// Work units consumed by this lane's transition.
    pub work: u64,
}

impl LaneStep {
    /// Terminal or truncated.
    pub fn done(&self) -> bool {
        self.terminated || self.truncated
    }
}

/// Result of one lockstep tick, allocation-free in steady state: the
/// per-lane vectors are reused across ticks, and `final_obs` entries only
/// allocate on ticks where an episode actually ends.
#[derive(Debug, Default)]
pub struct TickBatch {
    /// Per-env step results (auto-reset already applied to the
    /// observation cache; see [`VecEnv::observations`]).
    pub steps: Vec<LaneStep>,
    /// `(env_index, episode_return, episode_length)` for episodes that
    /// ended on this tick.
    pub finished: Vec<(usize, f64, usize)>,
    /// For sub-envs whose episode ended on this tick, the observation the
    /// episode actually ended in; `None` for envs that did not finish.
    pub final_obs: Vec<Option<Vec<f64>>>,
}

impl TickBatch {
    fn begin(&mut self, n: usize) {
        self.steps.clear();
        self.steps.resize(n, LaneStep::default());
        self.finished.clear();
        self.final_obs.clear();
        self.final_obs.resize(n, None);
    }
}

/// Type-erased batched lockstep executor.
///
/// A batcher advances all lanes through one control interval in a single
/// call — for the airdrop simulator this means one batched ODE step per
/// substep instead of `n` scalar integrations. The contract:
///
/// * apply `actions[i]` to lane `i`, leaving the environment's own state
///   (RNG, episode counters, …) exactly as its scalar `step` would;
/// * fill `steps[i]` and, when the caller passes an observation buffer,
///   write the post-step observation into `obs[i]` (resizing only on the
///   first call); with `None` nobody reads this tick's observations and
///   the batcher skips computing them — everything else (state, RNG,
///   `steps`) is the same either way. Do **not** auto-reset done lanes;
///   the `VecEnv` owns episode bookkeeping;
/// * return `false` without mutating anything if the lanes are not the
///   homogeneous environment set the batcher was built for — the `VecEnv`
///   then drops the batcher and falls back to the scalar path.
pub trait AnyLockstepBatcher: Send {
    /// Advance every lane one control interval. See the trait docs for
    /// the mutation/fallback contract.
    fn step_lockstep(
        &mut self,
        lanes: &mut dyn EnvLanes,
        actions: &[Action],
        obs: Option<&mut [Vec<f64>]>,
        steps: &mut [LaneStep],
    ) -> bool;

    /// Invalidate per-lane integrator caches (FSAL) after the lane's
    /// environment was reset — mirrors the scalar stepper reset inside
    /// `Environment::reset`.
    fn reset_lane(&mut self, lane: usize);

    /// Drop every lane `i` with `!keep[i]`: the batcher now serves the
    /// kept lanes, in their order, and each keeps its integrator caches.
    /// `keep` has one entry per lane and at least one `true`.
    fn retain_lanes(&mut self, keep: &[bool]);
}

/// A set of sub-environments stepped in lockstep.
///
/// Episodes auto-reset: when a sub-environment finishes, its next
/// observation is the first observation of a fresh episode, the finished
/// episode's return is reported in [`TickBatch::finished`], and the raw
/// pre-reset observation is preserved in [`TickBatch::final_obs`] so
/// collectors can bootstrap truncated episodes correctly.
pub struct VecEnv<E: Environment> {
    envs: Vec<E>,
    obs: Vec<Vec<f64>>,
    ep_return: Vec<f64>,
    ep_len: Vec<usize>,
    batcher: Option<Box<dyn AnyLockstepBatcher>>,
    tick: TickBatch,
    /// Total environment steps taken across all sub-envs.
    pub total_steps: u64,
    /// Total work units consumed across all sub-envs.
    pub total_work: u64,
    recorder: SharedRecorder,
}

impl<E: Environment> VecEnv<E> {
    /// Wrap `envs` (at least one) and seed them `base_seed + index`.
    pub fn new(mut envs: Vec<E>, base_seed: u64) -> Self {
        for (i, e) in envs.iter_mut().enumerate() {
            e.seed(base_seed.wrapping_add(i as u64));
        }
        Self::new_preseeded(envs)
    }

    /// Wrap `envs` (at least one) without touching their seeds — for
    /// callers that have already seeded each sub-env (the distributed
    /// backends derive per-worker seed streams).
    pub fn new_preseeded(envs: Vec<E>) -> Self {
        let n = envs.len();
        Self::resume(envs, vec![Vec::new(); n])
    }

    /// Wrap `envs` (at least one) without seeding or resetting them, each
    /// standing at `obs[i]`: the first tick steps on from there. Every
    /// lane's episode books start empty, so an episode already under way
    /// is counted from that tick.
    pub fn resume(envs: Vec<E>, obs: Vec<Vec<f64>>) -> Self {
        assert!(!envs.is_empty(), "VecEnv needs at least one sub-environment");
        assert_eq!(obs.len(), envs.len(), "one observation per sub-env");
        let n = envs.len();
        // Auto-install the batched fast path only above the calibrated
        // scalar/SIMD crossover: tiny batches (n = 1–2 by default) pay
        // more in SoA bookkeeping than they gain in lane parallelism.
        // `set_batched(true)` bypasses the gate for explicit opt-in.
        let batcher = if n >= simd_kernels::crossover::batch_crossover() {
            envs[0].lockstep_batcher(n)
        } else {
            None
        };
        Self {
            envs,
            obs,
            ep_return: vec![0.0; n],
            ep_len: vec![0; n],
            batcher,
            tick: TickBatch::default(),
            total_steps: 0,
            total_work: 0,
            recorder: telemetry::null_recorder(),
        }
    }

    /// Route per-tick counters (see [`crate::keys`]) to `recorder`.
    /// Defaults to the null recorder, which keeps the step path free of
    /// instrumentation cost beyond one branch per tick.
    ///
    /// Attaching an enabled recorder also emits one `keys::DISPATCH`
    /// event capturing the kernel dispatch decision: the ISA tier the
    /// SIMD microkernels run on, its `f64` lane width, the scalar/batched
    /// crossover, and whether this `VecEnv` took the batched path.
    pub fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.recorder = recorder;
        if self.recorder.enabled() {
            let isa = simd_kernels::Isa::cached();
            self.recorder.event(
                keys::DISPATCH,
                &[
                    (keys::DISPATCH_ISA, telemetry::Value::Str(isa.name())),
                    (keys::DISPATCH_LANES, telemetry::Value::U64(isa.f64_lanes() as u64)),
                    (
                        keys::DISPATCH_CROSSOVER,
                        telemetry::Value::U64(simd_kernels::crossover::batch_crossover() as u64),
                    ),
                    (keys::DISPATCH_BATCHED, telemetry::Value::Bool(self.batcher.is_some())),
                ],
            );
        }
    }

    /// Enable/disable the batched lockstep fast path. Toggle before
    /// stepping: a batcher installed mid-run starts with cold integrator
    /// caches, which the scalar path would still have warm.
    pub fn set_batched(&mut self, on: bool) {
        if on {
            if self.batcher.is_none() {
                self.batcher = self.envs[0].lockstep_batcher(self.envs.len());
            }
        } else {
            self.batcher = None;
        }
    }

    /// Whether [`VecEnv::step_lockstep`] currently takes the batched
    /// fast path.
    pub fn is_batched(&self) -> bool {
        self.batcher.is_some()
    }

    /// Number of sub-environments.
    pub fn len(&self) -> usize {
        self.envs.len()
    }

    /// Always false (the constructor rejects empty sets).
    pub fn is_empty(&self) -> bool {
        self.envs.is_empty()
    }

    /// Observation space of the sub-environments.
    pub fn observation_space(&self) -> Space {
        self.envs[0].observation_space()
    }

    /// Action space of the sub-environments.
    pub fn action_space(&self) -> Space {
        self.envs[0].action_space()
    }

    /// Reset every sub-environment; returns the initial observations.
    pub fn reset_all(&mut self) -> &[Vec<f64>] {
        for (i, e) in self.envs.iter_mut().enumerate() {
            self.obs[i] = e.reset();
            self.ep_return[i] = 0.0;
            self.ep_len[i] = 0;
            if let Some(b) = &mut self.batcher {
                b.reset_lane(i);
            }
        }
        &self.obs
    }

    /// Current observations (valid after `reset_all` and
    /// `step_lockstep`; after [`VecEnv::step_unobserved`] only the lanes
    /// that just reset are fresh).
    pub fn observations(&self) -> &[Vec<f64>] {
        &self.obs
    }

    /// Give the sub-environments back, in lane order — what a test reads
    /// lane state and RNG position from once the stepping is over.
    pub fn into_envs(self) -> Vec<E> {
        self.envs
    }

    /// Write the current observations into `out` as one flat row-major
    /// `n_envs × obs_dim` buffer (cleared first); returns `(rows, cols)`.
    /// This is the zero-copy-ish bridge to the batched policy API: the
    /// caller hands the flat buffer to a `batch × obs_dim` matrix without
    /// per-env intermediate allocations.
    pub fn write_obs_flat(&self, out: &mut Vec<f64>) -> (usize, usize) {
        let dim = self.obs.first().map_or(0, |o| o.len());
        out.clear();
        for o in &self.obs {
            debug_assert_eq!(o.len(), dim, "ragged observations");
            out.extend_from_slice(o);
        }
        (self.obs.len(), dim)
    }

    /// Step every sub-environment one control interval, preferring the
    /// batched fast path (one batched ODE step per substep across all
    /// lanes) and falling back to [`step_lanes`] when no batcher is
    /// installed or the sub-envs turn out heterogeneous.
    ///
    /// The result is available through [`VecEnv::last_tick`] — split off
    /// from the call so the tick buffers can be reused allocation-free
    /// (the batched path performs zero heap allocations on ticks where no
    /// episode ends). Batched and scalar paths are bitwise-identical; the
    /// ODE-level sweeps and the backend determinism regression pin
    /// that down.
    pub fn step_lockstep(&mut self, actions: &[Action]) {
        self.tick(actions, true);
    }

    /// [`VecEnv::step_lockstep`] for a caller that reads no observation
    /// of this tick (an open-loop rollout): the same body, counters and
    /// auto-reset, but the batcher is not asked for observations, so
    /// afterwards [`VecEnv::observations`] is fresh only for lanes that
    /// just reset (their first observation) and stale for every other
    /// lane, and [`TickBatch::final_obs`] stays `None` throughout.
    /// Rewards, done flags, work, environment state and RNG position are
    /// those of the observed tick, so observed and unobserved ticks mix
    /// freely — the next observed tick rewrites every lane.
    pub fn step_unobserved(&mut self, actions: &[Action]) {
        self.tick(actions, false);
    }

    fn tick(&mut self, actions: &[Action], observe: bool) {
        assert_eq!(actions.len(), self.envs.len(), "one action per sub-env");
        self.tick.begin(self.envs.len());
        let obs = observe.then_some(self.obs.as_mut_slice());
        let batched = self
            .batcher
            .as_mut()
            .is_some_and(|b| b.step_lockstep(&mut self.envs, actions, obs, &mut self.tick.steps));
        if !batched {
            // No batcher, or it refused these lanes (a heterogeneous set
            // or a foreign env type) without mutating them: drop it and
            // stay scalar from now on.
            self.batcher = None;
            let obs = observe.then_some(self.obs.as_mut_slice());
            step_lanes(&mut self.envs, actions, obs, &mut self.tick.steps);
        }
        self.settle_tick(observe, batched);
    }

    /// Result of the most recent [`VecEnv::step_lockstep`] or
    /// [`VecEnv::step_unobserved`] call.
    pub fn last_tick(&self) -> &TickBatch {
        &self.tick
    }

    /// Episode bookkeeping of every tick: totals, auto-reset,
    /// integrator-cache invalidation for reset lanes. On an unobserved
    /// tick the pre-reset observation was never written, so it is not
    /// kept. `batched` records which path served the tick.
    fn settle_tick(&mut self, observed: bool, batched: bool) {
        let mut tick_work = 0u64;
        for i in 0..self.envs.len() {
            let s = self.tick.steps[i];
            self.total_steps += 1;
            self.total_work += s.work;
            tick_work += s.work;
            self.ep_return[i] += s.reward;
            self.ep_len[i] += 1;
            if s.done() {
                self.tick.finished.push((i, self.ep_return[i], self.ep_len[i]));
                self.ep_return[i] = 0.0;
                self.ep_len[i] = 0;
                let ended_in = std::mem::replace(&mut self.obs[i], self.envs[i].reset());
                if observed {
                    self.tick.final_obs[i] = Some(ended_in);
                }
                if let Some(b) = &mut self.batcher {
                    b.reset_lane(i);
                }
            }
        }
        self.record_tick(tick_work, self.tick.finished.len() as u64, batched);
    }

    /// One counter bundle per lockstep sweep — aggregated locally first,
    /// so the recorder sees a handful of adds per tick, not per sub-env.
    /// `batched` records which path served the tick.
    fn record_tick(&self, tick_work: u64, episodes: u64, batched: bool) {
        if !self.recorder.enabled() {
            return;
        }
        self.recorder.counter_add(keys::TICKS, 1);
        self.recorder
            .counter_add(if batched { keys::BATCHED_TICKS } else { keys::SCALAR_TICKS }, 1);
        self.recorder.counter_add(keys::STEPS, self.envs.len() as u64);
        self.recorder.counter_add(keys::WORK, tick_work);
        if episodes > 0 {
            self.recorder.counter_add(keys::EPISODES, episodes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envs::{GridWorld, PointMass};

    fn make(n: usize) -> VecEnv<GridWorld> {
        let mut v = VecEnv::new((0..n).map(|_| GridWorld::new(3)).collect(), 0);
        v.reset_all();
        v
    }

    #[test]
    fn lockstep_advances_every_env() {
        let mut v = make(4);
        v.step_lockstep(&vec![Action::Discrete(3); 4]);
        assert_eq!(v.last_tick().steps.len(), 4);
        assert_eq!(v.total_steps, 4);
        // All identical deterministic envs: same observation everywhere.
        for o in v.observations() {
            assert_eq!(o, &v.observations()[0]);
        }
    }

    #[test]
    fn auto_reset_reports_finished_episodes() {
        let mut v = make(1);
        // Right, right, down, down reaches the 3x3 goal.
        let mut finished = Vec::new();
        for a in [3, 3, 1, 1] {
            v.step_lockstep(&[Action::Discrete(a)]);
            finished.extend_from_slice(&v.last_tick().finished);
        }
        assert_eq!(finished.len(), 1);
        let (idx, ret, len) = finished[0];
        assert_eq!(idx, 0);
        assert_eq!(len, 4);
        assert!((ret - (1.0 - 0.04 * 3.0)).abs() < 1e-12);
        // After auto-reset the observation is the start state.
        assert_eq!(v.observations()[0], vec![0.0, 0.0]);
    }

    #[test]
    fn final_obs_preserves_pre_reset_observation() {
        let mut v = make(1);
        for a in [3, 3, 1] {
            v.step_lockstep(&[Action::Discrete(a)]);
            assert_eq!(v.last_tick().final_obs, vec![None]);
        }
        v.step_lockstep(&[Action::Discrete(1)]);
        // Episode done: the observation is the reset state, final_obs the
        // goal (normalized grid coordinates).
        assert_eq!(v.observations()[0], vec![0.0, 0.0]);
        assert_eq!(v.last_tick().final_obs[0], Some(vec![1.0, 1.0]));
    }

    #[test]
    fn an_unobserved_tick_keeps_the_books_and_reports_no_final_obs() {
        // GridWorld has no batcher: the scalar fallback of the unobserved
        // tick. Same steps, same finished list, same auto-reset.
        let (mut seen, mut blind) = (make(1), make(1));
        for a in [3, 3, 1, 1, 3] {
            seen.step_lockstep(&[Action::Discrete(a)]);
            blind.step_unobserved(&[Action::Discrete(a)]);
            assert_eq!(seen.last_tick().steps, blind.last_tick().steps);
            assert_eq!(seen.last_tick().finished, blind.last_tick().finished);
            assert_eq!(blind.last_tick().final_obs, vec![None]);
        }
        assert_eq!(seen.total_steps, blind.total_steps);
        assert_eq!(blind.into_envs().len(), 1);
    }

    #[test]
    fn mixed_lanes_keep_the_books_of_each_environment_alone() {
        // GridWorld and PointMass in one `VecEnv`: no batcher serves them,
        // so every tick is scalar, and each lane's books are those of its
        // environment stepped on its own.
        let lanes = || -> Vec<Box<dyn Environment>> {
            vec![Box::new(GridWorld::new(3)), Box::new(PointMass::new())]
        };
        let (mut v, mut alone) = (VecEnv::new(lanes(), 4), lanes());
        v.reset_all();
        for (e, seed) in alone.iter_mut().zip(4..) {
            e.seed(seed);
        }
        let mut obs: Vec<_> = alone.iter_mut().map(|e| e.reset()).collect();
        let (mut open, mut total_work) = ([(0.0, 0); 2], 0);
        for t in 0..130 {
            let actions = [Action::Discrete(t % 4), Action::Continuous(vec![0.3, -0.7])];
            v.step_lockstep(&actions);
            let (tick, mut finished) = (v.last_tick(), vec![]);
            for (i, e) in alone.iter_mut().enumerate() {
                let s = e.step(&actions[i]);
                let (reward, terminated, truncated) = (s.reward, s.terminated, s.truncated);
                let work = e.last_step_work();
                assert_eq!(tick.steps[i], LaneStep { reward, terminated, truncated, work });
                total_work += work;
                open[i] = (open[i].0 + reward, open[i].1 + 1);
                obs[i] = s.obs;
                let done = terminated || truncated;
                let ended_in = done.then(|| std::mem::replace(&mut obs[i], e.reset()));
                assert_eq!(tick.final_obs[i], ended_in, "tick {t}");
                if ended_in.is_some() {
                    finished.push((i, open[i].0, open[i].1));
                    open[i] = (0.0, 0);
                }
            }
            assert_eq!(tick.finished, finished, "tick {t}");
            assert_eq!(v.observations(), obs.as_slice(), "tick {t}");
        }
        assert!(!v.is_batched());
        assert_eq!((v.total_steps, v.total_work), (260, total_work));
        assert!(open.iter().all(|&(_, len)| len < 130), "both lanes finished episodes");
    }

    #[test]
    fn write_obs_flat_matches_observations() {
        let mut v = make(3);
        v.step_lockstep(&vec![Action::Discrete(3); 3]);
        let mut flat = Vec::new();
        let (rows, cols) = v.write_obs_flat(&mut flat);
        assert_eq!((rows, cols), (3, 2));
        for (i, o) in v.observations().iter().enumerate() {
            assert_eq!(&flat[i * cols..(i + 1) * cols], o.as_slice());
        }
        // Reuse clears previous contents.
        let (rows2, _) = v.write_obs_flat(&mut flat);
        assert_eq!(flat.len(), rows2 * cols);
    }

    #[test]
    fn preseeded_constructor_does_not_reseed() {
        let mut e1 = GridWorld::new(3);
        e1.seed(123);
        let mut v = VecEnv::new_preseeded(vec![e1]);
        v.reset_all();
        assert_eq!(v.len(), 1);
        assert_eq!(v.observations()[0], vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "one action per sub-env")]
    fn wrong_action_count_panics() {
        let mut v = make(2);
        v.step_lockstep(&[Action::Discrete(0)]);
    }

    #[test]
    #[should_panic(expected = "at least one sub-environment")]
    fn empty_vec_env_rejected() {
        let _ = VecEnv::<GridWorld>::new(Vec::new(), 0);
    }

    #[test]
    fn work_accounting_accumulates() {
        let mut v = make(2);
        v.step_lockstep(&vec![Action::Discrete(0); 2]);
        v.step_lockstep(&vec![Action::Discrete(0); 2]);
        assert_eq!(v.total_work, 4); // GridWorld costs 1 unit per step
    }

    #[test]
    fn recorder_counters_match_internal_totals() {
        let ring = std::sync::Arc::new(telemetry::RingRecorder::new());
        let mut v = make(2);
        v.set_recorder(ring.clone());
        // Both identical envs reach the 3x3 goal on tick 4 (right, right,
        // down, down), so two episodes finish; tick 5 runs post-reset.
        for a in [3, 3, 1, 1, 0] {
            v.step_lockstep(&vec![Action::Discrete(a); 2]);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.counter(keys::TICKS.name()), Some(5));
        assert_eq!(snap.counter(keys::STEPS.name()), Some(v.total_steps));
        assert_eq!(snap.counter(keys::WORK.name()), Some(v.total_work));
        assert_eq!(snap.counter(keys::EPISODES.name()), Some(2));
    }

    #[test]
    fn scalar_ticks_are_counted_per_path() {
        // GridWorld has no lockstep batcher, so every tick is scalar.
        let ring = std::sync::Arc::new(telemetry::RingRecorder::new());
        let mut v = make(2);
        v.set_recorder(ring.clone());
        for _ in 0..3 {
            v.step_lockstep(&vec![Action::Discrete(0); 2]);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.counter(keys::SCALAR_TICKS.name()), Some(3));
        assert_eq!(snap.counter(keys::BATCHED_TICKS.name()), None);
    }

    #[test]
    fn attaching_a_recorder_emits_the_dispatch_event() {
        let ring = std::sync::Arc::new(telemetry::RingRecorder::new());
        let mut v = make(2);
        v.set_recorder(ring.clone());
        let snap = ring.snapshot();
        let ev: Vec<_> = snap.events_named(keys::DISPATCH.name()).collect();
        assert_eq!(ev.len(), 1, "exactly one dispatch event per attach");
        let isa = simd_kernels::Isa::cached();
        assert_eq!(
            ev[0].field(keys::DISPATCH_ISA.name()),
            Some(&telemetry::FieldValue::Str(isa.name().into()))
        );
        assert_eq!(ev[0].field_u64(keys::DISPATCH_LANES.name()), Some(isa.f64_lanes() as u64));
        assert_eq!(
            ev[0].field_u64(keys::DISPATCH_CROSSOVER.name()),
            Some(simd_kernels::crossover::batch_crossover() as u64)
        );
        assert!(ev[0].field(keys::DISPATCH_BATCHED.name()).is_some());
    }
}
