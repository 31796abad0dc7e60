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
//! `step_lanes` — and then settles every lane's episode books in one
//! place, whichever way served it.
//!
//! Episodes that end and are not followed by another — greedy
//! evaluation's, a what-if continuation's — run through
//! [`run_episodes`] instead: the same two ways of stepping, but a lane
//! retires at its first `done` (or a step cap) rather than resetting, the
//! batcher shrinks with the lanes, and a caller that reads no
//! observation gets none computed.

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
pub(crate) fn step_lanes<E: Environment>(
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

/// Step `envs` in lockstep, lane `i` starting from `actions[i]`, until
/// every lane has retired: a lane retires at its first `done` step or
/// after `max_steps` steps, and is never reset. After each tick
/// `record(lane, step)` sees every stepped lane's result (a lane is its
/// index in `envs`), then `act(live, obs, actions)` writes the next
/// action of each lane still live: `live` holds their indices in order,
/// one entry of `actions` each. `obs` holds their post-step observations
/// when `observe` is set and is `None` otherwise — nobody computes them
/// then. An `act` that leaves `actions` alone steps the first actions
/// throughout, and a tick that retires no lane allocates nothing.
///
/// The batcher comes from lane 0 as [`VecEnv`] installs it — at
/// [`batch_crossover`] lanes or more, or as `force_batched` says, like
/// [`VecEnv::set_batched`] — and shrinks with the lanes, each kept lane
/// keeping its integrator caches. One that refuses the lanes, which it
/// does on its first tick if at all, is dropped, and `step_lanes`
/// serves every tick.
///
/// [`batch_crossover`]: simd_kernels::crossover::batch_crossover
pub fn run_episodes<E: Environment>(
    mut envs: Vec<E>,
    mut actions: Vec<Action>,
    max_steps: usize,
    force_batched: Option<bool>,
    observe: bool,
    mut record: impl FnMut(usize, &LaneStep),
    mut act: impl FnMut(&[usize], Option<&[Vec<f64>]>, &mut [Action]),
) {
    let n = envs.len();
    assert_eq!(actions.len(), n, "one first action per lane");
    if n == 0 || max_steps == 0 {
        return;
    }
    let mut batcher = install_batcher(&envs, force_batched);
    let mut obs = if observe { vec![Vec::new(); n] } else { Vec::new() };
    let (mut live, mut steps): (Vec<usize>, _) = ((0..n).collect(), vec![LaneStep::default(); n]);
    let mut keep = Vec::with_capacity(n);
    for taken in 1.. {
        step_tick(&mut batcher, &mut envs, &actions, observe.then_some(&mut obs[..]), &mut steps);
        keep.clear();
        for (&lane, step) in live.iter().zip(&steps) {
            record(lane, step);
            keep.push(!step.done() && taken < max_steps);
        }
        if keep.contains(&false) {
            retain(&mut envs, &keep);
            if envs.is_empty() {
                return;
            }
            retain(&mut live, &keep);
            retain(&mut actions, &keep);
            if observe {
                retain(&mut obs, &keep);
            }
            steps.truncate(envs.len());
            if let Some(b) = &mut batcher {
                b.retain_lanes(&keep);
            }
        }
        act(&live, observe.then_some(&obs[..]), &mut actions);
    }
}

/// The batcher a lockstep set of `envs` starts with: lane 0's when
/// `force` says so or, unset, at and above the calibrated scalar/SIMD
/// crossover — tiny batches (n = 1–2 by default) pay more in SoA
/// bookkeeping than they gain in lane parallelism.
fn install_batcher<E: Environment>(
    envs: &[E],
    force: Option<bool>,
) -> Option<Box<dyn AnyLockstepBatcher>> {
    let n = envs.len();
    let install = force.unwrap_or(n >= simd_kernels::crossover::batch_crossover());
    if install {
        envs[0].lockstep_batcher(n)
    } else {
        None
    }
}

/// Step every lane of `envs` once: through `batcher` when it takes the
/// lanes, otherwise through `step_lanes`. A batcher that refuses them (a
/// heterogeneous set or a foreign env type, left unmutated) is dropped,
/// so every later tick is scalar. Returns whether the batcher served.
fn step_tick<E: Environment>(
    batcher: &mut Option<Box<dyn AnyLockstepBatcher>>,
    envs: &mut Vec<E>,
    actions: &[Action],
    mut obs: Option<&mut [Vec<f64>]>,
    steps: &mut [LaneStep],
) -> bool {
    let batched =
        batcher.as_mut().is_some_and(|b| b.step_lockstep(envs, actions, obs.as_deref_mut(), steps));
    if !batched {
        *batcher = None;
        step_lanes(envs, actions, obs, steps);
    }
    batched
}

/// Keep `v[i]` where `keep[i]`.
fn retain<T>(v: &mut Vec<T>, keep: &[bool]) {
    let mut flags = keep.iter();
    v.retain(|_| *flags.next().expect("one flag per lane"));
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
        // `set_batched(true)` bypasses the crossover for explicit opt-in.
        let batcher = install_batcher(&envs, None);
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
    /// `step_lockstep`).
    pub fn observations(&self) -> &[Vec<f64>] {
        &self.obs
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
    /// lanes) and falling back to `step_lanes` when no batcher is
    /// installed or the sub-envs turn out heterogeneous.
    ///
    /// The result is available through [`VecEnv::last_tick`] — split off
    /// from the call so the tick buffers can be reused allocation-free
    /// (the batched path performs zero heap allocations on ticks where no
    /// episode ends). Batched and scalar paths are bitwise-identical; the
    /// ODE-level sweeps and the backend determinism regression pin
    /// that down.
    pub fn step_lockstep(&mut self, actions: &[Action]) {
        self.tick(actions);
    }

    fn tick(&mut self, actions: &[Action]) {
        assert_eq!(actions.len(), self.envs.len(), "one action per sub-env");
        self.tick.begin(self.envs.len());
        let obs = Some(self.obs.as_mut_slice());
        let batched =
            step_tick(&mut self.batcher, &mut self.envs, actions, obs, &mut self.tick.steps);
        self.settle_tick(batched);
    }

    /// Result of the most recent [`VecEnv::step_lockstep`] call.
    pub fn last_tick(&self) -> &TickBatch {
        &self.tick
    }

    /// Episode bookkeeping of every tick: totals, auto-reset,
    /// integrator-cache invalidation for reset lanes. `batched` records
    /// which path served the tick.
    fn settle_tick(&mut self, batched: bool) {
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
                self.tick.final_obs[i] = Some(ended_in);
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

    /// Slippery 4×4 grid worlds, lane `i` seeded `i` and reset: their
    /// steps draw from the RNG, so a lost or extra draw shows.
    fn slippery(n: usize) -> Vec<GridWorld> {
        (0..n as u64)
            .map(|i| {
                let mut e = GridWorld::new(4);
                e.slip = 0.3;
                e.seed(i);
                e.reset();
                e
            })
            .collect()
    }

    /// Lane `lane`'s action on tick `t`: right and down in turn.
    fn zigzag(t: usize, lane: usize) -> Action {
        Action::Discrete(if (t + lane).is_multiple_of(2) { 3 } else { 1 })
    }

    /// [`run_episodes`] over `envs` on [`zigzag`] actions: every lane's
    /// steps, in lane order.
    fn run_zigzag<E: Environment>(
        envs: Vec<E>,
        max_steps: usize,
        force_batched: Option<bool>,
        observe: bool,
    ) -> Vec<Vec<LaneStep>> {
        let n = envs.len();
        let (mut log, mut t) = (vec![Vec::new(); n], 0);
        run_episodes(
            envs,
            (0..n).map(|lane| zigzag(0, lane)).collect(),
            max_steps,
            force_batched,
            observe,
            |lane, step| log[lane].push(*step),
            |live, obs, actions| {
                t += 1;
                assert_eq!(obs.map(<[_]>::len), observe.then_some(live.len()));
                for (a, &lane) in actions.iter_mut().zip(live) {
                    *a = zigzag(t, lane);
                }
            },
        );
        log
    }

    #[test]
    fn lanes_retire_at_done_or_the_cap_and_an_open_loop_run_steps_alike() {
        let max_steps = 9;
        // The oracle: each lane stepped alone until done or the cap.
        let mut alone = slippery(6);
        let oracle: Vec<Vec<LaneStep>> = alone
            .iter_mut()
            .enumerate()
            .map(|(lane, e)| {
                let mut steps = Vec::new();
                for t in 0..max_steps {
                    let s = e.step(&zigzag(t, lane));
                    let (reward, terminated, truncated) = (s.reward, s.terminated, s.truncated);
                    steps.push(LaneStep { reward, terminated, truncated, work: 1 });
                    if s.done() {
                        break;
                    }
                }
                steps
            })
            .collect();
        let ended = oracle.iter().filter(|s| s.last().is_some_and(LaneStep::done)).count();
        assert!(ended > 0 && ended < 6, "lanes retire both ways: {ended} of 6 ended");
        let (mut seen, mut blind) = (slippery(6), slippery(6));
        assert_eq!(run_zigzag(seen.iter_mut().collect(), max_steps, None, true), oracle);
        assert_eq!(run_zigzag(blind.iter_mut().collect(), max_steps, None, false), oracle);
        // Lane state and, through the snapshot's drawn re-key, RNG position.
        for ((a, b), c) in seen.iter_mut().zip(&mut blind).zip(&mut alone) {
            let fork = a.snapshot();
            assert_eq!(fork, b.snapshot());
            assert_eq!(fork, c.snapshot());
        }
    }

    #[test]
    fn no_lanes_or_no_steps_step_nothing() {
        let never = |_: usize, _: &LaneStep| panic!("nothing is stepped");
        let no_act = |_: &[usize], _: Option<&[Vec<f64>]>, _: &mut [Action]| panic!("no tick");
        run_episodes(Vec::<GridWorld>::new(), Vec::new(), 5, Some(true), true, never, no_act);
        let mut envs = slippery(3);
        let actions = vec![Action::Discrete(3); 3];
        run_episodes(envs.iter_mut().collect(), actions, 0, None, true, never, no_act);
        for (mut a, mut b) in envs.into_iter().zip(slippery(3)) {
            assert_eq!(a.snapshot(), b.snapshot(), "a zero-step run leaves the lane alone");
        }
    }

    /// A grid world whose batcher refuses every tick, counting its calls.
    struct Refused(GridWorld, std::sync::Arc<std::sync::atomic::AtomicUsize>);

    impl Environment for Refused {
        fn observation_space(&self) -> Space {
            self.0.observation_space()
        }
        fn action_space(&self) -> Space {
            self.0.action_space()
        }
        fn seed(&mut self, seed: u64) {
            self.0.seed(seed)
        }
        fn reset(&mut self) -> Vec<f64> {
            self.0.reset()
        }
        fn step(&mut self, action: &Action) -> crate::Step {
            self.0.step(action)
        }
        fn lockstep_batcher(&self, _: usize) -> Option<Box<dyn AnyLockstepBatcher>> {
            Some(Box::new(Refusal(self.1.clone())))
        }
    }

    struct Refusal(std::sync::Arc<std::sync::atomic::AtomicUsize>);

    impl AnyLockstepBatcher for Refusal {
        fn step_lockstep(
            &mut self,
            _: &mut dyn EnvLanes,
            _: &[Action],
            _: Option<&mut [Vec<f64>]>,
            _: &mut [LaneStep],
        ) -> bool {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            false
        }
        fn reset_lane(&mut self, _: usize) {
            unreachable!("the runner resets no lane");
        }
        fn retain_lanes(&mut self, _: &[bool]) {
            unreachable!("a refused batcher is dropped, not shrunk");
        }
    }

    #[test]
    fn a_batcher_that_refuses_the_first_tick_leaves_every_tick_to_step_lanes() {
        let calls = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let refused = slippery(5).into_iter().map(|e| Refused(e, calls.clone())).collect();
        let scalar = run_zigzag(slippery(5), 9, Some(false), false);
        assert_eq!(run_zigzag(refused, 9, Some(true), false), scalar);
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 1, "asked once, then dropped");
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
