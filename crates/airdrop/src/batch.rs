//! Batched lockstep integration of homogeneous [`AirdropEnv`] sets.
//!
//! The scalar path integrates each sub-environment's control interval on
//! its own — `n` dynamic dispatches and `n` passes over the (tiny)
//! 9-dimensional state per substep. `AirdropBatch` instead advances all
//! `n` lanes through one [`rk_ode::AnyBatchStepper`] call per substep on
//! an SoA state block (`y[d * n + e]`), evaluating the canopy dynamics
//! for every lane inside one monomorphized loop.
//!
//! Everything *around* the integration stays on the environment itself so
//! the batched path consumes exactly the randomness and bookkeeping of
//! the scalar one: [`AirdropEnv`] splits its `step` into
//! `interval_begin` (command decode + wind/RNG draw), the integration,
//! and `interval_finish` (work, reward, termination). The batch stepper
//! is bitwise-identical to `n` scalar steppers by construction (see
//! `rk_ode::batch`), the per-lane touchdown interpolation repeats the
//! scalar arithmetic verbatim, and lanes that land mid-interval are
//! frozen by the active mask exactly where the scalar loop `break`s —
//! so the whole fast path is bitwise-identical to the scalar sweep.

use crate::config::AirdropConfig;
use crate::dynamics::{ParafoilParams, STATE_DIM};
use crate::env::AirdropEnv;
use gymrs::vec_env::{AnyLockstepBatcher, EnvLanes, LaneStep};
use gymrs::Action;
use rk_ode::{AnyBatchStepper, BatchSystem, Work};
use simd_kernels::Isa;

/// SoA right-hand side of the parafoil model: per-lane command and wind
/// held constant over the interval (zero-order hold). Each lane runs the
/// exact per-lane kernel of [`crate::dynamics::ParafoilDynamics`]
/// (`dynamics::deriv_lane`), so parity with the scalar path holds by
/// construction; the SoA rows are contiguous in the lane index and the
/// kernel is branch-free, so the loop vectorizes.
pub struct BatchedAirdropDynamics {
    params: ParafoilParams,
    commands: Vec<f64>,
    wind_x: Vec<f64>,
    wind_y: Vec<f64>,
}

impl BatchedAirdropDynamics {
    /// A batch of `n` lanes with zeroed commands and calm wind.
    pub fn new(params: ParafoilParams, n: usize) -> Self {
        Self { params, commands: vec![0.0; n], wind_x: vec![0.0; n], wind_y: vec![0.0; n] }
    }

    /// Set lane `e`'s held command and wind for the coming interval.
    pub fn set_lane(&mut self, e: usize, command: f64, wind: (f64, f64)) {
        self.commands[e] = command;
        self.wind_x[e] = wind.0;
        self.wind_y[e] = wind.1;
    }
}

simd_kernels::tiered! {
    /// The derivative of every lane: SoA `y`/`dydt` (`[d * n + e]`), one
    /// held command and wind per lane.
    fn deriv_lanes(
        isa,
        p: &ParafoilParams,
        commands: &[f64],
        wind_x: &[f64],
        wind_y: &[f64],
        y: &[f64],
        dydt: &mut [f64],
    ) {
        let n = commands.len();
        // Length facts let the compiler drop every bounds check in the
        // lane loop, which is what allows it to vectorize.
        assert_eq!(y.len(), STATE_DIM * n);
        assert_eq!(dydt.len(), STATE_DIM * n);
        assert_eq!(wind_x.len(), n);
        assert_eq!(wind_y.len(), n);
        // Hoisted out of the lane loop: the lanes share parameters, so
        // three divides replace 5·n and the loop body is division-free.
        let inv_taus = p.inv_taus();
        for e in 0..n {
            let (vx, vy, vz) = (y[3 * n + e], y[4 * n + e], y[5 * n + e]);
            let (psi, psi_dot, delta) = (y[6 * n + e], y[7 * n + e], y[8 * n + e]);
            let (ax, ay, az, alpha, ddelta) = crate::dynamics::deriv_lane(
                p,
                inv_taus,
                commands[e],
                (wind_x[e], wind_y[e]),
                (vx, vy, vz),
                (psi, psi_dot, delta),
            );

            // Position.
            dydt[e] = vx;
            dydt[n + e] = vy;
            dydt[2 * n + e] = vz;
            // Velocity relaxation.
            dydt[3 * n + e] = ax;
            dydt[4 * n + e] = ay;
            dydt[5 * n + e] = az;
            // Heading dynamics.
            dydt[6 * n + e] = psi_dot;
            dydt[7 * n + e] = alpha;
            // Actuator lag.
            dydt[8 * n + e] = ddelta;
        }
    }
}

impl BatchSystem for BatchedAirdropDynamics {
    fn dim(&self) -> usize {
        STATE_DIM
    }

    fn n_lanes(&self) -> usize {
        self.commands.len()
    }

    fn deriv_batch(&self, _t: f64, y: &[f64], dydt: &mut [f64]) {
        // At most 256 bits, on both AVX tiers: the `sin_cos` quadrant
        // fix-up is 64-bit integer work that prices 512-bit vectors above
        // 256-bit ones on current Xeons, so the AVX-512 stepper's stage
        // kernels run at 512 bits and this derivative at 256. Every tier
        // produces identical bits.
        let isa = Isa::cached().min(Isa::Avx2);
        deriv_lanes(isa, &self.params, &self.commands, &self.wind_x, &self.wind_y, y, dydt);
    }
}

/// [`AnyLockstepBatcher`] for `n` [`AirdropEnv`]s sharing one
/// configuration. Owns the persistent batch stepper (per-lane FSAL caches
/// survive across control intervals, as each env's scalar stepper would)
/// and all integration buffers — steady-state ticks allocate nothing.
pub(crate) struct AirdropBatch {
    config: AirdropConfig,
    n: usize,
    stepper: AnyBatchStepper,
    dyns: BatchedAirdropDynamics,
    /// SoA state, `y[d * n + e]`; 64-byte aligned to keep the stepper's
    /// vector loads over it split-free.
    y: simd_kernels::AlignedF64,
    /// Pre-substep `x, y, z` rows for touchdown interpolation.
    prev_xyz: Vec<f64>,
    active: Vec<bool>,
    landed: Vec<bool>,
    work: Vec<Work>,
    /// Lanes verified to be `AirdropEnv`s with this batcher's config.
    verified: bool,
}

impl AirdropBatch {
    /// Batcher for `n` environments configured like `config`.
    pub(crate) fn new(config: AirdropConfig, n: usize) -> Self {
        // All AirdropEnvs share default physical parameters today; the
        // verification pass copies lane 0's params so a future
        // configurable-params change degrades loudly (state divergence in
        // the parity tests), not silently.
        let params = ParafoilParams::default();
        Self {
            stepper: config.rk_order.batch_stepper(STATE_DIM, n),
            dyns: BatchedAirdropDynamics::new(params, n),
            config,
            n,
            y: simd_kernels::AlignedF64::zeroed(STATE_DIM * n),
            prev_xyz: vec![0.0; 3 * n],
            active: vec![false; n],
            landed: vec![false; n],
            work: vec![Work::default(); n],
            verified: false,
        }
    }

    /// Downcast lane `i`; only infallible after verification.
    fn lane(lanes: &mut dyn EnvLanes, i: usize) -> &mut AirdropEnv {
        lanes
            .lane(i)
            .and_then(|any| any.downcast_mut::<AirdropEnv>())
            .expect("verified lane must be an AirdropEnv")
    }
}

impl AnyLockstepBatcher for AirdropBatch {
    fn step_lockstep(
        &mut self,
        lanes: &mut dyn EnvLanes,
        actions: &[Action],
        mut obs: Option<&mut [Vec<f64>]>,
        steps: &mut [LaneStep],
    ) -> bool {
        let n = self.n;
        let obs_len = obs.as_ref().map_or(n, |o| o.len());
        if lanes.len() != n || actions.len() != n || obs_len != n || steps.len() != n {
            return false;
        }
        if !self.verified {
            for i in 0..n {
                let Some(any) = lanes.lane(i) else { return false };
                let Some(env) = any.downcast_mut::<AirdropEnv>() else { return false };
                if env.config() != &self.config {
                    return false;
                }
                if i == 0 {
                    self.dyns.params = *env.params();
                }
            }
            self.verified = true;
        }

        // Begin every lane's interval (command + wind draw on the env's
        // own RNG) and gather states into the SoA block.
        for (i, action) in actions.iter().enumerate() {
            let env = Self::lane(lanes, i);
            let (command, wind) = env.interval_begin(action);
            self.dyns.set_lane(i, command, wind);
            let state = env.state();
            for (d, &s) in state.iter().enumerate() {
                self.y[d * n + i] = s;
            }
            self.active[i] = true;
            self.landed[i] = false;
            self.work[i] = Work::default();
        }

        // The substep loop of AirdropEnv::step, across all lanes at once.
        // Identical `t`/`step` sequence (config equality guarantees shared
        // dt and h); a lane that touches down is interpolated with the
        // scalar arithmetic and frozen — the scalar loop `break`s there.
        let dt = self.config.control_dt;
        let h = self.config.substep;
        let mut t = 0.0;
        while t < dt - 1e-12 && self.active.iter().any(|&a| a) {
            let step = h.min(dt - t);
            self.prev_xyz.copy_from_slice(&self.y[..3 * n]);
            self.stepper.step(&self.dyns, t, step, &mut self.y, &self.active, &mut self.work);
            t += step;
            for e in 0..n {
                if self.active[e] && self.y[2 * n + e] <= 0.0 {
                    let z_prev = self.prev_xyz[2 * n + e];
                    let z = self.y[2 * n + e];
                    let f = if (z_prev - z).abs() > 1e-12 { z_prev / (z_prev - z) } else { 1.0 };
                    let x_prev = self.prev_xyz[e];
                    let y_prev = self.prev_xyz[n + e];
                    self.y[e] = x_prev + f * (self.y[e] - x_prev);
                    self.y[n + e] = y_prev + f * (self.y[n + e] - y_prev);
                    self.y[2 * n + e] = 0.0;
                    self.landed[e] = true;
                    self.active[e] = false;
                }
            }
        }

        // Scatter states back and close every lane's interval. The
        // observation (atan2, sin/cos, two square roots per lane) is a
        // view of the state computed only for a caller that reads it.
        for i in 0..n {
            let env = Self::lane(lanes, i);
            let state = env.state_mut();
            for (d, s) in state.iter_mut().enumerate() {
                *s = self.y[d * n + i];
            }
            let (reward, terminated, truncated) =
                env.interval_finish(self.landed[i], self.work[i].fn_evals);
            steps[i] = LaneStep { reward, terminated, truncated, work: self.work[i].fn_evals };
            if let Some(obs) = obs.as_deref_mut() {
                if obs[i].len() != AirdropEnv::OBS_DIM {
                    obs[i].resize(AirdropEnv::OBS_DIM, 0.0);
                }
                env.write_observation(&mut obs[i]);
            }
        }
        true
    }

    fn reset_lane(&mut self, lane: usize) {
        self.stepper.reset_lane(lane);
    }

    /// Only the stepper's FSAL caches outlive a tick; every other buffer
    /// is refilled from the lanes, so it is just resized.
    fn retain_lanes(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.n, "one flag per lane");
        self.stepper.retain_lanes(keep);
        let n = keep.iter().filter(|&&k| k).count();
        self.n = n;
        self.dyns = BatchedAirdropDynamics::new(self.dyns.params, n);
        self.y = simd_kernels::AlignedF64::zeroed(STATE_DIM * n);
        self.prev_xyz = vec![0.0; 3 * n];
        self.active = vec![false; n];
        self.landed = vec![false; n];
        self.work = vec![Work::default(); n];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::{initial_state, ParafoilDynamics};
    use rk_ode::System;

    #[test]
    fn batched_dynamics_match_scalar_bitwise() {
        let params = ParafoilParams::default();
        let n = 3;
        let mut batch = BatchedAirdropDynamics::new(params, n);
        let lanes = [
            (0.4, (1.0, -0.5), initial_state(10.0, -5.0, 120.0, 0.3, &params)),
            (-0.9, (0.0, 0.0), initial_state(-40.0, 12.0, 300.0, 2.1, &params)),
            (1.5, (-2.0, 0.7), initial_state(0.0, 0.0, 50.0, -1.0, &params)),
        ];
        let mut y = vec![0.0; STATE_DIM * n];
        for (e, (command, wind, state)) in lanes.iter().enumerate() {
            batch.set_lane(e, *command, *wind);
            for d in 0..STATE_DIM {
                y[d * n + e] = state[d];
            }
        }
        let mut dydt = vec![0.0; STATE_DIM * n];
        batch.deriv_batch(0.0, &y, &mut dydt);

        for (e, (command, wind, state)) in lanes.iter().enumerate() {
            let scalar = ParafoilDynamics { params, command: *command, wind: *wind };
            let mut expect = [0.0; STATE_DIM];
            scalar.deriv(0.0, state, &mut expect);
            for d in 0..STATE_DIM {
                assert_eq!(
                    dydt[d * n + e].to_bits(),
                    expect[d].to_bits(),
                    "lane {e} component {d}"
                );
            }
        }
    }

    #[test]
    fn deriv_lanes_returns_the_scalar_bits_at_every_tier() {
        // Every tier this CPU runs, in one process: the AVX-512 build
        // included, which `deriv_batch` never calls.
        let params = ParafoilParams::default();
        testkit::sweep(24, 0xDE21, |g| {
            let n = g.int_in(1..40usize);
            let commands = g.f64s(n, -1.5..1.5);
            let (wind_x, wind_y) = (g.f64s(n, -6.0..6.0), g.f64s(n, -6.0..6.0));
            // Rows: position, velocity, heading (many sin/cos quadrants),
            // heading rate, deflection.
            let ranges = [500.0, 500.0, 500.0, 20.0, 20.0, 20.0, 40.0, 3.0, 1.0];
            let y: Vec<f64> = ranges.iter().flat_map(|&r| g.f64s(n, -r..r)).collect();
            let mut expect = vec![0.0; STATE_DIM * n];
            deriv_lanes(Isa::Scalar, &params, &commands, &wind_x, &wind_y, &y, &mut expect);
            for isa in Isa::ALL.into_iter().filter(|isa| isa.available()) {
                let mut got = vec![f64::NAN; STATE_DIM * n];
                deriv_lanes(isa, &params, &commands, &wind_x, &wind_y, &y, &mut got);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&expect), "{isa} at {n} lanes");
            }
        });
    }

    #[test]
    fn batcher_rejects_mismatched_config() {
        use gymrs::Environment;
        let mut cfg = AirdropConfig::fast_test();
        let mut envs: Vec<AirdropEnv> = (0..2).map(|_| AirdropEnv::new(cfg.clone())).collect();
        for (i, e) in envs.iter_mut().enumerate() {
            e.seed(i as u64);
            e.reset();
        }
        cfg.substep /= 2.0;
        let mut batch = AirdropBatch::new(cfg, 2);
        let actions = vec![Action::Continuous(vec![0.0]); 2];
        let mut obs = vec![vec![0.0; AirdropEnv::OBS_DIM]; 2];
        let mut steps = vec![LaneStep::default(); 2];
        assert!(!batch.step_lockstep(&mut envs, &actions, Some(&mut obs), &mut steps));
    }

    #[test]
    fn a_refused_batcher_leaves_the_books_of_a_scalar_twin() {
        // Lane 2 integrates with half the substep of the others, so the
        // batcher `VecEnv` installs from lane 0 refuses the set on the
        // first tick; from then on the `VecEnv` ticks like a twin built
        // scalar. `{:?}` prints every float in its shortest round-trip
        // form, so equal text is equal bits.
        let cfg = AirdropConfig {
            altitude_limits: (20.0, 45.0),
            gusts_enabled: true,
            gust_probability: 0.25,
            gust_strength: 2.0,
            ..AirdropConfig::default()
        };
        let twins = [true, false].map(|batched| {
            let envs: Vec<AirdropEnv> = (0..4)
                .map(|i| {
                    let substep = if i == 2 { cfg.substep / 2.0 } else { cfg.substep };
                    AirdropEnv::new(AirdropConfig { substep, ..cfg.clone() })
                })
                .collect();
            let mut v = gymrs::VecEnv::new(envs, 37);
            v.set_batched(batched);
            v.reset_all();
            v
        });
        let [mut refused, mut scalar] = twins;
        assert!(refused.is_batched());
        let mut ended = 0;
        for tick in 0..120 {
            let actions: Vec<Action> = (0..4)
                .map(|i| Action::Continuous(vec![((tick * 7 + i * 3) as f64 * 0.21).sin()]))
                .collect();
            for v in [&mut refused, &mut scalar] {
                v.step_lockstep(&actions);
            }
            assert!(!refused.is_batched());
            let text = |v: &gymrs::VecEnv<AirdropEnv>| format!("{:?}", v.last_tick());
            assert_eq!(text(&refused), text(&scalar), "tick {tick}");
            ended += refused.last_tick().finished.len();
        }
        assert!(ended > 0, "episodes end inside the run");
        let totals = |v: &gymrs::VecEnv<AirdropEnv>| (v.total_steps, v.total_work);
        assert_eq!(totals(&refused), totals(&scalar));
    }

    #[test]
    fn the_runner_drops_a_refused_batcher_and_steps_like_a_scalar_one() {
        use gymrs::Environment;
        // The same mixed lanes through gym's runner: forced batched, the
        // batcher refuses the first tick, and the run — observed or
        // open-loop — leaves every lane's steps, state and RNG position
        // where a run that never had a batcher leaves them.
        let cfg = AirdropConfig {
            altitude_limits: (20.0, 45.0),
            gusts_enabled: true,
            gust_probability: 0.25,
            gust_strength: 2.0,
            ..AirdropConfig::default()
        };
        let run = |batched: bool, observe: bool| {
            let mut envs: Vec<AirdropEnv> = (0..4)
                .map(|i| {
                    let substep = if i == 2 { cfg.substep / 2.0 } else { cfg.substep };
                    let mut env = AirdropEnv::new(AirdropConfig { substep, ..cfg.clone() });
                    env.seed(37 + i);
                    env.reset();
                    env
                })
                .collect();
            let steer = |t: usize, i: usize| {
                Action::Continuous(vec![((t * 7 + i * 3) as f64 * 0.21).sin()])
            };
            let (mut log, mut t) = (vec![String::new(); 4], 0);
            gymrs::vec_env::run_episodes(
                envs.iter_mut().collect(),
                (0..4).map(|i| steer(0, i)).collect(),
                200,
                Some(batched),
                observe,
                |lane, step| log[lane] += &format!("{step:?}"),
                |live, _, actions| {
                    t += 1;
                    for (a, &i) in actions.iter_mut().zip(live) {
                        *a = steer(t, i);
                    }
                },
            );
            let ends: Vec<_> =
                envs.iter_mut().map(|e| (format!("{:?}", e.state()), e.snapshot())).collect();
            (log, ends)
        };
        let scalar = run(false, true);
        assert!(scalar.0.iter().all(|log| log.contains("terminated: true")));
        assert_eq!(run(true, true), scalar);
        assert_eq!(run(true, false), scalar);
    }
}
