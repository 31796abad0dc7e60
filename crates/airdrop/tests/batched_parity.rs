//! End-to-end bitwise parity of the batched lockstep fast path.
//!
//! Two `VecEnv<AirdropEnv>`s built identically — one on the batched path
//! (default), one forced scalar — must produce bit-for-bit identical
//! observations, rewards, episode accounting and work across many control
//! intervals, for every RK order, with gusts drawing per-env randomness,
//! and across episode boundaries (auto-reset invalidates the batch
//! stepper's per-lane FSAL cache exactly like the scalar stepper reset).
//!
//! Fingerprints are compared between two in-process runs, never against
//! stored constants: the trajectories route through `libm` sin/cos whose
//! bit patterns are platform-dependent.

use airdrop_sim::{AirdropConfig, AirdropEnv};
use gymrs::vec_env::run_episodes;
use gymrs::{Action, EnvSnapshot, Environment, VecEnv};
use rk_ode::RkOrder;

fn venv(cfg: &AirdropConfig, n: usize, batched: bool) -> VecEnv<AirdropEnv> {
    let envs: Vec<AirdropEnv> = (0..n).map(|_| AirdropEnv::new(cfg.clone())).collect();
    let mut v = VecEnv::new(envs, 37);
    v.set_batched(batched);
    v.reset_all();
    v
}

/// One tick's per-lane results and episode endings, as bits.
fn tick_bits(v: &VecEnv<AirdropEnv>) -> Vec<u64> {
    let tick = v.last_tick();
    let mut fp = Vec::new();
    for s in &tick.steps {
        let flags = u64::from(s.terminated) | u64::from(s.truncated) << 1;
        fp.extend([s.reward.to_bits(), flags, s.work]);
    }
    for (i, ret, len) in &tick.finished {
        fp.extend([*i as u64, ret.to_bits(), *len as u64]);
    }
    fp
}

/// Drive `v` for `ticks` lockstep sweeps with a deterministic steering
/// pattern and fingerprint every bit of observable behavior.
fn fingerprint(v: &mut VecEnv<AirdropEnv>, ticks: usize) -> Vec<u64> {
    let n = v.len();
    let mut fp = Vec::new();
    for tick in 0..ticks {
        let actions: Vec<Action> = (0..n)
            .map(|i| Action::Continuous(vec![((tick * 7 + i * 3) as f64 * 0.21).sin()]))
            .collect();
        v.step_lockstep(&actions);
        fp.extend(tick_bits(v));
        for o in v.last_tick().final_obs.iter().flatten() {
            fp.extend(o.iter().map(|x| x.to_bits()));
        }
        for o in v.observations() {
            fp.extend(o.iter().map(|x| x.to_bits()));
        }
    }
    fp.push(v.total_steps);
    fp.push(v.total_work);
    fp
}

#[test]
fn batched_path_is_bitwise_identical_for_every_order() {
    for order in RkOrder::ALL {
        let cfg = AirdropConfig {
            rk_order: order,
            // Low drops finish episodes within the run, exercising
            // auto-reset and per-lane FSAL invalidation mid-sweep.
            altitude_limits: (20.0, 45.0),
            gusts_enabled: true,
            gust_probability: 0.25,
            gust_strength: 2.0,
            ..AirdropConfig::default()
        };
        let ticks = 120;
        let mut scalar = venv(&cfg, 5, false);
        let mut batched = venv(&cfg, 5, true);
        assert!(!scalar.is_batched());
        assert!(batched.is_batched(), "AirdropEnv must install a batcher");
        let a = fingerprint(&mut scalar, ticks);
        let b = fingerprint(&mut batched, ticks);
        assert_eq!(a.len(), b.len(), "{order}: fingerprint shape diverged");
        assert_eq!(a, b, "{order}: batched path diverged from scalar");
    }
}

#[test]
fn batched_path_matches_scalar_with_constant_wind() {
    let cfg = AirdropConfig {
        wind_enabled: true,
        wind: (1.2, -0.6),
        altitude_limits: (60.0, 90.0),
        ..AirdropConfig::default()
    }
    .eval();
    let mut scalar = venv(&cfg, 3, false);
    let mut batched = venv(&cfg, 3, true);
    assert_eq!(fingerprint(&mut scalar, 200), fingerprint(&mut batched, 200));
}

#[test]
fn single_lane_batch_matches_scalar() {
    // n = 1 exercises the degenerate SoA layout (stride 1).
    let cfg = AirdropConfig { altitude_limits: (25.0, 25.0), ..AirdropConfig::default() };
    let mut scalar = venv(&cfg, 1, false);
    let mut batched = venv(&cfg, 1, true);
    assert_eq!(fingerprint(&mut scalar, 150), fingerprint(&mut batched, 150));
}

/// The steering command of lane `i` on tick `t`; it reads no observation.
fn steer(t: usize, i: usize) -> Action {
    Action::Continuous(vec![((t * 7 + i * 3) as f64 * 0.21).sin()])
}

/// Every lane's steps through [`run_episodes`] (reward, done flags and
/// work, as bits), then every lane's final state and snapshot.
type Episodes = (Vec<Vec<u64>>, Vec<(Vec<u64>, Option<EnvSnapshot>)>);

fn run_episodes_of(cfg: &AirdropConfig, force_batched: bool, observe: bool) -> Episodes {
    let mut envs: Vec<AirdropEnv> = (0..5)
        .map(|i| {
            let mut env = AirdropEnv::new(cfg.clone());
            env.seed(37 + i);
            env.reset();
            env
        })
        .collect();
    let (mut fp, mut t) = (vec![Vec::new(); 5], 0);
    run_episodes(
        envs.iter_mut().collect(),
        (0..5).map(|i| steer(0, i)).collect(),
        150,
        Some(force_batched),
        observe,
        |lane, s| {
            let flags = u64::from(s.terminated) | u64::from(s.truncated) << 1;
            fp[lane].extend([s.reward.to_bits(), flags, s.work]);
        },
        |live, obs, actions| {
            t += 1;
            assert_eq!(obs.map(<[_]>::len), observe.then_some(live.len()));
            for (a, &i) in actions.iter_mut().zip(live) {
                *a = steer(t, i);
            }
        },
    );
    let ends = envs
        .iter_mut()
        .map(|e| (e.state().iter().map(|x| x.to_bits()).collect(), e.snapshot()))
        .collect();
    (fp, ends)
}

#[test]
fn an_open_loop_run_changes_nothing_but_the_observations_it_skips() {
    // gym's runner with and without observations, batched and scalar: a
    // skipped observation must leave rewards, done flags, work, lane
    // state and RNG position alone. Gusts draw from the lane RNG every
    // interval and low drops end the episodes at different ticks inside
    // the run, so a wrong skip or retirement (a lost draw, a stale FSAL
    // cache, a lane stepped past its end) shows as flipped bits.
    for order in RkOrder::ALL {
        let cfg = AirdropConfig {
            rk_order: order,
            altitude_limits: (20.0, 45.0),
            gusts_enabled: true,
            gust_probability: 0.25,
            gust_strength: 2.0,
            ..AirdropConfig::default()
        };
        let scalar = run_episodes_of(&cfg, false, true);
        for (batched, observe) in [(false, false), (true, true), (true, false)] {
            let run = run_episodes_of(&cfg, batched, observe);
            assert_eq!(run, scalar, "{order}: batched {batched}, observed {observe}");
        }
        // Every episode ended (its last step's flags are set), not all at once.
        let lens: Vec<usize> = scalar.0.iter().map(|fp| fp.len() / 3).collect();
        assert!(scalar.0.iter().all(|fp| fp[fp.len() - 2] != 0), "{order}: {lens:?}");
        assert!(lens.iter().any(|&len| len != lens[0]), "{order}: {lens:?}");
    }
}

#[test]
fn retired_lanes_leave_the_batch_and_the_rest_step_on_bitwise() {
    // Five episodes from one reset each; a lane retires when its episode
    // ends, and lane 2 is retired early, while every cache is warm. Each
    // kept lane must step as its own scalar environment does.
    use gymrs::vec_env::LaneStep;
    for order in RkOrder::ALL {
        let cfg = AirdropConfig {
            rk_order: order,
            altitude_limits: (20.0, 60.0),
            gusts_enabled: true,
            gust_probability: 0.25,
            gust_strength: 2.0,
            ..AirdropConfig::default()
        };
        let fresh = |i: u64| {
            let mut env = AirdropEnv::new(cfg.clone());
            env.seed(37 + i);
            let obs = env.reset();
            (env, obs)
        };
        let mut scalar: Vec<Vec<u64>> = Vec::new();
        for i in 0..5 {
            let (mut env, mut obs) = fresh(i);
            let mut fp = Vec::new();
            for tick in 0.. {
                let s = env.step(&Action::Continuous(vec![(obs[1] * 0.7 + 0.1 * i as f64).sin()]));
                let flags = u64::from(s.terminated) | u64::from(s.truncated) << 1;
                fp.extend([s.reward.to_bits(), flags, env.last_step_work()]);
                fp.extend(s.obs.iter().map(|x| x.to_bits()));
                if s.done() || (i == 2 && tick == 3) {
                    break;
                }
                obs = s.obs;
            }
            scalar.push(fp);
        }

        let (mut envs, mut obs): (Vec<AirdropEnv>, Vec<Vec<f64>>) = (0..5).map(fresh).unzip();
        let mut ids: Vec<u64> = (0..5).collect();
        let mut batched = vec![Vec::new(); 5];
        let mut batcher = envs[0].lockstep_batcher(5).expect("airdrop batches");
        for tick in 0.. {
            if envs.is_empty() {
                break;
            }
            let actions: Vec<Action> = ids
                .iter()
                .zip(&obs)
                .map(|(&i, o)| Action::Continuous(vec![(o[1] * 0.7 + 0.1 * i as f64).sin()]))
                .collect();
            let mut steps = vec![LaneStep::default(); envs.len()];
            assert!(batcher.step_lockstep(&mut envs, &actions, Some(&mut obs), &mut steps));
            let mut keep = Vec::new();
            for (j, s) in steps.iter().enumerate() {
                let flags = u64::from(s.terminated) | u64::from(s.truncated) << 1;
                let fp = &mut batched[ids[j] as usize];
                fp.extend([s.reward.to_bits(), flags, s.work]);
                fp.extend(obs[j].iter().map(|x| x.to_bits()));
                keep.push(!(s.done() || (ids[j] == 2 && tick == 3)));
            }
            let mut flags = keep.iter();
            envs.retain(|_| *flags.next().unwrap());
            let mut flags = keep.iter();
            obs.retain(|_| *flags.next().unwrap());
            let mut flags = keep.iter();
            ids.retain(|_| *flags.next().unwrap());
            if !envs.is_empty() {
                batcher.retain_lanes(&keep);
            }
        }
        assert_eq!(batched, scalar, "{order}: a retiring batch diverged from scalar");
    }
}
