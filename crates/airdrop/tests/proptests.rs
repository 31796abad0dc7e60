//! The airdrop simulator's hard invariants, each a seeded sweep.

use airdrop_sim::{ActionMode, AirdropConfig, AirdropEnv};
use gymrs::{Action, Environment};
use rk_ode::RkOrder;
use testkit::sweep;

const SEED: u64 = 0xA12D;
const ORDERS: [RkOrder; 3] = [RkOrder::Three, RkOrder::Five, RkOrder::Eight];

/// Every episode ends (landing or truncation) under arbitrary
/// constant steering, at every RK order, for any seed.
#[test]
fn episodes_always_end() {
    sweep(24, SEED, |g| {
        let (seed, cmd) = (g.int_in(0u64..500), g.f64_in(-1.0..1.0));
        let order = *g.pick(&ORDERS);
        let cfg = AirdropConfig {
            rk_order: order,
            altitude_limits: (20.0, 80.0),
            ..AirdropConfig::default()
        };
        let mut env = AirdropEnv::new(cfg);
        env.seed(seed);
        env.reset();
        let mut steps = 0u32;
        loop {
            let s = env.step(&Action::Continuous(vec![cmd]));
            steps += 1;
            assert!(steps < 5_000, "episode must end");
            if s.done() {
                break;
            }
        }
    });
}

/// Observations stay finite and correctly sized throughout a gusty
/// episode with erratic steering.
#[test]
fn observations_stay_finite() {
    sweep(24, SEED, |g| {
        let seed = g.int_in(0u64..200);
        let cfg = AirdropConfig {
            gusts_enabled: true,
            gust_probability: 0.4,
            altitude_limits: (20.0, 60.0),
            ..AirdropConfig::default()
        };
        let mut env = AirdropEnv::new(cfg);
        env.seed(seed);
        let obs = env.reset();
        assert_eq!(obs.len(), AirdropEnv::OBS_DIM);
        let mut k = 0u32;
        loop {
            let cmd = ((seed + k as u64) as f64 * 0.77).sin();
            let s = env.step(&Action::Continuous(vec![cmd]));
            assert_eq!(s.obs.len(), AirdropEnv::OBS_DIM);
            assert!(s.obs.iter().all(|v| v.is_finite()), "obs must be finite");
            assert!(s.reward.is_finite());
            k += 1;
            if s.done() {
                break;
            }
        }
    });
}

/// Terminal reward equals -distance/scale exactly (eval mode).
#[test]
fn terminal_reward_matches_distance() {
    sweep(24, SEED, |g| {
        let (seed, scale) = (g.int_in(0u64..200), g.f64_in(10.0..500.0));
        let cfg = AirdropConfig {
            altitude_limits: (20.0, 50.0),
            reward_scale: scale,
            ..AirdropConfig::default()
        }
        .eval();
        let mut env = AirdropEnv::new(cfg);
        env.seed(seed);
        env.reset();
        loop {
            let s = env.step(&Action::Continuous(vec![0.3]));
            if s.done() {
                assert!(s.terminated);
                let want = -env.distance_to_target() / scale;
                assert!((s.reward - want).abs() < 1e-9);
                break;
            }
            assert_eq!(s.reward, 0.0, "eval mode emits terminal reward only");
        }
    });
}

/// Work accounting is strictly positive and monotone over an episode.
#[test]
fn work_accounting_accumulates() {
    sweep(24, SEED, |g| {
        let (seed, order) = (g.int_in(0u64..100), *g.pick(&ORDERS));
        let cfg = AirdropConfig {
            rk_order: order,
            altitude_limits: (20.0, 40.0),
            ..AirdropConfig::default()
        };
        let mut env = AirdropEnv::new(cfg);
        env.seed(seed);
        env.reset();
        let mut last_total = 0u64;
        loop {
            let s = env.step(&Action::Continuous(vec![0.0]));
            assert!(env.last_step_work() > 0);
            assert!(env.total_work > last_total);
            last_total = env.total_work;
            if s.done() {
                break;
            }
        }
    });
}

/// Discrete and continuous action modes agree when the discrete
/// action maps to the same command.
#[test]
fn discrete_matches_continuous_extremes() {
    sweep(24, SEED, |g| {
        let seed = g.int_in(0u64..100);
        let base = AirdropConfig { altitude_limits: (20.0, 40.0), ..AirdropConfig::default() };
        let run_cont = |cmd: f64| {
            let mut env = AirdropEnv::new(base.clone());
            env.seed(seed);
            env.reset();
            loop {
                let s = env.step(&Action::Continuous(vec![cmd]));
                if s.done() {
                    return (env.state()[0], env.state()[1]);
                }
            }
        };
        let run_disc = |a: usize| {
            let cfg = AirdropConfig { action_mode: ActionMode::Discrete3, ..base.clone() };
            let mut env = AirdropEnv::new(cfg);
            env.seed(seed);
            env.reset();
            loop {
                let s = env.step(&Action::Discrete(a));
                if s.done() {
                    return (env.state()[0], env.state()[1]);
                }
            }
        };
        // Discrete 0 => command -1, 1 => 0, 2 => +1.
        for (a, cmd) in [(0usize, -1.0), (1, 0.0), (2, 1.0)] {
            let (xd, yd) = run_disc(a);
            let (xc, yc) = run_cont(cmd);
            assert!((xd - xc).abs() < 1e-9 && (yd - yc).abs() < 1e-9);
        }
    });
}
