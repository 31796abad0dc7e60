//! The workspace's core invariants, each a seeded sweep.

use rl_decision_tools::decision::prelude::*;
use rl_decision_tools::decision::rank::pareto::{dominates, non_dominated_ranks};
use rl_decision_tools::rk_ode::{integrate_fixed, FnSystem, RkOrder};
use rl_decision_tools::rl_algos::gae::gae;
use rl_decision_tools::tinynn::ops;
use testkit::{sweep, Gen};

const SEED: u64 = 0x1417;

/// `len` points `(reward, time_min)` drawn from the two ranges.
fn points(
    g: &mut Gen,
    len: std::ops::Range<usize>,
    reward: std::ops::Range<f64>,
    time: std::ops::Range<f64>,
) -> Vec<(f64, f64)> {
    g.vec(len, |g| (g.f64_in(reward.clone()), g.f64_in(time.clone())))
}

fn trial(i: usize, reward: f64, time: f64) -> Trial {
    Trial::complete(
        i,
        Configuration::new().with("i", ParamValue::Int(i as i64)),
        MetricValues::new().with("reward", reward).with("time_min", time),
    )
}

fn metrics() -> Vec<MetricDef> {
    vec![MetricDef::maximize("reward"), MetricDef::minimize("time_min")]
}

/// No front member is dominated; every non-member is dominated by a
/// member.
#[test]
fn pareto_front_invariants() {
    sweep(64, SEED, |g| {
        let points = points(g, 1..40, -1.0..1.0, 1.0..100.0);
        let trials: Vec<Trial> =
            points.iter().enumerate().map(|(i, &(r, t))| trial(i, r, t)).collect();
        let m = metrics();
        let front = ParetoFront::compute(&trials, &m);
        assert!(!front.is_empty());
        for &i in front.indices() {
            for (j, other) in trials.iter().enumerate() {
                if i != j {
                    assert!(!dominates(other, &trials[i], &m));
                }
            }
        }
        for (j, t) in trials.iter().enumerate() {
            if !front.contains(j) {
                assert!(front.indices().iter().any(|&i| dominates(&trials[i], t, &m)));
            }
        }
    });
}

/// Non-dominated sorting produces ranks consistent with dominance:
/// a dominator always has a strictly lower rank.
#[test]
fn nds_ranks_respect_dominance() {
    sweep(64, SEED, |g| {
        let points = points(g, 2..30, -1.0..1.0, 1.0..100.0);
        let trials: Vec<Trial> =
            points.iter().enumerate().map(|(i, &(r, t))| trial(i, r, t)).collect();
        let m = metrics();
        let ranks = non_dominated_ranks(&trials, &m);
        for i in 0..trials.len() {
            for j in 0..trials.len() {
                if i != j && dominates(&trials[i], &trials[j], &m) {
                    assert!(ranks[i].unwrap() < ranks[j].unwrap());
                }
            }
        }
    });
}

/// GAE with λ=1, no dones: advantages + values telescope to the
/// discounted reward sum plus the bootstrap tail.
#[test]
fn gae_lambda_one_telescopes() {
    sweep(64, SEED, |g| {
        let rewards = g.vec(1..20, |g| g.f64_in(-1.0..1.0));
        let gamma = g.f64_in(0.5..0.999);
        let n = rewards.len();
        let values: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut next_values: Vec<f64> = values[1..].to_vec();
        next_values.push(0.123);
        let dones = vec![false; n];
        let (adv, rets) = gae(&rewards, &values, &dones, &next_values, gamma, 1.0);
        // ret[0] must equal the Monte-Carlo return bootstrapped at the tail.
        let mut mc = 0.0;
        for (k, &r) in rewards.iter().enumerate() {
            mc += gamma.powi(k as i32) * r;
        }
        mc += gamma.powi(n as i32) * next_values[n - 1];
        assert!((rets[0] - mc).abs() < 1e-9, "ret {} vs mc {}", rets[0], mc);
        assert!((adv[0] - (mc - values[0])).abs() < 1e-9);
    });
}

/// Softmax + log-softmax consistency for arbitrary logits.
#[test]
fn softmax_consistency() {
    sweep(64, SEED, |g| {
        let logits = g.vec(2..8, |g| g.f64_in(-30.0..30.0));
        let p = ops::softmax(&logits);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        let lp = ops::log_softmax(&logits);
        for (a, b) in p.iter().zip(&lp) {
            assert!((a.ln() - b).abs() < 1e-9);
        }
        let h = ops::categorical_entropy(&p);
        assert!(h >= -1e-12 && h <= (logits.len() as f64).ln() + 1e-9);
    });
}

/// Space sampling always produces contained configurations, and grids
/// enumerate exactly the cardinality.
#[test]
fn space_sample_contained() {
    sweep(64, SEED, |g| {
        let (seed, k) = (g.int_in(0u64..1000), g.int_in(2usize..5));
        use rand::SeedableRng;
        let space = ParamSpace::builder()
            .categorical_int("a", 0..k as i64)
            .int("b", -3, 3)
            .float("x", 0.0, 2.0)
            .build();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = space.sample(&mut rng);
        assert!(space.contains(&cfg));
    });
}

/// Higher RK order never yields larger error on a smooth reference
/// problem (fixed step, same cost budget not required).
#[test]
fn rk_order_error_monotonicity() {
    sweep(64, SEED, |g| {
        let lambda = g.f64_in(0.2..2.0);
        let sys = FnSystem::new(1, move |_t, y: &[f64], dy: &mut [f64]| dy[0] = -lambda * y[0]);
        let exact = (-lambda * 1.0f64).exp();
        let mut errs = Vec::new();
        for order in RkOrder::ALL {
            let mut y = vec![1.0];
            integrate_fixed(order.factory().as_ref(), &sys, &mut y, 0.0, 1.0, 0.2);
            errs.push((y[0] - exact).abs());
        }
        assert!(errs[0] >= errs[1] * 0.99, "order 3 err {} vs order 5 err {}", errs[0], errs[1]);
        assert!(errs[1] >= errs[2] * 0.99, "order 5 err {} vs order 8 err {}", errs[1], errs[2]);
    });
}

/// Cluster compute-time monotonicity: more work never takes less
/// time; more streams never take more time.
#[test]
fn cluster_monotonicity() {
    use rl_decision_tools::cluster_sim::{ClusterSession, ClusterSpec};
    let check = |units: f64, streams: usize| {
        let s = ClusterSession::new(ClusterSpec::paper_testbed(1));
        let t1 = s.compute_duration(units, streams);
        let t2 = s.compute_duration(units * 2.0, streams);
        assert!(t2 >= t1);
        let t3 = s.compute_duration(units, streams + 1);
        // Stream scaling helps only up to the core count and divisibility:
        // going from 4 to 5 streams on 4 cores packs 2 streams onto one
        // core (ratio (2/5)/(1/4) = 1.6), the worst uneven-packing case.
        assert!(t3 <= t1 * 1.61, "t3 {} vs t1 {}", t3, t1);
    };
    // That 4 → 5 packing case itself, at the smallest unit of work.
    check(1.0, 4);
    sweep(64, SEED, |g| check(g.f64_in(1.0..1e6), g.int_in(1usize..8)));
}

/// Hypervolume is monotone under adding points.
#[test]
fn hypervolume_monotone() {
    sweep(64, SEED, |g| {
        let points = points(g, 1..20, 0.1..1.0, 1.0..99.0);
        use rl_decision_tools::decision::rank::Hypervolume;
        let m = metrics();
        let all: Vec<Trial> =
            points.iter().enumerate().map(|(i, &(r, t))| trial(i, r, t)).collect();
        let half: Vec<Trial> = all[..all.len() / 2].to_vec();
        let measure = Hypervolume::new(m[0].clone(), m[1].clone(), (0.0, 100.0));
        let hv_all = measure.value(&all);
        let hv_half = measure.value(&half);
        assert!(hv_all + 1e-12 >= hv_half);
    });
}
