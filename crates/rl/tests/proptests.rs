//! Properties of the batched policy-evaluation path, each a seeded sweep.
//!
//! The batched kernels in `tinynn` are row-deterministic — a row of a
//! batched product is bitwise identical to the same row multiplied on
//! its own — so `act_batch`/`value_batch` must agree with their per-row
//! counterparts to machine precision regardless of batch size, policy
//! head, or observation contents.

use gymrs::{Action, Space};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_algos::policy::ActorCritic;
use testkit::{sweep, Gen};
use tinynn::Matrix;

const SEED: u64 = 0xAC7;

/// `1..=max_batch` observation rows of 2–4 features in `[-5, 5)`.
fn obs_batch(g: &mut Gen, max_batch: usize) -> Matrix {
    let (batch, dim) = (g.int_in(1..max_batch + 1), g.int_in(2usize..5));
    Matrix::from_vec(batch, dim, g.f64s(batch * dim, -5.0..5.0))
}

fn actions_match(a: &Action, b: &Action, tol: f64) -> bool {
    match (a, b) {
        (Action::Discrete(x), Action::Discrete(y)) => x == y,
        (Action::Continuous(x), Action::Continuous(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(u, v)| (u - v).abs() < tol)
        }
        _ => false,
    }
}

/// Discrete head: `act_batch` with one rng stream reproduces per-row
/// `act` with an identically seeded stream to 1e-12 (the same draws
/// happen in the same order; values/log-probs are deterministic).
#[test]
fn act_batch_matches_per_row_act_discrete() {
    sweep(32, SEED, |g| {
        let obs = obs_batch(g, 8);
        let (policy_seed, act_seed) = (g.int_in(0u64..1000), g.int_in(0u64..1000));
        let dim = obs.cols();
        let policy = ActorCritic::new(
            dim,
            &Space::Discrete(3),
            &[8],
            &mut StdRng::seed_from_u64(policy_seed),
        );
        let batched = policy.act_batch(&obs, &mut StdRng::seed_from_u64(act_seed));
        let mut rng = StdRng::seed_from_u64(act_seed);
        for (i, (ba, blp, bv)) in batched.iter().enumerate() {
            let (a, lp, v) = policy.act(obs.row_slice(i), &mut rng);
            assert!(actions_match(ba, &a, 1e-12));
            assert!((blp - lp).abs() < 1e-12, "log_prob {blp} vs {lp}");
            assert!((bv - v).abs() < 1e-12, "value {bv} vs {v}");
        }
    });
}

/// Continuous (diagonal Gaussian) head: same contract.
#[test]
fn act_batch_matches_per_row_act_continuous() {
    sweep(32, SEED, |g| {
        let obs = obs_batch(g, 8);
        let (policy_seed, act_seed) = (g.int_in(0u64..1000), g.int_in(0u64..1000));
        let dim = obs.cols();
        let space = Space::Box { low: vec![-1.0; 2], high: vec![1.0; 2] };
        let policy = ActorCritic::new(dim, &space, &[8], &mut StdRng::seed_from_u64(policy_seed));
        let batched = policy.act_batch(&obs, &mut StdRng::seed_from_u64(act_seed));
        let mut rng = StdRng::seed_from_u64(act_seed);
        for (i, (ba, blp, bv)) in batched.iter().enumerate() {
            let (a, lp, v) = policy.act(obs.row_slice(i), &mut rng);
            assert!(actions_match(ba, &a, 1e-12));
            assert!((blp - lp).abs() < 1e-12, "log_prob {blp} vs {lp}");
            assert!((bv - v).abs() < 1e-12, "value {bv} vs {v}");
        }
    });
}

/// `value_batch` consumes no randomness and matches per-row `value`.
#[test]
fn value_batch_matches_per_row_value() {
    sweep(32, SEED, |g| {
        let obs = obs_batch(g, 12);
        let policy_seed = g.int_in(0u64..1000);
        let dim = obs.cols();
        let policy = ActorCritic::new(
            dim,
            &Space::Discrete(4),
            &[8, 8],
            &mut StdRng::seed_from_u64(policy_seed),
        );
        let batched = policy.value_batch(&obs);
        assert_eq!(batched.len(), obs.rows());
        for (i, bv) in batched.iter().enumerate() {
            let v = policy.value(obs.row_slice(i));
            assert!((bv - v).abs() < 1e-12, "value {bv} vs {v}");
        }
    });
}
