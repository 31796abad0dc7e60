//! Snapshot round-trip properties for [`AirdropEnv`].
//!
//! The airdrop case is the hard one for the [`gymrs::EnvSnapshot`]
//! contract: the env owns a Runge–Kutta stepper whose FSAL cache persists
//! across control intervals, plus a wind model with transient gust state
//! and a per-interval RNG draw. `snapshot()` fences all three — it reseeds
//! the live RNG and drops the FSAL cache on both sides — so the restored
//! copy must reproduce the uninterrupted continuation bit for bit even
//! with gusts enabled.

use airdrop_sim::{AirdropConfig, AirdropEnv};
use gymrs::{Action, Environment, SnapshotError, Step};

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn steer(seed: u64, t: usize) -> Action {
    let v = (mix(seed ^ (t as u64).wrapping_mul(0x517c_c1b7_2722_0a95)) >> 11) as f64
        / (1u64 << 53) as f64
        * 2.0
        - 1.0;
    Action::Continuous(vec![v])
}

fn bits(s: &Step) -> (Vec<u64>, u64, bool, bool) {
    (s.obs.iter().map(|v| v.to_bits()).collect(), s.reward.to_bits(), s.terminated, s.truncated)
}

fn stream(
    env: &mut AirdropEnv,
    seed: u64,
    start_t: usize,
    n: usize,
) -> Vec<(Vec<u64>, u64, bool, bool)> {
    let mut out = Vec::new();
    for i in 0..n {
        let s = env.step(&steer(seed, start_t + i));
        let done = s.done();
        out.push(bits(&s));
        if done {
            break;
        }
    }
    out
}

fn gusty_config() -> AirdropConfig {
    AirdropConfig {
        wind_enabled: true,
        gusts_enabled: true,
        gust_probability: 0.4,
        gust_strength: 3.0,
        ..AirdropConfig::fast_test()
    }
}

/// Run to the capture point, snapshot, and demand the live continuation
/// and a restored-into-fresh-env continuation agree bitwise to landing.
fn assert_round_trip(config: AirdropConfig, seed: u64, capture_at: usize) {
    let mut live = AirdropEnv::new(config.clone());
    live.seed(seed);
    live.reset();
    for t in 0..capture_at {
        if live.step(&steer(seed, t)).done() {
            return; // landed before the capture point: vacuous
        }
    }
    let snap = live.snapshot().expect("airdrop env is snapshot-capable");
    let uninterrupted = stream(&mut live, seed, capture_at, 10_000);
    assert!(!uninterrupted.is_empty(), "capture point must be mid-episode");

    let mut restored = AirdropEnv::new(config);
    restored.seed(seed ^ 0xdead_beef);
    restored.restore(&snap).expect("snapshot restores into a fresh env");
    let replayed = stream(&mut restored, seed, capture_at, 10_000);

    assert_eq!(
        uninterrupted, replayed,
        "restored continuation diverged (seed {seed}, capture {capture_at})"
    );
}

#[test]
fn round_trips_without_wind_across_seeds_and_capture_points() {
    for seed in [0u64, 1, 7, 42] {
        for capture_at in [0usize, 1, 2, 5] {
            assert_round_trip(AirdropConfig::fast_test(), seed, capture_at);
        }
    }
}

#[test]
fn round_trips_with_wind_and_gusts() {
    // Gusts draw from the env RNG every control interval and leave
    // transient state in the wind model — the snapshot must carry both.
    for seed in [3u64, 11, 99, 1234] {
        for capture_at in [0usize, 1, 3, 6] {
            assert_round_trip(gusty_config(), seed, capture_at);
        }
    }
}

#[test]
fn round_trips_mid_descent_with_fsal_cache_warm() {
    // After several intervals the stepper's FSAL cache is warm on the live
    // env; snapshot() must fence it so the cold restored stepper agrees.
    for capture_at in [2usize, 4, 8] {
        assert_round_trip(AirdropConfig::fast_test(), 77, capture_at);
    }
}

#[test]
fn restore_rejects_wrong_kind_and_layout() {
    let mut env = AirdropEnv::new(AirdropConfig::fast_test());
    env.seed(5);
    env.reset();
    let good = env.snapshot().expect("snapshot");

    let mut foreign = good.clone();
    foreign.kind = "grid_world".into();
    assert_eq!(env.restore(&foreign), Err(SnapshotError::Mismatch("kind")));

    let mut truncated = good.clone();
    truncated.f.pop();
    assert_eq!(env.restore(&truncated), Err(SnapshotError::Mismatch("buffer layout")));

    let mut short_u = good;
    short_u.u.pop();
    assert_eq!(env.restore(&short_u), Err(SnapshotError::Mismatch("buffer layout")));
}

#[test]
fn restoring_a_terminal_snapshot_preserves_done() {
    let mut env = AirdropEnv::new(AirdropConfig::fast_test());
    env.seed(9);
    env.reset();
    let mut t = 0;
    while !env.step(&steer(9, t)).done() {
        t += 1;
    }
    let snap = env.snapshot().expect("snapshot");
    assert_eq!(*snap.u.last().unwrap(), 1, "done flag travels in the snapshot");

    let mut other = AirdropEnv::new(AirdropConfig::fast_test());
    other.restore(&snap).expect("restore");
    // The restored env is finished; reset() starts a fresh episode from
    // the snapshotted RNG stream, same as the live env would.
    let a = other.reset();
    env.reset();
    let live_obs: Vec<u64> = env.step(&steer(9, 0)).obs.iter().map(|v| v.to_bits()).collect();
    let _ = a;
    let restored_obs: Vec<u64> = other.step(&steer(9, 0)).obs.iter().map(|v| v.to_bits()).collect();
    assert_eq!(live_obs, restored_obs, "post-restore resets follow the same RNG stream");
}

// A seeded sweep over the same property, past the grids above.
#[test]
fn round_trips_plain_across_a_sweep() {
    testkit::sweep(24, 0x54A9, |g| {
        let (seed, capture_at) = (g.int_in(0u64..1_000_000), g.below(8));
        assert_round_trip(AirdropConfig::fast_test(), seed, capture_at);
    });
}

#[test]
fn round_trips_gusty_across_a_sweep() {
    testkit::sweep(24, 0x54A9, |g| {
        let (seed, capture_at) = (g.int_in(0u64..1_000_000), g.below(8));
        assert_round_trip(gusty_config(), seed, capture_at);
    });
}
