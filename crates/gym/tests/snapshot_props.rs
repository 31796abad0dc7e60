//! Snapshot round-trip properties for the reference environments.
//!
//! The [`gymrs::EnvSnapshot`] contract: `snapshot()` is a sequence point
//! after which the live environment and a restored copy are in bitwise
//! identical states, so `snapshot → restore → step^n` must reproduce the
//! uninterrupted `step^n` stream exactly — observations, rewards and
//! termination flags, bit for bit — at any capture point, under any seed.
//!
//! Grids cover a seed × capture-point product; seeded sweeps draw both
//! from the whole range.

use gymrs::envs::{GridWorld, Pendulum, PointMass};
use gymrs::{Action, Environment, SnapshotError, Space, Step};

const SEED: u64 = 0x6A11;

/// SplitMix64 — deterministic per-step action source without an RNG dep.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A value in [-1, 1] derived from `(seed, t)`.
fn unit_f64(seed: u64, t: usize) -> f64 {
    (mix(seed ^ (t as u64).wrapping_mul(0x517c_c1b7_2722_0a95)) >> 11) as f64 / (1u64 << 53) as f64
        * 2.0
        - 1.0
}

/// Bitwise fingerprint of one transition.
fn bits(s: &Step) -> (Vec<u64>, u64, bool, bool) {
    (s.obs.iter().map(|v| v.to_bits()).collect(), s.reward.to_bits(), s.terminated, s.truncated)
}

/// Drive `env` for up to `n` steps (stopping at episode end), returning
/// the bitwise transition stream.
fn stream<E: Environment>(
    env: &mut E,
    action: &impl Fn(usize) -> Action,
    start_t: usize,
    n: usize,
) -> Vec<(Vec<u64>, u64, bool, bool)> {
    let mut out = Vec::new();
    for i in 0..n {
        let s = env.step(&action(start_t + i));
        let done = s.done();
        out.push(bits(&s));
        if done {
            break;
        }
    }
    out
}

/// The round-trip property for one (env builder, action policy) pair:
/// run to the capture point, snapshot, then demand the live continuation
/// and a restored-into-fresh-env continuation agree bitwise.
fn assert_round_trip<E: Environment>(
    make: &impl Fn() -> E,
    action: &impl Fn(usize) -> Action,
    seed: u64,
    capture_at: usize,
    horizon: usize,
) {
    let mut live = make();
    live.seed(seed);
    live.reset();
    for t in 0..capture_at {
        if live.step(&action(t)).done() {
            return; // episode ended before the capture point: vacuous
        }
    }
    let snap = live.snapshot().expect("env is snapshot-capable");
    let uninterrupted = stream(&mut live, action, capture_at, horizon);

    let mut restored = make();
    restored.seed(seed ^ 0xdead_beef); // restore must override any seeding
    restored.restore(&snap).expect("snapshot restores into a fresh env");
    let replayed = stream(&mut restored, action, capture_at, horizon);

    assert_eq!(
        uninterrupted, replayed,
        "restored continuation diverged (seed {seed}, capture {capture_at})"
    );
}

fn grid_action(seed: u64) -> impl Fn(usize) -> Action {
    move |t| Action::Discrete((mix(seed.wrapping_add(t as u64)) % 4) as usize)
}

fn scalar_action(seed: u64) -> impl Fn(usize) -> Action {
    move |t| Action::Continuous(vec![unit_f64(seed, t)])
}

fn planar_action(seed: u64) -> impl Fn(usize) -> Action {
    move |t| Action::Continuous(vec![unit_f64(seed, t), unit_f64(seed ^ 1, t)])
}

#[test]
fn grid_world_round_trips_across_seeds_and_capture_points() {
    for seed in [0u64, 1, 7, 42, 1_000_003] {
        for capture_at in [0usize, 1, 3, 10] {
            let make = || {
                let mut e = GridWorld::new(5);
                e.slip = 0.35; // exercise the RNG on every step
                e
            };
            assert_round_trip(&make, &grid_action(seed), seed, capture_at, 24);
        }
    }
}

#[test]
fn point_mass_round_trips_across_seeds_and_capture_points() {
    for seed in [0u64, 3, 11, 99] {
        for capture_at in [0usize, 1, 5, 30] {
            assert_round_trip(&PointMass::new, &planar_action(seed), seed, capture_at, 40);
        }
    }
}

#[test]
fn pendulum_round_trips_across_seeds_and_capture_points() {
    for seed in [0u64, 2, 13, 77] {
        for capture_at in [0usize, 1, 8, 50] {
            assert_round_trip(&Pendulum::new, &scalar_action(seed), seed, capture_at, 60);
        }
    }
}

#[test]
fn snapshot_rekeys_the_live_rng() {
    // Two consecutive snapshots must record different reseeds (the first
    // call advanced the live RNG), and each restored copy must continue
    // exactly like the live env did at its own capture point.
    let mut env = GridWorld::new(4);
    env.slip = 1.0;
    env.seed(5);
    env.reset();
    let a = env.snapshot().expect("snapshot");
    let b = env.snapshot().expect("snapshot");
    assert_ne!(a.rng_seed, b.rng_seed, "each capture draws a fresh reseed");
}

#[test]
fn restore_rejects_a_foreign_snapshot() {
    let mut grid = GridWorld::new(3);
    let mut pm = PointMass::new();
    pm.seed(1);
    pm.reset();
    let snap = pm.snapshot().expect("snapshot");
    assert_eq!(grid.restore(&snap), Err(SnapshotError::Mismatch("kind")));
}

#[test]
fn restore_rejects_a_malformed_layout() {
    let mut pm = PointMass::new();
    pm.seed(1);
    pm.reset();
    let mut snap = pm.snapshot().expect("snapshot");
    snap.f.pop();
    assert_eq!(pm.restore(&snap), Err(SnapshotError::Mismatch("buffer layout")));
}

/// An environment that keeps every optional method's default.
struct Bare;

impl Environment for Bare {
    fn observation_space(&self) -> Space {
        Space::symmetric_box(1, 1.0)
    }
    fn action_space(&self) -> Space {
        Space::Discrete(1)
    }
    fn seed(&mut self, _: u64) {}
    fn reset(&mut self) -> Vec<f64> {
        vec![0.0]
    }
    fn step(&mut self, _: &Action) -> Step {
        Step { obs: vec![0.0], reward: 0.0, terminated: true, truncated: false }
    }
}

#[test]
fn unsupported_envs_default_to_none() {
    // The default impls opt out of snapshots and copies.
    let mut bare = Bare;
    assert!(bare.snapshot().is_none());
    assert!(bare.duplicate().is_none());
    let mut pm = PointMass::new();
    pm.seed(1);
    pm.reset();
    let snap = pm.snapshot().expect("snapshot");
    assert_eq!(bare.restore(&snap), Err(SnapshotError::Unsupported));
}

#[test]
fn boxed_env_forwards_snapshot_and_restore() {
    let mut e = GridWorld::new(4);
    e.seed(9);
    e.reset();
    e.step(&Action::Discrete(3));
    let mut boxed: Box<dyn Environment> = Box::new(e);
    let snap = boxed.snapshot().expect("blanket impl forwards snapshot");
    assert_eq!(snap.kind, "grid_world");
    assert!(boxed.restore(&snap).is_ok());
}

// Seeded sweeps over the same property, past the grids above.
#[test]
fn grid_world_round_trips_across_a_sweep() {
    testkit::sweep(48, SEED, |g| {
        let (seed, capture_at) = (g.int_in(0u64..1_000_000), g.below(12));
        let make = || {
            let mut e = GridWorld::new(5);
            e.slip = 0.35;
            e
        };
        assert_round_trip(&make, &grid_action(seed), seed, capture_at, 24);
    });
}

#[test]
fn point_mass_round_trips_across_a_sweep() {
    testkit::sweep(48, SEED, |g| {
        let (seed, capture_at) = (g.int_in(0u64..1_000_000), g.below(40));
        assert_round_trip(&PointMass::new, &planar_action(seed), seed, capture_at, 40);
    });
}

#[test]
fn pendulum_round_trips_across_a_sweep() {
    testkit::sweep(48, SEED, |g| {
        let (seed, capture_at) = (g.int_in(0u64..1_000_000), g.below(60));
        assert_round_trip(&Pendulum::new, &scalar_action(seed), seed, capture_at, 60);
    });
}
