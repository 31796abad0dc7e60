//! `Environment::duplicate` for the reference environments: a copy
//! taken right after `reset` and fed the same actions steps bit for bit
//! like the original — observations, rewards, done flags — and its next
//! `reset` (and the episode after it) equals the original's.

use gymrs::envs::{GridWorld, Pendulum, PointMass};
use gymrs::{Action, Environment, Step};

fn step_bits(s: &Step) -> (Vec<u64>, u64, bool, bool) {
    (s.obs.iter().map(|x| x.to_bits()).collect(), s.reward.to_bits(), s.terminated, s.truncated)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Two episodes of up to `steps` steps on `env` and on its copy.
fn copy_steps_alike(name: &str, env: &mut dyn Environment, action: impl Fn(usize) -> Action) {
    let steps = 40;
    env.reset();
    let mut copy = env.duplicate().unwrap_or_else(|| panic!("{name} duplicates"));
    for episode in 0..2 {
        if episode > 0 {
            assert_eq!(bits(&copy.reset()), bits(&env.reset()), "{name}: next reset");
        }
        for t in 0..steps {
            let a = action(t);
            let (want, got) = (env.step(&a), copy.step(&a));
            assert_eq!(step_bits(&got), step_bits(&want), "{name}: episode {episode} step {t}");
            if want.done() {
                break;
            }
        }
    }
}

fn turn(t: usize) -> Action {
    Action::Discrete([3, 1, 3, 0, 1, 2][t % 6])
}

fn push(t: usize) -> Action {
    Action::Continuous(vec![(t as f64 * 0.37).sin(), (t as f64 * 0.11).cos()])
}

#[test]
fn every_duplicate_steps_like_its_original() {
    let mut grid = GridWorld::new(4);
    grid.slip = 0.3;
    grid.seed(3);
    assert!(grid.steps_read_rng(), "the slips must draw from the copied RNG");
    copy_steps_alike("slippery grid", &mut grid, turn);

    let mut point = PointMass::new();
    point.seed(4);
    copy_steps_alike("point mass", &mut point, push);

    let mut pendulum = Pendulum::new();
    pendulum.seed(5);
    copy_steps_alike("pendulum", &mut pendulum, |t| Action::Continuous(vec![(t as f64).sin()]));
}
