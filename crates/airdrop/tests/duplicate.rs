//! `AirdropEnv::duplicate` at every RK order, gusts off and on: a copy
//! taken right after `reset` and fed the same actions steps bit for bit
//! like the original — observations, rewards, done flags and work — and
//! its next `reset` (and the episode after it) equals the original's.

use airdrop_sim::{AirdropConfig, AirdropEnv};
use gymrs::{Action, Environment};
use rk_ode::RkOrder;

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn a_copy_after_reset_steps_like_the_original() {
    for order in RkOrder::ALL {
        for gusts in [false, true] {
            let cfg = AirdropConfig {
                rk_order: order,
                gusts_enabled: gusts,
                gust_probability: 0.3,
                gust_strength: 2.0,
                ..AirdropConfig::fast_test()
            };
            let case = format!("{order}, gusts {gusts}");
            let mut env = AirdropEnv::new(cfg);
            env.seed(41);
            let mut obs = env.reset();
            let mut copy = env.duplicate().expect("airdrop duplicates");
            for episode in 0..2 {
                if episode > 0 {
                    obs = env.reset();
                    assert_eq!(bits(&copy.reset()), bits(&obs), "{case}: next reset");
                }
                loop {
                    let a = Action::Continuous(vec![(obs[1] * 3.0).sin()]);
                    let (want, got) = (env.step(&a), copy.step(&a));
                    assert_eq!(bits(&got.obs), bits(&want.obs), "{case}: observation");
                    assert_eq!(got.reward.to_bits(), want.reward.to_bits(), "{case}: reward");
                    assert_eq!((got.terminated, got.truncated), (want.terminated, want.truncated));
                    assert_eq!(copy.last_step_work(), env.last_step_work(), "{case}: work");
                    if want.done() {
                        break;
                    }
                    obs = want.obs;
                }
            }
        }
    }
}
