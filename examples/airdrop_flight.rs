//! Fly the Airdrop Package Delivery Simulator with a hand-written
//! proportional controller, render the ground track, and measure the
//! §IV-B coupling: Runge–Kutta order vs. accuracy vs. cost.
//!
//! ```text
//! cargo run --release --example airdrop_flight
//! ```

use rl_decision_tools::airdrop_sim::{AirdropConfig, AirdropEnv, TrajectoryRecorder};
use rl_decision_tools::gymrs::{Action, Environment};
use rl_decision_tools::rk_ode::RkOrder;

/// Steer along the bearing error exposed in the observation.
fn controller(obs: &[f64]) -> Action {
    let cmd = obs[1].atan2(obs[2]).clamp(-1.0, 1.0); // sin/cos of bearing error
    Action::Continuous(vec![cmd])
}

fn main() {
    // --- One full guided flight, recorded.
    let cfg = AirdropConfig {
        altitude_limits: (250.0, 250.0),
        gusts_enabled: true,
        gust_probability: 0.15,
        ..AirdropConfig::default()
    }
    .eval();
    let mut env = AirdropEnv::new(cfg);
    env.seed(2024);
    let mut obs = env.reset();
    let mut recorder = TrajectoryRecorder::new();
    recorder.push(env.state());
    let mut steps = 0;
    let reward = loop {
        let s = env.step(&controller(&obs));
        recorder.push(env.state());
        let done = s.done();
        let r = s.reward;
        obs = s.obs;
        steps += 1;
        if done {
            break r;
        }
    };
    println!("Guided flight: {steps} control steps, landed {:.1} units from the target (reward {reward:.2})",
        env.distance_to_target());
    println!("Ground track ('o' drop, 'x' landing, 'T' target):\n");
    println!("{}", recorder.ascii_ground_track(64, 24));
    println!(
        "Track length {:.0} units, drop distance {:.0} units\n",
        recorder.track_length(),
        env.drop_distance()
    );

    // --- The RK-order accuracy/cost coupling (§IV-B) in open loop: fly a
    // fixed steering program at each order and compare the landing point
    // against the high-accuracy reference integration of the same flight.
    println!("Runge–Kutta order vs. accuracy vs. cost (open-loop steering program):");
    let steering = |k: usize| Action::Continuous(vec![(k as f64 * 0.15).sin() * 0.8]);
    // Fly a fixed 40 s program well above the ground (no touchdown-time
    // discretization noise) and compare the final state to the reference.
    let fly = |cfg: AirdropConfig| -> (Vec<f64>, u64) {
        let mut env = AirdropEnv::new(cfg);
        env.seed(5);
        env.reset();
        for k in 0..80 {
            let s = env.step(&steering(k));
            assert!(!s.done(), "flight must stay airborne for the comparison");
        }
        (env.state().to_vec(), env.total_work)
    };
    let base = AirdropConfig { altitude_limits: (500.0, 500.0), ..AirdropConfig::default() }.eval();
    let (ref_state, _) =
        fly(AirdropConfig { rk_order: RkOrder::Eight, substep: 0.05, ..base.clone() });
    println!("{:>6} {:>22} {:>18}", "order", "state error vs ref", "work units/flight");
    for order in RkOrder::ALL {
        let (state, work) = fly(AirdropConfig { rk_order: order, ..base.clone() });
        let err: f64 =
            state.iter().zip(&ref_state).map(|(a, b)| (a - b).powi(2)).sum::<f64>().sqrt();
        println!("{:>6} {:>19.2e} u {:>16} u", order.to_string(), err, work);
    }
    println!("\n(Lower orders integrate the same open-loop flight less accurately and cost");
    println!(" fewer derivative evaluations — the trade-off the paper's Table I sweeps.");
    println!(" Under closed-loop control the feedback hides the error, which is why the");
    println!(" paper measures it through the *training* outcome instead.)");
}
