//! §VI-D ablations: single-factor sweeps around the study's parameters.
//!
//! For each factor the sweep holds everything else fixed and reports the
//! three metrics, reproducing the paper's pairwise observations:
//!
//! * `rk`    — RK order 3/5/8 at SB 1×4 (accuracy vs. cost, §IV-B);
//! * `nodes` — 1 vs 2 nodes at RLlib RK5 ×4 (speed vs. reward, configs 7/8);
//! * `cores` — 2 vs 4 cores at TF-Agents RK3 (configs 10/11);
//! * `vec`   — vectorization: SB with 2 vs 4 sub-environments (configs 14/16's §VI-C discussion);
//! * `algo`  — PPO vs SAC at equal deployment (§VI-D);
//! * `impala` — extension: the RLlib-like 2-node staleness penalty vs the
//!   IMPALA-like backend (same staleness, V-trace corrected).
//!
//! Run a subset with `--factor rk` (repeatable); all factors by default.

use bench::paper::PaperRow;
use bench::{run_row, HarnessOpts};
use decision::prelude::metric_keys;
use dist_exec::Framework;
use rk_ode::RkOrder;
use rl_algos::Algorithm;

fn main() {
    let mut factors: Vec<String> = Vec::new();
    let mut passthrough: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--factor" {
            factors.push(args.next().unwrap_or_default());
        } else {
            passthrough.push(a);
        }
    }
    let opts = match HarnessOpts::from_args(passthrough.into_iter()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let all = factors.is_empty();
    let want = |f: &str| all || factors.iter().any(|x| x == f);

    let base = |rk: RkOrder, fw: Framework, algo: Algorithm, nodes: usize, cores: usize| PaperRow {
        id: 0,
        rk_order: rk,
        framework: fw,
        algorithm: algo,
        nodes,
        cores,
        reward: 0.0,
        time_min: 0.0,
        power_kj: 0.0,
        anchored: false,
    };

    let run = |label: &str, row: &PaperRow| match run_row(row, &opts) {
        Ok(m) => println!(
            "  {label:<28} reward {:>7.2}   time {:>7.1} min   power {:>7.0} kJ",
            m.get_key(metric_keys::REWARD).unwrap_or(f64::NAN),
            m.get_key(metric_keys::TIME_MIN).unwrap_or(f64::NAN),
            m.get_key(metric_keys::POWER_KJ).unwrap_or(f64::NAN),
        ),
        Err(e) => println!("  {label:<28} FAILED: {e}"),
    };

    if want("rk") {
        println!("Ablation: Runge-Kutta order (Stable Baselines, PPO, 1x4) — §IV-B");
        for rk in RkOrder::ALL {
            run(
                &format!("RK{}", rk.order()),
                &base(rk, Framework::StableBaselines, Algorithm::Ppo, 1, 4),
            );
        }
    }
    if want("nodes") {
        println!("Ablation: node count (Ray RLlib, PPO, RK5, 4 cores/node) — §VI-D configs 7/8");
        for nodes in [1, 2] {
            run(
                &format!("{nodes} node(s)"),
                &base(RkOrder::Five, Framework::RayRllib, Algorithm::Ppo, nodes, 4),
            );
        }
    }
    if want("cores") {
        println!("Ablation: cores per node (TF-Agents, PPO, RK3) — §VI-D configs 10/11");
        for cores in [2, 4] {
            run(
                &format!("{cores} cores"),
                &base(RkOrder::Three, Framework::TfAgents, Algorithm::Ppo, 1, cores),
            );
        }
    }
    if want("vec") {
        println!("Ablation: vectorized envs (Stable Baselines, PPO, RK3) — §VI-C");
        for cores in [2, 4] {
            run(
                &format!("{cores} vectorized envs"),
                &base(RkOrder::Three, Framework::StableBaselines, Algorithm::Ppo, 1, cores),
            );
        }
    }
    if want("impala") {
        println!("Extension: staleness handling at 2 nodes (RK3, 4 cores/node)");
        // RLlib-like: stale remote actors, uncorrected PPO.
        run("RLlib-like (PPO)", &base(RkOrder::Three, Framework::RayRllib, Algorithm::Ppo, 2, 4));
        // IMPALA-like: much staler actors, V-trace corrected.
        use airdrop_sim::{AirdropConfig, AirdropEnv};
        use dist_exec::{train_impala, Deployment, FnEnvFactory, ImpalaOpts};
        use gymrs::Environment;
        let impala = ImpalaOpts {
            deployment: Deployment { nodes: 2, cores_per_node: 4 },
            total_steps: opts.steps,
            seed: opts.seed,
            actor_sync_period: 4,
            ..ImpalaOpts::default()
        };
        let alt = opts.altitude_limits;
        let factory = FnEnvFactory(move |seed| {
            let mut env =
                AirdropEnv::new(AirdropConfig { altitude_limits: alt, ..AirdropConfig::default() });
            env.seed(seed);
            Box::new(env) as Box<dyn Environment>
        });
        let report =
            train_impala(&impala, &factory, telemetry::null_recorder()).expect("impala trains");
        let usage = report.usage;
        let mut eval_env = AirdropEnv::new(
            AirdropConfig { altitude_limits: alt, ..AirdropConfig::default() }.reference(),
        );
        eval_env.seed(opts.seed.wrapping_add(999));
        let reward = report.model.evaluate(&mut eval_env, opts.eval_episodes, 100_000);
        let scale = 200_000.0 / report.env_steps.max(1) as f64;
        println!(
            "  {:<28} reward {:>7.2}   time {:>7.1} min   power {:>7.0} kJ   (sync every 4 iters)",
            "IMPALA-like (V-trace)",
            reward,
            usage.minutes() * scale,
            usage.kilojoules() * scale,
        );
    }
    if want("algo") {
        println!("Ablation: algorithm (Stable Baselines, RK3, 1x4) — §VI-D PPO vs SAC");
        for algo in [Algorithm::Ppo, Algorithm::Sac] {
            run(&format!("{algo}"), &base(RkOrder::Three, Framework::StableBaselines, algo, 1, 4));
        }
    }
}
