//! Render Gantt charts of one short training per framework architecture
//! — a view over each run's recorded session events, and a visual
//! companion to the Table I computation-time column.
//!
//! ```text
//! cargo run --release -p bench --bin gantt -- [--out DIR] [--steps N]
//! ```

use airdrop_sim::{AirdropConfig, AirdropEnv};
use bench::HarnessOpts;
use cluster_sim::{render_gantt, ClusterSpec};
use dist_exec::{run_recorded, Deployment, ExecSpec, FnEnvFactory, Framework};
use gymrs::Environment;
use rl_algos::ppo::PpoConfig;
use rl_algos::Algorithm;
use std::sync::Arc;
use telemetry::RingRecorder;

fn main() {
    let opts = match HarnessOpts::from_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let out = opts.out_dir.clone().unwrap_or_else(|| "results".into());
    std::fs::create_dir_all(&out).expect("create output dir");
    let steps = opts.steps.min(4_000);

    let cases = [
        (Framework::StableBaselines, 1usize, "gantt_sb3"),
        (Framework::TfAgents, 1, "gantt_tfa"),
        (Framework::RayRllib, 2, "gantt_rllib_2nodes"),
    ];
    for (framework, nodes, name) in cases {
        let mut spec = ExecSpec::new(
            framework,
            Algorithm::Ppo,
            Deployment { nodes, cores_per_node: 4 },
            steps,
            opts.seed,
        );
        spec.ppo = PpoConfig { n_steps: 1024, epochs: 4, ..PpoConfig::default() };
        let factory = FnEnvFactory(|seed| {
            let mut env = AirdropEnv::new(AirdropConfig {
                altitude_limits: (30.0, 100.0),
                ..AirdropConfig::default()
            });
            env.seed(seed);
            Box::new(env) as Box<dyn Environment>
        });
        let ring = Arc::new(RingRecorder::new());
        let usage = run_recorded(&spec, &factory, ring.clone()).expect("trains").usage;
        let title = format!(
            "{framework} PPO, {nodes} node(s) x 4 cores — {:.1} simulated min",
            usage.minutes()
        );
        let svg = match render_gantt(&ClusterSpec::paper_testbed(nodes), &ring.snapshot(), &title) {
            Ok(svg) => svg,
            Err(e) => {
                eprintln!("error: {framework}: {e}");
                std::process::exit(1);
            }
        };
        let path = out.join(format!("{name}.svg"));
        std::fs::write(&path, svg).expect("write svg");
        println!(
            "{framework:<18} {nodes} node(s): {:>3} compute phases, {:>3} transfers, {:>6.1} simulated s -> {}",
            usage.compute_phases,
            usage.transfers,
            usage.wall_s,
            path.display()
        );
    }
}
