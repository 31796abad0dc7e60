//! Helpers shared by the integration suites; each suite uses a subset.

#![allow(dead_code)]

use cluster_sim::Usage;
use dist_exec::backend::{EnvFactory, FnEnvFactory};
use dist_exec::spec::{Deployment, ExecSpec};
use dist_exec::{Framework, ImpalaOpts};
use gymrs::envs::GridWorld;
use gymrs::Environment;
use rl_algos::Algorithm;

/// A closure-built (blueprint-less, hence in-process only) 3×3 grid world.
pub fn grid_factory() -> impl EnvFactory {
    FnEnvFactory(|seed| {
        let mut e = GridWorld::new(3);
        e.seed(seed);
        Box::new(e) as Box<dyn Environment>
    })
}

/// Bitwise fingerprint of one training run: every training return, the
/// simulated wall-clock and energy, and the simulated bytes moved.
pub fn fingerprint(returns: &[f64], usage: &Usage) -> Vec<u64> {
    let mut bits: Vec<u64> = returns.iter().map(|v| v.to_bits()).collect();
    bits.push(usage.wall_s.to_bits());
    bits.push(usage.energy_j.to_bits());
    bits.push(usage.bytes_moved);
    bits
}

/// A short PPO run of `framework`: two nodes for RLlib, one for SB3 and
/// TF-Agents (they parallelize on one node only, paper §V-b).
pub fn ppo_spec(framework: Framework, transport: Option<&str>) -> ExecSpec {
    let nodes = if framework == Framework::RayRllib { 2 } else { 1 };
    let mut spec =
        ExecSpec::new(framework, Algorithm::Ppo, Deployment { nodes, cores_per_node: 2 }, 384, 17);
    spec.ppo = rl_algos::ppo::PpoConfig::fast_test();
    if let Some(t) = transport {
        spec = spec.with_transport(t);
    }
    spec
}

/// A short IMPALA run on two nodes of two cores.
pub fn impala_opts(transport: Option<&str>) -> ImpalaOpts {
    ImpalaOpts {
        deployment: Deployment { nodes: 2, cores_per_node: 2 },
        total_steps: 512,
        seed: 17,
        config: rl_algos::impala::ImpalaConfig {
            hidden: vec![16, 16],
            n_steps: 128,
            ..Default::default()
        },
        actor_sync_period: 4,
        transport: transport.map(str::to_owned),
        ..Default::default()
    }
}
