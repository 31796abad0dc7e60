//! The determinism contract as one command: one small run of every path
//! the contract names, printed as sorted `path hash` lines after an
//! `isa <tier>` line naming the kernel tier in effect (`Isa::cached()`,
//! which `RLDT_SIMD` can only lower).
//!
//! ```text
//! cargo run --release -p bench --bin fingerprints
//! ```
//!
//! A hash is FNV-1a over the row's bytes: the `Debug` text of a value,
//! the bytes of a report, the little-endian `to_bits` of parameters. No
//! hash is pinned: CI diffs the output across tiers and against the merge
//! base. Each row stands for a class the suites assert equal within a
//! commit — in-process = UDS = TCP (`transport.rs`), skewed = clean and
//! batched ODE = scalar (`determinism.rs`), what-if `Batched` = `Scalar`
//! (`counterfactual_parity.rs`), resumed = fresh (`resume.rs`) — so the
//! bin re-asserts none of them.

use airdrop_sim::{AirdropConfig, AirdropEnv};
use cluster_sim::{render_gantt, ClusterSpec};
use counterfactual::{AnalyzerConfig, CounterfactualAnalyzer, Exec};
use decision::prelude::*;
use decision::report::{csv, markdown, svg, table};
use dist_exec::{
    run_recorded, train_impala, ContinuationPolicy, Deployment, EnvBlueprint, ExecReport, ExecSpec,
    Framework, ImpalaOpts, TrainedModel,
};
use gymrs::envs::{GridWorld, PointMass};
use gymrs::{Action, Environment, Space, VecEnv};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_algos::impala::ImpalaConfig;
use rl_algos::{
    collect_lockstep, ActorCritic, Algorithm, OnPolicyLearner, PpoConfig, PpoLearner, SacConfig,
    SacLearner, Transition,
};
use simd_kernels::{mathf64, Isa};
use std::sync::Arc;
use telemetry::RingRecorder;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Each row's path and the bytes its hash is taken over.
type Rows = Vec<(String, Vec<u8>)>;

/// Every parameter of a model, as little-endian `to_bits`.
fn params(model: &mut TrainedModel) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut push = |xs: &[f64]| bytes.extend(xs.iter().flat_map(|x| x.to_bits().to_le_bytes()));
    match model {
        TrainedModel::Ppo(p) => {
            p.actor.visit_params(|w, _| push(w));
            p.critic.visit_params(|w, _| push(w));
            push(&p.log_std);
        }
        TrainedModel::Sac(s) => {
            s.visit_params(|w, _| push(w));
            push(&[s.alpha()]);
        }
    }
    bytes
}

/// `update.ppo_sac`: three PPO updates of the paper's 64×64 tanh trunks
/// (Gaussian head, minibatches of 64) and twenty SAC updates of 64×64
/// relu nets (batch 64) from fixed seeds. `update.vtrace`: three V-trace
/// updates per policy head on two-segment rollouts a never-refreshed
/// snapshot collects. Matmuls, tanh/exp/ln and the Adam step all lie
/// under these parameters.
fn updates(rows: &mut Rows) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut env = PointMass::new();
    env.seed(7);
    let cfg = PpoConfig { n_steps: 256, epochs: 4, minibatch: 64, ..PpoConfig::default() };
    let mut ppo = PpoLearner::new(4, &env.action_space(), cfg, &mut rng);
    let mut obs = env.reset();
    for _ in 0..3 {
        let out = ppo.collect(&mut env, &mut obs, 256, &mut rng);
        ppo.update(&out.rollout, &mut rng);
    }

    let mut rng = StdRng::seed_from_u64(8);
    let cfg = SacConfig { batch: 64, ..SacConfig::default() };
    let mut sac = SacLearner::new(4, &env.action_space(), cfg, &mut rng);
    for i in 0..256 {
        // The in-tree `sin`/`cos`, so that no input depends on the host's libm.
        let (x, c) = (mathf64::sin_cos(i as f64 * 0.05).0, mathf64::sin_cos(i as f64 * 0.3).1);
        sac.replay.push(Transition {
            obs: vec![x, -x, 0.5 * x, 0.1],
            action: vec![c, -x],
            reward: -x.abs(),
            next_obs: vec![x + 0.01, -x, 0.5 * x - 0.01, 0.1],
            terminated: i % 64 == 63,
        });
    }
    for _ in 0..20 {
        sac.update_from_batch(&mut rng);
    }
    let mut bytes = params(&mut TrainedModel::Ppo(Box::new(ppo.policy)));
    bytes.extend(params(&mut TrainedModel::Sac(Box::new(sac))));
    rows.push(("update.ppo_sac".into(), bytes));

    fn vtrace<E: Environment>(envs: Vec<E>, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        let (obs_dim, actions) = (envs[0].observation_space().dim(), envs[0].action_space());
        let mut learner =
            OnPolicyLearner::impala(obs_dim, &actions, ImpalaConfig::default(), &mut rng);
        let stale = learner.policy.clone();
        let mut venv = VecEnv::new(envs, seed);
        venv.reset_all();
        for _ in 0..3 {
            let rollout = collect_lockstep(&stale, &mut venv, 64, &mut rng).rollout;
            learner.update(&rollout, &mut rng);
        }
        params(&mut TrainedModel::Ppo(Box::new(learner.policy)))
    }
    let mut bytes = vtrace(vec![PointMass::new(), PointMass::new()], 11);
    bytes.extend(vtrace(vec![GridWorld::new(3), GridWorld::new(3)], 12));
    rows.push(("update.vtrace".into(), bytes));
}

/// What a training run reports, then every trained parameter.
fn report_bytes(mut r: ExecReport) -> Vec<u8> {
    let counts = (r.env_steps, r.env_work, r.learn_flops, r.updates, r.degraded);
    let mut bytes = format!("{:?}", (&r.train_returns, &r.usage, counts)).into_bytes();
    bytes.extend(params(&mut r.model));
    bytes
}

/// `train.<framework>.<algorithm>.<env>`, in process, with the shapes of
/// the transport and determinism suites: each framework's PPO and
/// IMPALA on the grid world and on airdrop (the batched ODE path), each
/// framework's SAC on airdrop, and the Gantt chart of the two-node RLlib
/// grid run.
fn training(rows: &mut Rows) {
    for (env, blueprint) in
        [("grid", EnvBlueprint::Grid { n: 3 }), ("airdrop", EnvBlueprint::AirdropFast)]
    {
        // SAC needs continuous actions.
        let algorithms: &[Algorithm] =
            if env == "grid" { &[Algorithm::Ppo] } else { &[Algorithm::Ppo, Algorithm::Sac] };
        for (framework, name) in [
            (Framework::StableBaselines, "sb3"),
            (Framework::TfAgents, "tfa"),
            (Framework::RayRllib, "rllib"),
        ] {
            for &algorithm in algorithms {
                let nodes = if framework == Framework::RayRllib { 2 } else { 1 };
                let deployment = Deployment { nodes, cores_per_node: 2 };
                let mut spec = ExecSpec::new(framework, algorithm, deployment, 384, 17)
                    .with_transport("inproc");
                spec.ppo = PpoConfig::fast_test();
                spec.sac = SacConfig { start_steps: 64, ..SacConfig::fast_test() };
                let ring = Arc::new(RingRecorder::new());
                let report = run_recorded(&spec, &blueprint, ring.clone()).expect("trains");
                let algo = algorithm.to_string().to_lowercase();
                rows.push((format!("train.{name}.{algo}.{env}"), report_bytes(report)));
                if (name, algorithm, env) == ("rllib", Algorithm::Ppo, "grid") {
                    let svg =
                        render_gantt(&ClusterSpec::paper_testbed(2), &ring.snapshot(), "RLlib");
                    rows.push(("gantt.rllib.ppo.grid".into(), svg.expect("draws").into_bytes()));
                }
            }
        }
        let opts = ImpalaOpts {
            deployment: Deployment { nodes: 2, cores_per_node: 2 },
            total_steps: 512,
            seed: 17,
            config: ImpalaConfig { hidden: vec![16, 16], n_steps: 128, ..Default::default() },
            actor_sync_period: 4,
            transport: Some("inproc".into()),
            ..Default::default()
        };
        let report = train_impala(&opts, &blueprint, telemetry::null_recorder()).expect("trains");
        rows.push((format!("train.impala.{env}"), report_bytes(report)));
    }
}

/// `whatif.<env>.<continuation>`: the counterfactual parity suite's four
/// analyses, through the batched executor.
fn whatif(rows: &mut Rows) {
    let policy = |obs: usize, actions: Space, seed: u64| {
        let net = ActorCritic::new(obs, &actions, &[8], &mut StdRng::seed_from_u64(seed));
        ContinuationPolicy::Greedy(Box::new(net))
    };
    let (grid, airdrop) = (EnvBlueprint::Grid { n: 5 }, EnvBlueprint::AirdropFast);
    let (hold, unit_box) = (ContinuationPolicy::Hold, Space::symmetric_box(1, 1.0));
    let cases = [
        ("grid.hold", grid.clone(), hold.clone(), Action::Discrete(1)),
        ("grid.greedy", grid, policy(2, Space::Discrete(4), 21), Action::Discrete(2)),
        ("airdrop.hold", airdrop.clone(), hold, Action::Continuous(vec![0.25])),
        ("airdrop.greedy", airdrop, policy(11, unit_box, 22), Action::Continuous(vec![-0.4])),
    ];
    let config = AnalyzerConfig { alternatives: 3, rollouts: 5, horizon: 20, ..Default::default() };
    for (name, blueprint, policy, action) in cases {
        let analyzer = CounterfactualAnalyzer::new(blueprint, config);
        let episode = analyzer.record_episode(13, 5, |_, _| action.clone());
        let mut exec = Exec::Batched { force: None };
        let report = analyzer.analyze(&episode, &policy, &mut exec).expect("what-if runs");
        rows.push((format!("whatif.{name}"), format!("{report:?}").into_bytes()));
    }
}

/// `eval.<algorithm>.<env>`: seven greedy episodes of an untrained
/// policy through `TrainedModel::evaluate_episodes`, as the bits of the
/// mean and of every episode's return — on the order-8 airdrop reference
/// (lockstep lanes) and on a plain and a slippery grid (lanes, then width
/// 1: slips read the RNG).
fn eval(rows: &mut Rows) {
    let returns = |model: &TrainedModel, env: &mut dyn Environment| {
        let (mean, returns) = model.evaluate_episodes(env, 7, 100_000);
        std::iter::once(mean).chain(returns).flat_map(|x| x.to_bits().to_le_bytes()).collect()
    };
    let reference = || {
        let mut env = AirdropEnv::new(AirdropConfig::fast_test().reference());
        env.seed(31);
        env
    };
    let unit_box = Space::symmetric_box(1, 1.0);
    let net = ActorCritic::new(11, &unit_box, &[16, 16], &mut StdRng::seed_from_u64(32));
    rows.push((
        "eval.ppo.airdrop".into(),
        returns(&TrainedModel::Ppo(Box::new(net)), &mut reference()),
    ));
    let cfg = SacConfig { hidden: vec![16, 16], ..SacConfig::fast_test() };
    let sac = SacLearner::new(11, &unit_box, cfg, &mut StdRng::seed_from_u64(33));
    rows.push((
        "eval.sac.airdrop".into(),
        returns(&TrainedModel::Sac(Box::new(sac)), &mut reference()),
    ));
    let net = ActorCritic::new(2, &Space::Discrete(4), &[16], &mut StdRng::seed_from_u64(34));
    let model = TrainedModel::Ppo(Box::new(net));
    let mut bytes = Vec::new();
    for slip in [0.0, 0.3] {
        let mut grid = GridWorld::new(4);
        grid.slip = slip;
        grid.seed(35);
        bytes.extend(returns(&model, &mut grid));
    }
    rows.push(("eval.ppo.grid".into(), bytes));
}

/// A 16-trial study journalled to a WAL, with pruned trials and a failing
/// one, then its rankings and every public report renderer.
fn study(rows: &mut Rows) {
    let wal = std::env::temp_dir().join(format!("rldt-fingerprints-{}.jsonl", std::process::id()));
    Journal::new(&wal).clear().expect("a fresh WAL");
    let trials = Study::builder("fingerprints")
        .space(
            ParamSpace::builder()
                .categorical_int("k", (0..8).rev())
                .categorical_int("j", 0..2)
                .build(),
        )
        .explorer(GridSearch::new())
        .metric(MetricDef::maximize("reward"))
        .metric(MetricDef::minimize("time_min"))
        .pruner(MedianPruner::with_startup(4))
        .seed(11)
        .journal(Journal::new(&wal))
        .objective(|cfg, ctx| {
            let (k, j) = (cfg.int("k").unwrap() as f64, cfg.int("j").unwrap() as f64);
            // Reports that `k` does not order, so the pruner takes about half.
            if ctx.report(1, (3.0 * k) % 8.0 + j) {
                return Ok(MetricValues::new().with("reward", k));
            }
            if k == 7.0 && j == 1.0 {
                return Err("unlucky configuration".into());
            }
            let reward: Distribution =
                (0..6).map(|i| k - 0.5 * j + 0.5 * f64::from(i % 4)).collect();
            Ok(MetricValues::new()
                .with("reward", reward.mean())
                .with("time_min", 30.0 + 4.0 * k - 6.0 * j + 5.0 * ((k + j) % 3.0))
                .with_distribution("reward", reward))
        })
        .build()
        .and_then(|study| study.run())
        .expect("the study runs");
    Journal::new(&wal).clear().expect("the WAL is removed");

    let (reward, time) = (MetricDef::maximize("reward"), MetricDef::minimize("time_min"));
    let spec = BootstrapSpec { level: 0.9, resamples: 200, seed: 0x5EED };
    let pareto = RankSpec::pareto().metric(reward.clone()).metric(time.clone()).rank(&trials);
    let gated = RankSpec::sorted().metric(reward.clone()).bootstrap(spec).ci_gate(spec.level);
    let (params, metrics) = (["k", "j"], [reward.clone(), time.clone()]);
    let front = ParetoFront::compute(&trials, &metrics);
    let plot = svg::ScatterPlot::new("fingerprints", time, reward);
    let texts = [
        ("trials", format!("{trials:?}")),
        ("front", format!("{:?}", pareto.front)),
        ("layers", format!("{:?}", pareto.tiers)),
        ("ci_gate", format!("{:?}", gated.rank(&trials))),
        ("report.table", table::render_table(&trials, &params, &metrics)),
        ("report.table_ci", table::render_table_with_dispersion(&trials, &params, &metrics, &spec)),
        ("report.csv", csv::trials_to_csv(&trials, &params, &metrics)),
        ("report.csv_ci", csv::trials_to_csv_with_dispersion(&trials, &params, &metrics, &spec)),
        ("report.markdown", markdown::trials_to_markdown(&trials, &params, &metrics, Some(&front))),
        ("report.markdown_ci", {
            markdown::trials_to_markdown_with_ci(&trials, &params, &metrics, Some(&front), &spec)
        }),
        ("report.svg", plot.render(&trials, &front)),
        ("report.svg_ci", plot.with_whiskers(spec).render(&trials, &front)),
    ];
    rows.extend(texts.map(|(name, text)| (format!("study.{name}"), text.into_bytes())));
}

/// A 48-trial study with a resampled metric: its CI gate and its
/// interval report each resample 48 intervals, two blocks of
/// `decision::distribution::intervals`, so the second block runs on
/// another thread wherever two cores are allowed (64 samples and 1 000
/// resamples make a block outlast the thread's start). Each side ranks
/// its own clone, taken before either kept an interval.
fn wide_study(rows: &mut Rows) {
    let reward = MetricDef::maximize("reward");
    let trials = Study::builder("fingerprints-wide")
        .space(ParamSpace::builder().categorical_int("k", 0..24).categorical_int("j", 0..2).build())
        .explorer(GridSearch::new())
        .metric(reward.clone())
        .seed(12)
        .objective(|cfg, _| {
            let (k, j) = (cfg.int("k").unwrap() as f64, cfg.int("j").unwrap() as f64);
            let reward: Distribution = (0..64)
                .map(|i| 0.1 * k + ((7.0 * k + 3.0 * j + f64::from(i)) % 11.0) / 4.0)
                .collect();
            Ok(MetricValues::new()
                .with("reward", reward.mean())
                .with_distribution("reward", reward))
        })
        .build()
        .and_then(|study| study.run())
        .expect("the wide study runs");
    let spec = BootstrapSpec { level: 0.9, resamples: 1_000, seed: 0x5EED };
    let gated = RankSpec::sorted().metric(reward.clone()).bootstrap(spec).ci_gate(spec.level);
    let fresh = trials.clone();
    let texts = [
        ("trials", format!("{trials:?}")),
        (
            "report.csv_ci",
            csv::trials_to_csv_with_dispersion(&trials, &["k", "j"], &[reward], &spec),
        ),
        ("ci_gate", format!("{:?}", gated.rank(&fresh))),
    ];
    rows.extend(texts.map(|(name, text)| (format!("study.wide.{name}"), text.into_bytes())));
}

/// Two half-finished journals served at width 2, so the server replays
/// them on two threads (`decision::server`'s replay ahead of the
/// sessions); then the trials and the journals' bytes it left.
fn served_studies(rows: &mut Rows) {
    let study = |name: &str, seed: u64, wal: &std::path::Path| {
        Study::builder(name)
            .space(ParamSpace::builder().categorical_int("k", 0..6).int("j", 0, 3).build())
            .explorer(RandomSearch::new(12))
            .metric(MetricDef::minimize("loss"))
            .seed(seed)
            .journal(Journal::new(wal))
            .objective(|cfg, _| {
                let (k, j) = (cfg.int("k").unwrap() as f64, cfg.int("j").unwrap() as f64);
                Ok(MetricValues::new().with("loss", k / (1.0 + j) + 0.125 * (k * j % 5.0)))
            })
            .build()
            .expect("the served study builds")
    };
    let wals: Vec<_> = ["a", "b"]
        .map(|n| {
            std::env::temp_dir().join(format!("rldt-fingerprints-{}-{n}.jsonl", std::process::id()))
        })
        .into();
    let mut server = StudyServer::new(2);
    for (i, wal) in wals.iter().enumerate() {
        let name = format!("served-{i}");
        Journal::new(wal).clear().expect("a fresh WAL");
        study(&name, 21 + i as u64, wal).run().expect("the full run");
        let text = std::fs::read_to_string(wal).expect("the WAL reads");
        let lines: Vec<&str> = text.lines().collect();
        let half: String = lines[..lines.len() / 2].iter().map(|l| format!("{l}\n")).collect();
        std::fs::write(wal, half).expect("the WAL is cut");
        server.submit(study(&name, 21 + i as u64, wal));
    }
    let outcomes = server.run_all();
    assert!(outcomes.iter().all(|o| o.error.is_none()), "both journals resume");
    let trials: Vec<_> = outcomes.iter().map(|o| &o.trials).collect();
    let mut journals = Vec::new();
    for wal in &wals {
        journals.extend(std::fs::read(wal).expect("the WAL reads"));
        Journal::new(wal).clear().expect("the WAL is removed");
    }
    rows.push(("study.served.trials".into(), format!("{trials:?}").into_bytes()));
    rows.push(("study.served.journals".into(), journals));
}

/// Every row, sorted by path.
fn rows() -> Rows {
    let mut rows = Rows::new();
    updates(&mut rows);
    training(&mut rows);
    eval(&mut rows);
    whatif(&mut rows);
    study(&mut rows);
    wide_study(&mut rows);
    served_studies(&mut rows);
    rows.sort();
    rows
}

fn main() {
    println!("isa {}", Isa::cached());
    for (path, bytes) in rows() {
        println!("{path} {:016x}", fnv1a(&bytes));
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_rows_repeat_with_unique_paths_and_bytes_behind_each() {
        let first = super::rows();
        assert!(first == super::rows(), "the same seeds must give the same rows");
        assert!(first.windows(2).all(|w| w[0].0 < w[1].0), "every path is unique");
        assert!(first.iter().all(|(_, bytes)| !bytes.is_empty()), "every row has bytes");
    }
}
