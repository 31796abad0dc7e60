//! `whatif`: counterfactual analysis of recorded airdrop episodes.
//!
//! Over E recorded `AirdropPaper` episodes: `record_episode` under a fixed
//! scripted action, then `analyze` with K alternatives, N rollouts and a
//! `Hold` continuation through `Exec::Batched { force: None }`. The work is
//! environment stepping — `gymrs::VecEnv` lockstep, `airdrop_sim::batch`,
//! `rk_ode::batch`, `simd-kernels` — with no network forward at all, so a
//! change to a network or a learner must leave it flat.

use super::{Baseline, Check, LayerValues, Reference, Unit, Workload};
use crate::budgets::Budgets;
use crate::probes::Probes;
use crate::sys::Scratch;
use counterfactual::analyzer::alternatives_for;
use counterfactual::{AnalyzerConfig, CounterfactualAnalyzer, Exec, RecordedEpisode};
use dist_exec::{ContinuationPolicy, EnvBlueprint, WhatIfPayload, WhatIfTask};
use gymrs::{Action, Environment, VecEnv};
use std::sync::Arc;
use telemetry::{Key, Recorder, RingRecorder, SharedRecorder};

const BLUEPRINT: EnvBlueprint = EnvBlueprint::AirdropPaper;
/// No airdrop episode is longer: the cap only guards the recording loop.
const MAX_EPISODE_STEPS: usize = 10_000;
/// Candidate episodes recorded per episode wanted. Lengths are close to
/// uniform on 20 to 670 steps, so one in four falls in the band and ten
/// candidates leave a margin of seven standard deviations. Set-up always records
/// all of them: its cost then does not depend on how early a seed's luck
/// fills the list.
const CANDIDATES_PER_EPISODE: u64 = 10;

const SPAN_RECORD: Key = Key("counterfactual.record");
const SPAN_ANALYZE: Key = Key("counterfactual.analyze");

/// The scripted steering command: a fixed seven-step cycle, so that the
/// recorded trajectory turns both ways.
fn scripted(t: usize, _obs: &[f64]) -> Action {
    Action::Continuous(vec![0.3 * ((t % 7) as f64 / 3.0 - 1.0)])
}

pub struct WhatIf {
    config: AnalyzerConfig,
    /// Seeds of the episodes to analyse, chosen in set-up.
    episode_seeds: Vec<u64>,
}

impl WhatIf {
    /// Choose the E episodes. A drop altitude is drawn from `[30, 1000]`,
    /// so episode length — and with it the work of an analysis — varies
    /// twenty-fold from seed to seed. Candidates are recorded in seed
    /// order and only those inside the frozen length band are kept, which
    /// makes the work of a unit a property of the budget, not of the seed.
    pub fn setup(seed: u64, budgets: Budgets) -> Result<Self, String> {
        let config = AnalyzerConfig {
            alternatives: budgets.whatif_alternatives,
            rollouts: budgets.whatif_rollouts,
            horizon: budgets.whatif_horizon,
            stride: budgets.whatif_stride,
            seed: 0xC0FF_EE00 ^ seed,
            ..AnalyzerConfig::default()
        };
        let analyzer = CounterfactualAnalyzer::new(BLUEPRINT, config);
        let (shortest, longest) = budgets.whatif_episode_len;
        let first = seed.wrapping_mul(1_000_003);
        let mut episode_seeds = Vec::with_capacity(budgets.whatif_episodes);
        for k in 0..CANDIDATES_PER_EPISODE * budgets.whatif_episodes as u64 {
            let candidate = first.wrapping_add(k);
            let len = analyzer.record_episode(candidate, MAX_EPISODE_STEPS, scripted).len;
            if (shortest..=longest).contains(&len) && episode_seeds.len() < budgets.whatif_episodes
            {
                episode_seeds.push(candidate);
            }
        }
        if episode_seeds.len() < budgets.whatif_episodes {
            return Err(format!(
                "only {} of {} episodes of {shortest}..={longest} steps found",
                episode_seeds.len(),
                budgets.whatif_episodes
            ));
        }
        Ok(WhatIf { config, episode_seeds })
    }

    fn analyzer(&self) -> CounterfactualAnalyzer {
        CounterfactualAnalyzer::new(BLUEPRINT, self.config)
    }

    /// Record and analyse every episode through the product path. `outer`
    /// receives the benchmark's spans; the analyzer keeps its own recorder.
    fn analyse_all(&self, analyzer: &CounterfactualAnalyzer, outer: &dyn Recorder) -> Unit {
        let mut unit = Unit {
            work: 0.0,
            attempted: 0,
            failed: 0,
            fingerprint: Vec::new(),
            checks: Vec::new(),
            notes: Vec::new(),
        };
        for &seed in &self.episode_seeds {
            let span = outer.span_begin(SPAN_RECORD);
            let episode = analyzer.record_episode(seed, MAX_EPISODE_STEPS, scripted);
            outer.span_end(span);
            let rounds = episode.points.len() as u64;
            unit.attempted += rounds;
            let span = outer.span_begin(SPAN_ANALYZE);
            let report = analyzer.analyze(
                &episode,
                &ContinuationPolicy::Hold,
                &mut Exec::Batched { force: None },
            );
            outer.span_end(span);
            match report {
                Ok(report) => {
                    for point in &report.points {
                        unit.fingerprint
                            .extend(point.factual_returns.samples().iter().map(|r| r.to_bits()));
                        for alternative in &point.alternatives {
                            unit.fingerprint
                                .extend(alternative.returns.samples().iter().map(|r| r.to_bits()));
                        }
                    }
                }
                Err(e) => {
                    unit.failed += rounds;
                    unit.notes.push(format!("episode {seed}: {e}"));
                }
            }
        }
        unit
    }

    /// The payloads `analyze` builds for one episode, rebuilt from public
    /// pieces so they can be run through an executor that carries a
    /// recorder. That they are the same payloads is checked by the
    /// returns: the fingerprints must be equal.
    fn payloads(&self, episode: &RecordedEpisode) -> Vec<WhatIfPayload> {
        let cfg = &self.config;
        let n = cfg.rollouts.max(1);
        let action_space = BLUEPRINT.build(0).action_space();
        episode
            .points
            .iter()
            .map(|point| {
                let alternatives =
                    alternatives_for(&action_space, &point.factual_action, cfg.alternatives);
                let seeds: Vec<u64> =
                    (0..n).map(|j| continuation_seed(cfg.seed, point.t, j)).collect();
                let mut tasks = Vec::with_capacity((alternatives.len() + 1) * n);
                for action in std::iter::once(&point.factual_action).chain(alternatives.iter()) {
                    for &seed in &seeds {
                        tasks.push(WhatIfTask { first_action: action.clone(), seed });
                    }
                }
                WhatIfPayload {
                    env: BLUEPRINT,
                    snapshot: point.snapshot.clone(),
                    horizon: cfg.horizon,
                    policy: ContinuationPolicy::Hold,
                    tasks,
                }
            })
            .collect()
    }
}

/// `counterfactual`'s private seed derivation for rollout `j` of the
/// decision point at step `t`.
fn continuation_seed(base: u64, t: usize, j: usize) -> u64 {
    let mut z = base
        ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (j as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `counterfactual::run_whatif_batched` with a recorder on its `VecEnv`:
/// one lane per task, restored from the snapshot and reseeded, all lanes
/// advanced in lockstep, a lane's return closed at its first `done`.
fn run_batched_recorded(
    payload: &WhatIfPayload,
    recorder: SharedRecorder,
) -> Result<Vec<f64>, String> {
    let n = payload.tasks.len();
    let mut envs: Vec<Box<dyn Environment>> = Vec::with_capacity(n);
    for task in &payload.tasks {
        let mut env = payload.env.build(0);
        env.restore(&payload.snapshot).map_err(|e| e.to_string())?;
        env.seed(task.seed);
        envs.push(env);
    }
    let mut venv = VecEnv::new_preseeded(envs);
    venv.set_recorder(recorder);
    let mut returns = vec![0.0f64; n];
    let mut live = vec![true; n];
    let mut remaining = n;
    let mut actions: Vec<Action> = payload.tasks.iter().map(|t| t.first_action.clone()).collect();
    for _ in 0..payload.horizon {
        venv.step_lockstep(&actions);
        let tick = venv.last_tick();
        for i in 0..n {
            if !live[i] {
                continue;
            }
            returns[i] += tick.steps[i].reward;
            if tick.steps[i].done() {
                live[i] = false;
                remaining -= 1;
            }
        }
        if remaining == 0 {
            break;
        }
        let obs = venv.observations();
        for i in 0..n {
            if live[i] {
                actions[i] = payload.policy.next_action(&payload.tasks[i].first_action, &obs[i]);
            }
        }
    }
    Ok(returns)
}

impl Workload for WhatIf {
    fn unit(&self, _scratch: &Scratch) -> Result<Unit, String> {
        Ok(self.analyse_all(&self.analyzer(), &telemetry::NullRecorder))
    }

    /// The same payloads through an executor that counts. A timed unit
    /// cannot count environment steps: `Exec::Batched` builds its `VecEnv`
    /// itself and no recorder reaches it. This pass does, and its returns
    /// are the fingerprint the timed units must reproduce.
    fn reference(&self, _scratch: &Scratch) -> Result<Reference, String> {
        let analyzer = self.analyzer();
        let ring = Arc::new(RingRecorder::new());
        let mut fingerprint = Vec::new();
        let mut scalar_check = None;
        for &seed in &self.episode_seeds {
            let episode = analyzer.record_episode(seed, MAX_EPISODE_STEPS, scripted);
            for payload in self.payloads(&episode) {
                if scalar_check.is_none() {
                    let scalar = Exec::Scalar.run(&payload).map_err(|e| e.to_string())?;
                    let batched =
                        Exec::Batched { force: None }.run(&payload).map_err(|e| e.to_string())?;
                    let same = scalar.len() == batched.len()
                        && scalar.iter().zip(&batched).all(|(a, b)| a.to_bits() == b.to_bits());
                    scalar_check = Some(Check::new(
                        "scalar_equals_batched",
                        same,
                        format!("{} returns of one payload compared bit for bit", scalar.len()),
                    ));
                }
                let returns = run_batched_recorded(&payload, ring.clone())?;
                fingerprint.extend(returns.iter().map(|r| r.to_bits()));
            }
        }
        let snap = ring.snapshot();
        let counter = |key: Key| snap.counter(key.name()).unwrap_or(0) as f64;
        let steps = counter(gymrs::keys::STEPS);
        let ticks = counter(gymrs::keys::TICKS);
        let mut layer = LayerValues::new();
        layer.insert("gym.steps", steps);
        layer.insert("gym.episodes", counter(gymrs::keys::EPISODES));
        layer.insert(
            "gym.batched_tick_share",
            if ticks == 0.0 { 0.0 } else { counter(gymrs::keys::BATCHED_TICKS) / ticks },
        );
        layer.insert("ode.fn_evals", counter(gymrs::keys::WORK));
        Ok(Reference {
            checks: scalar_check.into_iter().collect(),
            work: Some(steps),
            fingerprint: Some(fingerprint),
            wall_s: None,
            layer,
        })
    }

    fn traced(
        &self,
        _scratch: &Scratch,
        _probes: &Probes,
        baseline: &Baseline<'_>,
    ) -> Result<(LayerValues, telemetry::Snapshot), String> {
        let ring = Arc::new(RingRecorder::with_capacity(1 << 18));
        let mut analyzer = self.analyzer();
        analyzer.set_recorder(ring.clone());
        let unit = self.analyse_all(&analyzer, ring.as_ref());
        if unit.fingerprint != baseline.unit_fingerprint {
            return Err("traced analysis is not bit-equal to the untraced one".into());
        }
        let snapshot = ring.snapshot();
        let span_s = |key: Key| {
            snapshot.spans_named(key.name()).map(|s| s.duration_ns() as f64 / 1e9).sum::<f64>()
        };
        let counter = |key: Key| snapshot.counter(key.name()).unwrap_or(0) as f64;
        // The step counts come from the reference pass, which ran the
        // same payloads through an executor with a recorder.
        let mut values = baseline.reference.layer.clone();
        values.insert("counterfactual.record_ms", span_s(SPAN_RECORD) * 1e3);
        values.insert("counterfactual.analyze_s", span_s(SPAN_ANALYZE));
        values.insert("counterfactual.points", counter(counterfactual::keys::CF_POINTS));
        values.insert("counterfactual.rollouts", counter(counterfactual::keys::CF_ROLLOUTS));
        Ok((values, snapshot))
    }
}
