//! The decision-point walker: record an episode, fork alternatives at
//! every captured snapshot, score the forks by how far they move the
//! return distribution.
//!
//! Determinism contract: [`CounterfactualAnalyzer::analyze`] is a pure
//! function of `(episode, config, policy)` — continuation seeds are
//! derived from `config.seed` with a SplitMix64 mix over the decision
//! point's step index and the rollout index, every action at a point
//! shares the same seed set (common random numbers), and the executor
//! choice changes wall-clock only, never bits.

use decision::distribution::Distribution;
use dist_exec::{ContinuationPolicy, EnvBlueprint, WhatIfPayload, WhatIfTask};
use gymrs::{Action, EnvSnapshot, SnapshotError, Space};
use telemetry::{SharedRecorder, Value};

use crate::divergence::{js_unless_point_masses, wasserstein_1, Aggregate};
use crate::fanout::Exec;
use crate::keys;

/// Tuning knobs for one analysis run. `Default` is sized for tests;
/// benches sweep `alternatives`/`horizon` and the fan-out width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyzerConfig {
    /// `K`: alternative first actions forked per decision point. For a
    /// discrete action space the alternatives are the first `K` actions
    /// other than the factual one; for a box space, `K` points evenly
    /// spaced along the (bound-clamped) box diagonal.
    pub alternatives: usize,
    /// `N`: continuation rollouts per action — the sample count of each
    /// return [`Distribution`]. `N > 1` only buys information when the
    /// environment or the continuation is stochastic: with the paper's
    /// §V-a airdrop scenario (wind and gusts off) `step` reads no RNG
    /// ([`gymrs::Environment::steps_read_rng`]), so the `N` samples are
    /// `N` copies of one number — which `Exec::Batched` computes once.
    pub rollouts: usize,
    /// Continuation step budget per rollout (forked step included).
    pub horizon: usize,
    /// Snapshot every `stride`-th step of the recorded episode (1 =
    /// every step is a decision point).
    pub stride: usize,
    /// Histogram cells for the Jensen–Shannon divergence.
    pub bins: usize,
    /// Base seed of the continuation-seed derivation.
    pub seed: u64,
    /// How per-alternative divergences collapse into the point score.
    pub aggregate: Aggregate,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        Self {
            alternatives: 3,
            rollouts: 8,
            horizon: 64,
            stride: 1,
            bins: 16,
            seed: 0xC0FF_EE00,
            aggregate: Aggregate::Mean,
        }
    }
}

/// One captured decision point of a recorded episode.
#[derive(Debug, Clone)]
pub struct DecisionPoint {
    /// Step index within the episode.
    pub t: usize,
    /// Environment state immediately before the factual action.
    pub snapshot: EnvSnapshot,
    /// The action the recorded episode actually took.
    pub factual_action: Action,
}

/// A recorded episode: the captured decision points plus the factual
/// outcome.
#[derive(Debug, Clone)]
pub struct RecordedEpisode {
    /// Decision points in step order.
    pub points: Vec<DecisionPoint>,
    /// Undiscounted return of the recorded episode.
    pub(crate) factual_return: f64,
    /// Episode length in steps.
    pub len: usize,
}

/// One alternative action's outcome at a decision point.
#[derive(Debug, Clone, PartialEq)]
pub struct AlternativeOutcome {
    /// The forked first action.
    pub(crate) action: Action,
    /// Return distribution of its continuations.
    pub returns: Distribution,
    /// Jensen–Shannon divergence from the factual distribution, `None`
    /// when both have zero spread: two point masses could only read `0`
    /// or [`JS_BOUND`](crate::JS_BOUND) however near they are, so on a
    /// noise-free environment only [`Self::w1`] ranks the alternatives.
    pub js: Option<f64>,
    /// 1-Wasserstein distance from the factual distribution.
    pub w1: f64,
}

/// Divergence scores of one decision point.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionPointReport {
    /// Step index within the episode.
    pub t: usize,
    /// The recorded action.
    pub(crate) factual_action: Action,
    /// Return distribution of the factual action's continuations.
    pub factual_returns: Distribution,
    /// Every forked alternative with its distribution and divergences.
    pub alternatives: Vec<AlternativeOutcome>,
    /// Aggregated Jensen–Shannon score ([`AnalyzerConfig::aggregate`])
    /// over the alternatives whose JS is defined; `0` when none is.
    pub js_score: f64,
    /// Aggregated 1-Wasserstein score.
    pub w1_score: f64,
}

/// The full consequence trace of one episode.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeReport {
    /// Scored decision points, in step order.
    pub points: Vec<DecisionPointReport>,
    /// The recorded episode's factual return.
    pub factual_return: f64,
}

impl EpisodeReport {
    /// The decision point with the largest 1-Wasserstein score — "the
    /// decision that mattered most", scale-aware.
    pub(crate) fn most_consequential(&self) -> Option<&DecisionPointReport> {
        self.points.iter().max_by(|a, b| a.w1_score.total_cmp(&b.w1_score))
    }
}

/// The first `k` alternative actions to `factual` in `space`: the
/// lowest-index other actions of a discrete space, or `k` evenly spaced
/// points on the diagonal of a box space (unbounded axes are clamped to
/// `[-1, 1]` so the grid stays finite).
pub fn alternatives_for(space: &Space, factual: &Action, k: usize) -> Vec<Action> {
    match space {
        Space::Discrete(n) => {
            (0..*n).map(Action::Discrete).filter(|a| a != factual).take(k).collect()
        }
        Space::Box { low, high } => (0..k)
            .map(|j| {
                let t = (j as f64 + 1.0) / (k as f64 + 1.0);
                Action::Continuous(
                    low.iter()
                        .zip(high)
                        .map(|(&lo, &hi)| {
                            let lo = if lo.is_finite() { lo } else { -1.0 };
                            let hi = if hi.is_finite() { hi } else { 1.0 };
                            lo + t * (hi - lo)
                        })
                        .collect(),
                )
            })
            .collect(),
    }
}

/// Walks recorded episodes and scores their decision points. See the
/// crate docs for the pipeline.
pub struct CounterfactualAnalyzer {
    blueprint: EnvBlueprint,
    config: AnalyzerConfig,
    recorder: SharedRecorder,
}

impl CounterfactualAnalyzer {
    /// An analyzer over environments built from `blueprint`.
    pub fn new(blueprint: EnvBlueprint, config: AnalyzerConfig) -> Self {
        Self { blueprint, config, recorder: telemetry::null_recorder() }
    }

    /// Route the consequence trace (see [`crate::keys`]) to `recorder`.
    pub fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.recorder = recorder;
    }

    /// Run one episode under `act` (step index and observation in,
    /// action out), snapshotting every [`AnalyzerConfig::stride`]-th
    /// step as a decision point. Snapshot capture re-keys the episode's
    /// RNG (the sequence-point contract), so the recorded episode is
    /// deterministic in `(blueprint, episode_seed, act, stride)` — but
    /// differs from the same policy run without recording.
    pub fn record_episode(
        &self,
        episode_seed: u64,
        max_steps: usize,
        mut act: impl FnMut(usize, &[f64]) -> Action,
    ) -> RecordedEpisode {
        let stride = self.config.stride.max(1);
        let mut env = self.blueprint.build(episode_seed);
        let mut obs = env.reset();
        let mut points = Vec::new();
        let mut factual_return = 0.0;
        let mut len = 0;
        for t in 0..max_steps {
            let action = act(t, &obs);
            if t % stride == 0 {
                if let Some(snapshot) = env.snapshot() {
                    points.push(DecisionPoint { t, snapshot, factual_action: action.clone() });
                }
            }
            let step = env.step(&action);
            factual_return += step.reward;
            len += 1;
            if step.done() {
                break;
            }
            obs = step.obs;
        }
        RecordedEpisode { points, factual_return, len }
    }

    /// Score every decision point of `episode`: fork the alternatives,
    /// fan `(K+1)·N` continuations out through `exec`, and compare each
    /// alternative's return distribution against the factual one.
    ///
    /// The decision points are independent of each other and are handed
    /// to the executor together; `Exec::Batched` answers them on up to
    /// one thread per core ([`decision::spread::cores`]), none of which
    /// outlives this call. Reports, `cf.point` events and the first error
    /// are taken in point order once every point is answered, so neither
    /// the report nor the trace depends on how many threads ran.
    pub fn analyze(
        &self,
        episode: &RecordedEpisode,
        policy: &ContinuationPolicy,
        exec: &mut Exec,
    ) -> Result<EpisodeReport, SnapshotError> {
        self.analyze_on(decision::spread::cores(), episode, policy, exec)
    }

    /// [`Self::analyze`] with the thread count given instead of read from
    /// the host.
    pub(crate) fn analyze_on(
        &self,
        threads: usize,
        episode: &RecordedEpisode,
        policy: &ContinuationPolicy,
        exec: &mut Exec,
    ) -> Result<EpisodeReport, SnapshotError> {
        let cfg = &self.config;
        let n = cfg.rollouts.max(1);
        let action_space = self.blueprint.build(0).action_space();
        let mut forks = Vec::with_capacity(episode.points.len());
        let mut payloads = Vec::with_capacity(episode.points.len());
        for point in &episode.points {
            let alts = alternatives_for(&action_space, &point.factual_action, cfg.alternatives);
            // Common random numbers: every action replays under the same
            // seed set, so the distributions differ only through the fork.
            let seeds: Vec<u64> = (0..n).map(|j| continuation_seed(cfg.seed, point.t, j)).collect();
            let mut tasks = Vec::with_capacity((alts.len() + 1) * n);
            for action in std::iter::once(&point.factual_action).chain(alts.iter()) {
                for &seed in &seeds {
                    tasks.push(WhatIfTask { first_action: action.clone(), seed });
                }
            }
            payloads.push(WhatIfPayload {
                env: self.blueprint.clone(),
                snapshot: point.snapshot.clone(),
                horizon: cfg.horizon,
                policy: policy.clone(),
                tasks,
            });
            forks.push(alts);
        }
        let answers = exec.run_all(&payloads, threads);
        let mut reports = Vec::with_capacity(episode.points.len());
        for (((point, alts), payload), answer) in
            episode.points.iter().zip(forks).zip(&payloads).zip(answers)
        {
            let returns = answer?;
            let n_tasks = returns.len();
            debug_assert_eq!(n_tasks, (alts.len() + 1) * n);
            let factual_returns = Distribution::from_samples(returns[..n].to_vec());
            let mut alternatives = Vec::with_capacity(alts.len());
            let mut js_scores = Vec::with_capacity(alts.len());
            let mut w1_scores = Vec::with_capacity(alts.len());
            for (i, action) in alts.iter().enumerate() {
                let slice = &returns[(i + 1) * n..(i + 2) * n];
                let dist = Distribution::from_samples(slice.to_vec());
                let js = js_unless_point_masses(&factual_returns, &dist, cfg.bins);
                let w1 = wasserstein_1(&factual_returns, &dist);
                js_scores.extend(js);
                w1_scores.push(w1);
                alternatives.push(AlternativeOutcome {
                    action: action.clone(),
                    returns: dist,
                    js,
                    w1,
                });
            }
            let js_score = cfg.aggregate.apply(&js_scores);
            let w1_score = cfg.aggregate.apply(&w1_scores);
            self.recorder.counter_add(keys::CF_POINTS, 1);
            self.recorder.counter_add(keys::CF_ROLLOUTS, n_tasks as u64);
            if self.recorder.enabled() {
                // Counted from the payload, not the executor, so the trace
                // reads the same whichever one answered.
                self.recorder.counter_add(keys::CF_LANES, payload.lane_plan().lanes() as u64);
            }
            self.recorder.event(
                keys::CF_POINT,
                &[
                    (keys::F_T, Value::U64(point.t as u64)),
                    (keys::F_JS, Value::F64(js_score)),
                    (keys::F_W1, Value::F64(w1_score)),
                    (keys::F_ALTS, Value::U64(alts.len() as u64)),
                ],
            );
            reports.push(DecisionPointReport {
                t: point.t,
                factual_action: point.factual_action.clone(),
                factual_returns,
                alternatives,
                js_score,
                w1_score,
            });
        }
        let report = EpisodeReport { points: reports, factual_return: episode.factual_return };
        let peak = report.most_consequential();
        self.recorder.event(
            keys::CF_EPISODE,
            &[
                (keys::F_POINTS, Value::U64(report.points.len() as u64)),
                (keys::F_JS, Value::F64(peak.map_or(0.0, |p| p.js_score))),
                (keys::F_W1, Value::F64(peak.map_or(0.0, |p| p.w1_score))),
                (keys::F_RETURN, Value::F64(report.factual_return)),
            ],
        );
        Ok(report)
    }
}

/// Deterministic continuation seed for rollout `j` of the decision
/// point at step `t` — a SplitMix64 finalizer over the mixed inputs, so
/// distinct `(t, j)` pairs land on well-separated streams.
fn continuation_seed(base: u64, t: usize, j: usize) -> u64 {
    let mut z = base
        ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (j as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use telemetry::RingRecorder;

    fn analyzer(config: AnalyzerConfig) -> CounterfactualAnalyzer {
        CounterfactualAnalyzer::new(EnvBlueprint::Grid { n: 5 }, config)
    }

    fn hold_right(_t: usize, _obs: &[f64]) -> Action {
        Action::Discrete(1)
    }

    #[test]
    fn recording_captures_strided_decision_points() {
        let cfg = AnalyzerConfig { stride: 2, ..Default::default() };
        let episode = analyzer(cfg).record_episode(11, 9, hold_right);
        assert!(episode.len >= 1);
        for (i, p) in episode.points.iter().enumerate() {
            assert_eq!(p.t, 2 * i, "stride-2 capture points");
            assert_eq!(p.factual_action, Action::Discrete(1));
        }
        assert!(episode.points.len() <= episode.len.div_ceil(2) + 1);
    }

    #[test]
    fn recording_is_deterministic() {
        let a = analyzer(AnalyzerConfig::default()).record_episode(3, 20, hold_right);
        let b = analyzer(AnalyzerConfig::default()).record_episode(3, 20, hold_right);
        assert_eq!(a.factual_return.to_bits(), b.factual_return.to_bits());
        assert_eq!(a.len, b.len);
        assert_eq!(a.points.len(), b.points.len());
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(pa.snapshot, pb.snapshot);
        }
    }

    #[test]
    fn unsupported_envs_record_no_points() {
        // A blueprint whose env cannot snapshot would yield zero decision
        // points; every blueprint env snapshots, so synthesize the case by
        // never hitting the stride.
        let cfg = AnalyzerConfig { stride: usize::MAX, ..Default::default() };
        let episode = analyzer(cfg).record_episode(5, 12, hold_right);
        assert_eq!(episode.points.len(), 1, "step 0 always matches the stride");
    }

    #[test]
    fn analysis_is_reproducible_and_scored() {
        let cfg = AnalyzerConfig { rollouts: 6, horizon: 20, ..Default::default() };
        let an = analyzer(cfg);
        let episode = an.record_episode(11, 6, hold_right);
        assert!(!episode.points.is_empty());
        let a = an.analyze(&episode, &ContinuationPolicy::Hold, &mut Exec::Scalar).expect("runs");
        let b = an.analyze(&episode, &ContinuationPolicy::Hold, &mut Exec::Scalar).expect("runs");
        assert_eq!(a, b, "analysis is a pure function of (episode, config, policy)");
        for p in &a.points {
            assert_eq!(p.alternatives.len(), 3, "grid world: 4 actions, K=3 others");
            assert_eq!(p.factual_returns.len(), 6);
            assert!(p.js_score.is_finite() && p.js_score >= 0.0);
            assert!(p.w1_score.is_finite() && p.w1_score >= 0.0);
        }
        assert!(a.most_consequential().is_some());
    }

    #[test]
    fn aggregates_stay_ordered_on_real_scores() {
        let mk = |aggregate| AnalyzerConfig {
            rollouts: 6,
            horizon: 20,
            aggregate,
            ..Default::default()
        };
        let episode = analyzer(mk(Aggregate::Mean)).record_episode(4, 5, hold_right);
        let score = |aggregate| {
            analyzer(mk(aggregate))
                .analyze(&episode, &ContinuationPolicy::Hold, &mut Exec::Scalar)
                .expect("runs")
                .points
                .iter()
                .flat_map(|p| [p.js_score, p.w1_score])
                .collect::<Vec<_>>()
        };
        // JS and W1 of every decision point, interleaved.
        let mean = score(Aggregate::Mean);
        let weighted = score(Aggregate::WeightedMean);
        let max = score(Aggregate::Max);
        assert!(!mean.is_empty(), "the episode has decision points");
        assert!(max.iter().any(|&s| s > 0.0), "some alternative diverges");
        for i in 0..mean.len() {
            assert!(mean[i] <= weighted[i] + 1e-12 && weighted[i] <= max[i] + 1e-12);
        }
    }

    #[test]
    fn consequence_trace_reaches_the_recorder() {
        let recorder = Arc::new(RingRecorder::new());
        let mut an = analyzer(AnalyzerConfig { rollouts: 4, horizon: 10, ..Default::default() });
        an.set_recorder(recorder.clone());
        let episode = an.record_episode(2, 4, hold_right);
        let report =
            an.analyze(&episode, &ContinuationPolicy::Hold, &mut Exec::Scalar).expect("runs");
        let snap = recorder.snapshot();
        assert_eq!(snap.counter(keys::CF_POINTS.name()), Some(report.points.len() as u64));
        let events: Vec<_> =
            snap.events.iter().filter(|e| e.key == keys::CF_POINT.name()).collect();
        assert_eq!(events.len(), report.points.len(), "one trace event per decision point");
        assert!(snap.events.iter().any(|e| e.key == keys::CF_EPISODE.name()));
    }

    fn steer(_t: usize, _obs: &[f64]) -> Action {
        Action::Continuous(vec![0.3])
    }

    /// The consequence trace as recorded: key and fields of every event.
    fn trace(recorder: &RingRecorder) -> Vec<(String, Vec<(String, telemetry::FieldValue)>)> {
        recorder.snapshot().events.into_iter().map(|e| (e.key, e.fields)).collect()
    }

    #[test]
    fn the_fan_out_width_leaves_no_mark_on_report_or_trace() {
        // Airdrop lanes, so every thread drives a real SIMD batcher.
        let cfg = AnalyzerConfig { rollouts: 4, horizon: 12, ..Default::default() };
        let mut an = CounterfactualAnalyzer::new(EnvBlueprint::AirdropFast, cfg);
        let episode = an.record_episode(5, 11, steer);
        assert_eq!(episode.points.len(), 11);
        let mut run = |threads: usize| {
            let recorder = Arc::new(RingRecorder::new());
            an.set_recorder(recorder.clone());
            let exec = &mut Exec::Batched { force: None };
            let report =
                an.analyze_on(threads, &episode, &ContinuationPolicy::Hold, exec).expect("runs");
            (report, trace(&recorder))
        };
        let (one, one_trace) = run(1);
        assert_eq!(one_trace.len(), 12, "eleven cf.point events and the cf.episode event");
        for threads in [2, 5] {
            let (report, events) = run(threads);
            assert_eq!(report, one, "{threads} threads against one");
            assert_eq!(events, one_trace, "{threads} threads against one");
        }
        let scalar = an.analyze(&episode, &ContinuationPolicy::Hold, &mut Exec::Scalar);
        assert_eq!(scalar.expect("runs"), one, "the public entry, scalar, against one thread");
    }

    #[test]
    fn the_first_bad_point_in_point_order_is_the_error() {
        let cfg = AnalyzerConfig { rollouts: 4, horizon: 12, ..Default::default() };
        let mut an = CounterfactualAnalyzer::new(EnvBlueprint::AirdropFast, cfg);
        let mut episode = an.record_episode(5, 11, steer);
        // Two points that cannot be restored, the later one failing for a
        // different reason: whichever thread meets which first, the error
        // is point 5's and the trace stops before it.
        episode.points[5].snapshot.kind = "pendulum".into();
        episode.points[8].snapshot.f.pop();
        for threads in [1, 2, 5] {
            let recorder = Arc::new(RingRecorder::new());
            an.set_recorder(recorder.clone());
            let exec = &mut Exec::Batched { force: None };
            let failed = an.analyze_on(threads, &episode, &ContinuationPolicy::Hold, exec);
            assert!(
                matches!(failed, Err(SnapshotError::Mismatch("kind"))),
                "{threads} threads: {failed:?}"
            );
            let events = trace(&recorder);
            assert_eq!(events.len(), 5, "{threads} threads: points 0..5 and nothing after");
            assert!(events.iter().all(|(key, _)| key == keys::CF_POINT.name()));
        }
    }

    #[test]
    fn without_noise_every_rollout_of_an_action_is_one_number_computed_once() {
        // The paper's §V-a environment has wind and gusts off, so `step`
        // reads no RNG: under `Hold` the N rollouts of an action are N
        // copies of one return, and the lockstep runner steps one lane for
        // them. JS between two such point masses could only read 0 or its
        // bound however near the returns are, so it is absent; W1 still
        // carries the distance and the order.
        let (k, n) = (3, 16);
        let cfg =
            AnalyzerConfig { alternatives: k, rollouts: n, horizon: 16, ..Default::default() };
        let mut an = CounterfactualAnalyzer::new(EnvBlueprint::AirdropPaper, cfg);
        let episode = an.record_episode(3, 6, steer);
        let points = episode.points.len() as u64;
        assert!(points > 0);
        let mut counted = Vec::new();
        for mut exec in [Exec::Batched { force: None }, Exec::Scalar] {
            let recorder = Arc::new(RingRecorder::new());
            an.set_recorder(recorder.clone());
            an.analyze(&episode, &ContinuationPolicy::Hold, &mut exec).expect("runs");
            let snap = recorder.snapshot();
            counted.push([keys::CF_ROLLOUTS, keys::CF_LANES].map(|key| snap.counter(key.name())));
        }
        let (k, n) = (k as u64, n as u64);
        let expected = [Some((k + 1) * n * points), Some((k + 1) * points)];
        assert_eq!(counted, [expected, expected], "rollouts and lanes, batched then scalar");

        let exec = &mut Exec::Batched { force: None };
        let report = an.analyze(&episode, &ContinuationPolicy::Hold, exec).expect("runs");
        for point in &report.points {
            let factual = &point.factual_returns;
            assert_eq!(factual.len(), 16);
            assert_eq!(factual.min().to_bits(), factual.max().to_bits(), "sixteen copies");
            assert_eq!(point.alternatives.len(), 3);
            for alt in &point.alternatives {
                assert_eq!(alt.returns.min().to_bits(), alt.returns.max().to_bits());
                let gap = (alt.returns.min() - factual.min()).abs();
                assert!(gap > 0.0, "a different steering command lands elsewhere");
                assert_eq!(alt.js, None, "two point masses: no JS to report");
                assert!((alt.w1 - gap).abs() < 1e-12, "W1 is the gap: {} vs {gap}", alt.w1);
            }
            assert_eq!(point.js_score, 0.0, "no JS to aggregate");
            let mut w1: Vec<f64> = point.alternatives.iter().map(|a| a.w1).collect();
            w1.sort_by(f64::total_cmp);
            assert!(w1.windows(2).all(|w| w[1] - w[0] > 1e-6), "W1 orders them: {w1:?}");
        }
    }

    #[test]
    fn alternatives_cover_both_space_kinds() {
        let discrete = alternatives_for(&Space::Discrete(4), &Action::Discrete(2), 3);
        assert_eq!(discrete, vec![Action::Discrete(0), Action::Discrete(1), Action::Discrete(3)]);
        assert_eq!(alternatives_for(&Space::Discrete(1), &Action::Discrete(0), 3), vec![]);
        let boxed = alternatives_for(
            &Space::Box { low: vec![-2.0], high: vec![2.0] },
            &Action::Continuous(vec![0.0]),
            3,
        );
        assert_eq!(
            boxed,
            vec![
                Action::Continuous(vec![-1.0]),
                Action::Continuous(vec![0.0]),
                Action::Continuous(vec![1.0]),
            ]
        );
        // Unbounded axes clamp to [-1, 1].
        let unbounded =
            alternatives_for(&Space::unbounded_box(1), &Action::Continuous(vec![0.0]), 1);
        assert_eq!(unbounded, vec![Action::Continuous(vec![0.0])]);
    }

    #[test]
    fn continuation_seeds_are_distinct_and_stable() {
        let s = continuation_seed(7, 3, 5);
        assert_eq!(s, continuation_seed(7, 3, 5));
        assert_ne!(s, continuation_seed(7, 3, 6));
        assert_ne!(s, continuation_seed(7, 4, 5));
        assert_ne!(s, continuation_seed(8, 3, 5));
    }
}
