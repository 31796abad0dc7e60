//! Cross-path counterfactual parity: the analyzer's divergence scores
//! must be **bitwise identical** whether the continuation rollouts run
//! through the scalar reference loop or the batched lockstep path
//! (forced on, forced off, or left to the crossover heuristic).
//!
//! The task seeds make this a real statement: each continuation's
//! return depends only on `(snapshot, first_action, seed, policy)`, so
//! any scheduling, lane or thread effect would show up as flipped bits
//! here. The scalar loop runs every task; the lockstep runner runs one
//! lane per distinct continuation, so these suites also check that the
//! tasks it merges were bound to be equal.

use counterfactual::{AnalyzerConfig, CounterfactualAnalyzer, EpisodeReport, Exec};
use dist_exec::{ContinuationPolicy, EnvBlueprint};
use gymrs::{Action, Space};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_algos::policy::ActorCritic;

/// Every f64 the report carries, as raw bits, in a fixed traversal
/// order — equality here is bitwise equality of the whole analysis.
fn report_bits(r: &EpisodeReport) -> Vec<u64> {
    let mut bits = vec![r.factual_return.to_bits()];
    for p in &r.points {
        bits.push(p.t as u64);
        bits.push(p.js_score.to_bits());
        bits.push(p.w1_score.to_bits());
        bits.extend(p.factual_returns.samples().iter().map(|x| x.to_bits()));
        for alt in &p.alternatives {
            bits.push(alt.js.is_some() as u64);
            bits.push(alt.js.map_or(0, f64::to_bits));
            bits.push(alt.w1.to_bits());
            bits.extend(alt.returns.samples().iter().map(|x| x.to_bits()));
        }
    }
    bits
}

fn analyze_everywhere(blueprint: EnvBlueprint, policy: ContinuationPolicy, action: Action) {
    let config = AnalyzerConfig { alternatives: 3, rollouts: 5, horizon: 20, ..Default::default() };
    let analyzer = CounterfactualAnalyzer::new(blueprint, config);
    let episode = analyzer.record_episode(13, 5, |_, _| action.clone());
    assert!(!episode.points.is_empty(), "the recorded episode must have decision points");

    let scalar = analyzer.analyze(&episode, &policy, &mut Exec::Scalar).expect("scalar");
    let reference = report_bits(&scalar);

    for force in [Some(true), Some(false), None] {
        let batched =
            analyzer.analyze(&episode, &policy, &mut Exec::Batched { force }).expect("batched");
        assert_eq!(report_bits(&batched), reference, "batched (force {force:?}) vs scalar");
    }
}

#[test]
fn grid_world_scores_agree_across_all_paths() {
    analyze_everywhere(EnvBlueprint::Grid { n: 5 }, ContinuationPolicy::Hold, Action::Discrete(1));
}

#[test]
fn greedy_continuations_agree_across_all_paths() {
    // Greedy actions are deterministic, so any difference in the
    // observations a lane hands the policy would flip return bits.
    let mut rng = StdRng::seed_from_u64(21);
    let policy = ActorCritic::new(2, &Space::Discrete(4), &[8], &mut rng);
    analyze_everywhere(
        EnvBlueprint::Grid { n: 5 },
        ContinuationPolicy::Greedy(Box::new(policy)),
        Action::Discrete(2),
    );
}

#[test]
fn airdrop_scores_agree_across_all_paths() {
    // The airdrop env exercises the real SIMD ODE batcher on the batched
    // legs.
    analyze_everywhere(
        EnvBlueprint::AirdropFast,
        ContinuationPolicy::Hold,
        Action::Continuous(vec![0.25]),
    );
}

#[test]
fn greedy_airdrop_continuations_agree_across_all_paths() {
    // The one place a skipped observation would change an action: a
    // closed-loop continuation on an environment with a lockstep batcher
    // (`Grid` has none). The forced batcher and the lockstep fallback
    // must hand the policy the observations the scalar loop hands it.
    let mut rng = StdRng::seed_from_u64(22);
    let policy = ActorCritic::new(11, &Space::symmetric_box(1, 1.0), &[8], &mut rng);
    analyze_everywhere(
        EnvBlueprint::AirdropFast,
        ContinuationPolicy::Greedy(Box::new(policy)),
        Action::Continuous(vec![-0.4]),
    );
}
