//! # counterfactual — per-episode scenario analysis
//!
//! The paper's decision tool ranks whole *configurations*; this crate
//! asks the per-episode question the tool never answers: **which
//! decisions mattered?** ("Explaining RL Decisions with Trajectories"
//! motivates locating critical decision points by how much the *outcome
//! distribution* moves when the decision changes.)
//!
//! The pipeline, end to end:
//!
//! 1. **Record** an episode on any snapshot-capable environment,
//!    capturing an [`EnvSnapshot`](gymrs::EnvSnapshot) at every decision
//!    point ([`CounterfactualAnalyzer::record_episode`]). Snapshots are
//!    sequence points — the env re-keys its RNG at capture — so a
//!    recorded point replays bit-exactly.
//! 2. **Fork** `K` alternative first actions at each point and roll each
//!    fork out `N` times under a
//!    [`ContinuationPolicy`](dist_exec::ContinuationPolicy), giving one
//!    return [`Distribution`](decision::distribution::Distribution) per
//!    action. All actions at a point share the same `N` continuation
//!    seeds (common random numbers), so the distributions differ only
//!    through the forked action.
//! 3. **Fan out** the `(K+1)·N` short rollouts of every decision point
//!    through one of two interchangeable executors ([`Exec`]): the
//!    scalar reference loop ([`dist_exec::run_whatif`]) or the lockstep
//!    runner ([`dist_exec::run_whatif_batched`] over
//!    [`gymrs::vec_env::run_episodes`], which engages the SIMD ODE batcher
//!    for airdrop lanes and retires a lane when its continuation ends),
//!    with the episode's decision points spread over the host's cores by
//!    [`decision::spread::map_blocks`]. A continuation that does not read
//!    observations does not pay for them, and the lockstep runner steps
//!    each distinct continuation once
//!    ([`dist_exec::runtime::whatif::LanePlan`]): where `step` reads no RNG the `N`
//!    rollouts of an action are one lane, reported as `N` equal samples.
//!    The two paths are bitwise interchangeable — the parity suite pins
//!    that down.
//! 4. **Score** each point with Jensen–Shannon and 1-Wasserstein
//!    divergence between the factual return distribution and each
//!    alternative's (`divergence`; JS is absent between two point
//!    masses), aggregated across alternatives by
//!    an [`Aggregate`] rule, and emit a consequence trace through the
//!    telemetry recorder ([`keys`]).
//!
//! Everything is deterministic: a fixed `(episode, config)` pair yields
//! bit-identical reports on every executor, platform and thread count.

pub mod analyzer;
pub(crate) mod divergence;
pub(crate) mod fanout;
pub mod keys;

pub use analyzer::{AnalyzerConfig, CounterfactualAnalyzer, EpisodeReport, RecordedEpisode};
pub use divergence::{js_divergence, wasserstein_1, Aggregate, JS_BOUND};
pub use fanout::Exec;
