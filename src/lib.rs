//! # rl-decision-tools
//!
//! Umbrella crate for the reproduction of *"A Methodology to Build Decision
//! Analysis Tools Applied to Distributed Reinforcement Learning"* (Prigent,
//! Cudennec, Costan, Antoniu — ScaDL/IPDPS 2022).
//!
//! Re-exports every subsystem so that examples and downstream users can
//! depend on a single crate:
//!
//! * [`decision`] — the paper's contribution: parameter spaces, explorers,
//!   metrics, Pareto ranking, study orchestration, reports.
//! * [`airdrop_sim`] — the airdrop package delivery simulator (case study).
//! * [`rk_ode`] — Runge–Kutta integrators (orders 3/5/8).
//! * [`gymrs`] — gym-style environment abstraction.
//! * [`tinynn`] — minimal neural networks for the RL algorithms.
//! * [`rl_algos`] — PPO and SAC.
//! * [`cluster_sim`] — the simulated 2-node cluster (time/power model).
//! * [`dist_exec`] — the three framework-like execution backends.
//! * [`telemetry`] — the unified instrumentation layer (recorders,
//!   ring-buffer traces, the JSON-lines exporter).

pub use airdrop_sim;
pub use cluster_sim;
pub use decision;
pub use dist_exec;
pub use gymrs;
pub use rk_ode;
pub use rl_algos;
pub use telemetry;
pub use tinynn;
