//! # dist-exec — framework-like distributed execution
//!
//! The paper compares three RL frameworks — Ray RLlib, Stable Baselines,
//! TF-Agents — whose *architectures* differ in how they spread work over
//! CPU cores and nodes (§V-b, §VI-D). Here a framework is a data value:
//! `Framework::architecture` returns the `Architecture` (collector
//! shape, weight-sync policy, sampling streams, where inference is
//! charged, cost constants — the table in [`framework`]) and one training
//! loop (under [`run`]) reads it.
//!
//! Every architecture *really* runs the training (worker threads collect
//! experience from real environments; the shared `rl-algos` learners do
//! real gradient updates), and narrates its execution to a `cluster-sim`
//! session that converts the counted work into the simulated wall-clock
//! time and energy that Table I reports. The architectural signals the
//! paper observes are structural here:
//!
//! * RLlib-like on 2 nodes overlaps collection across nodes (faster) but
//!   pays network transfers, idle power of both machines, and stale
//!   remote snapshots (worse reward — §VI-D, configurations 7 vs 8);
//! * Stable-Baselines-like is strictly synchronous on one rng stream
//!   (best reward, §VI-A) but serializes inference and learning;
//! * TF-Agents-like has the smallest framework overhead per step (lowest
//!   power, §VI-B).
//!
//! Collection executes on one actor-style [`runtime`]: long-lived worker
//! threads (or child processes) pinned to simulated nodes, typed
//! command/event channels, and a `runtime::Driver` that owns the
//! iteration bookkeeping and narrates every cost as a
//! `cluster_sim::SessionEvent`.

pub mod backend;
pub mod backends;
pub mod framework;
pub mod keys;
pub mod report;
pub mod runtime;
pub mod spec;

pub use backend::{run, run_recorded, EnvFactory, FnEnvFactory};
pub use framework::Framework;
pub use report::{ExecReport, TrainedModel};
pub use runtime::{
    run_whatif, run_whatif_batched, ContinuationPolicy, EnvBlueprint, FaultPolicy, RuntimeError,
    TransportConfig, WhatIfPayload, WhatIfTask,
};
pub use spec::{Deployment, ExecSpec};
