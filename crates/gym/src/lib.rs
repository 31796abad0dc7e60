//! # gymrs — gym-style environment abstraction
//!
//! The paper's case study is "provided as a `gym` environment"; its
//! frameworks differ in *how they drive* environments (Stable Baselines
//! vectorizes them, TF-Agents parallelizes a driver, RLlib distributes
//! rollout workers). This crate provides the substrate all of them share:
//!
//! * [`space`] — observation/action spaces (`Discrete`, `Box`);
//! * [`mod@env`] — the [`Environment`] trait (reset/step/seed) with per-step
//!   work accounting for the cluster cost model;
//! * [`vec_env`] — synchronous vectorized environments (the Stable
//!   Baselines mechanism: one sub-environment per CPU core);
//! * [`rollout`] — episode statistics;
//! * [`envs`] — small reference environments (`GridWorld`, `PointMass`)
//!   used to validate the RL algorithms independently of the airdrop
//!   simulator.

pub mod env;
pub mod envs;
pub mod keys;
pub mod rollout;
pub mod space;
pub mod vec_env;

pub use env::{Action, EnvSnapshot, Environment, SnapshotError, Step};
pub use space::Space;
pub use vec_env::VecEnv;
