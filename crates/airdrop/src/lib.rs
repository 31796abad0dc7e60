//! # airdrop-sim — the Airdrop Package Delivery Simulator
//!
//! Reimplementation of the paper's case study (§IV): a `gym` environment
//! in which an agent pilots a parachute canopy (parafoil) toward a ground
//! target. The original simulator is proprietary (DGA); this crate builds
//! a physically-motivated substitute with exactly the couplings the study
//! depends on (DESIGN.md §3):
//!
//! * the canopy dynamics are integrated with **Runge–Kutta methods of
//!   configurable order (3, 5 or 8)** — the environment-dependent
//!   parameter of Table I; higher order costs more derivative evaluations
//!   per step and tracks the true dynamics more accurately;
//! * **wind** and probabilistic **gusts** can be enabled (§IV-B);
//! * the **drop altitude** is sampled uniformly from a configurable
//!   interval (default `[30, 1000]` units, §V-a);
//! * the reward measures **how close the package lands to the target**
//!   (§IV-A, Algorithm 1).
//!
//! The episode loop matches the paper's Algorithm 1: drop the package,
//! then at every control interval the agent observes the canopy state and
//! commands a steering (rotation) input until the package touches down.
//!
//! ```
//! use airdrop_sim::{AirdropConfig, AirdropEnv};
//! use gymrs::{Action, Environment};
//!
//! let mut env = AirdropEnv::new(AirdropConfig::default());
//! env.seed(7);
//! let mut obs = env.reset();
//! let mut steps = 0u32;
//! loop {
//!     let s = env.step(&Action::Continuous(vec![0.2]));
//!     steps += 1;
//!     obs = s.obs;
//!     if s.terminated { break; }
//! }
//! assert!(steps > 0 && obs.len() == AirdropEnv::OBS_DIM);
//! ```

pub mod batch;
pub mod config;
pub mod dynamics;
pub mod env;
pub(crate) mod trajectory;
pub mod wind;

pub use batch::BatchedAirdropDynamics;
pub use config::{ActionMode, AirdropConfig};
pub use env::AirdropEnv;
pub use trajectory::TrajectoryRecorder;
