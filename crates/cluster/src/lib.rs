//! # cluster-sim — a simulated compute cluster
//!
//! The paper measures Computation Time and Power Consumption on a physical
//! 2-node cluster (Intel Xeon W-2102, 16 GB RAM, 1 Gbps Ethernet, with the
//! power computed "as an equivalence with a consumption curve of the
//! CPU"). That testbed is a hardware gate for the reproduction, so this
//! crate replaces it with a cost model (DESIGN.md §3):
//!
//! * every training backend *counts* the real work it performs —
//!   derivative evaluations of the parachute dynamics (`rk-ode::Work`),
//!   neural-network FLOPs (`tinynn::forward_flops`) and bytes shipped
//!   between processes;
//! * a [`ClusterSession`] converts those counts into simulated wall-clock
//!   time, scheduling compute onto per-node cores, serializing transfers
//!   through the network link, and integrating a CPU power curve over the
//!   busy/idle profile to obtain energy in joules.
//!
//! The absolute constants (units/s per core, watts) are calibrated once in
//! `crates/bench/src/calibration.rs` against the paper's anchored numbers
//! (46 min / 201 kJ for configuration 2, etc.); the *relations* — more RK
//! stages ⇒ more time, more cores ⇒ less time but more instantaneous
//! power, 2 nodes ⇒ network stalls and double idle power — are structural
//! in this crate and tested here.

//!
//! ```
//! use cluster_sim::{ClusterSession, ClusterSpec};
//!
//! // Simulate 1M work units on 4 cores of one node, then a 10 MB upload.
//! let mut session = ClusterSession::new(ClusterSpec::paper_testbed(2));
//! session.compute(0, 1_000_000.0, 4);
//! session.transfer(10_000_000);
//! let usage = session.finish();
//! assert!(usage.minutes() > 3.0 && usage.kilojoules() > 0.0);
//! ```

pub mod gantt;
pub mod keys;
pub mod power;
pub mod rollup;
pub mod session;
pub mod spec;
pub mod usage;

pub use gantt::render_gantt;
pub use power::PowerModel;
pub use session::{ClusterSession, NodeWork, SessionEvent};
pub use spec::{ClusterSpec, NodeSpec};
pub use usage::Usage;
