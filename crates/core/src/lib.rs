//! # decision — a methodology to build decision analysis tools
//!
//! The primary contribution of the reproduced paper (Prigent et al.,
//! ScaDL 2022): a five-stage methodology for building decision analysis
//! tools that let ML experts arbitrate between frameworks, algorithms and
//! deployment configurations. Each stage of §III-B maps to a module:
//!
//! | Paper stage | Module |
//! |---|---|
//! | (a) the case study | the user's objective function (see [`study`]) |
//! | (b) learning configurations | [`param`], [`space`] — typed parameter spaces, split into environment-dependent and -independent parameters |
//! | (c) exploratory method | `explore` — Random Search, Grid Search, a TPE-like sampler, plus Optuna-style pruning ([`pruner`]) |
//! | (d) evaluation metrics | [`metrics`] — named metrics with optimization directions, each optionally carrying a per-trial sample [`distribution`] read through a [`metrics::Risk`] spec (mean, CVaR, bootstrap-CI bound) |
//! | (e) ranking method | [`rank`] — Pareto fronts (with 2-D hypervolume), sorted arrays, weighted sums: one engine behind [`rank::RankSpec`] and the per-method names, every metric read through its risk spec, plus a CI-gated sort |
//!
//! [`study::Study`] wires the stages together and journals every trial to
//! disk ([`storage`]); [`report`] renders Table-I-style ASCII tables, CSV,
//! and the SVG scatter plots of Figures 4–6.
//!
//! ```
//! use decision::prelude::*;
//!
//! let space = ParamSpace::builder()
//!     .categorical("rk_order", ["3", "5", "8"])
//!     .int("cores", 2, 4)
//!     .build();
//! let study = Study::builder("demo")
//!     .space(space)
//!     .explorer(RandomSearch::new(6))
//!     .metric(MetricDef::maximize("reward"))
//!     .metric(MetricDef::minimize("time_s"))
//!     .objective(|cfg: &Configuration, _ctx: &mut TrialContext| {
//!         let cores = cfg.int("cores").unwrap() as f64;
//!         let order: f64 = cfg.str("rk_order").unwrap().parse().unwrap();
//!         Ok(MetricValues::new()
//!             .with("reward", -1.0 / order)
//!             .with("time_s", order * 100.0 / cores))
//!     })
//!     .build()
//!     .unwrap();
//! let trials = study.run().unwrap();
//! assert_eq!(trials.len(), 6);
//! let front = ParetoFront::compute(&trials, &study.metrics());
//! assert!(!front.indices().is_empty());
//! ```

pub mod cache;
pub mod distribution;
pub(crate) mod explore;
pub mod metrics;
pub mod param;
pub mod pruner;
pub mod rank;
pub mod report;
pub mod server;
pub mod space;
pub mod spread;
pub mod storage;
pub mod study;
pub mod trial;
pub mod wal;

/// Convenient glob import for downstream users.
pub mod prelude {
    pub use crate::cache::TrialCache;
    pub use crate::distribution::{BootstrapSpec, Distribution};
    pub use crate::explore::{Explorer, GridSearch, PresetList, RandomSearch, TpeLite};
    pub use crate::metrics::{
        keys as metric_keys, Direction, MetricDef, MetricKey, MetricValues, Risk,
    };
    pub use crate::param::{ParamKind, ParamValue};
    pub use crate::pruner::MedianPruner;
    pub use crate::rank::hypervolume::Hypervolume;
    pub use crate::rank::pareto::ParetoFront;
    pub use crate::rank::sorted::SortedRanking;
    pub use crate::rank::spec::{RankSpec, Ranker};
    pub use crate::rank::weighted::WeightedSum;
    pub use crate::server::{StudyOutcome, StudyServer};
    pub use crate::space::ParamSpace;
    pub use crate::storage::{Durability, Journal};
    pub use crate::study::{study_keys, Study, TrialContext};
    pub use crate::trial::{Configuration, Trial, TrialStatus};
    pub use crate::wal::{wal_keys, Replay, StudyEvent};
}

pub use prelude::*;
