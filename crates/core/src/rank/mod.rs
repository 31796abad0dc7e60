//! Ranking methods: the methodology's stage (e).
//!
//! "This method classifies the different solutions by building a
//! hierarchy between them. […] Pareto front or sorted arrays are examples
//! of ranking methods" (§III-B). The paper's study uses Pareto fronts
//! (Figures 4–6); sorted arrays and weighted-sum scalarization are the
//! textual alternatives, and the 2-D hypervolume indicator quantifies
//! front quality.
//!
//! One engine implements them all ([`spec`]), reading every metric
//! through the [`crate::metrics::Risk`] spec on its def. [`RankSpec`]
//! selects a method and returns a uniform [`spec::Ranking`]; [`ParetoFront`],
//! [`SortedRanking`], [`WeightedSum`] and [`Hypervolume`] are named
//! presets of it that return their own shapes.

pub mod hypervolume;
pub mod pareto;
pub mod sorted;
pub mod spec;
pub mod weighted;

pub use hypervolume::Hypervolume;
pub use pareto::ParetoFront;
pub use sorted::SortedRanking;
pub use spec::{RankSpec, Ranker};
pub use weighted::WeightedSum;

#[cfg(test)]
pub(crate) mod sweep;
