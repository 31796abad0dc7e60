//! Evaluation metrics: the methodology's stage (d).
//!
//! "These metrics set the main objective of the study" (§III-B). A metric
//! has a name and an optimization [`Direction`]; the study collects one
//! value per metric per trial, and the ranking stage interprets them
//! through their directions.
//!
//! ## Distribution-first evaluation
//!
//! Each metric value may carry a full per-trial [`Distribution`] next to
//! its scalar: the scalar stays exactly what the legacy path computed
//! (so Table I and the WAL reproduce bitwise), while the distribution
//! feeds dispersion (IQR), tail risk (CVaR) and bootstrap confidence
//! intervals. A [`MetricDef`] optionally names a [`Risk`] spec; the
//! ranking stage then reads trials through it, degrading gracefully to the
//! scalar when no distribution was recorded.

use crate::distribution::{Bootstrap, BootstrapSpec, Distribution};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A typed metric name: a newtype over `&'static str` shared by metric
/// definitions, per-trial [`MetricValues`] and the telemetry rollup, so
/// that the well-known names below are spelled once and checked by the
/// compiler instead of stringly re-typed at every call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricKey(pub &'static str);

impl MetricKey {
    /// The underlying metric name.
    pub fn name(self) -> &'static str {
        self.0
    }
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// Well-known metric keys used across the study and bench crates.
pub mod keys {
    use super::MetricKey;

    /// Final policy reward (the paper's Reward metric; maximize).
    pub const REWARD: MetricKey = MetricKey("reward");

    /// Std-dev of the final reward across evaluation episodes.
    pub const REWARD_STD: MetricKey = MetricKey("reward_std");

    /// Computation Time in minutes (Table I; minimize).
    pub const TIME_MIN: MetricKey = MetricKey("time_min");

    /// Power Consumption in kilojoules (Table I; minimize).
    pub const POWER_KJ: MetricKey = MetricKey("power_kj");

    /// Unscaled simulated minutes of the shortened benchmark run.
    pub const RAW_MINUTES: MetricKey = MetricKey("raw_minutes");

    /// Environment steps actually consumed by the trial.
    pub const ENV_STEPS: MetricKey = MetricKey("env_steps");

    /// Bytes shipped across the simulated interconnect.
    pub const BYTES_MOVED: MetricKey = MetricKey("bytes_moved");

    /// Fraction of replicas that finished degraded (a worker was
    /// quarantined mid-trial and the survivors absorbed its share):
    /// 0.0 = every replica ran on the full worker set.
    pub const DEGRADED: MetricKey = MetricKey("degraded");

    /// Std-dev of the pooled per-episode evaluation returns (the std of
    /// the stored [`super::keys::REWARD`] distribution). Distinct from
    /// [`REWARD_STD`], which Table I uses: that one is the spread of the
    /// per-replica *mean* rewards (0.0 for single-replica rows).
    pub const REWARD_STD_EPISODES: MetricKey = MetricKey("reward_std_episodes");

    /// Mean of the per-iteration training reward stream (replica 0's
    /// `driver.iteration` telemetry events); its distribution carries the
    /// learning-curve dispersion and max drawdown.
    pub const REWARD_ITER: MetricKey = MetricKey("reward_iter");

    /// Every key above, so that a name read as text borrows its key.
    pub(crate) const ALL: [MetricKey; 10] = [
        REWARD,
        REWARD_STD,
        TIME_MIN,
        POWER_KJ,
        RAW_MINUTES,
        ENV_STEPS,
        BYTES_MOVED,
        DEGRADED,
        REWARD_STD_EPISODES,
        REWARD_ITER,
    ];
}

/// Whether larger or smaller values are better.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Larger is better (Reward).
    Maximize,
    /// Smaller is better (Computation Time, Power Consumption).
    Minimize,
}

impl Direction {
    /// `a` is better than `b` under this direction.
    pub(crate) fn better(self, a: f64, b: f64) -> bool {
        match self {
            Direction::Maximize => a > b,
            Direction::Minimize => a < b,
        }
    }

    /// `a` is at least as good as `b`.
    pub(crate) fn no_worse(self, a: f64, b: f64) -> bool {
        match self {
            Direction::Maximize => a >= b,
            Direction::Minimize => a <= b,
        }
    }

    /// Map a value to "bigger is better" orientation.
    pub(crate) fn orient(self, v: f64) -> f64 {
        match self {
            Direction::Maximize => v,
            Direction::Minimize => -v,
        }
    }
}

/// How the ranking stage reads a metric's per-trial evidence.
///
/// There is one ranking path and this is its only knob: every ranking
/// entry point reads a metric through the spec on its [`MetricDef`].
/// `Mean` reads the stored scalar, never the distribution, so a study
/// that records distributions but asks for no risk spec ranks by exactly
/// the numbers its tables print. The risk-sensitive variants consult the
/// trial's [`Distribution`] (falling back to the scalar when none was
/// recorded) and always resolve toward the *pessimistic* side of the
/// metric's [`Direction`]: the lower tail / CI bound for `Maximize`, the
/// upper for `Minimize`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum Risk {
    /// Rank by the stored scalar mean (the default).
    #[default]
    Mean,
    /// Rank by CVaR at the given tail mass `alpha` in `(0, 1]`:
    /// the mean of the worst `alpha`-fraction of samples.
    Cvar(f64),
    /// Rank by the pessimistic endpoint of a bootstrap confidence
    /// interval at the given `level` in `(0, 1)`.
    LowerCi(f64),
}

impl Risk {
    /// The resampler for a column read through this risk: `spec` at the
    /// `LowerCi` level (the other readings never resample).
    pub(crate) fn bootstrap(self, spec: &BootstrapSpec) -> Bootstrap {
        let level = match self {
            Risk::LowerCi(level) => level,
            Risk::Mean | Risk::Cvar(_) => spec.level,
        };
        Bootstrap::new(BootstrapSpec { level, ..*spec })
    }
}

// `Cvar`/`LowerCi` carry parameters that are always finite, user-chosen
// constants, so bit-level equality is the right equivalence and `Risk`
// can participate in `MetricDef`'s derived `Eq`/`Hash`.
impl Eq for Risk {}

impl Hash for Risk {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Risk::Mean => 0u8.hash(state),
            Risk::Cvar(a) => {
                1u8.hash(state);
                a.to_bits().hash(state);
            }
            Risk::LowerCi(l) => {
                2u8.hash(state);
                l.to_bits().hash(state);
            }
        }
    }
}

/// A named metric with an optimization direction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MetricDef {
    /// Metric name (key in [`MetricValues`]).
    pub name: String,
    /// Optimization direction.
    pub direction: Direction,
    /// How ranking reads this metric's evidence (defaults to the
    /// legacy scalar mean).
    pub risk: Risk,
}

impl MetricDef {
    /// A metric to maximize.
    pub fn maximize(name: impl Into<String>) -> Self {
        Self { name: name.into(), direction: Direction::Maximize, risk: Risk::Mean }
    }

    /// A metric to minimize.
    pub fn minimize(name: impl Into<String>) -> Self {
        Self { name: name.into(), direction: Direction::Minimize, risk: Risk::Mean }
    }

    /// Builder-style risk spec: the same metric read through CVaR or a
    /// bootstrap CI bound instead of the scalar mean.
    pub fn with_risk(mut self, risk: Risk) -> Self {
        self.risk = risk;
        self
    }

    /// A typed-key metric to maximize.
    pub fn maximize_key(key: MetricKey) -> Self {
        Self::maximize(key.name())
    }

    /// A typed-key metric to minimize.
    pub fn minimize_key(key: MetricKey) -> Self {
        Self::minimize(key.name())
    }

    /// The paper's three study metrics (§V-d).
    pub fn paper_metrics() -> Vec<MetricDef> {
        vec![
            MetricDef::maximize_key(keys::REWARD),
            MetricDef::minimize_key(keys::TIME_MIN),
            MetricDef::minimize_key(keys::POWER_KJ),
        ]
    }
}

/// One metric's evidence for one trial: the scalar that Table I and the
/// WAL record, plus the sample distribution behind it when the trial
/// captured one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MetricSample<'a> {
    /// The legacy scalar value (exactly what the scalar path stored).
    pub(crate) value: f64,
    /// The per-trial sample distribution, when recorded.
    pub(crate) distribution: Option<&'a Distribution>,
}

impl MetricSample<'_> {
    /// Read this sample through a risk spec.
    ///
    /// `Risk::Mean` returns the stored scalar unchanged. The risk-sensitive
    /// variants consult the distribution and degrade gracefully to the
    /// scalar when the trial recorded none. The resampler is passed in, so
    /// that a walk down a column of trials shares one resample plan;
    /// `boot` must come from [`Risk::bootstrap`] of the same `risk`.
    pub(crate) fn risk_value_with(
        &self,
        direction: Direction,
        risk: Risk,
        boot: &mut Bootstrap,
    ) -> f64 {
        let dist = match (risk, self.distribution) {
            (Risk::Mean, _) | (_, None) => return self.value,
            (_, Some(d)) if d.is_empty() => return self.value,
            (_, Some(d)) => d,
        };
        match (risk, direction) {
            (Risk::Mean, _) => self.value,
            (Risk::Cvar(alpha), Direction::Maximize) => dist.cvar_lower(alpha),
            (Risk::Cvar(alpha), Direction::Minimize) => dist.cvar_upper(alpha),
            (Risk::LowerCi(_), Direction::Maximize) => boot.ci(dist).lo,
            (Risk::LowerCi(_), Direction::Minimize) => boot.ci(dist).hi,
        }
    }
}

/// A record's field name: a typed key's `&'static str`, borrowed, or any
/// other name in a shared allocation. A clone copies no byte of it.
///
/// Names compare, order and hash as their text, whichever way they are
/// held.
#[derive(Clone)]
pub(crate) enum Name {
    /// A [`MetricKey`]'s name.
    Key(&'static str),
    /// Any other name.
    Shared(Arc<str>),
}

impl Name {
    /// The name spelled `text`: a typed key's, borrowed, when one is
    /// spelled so, and a shared copy of `text` otherwise.
    pub(crate) fn of(text: &str) -> Name {
        match keys::ALL.iter().find(|key| key.0 == text) {
            Some(key) => Name::Key(key.0),
            None => Name::Shared(text.into()),
        }
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        match self {
            Name::Key(text) => text,
            Name::Shared(text) => text,
        }
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl From<MetricKey> for Name {
    fn from(key: MetricKey) -> Name {
        Name::Key(key.0)
    }
}

impl From<&str> for Name {
    fn from(text: &str) -> Name {
        Name::of(text)
    }
}

impl From<String> for Name {
    fn from(text: String) -> Name {
        Name::of(&text)
    }
}

/// A map from [`Name`]s to values on one vector, in name order: what a
/// record of a few named values needs of an ordered map — `get`, overwrite
/// on insert, iteration and equality in name order, a map's `Debug` — at
/// the size of its entries.
#[derive(Clone)]
pub(crate) struct Named<V> {
    entries: Vec<(Name, V)>,
}

impl<V> Default for Named<V> {
    fn default() -> Self {
        Self { entries: Vec::new() }
    }
}

impl<V> Named<V> {
    fn find(&self, name: &str) -> Result<usize, usize> {
        self.entries.binary_search_by(|(key, _)| (**key).cmp(name))
    }

    /// The value under `name`.
    pub(crate) fn get(&self, name: &str) -> Option<&V> {
        self.find(name).ok().map(|i| &self.entries[i].1)
    }

    /// Put `value` under `name`, in place of the one there. The vector
    /// grows by one entry at a time: a record holds a handful of names
    /// and lives as long as its study, so spare capacity would be a large
    /// share of it. Names that arrive in order, as a journal's do, append.
    pub(crate) fn insert(&mut self, name: Name, value: V) {
        match self.find(&name) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => {
                self.entries.reserve_exact(1);
                self.entries.insert(i, (name, value));
            }
        }
    }

    /// `(name, value)` in name order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &V)> {
        self.entries.iter().map(|(name, value)| (&**name, value))
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<V: PartialEq> PartialEq for Named<V> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<V: fmt::Debug> fmt::Debug for Named<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Metric values collected for one trial.
///
/// Scalars live in their own map, so every existing study journal,
/// rollup and report reproduces bitwise; distributions ride in a
/// separate side table, journaled by the WAL as separate `d.`-prefixed
/// fields (see `wal::push_metrics`) that leave the legacy `m.` fields
/// untouched.
///
/// A clone allocates one vector per non-empty map and shares every name
/// and every distribution's samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricValues {
    values: Named<f64>,
    dists: Named<Distribution>,
}

impl MetricValues {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style insertion.
    pub fn with(mut self, name: impl Into<String>, v: f64) -> Self {
        self.set(name.into(), v);
        self
    }

    /// Insert a value.
    pub(crate) fn set(&mut self, name: impl Into<Name>, v: f64) {
        self.values.insert(name.into(), v);
    }

    /// Look a value up.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Builder-style insertion under a typed key.
    pub fn with_key(mut self, key: MetricKey, v: f64) -> Self {
        self.set(key, v);
        self
    }

    /// Insert a value under a typed key.
    pub fn set_key(&mut self, key: MetricKey, v: f64) {
        self.set(key, v);
    }

    /// Look a typed key up.
    pub fn get_key(&self, key: MetricKey) -> Option<f64> {
        self.get(key.name())
    }

    /// Attach a sample distribution to a metric. The scalar stored under
    /// the same name is left untouched — the distribution is evidence
    /// *about* the scalar, not a replacement for it.
    pub fn set_distribution(&mut self, name: impl Into<String>, dist: Distribution) {
        self.put_distribution(name.into(), dist);
    }

    /// [`Self::set_distribution`] under any name.
    pub(crate) fn put_distribution(&mut self, name: impl Into<Name>, dist: Distribution) {
        self.dists.insert(name.into(), dist);
    }

    /// Builder-style [`Self::set_distribution`].
    pub fn with_distribution(mut self, name: impl Into<String>, dist: Distribution) -> Self {
        self.set_distribution(name, dist);
        self
    }

    /// Attach a distribution under a typed key.
    pub fn set_distribution_key(&mut self, key: MetricKey, dist: Distribution) {
        self.put_distribution(key, dist);
    }

    /// The sample distribution recorded for a metric, if any.
    pub(crate) fn distribution(&self, name: &str) -> Option<&Distribution> {
        self.dists.get(name)
    }

    /// `Self::distribution` under a typed key.
    pub fn distribution_key(&self, key: MetricKey) -> Option<&Distribution> {
        self.distribution(key.name())
    }

    /// Scalar + distribution view of one metric (`None` when not even a
    /// scalar was recorded).
    pub(crate) fn sample(&self, name: &str) -> Option<MetricSample<'_>> {
        self.get(name).map(|value| MetricSample { value, distribution: self.dists.get(name) })
    }

    /// Whether every given metric has a finite value here.
    pub(crate) fn covers(&self, metrics: &[MetricDef]) -> bool {
        metrics.iter().all(|m| self.get(&m.name).map(f64::is_finite).unwrap_or(false))
    }

    /// Iterate `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, v)| (k, *v))
    }

    /// Iterate `(name, distribution)` in name order.
    pub(crate) fn distributions(&self) -> impl Iterator<Item = (&str, &Distribution)> {
        self.dists.iter()
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamValue;
    use crate::trial::Configuration;
    use crate::wal::StudyEvent;
    use testkit::{sweep, Gen};

    #[test]
    fn direction_comparisons() {
        assert!(Direction::Maximize.better(2.0, 1.0));
        assert!(!Direction::Maximize.better(1.0, 1.0));
        assert!(Direction::Minimize.better(1.0, 2.0));
        assert!(Direction::Maximize.no_worse(1.0, 1.0));
        assert!(Direction::Minimize.no_worse(1.0, 1.0));
    }

    #[test]
    fn orient_flips_minimize() {
        assert_eq!(Direction::Maximize.orient(3.0), 3.0);
        assert_eq!(Direction::Minimize.orient(3.0), -3.0);
    }

    #[test]
    fn paper_metrics_match_section_v() {
        let m = MetricDef::paper_metrics();
        assert_eq!(m.len(), 3);
        assert_eq!(m[0].name, "reward");
        assert_eq!(m[0].direction, Direction::Maximize);
        assert_eq!(m[1].direction, Direction::Minimize);
        assert_eq!(m[2].direction, Direction::Minimize);
    }

    #[test]
    fn values_cover_check() {
        let v = MetricValues::new().with("reward", -0.5).with("time_min", 46.0);
        assert!(v.covers(&[MetricDef::maximize("reward")]));
        assert!(!v.covers(&MetricDef::paper_metrics()), "power_kj missing");
        let nan = MetricValues::new().with("reward", f64::NAN);
        assert!(!nan.covers(&[MetricDef::maximize("reward")]), "NaN does not cover");
    }

    #[test]
    fn iteration_in_name_order() {
        let v = MetricValues::new().with("b", 2.0).with("a", 1.0);
        let names: Vec<&str> = v.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn typed_keys_alias_string_names() {
        let mut v = MetricValues::new().with_key(keys::REWARD, -0.5);
        v.set_key(keys::TIME_MIN, 46.0);
        assert_eq!(v.get("reward"), Some(-0.5));
        assert_eq!(v.get_key(keys::TIME_MIN), Some(46.0));
        assert_eq!(keys::POWER_KJ.to_string(), "power_kj");
        assert_eq!(MetricDef::maximize_key(keys::REWARD), MetricDef::maximize("reward"));
    }

    fn grid_dist() -> Distribution {
        (1..=100).map(f64::from).collect()
    }

    /// One metric read through its def's risk spec, the way the ranking
    /// engine reads it.
    fn read(v: &MetricValues, def: &MetricDef) -> Option<f64> {
        let mut boot = def.risk.bootstrap(&BootstrapSpec::default());
        v.sample(&def.name).map(|s| s.risk_value_with(def.direction, def.risk, &mut boot))
    }

    #[test]
    fn risk_mean_reads_stored_scalar_not_distribution_mean() {
        // The stored scalar deliberately disagrees with the distribution
        // mean: Risk::Mean must return the scalar bit-for-bit.
        let mut v = MetricValues::new().with_key(keys::REWARD, 7.25);
        v.set_distribution_key(keys::REWARD, grid_dist());
        let def = MetricDef::maximize_key(keys::REWARD);
        let got = read(&v, &def).unwrap();
        assert_eq!(got.to_bits(), 7.25f64.to_bits());
    }

    #[test]
    fn risk_cvar_orients_with_direction() {
        let mut v = MetricValues::new().with_key(keys::REWARD, 50.5);
        v.set_distribution_key(keys::REWARD, grid_dist());
        let max = MetricDef::maximize_key(keys::REWARD).with_risk(Risk::Cvar(0.1));
        assert_eq!(read(&v, &max), Some(5.5), "worst tail for maximize is low");
        let min = MetricDef::minimize_key(keys::REWARD).with_risk(Risk::Cvar(0.1));
        assert_eq!(read(&v, &min), Some(95.5), "worst tail for minimize is high");
    }

    #[test]
    fn risk_lower_ci_orients_with_direction() {
        let mut v = MetricValues::new().with_key(keys::REWARD, 50.5);
        v.set_distribution_key(keys::REWARD, grid_dist());
        let mean = grid_dist().mean();
        let lo = read(&v, &MetricDef::maximize_key(keys::REWARD).with_risk(Risk::LowerCi(0.95)));
        let hi = read(&v, &MetricDef::minimize_key(keys::REWARD).with_risk(Risk::LowerCi(0.95)));
        let (lo, hi) = (lo.unwrap(), hi.unwrap());
        assert!(lo < mean && mean < hi, "{lo} < {mean} < {hi}");
    }

    #[test]
    fn risk_falls_back_to_scalar_without_distribution() {
        let v = MetricValues::new().with_key(keys::TIME_MIN, 46.0);
        let def = MetricDef::minimize_key(keys::TIME_MIN).with_risk(Risk::Cvar(0.25));
        assert_eq!(read(&v, &def), Some(46.0));
        assert!(v.sample(keys::TIME_MIN.name()).unwrap().distribution.is_none());
        assert!(v.sample("absent").is_none());
    }

    #[test]
    fn distribution_attach_keeps_scalar() {
        let mut v = MetricValues::new().with_key(keys::REWARD, 1.5);
        v.set_distribution_key(keys::REWARD, grid_dist());
        assert_eq!(v.get_key(keys::REWARD), Some(1.5));
        assert_eq!(v.distribution_key(keys::REWARD).unwrap().len(), 100);
        assert_eq!(v.len(), 1, "distribution does not add a scalar entry");
        let s = v.sample(keys::REWARD.name()).unwrap();
        assert_eq!(s.distribution.map(Distribution::len), Some(100));
    }

    #[test]
    fn risk_is_eq_and_hashable_by_bits() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(MetricDef::maximize("r").with_risk(Risk::Cvar(0.1)));
        assert!(set.contains(&MetricDef::maximize("r").with_risk(Risk::Cvar(0.1))));
        assert!(!set.contains(&MetricDef::maximize("r").with_risk(Risk::Cvar(0.2))));
        assert!(!set.contains(&MetricDef::maximize("r")));
        assert_eq!(Risk::default(), Risk::Mean);
    }

    /// Names that sort before, between and after the typed keys'.
    const CUSTOM: [&str; 9] =
        ["", "A", "a", "env_steps_", "power", "reward_s", "rewards", "zeta", "\u{f1}o"];

    /// A name of the pool: a typed key or a custom name.
    fn name(g: &mut Gen) -> (&'static str, Option<MetricKey>) {
        if g.bool() {
            let key = *g.pick(&keys::ALL);
            (key.0, Some(key))
        } else {
            (*g.pick(&CUSTOM), None)
        }
    }

    /// One insert into both representations of a metric record, through
    /// the typed or the textual entry point.
    fn insert_metric(g: &mut Gen, new: &mut MetricValues, old: &mut oracle::MetricValues) {
        let (text, key) = name(g);
        if g.below(3) == 0 {
            let dist = Distribution::from_samples(g.vec(0..6, |g| *g.pick(&[-0.0, 0.5, 2.0])));
            match key.filter(|_| g.bool()) {
                Some(key) => new.set_distribution_key(key, dist.clone()),
                None => new.set_distribution(text, dist.clone()),
            }
            old.set_distribution(text, dist);
        } else {
            let v = *g.pick(&[0.0, -0.0, 1.5, -2.25, f64::NAN, f64::INFINITY, 1e-300]);
            match key.filter(|_| g.bool()) {
                Some(key) => new.set_key(key, v),
                None => *new = std::mem::take(new).with(text, v),
            }
            old.set(text, v);
        }
    }

    /// One assignment into both representations of a configuration.
    fn insert_param(g: &mut Gen, new: &mut Configuration, old: &mut oracle::Configuration) {
        let text = name(g).0;
        let v = match g.below(4) {
            0 => ParamValue::Int(*g.pick(&[-3, 0, 1, i64::MAX])),
            1 => ParamValue::Float(*g.pick(&[1.0, -0.0, 0.1, f64::NAN])),
            2 => ParamValue::Str(g.pick(&["PPO", "", "a,b", "q\"t", "1"]).to_string()),
            _ => ParamValue::Bool(g.bool()),
        };
        if g.bool() {
            *new = std::mem::take(new).with(text, v.clone());
        } else {
            new.set(text, v.clone());
        }
        old.set(text, v);
    }

    /// A record in both representations, built by `steps` random inserts,
    /// overwrites among them.
    fn records(
        g: &mut Gen,
        steps: usize,
    ) -> ((MetricValues, Configuration), (oracle::MetricValues, oracle::Configuration)) {
        let (mut new, mut old) = Default::default();
        let (mut new_cfg, mut old_cfg) = Default::default();
        for _ in 0..steps {
            insert_metric(g, &mut new, &mut old);
            insert_param(g, &mut new_cfg, &mut old_cfg);
        }
        ((new, new_cfg), (old, old_cfg))
    }

    fn bits(v: Option<f64>) -> Option<u64> {
        v.map(f64::to_bits)
    }

    #[test]
    fn records_read_as_the_map_oracle_did() {
        let every_name: Vec<&str> =
            keys::ALL.iter().map(|k| k.0).chain(CUSTOM).chain(["absent", "rewar"]).collect();
        sweep(300, 0x05EC_04D5, |g| {
            let steps = g.below(24);
            let ((m, cfg), (om, ocfg)) = records(g, steps);
            let pairs = |it: &mut dyn Iterator<Item = (&str, f64)>| {
                it.map(|(k, v)| (k.to_string(), v.to_bits())).collect::<Vec<_>>()
            };
            assert_eq!(pairs(&mut m.iter()), pairs(&mut om.iter()));
            let dists = |it: &mut dyn Iterator<Item = (&str, &Distribution)>| {
                it.map(|(k, d)| (k.to_string(), d.clone())).collect::<Vec<_>>()
            };
            assert_eq!(dists(&mut m.distributions()), dists(&mut om.distributions()));
            let params = |it: &mut dyn Iterator<Item = (&str, &ParamValue)>| {
                it.map(|(k, v)| format!("{k}:{v:?}")).collect::<Vec<_>>()
            };
            assert_eq!(params(&mut cfg.iter()), params(&mut ocfg.iter()));
            for &name in &every_name {
                assert_eq!(bits(m.get(name)), bits(om.get(name)), "{name}");
                assert_eq!(m.distribution(name), om.distribution(name), "{name}");
                assert_eq!(
                    format!("{:?}", cfg.get(name)),
                    format!("{:?}", ocfg.get(name)),
                    "{name}"
                );
            }
            assert_eq!(format!("{m:?}"), format!("{om:?}"));
            assert_eq!(format!("{m:#?}"), format!("{om:#?}"));
            assert_eq!(format!("{cfg:?}"), format!("{ocfg:?}"));
            assert_eq!(cfg.to_string(), ocfg.to_string());
            assert_eq!(cfg.canonical_key(), ocfg.canonical_key());
            let seq = g.u64() >> 12;
            let line = StudyEvent::TrialReused {
                trial: 7,
                config: cfg.clone(),
                status: crate::trial::TrialStatus::Complete,
                metrics: m.clone(),
                intermediate: Vec::new(),
            }
            .to_line(seq);
            assert_eq!(line, oracle::reused_line(seq, 7, &ocfg, "complete", &om));
        });
    }

    #[test]
    fn records_compare_as_the_map_oracle_did() {
        sweep(400, 0xE0_4A15, |g| {
            let steps = g.below(8);
            // Half the time the second record replays the first's inserts,
            // one more or not, so that equal records are common.
            let replay = g.u64();
            let ((a, a_cfg), (oa, oa_cfg)) = records(&mut Gen::new(replay), steps);
            let (seed, more) =
                if g.bool() { (replay, steps + g.below(2)) } else { (g.u64(), g.below(8)) };
            let ((b, b_cfg), (ob, ob_cfg)) = records(&mut Gen::new(seed), more);
            assert_eq!(a == b, oa == ob, "{a:?} vs {b:?}");
            assert_eq!(a_cfg == b_cfg, oa_cfg == ob_cfg, "{a_cfg:?} vs {b_cfg:?}");
            assert_eq!(a.len(), oa.iter().count());
            assert_eq!(a.is_empty(), oa.iter().next().is_none());
            assert_eq!(a_cfg.len(), oa_cfg.iter().count());
        });
    }
}
