//! Parameter spaces: the study's "learning configurations" stage.

use crate::param::{Domain, Draw, ParamDef, ParamKind, ParamValue};
use crate::trial::Configuration;
use rand::Rng;

/// An ordered set of parameter definitions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParamSpace {
    params: Vec<ParamDef>,
}

impl ParamSpace {
    /// Start building a space.
    pub fn builder() -> ParamSpaceBuilder {
        ParamSpaceBuilder::default()
    }

    /// The definitions, in declaration order.
    pub(crate) fn params(&self) -> &[ParamDef] {
        &self.params
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are defined.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Sample a configuration uniformly at random (the Random Search
    /// primitive: "takes random combinations of parameters", §V-c).
    pub fn sample(&self, rng: &mut impl Rng) -> Configuration {
        let mut cfg = Configuration::new();
        for p in &self.params {
            cfg.set(&p.name, p.domain.value(p.domain.draw(rng)));
        }
        cfg
    }

    /// The configuration of one draw per parameter, in declaration order.
    pub(crate) fn configuration(&self, draws: &[Draw]) -> Configuration {
        let mut cfg = Configuration::new();
        for (p, &draw) in self.params.iter().zip(draws) {
            cfg.set(&p.name, p.domain.value(draw));
        }
        cfg
    }

    /// Enumerate the full Cartesian product (Grid Search), the last
    /// parameter varying fastest: every `grid_point` in index order.
    /// Panics when a domain is continuous.
    pub fn grid(&self) -> Vec<Configuration> {
        (0..).map_while(|i| self.grid_point(i)).collect()
    }

    /// Point `i` of the grid, `None` past the last one, computed from the
    /// parameters' value lists alone: `i` counted in mixed radix, the last
    /// parameter varying fastest. Panics when a domain is continuous.
    pub(crate) fn grid_point(&self, mut i: usize) -> Option<Configuration> {
        let mut draws = Vec::with_capacity(self.params.len());
        for p in self.params.iter().rev() {
            let k = match p.domain.grid_len() {
                Some(len) => {
                    let k = i % len;
                    i /= len;
                    k
                }
                // More values than indices: the whole index is this digit.
                None => std::mem::take(&mut i),
            };
            draws.push(p.domain.grid_draw(k));
        }
        draws.reverse();
        (i == 0).then(|| self.configuration(&draws))
    }

    /// Whether a configuration assigns a valid value to every parameter.
    pub fn contains(&self, cfg: &Configuration) -> bool {
        self.params.iter().all(|p| cfg.get(&p.name).map(|v| p.domain.contains(v)).unwrap_or(false))
    }
}

/// Fluent builder for [`ParamSpace`].
#[derive(Debug, Default)]
pub struct ParamSpaceBuilder {
    params: Vec<ParamDef>,
    kind: Option<ParamKind>,
}

impl ParamSpaceBuilder {
    /// Tag subsequently-added parameters with `kind`.
    pub fn kind(mut self, kind: ParamKind) -> Self {
        self.kind = Some(kind);
        self
    }

    fn push(mut self, name: impl Into<String>, domain: Domain) -> Self {
        let name = name.into();
        assert!(!self.params.iter().any(|p| p.name == name), "duplicate parameter name: {name}");
        self.params.push(ParamDef::new(name, self.kind.unwrap_or(ParamKind::Algorithm), domain));
        self
    }

    /// Add a categorical parameter from string labels.
    pub fn categorical<S: Into<String>>(
        self,
        name: impl Into<String>,
        values: impl IntoIterator<Item = S>,
    ) -> Self {
        let vals: Vec<ParamValue> = values.into_iter().map(|s| ParamValue::Str(s.into())).collect();
        assert!(!vals.is_empty(), "categorical domain must be non-empty");
        self.push(name, Domain::Categorical(vals))
    }

    /// Add a categorical parameter over integers.
    pub fn categorical_int(
        self,
        name: impl Into<String>,
        values: impl IntoIterator<Item = i64>,
    ) -> Self {
        let vals: Vec<ParamValue> = values.into_iter().map(ParamValue::Int).collect();
        assert!(!vals.is_empty(), "categorical domain must be non-empty");
        self.push(name, Domain::Categorical(vals))
    }

    /// Add an integer-range parameter (inclusive bounds).
    pub fn int(self, name: impl Into<String>, lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "empty int range");
        self.push(name, Domain::IntRange { lo, hi })
    }

    /// Add a float-range parameter.
    pub fn float(self, name: impl Into<String>, lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "empty float range");
        self.push(name, Domain::FloatRange { lo, hi, log: false })
    }

    /// Add a log-uniform float parameter (e.g. learning rates).
    pub fn log_float(self, name: impl Into<String>, lo: f64, hi: f64) -> Self {
        assert!(0.0 < lo && lo <= hi, "log range needs positive bounds");
        self.push(name, Domain::FloatRange { lo, hi, log: true })
    }

    /// Finish.
    pub fn build(self) -> ParamSpace {
        ParamSpace { params: self.params }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn paper_space() -> ParamSpace {
        // The study's five parameters (§V-b).
        ParamSpace::builder()
            .kind(ParamKind::Environment)
            .categorical_int("rk_order", [3, 5, 8])
            .kind(ParamKind::Algorithm)
            .categorical("framework", ["rllib", "stable_baselines", "tf_agents"])
            .categorical("algorithm", ["PPO", "SAC"])
            .kind(ParamKind::System)
            .categorical_int("nodes", [1, 2])
            .categorical_int("cores", [2, 4])
            .build()
    }

    #[test]
    fn grid_enumerates_every_combination_once() {
        let grid = paper_space().grid();
        assert_eq!(grid.len(), 72);
        let unique: std::collections::BTreeSet<String> =
            grid.iter().map(|c| c.canonical_key()).collect();
        assert_eq!(unique.len(), 72);
    }

    #[test]
    fn samples_are_always_contained() {
        let space = paper_space();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            assert!(space.contains(&space.sample(&mut rng)));
        }
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let space = paper_space();
        let a = space.sample(&mut StdRng::seed_from_u64(5));
        let b = space.sample(&mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn log_float_samples_span_decades() {
        let space = ParamSpace::builder().log_float("lr", 1e-5, 1e-1).build();
        let mut rng = StdRng::seed_from_u64(2);
        let mut low = 0;
        let mut high = 0;
        for _ in 0..500 {
            let v = space.sample(&mut rng).float("lr").unwrap();
            assert!((1e-5..=1e-1).contains(&v));
            if v < 1e-3 {
                low += 1;
            } else {
                high += 1;
            }
        }
        // Log-uniform: ~half the mass below the geometric midpoint 1e-3.
        assert!(low > 150 && high > 150, "low={low} high={high}");
    }

    #[test]
    fn contains_rejects_missing_and_out_of_domain() {
        let space = paper_space();
        let mut cfg = Configuration::new();
        assert!(!space.contains(&cfg), "missing params");
        cfg.set("rk_order", ParamValue::Int(4));
        assert!(!space.contains(&cfg), "4 is not a valid order");
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_names_rejected() {
        ParamSpace::builder().int("x", 0, 1).int("x", 0, 1).build();
    }
}
