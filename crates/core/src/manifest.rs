//! Declarative study manifests.
//!
//! The paper's §VII names automatic experimentation frameworks (E2Clab)
//! as the way to scale the methodology up. A [`StudyManifest`] captures
//! the declarative stages — space, explorer, metrics, pruning — as JSON,
//! so studies can be versioned, shared and launched without recompiling;
//! only the objective (stage a, the case study) remains code.
//!
//! [`StudyManifest::from_json`] reads the document through
//! [`telemetry::json`] straight into the types a study runs on
//! ([`ParamSpace`], [`MetricDef`]) and checks it by name: every way a
//! document can be wrong is a [`ManifestError`] variant carrying the path
//! of the offending value, and a key the format does not define is an
//! error rather than a silently applied default.
//!
//! ```
//! use decision::manifest::StudyManifest;
//! use decision::prelude::*;
//!
//! let manifest = StudyManifest::from_json(r#"{
//!     "name": "airdrop",
//!     "space": [
//!         {"name": "rk_order", "kind": "environment",
//!          "domain": {"type": "categorical_int", "values": [3, 5, 8]}},
//!         {"name": "lr", "kind": "algorithm",
//!          "domain": {"type": "log_float", "lo": 1e-5, "hi": 1e-2}}
//!     ],
//!     "explorer": {"type": "random", "budget": 4},
//!     "metrics": [
//!         {"name": "reward", "direction": "maximize"},
//!         {"name": "time_min", "direction": "minimize"}
//!     ],
//!     "seed": 7
//! }"#).unwrap();
//!
//! let study = manifest.into_study(|cfg, _ctx| {
//!     Ok(MetricValues::new()
//!         .with("reward", -1.0 / cfg.int("rk_order").unwrap() as f64)
//!         .with("time_min", cfg.int("rk_order").unwrap() as f64 * 10.0))
//! }).unwrap();
//! assert_eq!(study.run().unwrap().len(), 4);
//! ```

use crate::explore::{Explorer, GridSearch, RandomSearch, TpeLite};
use crate::metrics::{Direction, MetricDef, MetricValues, Risk};
use crate::param::{ParamDef, ParamKind};
use crate::pruner::{MedianPruner, NopPruner};
use crate::space::ParamSpace;
use crate::study::{Study, TrialContext};
use crate::trial::Configuration;
use telemetry::json::{self, Json};

/// Why a manifest document was refused. `path` names the value at fault
/// the way one would index into the document: `space[1].domain.lo`.
#[derive(Debug, Clone, PartialEq)]
pub enum ManifestError {
    /// Not a JSON document.
    Syntax {
        /// Byte offset the parser had reached.
        offset: usize,
        /// What it found wrong there.
        what: String,
    },
    /// A required field is absent.
    Missing {
        /// The absent field.
        path: String,
    },
    /// A value has the wrong JSON kind (a float-spelled number in an
    /// integer field included).
    WrongKind {
        /// The value at fault.
        path: String,
        /// What the format wants there.
        expected: &'static str,
        /// The JSON kind found.
        found: &'static str,
    },
    /// A `type`, `kind`, `direction` or `risk` tag the format does not define.
    UnknownTag {
        /// The tag's location.
        path: String,
        /// The tag as written.
        tag: String,
    },
    /// A well-formed value that describes nothing runnable.
    OutOfRange {
        /// The value at fault.
        path: String,
        /// The rule it breaks.
        what: String,
    },
    /// A key the format does not define at that place — most often a
    /// misspelt optional field whose default would otherwise silently apply.
    UnknownKey {
        /// The key, with its path.
        path: String,
    },
    /// The same key twice in one object.
    DuplicateKey {
        /// The key, with its path.
        path: String,
    },
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("manifest: ")?;
        match self {
            ManifestError::Syntax { offset, what } => {
                write!(f, "not JSON at byte {offset}: {what}")
            }
            ManifestError::Missing { path } => write!(f, "field '{path}' is missing"),
            ManifestError::WrongKind { path, expected, found } => {
                write!(f, "field '{path}' must be {expected}, got {found}")
            }
            ManifestError::UnknownTag { path, tag } => {
                write!(f, "field '{path}' has unknown tag '{tag}'")
            }
            ManifestError::OutOfRange { path, what } => {
                write!(f, "field '{path}' is out of range: {what}")
            }
            ManifestError::UnknownKey { path } => write!(f, "unknown key '{path}'"),
            ManifestError::DuplicateKey { path } => write!(f, "repeated key '{path}'"),
        }
    }
}

impl std::error::Error for ManifestError {}

/// Explorer selection in manifest form.
#[derive(Debug, Clone, PartialEq)]
pub enum ExplorerSpec {
    /// Random Search with a trial budget.
    Random {
        /// Number of trials.
        budget: usize,
        /// Skip duplicate configurations.
        dedup: bool,
    },
    /// Exhaustive grid (optionally capped).
    Grid {
        /// Optional cap on visited points.
        limit: Option<usize>,
    },
    /// TPE-like sampler optimizing one metric.
    Tpe {
        /// Trial budget.
        budget: usize,
        /// The metric to optimize.
        metric: String,
        /// Its direction.
        direction: Direction,
    },
}

/// Pruner selection.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum PrunerSpec {
    /// No pruning.
    #[default]
    None,
    /// Optuna-style median pruning.
    Median {
        /// Protected startup trials (4 when omitted).
        n_startup_trials: usize,
    },
}

/// A complete declarative study description (all stages except the
/// objective).
#[derive(Debug, Clone)]
pub struct StudyManifest {
    /// Study name.
    pub name: String,
    /// Stage (b): the parameter space.
    pub space: ParamSpace,
    /// Stage (c): the exploratory method.
    pub explorer: ExplorerSpec,
    /// Stage (d): the evaluation metrics.
    pub metrics: Vec<MetricDef>,
    /// Optional pruning.
    pub pruner: PrunerSpec,
    /// Exploration seed (0 when omitted).
    pub seed: u64,
}

impl StudyManifest {
    /// Read a manifest document. An optional field (`kind`, `dedup`,
    /// `limit`, `risk`, `n_startup_trials`, `pruner`, `seed`) that is
    /// absent or `null` takes its default.
    pub fn from_json(text: &str) -> Result<Self, ManifestError> {
        let doc = json::parse(text)
            .map_err(|e| ManifestError::Syntax { offset: e.offset, what: e.what })?;
        let root = Obj::new(&doc, String::new())?;
        root.only(&["name", "space", "explorer", "metrics", "pruner", "seed"])?;
        let manifest = StudyManifest {
            name: root.field("name", string)?.to_string(),
            space: read_space(root.field("space", array)?)?,
            explorer: root.field("explorer", read_explorer)?,
            metrics: root
                .field("metrics", array)?
                .iter()
                .zip(0..)
                .map(|(m, i)| read_metric(m, &format!("metrics[{i}]")))
                .collect::<Result<_, _>>()?,
            pruner: root.opt("pruner", read_pruner)?.unwrap_or_default(),
            seed: root.opt("seed", uint)?.unwrap_or(0),
        };
        // What only shows once explorer, space and metrics are all read.
        match &manifest.explorer {
            ExplorerSpec::Grid { .. } => {
                let continuous = |p: &&ParamDef| p.domain.cardinality().is_none();
                if let Some(p) = manifest.space.params().iter().find(continuous) {
                    let what = format!(
                        "grid search cannot enumerate the continuous parameter '{}'",
                        p.name
                    );
                    return out_of_range("explorer.type".into(), what);
                }
            }
            ExplorerSpec::Tpe { metric, .. } => {
                if !manifest.metrics.iter().any(|m| m.name == *metric) {
                    let what = format!("'{metric}' is not one of the manifest's metrics");
                    return out_of_range("explorer.metric".into(), what);
                }
            }
            ExplorerSpec::Random { .. } => {}
        }
        Ok(manifest)
    }

    fn build_explorer(&self) -> Box<dyn Explorer> {
        match &self.explorer {
            ExplorerSpec::Random { budget, dedup } => {
                let mut ex = RandomSearch::new(*budget);
                if *dedup {
                    ex = ex.without_duplicates();
                }
                Box::new(ex)
            }
            ExplorerSpec::Grid { limit } => Box::new(match limit {
                Some(l) => GridSearch::with_limit(*l),
                None => GridSearch::new(),
            }),
            ExplorerSpec::Tpe { budget, metric, direction } => {
                Box::new(TpeLite::new(*budget, metric.clone(), *direction))
            }
        }
    }

    /// Materialize a runnable [`Study`] with the given objective.
    pub fn into_study<F>(self, objective: F) -> Result<Study, String>
    where
        F: Fn(&Configuration, &mut TrialContext<'_>) -> Result<MetricValues, String>
            + Send
            + Sync
            + 'static,
    {
        let explorer = self.build_explorer();
        let mut builder = Study::builder(self.name)
            .space(self.space)
            .seed(self.seed)
            .objective(objective)
            .explorer_boxed(explorer);
        for m in self.metrics {
            builder = builder.metric(m);
        }
        builder = match self.pruner {
            PrunerSpec::None => builder.pruner(NopPruner),
            PrunerSpec::Median { n_startup_trials } => {
                builder.pruner(MedianPruner::with_startup(n_startup_trials))
            }
        };
        builder.build()
    }
}

// ------------------------------------------------------- document reader

/// One object of the document, at `path` (empty for the root).
struct Obj<'a> {
    path: String,
    fields: &'a [(String, Json)],
}

impl<'a> Obj<'a> {
    fn new(v: &'a Json, path: String) -> Result<Self, ManifestError> {
        let obj = Obj { fields: typed(v, &path, "an object", Json::as_object)?, path };
        for (i, (key, _)) in obj.fields.iter().enumerate() {
            if obj.fields[..i].iter().any(|(earlier, _)| earlier == key) {
                return Err(ManifestError::DuplicateKey { path: obj.at(key) });
            }
        }
        Ok(obj)
    }

    fn at(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    /// Refuse any key outside `allowed`.
    fn only(&self, allowed: &[&str]) -> Result<(), ManifestError> {
        match self.fields.iter().find(|(key, _)| !allowed.contains(&key.as_str())) {
            Some((key, _)) => Err(ManifestError::UnknownKey { path: self.at(key) }),
            None => Ok(()),
        }
    }

    fn req(&self, key: &str) -> Result<&'a Json, ManifestError> {
        let found = self.fields.iter().find(|(name, _)| name == key);
        found.map(|(_, v)| v).ok_or_else(|| ManifestError::Missing { path: self.at(key) })
    }

    /// The required field `key`, through one of the typed readers below.
    fn field<T>(&self, key: &str, read: Read<'a, T>) -> Result<T, ManifestError> {
        read(self.req(key)?, &self.at(key))
    }

    /// The optional field `key`: `None` when absent or `null`.
    fn opt<T>(&self, key: &str, read: Read<'a, T>) -> Result<Option<T>, ManifestError> {
        match self.req(key) {
            Err(_) | Ok(Json::Null) => Ok(None),
            Ok(v) => read(v, &self.at(key)).map(Some),
        }
    }

    fn unknown_tag<T>(&self, key: &str, tag: &str) -> Result<T, ManifestError> {
        Err(ManifestError::UnknownTag { path: self.at(key), tag: tag.to_string() })
    }
}

/// A typed reader: the value and its path in, the Rust value out.
type Read<'a, T> = fn(&'a Json, &str) -> Result<T, ManifestError>;

fn typed<'a, T>(
    v: &'a Json,
    path: &str,
    expected: &'static str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<T, ManifestError> {
    let found = v.kind();
    read(v).ok_or_else(|| ManifestError::WrongKind { path: path.to_string(), expected, found })
}

fn string<'a>(v: &'a Json, path: &str) -> Result<&'a str, ManifestError> {
    typed(v, path, "a string", Json::as_str)
}

fn array<'a>(v: &'a Json, path: &str) -> Result<&'a [Json], ManifestError> {
    typed(v, path, "an array", Json::as_array)
}

fn boolean(v: &Json, path: &str) -> Result<bool, ManifestError> {
    typed(v, path, "a boolean", Json::as_bool)
}

fn uint(v: &Json, path: &str) -> Result<u64, ManifestError> {
    typed(v, path, "a non-negative integer", Json::as_u64)
}

fn count(v: &Json, path: &str) -> Result<usize, ManifestError> {
    typed(v, path, "a non-negative integer", |v| usize::try_from(v.as_u64()?).ok())
}

fn int(v: &Json, path: &str) -> Result<i64, ManifestError> {
    typed(v, path, "an integer", Json::as_i64)
}

fn float(v: &Json, path: &str) -> Result<f64, ManifestError> {
    typed(v, path, "a number", Json::as_f64)
}

fn out_of_range<T>(path: String, what: String) -> Result<T, ManifestError> {
    Err(ManifestError::OutOfRange { path, what })
}

fn read_direction(obj: &Obj<'_>) -> Result<Direction, ManifestError> {
    match obj.field("direction", string)? {
        "maximize" => Ok(Direction::Maximize),
        "minimize" => Ok(Direction::Minimize),
        other => obj.unknown_tag("direction", other),
    }
}

fn read_space(params: &[Json]) -> Result<ParamSpace, ManifestError> {
    let mut builder = ParamSpace::builder();
    let mut names: Vec<&str> = Vec::new();
    for (i, p) in params.iter().enumerate() {
        let p = Obj::new(p, format!("space[{i}]"))?;
        p.only(&["name", "kind", "domain"])?;
        let name = p.field("name", string)?;
        if names.contains(&name) {
            return out_of_range(p.at("name"), format!("duplicate parameter name '{name}'"));
        }
        names.push(name);
        builder = builder.kind(match p.opt("kind", string)? {
            None | Some("algorithm") => ParamKind::Algorithm,
            Some("environment") => ParamKind::Environment,
            Some("system") => ParamKind::System,
            Some(other) => return p.unknown_tag("kind", other),
        });

        // The builder asserts what is checked here, so it cannot panic.
        let d = Obj::new(p.req("domain")?, p.at("domain"))?;
        let values = || {
            d.only(&["type", "values"])?;
            match d.field("values", array)? {
                [] => out_of_range(d.at("values"), "a categorical domain is non-empty".into()),
                items => {
                    Ok(items.iter().zip(0..).map(|(v, j)| (v, format!("{}[{j}]", d.at("values")))))
                }
            }
        };
        let float_bounds = || {
            d.only(&["type", "lo", "hi"])?;
            match (d.field("lo", float)?, d.field("hi", float)?) {
                (lo, hi) if lo.is_finite() && hi.is_finite() => Ok((lo, hi)),
                (lo, hi) => out_of_range(d.path.clone(), format!("infinite bound in [{lo}, {hi}]")),
            }
        };
        builder = match d.field("type", string)? {
            "categorical" => {
                let labels: Result<Vec<_>, _> = values()?.map(|(v, at)| string(v, &at)).collect();
                builder.categorical(name, labels?)
            }
            "categorical_int" => {
                let ints: Result<Vec<_>, _> = values()?.map(|(v, at)| int(v, &at)).collect();
                builder.categorical_int(name, ints?)
            }
            "int_range" => {
                d.only(&["type", "lo", "hi"])?;
                match (d.field("lo", int)?, d.field("hi", int)?) {
                    (lo, hi) if lo <= hi => builder.int(name, lo, hi),
                    (lo, hi) => {
                        return out_of_range(d.path, format!("empty int range [{lo}, {hi}]"))
                    }
                }
            }
            "float" => match float_bounds()? {
                (lo, hi) if lo <= hi => builder.float(name, lo, hi),
                (lo, hi) => return out_of_range(d.path, format!("empty float range [{lo}, {hi}]")),
            },
            "log_float" => match float_bounds()? {
                (lo, hi) if 0.0 < lo && lo <= hi => builder.log_float(name, lo, hi),
                (lo, hi) => {
                    let what = format!("log range needs 0 < lo <= hi, got [{lo}, {hi}]");
                    return out_of_range(d.path, what);
                }
            },
            "bool" => {
                d.only(&["type"])?;
                builder.bool(name)
            }
            other => return d.unknown_tag("type", other),
        };
    }
    Ok(builder.build())
}

fn read_explorer(v: &Json, path: &str) -> Result<ExplorerSpec, ManifestError> {
    let e = Obj::new(v, path.to_string())?;
    match e.field("type", string)? {
        "random" => {
            e.only(&["type", "budget", "dedup"])?;
            Ok(ExplorerSpec::Random {
                budget: e.field("budget", count)?,
                dedup: e.opt("dedup", boolean)?.unwrap_or(false),
            })
        }
        "grid" => {
            e.only(&["type", "limit"])?;
            Ok(ExplorerSpec::Grid { limit: e.opt("limit", count)? })
        }
        "tpe" => {
            e.only(&["type", "budget", "metric", "direction"])?;
            Ok(ExplorerSpec::Tpe {
                budget: e.field("budget", count)?,
                metric: e.field("metric", string)?.to_string(),
                direction: read_direction(&e)?,
            })
        }
        other => e.unknown_tag("type", other),
    }
}

fn read_metric(v: &Json, path: &str) -> Result<MetricDef, ManifestError> {
    let m = Obj::new(v, path.to_string())?;
    m.only(&["name", "direction", "risk"])?;
    Ok(MetricDef {
        name: m.field("name", string)?.to_string(),
        direction: read_direction(&m)?,
        risk: m.opt("risk", read_risk)?.unwrap_or_default(),
    })
}

/// `"mean"`, `{"cvar": alpha}` or `{"lower_ci": level}`.
fn read_risk<'a>(v: &'a Json, path: &str) -> Result<Risk, ManifestError> {
    let unknown =
        |tag: &str| Err(ManifestError::UnknownTag { path: path.to_string(), tag: tag.to_string() });
    if let Some(tag) = v.as_str() {
        return if tag == "mean" { Ok(Risk::Mean) } else { unknown(tag) };
    }
    let one_key = |v: &'a Json| v.as_object().filter(|fields| fields.len() == 1);
    let (tag, x) = &typed(v, path, "\"mean\" or an object with one key", one_key)?[0];
    let at = format!("{path}.{tag}");
    match tag.as_str() {
        "cvar" => match float(x, &at)? {
            alpha if 0.0 < alpha && alpha <= 1.0 => Ok(Risk::Cvar(alpha)),
            alpha => out_of_range(at, format!("tail mass must be in (0, 1], got {alpha}")),
        },
        "lower_ci" => match float(x, &at)? {
            level if 0.0 < level && level < 1.0 => Ok(Risk::LowerCi(level)),
            level => out_of_range(at, format!("level must be in (0, 1), got {level}")),
        },
        other => unknown(other),
    }
}

fn read_pruner(v: &Json, path: &str) -> Result<PrunerSpec, ManifestError> {
    let p = Obj::new(v, path.to_string())?;
    match p.field("type", string)? {
        "none" => {
            p.only(&["type"])?;
            Ok(PrunerSpec::None)
        }
        "median" => {
            p.only(&["type", "n_startup_trials"])?;
            Ok(PrunerSpec::Median {
                n_startup_trials: p.opt("n_startup_trials", count)?.unwrap_or(4),
            })
        }
        other => p.unknown_tag("type", other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::Trial;
    use std::fmt::Write as _;
    use testkit::Gen;

    fn manifest_json() -> &'static str {
        r#"{
            "name": "demo",
            "space": [
                {"name": "rk_order", "kind": "environment",
                 "domain": {"type": "categorical_int", "values": [3, 5, 8]}},
                {"name": "framework",
                 "domain": {"type": "categorical", "values": ["rllib", "sb", "tfa"]}},
                {"name": "cores", "kind": "system",
                 "domain": {"type": "int_range", "lo": 2, "hi": 4}},
                {"name": "lr", "domain": {"type": "log_float", "lo": 1e-5, "hi": 1e-2}},
                {"name": "wind", "domain": {"type": "bool"}}
            ],
            "explorer": {"type": "random", "budget": 6, "dedup": true},
            "metrics": [
                {"name": "reward", "direction": "maximize"},
                {"name": "time_min", "direction": "minimize"}
            ],
            "pruner": {"type": "median", "n_startup_trials": 2},
            "seed": 11
        }"#
    }

    fn objective(cfg: &Configuration, _ctx: &mut TrialContext<'_>) -> Result<MetricValues, String> {
        Ok(MetricValues::new()
            .with("reward", -1.0 / cfg.int("rk_order").ok_or("no rk_order")? as f64)
            .with("time_min", cfg.float("lr").ok_or("no lr")? * 1e4))
    }

    /// A one-parameter document around the given fragments.
    fn doc(domain: &str, explorer: &str, metric: &str) -> String {
        format!(
            r#"{{"name": "x", "space": [{{"name": "k", "domain": {domain}}}],
                "explorer": {explorer}, "metrics": [{metric}]}}"#
        )
    }

    const INTS: &str = r#"{"type": "categorical_int", "values": [1, 2]}"#;
    const RANDOM: &str = r#"{"type": "random", "budget": 1}"#;
    const METRIC: &str = r#"{"name": "m", "direction": "minimize"}"#;

    #[test]
    fn every_field_of_the_document_is_read() {
        let m = StudyManifest::from_json(manifest_json()).expect("parse");
        assert_eq!(m.name, "demo");
        assert_eq!(m.seed, 11);
        assert_eq!(m.explorer, ExplorerSpec::Random { budget: 6, dedup: true });
        assert_eq!(m.pruner, PrunerSpec::Median { n_startup_trials: 2 });
        assert_eq!(m.metrics, [MetricDef::maximize("reward"), MetricDef::minimize("time_min")]);
    }

    #[test]
    fn space_is_built_with_kinds() {
        let space = StudyManifest::from_json(manifest_json()).expect("parse").space;
        let by_hand = ParamSpace::builder()
            .kind(ParamKind::Environment)
            .categorical_int("rk_order", [3, 5, 8])
            .kind(ParamKind::Algorithm)
            .categorical("framework", ["rllib", "sb", "tfa"])
            .kind(ParamKind::System)
            .int("cores", 2, 4)
            .kind(ParamKind::Algorithm)
            .log_float("lr", 1e-5, 1e-2)
            .bool("wind")
            .build();
        assert_eq!(space, by_hand);
        assert_eq!(space.by_kind(ParamKind::Algorithm).len(), 3);
    }

    #[test]
    fn study_runs_from_manifest_as_the_same_study_built_by_hand() {
        let m = StudyManifest::from_json(manifest_json()).expect("parse");
        let by_hand = Study::builder("demo")
            .space(m.space.clone())
            .explorer(RandomSearch::new(6).without_duplicates())
            .metric(MetricDef::maximize("reward"))
            .metric(MetricDef::minimize("time_min"))
            .pruner(MedianPruner::with_startup(2))
            .seed(11)
            .objective(objective)
            .build()
            .expect("study");
        let trials = m.into_study(objective).expect("study").run().expect("runs");
        assert_eq!(trials.len(), 6);
        assert!(trials.iter().all(Trial::is_complete));
        assert_eq!(trials, by_hand.run().expect("runs"));
    }

    #[test]
    fn invalid_domains_are_rejected() {
        for (domain, path) in [
            (r#"{"type": "log_float", "lo": 0.0, "hi": 1.0}"#, "space[0].domain"),
            (r#"{"type": "log_float", "lo": 2.0, "hi": 1.0}"#, "space[0].domain"),
            (r#"{"type": "float", "lo": 1.5, "hi": 1.0}"#, "space[0].domain"),
            (r#"{"type": "float", "lo": 0, "hi": 1e999}"#, "space[0].domain"),
            (r#"{"type": "int_range", "lo": 3, "hi": 2}"#, "space[0].domain"),
            (r#"{"type": "categorical", "values": []}"#, "space[0].domain.values"),
            (r#"{"type": "categorical_int", "values": []}"#, "space[0].domain.values"),
        ] {
            match StudyManifest::from_json(&doc(domain, RANDOM, METRIC)) {
                Err(ManifestError::OutOfRange { path: at, .. }) => assert_eq!(at, path, "{domain}"),
                other => panic!("{domain}: {other:?}"),
            }
        }
    }

    #[test]
    fn empty_metrics_rejected() {
        let m = StudyManifest::from_json(&doc(INTS, RANDOM, "")).expect("parse");
        assert!(m.into_study(|_, _| Ok(MetricValues::new())).is_err());
    }

    #[test]
    fn grid_and_tpe_explorers_materialize() {
        for explorer in [
            r#"{"type": "grid"}"#,
            r#"{"type": "grid", "limit": 3}"#,
            r#"{"type": "grid", "limit": null}"#,
            r#"{"type": "tpe", "budget": 5, "metric": "m", "direction": "minimize"}"#,
        ] {
            let m = StudyManifest::from_json(&doc(INTS, explorer, METRIC)).expect("parse");
            let study = m
                .into_study(
                    |cfg, _| Ok(MetricValues::new().with("m", cfg.int("k").unwrap() as f64)),
                )
                .expect("study");
            assert!(!study.run().expect("runs").is_empty());
        }
    }

    #[test]
    fn risk_readings_land_on_the_metric_def() {
        for (risk, want) in [
            (r#""mean""#, Risk::Mean),
            ("null", Risk::Mean),
            (r#"{"cvar": 0.1}"#, Risk::Cvar(0.1)),
            (r#"{"cvar": 1}"#, Risk::Cvar(1.0)),
            (r#"{"lower_ci": 0.95}"#, Risk::LowerCi(0.95)),
        ] {
            let metric = format!(r#"{{"name": "m", "direction": "maximize", "risk": {risk}}}"#);
            let m = StudyManifest::from_json(&doc(INTS, RANDOM, &metric)).expect(risk);
            assert_eq!(m.metrics, [MetricDef::maximize("m").with_risk(want)]);
        }
    }

    #[test]
    fn integers_are_exact_and_never_floats() {
        let text = r#"{"name": "x", "seed": 18446744073709551615,
            "space": [{"name": "k", "domain":
                {"type": "int_range", "lo": -9223372036854775808, "hi": 9223372036854775807}}],
            "explorer": {"type": "random", "budget": 1},
            "metrics": [{"name": "m", "direction": "minimize"}]}"#;
        let m = StudyManifest::from_json(text).expect("parse");
        assert_eq!(m.seed, u64::MAX);
        let by_hand = ParamSpace::builder().int("k", i64::MIN, i64::MAX).build();
        assert_eq!(m.space, by_hand);

        for (from, to, path) in [
            ("18446744073709551615", "18446744073709551616", "seed"),
            ("18446744073709551615", "7.0", "seed"),
            ("18446744073709551615", "-1", "seed"),
            ("9223372036854775807", "9223372036854775808", "space[0].domain.hi"),
            ("9223372036854775807", "4e0", "space[0].domain.hi"),
            ("\"budget\": 1", "\"budget\": 1.0", "explorer.budget"),
        ] {
            match StudyManifest::from_json(&text.replace(from, to)) {
                Err(ManifestError::WrongKind { path: at, .. }) => assert_eq!(at, path),
                other => panic!("{to} at {path}: {other:?}"),
            }
        }
    }

    #[test]
    fn each_way_to_be_wrong_has_its_variant() {
        let good = doc(INTS, RANDOM, METRIC);
        assert!(StudyManifest::from_json(&good).is_ok());
        let with = |from: &str, to: &str| good.replace(from, to);
        let risk = |r: &str| with("\"direction\"", &format!("\"risk\": {r}, \"direction\""));
        let tpe = |metric: &str| format!(r#"{{"type": "tpe", "budget": 2, "metric": "{metric}"}}"#);
        let e = StudyManifest::from_json(&with("\"explorer\":", "\"explorer\"")).unwrap_err();
        let offset = good.find("\"explorer\":").unwrap() + 11;
        assert_eq!(e, ManifestError::Syntax { offset, what: "expected ':'".into() });
        assert_eq!(e.to_string(), format!("manifest: not JSON at byte {offset}: expected ':'"));

        let domain = |d: &str| doc(d, RANDOM, METRIC);
        let explorer = |e: &str| doc(INTS, e, METRIC);
        let pruner = |p: &str| with("\"metrics\"", &format!("\"pruner\": {p}, \"metrics\""));
        let refuse = |text: String, want: &str| {
            let got = StudyManifest::from_json(&text).expect_err(&text).to_string();
            assert_eq!(got, format!("manifest: {want}"), "{text}");
        };
        // Missing
        refuse(with("\"name\": \"x\", ", ""), "field 'name' is missing");
        refuse(
            domain(r#"{"type": "int_range", "lo": 1}"#),
            "field 'space[0].domain.hi' is missing",
        );
        refuse(explorer(&tpe("m")), "field 'explorer.direction' is missing");
        // WrongKind
        refuse(
            domain(r#"{"type": "categorical_int", "values": [1, "2"]}"#),
            "field 'space[0].domain.values[1]' must be an integer, got string",
        );
        refuse(
            explorer(r#"{"type": "random", "budget": 1, "dedup": 1}"#),
            "field 'explorer.dedup' must be a boolean, got integer",
        );
        refuse(
            with("[{\"name\": \"m\"", "[[], {\"name\": \"m\""),
            "field 'metrics[0]' must be an object, got array",
        );
        refuse(
            risk("{}"),
            "field 'metrics[0].risk' must be \"mean\" or an object with one key, got object",
        );
        refuse("[]".into(), "field '' must be an object, got array");
        // UnknownTag
        refuse(
            domain(r#"{"type": "floot", "lo": 0, "hi": 1}"#),
            "field 'space[0].domain.type' has unknown tag 'floot'",
        );
        refuse(
            with("\"name\": \"k\"", "\"name\": \"k\", \"kind\": \"sys\""),
            "field 'space[0].kind' has unknown tag 'sys'",
        );
        refuse(
            with("minimize", "minimise"),
            "field 'metrics[0].direction' has unknown tag 'minimise'",
        );
        refuse(explorer(r#"{"type": "anneal"}"#), "field 'explorer.type' has unknown tag 'anneal'");
        refuse(pruner(r#"{"type": "asha"}"#), "field 'pruner.type' has unknown tag 'asha'");
        refuse(risk(r#"{"var": 0.1}"#), "field 'metrics[0].risk' has unknown tag 'var'");
        refuse(risk(r#""median""#), "field 'metrics[0].risk' has unknown tag 'median'");
        // OutOfRange (the domain rules are in `invalid_domains_are_rejected`)
        refuse(
            risk(r#"{"cvar": 1.5}"#),
            "field 'metrics[0].risk.cvar' is out of range: tail mass must be in (0, 1], got 1.5",
        );
        refuse(
            risk(r#"{"lower_ci": 1}"#),
            "field 'metrics[0].risk.lower_ci' is out of range: level must be in (0, 1), got 1",
        );
        refuse(
            with("}],", "}, {\"name\": \"k\", \"domain\": {\"type\": \"bool\"}}],"),
            "field 'space[1].name' is out of range: duplicate parameter name 'k'",
        );
        refuse(
            doc(r#"{"type": "float", "lo": 0, "hi": 1}"#, r#"{"type": "grid"}"#, METRIC),
            "field 'explorer.type' is out of range: \
             grid search cannot enumerate the continuous parameter 'k'",
        );
        refuse(
            explorer(&tpe("n").replace('}', ", \"direction\": \"minimize\"}")),
            "field 'explorer.metric' is out of range: 'n' is not one of the manifest's metrics",
        );
        // UnknownKey: the first two are spellings serde ignored, running the default.
        refuse(
            explorer(r#"{"type": "random", "budget": 1, "dedupe": true}"#),
            "unknown key 'explorer.dedupe'",
        );
        refuse(
            pruner(r#"{"type": "median", "n_startup_trial": 2}"#),
            "unknown key 'pruner.n_startup_trial'",
        );
        refuse(with("\"name\": \"x\"", "\"name\": \"x\", \"sed\": 3"), "unknown key 'sed'");
        refuse(
            domain(r#"{"type": "bool", "values": [true]}"#),
            "unknown key 'space[0].domain.values'",
        );
        // DuplicateKey
        refuse(
            with("\"name\": \"k\"", "\"name\": \"k\", \"name\": \"j\""),
            "repeated key 'space[0].name'",
        );
    }

    #[test]
    fn hundred_thousand_deep_input_is_an_error_not_a_crash() {
        for open in ["{\"name\":", "[", "{\"space\":[{\"domain\":"] {
            match StudyManifest::from_json(&open.repeat(100_000)) {
                Err(ManifestError::Syntax { what, .. }) => assert!(what.contains("nesting")),
                other => panic!("{open}: {other:?}"),
            }
        }
    }

    fn write_json(v: &Json, out: &mut String) {
        match v {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").unwrap(),
            Json::U64(x) => write!(out, "{x}").unwrap(),
            Json::I64(x) => write!(out, "{x}").unwrap(),
            Json::F64(x) => write!(out, "{x:e}").unwrap(),
            Json::Str(s) => write!(out, "{s:?}").unwrap(),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { "," } else { "" });
                    write_json(item, out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    write!(out, "{}{key:?}:", if i > 0 { "," } else { "" }).unwrap();
                    write_json(value, out);
                }
                out.push('}');
            }
        }
    }

    fn node_count(v: &Json) -> usize {
        1 + match v {
            Json::Arr(items) => items.iter().map(node_count).sum(),
            Json::Obj(fields) => fields.iter().map(|(_, value)| node_count(value)).sum(),
            _ => 0,
        }
    }

    /// Apply `f` to the `k`-th node of the tree in pre-order.
    fn at_node(v: &mut Json, k: &mut usize, f: &mut dyn FnMut(&mut Json)) -> bool {
        if *k == 0 {
            f(v);
            return true;
        }
        *k -= 1;
        match v {
            Json::Arr(items) => items.iter_mut().any(|item| at_node(item, k, f)),
            Json::Obj(fields) => fields.iter_mut().any(|(_, value)| at_node(value, k, f)),
            _ => false,
        }
    }

    #[test]
    fn mutated_manifests_are_ok_or_err_never_a_panic() {
        let base = manifest_json();
        let tree = json::parse(base).unwrap();
        let nodes = node_count(&tree);

        let mut rng = Gen::new(0x5eed);
        let (mut ok, mut err) = (0, [0usize; 4]);
        for round in 0..480 {
            let kind = round % 4;
            let mutant = match kind {
                // Truncate (on a char boundary: the fixture is ASCII).
                0 => base[..rng.below(base.len())].to_string(),
                // Flip one bit of one byte, staying ASCII.
                1 => {
                    let mut bytes = base.as_bytes().to_vec();
                    let i = rng.below(bytes.len());
                    bytes[i] ^= 1 << rng.below(7);
                    String::from_utf8(bytes).unwrap()
                }
                // Duplicate a key of some object / swap some value's kind.
                _ => {
                    let mut tree = tree.clone();
                    let swaps = [
                        Json::Null,
                        Json::Bool(true),
                        Json::U64(7),
                        Json::I64(-3),
                        Json::F64(2.5),
                        Json::Str("maximize".into()),
                        Json::Arr(vec![]),
                        Json::Arr(vec![Json::U64(1), Json::Str("a".into())]),
                        Json::Obj(vec![]),
                        Json::Obj(vec![("type".into(), Json::Str("grid".into()))]),
                    ];
                    let swap = swaps[rng.below(swaps.len())].clone();
                    let pick = rng.below(1 << 16);
                    let hit = at_node(&mut tree, &mut rng.below(nodes), &mut |node| match node {
                        Json::Obj(fields) if kind == 2 && !fields.is_empty() => {
                            let dup = fields[pick % fields.len()].clone();
                            fields.push(dup);
                        }
                        node => *node = swap.clone(),
                    });
                    assert!(hit, "the walk reaches every node");
                    let mut text = String::new();
                    write_json(&tree, &mut text);
                    text
                }
            };
            match StudyManifest::from_json(&mutant) {
                // What is accepted must also build and run.
                Ok(m) => {
                    ok += 1;
                    if let Ok(study) = m.into_study(objective) {
                        let _ = study.run();
                    }
                }
                Err(e) => {
                    err[kind] += 1;
                    assert!(!e.to_string().is_empty());
                }
            }
        }
        // Every mutation kind is mostly fatal, and some mutants survive
        // (a flipped letter inside a name, a swapped seed).
        assert!(err.iter().all(|&n| n >= 60), "errors per kind {err:?}");
        assert!(ok >= 5, "only {ok} mutants were accepted");
    }
}
