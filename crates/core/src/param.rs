//! Typed study parameters.
//!
//! §III-B(b): "The parameters may be differentiated according to whether
//! they are related to the algorithm configuration, the system
//! configuration or the case study configuration." [`ParamKind`] carries
//! that tag; Table I groups its columns into *environment-dependent* and
//! *environment-independent* parameters the same way.

use rand::Rng;

/// What part of the study a parameter configures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamKind {
    /// Case-study / environment parameter (e.g. the Runge–Kutta order,
    /// the wind setting).
    Environment,
    /// Learning-algorithm parameter (e.g. framework, algorithm, learning
    /// rate).
    Algorithm,
    /// System / deployment parameter (e.g. number of nodes, CPU cores).
    System,
}

/// A parameter value.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// Integer-valued.
    Int(i64),
    /// Real-valued.
    Float(f64),
    /// Categorical (string label).
    Str(String),
    /// Boolean switch.
    Bool(bool),
}

impl ParamValue {
    /// Integer accessor.
    pub(crate) fn as_int(&self) -> Option<i64> {
        match self {
            ParamValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Float accessor (ints coerce).
    pub(crate) fn as_float(&self) -> Option<f64> {
        match self {
            ParamValue::Float(v) => Some(*v),
            ParamValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// String accessor.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            ParamValue::Str(v) => Some(v),
            _ => None,
        }
    }
}

impl std::fmt::Display for ParamValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::Float(v) => write!(f, "{v}"),
            ParamValue::Str(v) => write!(f, "{v}"),
            ParamValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// The domain a parameter ranges over.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Domain {
    /// A finite set of choices.
    Categorical(Vec<ParamValue>),
    /// Integers in `[lo, hi]` inclusive.
    IntRange {
        /// Lower bound.
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
    },
    /// Reals in `[lo, hi]`; `log` samples uniformly in log-space (for
    /// learning rates).
    FloatRange {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
        /// Log-uniform sampling.
        log: bool,
    },
}

/// One parameter's random draw, before it becomes a [`ParamValue`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Draw {
    /// An index into a categorical domain's choices.
    Choice(usize),
    /// An integer of an integer range.
    Int(i64),
    /// A real of a float range.
    Float(f64),
}

impl Domain {
    /// Draw uniformly at random (log-uniformly for a log float range).
    pub(crate) fn draw(&self, rng: &mut impl Rng) -> Draw {
        match self {
            Domain::Categorical(set) => Draw::Choice(rng.gen_range(0..set.len())),
            Domain::IntRange { lo, hi } => Draw::Int(rng.gen_range(*lo..=*hi)),
            Domain::FloatRange { lo, hi, log: true } => {
                let (l, h) = (lo.ln(), hi.ln());
                Draw::Float(rng.gen_range(l..=h).exp())
            }
            Domain::FloatRange { lo, hi, log: false } => Draw::Float(rng.gen_range(*lo..=*hi)),
        }
    }

    /// The value a draw from this domain stands for.
    pub(crate) fn value(&self, draw: Draw) -> ParamValue {
        match (self, draw) {
            (Domain::Categorical(set), Draw::Choice(i)) => set[i].clone(),
            (_, Draw::Int(v)) => ParamValue::Int(v),
            (_, Draw::Float(v)) => ParamValue::Float(v),
            (_, Draw::Choice(_)) => unreachable!("a choice is drawn from a categorical domain"),
        }
    }

    /// Whether `v` belongs to the domain.
    pub(crate) fn contains(&self, v: &ParamValue) -> bool {
        match (self, v) {
            (Domain::Categorical(set), v) => set.contains(v),
            (Domain::IntRange { lo, hi }, ParamValue::Int(i)) => lo <= i && i <= hi,
            (Domain::FloatRange { lo, hi, .. }, ParamValue::Float(f)) => *lo <= *f && *f <= *hi,
            _ => false,
        }
    }

    /// How many values a grid over the domain takes, `None` when that is
    /// more than `usize::MAX`. Panics on a float range: grid search over a
    /// continuous parameter requires explicit discretization.
    pub(crate) fn grid_len(&self) -> Option<usize> {
        match self {
            Domain::Categorical(v) => Some(v.len()),
            Domain::IntRange { lo, hi } => usize::try_from(hi.abs_diff(*lo)).ok()?.checked_add(1),
            Domain::FloatRange { .. } => {
                panic!("cannot enumerate a continuous domain; discretize it first")
            }
        }
    }

    /// The draw of the grid's `k`-th value (`k < grid_len`): the choices
    /// in declaration order, an integer range ascending.
    pub(crate) fn grid_draw(&self, k: usize) -> Draw {
        match self {
            Domain::Categorical(_) => Draw::Choice(k),
            Domain::IntRange { lo, .. } => Draw::Int(lo.wrapping_add_unsigned(k as u64)),
            Domain::FloatRange { .. } => {
                panic!("cannot enumerate a continuous domain; discretize it first")
            }
        }
    }
}

/// A named, typed, tagged parameter.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ParamDef {
    /// Unique name within the space.
    pub(crate) name: String,
    /// Study-role tag.
    pub(crate) kind: ParamKind,
    /// Value domain.
    pub(crate) domain: Domain,
}

impl ParamDef {
    /// Create a definition.
    pub(crate) fn new(name: impl Into<String>, kind: ParamKind, domain: Domain) -> Self {
        Self { name: name.into(), kind, domain }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors() {
        assert_eq!(ParamValue::Int(3).as_int(), Some(3));
        assert_eq!(ParamValue::Int(3).as_float(), Some(3.0));
        assert_eq!(ParamValue::Float(0.5).as_float(), Some(0.5));
        assert_eq!(ParamValue::Str("x".into()).as_str(), Some("x"));
        assert_eq!(ParamValue::Str("x".into()).as_int(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ParamValue::Int(8).to_string(), "8");
        assert_eq!(ParamValue::Str("PPO".into()).to_string(), "PPO");
    }

    #[test]
    fn containment() {
        let d = Domain::IntRange { lo: 1, hi: 2 };
        assert!(d.contains(&ParamValue::Int(1)));
        assert!(!d.contains(&ParamValue::Int(3)));
        assert!(!d.contains(&ParamValue::Float(1.0)), "types are strict");
        let f = Domain::FloatRange { lo: 0.0, hi: 1.0, log: false };
        assert!(f.contains(&ParamValue::Float(0.5)));
        assert!(!f.contains(&ParamValue::Float(2.0)));
    }

    #[test]
    fn enumerate_int_range() {
        let d = Domain::IntRange { lo: 2, hi: 4 };
        assert_eq!(d.grid_len(), Some(3));
        let vals: Vec<ParamValue> = (0..3).map(|k| d.value(d.grid_draw(k))).collect();
        assert_eq!(vals, vec![ParamValue::Int(2), ParamValue::Int(3), ParamValue::Int(4)]);
        let widest = Domain::IntRange { lo: i64::MIN, hi: i64::MAX };
        assert_eq!(widest.grid_len(), None, "2^64 values do not fit a usize");
        assert_eq!(widest.value(widest.grid_draw(usize::MAX)), ParamValue::Int(i64::MAX));
    }

    #[test]
    #[should_panic(expected = "continuous domain")]
    fn enumerate_float_panics() {
        Domain::FloatRange { lo: 0.0, hi: 1.0, log: false }.grid_len();
    }
}
