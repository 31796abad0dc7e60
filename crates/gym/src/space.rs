//! Observation and action spaces.

use rand::Rng;

/// A gym-style space describing valid observations or actions.
#[derive(Debug, Clone, PartialEq)]
pub enum Space {
    /// `n` discrete choices `{0, …, n-1}`.
    Discrete(usize),
    /// An axis-aligned box in `R^d` with per-dimension bounds.
    Box {
        /// Lower bounds (may be `-inf`).
        low: Vec<f64>,
        /// Upper bounds (may be `+inf`).
        high: Vec<f64>,
    },
}

impl Space {
    /// A symmetric box `[-limit, limit]^dim`.
    pub fn symmetric_box(dim: usize, limit: f64) -> Self {
        Space::Box { low: vec![-limit; dim], high: vec![limit; dim] }
    }

    /// An unbounded box in `R^dim`.
    pub fn unbounded_box(dim: usize) -> Self {
        Space::Box { low: vec![f64::NEG_INFINITY; dim], high: vec![f64::INFINITY; dim] }
    }

    /// Flat dimensionality: number of choices for `Discrete`, number of
    /// coordinates for `Box`.
    pub fn dim(&self) -> usize {
        match self {
            Space::Discrete(n) => *n,
            Space::Box { low, .. } => low.len(),
        }
    }

    /// True when a discrete index / continuous vector lies in the space.
    pub fn contains_discrete(&self, a: usize) -> bool {
        matches!(self, Space::Discrete(n) if a < *n)
    }

    /// See [`Space::contains_discrete`].
    pub fn contains_continuous(&self, a: &[f64]) -> bool {
        match self {
            Space::Discrete(_) => false,
            Space::Box { low, high } => {
                a.len() == low.len()
                    && a.iter().zip(low.iter().zip(high)).all(|(&x, (&l, &h))| x >= l && x <= h)
            }
        }
    }

    /// Uniformly sample an element (unbounded dims sample from `N(0,1)`-ish
    /// clipped uniform `[-1, 1]` as a pragmatic default).
    pub fn sample_continuous(&self, rng: &mut impl Rng) -> Vec<f64> {
        match self {
            Space::Discrete(_) => panic!("sample_continuous on a Discrete space"),
            Space::Box { low, high } => low
                .iter()
                .zip(high)
                .map(|(&l, &h)| {
                    if l.is_finite() && h.is_finite() {
                        rng.gen_range(l..=h)
                    } else {
                        rng.gen_range(-1.0..=1.0)
                    }
                })
                .collect(),
        }
    }

    /// Uniformly sample a discrete action.
    pub fn sample_discrete(&self, rng: &mut impl Rng) -> usize {
        match self {
            Space::Discrete(n) => rng.gen_range(0..*n),
            Space::Box { .. } => panic!("sample_discrete on a Box space"),
        }
    }

    /// True for `Discrete` spaces.
    pub fn is_discrete(&self) -> bool {
        matches!(self, Space::Discrete(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn discrete_contains() {
        let s = Space::Discrete(3);
        assert!(s.contains_discrete(0));
        assert!(s.contains_discrete(2));
        assert!(!s.contains_discrete(3));
        assert!(!s.contains_continuous(&[0.0]));
    }

    #[test]
    fn box_contains() {
        let s = Space::symmetric_box(2, 1.0);
        assert!(s.contains_continuous(&[0.5, -1.0]));
        assert!(!s.contains_continuous(&[1.5, 0.0]));
        assert!(!s.contains_continuous(&[0.0])); // wrong arity
        assert!(!s.contains_discrete(0));
    }

    #[test]
    fn sampling_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = Space::symmetric_box(4, 2.5);
        for _ in 0..100 {
            assert!(s.contains_continuous(&s.sample_continuous(&mut rng)));
        }
        let d = Space::Discrete(7);
        for _ in 0..100 {
            assert!(d.contains_discrete(d.sample_discrete(&mut rng)));
        }
    }

    #[test]
    fn unbounded_box_samples_are_finite() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = Space::unbounded_box(3);
        let x = s.sample_continuous(&mut rng);
        assert_eq!(x.len(), 3);
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn dims() {
        assert_eq!(Space::Discrete(5).dim(), 5);
        assert_eq!(Space::symmetric_box(3, 1.0).dim(), 3);
        assert!(Space::Discrete(2).is_discrete());
        assert!(!Space::symmetric_box(1, 1.0).is_discrete());
    }

    #[test]
    #[should_panic(expected = "sample_continuous on a Discrete")]
    fn wrong_sampler_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        Space::Discrete(2).sample_continuous(&mut rng);
    }
}
