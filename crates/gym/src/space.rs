//! Observation and action spaces.

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims() {
        assert_eq!(Space::Discrete(5).dim(), 5);
        assert_eq!(Space::symmetric_box(3, 1.0).dim(), 3);
        assert_eq!(Space::unbounded_box(2).dim(), 2);
    }
}
