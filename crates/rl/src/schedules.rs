//! Scalar schedules (learning rate, clip range) over training progress.
//!
//! The paper's frameworks anneal PPO's learning rate linearly by default;
//! the trainer applies a [`Schedule`] between updates.

use simd_kernels::mathf64::{exp, ln};

/// A scalar schedule evaluated at training progress `p ∈ [0, 1]`
/// (0 = start, 1 = end of the step budget).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Schedule {
    /// Constant value.
    Constant(f64),
    /// Linear interpolation from `from` (p=0) to `to` (p=1).
    Linear {
        /// Initial value.
        from: f64,
        /// Final value.
        to: f64,
    },
    /// Exponential decay: `from · (to/from)^p` (requires same signs,
    /// non-zero).
    Exponential {
        /// Initial value.
        from: f64,
        /// Final value.
        to: f64,
    },
    /// Piecewise: constant `from` until `p = frac`, then linear to `to`.
    WarmholdLinear {
        /// Initial (held) value.
        from: f64,
        /// Final value.
        to: f64,
        /// Fraction of training during which the value is held.
        frac: f64,
    },
}

impl Schedule {
    /// Evaluate at progress `p` (clamped into `[0, 1]`).
    pub(crate) fn at(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        match *self {
            Schedule::Constant(v) => v,
            Schedule::Linear { from, to } => from + (to - from) * p,
            Schedule::Exponential { from, to } => {
                debug_assert!(from * to > 0.0, "exponential schedule needs same-sign endpoints");
                from * exp(p * ln(to / from))
            }
            Schedule::WarmholdLinear { from, to, frac } => {
                if p <= frac {
                    from
                } else {
                    let q = (p - frac) / (1.0 - frac).max(1e-12);
                    from + (to - from) * q
                }
            }
        }
    }

    /// The standard PPO annealing: linear from `lr` to 0.
    pub fn linear_to_zero(lr: f64) -> Self {
        Schedule::Linear { from: lr, to: 0.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_ignores_progress() {
        let s = Schedule::Constant(3e-4);
        assert_eq!(s.at(0.0), 3e-4);
        assert_eq!(s.at(0.7), 3e-4);
        assert_eq!(s.at(1.0), 3e-4);
    }

    #[test]
    fn linear_endpoints_and_midpoint() {
        let s = Schedule::Linear { from: 1.0, to: 0.0 };
        assert_eq!(s.at(0.0), 1.0);
        assert_eq!(s.at(0.5), 0.5);
        assert_eq!(s.at(1.0), 0.0);
    }

    #[test]
    fn progress_is_clamped() {
        let s = Schedule::Linear { from: 1.0, to: 0.0 };
        assert_eq!(s.at(-1.0), 1.0);
        assert_eq!(s.at(2.0), 0.0);
    }

    #[test]
    fn exponential_hits_endpoints_and_is_monotone() {
        let s = Schedule::Exponential { from: 1e-3, to: 1e-5 };
        assert!((s.at(0.0) - 1e-3).abs() < 1e-12);
        assert!((s.at(1.0) - 1e-5).abs() < 1e-12);
        let mid = s.at(0.5);
        assert!((mid - 1e-4).abs() < 1e-9, "geometric midpoint");
        assert!(s.at(0.25) > s.at(0.75));
    }

    #[test]
    fn warmhold_holds_then_anneals() {
        let s = Schedule::WarmholdLinear { from: 1.0, to: 0.0, frac: 0.5 };
        assert_eq!(s.at(0.25), 1.0);
        assert_eq!(s.at(0.5), 1.0);
        assert!((s.at(0.75) - 0.5).abs() < 1e-12);
        assert_eq!(s.at(1.0), 0.0);
    }

    #[test]
    fn linear_to_zero_helper() {
        let s = Schedule::linear_to_zero(3e-4);
        assert_eq!(s.at(0.0), 3e-4);
        assert_eq!(s.at(1.0), 0.0);
    }
}
