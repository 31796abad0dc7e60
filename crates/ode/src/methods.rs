//! The paper's Runge–Kutta order parameter: {3, 5, 8}.
//!
//! [`RkOrder`] is the *environment-dependent* parameter of the study
//! (Table I, first configuration column). It maps the orders SciPy offers —
//! and the paper uses — onto concrete steppers from this crate.

use crate::extrapolation::Gbs8Factory;
use crate::stepper::{FixedStepper, StepperFactory, TableauFactory};
use crate::tableau::{BS23, DOPRI5};

/// Runge–Kutta order selected for the parachute-dynamics integration.
///
/// * `Three` → Bogacki–Shampine 3(2) (SciPy `RK23`)
/// * `Five`  → Dormand–Prince 5(4) (SciPy `RK45`)
/// * `Eight` → GBS extrapolation order 8 (stand-in for SciPy `DOP853`)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RkOrder {
    /// Order 3 — cheapest, least accurate.
    Three,
    /// Order 5 — middle ground.
    Five,
    /// Order 8 — most expensive, most accurate.
    Eight,
}

impl RkOrder {
    /// All orders the paper studies, in Table I column order.
    pub const ALL: [RkOrder; 3] = [RkOrder::Three, RkOrder::Five, RkOrder::Eight];

    /// Numeric order.
    pub fn order(self) -> u32 {
        match self {
            RkOrder::Three => 3,
            RkOrder::Five => 5,
            RkOrder::Eight => 8,
        }
    }

    /// Parse from the numeric order used in configuration tables.
    pub fn from_order(order: u32) -> Option<Self> {
        match order {
            3 => Some(RkOrder::Three),
            5 => Some(RkOrder::Five),
            8 => Some(RkOrder::Eight),
            _ => None,
        }
    }

    /// Factory for steppers of this order.
    pub fn factory(self) -> Box<dyn StepperFactory> {
        match self {
            RkOrder::Three => Box::new(TableauFactory(&BS23)),
            RkOrder::Five => Box::new(TableauFactory(&DOPRI5)),
            RkOrder::Eight => Box::new(Gbs8Factory),
        }
    }

    /// Build a stepper for `dim`-dimensional systems.
    pub fn stepper_for(self, dim: usize) -> Box<dyn FixedStepper> {
        self.factory().instantiate(dim)
    }

    /// Build a batched stepper advancing `n_lanes` independent
    /// `dim`-dimensional states per call (SoA layout; bitwise-identical
    /// to `n_lanes` scalar steppers — see [`crate::batch`]).
    pub fn batch_stepper(self, dim: usize, n_lanes: usize) -> crate::batch::AnyBatchStepper {
        crate::batch::AnyBatchStepper::new(self, dim, n_lanes)
    }
}

impl std::fmt::Display for RkOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RK{}", self.order())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_round_trip() {
        for o in RkOrder::ALL {
            assert_eq!(RkOrder::from_order(o.order()), Some(o));
        }
        assert_eq!(RkOrder::from_order(4), None);
    }

    #[test]
    fn cost_increases_with_order() {
        let costs: Vec<u64> = RkOrder::ALL.iter().map(|o| o.factory().cost_per_step()).collect();
        assert!(costs.windows(2).all(|w| w[0] < w[1]), "{costs:?}");
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(RkOrder::Three.to_string(), "RK3");
        assert_eq!(RkOrder::Eight.to_string(), "RK8");
    }

    #[test]
    fn stepper_orders_match() {
        for o in RkOrder::ALL {
            assert_eq!(o.stepper_for(3).order(), o.order());
        }
    }

    #[test]
    fn all_contains_each_order_once() {
        assert_eq!(RkOrder::ALL.len(), 3);
        let orders: Vec<u32> = RkOrder::ALL.iter().map(|o| o.order()).collect();
        assert_eq!(orders, vec![3, 5, 8]);
    }
}
