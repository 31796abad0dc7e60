//! Environment configuration — the paper's §IV-B parameters.

use rk_ode::RkOrder;

/// How the agent commands the canopy rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionMode {
    /// Three choices: rotate left / keep straight / rotate right —
    /// the paper's "the agent selects a rotation direction".
    Discrete3,
    /// Continuous commanded deflection in `[-1, 1]` (needed by SAC, and
    /// accepted by PPO's Gaussian policy).
    Continuous,
}

/// Full configuration of the Airdrop Package Delivery Simulator.
///
/// The fields mirror §IV-B: wind activation, gust activation, gust
/// probability, drop-altitude limits, and the Runge–Kutta order.
#[derive(Debug, Clone, PartialEq)]
pub struct AirdropConfig {
    /// Enable the constant wind field.
    pub wind_enabled: bool,
    /// Constant wind vector `(wx, wy)` in units/s (used when enabled).
    pub wind: (f64, f64),
    /// Enable random gusts of wind.
    pub gusts_enabled: bool,
    /// Per-control-step probability that a gust event starts (§IV-B).
    pub gust_probability: f64,
    /// Peak gust speed in units/s.
    pub gust_strength: f64,
    /// The package is dropped from `U(altitude_limits)` (default
    /// `[30, 1000]`, the paper's basic configuration).
    pub altitude_limits: (f64, f64),
    /// Runge–Kutta order for the canopy-dynamics integration.
    pub rk_order: RkOrder,
    /// Control interval: seconds of physics per agent action.
    pub control_dt: f64,
    /// Integration substep within a control interval.
    pub substep: f64,
    /// Discrete or continuous steering.
    pub action_mode: ActionMode,
    /// Reward scale: terminal reward is `-(landing distance)/reward_scale`.
    /// The default (100) puts trained-policy rewards in the paper's
    /// reported range (≈ −0.45 … −0.8).
    pub reward_scale: f64,
    /// Emit potential-based shaping rewards during descent (telescopes to
    /// the terminal objective; disabled for evaluation runs so reported
    /// rewards equal the paper's landing metric).
    pub shaping: bool,
}

impl Default for AirdropConfig {
    fn default() -> Self {
        Self {
            wind_enabled: false,
            wind: (1.5, -0.8),
            gusts_enabled: false,
            gust_probability: 0.05,
            gust_strength: 3.0,
            altitude_limits: (30.0, 1000.0),
            rk_order: RkOrder::Five,
            control_dt: 0.5,
            substep: 0.25,
            action_mode: ActionMode::Continuous,
            reward_scale: 100.0,
            shaping: true,
        }
    }
}

impl AirdropConfig {
    /// The configuration used by the paper's study (§V-a): wind disabled,
    /// default altitude interval, shaping on for training.
    pub fn paper_study(rk_order: RkOrder) -> Self {
        Self { rk_order, ..Self::default() }
    }

    /// Evaluation variant: same physics, shaping off, so the episode
    /// return equals the terminal landing reward the paper reports.
    pub fn eval(mut self) -> Self {
        self.shaping = false;
        self
    }

    /// The high-accuracy reference used to score trained policies:
    /// order-8 integration with a fine substep (DESIGN.md §3 explains why
    /// evaluating on the reference dynamics reproduces the paper's
    /// "lower RK order ⇒ lower reward" coupling).
    pub fn reference(mut self) -> Self {
        self.rk_order = RkOrder::Eight;
        self.substep = 0.125;
        self.shaping = false;
        self
    }

    /// A reduced configuration for fast unit tests: low drop altitudes,
    /// hence short episodes.
    pub fn fast_test() -> Self {
        Self { altitude_limits: (20.0, 60.0), ..Self::default() }
    }

    /// Validate ranges; returns the first violated constraint.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(self.altitude_limits.0 > 0.0 && self.altitude_limits.1 >= self.altitude_limits.0) {
            return Err(format!("invalid altitude limits {:?}", self.altitude_limits));
        }
        if !(0.0..=1.0).contains(&self.gust_probability) {
            return Err(format!("gust probability {} not in [0,1]", self.gust_probability));
        }
        if self.control_dt <= 0.0 || self.substep <= 0.0 {
            return Err("control_dt and substep must be positive".into());
        }
        if self.substep > self.control_dt {
            return Err("substep must not exceed control_dt".into());
        }
        if self.reward_scale <= 0.0 {
            return Err("reward_scale must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        AirdropConfig::default().validate().expect("default must validate");
    }

    #[test]
    fn paper_study_matches_section_v() {
        let c = AirdropConfig::paper_study(RkOrder::Three);
        assert!(!c.wind_enabled, "§V-a disables wind");
        assert_eq!(c.altitude_limits, (30.0, 1000.0), "§V-a basic interval");
        assert_eq!(c.rk_order, RkOrder::Three);
    }

    #[test]
    fn eval_disables_shaping_only() {
        let c = AirdropConfig::default().eval();
        assert!(!c.shaping);
        assert_eq!(c.rk_order, AirdropConfig::default().rk_order);
    }

    #[test]
    fn reference_is_order_eight_fine_step() {
        let c = AirdropConfig::paper_study(RkOrder::Three).reference();
        assert_eq!(c.rk_order, RkOrder::Eight);
        assert!(c.substep < AirdropConfig::default().substep);
        assert!(!c.shaping);
    }

    #[test]
    fn validation_catches_bad_values() {
        let c = AirdropConfig { altitude_limits: (100.0, 50.0), ..AirdropConfig::default() };
        assert!(c.validate().is_err());

        let c = AirdropConfig { gust_probability: 1.5, ..AirdropConfig::default() };
        assert!(c.validate().is_err());

        let base = AirdropConfig::default();
        let c = AirdropConfig { substep: base.control_dt * 2.0, ..base };
        assert!(c.validate().is_err());

        let c = AirdropConfig { reward_scale: 0.0, ..AirdropConfig::default() };
        assert!(c.validate().is_err());
    }
}
