//! Wind and gust model.
//!
//! The paper's simulator exposes wind activation, gust activation and a
//! gust-occurrence probability (§IV-B). We model the constant wind as a
//! fixed vector and gusts as randomly-triggered events whose amplitude
//! follows a first-order (Ornstein–Uhlenbeck-like) rise-and-decay, sampled
//! once per control interval and held constant within it.

use rand::Rng;

/// Wind state advanced once per control interval.
#[derive(Debug, Clone)]
pub(crate) struct WindModel {
    /// Constant wind component (zero when wind is disabled).
    pub(crate) base: (f64, f64),
    /// Probability that a new gust event starts at a control step.
    pub(crate) gust_probability: f64,
    /// Peak gust speed.
    pub(crate) gust_strength: f64,
    /// Gust decay factor per control step (0 < decay < 1).
    pub(crate) gust_decay: f64,
    /// Whether gusts are active at all.
    pub(crate) gusts_enabled: bool,
    gust: (f64, f64),
}

impl WindModel {
    /// Disabled wind (the paper's §V-a study configuration).
    pub(crate) fn disabled() -> Self {
        Self {
            base: (0.0, 0.0),
            gust_probability: 0.0,
            gust_strength: 0.0,
            gust_decay: 0.8,
            gusts_enabled: false,
            gust: (0.0, 0.0),
        }
    }

    /// Constant wind plus optional gusts.
    pub(crate) fn new(
        base: (f64, f64),
        gusts_enabled: bool,
        gust_probability: f64,
        gust_strength: f64,
    ) -> Self {
        Self {
            base,
            gust_probability,
            gust_strength,
            gust_decay: 0.8,
            gusts_enabled,
            gust: (0.0, 0.0),
        }
    }

    /// Reset transient gust state (start of an episode).
    pub fn reset(&mut self) {
        self.gust = (0.0, 0.0);
    }

    /// Advance one control interval and return the wind vector to hold.
    pub(crate) fn sample(&mut self, rng: &mut impl Rng) -> (f64, f64) {
        if self.gusts_enabled {
            // Decay the running gust, possibly superposing a new event.
            self.gust.0 *= self.gust_decay;
            self.gust.1 *= self.gust_decay;
            if rng.gen::<f64>() < self.gust_probability {
                let angle = rng.gen_range(0.0..std::f64::consts::TAU);
                let speed = rng.gen_range(0.3..=1.0) * self.gust_strength;
                self.gust.0 += speed * angle.cos();
                self.gust.1 += speed * angle.sin();
            }
        }
        (self.base.0 + self.gust.0, self.base.1 + self.gust.1)
    }

    /// Current gust component (diagnostics).
    pub(crate) fn gust(&self) -> (f64, f64) {
        self.gust
    }

    /// Overwrite the transient gust state (snapshot restore).
    pub(crate) fn set_gust(&mut self, gust: (f64, f64)) {
        self.gust = gust;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn disabled_wind_is_always_zero() {
        let mut w = WindModel::disabled();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(w.sample(&mut rng), (0.0, 0.0));
        }
    }

    #[test]
    fn constant_wind_without_gusts_is_constant() {
        let mut w = WindModel::new((1.0, -2.0), false, 0.5, 5.0);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            assert_eq!(w.sample(&mut rng), (1.0, -2.0));
        }
    }

    #[test]
    fn gusts_trigger_at_configured_rate() {
        let mut w = WindModel::new((0.0, 0.0), true, 0.3, 4.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut events = 0;
        let n = 10_000;
        let mut prev = (0.0, 0.0);
        for _ in 0..n {
            let cur = w.sample(&mut rng);
            // A new event superposes a non-decay jump.
            let expected = (prev.0 * w.gust_decay, prev.1 * w.gust_decay);
            if (cur.0 - expected.0).abs() > 1e-9 || (cur.1 - expected.1).abs() > 1e-9 {
                events += 1;
            }
            prev = cur;
        }
        let rate = events as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "gust rate {rate}");
    }

    #[test]
    fn gusts_decay_to_zero() {
        let mut w = WindModel::new((0.0, 0.0), true, 1.0, 4.0);
        let mut rng = StdRng::seed_from_u64(4);
        w.sample(&mut rng); // guaranteed gust
        w.gust_probability = 0.0;
        let mut mag = f64::MAX;
        for _ in 0..60 {
            let (gx, gy) = w.sample(&mut rng);
            let m = (gx * gx + gy * gy).sqrt();
            assert!(m <= mag + 1e-12, "gust must decay monotonically");
            mag = m;
        }
        assert!(mag < 1e-4, "gust should have decayed: {mag}");
    }

    #[test]
    fn gust_magnitude_is_bounded_by_strength_per_event() {
        let mut w = WindModel::new((0.0, 0.0), true, 1.0, 4.0);
        let mut rng = StdRng::seed_from_u64(5);
        w.reset();
        let (gx, gy) = w.sample(&mut rng);
        let m = (gx * gx + gy * gy).sqrt();
        assert!(m <= 4.0 + 1e-12, "single event bounded by strength: {m}");
        assert!(m >= 0.3 * 4.0 * 0.999, "events have a floor: {m}");
    }

    #[test]
    fn reset_clears_gust() {
        let mut w = WindModel::new((1.0, 1.0), true, 1.0, 4.0);
        let mut rng = StdRng::seed_from_u64(6);
        w.sample(&mut rng);
        assert_ne!(w.gust(), (0.0, 0.0));
        w.reset();
        assert_eq!(w.gust(), (0.0, 0.0));
    }
}
