//! 2-D hypervolume indicator.
//!
//! The hypervolume dominated by a Pareto front (relative to a reference
//! point) is the standard scalar measure of front quality; the ablation
//! benches use it to compare exploratory methods.

use crate::distribution::BootstrapSpec;
use crate::metrics::MetricDef;
use crate::trial::Trial;

use super::spec::resolve;

/// Exact 2-D hypervolume of the front of a trial set, measured against a
/// reference point (at least as bad as every trial on both metrics,
/// given in raw metric units).
///
/// Metrics are read through their [`crate::metrics::Risk`] specs, so a
/// `Cvar`/`LowerCi` def measures the volume of the *pessimistic* front;
/// with the default `Risk::Mean` this is the plain front hypervolume.
#[derive(Debug, Clone, PartialEq)]
pub struct Hypervolume {
    axes: [MetricDef; 2],
    reference: (f64, f64),
}

impl Hypervolume {
    /// Indicator over two metrics against a reference point.
    pub fn new(x: MetricDef, y: MetricDef, reference: (f64, f64)) -> Self {
        Self { axes: [x, y], reference }
    }

    /// Hypervolume of the given trials. Returns 0 when no trial is
    /// eligible; trials worse than the reference on either metric
    /// contribute nothing. `Risk::LowerCi` readings use the default
    /// [`BootstrapSpec`].
    pub fn value(&self, trials: &[Trial]) -> f64 {
        let rows = resolve(trials, &self.axes, &BootstrapSpec::default());
        area(rows.iter().flatten().filter_map(|v| self.orient(v[0], v[1])).collect())
    }

    /// Map raw metric values onto "bigger is better" axes with the
    /// reference at the origin; `None` for points outside the reference
    /// box.
    fn orient(&self, x: f64, y: f64) -> Option<(f64, f64)> {
        let [dx, dy] = [self.axes[0].direction, self.axes[1].direction];
        let ox = dx.orient(x) - dx.orient(self.reference.0);
        let oy = dy.orient(y) - dy.orient(self.reference.1);
        (ox > 0.0 && oy > 0.0).then_some((ox, oy))
    }
}

/// Union area of the axis-aligned rectangles `[0, x] × [0, y]`: sort
/// ascending by x and sweep from the left, adding
/// `(x_i - x_prev) * max_y_of_points_with_x_ge_x_i`.
fn area(mut pts: Vec<(f64, f64)>) -> f64 {
    pts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut suffix_max_y = vec![0.0f64; pts.len() + 1];
    for i in (0..pts.len()).rev() {
        suffix_max_y[i] = suffix_max_y[i + 1].max(pts[i].1);
    }
    let mut hv = 0.0;
    let mut prev_x = 0.0;
    for (i, &(x, _)) in pts.iter().enumerate() {
        hv += (x - prev_x) * suffix_max_y[i];
        prev_x = x;
    }
    hv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Distribution;
    use crate::metrics::{MetricValues, Risk};
    use crate::trial::Configuration;

    fn t(id: usize, reward: f64, time: f64) -> Trial {
        Trial::complete(
            id,
            Configuration::new(),
            MetricValues::new().with("reward", reward).with("time_min", time),
        )
    }

    fn axes() -> (MetricDef, MetricDef) {
        (MetricDef::maximize("reward"), MetricDef::minimize("time_min"))
    }

    fn hv(trials: &[Trial], reference: (f64, f64)) -> f64 {
        let (mx, my) = axes();
        Hypervolume::new(mx, my, reference).value(trials)
    }

    #[test]
    fn single_point_is_a_rectangle() {
        // reward 2 (ref 0), time 30 (ref 100): rectangle 2 × 70.
        let v = hv(&[t(0, 2.0, 30.0)], (0.0, 100.0));
        assert!((v - 140.0).abs() < 1e-9, "hv = {v}");
    }

    #[test]
    fn dominated_points_add_nothing() {
        let alone = hv(&[t(0, 2.0, 30.0)], (0.0, 100.0));
        let with_dominated = hv(&[t(0, 2.0, 30.0), t(1, 1.0, 50.0)], (0.0, 100.0));
        assert!((alone - with_dominated).abs() < 1e-9);
    }

    #[test]
    fn trade_off_points_add_union_area() {
        // A: (2, 30) -> oriented (2, 70); B: (3, 60) -> (3, 40).
        // hv = (2-0)*max(70,40) + (3-2)*40 = 140 + 40 = 180.
        let v = hv(&[t(0, 2.0, 30.0), t(1, 3.0, 60.0)], (0.0, 100.0));
        assert!((v - 180.0).abs() < 1e-9, "hv = {v}");
    }

    #[test]
    fn points_worse_than_reference_are_ignored() {
        assert_eq!(hv(&[t(0, -1.0, 30.0)], (0.0, 100.0)), 0.0);
        assert_eq!(hv(&[t(0, 2.0, 130.0)], (0.0, 100.0)), 0.0);
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(hv(&[], (0.0, 100.0)), 0.0);
    }

    #[test]
    fn hypervolume_is_monotone_in_added_points() {
        let base = vec![t(0, 2.0, 30.0)];
        let more = vec![t(0, 2.0, 30.0), t(1, 3.0, 60.0), t(2, 1.0, 10.0)];
        assert!(hv(&more, (0.0, 100.0)) >= hv(&base, (0.0, 100.0)));
    }

    #[test]
    fn risk_spec_shrinks_the_measured_volume() {
        // Reward samples with a bad tail: CVaR reading pulls the point
        // toward the reference, shrinking the volume.
        let d = Distribution::from_samples(vec![-2.0, 2.0, 3.0, 5.0]);
        let mut v = MetricValues::new().with("reward", d.mean()).with("time_min", 30.0);
        v.set_distribution("reward", d);
        let trials = vec![Trial::complete(0, Configuration::new(), v)];
        let (mx, my) = axes();
        let mean_hv = Hypervolume::new(mx.clone(), my.clone(), (-10.0, 100.0)).value(&trials);
        let cvar_hv =
            Hypervolume::new(mx.with_risk(Risk::Cvar(0.25)), my, (-10.0, 100.0)).value(&trials);
        assert!(cvar_hv < mean_hv, "{cvar_hv} < {mean_hv}");
    }
}
