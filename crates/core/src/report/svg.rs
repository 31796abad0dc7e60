//! SVG scatter plots with Pareto-front highlighting — the graphical
//! ranking output of the methodology (Figures 4, 5 and 6 of the paper).

use super::{Intervals, PerColumn};
use crate::distribution::BootstrapSpec;
use crate::metrics::MetricDef;
use crate::rank::pareto::ParetoFront;
use crate::trial::Trial;

/// A 2-D scatter-plot description.
pub struct ScatterPlot {
    /// Plot title (e.g. "Reward vs. Computation Time trade-off").
    pub(crate) title: String,
    /// X-axis metric.
    pub(crate) x: MetricDef,
    /// Y-axis metric.
    pub(crate) y: MetricDef,
    /// Canvas width in px.
    pub(crate) width: u32,
    /// Canvas height in px.
    pub(crate) height: u32,
    /// Label points with their 1-based trial id (as the paper's figures
    /// label solutions).
    pub(crate) label_points: bool,
    /// When set, draw bootstrap-CI whiskers on every point whose trial
    /// carries a sample distribution for the axis metric. `None` (the
    /// default) renders exactly the legacy scalar plot.
    pub(crate) whiskers: Option<BootstrapSpec>,
}

impl ScatterPlot {
    /// A default 640×480 plot.
    pub fn new(title: impl Into<String>, x: MetricDef, y: MetricDef) -> Self {
        Self {
            title: title.into(),
            x,
            y,
            width: 640,
            height: 480,
            label_points: true,
            whiskers: None,
        }
    }

    /// Enable bootstrap-CI whiskers computed under `spec`.
    pub fn with_whiskers(mut self, spec: BootstrapSpec) -> Self {
        self.whiskers = Some(spec);
        self
    }

    /// Render trials, highlighting the Pareto front (non-dominated points
    /// are drawn as filled squares joined by a step line, dominated
    /// points as circles), and return the SVG document.
    pub fn render(&self, trials: &[Trial], front: &ParetoFront) -> String {
        match &self.whiskers {
            Some(spec) => {
                let axes = [self.x.name.as_str(), self.y.name.as_str()];
                let plotted = trials.iter().filter(|t| self.point(t).is_some());
                self.render_with(trials, front, Some(&mut PerColumn::new(spec, &axes, plotted)))
            }
            None => self.render_with(trials, front, None),
        }
    }

    /// The trial's `(x, y)`, when it is complete and both are finite: the
    /// trials the plot draws.
    fn point(&self, t: &Trial) -> Option<(f64, f64)> {
        let x = t.metrics.get(&self.x.name)?;
        let y = t.metrics.get(&self.y.name)?;
        (t.is_complete() && x.is_finite() && y.is_finite()).then_some((x, y))
    }

    /// [`Self::render`] with the whiskers' intervals (column 0 the x
    /// metric's, column 1 the y metric's) from `whiskers`.
    pub(super) fn render_with(
        &self,
        trials: &[Trial],
        front: &ParetoFront,
        mut whiskers: Option<&mut dyn Intervals>,
    ) -> String {
        let pts: Vec<(usize, f64, f64)> = trials
            .iter()
            .enumerate()
            .filter_map(|(i, t)| self.point(t).map(|(x, y)| (i, x, y)))
            .collect();

        let (w, h) = (self.width as f64, self.height as f64);
        let (ml, mr, mt, mb) = (70.0, 20.0, 40.0, 55.0);
        let plot_w = w - ml - mr;
        let plot_h = h - mt - mb;

        let (xmin, xmax) = nice_bounds(pts.iter().map(|p| p.1));
        let (ymin, ymax) = nice_bounds(pts.iter().map(|p| p.2));
        let sx = |v: f64| ml + (v - xmin) / (xmax - xmin).max(1e-12) * plot_w;
        let sy = |v: f64| mt + plot_h - (v - ymin) / (ymax - ymin).max(1e-12) * plot_h;

        let mut s = String::new();
        s.push_str(&format!(
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{}" height="{}" viewBox="0 0 {} {}">"#,
            self.width, self.height, self.width, self.height
        ));
        s.push('\n');
        s.push_str(&format!(
            r#"<rect width="{}" height="{}" fill="white"/>"#,
            self.width, self.height
        ));
        s.push('\n');
        // Title.
        s.push_str(&format!(
            r#"<text x="{}" y="24" font-family="sans-serif" font-size="16" text-anchor="middle">{}</text>"#,
            w / 2.0,
            xml_escape(&self.title)
        ));
        s.push('\n');
        // Axes.
        s.push_str(&format!(
            r#"<line x1="{ml}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>"#,
            ml = ml,
            y0 = mt + plot_h,
            x1 = ml + plot_w
        ));
        s.push_str(&format!(
            r#"<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{y0}" stroke="black"/>"#,
            ml = ml,
            mt = mt,
            y0 = mt + plot_h
        ));
        s.push('\n');
        // Ticks.
        for k in 0..=4 {
            let fx = xmin + (xmax - xmin) * k as f64 / 4.0;
            let fy = ymin + (ymax - ymin) * k as f64 / 4.0;
            let px = sx(fx);
            let py = sy(fy);
            s.push_str(&format!(
                r#"<line x1="{px}" y1="{y0}" x2="{px}" y2="{y1}" stroke="black"/><text x="{px}" y="{ty}" font-family="sans-serif" font-size="11" text-anchor="middle">{v}</text>"#,
                px = px,
                y0 = mt + plot_h,
                y1 = mt + plot_h + 5.0,
                ty = mt + plot_h + 18.0,
                v = fmt_tick(fx)
            ));
            s.push_str(&format!(
                r#"<line x1="{x0}" y1="{py}" x2="{ml}" y2="{py}" stroke="black"/><text x="{tx}" y="{tyy}" font-family="sans-serif" font-size="11" text-anchor="end">{v}</text>"#,
                x0 = ml - 5.0,
                ml = ml,
                py = py,
                tx = ml - 8.0,
                tyy = py + 4.0,
                v = fmt_tick(fy)
            ));
            s.push('\n');
        }
        // Axis labels.
        s.push_str(&format!(
            r#"<text x="{}" y="{}" font-family="sans-serif" font-size="13" text-anchor="middle">{}</text>"#,
            ml + plot_w / 2.0,
            h - 12.0,
            xml_escape(&self.x.name)
        ));
        s.push_str(&format!(
            r#"<text x="16" y="{}" font-family="sans-serif" font-size="13" text-anchor="middle" transform="rotate(-90 16 {})">{}</text>"#,
            mt + plot_h / 2.0,
            mt + plot_h / 2.0,
            xml_escape(&self.y.name)
        ));
        s.push('\n');

        // Pareto step line: front points sorted by x.
        let mut front_pts: Vec<(usize, f64, f64)> =
            pts.iter().filter(|(i, _, _)| front.contains(*i)).cloned().collect();
        front_pts.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        if front_pts.len() >= 2 {
            let path: Vec<String> =
                front_pts.iter().map(|(_, x, y)| format!("{:.1},{:.1}", sx(*x), sy(*y))).collect();
            s.push_str(&format!(
                r##"<polyline points="{}" fill="none" stroke="#d62728" stroke-width="1.5" stroke-dasharray="5,3"/>"##,
                path.join(" ")
            ));
            s.push('\n');
        }

        // CI whiskers (under the points so markers stay readable): one
        // segment per axis whose metric has a sample distribution.
        if let Some(cis) = &mut whiskers {
            for (i, x, y) in &pts {
                let (px, py) = (sx(*x), sy(*y));
                let t = &trials[*i];
                if let Some(d) = t.metrics.distribution(&self.x.name).filter(|d| !d.is_empty()) {
                    let ci = cis.ci(0, d);
                    s.push_str(&format!(
                        r##"<line x1="{:.1}" y1="{py:.1}" x2="{:.1}" y2="{py:.1}" stroke="#7f7f7f" stroke-width="1.2"/>"##,
                        sx(ci.lo),
                        sx(ci.hi)
                    ));
                    s.push('\n');
                }
                if let Some(d) = t.metrics.distribution(&self.y.name).filter(|d| !d.is_empty()) {
                    let ci = cis.ci(1, d);
                    s.push_str(&format!(
                        r##"<line x1="{px:.1}" y1="{:.1}" x2="{px:.1}" y2="{:.1}" stroke="#7f7f7f" stroke-width="1.2"/>"##,
                        sy(ci.lo),
                        sy(ci.hi)
                    ));
                    s.push('\n');
                }
            }
        }

        // Points.
        for (i, x, y) in &pts {
            let (px, py) = (sx(*x), sy(*y));
            if front.contains(*i) {
                s.push_str(&format!(
                    r##"<rect x="{:.1}" y="{:.1}" width="9" height="9" fill="#d62728"><title>trial {}</title></rect>"##,
                    px - 4.5,
                    py - 4.5,
                    i + 1
                ));
            } else {
                s.push_str(&format!(
                    r##"<circle cx="{px:.1}" cy="{py:.1}" r="4" fill="#1f77b4" fill-opacity="0.8"><title>trial {}</title></circle>"##,
                    i + 1
                ));
            }
            if self.label_points {
                s.push_str(&format!(
                    r#"<text x="{:.1}" y="{:.1}" font-family="sans-serif" font-size="10">{}</text>"#,
                    px + 6.0,
                    py - 6.0,
                    i + 1
                ));
            }
            s.push('\n');
        }

        // Legend.
        s.push_str(&format!(
            r##"<rect x="{x}" y="{y}" width="9" height="9" fill="#d62728"/><text x="{tx}" y="{ty}" font-family="sans-serif" font-size="11">Pareto front</text>"##,
            x = ml + 8.0,
            y = mt + 6.0,
            tx = ml + 22.0,
            ty = mt + 14.0
        ));
        s.push_str(&format!(
            r##"<circle cx="{x}" cy="{y}" r="4" fill="#1f77b4"/><text x="{tx}" y="{ty}" font-family="sans-serif" font-size="11">dominated</text>"##,
            x = ml + 12.0,
            y = mt + 28.0,
            tx = ml + 22.0,
            ty = mt + 32.0
        ));
        s.push_str("</svg>\n");
        s
    }
}

fn nice_bounds(vals: impl Iterator<Item = f64>) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for v in vals {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if !lo.is_finite() || !hi.is_finite() {
        return (0.0, 1.0);
    }
    let span = (hi - lo).max(1e-9);
    (lo - 0.07 * span, hi + 0.07 * span)
}

fn fmt_tick(v: f64) -> String {
    if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricValues;
    use crate::trial::Configuration;

    fn trials() -> Vec<Trial> {
        [(-0.65f64, 46.0f64), (-0.55, 49.0), (-0.45, 65.0), (-0.78, 72.0)]
            .iter()
            .enumerate()
            .map(|(i, (r, t))| {
                Trial::complete(
                    i,
                    Configuration::new(),
                    MetricValues::new().with("reward", *r).with("time_min", *t),
                )
            })
            .collect()
    }

    fn plot() -> ScatterPlot {
        ScatterPlot::new(
            "Reward vs. Computation Time trade-off",
            MetricDef::minimize("time_min"),
            MetricDef::maximize("reward"),
        )
    }

    #[test]
    fn svg_is_well_formed_enough() {
        let ts = trials();
        let front = ParetoFront::compute(
            &ts,
            &[MetricDef::maximize("reward"), MetricDef::minimize("time_min")],
        );
        let svg = plot().render(&ts, &front);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<svg").count(), 1);
        assert!(svg.contains("Pareto front"));
        assert!(svg.contains("reward"));
        assert!(svg.contains("time_min"));
    }

    #[test]
    fn front_points_are_squares_dominated_are_circles() {
        let ts = trials();
        let front = ParetoFront::compute(
            &ts,
            &[MetricDef::maximize("reward"), MetricDef::minimize("time_min")],
        );
        let svg = plot().render(&ts, &front);
        // 3 front members (ids 0,1,2) + legend square; 1 dominated + legend circle.
        assert_eq!(svg.matches("<rect").count(), 1 + front.len() + 1, "bg + front + legend");
        assert_eq!(svg.matches("<circle").count(), (ts.len() - front.len()) + 1);
    }

    #[test]
    fn labels_can_be_disabled() {
        let ts = trials();
        let front = ParetoFront::compute(&ts, &[MetricDef::maximize("reward")]);
        let mut p = plot();
        p.label_points = false;
        let svg = p.render(&ts, &front);
        let labeled = plot().render(&ts, &front);
        assert!(svg.len() < labeled.len());
    }

    #[test]
    fn empty_trials_still_render() {
        let front = ParetoFront::compute(&[], &[MetricDef::maximize("reward")]);
        let svg = plot().render(&[], &front);
        assert!(svg.contains("</svg>"));
    }

    #[test]
    fn title_is_escaped() {
        let mut p = plot();
        p.title = "a < b & c".into();
        let front = ParetoFront::compute(&[], &[MetricDef::maximize("reward")]);
        let svg = p.render(&[], &front);
        assert!(svg.contains("a &lt; b &amp; c"));
    }
}
