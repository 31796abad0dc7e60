//! SVG scatter plots with Pareto-front highlighting — the graphical
//! ranking output of the methodology (Figures 4, 5 and 6 of the paper).

use super::{Intervals, PerColumn};
use crate::distribution::BootstrapSpec;
use crate::metrics::MetricDef;
use crate::rank::pareto::ParetoFront;
use crate::trial::Trial;
use std::fmt::Write as _;
use telemetry::{push_fixed, push_shortest};

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

        // About 220 bytes a point with its label and whiskers.
        let mut s = String::with_capacity(2_048 + 220 * pts.len());
        let _ = write!(
            s,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{}" height="{}" viewBox="0 0 {} {}">"#,
            self.width, self.height, self.width, self.height
        );
        s.push('\n');
        let _ =
            write!(s, r#"<rect width="{}" height="{}" fill="white"/>"#, self.width, self.height);
        s.push('\n');
        // Title.
        num(&mut s, "<text x=\"", w / 2.0);
        s.push_str(r#"" y="24" font-family="sans-serif" font-size="16" text-anchor="middle">"#);
        xml_escape(&mut s, &self.title);
        s.push_str("</text>\n");
        // Axes.
        num(&mut s, "<line x1=\"", ml);
        num(&mut s, "\" y1=\"", mt + plot_h);
        num(&mut s, "\" x2=\"", ml + plot_w);
        num(&mut s, "\" y2=\"", mt + plot_h);
        num(&mut s, "\" stroke=\"black\"/><line x1=\"", ml);
        num(&mut s, "\" y1=\"", mt);
        num(&mut s, "\" x2=\"", ml);
        num(&mut s, "\" y2=\"", mt + plot_h);
        s.push_str("\" stroke=\"black\"/>\n");
        // Ticks.
        for k in 0..=4 {
            let fx = xmin + (xmax - xmin) * k as f64 / 4.0;
            let fy = ymin + (ymax - ymin) * k as f64 / 4.0;
            let px = sx(fx);
            let py = sy(fy);
            num(&mut s, "<line x1=\"", px);
            num(&mut s, "\" y1=\"", mt + plot_h);
            num(&mut s, "\" x2=\"", px);
            num(&mut s, "\" y2=\"", mt + plot_h + 5.0);
            num(&mut s, "\" stroke=\"black\"/><text x=\"", px);
            num(&mut s, "\" y=\"", mt + plot_h + 18.0);
            s.push_str(r#"" font-family="sans-serif" font-size="11" text-anchor="middle">"#);
            push_tick(&mut s, fx);
            num(&mut s, "</text><line x1=\"", ml - 5.0);
            num(&mut s, "\" y1=\"", py);
            num(&mut s, "\" x2=\"", ml);
            num(&mut s, "\" y2=\"", py);
            num(&mut s, "\" stroke=\"black\"/><text x=\"", ml - 8.0);
            num(&mut s, "\" y=\"", py + 4.0);
            s.push_str(r#"" font-family="sans-serif" font-size="11" text-anchor="end">"#);
            push_tick(&mut s, fy);
            s.push_str("</text>\n");
        }
        // Axis labels.
        num(&mut s, "<text x=\"", ml + plot_w / 2.0);
        num(&mut s, "\" y=\"", h - 12.0);
        s.push_str(r#"" font-family="sans-serif" font-size="13" text-anchor="middle">"#);
        xml_escape(&mut s, &self.x.name);
        num(&mut s, "</text><text x=\"16\" y=\"", mt + plot_h / 2.0);
        s.push_str(r#"" font-family="sans-serif" font-size="13" text-anchor="middle" transform="rotate(-90 16 "#);
        num(&mut s, "", mt + plot_h / 2.0);
        s.push_str(")\">");
        xml_escape(&mut s, &self.y.name);
        s.push_str("</text>\n");

        // Pareto step line: front points sorted by x.
        let mut front_pts: Vec<(usize, f64, f64)> =
            pts.iter().filter(|(i, _, _)| front.contains(*i)).cloned().collect();
        front_pts.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        if front_pts.len() >= 2 {
            s.push_str("<polyline points=\"");
            for (k, (_, x, y)) in front_pts.iter().enumerate() {
                fixed1(&mut s, if k == 0 { "" } else { " " }, sx(*x));
                fixed1(&mut s, ",", sy(*y));
            }
            s.push_str(
                r##"" fill="none" stroke="#d62728" stroke-width="1.5" stroke-dasharray="5,3"/>"##,
            );
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
                    fixed1(&mut s, "<line x1=\"", sx(ci.lo));
                    fixed1(&mut s, "\" y1=\"", py);
                    fixed1(&mut s, "\" x2=\"", sx(ci.hi));
                    fixed1(&mut s, "\" y2=\"", py);
                    s.push_str(WHISKER_END);
                }
                if let Some(d) = t.metrics.distribution(&self.y.name).filter(|d| !d.is_empty()) {
                    let ci = cis.ci(1, d);
                    fixed1(&mut s, "<line x1=\"", px);
                    fixed1(&mut s, "\" y1=\"", sy(ci.lo));
                    fixed1(&mut s, "\" x2=\"", px);
                    fixed1(&mut s, "\" y2=\"", sy(ci.hi));
                    s.push_str(WHISKER_END);
                }
            }
        }

        // Points.
        for (i, x, y) in &pts {
            let (px, py) = (sx(*x), sy(*y));
            if front.contains(*i) {
                fixed1(&mut s, "<rect x=\"", px - 4.5);
                fixed1(&mut s, "\" y=\"", py - 4.5);
                let _ = write!(
                    s,
                    r##"" width="9" height="9" fill="#d62728"><title>trial {}</title></rect>"##,
                    i + 1
                );
            } else {
                fixed1(&mut s, "<circle cx=\"", px);
                fixed1(&mut s, "\" cy=\"", py);
                let _ = write!(
                    s,
                    r##"" r="4" fill="#1f77b4" fill-opacity="0.8"><title>trial {}</title></circle>"##,
                    i + 1
                );
            }
            if self.label_points {
                fixed1(&mut s, "<text x=\"", px + 6.0);
                fixed1(&mut s, "\" y=\"", py - 6.0);
                let _ = write!(s, r#"" font-family="sans-serif" font-size="10">{}</text>"#, i + 1);
            }
            s.push('\n');
        }

        // Legend.
        num(&mut s, "<rect x=\"", ml + 8.0);
        num(&mut s, "\" y=\"", mt + 6.0);
        num(&mut s, "\" width=\"9\" height=\"9\" fill=\"#d62728\"/><text x=\"", ml + 22.0);
        num(&mut s, "\" y=\"", mt + 14.0);
        s.push_str(r#"" font-family="sans-serif" font-size="11">Pareto front</text>"#);
        num(&mut s, "<circle cx=\"", ml + 12.0);
        num(&mut s, "\" cy=\"", mt + 28.0);
        num(&mut s, "\" r=\"4\" fill=\"#1f77b4\"/><text x=\"", ml + 22.0);
        num(&mut s, "\" y=\"", mt + 32.0);
        s.push_str(r#"" font-family="sans-serif" font-size="11">dominated</text>"#);
        s.push_str("</svg>\n");
        s
    }
}

/// The tail of a whisker's `<line>`.
const WHISKER_END: &str = "\" stroke=\"#7f7f7f\" stroke-width=\"1.2\"/>\n";

/// `before`, then `v` as `{}` writes it.
fn num(s: &mut String, before: &str, v: f64) {
    s.push_str(before);
    push_shortest(s, v);
}

/// `before`, then `v` as `{:.1}` writes it.
fn fixed1(s: &mut String, before: &str, v: f64) {
    s.push_str(before);
    push_fixed(s, v, 1);
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

/// A tick label: no decimals from 100 up, one from 1, two below.
fn push_tick(s: &mut String, v: f64) {
    let digits = if v.abs() >= 100.0 {
        0
    } else if v.abs() >= 1.0 {
        1
    } else {
        2
    };
    push_fixed(s, v, digits);
}

/// `text` with `&`, `<` and `>` escaped.
fn xml_escape(s: &mut String, text: &str) {
    for c in text.chars() {
        match c {
            '&' => s.push_str("&amp;"),
            '<' => s.push_str("&lt;"),
            '>' => s.push_str("&gt;"),
            c => s.push(c),
        }
    }
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
