//! Trajectory recording for analysis and visual debugging.

use crate::dynamics::STATE_DIM;

/// Records the physical trajectory of an episode.
#[derive(Debug, Clone, Default)]
pub struct TrajectoryRecorder {
    /// Recorded full 9-component states, in time order.
    pub(crate) samples: Vec<[f64; STATE_DIM]>,
}

impl TrajectoryRecorder {
    /// Empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a sample.
    pub fn push(&mut self, state: &[f64; STATE_DIM]) {
        self.samples.push(*state);
    }

    /// Total ground-track length (diagnostic for spiral descents).
    pub fn track_length(&self) -> f64 {
        self.samples
            .windows(2)
            .map(|w| {
                let dx = w[1][0] - w[0][0];
                let dy = w[1][1] - w[0][1];
                (dx * dx + dy * dy).sqrt()
            })
            .sum()
    }

    /// Render the ground track as a small ASCII map (debugging aid).
    ///
    /// `T` marks the target (origin), `o` the drop point, `x` the landing
    /// point, `.` intermediate samples.
    pub fn ascii_ground_track(&self, width: usize, height: usize) -> String {
        if self.samples.is_empty() {
            return String::from("(empty trajectory)\n");
        }
        let xs: Vec<f64> = self.samples.iter().map(|s| s[0]).chain([0.0]).collect();
        let ys: Vec<f64> = self.samples.iter().map(|s| s[1]).chain([0.0]).collect();
        let (xmin, xmax) = bounds(&xs);
        let (ymin, ymax) = bounds(&ys);
        let mut grid = vec![vec![b' '; width]; height];
        let place = |x: f64, y: f64| -> (usize, usize) {
            let cx = ((x - xmin) / (xmax - xmin).max(1e-9) * (width - 1) as f64).round() as usize;
            let cy = ((y - ymin) / (ymax - ymin).max(1e-9) * (height - 1) as f64).round() as usize;
            (cx.min(width - 1), cy.min(height - 1))
        };
        for s in &self.samples {
            let (cx, cy) = place(s[0], s[1]);
            grid[cy][cx] = b'.';
        }
        let first = &self.samples[0];
        let last = self.samples.last().expect("non-empty");
        let (cx, cy) = place(first[0], first[1]);
        grid[cy][cx] = b'o';
        let (cx, cy) = place(last[0], last[1]);
        grid[cy][cx] = b'x';
        let (cx, cy) = place(0.0, 0.0);
        grid[cy][cx] = b'T';
        let mut out = String::with_capacity((width + 1) * height);
        for row in grid.iter().rev() {
            out.push_str(std::str::from_utf8(row).expect("ascii"));
            out.push('\n');
        }
        out
    }
}

fn bounds(v: &[f64]) -> (f64, f64) {
    let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if (max - min).abs() < 1e-9 {
        (min - 1.0, max + 1.0)
    } else {
        (min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(x: f64, y: f64, z: f64) -> [f64; STATE_DIM] {
        let mut state = [0.0; STATE_DIM];
        state[0] = x;
        state[1] = y;
        state[2] = z;
        state
    }

    fn straight_line() -> TrajectoryRecorder {
        let mut r = TrajectoryRecorder::new();
        for i in 0..5 {
            // Offset from the origin so the drop marker does not coincide
            // with the target marker in the ASCII map test.
            r.push(&sample(30.0 + i as f64 * 3.0, 40.0 + i as f64 * 4.0, 100.0 - i as f64));
        }
        r
    }

    #[test]
    fn track_length_of_straight_line() {
        let r = straight_line();
        // Each segment is a 3-4-5 triangle: length 5 per step, 4 steps.
        assert!((r.track_length() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn ascii_map_marks_endpoints_and_target() {
        let r = straight_line();
        let map = r.ascii_ground_track(20, 10);
        assert!(map.contains('o'));
        assert!(map.contains('x'));
        assert!(map.contains('T'));
    }

    #[test]
    fn empty_recorder_renders_placeholder() {
        let r = TrajectoryRecorder::new();
        assert!(r.ascii_ground_track(10, 5).contains("empty"));
        assert_eq!(r.track_length(), 0.0);
    }
}
