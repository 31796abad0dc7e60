//! Episode statistics.

/// Aggregate statistics over a batch of episodes.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpisodeStats {
    /// Number of episodes.
    pub episodes: usize,
    /// Mean return.
    pub mean_return: f64,
    /// Standard deviation of returns.
    pub std_return: f64,
    /// Minimum return.
    pub min_return: f64,
    /// Maximum return.
    pub max_return: f64,
    /// Mean episode length.
    pub mean_length: f64,
}

impl EpisodeStats {
    /// Compute statistics from raw `(return, length)` pairs.
    pub fn from_episodes(eps: &[(f64, usize)]) -> Self {
        if eps.is_empty() {
            return Self::default();
        }
        let n = eps.len() as f64;
        let mean = eps.iter().map(|e| e.0).sum::<f64>() / n;
        let var = eps.iter().map(|e| (e.0 - mean).powi(2)).sum::<f64>() / n;
        Self {
            episodes: eps.len(),
            mean_return: mean,
            std_return: var.sqrt(),
            min_return: eps.iter().map(|e| e.0).fold(f64::INFINITY, f64::min),
            max_return: eps.iter().map(|e| e.0).fold(f64::NEG_INFINITY, f64::max),
            mean_length: eps.iter().map(|e| e.1 as f64).sum::<f64>() / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_from_episodes() {
        let s = EpisodeStats::from_episodes(&[(1.0, 10), (3.0, 20)]);
        assert_eq!(s.episodes, 2);
        assert!((s.mean_return - 2.0).abs() < 1e-12);
        assert!((s.std_return - 1.0).abs() < 1e-12);
        assert_eq!(s.min_return, 1.0);
        assert_eq!(s.max_return, 3.0);
        assert!((s.mean_length - 15.0).abs() < 1e-12);
    }

    #[test]
    fn stats_of_empty_batch_are_default() {
        let s = EpisodeStats::from_episodes(&[]);
        assert_eq!(s.episodes, 0);
        assert_eq!(s.mean_return, 0.0);
    }
}
