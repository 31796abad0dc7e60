//! The paper's Table I: the 18 sampled configurations and their reported
//! results, reconstructed per DESIGN.md §4.
//!
//! The anchored cells come straight from the paper's prose; filler cells
//! are back-computed from the calibrated cost model so the table is
//! self-consistent and yields the paper's three Pareto fronts.

use decision::prelude::*;
use dist_exec::Framework;
use rk_ode::RkOrder;
use rl_algos::Algorithm;

/// One row of Table I: a configuration plus the paper's reported results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRow {
    /// 1-based solution number (as the figures label points).
    pub id: usize,
    /// Runge–Kutta order (environment-dependent parameter).
    pub rk_order: RkOrder,
    /// Framework.
    pub framework: Framework,
    /// Learning algorithm.
    pub algorithm: Algorithm,
    /// Number of nodes.
    pub nodes: usize,
    /// CPU cores per node.
    pub cores: usize,
    /// Paper-reported reward.
    pub reward: f64,
    /// Paper-reported computation time (minutes).
    pub time_min: f64,
    /// Paper-reported power consumption (kJ).
    pub power_kj: f64,
    /// Whether the result cells are anchored by the paper's prose
    /// (vs. back-computed fillers).
    pub anchored: bool,
}

use Algorithm::{Ppo, Sac};
use Framework::{RayRllib as Ray, StableBaselines as Sb, TfAgents as Tfa};
use RkOrder::{Eight as Rk8, Five as Rk5, Three as Rk3};

/// Table I (DESIGN.md §4 reconstruction).
pub const TABLE1: [PaperRow; 18] = [
    PaperRow {
        id: 1,
        rk_order: Rk3,
        framework: Ray,
        algorithm: Ppo,
        nodes: 1,
        cores: 4,
        reward: -0.70,
        time_min: 87.0,
        power_kj: 215.0,
        anchored: false,
    },
    PaperRow {
        id: 2,
        rk_order: Rk3,
        framework: Ray,
        algorithm: Ppo,
        nodes: 2,
        cores: 4,
        reward: -0.65,
        time_min: 46.0,
        power_kj: 201.0,
        anchored: true,
    },
    PaperRow {
        id: 3,
        rk_order: Rk3,
        framework: Ray,
        algorithm: Sac,
        nodes: 2,
        cores: 4,
        reward: -2.80,
        time_min: 247.0,
        power_kj: 520.0,
        anchored: false,
    },
    PaperRow {
        id: 4,
        rk_order: Rk5,
        framework: Ray,
        algorithm: Ppo,
        nodes: 2,
        cores: 4,
        reward: -0.60,
        time_min: 52.0,
        power_kj: 210.0,
        anchored: true,
    },
    PaperRow {
        id: 5,
        rk_order: Rk5,
        framework: Ray,
        algorithm: Ppo,
        nodes: 2,
        cores: 4,
        reward: -0.55,
        time_min: 49.0,
        power_kj: 200.0,
        anchored: true,
    },
    PaperRow {
        id: 6,
        rk_order: Rk5,
        framework: Ray,
        algorithm: Sac,
        nodes: 1,
        cores: 4,
        reward: -2.10,
        time_min: 280.0,
        power_kj: 560.0,
        anchored: false,
    },
    PaperRow {
        id: 7,
        rk_order: Rk8,
        framework: Ray,
        algorithm: Ppo,
        nodes: 1,
        cores: 4,
        reward: -0.52,
        time_min: 85.0,
        power_kj: 230.0,
        anchored: true,
    },
    PaperRow {
        id: 8,
        rk_order: Rk8,
        framework: Ray,
        algorithm: Ppo,
        nodes: 2,
        cores: 4,
        reward: -0.73,
        time_min: 58.0,
        power_kj: 240.0,
        anchored: true,
    },
    PaperRow {
        id: 9,
        rk_order: Rk3,
        framework: Tfa,
        algorithm: Sac,
        nodes: 1,
        cores: 4,
        reward: -2.30,
        time_min: 230.0,
        power_kj: 480.0,
        anchored: false,
    },
    PaperRow {
        id: 10,
        rk_order: Rk3,
        framework: Tfa,
        algorithm: Ppo,
        nodes: 1,
        cores: 2,
        reward: -0.70,
        time_min: 98.0,
        power_kj: 159.0,
        anchored: false,
    },
    PaperRow {
        id: 11,
        rk_order: Rk3,
        framework: Tfa,
        algorithm: Ppo,
        nodes: 1,
        cores: 4,
        reward: -0.51,
        time_min: 49.4,
        power_kj: 120.0,
        anchored: true,
    },
    PaperRow {
        id: 12,
        rk_order: Rk8,
        framework: Tfa,
        algorithm: Ppo,
        nodes: 1,
        cores: 4,
        reward: -0.54,
        time_min: 73.0,
        power_kj: 180.0,
        anchored: false,
    },
    PaperRow {
        id: 13,
        rk_order: Rk8,
        framework: Tfa,
        algorithm: Sac,
        nodes: 1,
        cores: 4,
        reward: -1.90,
        time_min: 300.0,
        power_kj: 600.0,
        anchored: false,
    },
    PaperRow {
        id: 14,
        rk_order: Rk3,
        framework: Sb,
        algorithm: Ppo,
        nodes: 1,
        cores: 2,
        reward: -0.47,
        time_min: 85.0,
        power_kj: 133.0,
        anchored: true,
    },
    PaperRow {
        id: 15,
        rk_order: Rk3,
        framework: Sb,
        algorithm: Sac,
        nodes: 1,
        cores: 4,
        reward: -2.50,
        time_min: 260.0,
        power_kj: 540.0,
        anchored: false,
    },
    PaperRow {
        id: 16,
        rk_order: Rk8,
        framework: Sb,
        algorithm: Ppo,
        nodes: 1,
        cores: 4,
        reward: -0.45,
        time_min: 65.0,
        power_kj: 154.0,
        anchored: true,
    },
    PaperRow {
        id: 17,
        rk_order: Rk8,
        framework: Sb,
        algorithm: Ppo,
        nodes: 1,
        cores: 2,
        reward: -0.50,
        time_min: 131.0,
        power_kj: 212.0,
        anchored: false,
    },
    PaperRow {
        id: 18,
        rk_order: Rk8,
        framework: Sb,
        algorithm: Sac,
        nodes: 1,
        cores: 4,
        reward: -2.40,
        time_min: 310.0,
        power_kj: 620.0,
        anchored: false,
    },
];

impl PaperRow {
    /// The study parameter space (§V-b): five parameters plus the draw id
    /// that distinguishes repeated Random-Search draws (configs 4 and 5
    /// share a configuration).
    pub fn space() -> ParamSpace {
        ParamSpace::builder()
            .kind(ParamKind::Environment)
            .categorical_int("rk_order", [3, 5, 8])
            .kind(ParamKind::Algorithm)
            .categorical("framework", ["Ray RLlib", "Stable Baselines", "TF-Agents"])
            .categorical("algorithm", ["PPO", "SAC"])
            .kind(ParamKind::System)
            .categorical_int("nodes", [1, 2])
            .categorical_int("cores", [2, 4])
            .kind(ParamKind::System)
            .int("draw", 1, 18)
            .build()
    }

    /// Encode the row as a study configuration.
    pub fn to_config(&self) -> Configuration {
        Configuration::new()
            .with("rk_order", ParamValue::Int(self.rk_order.order() as i64))
            .with("framework", ParamValue::Str(self.framework.to_string()))
            .with("algorithm", ParamValue::Str(self.algorithm.to_string()))
            .with("nodes", ParamValue::Int(self.nodes as i64))
            .with("cores", ParamValue::Int(self.cores as i64))
            .with("draw", ParamValue::Int(self.id as i64))
    }

    /// Decode a study configuration back into a row skeleton (results
    /// zeroed). Errors on unknown labels.
    pub fn from_config(cfg: &Configuration) -> Result<PaperRow, String> {
        let rk = cfg.int("rk_order").ok_or("missing rk_order")?;
        let rk_order =
            RkOrder::from_order(rk as u32).ok_or_else(|| format!("bad rk order {rk}"))?;
        let framework = match cfg.str("framework").ok_or("missing framework")? {
            "Ray RLlib" => Framework::RayRllib,
            "Stable Baselines" => Framework::StableBaselines,
            "TF-Agents" => Framework::TfAgents,
            other => return Err(format!("unknown framework {other}")),
        };
        let algorithm = match cfg.str("algorithm").ok_or("missing algorithm")? {
            "PPO" => Algorithm::Ppo,
            "SAC" => Algorithm::Sac,
            other => return Err(format!("unknown algorithm {other}")),
        };
        Ok(PaperRow {
            id: cfg.int("draw").unwrap_or(0) as usize,
            rk_order,
            framework,
            algorithm,
            nodes: cfg.int("nodes").ok_or("missing nodes")? as usize,
            cores: cfg.int("cores").ok_or("missing cores")? as usize,
            reward: 0.0,
            time_min: 0.0,
            power_kj: 0.0,
            anchored: false,
        })
    }

    /// Look a row up by its 1-based id.
    pub fn by_id(id: usize) -> Option<&'static PaperRow> {
        TABLE1.iter().find(|r| r.id == id)
    }

    /// As a trial carrying the *paper's* metric values, for computing the
    /// paper-side Pareto fronts.
    pub fn to_paper_trial(&self) -> Trial {
        Trial::complete(
            self.id - 1,
            self.to_config(),
            MetricValues::new()
                .with_key(metric_keys::REWARD, self.reward)
                .with_key(metric_keys::TIME_MIN, self.time_min)
                .with_key(metric_keys::POWER_KJ, self.power_kj),
        )
    }
}

/// The paper's three Pareto-front figures: axes, title and reported front.
pub mod figures {
    use decision::prelude::*;

    /// One figure of the paper's evaluation.
    pub struct Figure {
        /// The paper's figure number.
        pub number: usize,
        /// The plot title.
        pub title: &'static str,
        /// The `(x, y)` metric pair.
        pub metrics: fn() -> (MetricDef, MetricDef),
        /// The non-dominated solution ids the paper reports (§VI-A to C).
        pub paper_front: &'static [usize],
    }

    /// Figures 4, 5 and 6.
    pub const FIGURES: [Figure; 3] = [
        Figure {
            number: 4,
            title: "Reward vs. Computation Time trade-off (Fig. 4)",
            metrics: fig4_metrics,
            paper_front: &[2, 5, 11, 16],
        },
        Figure {
            number: 5,
            title: "Power Consumption vs. Computation Time trade-off (Fig. 5)",
            metrics: fig5_metrics,
            paper_front: &[2, 5, 11],
        },
        Figure {
            number: 6,
            title: "Reward vs. Power Consumption trade-off (Fig. 6)",
            metrics: fig6_metrics,
            paper_front: &[11, 14, 16],
        },
    ];

    /// Figure 4: Reward vs. Computation Time.
    pub fn fig4_metrics() -> (MetricDef, MetricDef) {
        (
            MetricDef::minimize_key(metric_keys::TIME_MIN),
            MetricDef::maximize_key(metric_keys::REWARD),
        )
    }

    /// Figure 5: Power Consumption vs. Computation Time.
    pub fn fig5_metrics() -> (MetricDef, MetricDef) {
        (
            MetricDef::minimize_key(metric_keys::TIME_MIN),
            MetricDef::minimize_key(metric_keys::POWER_KJ),
        )
    }

    /// Figure 6: Reward vs. Power Consumption.
    pub fn fig6_metrics() -> (MetricDef, MetricDef) {
        (
            MetricDef::minimize_key(metric_keys::POWER_KJ),
            MetricDef::maximize_key(metric_keys::REWARD),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_18_rows_with_sequential_ids() {
        assert_eq!(TABLE1.len(), 18);
        for (i, r) in TABLE1.iter().enumerate() {
            assert_eq!(r.id, i + 1);
        }
    }

    #[test]
    fn rk_column_matches_the_surviving_fragment() {
        // The corrupted HTML table's one surviving column.
        let fragment = [3, 3, 3, 5, 5, 5, 8, 8, 3, 3, 3, 8, 8, 3, 3, 8, 8, 8];
        for (r, want) in TABLE1.iter().zip(fragment) {
            assert_eq!(r.rk_order.order(), want, "row {}", r.id);
        }
    }

    #[test]
    fn multi_node_rows_are_rllib_only() {
        for r in &TABLE1 {
            if r.nodes > 1 {
                assert_eq!(r.framework, Framework::RayRllib, "row {}", r.id);
            }
        }
    }

    #[test]
    fn config_round_trips() {
        for r in &TABLE1 {
            let cfg = r.to_config();
            assert!(PaperRow::space().contains(&cfg), "row {} outside space", r.id);
            let back = PaperRow::from_config(&cfg).expect("decode");
            assert_eq!(back.id, r.id);
            assert_eq!(back.rk_order, r.rk_order);
            assert_eq!(back.framework, r.framework);
            assert_eq!(back.algorithm, r.algorithm);
            assert_eq!(back.nodes, r.nodes);
            assert_eq!(back.cores, r.cores);
        }
    }

    #[test]
    fn paper_side_figures_reproduce_their_fronts() {
        // §VI-A: "The four non-dominated solutions are 2, 5, 11 and 16."
        // §VI-B: "Solutions 2, 5 and 11 are highlighted as best trade-offs."
        // §VI-C: "Solutions 11, 14 and 16 are highlighted as non-dominated."
        // Over all 18 rows and over the PPO rows the figures plot.
        for ppo_only in [false, true] {
            let trials: Vec<Trial> = TABLE1
                .iter()
                .filter(|r| !ppo_only || r.algorithm == Algorithm::Ppo)
                .map(PaperRow::to_paper_trial)
                .collect();
            for figure in &figures::FIGURES {
                let (x, y) = (figure.metrics)();
                let front = ParetoFront::compute(&trials, &[x, y]);
                let mut ids: Vec<usize> =
                    front.indices().iter().map(|&i| trials[i].id + 1).collect();
                ids.sort_unstable();
                assert_eq!(ids, figure.paper_front, "Fig. {} front mismatch", figure.number);
            }
        }
    }

    #[test]
    fn anchored_cells_match_the_prose() {
        let r2 = PaperRow::by_id(2).unwrap();
        assert_eq!((r2.time_min, r2.power_kj), (46.0, 201.0));
        let r16 = PaperRow::by_id(16).unwrap();
        assert_eq!((r16.reward, r16.time_min), (-0.45, 65.0));
        let r7 = PaperRow::by_id(7).unwrap();
        assert_eq!(r7.reward, -0.52);
        let r8 = PaperRow::by_id(8).unwrap();
        assert_eq!(r8.reward, -0.73);
        let r11 = PaperRow::by_id(11).unwrap();
        assert_eq!(r11.power_kj, 120.0);
        assert!((r11.time_min - 49.0).abs() < 0.5, "rounds to 49 min");
    }

    #[test]
    fn sac_rows_are_uniformly_poor() {
        // §VI-D: SAC "obtained poor results, either taking too much time
        // … or failing in learning tasks and collecting low rewards".
        for r in TABLE1.iter().filter(|r| r.algorithm == Algorithm::Sac) {
            assert!(r.reward < -1.5, "row {}", r.id);
            assert!(r.time_min > 200.0, "row {}", r.id);
        }
    }
}
