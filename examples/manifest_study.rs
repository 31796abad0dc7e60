//! Declarative studies: define the methodology's stages as JSON (the
//! direction §VII's "automatic experimentation framework" points at) and
//! attach only the objective in code.
//!
//! ```text
//! cargo run --release --example manifest_study
//! ```

use rl_decision_tools::decision::manifest::StudyManifest;
use rl_decision_tools::decision::prelude::*;
use rl_decision_tools::decision::report;

const MANIFEST: &str = r#"{
    "name": "airdrop-manifest-demo",
    "space": [
        {"name": "rk_order", "kind": "environment",
         "domain": {"type": "categorical_int", "values": [3, 5, 8]}},
        {"name": "cores", "kind": "system",
         "domain": {"type": "categorical_int", "values": [2, 4]}},
        {"name": "lr",
         "domain": {"type": "log_float", "lo": 1e-5, "hi": 1e-2}}
    ],
    "explorer": {"type": "random", "budget": 12, "dedup": true},
    "metrics": [
        {"name": "reward", "direction": "maximize"},
        {"name": "time_min", "direction": "minimize"}
    ],
    "pruner": {"type": "median", "n_startup_trials": 3},
    "seed": 5
}"#;

fn main() -> Result<(), String> {
    let manifest = StudyManifest::from_json(MANIFEST).map_err(|e| e.to_string())?;
    println!(
        "Loaded manifest `{}`: {} parameters, explorer {:?}\n",
        manifest.name,
        manifest.space.len(),
        manifest.explorer
    );

    // The objective is the only stage that stays in code — here a
    // synthetic surrogate of the airdrop study's couplings.
    let study = manifest.into_study(|cfg, ctx| {
        let order = cfg.int("rk_order").unwrap() as f64;
        let cores = cfg.int("cores").unwrap() as f64;
        let lr = cfg.float("lr").unwrap();
        // A learning-rate sweet spot near 3e-4, sharper with higher order.
        let lr_quality = (-((lr.ln() - (3e-4f64).ln()).powi(2))).exp();
        let reward = -1.5 / order - 0.4 * (1.0 - lr_quality);
        let time = (40.0 + 4.0 * order) * (4.0 / cores).sqrt();
        // Give the pruner an intermediate signal.
        let _ = ctx.report(1, reward);
        Ok(MetricValues::new().with("reward", reward).with("time_min", time))
    })?;

    let trials = study.run()?;
    println!(
        "{}",
        report::table::render_table(&trials, &["rk_order", "cores", "lr"], &study.metrics())
    );

    let front = ParetoFront::compute(&trials, &study.metrics());
    println!("Markdown report (front rows bolded):\n");
    println!(
        "{}",
        report::markdown::trials_to_markdown(
            &trials,
            &["rk_order", "cores"],
            &study.metrics(),
            Some(&front)
        )
    );

    // Per-parameter main effects (the §VI-D style conclusions).
    for effect in decision::all_effects(&trials, study.space(), &study.metrics()) {
        println!("{}", effect.render(&study.metrics()));
    }
    Ok(())
}
