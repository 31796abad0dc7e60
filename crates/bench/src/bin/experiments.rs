//! EXPERIMENTS.md as the render of checked-in journals. The bin runs the
//! Table I study and the §VI-D ablation study as journalled, resumable
//! studies, then rewrites every results block of EXPERIMENTS.md (between
//! `<!-- begin NAME -->` and `<!-- end NAME -->`) and the figure artefacts
//! next to the journals from what the journals hold.
//!
//! ```text
//! cargo run --release -p bench --bin experiments            # journals/scaled/, rewrites EXPERIMENTS.md
//! cargo run --release -p bench --bin experiments -- --paper # journals/paper/, prints the blocks
//! ```
//!
//! A complete journal is only read: rendering trains nothing and appends
//! nothing. A journal whose checkpoints name another study, seed or
//! objective fingerprint is refused, not rendered. The test re-renders
//! from the checked-in journals and fails on any byte that drifted.

use bench::calibration::{predicted_kilojoules, predicted_minutes};
use bench::harness::journal_identity;
use bench::paper::figures::FIGURES;
use bench::{run_row, run_table1_study, HarnessOpts, PaperRow, TABLE1};
use decision::metrics::keys::{POWER_KJ, REWARD, REWARD_STD, TIME_MIN};
use decision::prelude::*;
use decision::report::{csv::trials_to_csv, svg::ScatterPlot};
use dist_exec::Framework;
use rk_ode::RkOrder;
use rl_algos::Algorithm;
use std::path::{Path, PathBuf};

/// Training seeds per configuration at the scaled budget.
const REPLICAS: usize = 5;
/// Training seeds per configuration at the paper's budget.
const PAPER_REPLICAS: usize = 3;
/// Trial budget and explorer seeds of the §VII explorer table.
const BUDGET: usize = 18;
const SEEDS: u64 = 20;

/// Blocks of EXPERIMENTS.md by marker name, and artefacts by path.
type Blocks = Vec<(&'static str, String)>;
type Artefacts = Vec<(PathBuf, String)>;

/// The repository root, which holds EXPERIMENTS.md and `journals/`.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("crates/bench").to_path_buf()
}

/// The scaled budget (24 000 steps, drops from `[30, 600]`, seed 42) or
/// the paper's, journalled under `journals/scaled` or `journals/paper`.
fn budget(paper: bool) -> HarnessOpts {
    let (base, replicas, dir) = match paper {
        false => (HarnessOpts::default(), REPLICAS, "journals/scaled"),
        true => (HarnessOpts::paper(), PAPER_REPLICAS, "journals/paper"),
    };
    HarnessOpts { replicas, out_dir: Some(root().join(dir)), ..base }
}

fn journal_dir(opts: &HarnessOpts) -> &Path {
    opts.out_dir.as_deref().expect("both studies journal")
}

/// A study's journal, name and objective fingerprint.
type Journalled = (PathBuf, &'static str, String);

/// A study's journal in the journal directory: Table I's over `rows`, or
/// the ablation study's for `None`, as [`journal_identity`] names them.
fn journal(opts: &HarnessOpts, rows: Option<&[usize]>) -> Journalled {
    let (study, file, fingerprint) = journal_identity(opts, rows);
    (journal_dir(opts).join(file), study, fingerprint)
}

/// The journal `run_table1_study` keeps for all eighteen rows.
fn table1_journal(opts: &HarnessOpts) -> Journalled {
    let ids: Vec<usize> = TABLE1.iter().map(|r| r.id).collect();
    journal(opts, Some(&ids))
}

/// The completed trials of a journal, in trial order, read without
/// appending. A checkpoint naming another study, seed or fingerprint is an
/// error, as it is to `Study::run`.
fn read_journal((path, study, fingerprint): Journalled, seed: u64) -> Result<Vec<Trial>, String> {
    let load = Journal::new(&path).load().map_err(|e| format!("{}: {e}", path.display()))?;
    let replay = Replay::from_events(load.events)?;
    for checkpoint in &replay.checkpoints {
        if let StudyEvent::Checkpoint { study: s, seed: k, fingerprint: f, .. } = checkpoint {
            if (s.as_str(), *k, f.as_str()) != (study, seed, fingerprint.as_str()) {
                let path = path.display();
                return Err(format!("journal {path} belongs to a different study ({s}/{k}/{f})"));
            }
        }
    }
    Ok(replay.finished.into_values().filter(|t| t.is_complete()).collect())
}

/// The §VI-D single-factor sweeps: a title and its labelled levels. Row id
/// 0 gives every level of every factor the same training seeds.
fn factors() -> Vec<(&'static str, Vec<(String, Configuration)>)> {
    use Algorithm::{Ppo, Sac};
    use Framework::{RayRllib as Ray, StableBaselines as Sb, TfAgents as Tfa};
    use RkOrder::{Five, Three};
    let level = |rk_order, framework, algorithm, nodes, cores| {
        PaperRow { id: 0, rk_order, framework, algorithm, nodes, cores, ..TABLE1[0] }.to_config()
    };
    vec![
        (
            "Runge-Kutta order (SB, PPO, 1×4), §IV-B",
            RkOrder::ALL.map(|rk| (format!("RK{}", rk.order()), level(rk, Sb, Ppo, 1, 4))).into(),
        ),
        (
            "Node count (RLlib, PPO, RK5, 4 cores/node), configs 7/8",
            [1, 2].map(|n| (format!("{n} node(s)"), level(Five, Ray, Ppo, n, 4))).into(),
        ),
        (
            "Cores per node (TF-Agents, PPO, RK3), configs 10/11",
            [2, 4].map(|c| (format!("{c} cores"), level(Three, Tfa, Ppo, 1, c))).into(),
        ),
        (
            "Vectorized envs (SB, PPO, RK3), §VI-C",
            [2, 4].map(|c| (format!("{c} vectorized envs"), level(Three, Sb, Ppo, 1, c))).into(),
        ),
        (
            "Algorithm (SB, RK3, 1×4), §VI-D",
            [Ppo, Sac].map(|a| (a.to_string(), level(Three, Sb, a, 1, 4))).into(),
        ),
    ]
}

/// The ablation study's trials: each distinct level of `factors` once,
/// in first-use order.
fn levels() -> Vec<Configuration> {
    let mut levels: Vec<Configuration> = Vec::new();
    for (_, cfg) in factors().into_iter().flat_map(|(_, factor)| factor) {
        if !levels.iter().any(|l| l.canonical_key() == cfg.canonical_key()) {
            levels.push(cfg);
        }
    }
    levels
}

/// The ablation study. Its configurations lie outside Table I's draws
/// (row id 0); a preset list proposes them as given.
fn ablation_study(opts: &HarnessOpts) -> Result<Study, String> {
    let (path, name, fingerprint) = journal(opts, None);
    let objective_opts = opts.clone();
    Study::builder(name)
        .space(PaperRow::space())
        .explorer(PresetList::new(levels()))
        .metric(MetricDef::maximize_key(REWARD))
        .metric(MetricDef::minimize_key(TIME_MIN))
        .metric(MetricDef::minimize_key(POWER_KJ))
        .seed(opts.seed)
        .objective_fingerprint(fingerprint)
        .journal(Journal::new(path))
        .objective(move |cfg: &Configuration, _: &mut TrialContext| {
            run_row(&PaperRow::from_config(cfg)?, &objective_opts)
        })
        .build()
}

/// Train whatever either journal is missing; a complete journal is not
/// opened for writing.
fn record(opts: &HarnessOpts) -> Result<(), String> {
    std::fs::create_dir_all(journal_dir(opts)).map_err(|e| e.to_string())?;
    if read_journal(table1_journal(opts), opts.seed)?.len() < TABLE1.len() {
        run_table1_study(opts)?;
    }
    if read_journal(journal(opts, None), opts.seed)?.len() < levels().len() {
        ablation_study(opts)?.run()?;
    }
    Ok(())
}

fn get(m: &MetricValues, key: MetricKey) -> f64 {
    m.get_key(key).unwrap_or(f64::NAN)
}

fn join(ids: &[usize]) -> String {
    ids.iter().map(usize::to_string).collect::<Vec<_>>().join(", ")
}

/// The least and the greatest of `xs`.
fn span(xs: impl Iterator<Item = f64>) -> (f64, f64) {
    xs.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| (lo.min(x), hi.max(x)))
}

type Row<'a> = (&'static PaperRow, &'a MetricValues);

/// Reward mean and across-seed sd, time and power of a trial.
fn measured(m: &MetricValues) -> [f64; 4] {
    [REWARD, REWARD_STD, TIME_MIN, POWER_KJ].map(|key| get(m, key))
}

/// Table I, measured against the paper, and what the comparison reads.
fn table1_block(rows: &[Row], n: usize) -> String {
    let mut s = format!(
        "| # | Configuration | Reward, mean ± sd over {n} seeds / paper | Time (min) meas / paper \
         | Power (kJ) meas / paper | Anchored |\n|---|---|---|---|---|---|\n"
    );
    for (row, m) in rows {
        let [reward, sd, time, power] = measured(m);
        let PaperRow { id, reward: paper_reward, time_min, power_kj, anchored, .. } = **row;
        let label = format!("{} {} RK{}", row.framework, row.algorithm, row.rk_order.order());
        let (nodes, cores, anchored) = (row.nodes, row.cores, if anchored { "✓" } else { "" });
        s += &format!(
            "| {id} | {label} {nodes}×{cores} | {reward:.3} ± {sd:.3} / {paper_reward:.2} | {time:.1} / {time_min} \
             | {power:.0} / {power_kj} | {anchored} |\n"
        );
    }
    let of = |a: Algorithm| rows.iter().filter(move |(r, _)| r.algorithm == a);
    let percent = |m: &MetricValues, key, paper: f64| 100.0 * (get(m, key) / paper - 1.0);
    let gaps: Vec<(usize, f64)> =
        of(Algorithm::Ppo).map(|(r, m)| (r.id, percent(m, TIME_MIN, r.time_min))).collect();
    let ppo = gaps.len();
    let within = gaps.iter().filter(|(_, gap)| gap.abs() <= 6.0).count();
    let widest = gaps.iter().copied().max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()));
    let (widest, gap) = widest.expect("Table I has PPO rows");
    let anchored = rows.iter().filter(|(r, _)| r.anchored).count();
    let off: Vec<usize> = rows
        .iter()
        .filter(|(r, m)| r.anchored && (get(m, TIME_MIN) - r.time_min).abs() > 1.0)
        .map(|(r, _)| r.id)
        .collect();
    let (close, off) = (anchored - off.len(), join(&off));
    let (power_lo, power_hi) =
        span(of(Algorithm::Ppo).map(|(r, m)| percent(m, POWER_KJ, r.power_kj)));
    let (reward_lo, reward_hi) = span(of(Algorithm::Ppo).map(|(_, m)| get(m, REWARD)));
    let (sd_lo, sd_hi) = span(of(Algorithm::Ppo).map(|(_, m)| get(m, REWARD_STD)));
    let (sac_time_lo, sac_time_hi) =
        span(of(Algorithm::Sac).map(|(r, m)| 100.0 + percent(m, TIME_MIN, r.time_min)));
    let (sac_lo, sac_hi) = span(of(Algorithm::Sac).map(|(_, m)| get(m, REWARD)));
    s + &format!(
        "\n* PPO computation time: {within} of {ppo} rows within 6 % of the paper; the widest gap is \
         config {widest} ({gap:+.1} %).\n\
         * Anchored computation times within one minute of the paper: {close} of {anchored} (off: \
         {off}).\n\
         * PPO power consumption: {power_lo:+.0} % to {power_hi:+.0} % off the paper.\n\
         * PPO reward: means from {reward_lo:.3} to {reward_hi:.3}; the across-seed sd of a row \
         from {sd_lo:.3} to {sd_hi:.3}.\n\
         * SAC: computation time {sac_time_lo:.0}–{sac_time_hi:.0} % of the paper's; reward means \
         from {sac_lo:.2} to {sac_hi:.2}.\n"
    )
}

/// The six §VI claims, two-valued on the means.
fn shape_checks_block(rows: &[Row], n: usize) -> String {
    let at = |id: usize, key| get(rows[id - 1].1, key);
    let best = |a: Algorithm| {
        span(rows.iter().filter(|(r, _)| r.algorithm == a).map(|(_, m)| get(m, REWARD))).1
    };
    let ppo = rows.iter().filter(|(r, _)| r.algorithm == Algorithm::Ppo);
    let power_min = ppo.min_by(|a, b| get(a.1, POWER_KJ).total_cmp(&get(b.1, POWER_KJ)));
    let checks = [
        (
            "PPO beats SAC everywhere (best PPO reward > best SAC reward)",
            best(Algorithm::Ppo) > best(Algorithm::Sac),
        ),
        ("2 nodes faster than 1 (config 2 vs 1, RLlib RK3)", at(2, TIME_MIN) < at(1, TIME_MIN)),
        ("1 node better reward than 2 (config 7 vs 8, RLlib RK8)", at(7, REWARD) > at(8, REWARD)),
        (
            "4 cores faster than 2 (config 11 vs 10, TF-Agents RK3)",
            at(11, TIME_MIN) < at(10, TIME_MIN),
        ),
        ("RK8 costs more time than RK3 (config 17 vs 14, SB)", at(17, TIME_MIN) > at(14, TIME_MIN)),
        ("config 11 is the PPO power minimum", power_min.map(|(r, _)| r.id) == Some(11)),
    ];
    let mut s = format!("```text\nverdicts on the means of {n} seeds, no interval:\n");
    for (claim, pass) in checks {
        s += &format!("[{}] {claim}\n", if pass { "PASS" } else { "MISS" });
    }
    s + "```\n"
}

/// The Fig. 4–6 fronts over the PPO rows, measured against the paper,
/// with the measured plots; and those plots' SVG and CSV.
fn fronts(table1: &[Trial], dir: &Path) -> (String, Artefacts) {
    let ppo: Vec<Trial> =
        table1.iter().filter(|t| t.config.str("algorithm") == Some("PPO")).cloned().collect();
    let shown = dir.strip_prefix(root()).unwrap_or(dir).display().to_string();
    let mut s =
        "| Figure | Paper front | Measured front | On both |\n|---|---|---|---|\n".to_string();
    let mut plots = String::new();
    let mut artefacts = Artefacts::new();
    for figure in &FIGURES {
        let (x, y) = (figure.metrics)();
        let front = ParetoFront::compute(&ppo, &[x.clone(), y.clone()]);
        let draw = |&i: &usize| ppo[i].config.int("draw").expect("a Table I row") as usize;
        let mut ids: Vec<usize> = front.indices().iter().map(draw).collect();
        ids.sort_unstable();
        let both: Vec<usize> =
            ids.iter().copied().filter(|id| figure.paper_front.contains(id)).collect();
        let (paper, measured, both) = (join(figure.paper_front), join(&ids), join(&both));
        s += &format!("| {} | {paper} | {measured} | {both} |\n", figure.title);
        let name = format!("fig{}", figure.number);
        plots += &format!("\n![Fig. {}, measured]({shown}/{name}.svg)\n", figure.number);
        let svg = ScatterPlot::new(figure.title, x.clone(), y.clone()).render(&ppo, &front);
        let params = ["rk_order", "framework", "algorithm", "nodes", "cores", "draw"];
        artefacts.push((dir.join(format!("{name}.svg")), svg));
        artefacts.push((dir.join(format!("{name}.csv")), trials_to_csv(&ppo, &params, &[x, y])));
    }
    (s + &plots, artefacts)
}

/// The §VI-D sweeps, every level of a factor on the same seeds. A journal
/// whose completed trials are not exactly [`levels`], one each, is refused.
fn ablations_block(trials: &[Trial], n: usize) -> Result<String, String> {
    let sorted = |mut keys: Vec<String>| {
        keys.sort_unstable();
        keys
    };
    let have = sorted(trials.iter().map(|t| t.config.canonical_key()).collect());
    let want = sorted(levels().iter().map(Configuration::canonical_key).collect());
    if have != want {
        let (have, want) = (have.len(), want.len());
        return Err(format!(
            "the ablation journal's {have} trials are not the study's {want} levels"
        ));
    }
    let mut s = format!(
        "| Factor | Level | Reward, mean ± sd over {n} seeds | Time (min) | Power (kJ) |\n\
         |---|---|---|---|---|\n"
    );
    for (title, factor) in factors() {
        for (i, (label, cfg)) in factor.iter().enumerate() {
            let trial = trials.iter().find(|t| t.config.canonical_key() == cfg.canonical_key());
            let m = &trial.ok_or_else(|| format!("the ablation journal has no {label}"))?.metrics;
            let [reward, sd, time, power] = measured(m);
            let title = if i == 0 { title } else { "" };
            s += &format!(
                "| {title} | {label} | {reward:.3} ± {sd:.3} | {time:.1} | {power:.0} |\n"
            );
        }
    }
    Ok(s)
}

/// Every generated block of EXPERIMENTS.md and every figure artefact,
/// from the journals alone. Writes nothing.
fn render(opts: &HarnessOpts) -> Result<(Blocks, Artefacts), String> {
    let table1 = read_journal(table1_journal(opts), opts.seed)?;
    let rows = TABLE1
        .iter()
        .map(|row| {
            let trial = table1.iter().find(|t| t.config.int("draw") == Some(row.id as i64));
            let missing = || format!("the Table I journal has no completed row {}", row.id);
            trial.map(|t| (row, &t.metrics)).ok_or_else(missing)
        })
        .collect::<Result<Vec<Row>, String>>()?;
    let n = opts.replicas;
    let (fronts, artefacts) = fronts(&table1, journal_dir(opts));
    let blocks = vec![
        ("table1", table1_block(&rows, n)),
        ("shape-checks", shape_checks_block(&rows, n)),
        ("fronts", fronts),
        ("ablations", ablations_block(&read_journal(journal(opts, None), opts.seed)?, n)?),
        ("explorers", explorers_block()),
    ];
    Ok((blocks, artefacts))
}

/// `doc` with the body of each generated block replaced.
fn splice(doc: &str, blocks: &Blocks) -> Result<String, String> {
    let mut out = doc.to_string();
    for (name, body) in blocks {
        let (open, close) = (format!("<!-- begin {name} -->\n"), format!("<!-- end {name} -->"));
        let missing = || format!("EXPERIMENTS.md has no `{open}` … `{close}` block");
        let start = out.find(&open).ok_or_else(missing)? + open.len();
        let end = start + out[start..].find(&close).ok_or_else(missing)?;
        out.replace_range(start..end, body);
    }
    Ok(out)
}

/// Record what is missing, render, and rewrite the artefacts and, at the
/// scaled budget, EXPERIMENTS.md.
fn run(paper: bool) -> Result<(), String> {
    let opts = budget(paper);
    record(&opts)?;
    let (blocks, artefacts) = render(&opts)?;
    for (path, text) in &artefacts {
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    for (name, body) in &blocks {
        println!("<!-- {name} -->\n{body}");
    }
    if !paper {
        let path = root().join("EXPERIMENTS.md");
        let doc = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        std::fs::write(&path, splice(&doc, &blocks)?).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paper = match args.as_slice() {
        [] => false,
        [flag] if flag == "--paper" => true,
        _ => {
            eprintln!("error: usage: experiments [--paper]");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(paper) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Reward surrogate with the paper's couplings: higher RK order helps,
/// two-node staleness hurts, SAC fails, plus a small configuration hash
/// "noise" term (deterministic, so every explorer sees the same surface).
fn surrogate_reward(row: &PaperRow) -> f64 {
    let base = match row.algorithm {
        Algorithm::Sac => -2.3,
        Algorithm::Ppo => -0.75 + 0.25 * (row.rk_order.order() as f64).ln() / (8.0f64).ln(),
    };
    let staleness = if row.nodes > 1 { -0.12 } else { 0.0 };
    let hash =
        (row.rk_order.order() as f64 * 3.7 + row.cores as f64 * 1.3 + row.nodes as f64 * 2.1).sin()
            * 0.03;
    base + staleness + hash
}

fn surrogate(row: &PaperRow) -> MetricValues {
    MetricValues::new()
        .with_key(REWARD, surrogate_reward(row))
        .with_key(TIME_MIN, predicted_minutes(row))
        .with_key(POWER_KJ, predicted_kilojoules(row))
}

/// §VII "abstract vs. concrete methods": each explorer's mean
/// reward/time hypervolume over the seeds on an instant surrogate of
/// the study (the calibrated cost model's minutes and kJ, a reward with
/// the paper's couplings), and what Table I's own 18 draws score on it.
fn explorers_block() -> String {
    let (x, y) = (MetricDef::maximize_key(REWARD), MetricDef::minimize_key(TIME_MIN));
    // The reference point is worse than any surrogate outcome.
    let hv = Hypervolume::new(x, y, (-3.0, 400.0));
    type Make = fn() -> Box<dyn Explorer>;
    let explorers: [(&str, Make); 4] = [
        ("random search", || Box::new(RandomSearch::new(BUDGET))),
        ("random search (dedup)", || Box::new(RandomSearch::new(BUDGET).without_duplicates())),
        ("grid search (capped)", || Box::new(GridSearch::with_limit(BUDGET))),
        ("tpe-lite (reward)", || {
            Box::new(TpeLite::new(BUDGET, REWARD.name(), Direction::Maximize))
        }),
    ];
    let mut s = format!(
        "| Explorer, budget {BUDGET} trials | Reward/time hypervolume, mean ± sd over {SEEDS} \
         seeds |\n|---|---|\n"
    );
    for (name, make) in explorers {
        let hvs = (0..SEEDS).map(|seed| {
            let study = Study::builder("explorer-ablation")
                .space(PaperRow::space())
                .explorer_boxed(make())
                .metric(MetricDef::maximize_key(REWARD))
                .metric(MetricDef::minimize_key(TIME_MIN))
                .metric(MetricDef::minimize_key(POWER_KJ))
                .seed(seed)
                .objective(|cfg, _| Ok(surrogate(&PaperRow::from_config(cfg)?)))
                .build()
                .expect("valid study");
            hv.value(&study.run().expect("study runs"))
        });
        let hvs = Distribution::from_samples(hvs.collect());
        s += &format!("| {name} | {:.1} ± {:.1} |\n", hvs.mean(), hvs.std());
    }
    let draws: Vec<Trial> =
        TABLE1.iter().map(|r| Trial::complete(r.id - 1, r.to_config(), surrogate(r))).collect();
    s + &format!(
        "\nTable I's actual 18 draws score {:.1} on the same surrogate.\n",
        hv.value(&draws)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_md_is_the_render_of_the_checked_in_journals() {
        let (blocks, artefacts) = render(&budget(false)).expect("the checked-in journals render");
        let doc = std::fs::read_to_string(root().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
        let rendered = splice(&doc, &blocks).expect("every block has its markers");
        let redo = "run `cargo run --release -p bench --bin experiments`";
        assert!(rendered == doc, "EXPERIMENTS.md is not the render; {redo}");
        for (path, want) in artefacts {
            let have = std::fs::read_to_string(&path).unwrap_or_default();
            assert!(have == want, "{} is not the render; {redo}", path.display());
        }
    }

    #[test]
    fn each_study_records_at_smoke_size() {
        // The objectives the render never runs: one Table I PPO row and
        // one ablation level, at the smoke budget, journalling nothing.
        let opts = HarnessOpts::smoke();
        let trials = run_table1_study(&HarnessOpts { only: Some(vec![16]), ..opts.clone() })
            .expect("the Table I study runs");
        assert_eq!(trials.len(), 1);
        assert!(trials[0].is_complete(), "{:?}", trials[0].error);
        let two_nodes = levels().into_iter().find(|c| c.int("nodes") == Some(2));
        let row = PaperRow::from_config(&two_nodes.expect("a two-node level")).expect("a row");
        let m = run_row(&row, &opts).expect("the level trains");
        assert!(get(&m, REWARD).is_finite());
        assert!(get(&m, TIME_MIN) > 0.0 && get(&m, POWER_KJ) > 0.0);
        assert_eq!(get(&m, REWARD_STD), 0.0, "one replica has no spread");
    }

    #[test]
    fn the_ablation_render_refuses_a_journal_that_is_not_its_levels() {
        let trial = |(i, cfg)| Trial::complete(i, cfg, MetricValues::new().with_key(REWARD, 0.0));
        let mut trials: Vec<Trial> = levels().into_iter().enumerate().map(trial).collect();
        assert!(ablations_block(&trials, 1).is_ok(), "exactly the levels render");

        let extra = PaperRow { id: 0, nodes: 2, ..TABLE1[0] }.to_config();
        assert!(levels().iter().all(|l| l.canonical_key() != extra.canonical_key()));
        trials.push(trial((trials.len(), extra)));
        let err = ablations_block(&trials, 1).expect_err("an extra level is refused");
        assert!(err.contains("10 trials are not the study's 9 levels"), "{err}");

        trials.truncate(trials.len() - 2);
        assert!(ablations_block(&trials, 1).is_err(), "a missing level is refused");
    }
}
