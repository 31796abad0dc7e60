//! CI smoke check for the telemetry pipeline: run one short trial with a
//! [`telemetry::RingRecorder`] attached, export the JSON-lines trace,
//! validate every line against the checked-in schema
//! (`crates/bench/schemas/telemetry_trace.schema.json`), and verify the
//! round-tripped trace rolls up to the exact usage the backend reported
//! and renders as a Gantt chart with at least one compute bar.
//!
//! The same binary also smokes the study write-ahead log: a small
//! journaled study engineered to hit every [`decision::wal::StudyEvent`]
//! variant (completed, pruned, failed, reused, reports, checkpoints) is
//! run twice, and every WAL line is validated against
//! `crates/bench/schemas/study_wal.schema.json` plus a full
//! load-and-replay pass.
//!
//! ```text
//! cargo run --release -p bench --bin telemetry_smoke
//! cargo run --release -p bench --bin telemetry_smoke -- --out results
//! ```
//!
//! Exits non-zero on any schema violation or rollup mismatch.

use airdrop_sim::{AirdropConfig, AirdropEnv};
use bench::harness::{harness_ppo, harness_sac};
use bench::paper::PaperRow;
use bench::HarnessOpts;
use cluster_sim::{render_gantt, ClusterSpec, Usage};
use decision::prelude::{
    wal_keys, GridSearch, Journal, MedianPruner, MetricDef, MetricValues, ParamSpace, Replay,
    Study, TrialCache,
};
use dist_exec::{run_recorded, Deployment, ExecSpec, FnEnvFactory};
use gymrs::Environment;
use std::sync::Arc;
use telemetry::json::{self, Json};

/// The schema the trace is validated against, checked in next to the
/// crate so CI diffs format changes explicitly.
const SCHEMA: &str = include_str!("../../schemas/telemetry_trace.schema.json");

/// The study WAL schema: every journal line must parse as one of the
/// seven `decision::wal::StudyEvent` shapes.
const WAL_SCHEMA: &str = include_str!("../../schemas/study_wal.schema.json");

/// The fill `cluster_sim::render_gantt` gives compute bars.
const COMPUTE_BAR: &str = "fill=\"#1f77b4\"";

fn main() {
    let opts = match HarnessOpts::from_args(std::env::args().skip(1)) {
        Ok(o) => HarnessOpts { steps: o.steps.min(1_500), ..o },
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let smoke = HarnessOpts::smoke();
    let opts = HarnessOpts {
        altitude_limits: smoke.altitude_limits,
        eval_episodes: smoke.eval_episodes,
        ..opts
    };
    let row = PaperRow::by_id(16).expect("Table I row 16");
    eprintln!(
        "[telemetry_smoke] {} {} RK{} {}x{} cores, {} steps",
        row.framework,
        row.algorithm,
        row.rk_order.order(),
        row.nodes,
        row.cores,
        opts.steps
    );

    let mut spec = ExecSpec::new(
        row.framework,
        row.algorithm,
        Deployment { nodes: row.nodes, cores_per_node: row.cores },
        opts.steps,
        opts.seed,
    );
    spec.ppo = harness_ppo(&opts);
    spec.sac = harness_sac(&opts);
    let env_cfg = AirdropConfig {
        altitude_limits: opts.altitude_limits,
        ..AirdropConfig::paper_study(row.rk_order)
    };
    let factory = FnEnvFactory(move |seed| {
        let mut env = AirdropEnv::new(env_cfg.clone());
        env.seed(seed);
        Box::new(env) as Box<dyn Environment>
    });

    let ring = Arc::new(telemetry::RingRecorder::new());
    let report = match run_recorded(&spec, &factory, ring.clone()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: trial failed: {e}");
            std::process::exit(1);
        }
    };

    let snap = ring.snapshot();
    let trace = telemetry::export::to_json_lines(&snap);
    let schema = json::parse(SCHEMA).expect("schema file is valid JSON");

    let mut lines = 0usize;
    for (lineno, line) in trace.lines().enumerate() {
        let value = match json::parse(line) {
            Ok(v) => v,
            Err(e) => fail(lineno, line, &format!("not valid JSON: {e}")),
        };
        if let Err(why) = validate(&schema, &schema, &value) {
            fail(lineno, line, &why);
        }
        lines += 1;
    }

    // The exporter must round-trip to an identical snapshot, and the
    // rolled-up usage must match the report bit for bit (the ISSUE's
    // acceptance criterion: Table I time/power can come from telemetry).
    let back = match telemetry::export::from_json_lines(&trace) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: exported trace failed to parse back: {e}");
            std::process::exit(1);
        }
    };
    if back != snap {
        eprintln!("error: JSON-lines round trip changed the snapshot");
        std::process::exit(1);
    }
    let cluster = ClusterSpec::paper_testbed(row.nodes);
    let rolled = Usage::from_snapshot(&back, &cluster);
    if rolled.wall_s.to_bits() != report.usage.wall_s.to_bits()
        || rolled.energy_j.to_bits() != report.usage.energy_j.to_bits()
    {
        eprintln!(
            "error: rollup mismatch: rolled ({}, {}) vs reported ({}, {})",
            rolled.wall_s, rolled.energy_j, report.usage.wall_s, report.usage.energy_j
        );
        std::process::exit(1);
    }

    // The recorded events are the run's execution record: the Gantt view
    // must draw from them alone.
    match render_gantt(&cluster, &back, "telemetry_smoke") {
        Ok(svg) if svg.contains(COMPUTE_BAR) => {}
        Ok(_) => {
            eprintln!("error: the Gantt chart of the recorded trace has no compute bar");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: the recorded trace does not render as a Gantt chart: {e}");
            std::process::exit(1);
        }
    }

    check_study_wal(&schema);

    if let Some(dir) = &opts.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join("telemetry_trace.jsonl"), &trace))
        {
            eprintln!("error: writing trace: {e}");
            std::process::exit(1);
        }
    }

    println!(
        "telemetry_smoke PASS: {lines} trace lines valid, rollup bitwise-equal, \
         Gantt drawn (wall {:.3}s, {:.1} kJ, {} env steps)",
        rolled.wall_s,
        rolled.energy_j / 1e3,
        report.env_steps
    );
}

/// Run a small journaled study engineered to emit every WAL event kind
/// (complete, pruned, failed on the cold pass; reused on the warm pass),
/// then validate each log line against the WAL schema *and* the telemetry
/// trace schema (the WAL is bit-exact telemetry event format), and replay
/// both logs end to end.
fn check_study_wal(trace_schema: &Json) {
    let wal_schema = json::parse(WAL_SCHEMA).expect("WAL schema is valid JSON");
    let dir = std::env::temp_dir().join(format!("study_wal_smoke_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");

    let cache = Arc::new(TrialCache::new());
    let study = |wal: std::path::PathBuf| {
        Study::builder("wal-smoke")
            // Descending grid so later (smaller) values fall under the
            // running median and the pruner fires.
            .space(ParamSpace::builder().categorical_int("k", (0..8).rev()).build())
            .explorer(GridSearch::new())
            .metric(MetricDef::maximize("score"))
            .pruner(MedianPruner::with_startup(2))
            .seed(7)
            .journal(Journal::new(wal))
            .reuse_cache(cache.clone())
            .objective_fingerprint("wal-smoke-v1")
            .objective(|cfg, ctx| {
                let k = cfg.int("k").unwrap() as f64;
                if k == 6.0 {
                    return Err("engineered failure".to_string());
                }
                if ctx.report(1, k) {
                    return Ok(MetricValues::new().with("score", k));
                }
                Ok(MetricValues::new().with("score", 10.0 * k))
            })
            .build()
            .expect("smoke study builds")
    };

    let mut seen = std::collections::BTreeSet::new();
    for (pass, path) in [("cold", dir.join("cold.wal")), ("warm", dir.join("warm.wal"))] {
        study(path.clone()).run().expect("smoke study runs");

        let text = std::fs::read_to_string(&path).expect("WAL is readable");
        for (lineno, line) in text.lines().enumerate() {
            let value = match json::parse(line) {
                Ok(v) => v,
                Err(e) => fail(lineno, line, &format!("WAL line is not valid JSON: {e}")),
            };
            if let Err(why) = validate(&wal_schema, &wal_schema, &value) {
                fail(lineno, line, &format!("WAL schema: {why}"));
            }
            if let Err(why) = validate(trace_schema, trace_schema, &value) {
                fail(lineno, line, &format!("trace schema: {why}"));
            }
        }

        let load = Journal::new(&path).load().expect("WAL loads");
        if load.torn_tail {
            eprintln!("error: {pass} WAL reports a torn tail on a clean run");
            std::process::exit(1);
        }
        seen.extend(load.events.iter().map(|e| e.key().to_string()));
        if let Err(e) = Replay::from_events(load.events) {
            eprintln!("error: {pass} WAL does not replay: {e}");
            std::process::exit(1);
        }
    }

    for key in [
        wal_keys::CHECKPOINT,
        wal_keys::TRIAL_STARTED,
        wal_keys::TRIAL_REPORT,
        wal_keys::TRIAL_COMPLETED,
        wal_keys::TRIAL_PRUNED,
        wal_keys::TRIAL_FAILED,
        wal_keys::TRIAL_REUSED,
    ] {
        if !seen.contains(key) {
            eprintln!("error: WAL smoke never emitted '{key}' (saw {seen:?})");
            std::process::exit(1);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!("study WAL PASS: both logs schema-valid, replayable, all {} event kinds", 7);
}

fn fail(lineno: usize, line: &str, why: &str) -> ! {
    eprintln!("error: trace line {} violates the schema: {why}", lineno + 1);
    eprintln!("  {line}");
    std::process::exit(1);
}

/// Validate `value` against the subset of JSON Schema the checked-in
/// trace schema uses: `type` (string or array), `const`, `enum`,
/// `required`, `properties`, `oneOf` and `$ref` into `#/definitions/`.
fn validate(root: &Json, schema: &Json, value: &Json) -> Result<(), String> {
    if let Some(reference) = schema.get("$ref").and_then(Json::as_str) {
        let name = reference
            .strip_prefix("#/definitions/")
            .ok_or_else(|| format!("unsupported $ref '{reference}'"))?;
        let target = root
            .get("definitions")
            .and_then(|d| d.get(name))
            .ok_or_else(|| format!("dangling $ref '{reference}'"))?;
        return validate(root, target, value);
    }
    if let Some(expected) = schema.get("const") {
        if expected != value {
            return Err(format!("expected {expected:?}, got {value:?}"));
        }
    }
    if let Some(options) = schema.get("enum").and_then(Json::as_array) {
        if !options.contains(value) {
            return Err(format!("{value:?} not in {options:?}"));
        }
    }
    if let Some(ty) = schema.get("type") {
        let names: Vec<&str> = match ty {
            Json::Str(s) => vec![s.as_str()],
            Json::Arr(a) => a.iter().filter_map(Json::as_str).collect(),
            _ => return Err("bad 'type' in schema".into()),
        };
        // JSON Schema: every integer is also a number.
        let kind = value.kind();
        if !names.iter().any(|n| *n == kind || (*n == "number" && kind == "integer")) {
            return Err(format!("{value:?} is not of type {names:?}"));
        }
    }
    if let Some(variants) = schema.get("oneOf").and_then(Json::as_array) {
        let hits = variants.iter().filter(|v| validate(root, v, value).is_ok()).count();
        if hits != 1 {
            return Err(format!("matched {hits} of {} oneOf variants", variants.len()));
        }
    }
    if let Some(required) = schema.get("required").and_then(Json::as_array) {
        for name in required.iter().filter_map(Json::as_str) {
            if value.get(name).is_none() {
                return Err(format!("missing required field '{name}'"));
            }
        }
    }
    if let Some(props) = schema.get("properties").and_then(Json::as_object) {
        for (name, sub) in props {
            if let Some(v) = value.get(name) {
                validate(root, sub, v).map_err(|e| format!("field '{name}': {e}"))?;
            }
        }
    }
    Ok(())
}
