//! One benchmark invocation: the timed pass (`--trace 0`) or the probes
//! and the traced pass (`--trace 1`).

use crate::budgets::{self, Budgets};
use crate::catalogue::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::json::{obj, Json};
use crate::probes;
use crate::stamp;
use crate::sys::{self, Scratch};
use crate::workloads::{self, Baseline, Check, Workload};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where a run writes, relative to the working directory, which
/// `run.sh` makes the repository root.
const RESULTS_DIR: &str = "benchmark/results";
/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u32 = 15;
/// Timed units per run, however long a unit takes.
const MIN_UNITS: usize = 3;
/// How often set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 7;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                });
            }
            "--smoke" => smoke = true,
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload '{workload}' (one of {})", names.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(RUN_SECONDS as f64),
        trace: trace.unwrap_or(false),
        smoke,
        out,
    })
}

/// A reported value with what is known about its samples.
struct Reading {
    value: f64,
    unit: &'static str,
    min: f64,
    max: f64,
    samples: usize,
}

impl Reading {
    fn of(samples: &[f64], unit: &'static str) -> Self {
        let (min, max) = sys::min_max(samples);
        Reading { value: sys::median(samples), unit, min, max, samples: samples.len() }
    }

    fn single(value: f64, unit: &'static str, samples: usize) -> Self {
        Reading { value, unit, min: value, max: value, samples }
    }
}

/// Everything one invocation found.
struct Outcome {
    checks: Vec<Check>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, Reading)>,
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let args = parse(args)?;
    let ambient = stamp::ambient_set();
    if !ambient.is_empty() {
        return Err(format!(
            "refusing ambient configuration: unset {} (a run's configuration must be one recorded value)",
            ambient.join(", ")
        ));
    }
    let budgets = if args.smoke { budgets::SMOKE } else { budgets::FULL };
    let results_dir = Path::new(RESULTS_DIR);
    let scratch = Scratch::create(results_dir).map_err(|e| format!("{RESULTS_DIR}: {e}"))?;
    // The process transport puts its sockets in the temporary directory.
    // Nothing has started a thread yet, so the environment may be set.
    std::env::set_var("TMPDIR", scratch.root());

    let stamp = stamp::stamp(args.seed, budgets, args.smoke);
    println!(
        "ledger {} seed={} trace={}{}",
        args.workload,
        args.seed,
        args.trace as u8,
        if args.smoke { " smoke" } else { "" }
    );
    println!("stamp {}", stamp.render());

    let outcome = if args.trace {
        traced_pass(&args, budgets, &scratch, results_dir)
    } else {
        timed_pass(&args, budgets, &scratch)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return Ok(false);
        }
    };

    let correct = outcome.checks.iter().all(|c| c.ok);
    // A failed check counts the whole run as failed.
    let failed = if correct { outcome.failed } else { outcome.attempted };
    for note in &outcome.notes {
        println!("note {note}");
    }
    for check in &outcome.checks {
        println!(
            "check {} {} ({})",
            check.name,
            if check.ok { "ok" } else { "FAILED" },
            check.detail
        );
    }
    let label = if args.smoke { "smoke" } else { "metric" };
    for (name, r) in &outcome.metrics {
        println!(
            "{label} {name} {} {} (min {} max {} n {})",
            r.value, r.unit, r.min, r.max, r.samples
        );
    }
    println!(
        "failed_share {} ({failed} of {} operations)",
        failed as f64 / outcome.attempted.max(1) as f64,
        outcome.attempted
    );

    if let Some(path) = &args.out {
        let record = obj([
            ("workload", Json::Str(args.workload.clone())),
            ("trace", Json::Bool(args.trace)),
            ("stamp", stamp),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(outcome.attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            (
                "metrics",
                obj(outcome.metrics.iter().map(|(name, r)| {
                    (
                        *name,
                        obj([
                            ("value", Json::Num(r.value)),
                            ("unit", Json::Str(r.unit.to_string())),
                            ("min", Json::Num(r.min)),
                            ("max", Json::Num(r.max)),
                            ("n", Json::Num(r.samples as f64)),
                        ]),
                    )
                })),
            ),
        ]);
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut file| writeln!(file, "{}", record.render()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    // The line the driver reads: exactly these four keys.
    let line = obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            obj(outcome.metrics.iter().map(|(name, r)| {
                (
                    *name,
                    obj([("value", Json::Num(r.value)), ("unit", Json::Str(r.unit.to_string()))]),
                )
            })),
        ),
    ]);
    println!("{}", line.render());
    Ok(correct && failed == 0)
}

/// Everything a run does before its first unit can start, repeated: the
/// provenance stamp (two short child processes), a fresh directory, and
/// the workload's inputs built from the seed.
///
/// The stamp is in it on purpose. On three of the workloads the inputs
/// take microseconds to build, and a metric of microseconds moves by
/// whole multiples with the state of the file system; with the stamp,
/// set-up is tens of milliseconds everywhere, and a bound of a quarter
/// means milliseconds of slack instead of none.
fn set_up(
    args: &Args,
    budgets: Budgets,
    scratch: &Scratch,
) -> Result<(Box<dyn Workload>, Vec<f64>), String> {
    let mut seconds = Vec::new();
    loop {
        let t = Instant::now();
        std::hint::black_box(stamp::stamp(args.seed, budgets, args.smoke));
        scratch.fresh_dir("inputs");
        let workload = workloads::setup(&args.workload, args.seed, budgets)?;
        seconds.push(t.elapsed().as_secs_f64());
        if args.smoke || seconds.len() == SETUPS {
            return Ok((workload, seconds));
        }
    }
}

fn fingerprint_check(name: &'static str, got: &[u64], want: &[u64]) -> Check {
    Check::new(
        name,
        got == want && !want.is_empty(),
        format!("{} values compared bit for bit", want.len()),
    )
}

fn timed_pass(args: &Args, budgets: Budgets, scratch: &Scratch) -> Result<Outcome, String> {
    let (workload, setup_s) = set_up(args, budgets, scratch)?;
    let reference = workload.reference(scratch)?;
    let mut checks = reference.checks;
    let mut expected = reference.fingerprint;
    let against = if expected.is_some() { "units_equal_reference" } else { "units_repeat_exactly" };

    let min_units = if args.smoke { 2 } else { MIN_UNITS };
    let budget = if args.smoke { 0.0 } else { args.seconds };
    let (mut wall_s, mut cpu_s, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut repeats = true;
    let started = Instant::now();
    let notes = loop {
        let cpu_before = sys::cpu_seconds();
        let t = Instant::now();
        let unit = workload.unit(scratch)?;
        let wall = t.elapsed().as_secs_f64();
        cpu_s.push(sys::cpu_seconds() - cpu_before);
        wall_s.push(wall);
        rate.push(reference.work.unwrap_or(unit.work) / wall);
        attempted += unit.attempted;
        failed += unit.failed;
        repeats &= *expected.get_or_insert_with(|| unit.fingerprint.clone()) == unit.fingerprint
            && !unit.fingerprint.is_empty();
        if wall_s.len() == 1 {
            checks.extend(unit.checks);
        } else {
            // A check that held once must hold every time.
            for check in unit.checks.into_iter().filter(|c| !c.ok) {
                checks.push(check);
            }
        }
        if wall_s.len() >= min_units && started.elapsed().as_secs_f64() + wall > budget {
            break unit.notes;
        }
    };
    checks.push(Check::new(
        against,
        repeats,
        format!("{} units, {} values each", wall_s.len(), expected.map_or(0, |f| f.len())),
    ));

    let metrics = vec![
        ("wall_s", Reading::of(&wall_s, "s")),
        ("work_per_s", Reading::of(&rate, "1/s")),
        ("cpu_s", Reading::of(&cpu_s, "s")),
        ("peak_rss_mb", Reading::single(sys::peak_rss_mib(), "MiB", 1)),
        ("setup_s", Reading::of(&setup_s, "s")),
    ];
    debug_assert!(metrics.iter().map(|(n, _)| *n).eq(END_TO_END.iter().map(|m| m.name)));
    Ok(Outcome { checks, notes, attempted, failed, metrics })
}

fn traced_pass(
    args: &Args,
    budgets: Budgets,
    scratch: &Scratch,
    results_dir: &Path,
) -> Result<Outcome, String> {
    let probes = probes::run_all(scratch, args.smoke)?;
    let (workload, _) = set_up(args, budgets, scratch)?;
    let reference = workload.reference(scratch)?;

    let t = Instant::now();
    let unit = workload.unit(scratch)?;
    let unit_wall_s = t.elapsed().as_secs_f64();

    let baseline =
        Baseline { reference: &reference, unit_wall_s, unit_fingerprint: &unit.fingerprint };
    let t = Instant::now();
    let (mut values, snapshot) = workload.traced(scratch, &probes, &baseline)?;
    let traced_wall_s = t.elapsed().as_secs_f64();

    // Spans stay in memory until the workload has ended.
    let t = Instant::now();
    let path = results_dir.join(format!("trace-{}.jsonl", args.workload));
    export_trace(&path, &snapshot)?;
    values.insert("telemetry.export_ms", t.elapsed().as_secs_f64() * 1e3);
    values.insert("telemetry.dropped_events", snapshot.dropped_events as f64);
    values.insert("telemetry.tracing_overhead_share", traced_wall_s / unit_wall_s - 1.0);

    let mut checks = Vec::new();
    if let Some(want) = &reference.fingerprint {
        checks.push(fingerprint_check("unit_equals_reference", &unit.fingerprint, want));
    }
    // `traced` returned, so it reproduced the untraced unit bit for bit.
    checks.push(Check::new(
        "traced_equals_untraced",
        true,
        format!("{} values compared bit for bit", unit.fingerprint.len()),
    ));
    checks.push(Check::new(
        "no_dropped_events",
        snapshot.dropped_events == 0,
        format!("{} events dropped", snapshot.dropped_events),
    ));
    checks.extend(unit.checks);
    checks.extend(
        baseline.reference.checks.iter().map(|c| Check::new(c.name, c.ok, c.detail.clone())),
    );

    let mut notes = unit.notes;
    notes.push(format!("trace written to {}", path.display()));
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let reading = match probes.value(m.name) {
                Some(value) => Reading::single(value, m.unit, probes.samples(m.name)),
                // A count or span of a layer this workload does not reach is zero.
                None => Reading::single(values.get(m.name).copied().unwrap_or(0.0), m.unit, 1),
            };
            (m.name, reading)
        })
        .collect();
    Ok(Outcome { checks, notes, attempted: unit.attempted, failed: unit.failed, metrics })
}

/// Write a snapshot as a JSON-lines trace.
fn export_trace(path: &Path, snapshot: &telemetry::Snapshot) -> Result<(), String> {
    std::fs::write(path, telemetry::export::to_json_lines(snapshot))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The text of `BENCHMARK.json`, from the catalogue.
pub fn benchmark_json() -> String {
    let entry = |pairs: Vec<(&str, Json)>| obj(pairs).render();
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| entry(vec![("name", Json::Str(w.name.into())), ("why", Json::Str(w.why.into()))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            entry(vec![
                ("name", Json::Str(m.name.into())),
                ("unit", Json::Str(m.unit.into())),
                ("better", Json::Str(m.better.as_str().into())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            entry(vec![
                ("name", Json::Str(m.name.into())),
                ("unit", Json::Str(m.unit.into())),
                ("better", Json::Str(m.better.as_str().into())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}",
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn strings(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let args = parse(&strings(&[
            "--workload",
            "whatif",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.trace, args.smoke),
            ("whatif", 7, 12.0, true, false)
        );
        assert!(parse(&strings(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse(&strings(&["--workload", "whatif"])).is_err(), "the seed is an argument");
        assert!(parse(&strings(&["--workload", "whatif", "--seed", "1", "--trace", "2"])).is_err());
        assert!(
            parse(&strings(&["--workload", "whatif", "--seed", "1", "--seconds", "0"])).is_err()
        );
        assert!(parse(&strings(&["--workload", "whatif", "--seed", "1", "--frobnicate"])).is_err());
    }

    /// The trace a traced pass writes, checked two ways: every line has
    /// the keys `crates/bench/schemas/telemetry_trace.schema.json` requires
    /// of its record kind (no JSON-schema checker builds offline, so the
    /// `required` lists are read out of the schema file), and the file
    /// reads back through `from_json_lines` to the snapshot it came from.
    #[test]
    fn a_written_trace_has_the_schema_s_keys_and_reads_back_exactly() {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/unit-test-trace");
        let scratch = Scratch::create(&results).unwrap();
        let workload = workloads::setup("study_core", 1, budgets::SMOKE).unwrap();
        let reference = workload.reference(&scratch).unwrap();
        let unit = workload.unit(&scratch).unwrap();
        assert!(unit.checks.iter().all(|c| c.ok));
        let baseline = Baseline {
            reference: &reference,
            unit_wall_s: 1.0,
            unit_fingerprint: &unit.fingerprint,
        };
        let (values, snapshot) =
            workload.traced(&scratch, &probes::Probes::default(), &baseline).unwrap();
        assert_eq!(values["core.trials_resumed"], (8 * 24) as f64);
        assert_eq!(snapshot.dropped_events, 0);

        let path = results.join("trace-study_core.jsonl");
        export_trace(&path, &snapshot).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();

        let schema_path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../crates/bench/schemas/telemetry_trace.schema.json"
        );
        let schema = json::parse(&std::fs::read_to_string(schema_path).unwrap()).unwrap();
        let definitions = schema.get("definitions").and_then(Json::as_obj).unwrap();
        let mut kinds = std::collections::BTreeSet::new();
        for line in text.lines() {
            let record = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            let ty = record.get("ty").and_then(Json::as_str).expect("every record has a ty");
            let required = definitions
                .get(ty)
                .and_then(|d| d.get("required"))
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("the schema has no record kind '{ty}'"));
            for key in required {
                let key = key.as_str().unwrap();
                assert!(record.get(key).is_some(), "a {ty} record lacks '{key}': {line}");
            }
            kinds.insert(ty.to_string());
        }
        for kind in ["meta", "counter", "span", "event"] {
            assert!(kinds.contains(kind), "the trace has no {kind} record");
        }

        let back = telemetry::export::from_json_lines(&text).unwrap();
        assert_eq!(back, snapshot);
        drop(scratch);
        let _ = std::fs::remove_dir_all(&results);
    }

    #[test]
    fn the_printed_catalogue_is_valid_json_within_the_size_limit() {
        let text = benchmark_json();
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(RUN_SECONDS as f64));
        assert_eq!(doc.get("per_layer").and_then(Json::as_arr).unwrap().len(), PER_LAYER.len());
        assert!(text.len() < 64 * 1024);
    }
}
