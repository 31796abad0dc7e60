//! The decision-latency ledger: the repository's benchmark.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out FILE]
//! ledger compare A.jsonl B.jsonl
//! ledger catalogue
//! ```
//!
//! With `--trace 0` it times units of one workload and prints the
//! end-to-end metrics; with `--trace 1` it runs the probes and one traced
//! unit and prints the per-layer metrics. Either way the last line of
//! standard output is one JSON object. `benchmark/README.md` has the
//! catalogue and how to read it.

mod budgets;
mod catalogue;
mod compare;
mod json;
mod probes;
mod run;
mod stamp;
mod sys;
mod workloads;

use std::process::ExitCode;

/// Exit code for a refused invocation: bad arguments or ambient
/// configuration. A failed check or a failed operation exits 1.
const REFUSED: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("catalogue") => {
            println!("{}", run::benchmark_json());
            Ok(true)
        }
        _ => run::main(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(REFUSED)
        }
    }
}
