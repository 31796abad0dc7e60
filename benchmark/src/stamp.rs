//! Provenance: what produced a result. A run's effective configuration
//! must be one recorded value, so the variables the library crates read
//! from the environment are refused rather than recorded.

use crate::budgets::Budgets;
use crate::json::{obj, Json};
use std::process::Command;

/// Environment variables that change what the library crates do. A run
/// with any of them set exits 2.
pub const AMBIENT: [&str; 5] =
    ["RLDT_SIMD", "RLDT_BATCH_CROSSOVER", "RLDT_TRANSPORT", "RLDT_WORKER_BIN", "BENCH_SMOKE"];

/// The ambient variables that are set, in declaration order.
pub fn ambient_set() -> Vec<&'static str> {
    AMBIENT.iter().copied().filter(|name| std::env::var_os(name).is_some()).collect()
}

/// First line a command prints, or `unknown`. The driver's checkout is not
/// a git repository, so the revision is best effort.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn stamp(seed: u64, budgets: Budgets, smoke: bool) -> Json {
    let isa = simd_kernels::Isa::detect();
    obj([
        ("git_rev", Json::Str(first_line("git", &["rev-parse", "--short=12", "HEAD"]))),
        ("rustc", Json::Str(first_line("rustc", &["-V"]))),
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64)),
        ("isa", Json::Str(isa.name().to_string())),
        ("f64_lanes", Json::Num(isa.f64_lanes() as f64)),
        ("batch_crossover", Json::Num(simd_kernels::crossover::batch_crossover() as f64)),
        ("deps", Json::Str("shims".to_string())),
        ("seed", Json::Num(seed as f64)),
        ("smoke", Json::Bool(smoke)),
        ("budgets", budgets.to_json()),
    ])
}
