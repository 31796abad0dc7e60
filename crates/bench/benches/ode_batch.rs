//! Batched vs scalar ODE fast path: env-step throughput by Runge–Kutta
//! order × batch size.
//!
//! Running this bench writes `BENCH_ode.json` at the workspace root: for
//! every RK order the paper studies and a sweep of vectorized-environment
//! counts, the ns/env-step of the scalar lockstep sweep (one dynamic
//! dispatch and one 9-dim integration per sub-environment per substep)
//! against the batched fast path (one monomorphized SoA integrator call
//! per substep across all lanes), plus the resulting speedup. The two
//! paths are bitwise-identical — the airdrop parity tests and the ODE
//! proptests pin that down — so the speedup is free accuracy-wise.
//!
//! Each row also carries `ode_*` columns isolating the integration
//! itself (`n` scalar `dyn`-dispatched steppers vs one SoA batch-stepper
//! call, no env bookkeeping): that is the path the SIMD microkernels
//! accelerate, >5x at n ≥ 32 on AVX-512, while the env-step rows blend
//! in the per-env scalar bookkeeping (RNG, reward, observation) that
//! both paths pay identically.
//!
//! `BENCH_SMOKE=1` shrinks the grid and tick counts to a seconds-long CI
//! smoke run — and turns the report into a gate: the process exits
//! non-zero (after writing the JSON) if any speedup row falls below 0.95,
//! so a reintroduced small-batch regression fails CI instead of merely
//! being recorded.

use airdrop_sim::{
    AirdropConfig, AirdropEnv, BatchedAirdropDynamics, ParafoilDynamics, ParafoilParams, STATE_DIM,
};
use gymrs::{Action, VecEnv};
use rk_ode::{AnyBatchStepper, RkOrder, Work};
use simd_kernels::{crossover, AlignedF64, Isa};
use std::hint::black_box;
use std::time::Instant;

fn make_vec(order: RkOrder, n: usize, batched: bool) -> VecEnv<AirdropEnv> {
    let cfg = AirdropConfig {
        rk_order: order,
        // Drop high so measurement ticks stay mid-episode (no resets).
        altitude_limits: (400.0, 400.0),
        ..AirdropConfig::default()
    };
    let envs: Vec<AirdropEnv> = (0..n).map(|_| AirdropEnv::new(cfg.clone())).collect();
    let mut v = VecEnv::new(envs, 11);
    if !batched {
        // The scalar baseline is the sequential per-env sweep.
        v.set_batched(false);
    }
    v.reset_all();
    v
}

fn actions(n: usize) -> Vec<Action> {
    (0..n).map(|i| Action::Continuous(vec![((i as f64) * 0.37).sin() * 0.8])).collect()
}

/// Best (minimum) ns per env-step for the scalar and batched `VecEnv`
/// paths, sampled in *interleaved* rounds so frequency/thermal drift on
/// a shared core hits both paths equally — at `n` below the crossover
/// the two rows run identical code, and only interleaving keeps their
/// measured ratio honest. Small batches get proportionally more rounds
/// because each timed sample covers fewer env-steps.
fn measure_pair(order: RkOrder, n: usize, ticks: usize, reps: usize) -> (f64, f64) {
    let mut vs = make_vec(order, n, false);
    let mut vb = make_vec(order, n, true);
    let acts = actions(n);
    for _ in 0..ticks.min(16) {
        vs.step_lockstep(&acts); // warm caches and buffers
        vb.step_lockstep(&acts);
    }
    let mut sample = |v: &mut VecEnv<AirdropEnv>| {
        let t0 = Instant::now();
        for _ in 0..ticks {
            v.step_lockstep(&acts);
            black_box(v.last_tick().steps.len());
        }
        t0.elapsed().as_nanos() as f64 / (ticks * n) as f64
    };
    let rounds = reps * (16 / n).max(1);
    let (mut scalar, mut batched) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds {
        scalar = scalar.min(sample(&mut vs));
        batched = batched.min(sample(&mut vb));
    }
    (scalar, batched)
}

/// The integration itself, without the environment bookkeeping that an
/// env-step also pays (RNG draw, reward shaping, observation write):
/// `n` scalar `Box<dyn FixedStepper>` sweeps — exactly the machinery the
/// scalar env path runs — against one SoA batch-stepper call, over one
/// control interval (two substeps) per measurement. Returns
/// `(scalar_ns, batched_ns)` per env-interval. This is the quantity the
/// SIMD microkernels accelerate; the env-step rows dilute it with the
/// per-env scalar bookkeeping both paths share.
fn measure_ode(order: RkOrder, n: usize, reps: usize) -> (f64, f64) {
    let params = ParafoilParams::default();
    let command = |e: usize| ((e as f64) * 0.37).sin() * 0.8;
    let state = |e: usize| {
        airdrop_sim::dynamics::initial_state(10.0 + e as f64, -5.0, 300.0, 0.1 * e as f64, &params)
    };
    let substep = AirdropConfig::default().substep;

    let mut lanes: Vec<[f64; STATE_DIM]> = (0..n).map(state).collect();
    let dyns: Vec<ParafoilDynamics> = (0..n)
        .map(|e| ParafoilDynamics { params, command: command(e), wind: (1.0, -0.5) })
        .collect();
    let mut steppers: Vec<Box<dyn rk_ode::stepper::FixedStepper>> =
        (0..n).map(|_| order.stepper_for(STATE_DIM)).collect();
    let scalar = time_ns(reps, || {
        for e in 0..n {
            let mut t = 0.0;
            for _ in 0..2 {
                steppers[e].step(&dyns[e], t, substep, &mut lanes[e]);
                t += substep;
            }
        }
        black_box(lanes[0][2]);
    }) / n as f64;

    let mut bd = BatchedAirdropDynamics::new(params, n);
    let mut y = AlignedF64::zeroed(STATE_DIM * n);
    for e in 0..n {
        bd.set_lane(e, command(e), (1.0, -0.5));
        for (d, s) in state(e).iter().enumerate() {
            y[d * n + e] = *s;
        }
    }
    let mut stepper = AnyBatchStepper::new(order, STATE_DIM, n);
    let active = vec![true; n];
    let mut work = vec![Work::default(); n];
    let batched = time_ns(reps, || {
        let mut t = 0.0;
        for _ in 0..2 {
            stepper.step(&bd, t, substep, &mut y, &active, &mut work);
            t += substep;
        }
        black_box(y[0]);
    }) / n as f64;
    (scalar, batched)
}

/// Best-of-`reps` nanoseconds per call, auto-calibrated to ≥20 ms of work
/// per timed block.
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let mut iters = 1u64;
    let iters = loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed().as_millis() >= 20 || iters >= 1 << 22 {
            break iters;
        }
        iters *= 2;
    };
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let batches: &[usize] = if smoke { &[1, 8] } else { &[1, 2, 4, 8, 16, 32, 64] };
    let (ticks, reps) = if smoke { (40, 3) } else { (200, 9) };

    let isa = Isa::cached();
    let threshold = crossover::batch_crossover();
    println!("isa {isa}  f64 lanes {}  batch crossover n>={threshold}", isa.f64_lanes());

    let mut results = Vec::new();
    let mut worst = f64::INFINITY;
    for order in RkOrder::ALL {
        for &n in batches {
            let (scalar, batched) = measure_pair(order, n, ticks, reps);
            // Report at display precision: a throughput microbench on a
            // shared core does not resolve ratios beyond two decimals.
            let speedup = (scalar / batched * 100.0).round() / 100.0;
            worst = worst.min(speedup);
            let (ode_scalar, ode_batched) = measure_ode(order, n, reps.min(5));
            let ode_speedup = (ode_scalar / ode_batched * 100.0).round() / 100.0;
            // Below the crossover the "batched" VecEnv dispatches to the
            // scalar sweep, so the row records which kernel actually ran.
            // The `ode_*` columns always measure the SoA batch stepper
            // itself — below the crossover they are the calibration data
            // showing *why* small batches dispatch to scalar.
            let kernel = if n >= threshold { isa.name() } else { "scalar" };
            println!(
                "{order} n={n:3}  env-step: scalar {scalar:9.1}  batched {batched:9.1} \
                 ns  speedup {speedup:.2}x [{kernel}]   ode only: {ode_scalar:9.1} vs \
                 {ode_batched:8.1} ns  speedup {ode_speedup:.2}x"
            );
            results.push(serde_json::json!({
                "rk_order": order.order(),
                "n_envs": n,
                "kernel": kernel,
                "scalar_ns_per_env_step": scalar,
                "batched_ns_per_env_step": batched,
                "speedup": speedup,
                "ode_scalar_ns_per_interval": ode_scalar,
                "ode_batched_ns_per_interval": ode_batched,
                "ode_speedup": ode_speedup,
            }));
        }
    }

    let report = serde_json::json!({
        "bench": "ode_batch_fast_path",
        "unit": "ns_per_env_step_min",
        "ticks_per_sample": ticks,
        "smoke": smoke,
        "isa": isa.name(),
        "f64_lane_width": isa.f64_lanes(),
        "batch_crossover": threshold,
        "results": results,
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ode.json");
    let body = serde_json::to_string_pretty(&report).expect("serializable report");
    if let Err(e) = std::fs::write(path, body + "\n") {
        eprintln!("BENCH_ode.json not written: {e}");
    } else {
        println!("wrote {path}");
    }

    // CI gate: in smoke mode a sub-parity row is a regression, not a datum.
    if smoke && worst < 0.95 {
        eprintln!("FAIL: worst speedup {worst:.2}x < 0.95x — batched path regressed");
        std::process::exit(1);
    }
}
