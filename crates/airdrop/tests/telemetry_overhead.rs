//! Zero-overhead contract of disabled telemetry, and zero *allocation*
//! of enabled telemetry on the warm path.
//!
//! The instrumented `VecEnv` tick must stay allocation-free (counted by
//! `testkit::alloc`, as in `zero_alloc.rs`) in two regimes:
//!
//! * **null recorder** (the default): instrumentation reduces to one
//!   `enabled()` branch per tick — nothing else may run, and in
//!   particular nothing may allocate;
//! * **ring recorder, warm**: each counter key claims its aggregation
//!   slot on first touch; after that, a counter add is a single atomic
//!   `fetch_add` with no allocation.
//!
//! The two tests here may run concurrently on different harness threads;
//! each reads only its own thread's tally — exact, because the lockstep
//! path under test is single-threaded.

use airdrop_sim::{AirdropConfig, AirdropEnv};
use gymrs::{Action, VecEnv};
use std::sync::Arc;
use telemetry::RingRecorder;
use testkit::alloc::{allocations, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn rollout_env(n: usize) -> (VecEnv<AirdropEnv>, Vec<Action>) {
    let cfg = AirdropConfig {
        // High drop: hundreds of ticks before touchdown, so the measured
        // window has no terminal interval (auto-reset may allocate).
        altitude_limits: (500.0, 500.0),
        gusts_enabled: true,
        gust_probability: 0.3,
        gust_strength: 2.0,
        ..AirdropConfig::default()
    };
    let envs: Vec<AirdropEnv> = (0..n).map(|_| AirdropEnv::new(cfg.clone())).collect();
    let mut v = VecEnv::new(envs, 5);
    v.reset_all();
    let actions: Vec<Action> =
        (0..n).map(|i| Action::Continuous(vec![(i as f64 * 0.31).sin()])).collect();
    (v, actions)
}

fn measure_warm_ticks(v: &mut VecEnv<AirdropEnv>, actions: &[Action]) -> u64 {
    for _ in 0..10 {
        v.step_lockstep(actions); // warm-up: grows tick buffers once
    }
    let before = allocations();
    for _ in 0..50 {
        v.step_lockstep(actions);
        assert!(v.last_tick().finished.is_empty(), "window must stay mid-episode");
    }
    allocations() - before
}

#[test]
fn null_recorder_rollout_does_not_allocate() {
    let (mut v, actions) = rollout_env(8);
    // The default recorder is the null recorder; make the contract under
    // test explicit anyway.
    v.set_recorder(telemetry::null_recorder());
    let allocs = measure_warm_ticks(&mut v, &actions);
    assert_eq!(allocs, 0, "disabled telemetry allocated on the hot path");
}

#[test]
fn warm_ring_recorder_rollout_does_not_allocate() {
    let ring = Arc::new(RingRecorder::new());
    let (mut v, actions) = rollout_env(8);
    v.set_recorder(ring.clone());
    let allocs = measure_warm_ticks(&mut v, &actions);
    assert_eq!(allocs, 0, "warm counter adds must be allocation-free");
    // The counters really were recorded while we measured.
    let snap = ring.snapshot();
    assert_eq!(snap.counter("vecenv.ticks"), Some(60));
    assert_eq!(snap.counter("vecenv.steps"), Some(60 * 8));
}
