//! Allocation guard of the open-loop fan-out: a `Hold` continuation
//! allocates to set a payload up (lanes, buffers, the action list) and
//! then steps without touching the heap, so the allocation count does not
//! depend on the horizon. A per-tick action clone — one `Vec` per live
//! lane per tick — would show as 32 allocations for every extra tick.
//!
//! Counted by `testkit::alloc`'s thread-scoped allocator: one payload is
//! answered on the calling thread alone, so the count is exact.

use counterfactual::{AnalyzerConfig, CounterfactualAnalyzer, Exec};
use dist_exec::{ContinuationPolicy, EnvBlueprint, WhatIfPayload, WhatIfTask};
use gymrs::Action;
use testkit::alloc::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations of one `Exec::Batched` answer to `payload`.
fn allocations(payload: &WhatIfPayload) -> u64 {
    let before = testkit::alloc::allocations();
    let returns = Exec::Batched { force: Some(true) }.run(payload).expect("runs");
    let after = testkit::alloc::allocations();
    assert_eq!(returns.len(), payload.tasks.len());
    after - before
}

#[test]
fn an_open_loop_fan_out_allocates_the_same_at_any_horizon() {
    // A drop high enough that no lane lands inside 64 ticks (32 s at
    // 3 m/s): an episode end legitimately allocates the fresh episode.
    // `AirdropFast` drops from at most 60 m, so the paper scenario it is.
    let analyzer =
        CounterfactualAnalyzer::new(EnvBlueprint::AirdropPaper, AnalyzerConfig::default());
    let point = (0..64)
        .find_map(|seed| {
            let episode = analyzer.record_episode(seed, 1, |_, _| Action::Continuous(vec![0.0]));
            episode.points.into_iter().next().filter(|p| p.snapshot.f[2] > 200.0)
        })
        .expect("one of 64 drops from [30, 1000] m starts above 200 m");
    let payload = |horizon| WhatIfPayload {
        env: EnvBlueprint::AirdropPaper,
        snapshot: point.snapshot.clone(),
        horizon,
        policy: ContinuationPolicy::Hold,
        tasks: (0..32)
            .map(|j| WhatIfTask {
                first_action: Action::Continuous(vec![(j as f64 * 0.31).sin()]),
                seed: j,
            })
            .collect(),
    };
    let (short, long) = (payload(16), payload(64));
    assert_eq!(short.lane_plan().lanes(), 32, "32 distinct actions hold 32 lanes");
    let warm_up = allocations(&short); // one-time lazy state (ISA detection, …)
    let at_16 = allocations(&short);
    let at_64 = allocations(&long);
    assert!(warm_up >= at_16 && at_16 > 0);
    assert_eq!(at_16, at_64, "48 more ticks of 32 lanes must not allocate");
}
