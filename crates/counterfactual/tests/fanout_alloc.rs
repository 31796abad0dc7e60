//! Allocation guard of the open-loop fan-out: a `Hold` continuation
//! allocates to set a payload up (lanes, buffers, the action list) and
//! then steps without touching the heap, so the allocation count does not
//! depend on the horizon. A per-tick action clone — one `Vec` per live
//! lane per tick — would show as 32 allocations for every extra tick.
//!
//! Counting is thread-scoped for the reason given in
//! `crates/airdrop/tests/zero_alloc.rs`: libtest's own threads allocate
//! at unpredictable times. One payload is answered on the calling thread
//! alone, so the count is exact.

use counterfactual::{AnalyzerConfig, CounterfactualAnalyzer, Exec};
use dist_exec::{ContinuationPolicy, EnvBlueprint, WhatIfPayload, WhatIfTask};
use gymrs::Action;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` init: plain static TLS, so reading the flag inside the
    // allocator never itself allocates (lazy TLS init could).
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    // Threads that never opt in (harness, watchdog) skip the counter.
    let _ = COUNTING.try_with(|c| {
        if c.get() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    });
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only an atomic and a `const`-initialised thread-local flag.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `alloc` contract, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's `realloc` contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations of one `Exec::Batched` answer to `payload`.
fn allocations(payload: &WhatIfPayload) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let returns = Exec::Batched { force: Some(true) }.run(payload).expect("runs");
    let after = ALLOCATIONS.load(Ordering::SeqCst);
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
    COUNTING.with(|c| c.set(true));
    let warm_up = allocations(&short); // one-time lazy state (ISA detection, …)
    let at_16 = allocations(&short);
    let at_64 = allocations(&long);
    COUNTING.with(|c| c.set(false));
    assert!(warm_up >= at_16 && at_16 > 0);
    assert_eq!(at_16, at_64, "48 more ticks of 32 lanes must not allocate");
}
