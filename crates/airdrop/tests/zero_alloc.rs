//! Zero-allocation contract of the batched lockstep fast path.
//!
//! After warm-up, a control interval on the batched path — command
//! decode, wind draw, SoA gather, the batched integrator call per
//! substep, scatter, reward bookkeeping, observation write — performs no
//! heap allocation as long as no episode ends (auto-reset legitimately
//! allocates a fresh episode). `testkit::alloc`'s thread-scoped counting
//! allocator pins this down; the batched lockstep path under test is
//! single-threaded, so the test thread's count is exact.

use airdrop_sim::{AirdropConfig, AirdropEnv};
use gymrs::{Action, VecEnv};
use rk_ode::RkOrder;
use testkit::alloc::{allocations, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn warm_batched_ticks_do_not_allocate() {
    // n = 4 and n = 8 bracket the SIMD microkernel widths (one full AVX2
    // vector; one AVX-512 vector / two AVX2 vectors) so both the vector
    // bodies and their remainder handling stay allocation-free, at every
    // integration order.
    for n in [4usize, 8] {
        for order in RkOrder::ALL {
            let cfg = AirdropConfig {
                rk_order: order,
                // High drop: hundreds of ticks before touchdown, so the
                // measured window has no terminal interval.
                altitude_limits: (500.0, 500.0),
                gusts_enabled: true,
                gust_probability: 0.3,
                gust_strength: 2.0,
                ..AirdropConfig::default()
            };
            let envs: Vec<AirdropEnv> = (0..n).map(|_| AirdropEnv::new(cfg.clone())).collect();
            let mut v = VecEnv::new(envs, 5);
            v.reset_all();
            assert!(v.is_batched(), "AirdropEnv must take the batched path");

            // Actions preallocated; the measured region is step_lockstep only.
            let actions: Vec<Action> =
                (0..n).map(|i| Action::Continuous(vec![(i as f64 * 0.31).sin()])).collect();

            for _ in 0..10 {
                v.step_lockstep(&actions); // warm-up: grows tick buffers once
            }

            let before = allocations();
            for _ in 0..50 {
                v.step_lockstep(&actions);
                assert!(v.last_tick().finished.is_empty(), "window must stay mid-episode");
            }
            assert_eq!(allocations() - before, 0, "{order} n={n}: warm batched ticks allocated");
        }
    }
}
