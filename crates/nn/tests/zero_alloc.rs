//! Zero-allocation contract of the learner's inner loop.
//!
//! After warm-up, one minibatch step — `Mlp::forward_into` into a held
//! tape, `Mlp::backward_params` through the network's scratch buffers
//! (pre-activation gradient, ping/pong gradients, the transposed-weight
//! panel of the `dz · Wᵀ` kernel) and `Adam::step` — performs no heap
//! allocation. A counting global allocator pins this down. Counting is
//! **thread-scoped** (see `crates/airdrop/tests/zero_alloc.rs`): the
//! libtest harness keeps threads of its own alive that allocate at
//! unpredictable times; the path under test is single-threaded.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use tinynn::{Activation, Adam, Matrix, Mlp, Optimizer, Tape};

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

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn warm_minibatch_steps_do_not_allocate() {
    COUNTING.with(|c| c.set(true));
    // The study's two network shapes: a tanh policy trunk with a wide
    // head and a relu critic with a one-column head.
    for (sizes, hidden) in
        [([11usize, 64, 64, 4], Activation::Tanh), ([12, 64, 64, 1], Activation::Relu)]
    {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Mlp::new(&sizes, hidden, Activation::Identity, &mut rng);
        let mut opt = Adam::new(3e-4);
        let mut tape = Tape::new();
        let batch = 64;
        let x = Matrix::from_vec(
            batch,
            sizes[0],
            (0..batch * sizes[0]).map(|i| (i as f64 * 0.11).sin()).collect(),
        );
        let dout = Matrix::full(batch, sizes[3], 1.0 / batch as f64);
        let mut step = |net: &mut Mlp| {
            net.forward_into(&x, &mut tape);
            net.zero_grad();
            net.backward_params(&tape, &dout);
            opt.step(net);
        };

        for _ in 0..3 {
            step(&mut net); // warm-up: tape, scratch and Adam moments grow once
        }

        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..20 {
            step(&mut net);
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        assert_eq!(after - before, 0, "{sizes:?}: warm minibatch steps allocated");
    }
}
