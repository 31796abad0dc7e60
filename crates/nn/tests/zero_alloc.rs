//! Zero-allocation contract of the learner's inner loop.
//!
//! After warm-up, one minibatch step — `Mlp::forward_into` into a held
//! tape, `Mlp::backward_params` through the network's scratch buffers
//! (pre-activation gradient, ping/pong gradients, the transposed-weight
//! panel of the `dz · Wᵀ` kernel) and `Adam::step` — performs no heap
//! allocation. `testkit::alloc`'s thread-scoped counting allocator pins
//! this down; the path under test is single-threaded.

use rand::rngs::StdRng;
use rand::SeedableRng;
use testkit::alloc::{allocations, CountingAllocator};
use tinynn::{Activation, Adam, Matrix, Mlp, Optimizer, Tape};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn warm_minibatch_steps_do_not_allocate() {
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

        let before = allocations();
        for _ in 0..20 {
            step(&mut net);
        }
        assert_eq!(allocations() - before, 0, "{sizes:?}: warm minibatch steps allocated");
    }
}
