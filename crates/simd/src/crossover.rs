//! Scalar/batched crossover: the batch size below which the SoA batched
//! path should not be used.
//!
//! At `n = 1–2` the batched stepper's strided SoA bookkeeping (masked
//! combine, FSAL lane restore, per-stage sweeps over near-empty vectors)
//! costs more than the lane parallelism returns — the seed benchmarks
//! showed `n = 1` running at ~0.76× scalar. The fix is not to make the
//! batched path marginally cheaper there but to not take it at all:
//! `VecEnv` auto-installs its lockstep batcher only when
//! `n >= batch_crossover()`. Explicit `set_batched(true)` calls bypass
//! the gate so tests can still exercise the degenerate layouts.

/// Batches smaller than this run the scalar path: `n = 1, 2` lose or
/// roughly tie under batching on every machine we measured, while
/// `n >= 3` was never slower than scalar.
pub(crate) const DEFAULT_BATCH_CROSSOVER: usize = 3;

/// The crossover `VecEnv` gates on and run stamps record: a compile-time
/// constant, not a per-process setting.
pub fn batch_crossover() -> usize {
    DEFAULT_BATCH_CROSSOVER
}
