//! Telemetry keys recorded by [`crate::vec_env::VecEnv`].

use telemetry::Key;

/// Counter: lockstep ticks (one per dispatch across all sub-envs).
pub const TICKS: Key = Key("vecenv.ticks");

/// Counter: individual environment steps (ticks × sub-envs).
pub const STEPS: Key = Key("vecenv.steps");

/// Counter: work units consumed by environment transitions (one unit is
/// one derivative evaluation of the dynamics).
pub const WORK: Key = Key("vecenv.work");

/// Counter: episodes finished (terminated or truncated, auto-reset).
pub const EPISODES: Key = Key("vecenv.episodes");

/// Counter: lockstep ticks served by the batched SoA fast path.
pub const BATCHED_TICKS: Key = Key("vecenv.batched_ticks");

/// Counter: lockstep ticks served by the scalar per-env path (no batcher
/// installed, or the batch size sits below the SIMD crossover).
pub(crate) const SCALAR_TICKS: Key = Key("vecenv.scalar_ticks");

/// Event: the kernel dispatch decision, emitted once when a recorder is
/// attached. Fields: [`DISPATCH_ISA`], [`DISPATCH_LANES`],
/// [`DISPATCH_CROSSOVER`], [`DISPATCH_BATCHED`] (the ring recorder keeps
/// at most four fields per event).
pub(crate) const DISPATCH: Key = Key("vecenv.dispatch");

/// Dispatch event field: detected/overridden ISA tier name
/// (`"scalar"` | `"avx2"` | `"avx512"`).
pub(crate) const DISPATCH_ISA: Key = Key("isa");

/// Dispatch event field: `f64` lanes per vector register on that tier.
pub(crate) const DISPATCH_LANES: Key = Key("f64_lanes");

/// Dispatch event field: the scalar/batched crossover batch size.
pub(crate) const DISPATCH_CROSSOVER: Key = Key("batch_crossover");

/// Dispatch event field: whether the batched fast path is installed.
pub(crate) const DISPATCH_BATCHED: Key = Key("batched");
