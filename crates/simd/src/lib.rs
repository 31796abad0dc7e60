//! Explicit SIMD microkernels for the workspace's two hot paths, with
//! runtime ISA dispatch and a calibrated scalar/batched crossover.
//!
//! The batched SoA integrator (`rk-ode`) and the MLP matrix kernels
//! (`tinynn`) previously relied on LLVM autovectorizing their inner loops
//! inside `#[target_feature(enable = "avx2")]` wrappers. This crate
//! replaces those inner loops with *explicit* `std::arch` microkernels —
//! 8-lane `f64` on AVX-512F, 4-lane `f64` on AVX2, plus an 8-lane `f32`
//! FMA set — selected once at startup by [`Isa::cached`] and overridable
//! with the `RLDT_SIMD` environment variable.
//!
//! ## Determinism contract
//!
//! Every `f64` kernel is **bitwise identical** to its scalar reference:
//! the vector body performs, per element, exactly the multiply/add/divide
//! sequence of the scalar loop (same association, same stage order), and
//! every operation used — `mul`, `add`, `sub`, `div`, broadcast — is
//! IEEE-754 exact-rounded, so an 8-wide evaluation returns the same bits
//! as a 1-wide one. No `f64` kernel uses FMA: a fused multiply-add rounds
//! once where the scalar reference rounds twice, which would break the
//! scalar/batched bitwise-parity contract the integration and policy
//! layers are built on (see `DESIGN.md`, "SIMD microkernels & dispatch").
//!
//! The practical consequence: the ISA choice is unobservable in results.
//! `RLDT_SIMD=scalar` runs must reproduce AVX-512 runs bit for bit —
//! CI runs the kernel test suites under both settings.
//!
//! Transcendentals are in-tree; result bits do not depend on the host
//! `libm`. [`mathf64`] holds `sin_cos`, `exp`, `ln` and `tanh` as
//! straight-line functions built from those same exact-rounded
//! operations, and its slice entry points compile that one body per tier
//! inside `#[target_feature]` wrappers rather than carrying a
//! hand-written body per tier — as does [`nnf64::adam_step`], whose
//! divides and square root are exact-rounded at every lane width. So the
//! contract also holds across machines: same seed, same policy.
//!
//! ## Crossover
//!
//! Batching only pays once enough lanes share a sweep; at `n = 1–2` the
//! SoA gather/scatter and masked bookkeeping cost more than the lane
//! parallelism returns. [`crossover`] holds the calibrated batch-size
//! threshold below which callers (the `VecEnv` lockstep batcher) should
//! keep the scalar path.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod buffer;
pub mod crossover;
mod isa;
pub mod mathf64;
pub mod nnf64;
pub mod odef64;

pub use buffer::AlignedF64;
pub use isa::Isa;
