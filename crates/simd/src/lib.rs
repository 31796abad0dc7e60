//! SIMD microkernels for the workspace's two hot paths, with runtime ISA
//! dispatch and a calibrated scalar/batched crossover.
//!
//! The batched SoA integrator (`rk-ode`) and the MLP matrix kernels
//! (`tinynn`) call their inner loops here, with the tier — 8-lane `f64`
//! on AVX-512F, 4-lane on AVX2, or scalar — selected once at startup by
//! [`Isa::cached`] and overridable with the `RLDT_SIMD` environment
//! variable.
//!
//! One idiom: a kernel is one safe body, compiled per tier. The
//! crate-private `tiered!` macro (`isa.rs`) turns the body into the public
//! `fn(isa, …)`, the `avx2` and `avx512f` `#[target_feature]` wrappers it
//! is inlined into, and the one clamped `match` that picks between them;
//! the compiler vectorises the body at each wrapper's width. All of
//! [`odef64`], [`mathf64`]'s slice forms and [`nnf64::axpy`] /
//! [`nnf64::adam_step`] are written that way. Hand-written `std::arch`
//! bodies remain only where they measured faster than the compiled body:
//! the register tiles of [`nnf64`]'s three matmuls, written once and
//! stamped per tier, whose masked column tails the compiler does not
//! reproduce ([`nnf64`] has the ratios; DESIGN.md, "SIMD microkernels &
//! dispatch", the contract).
//!
//! ## Determinism contract
//!
//! Every `f64` kernel is **bitwise identical** on every tier: each
//! output element sees exactly one multiply/add/divide sequence (same
//! association, same stage order) whatever shares its register, and
//! every operation used — `mul`, `add`, `sub`, `div`, broadcast — is
//! IEEE-754 exact-rounded, so an 8-wide evaluation returns the same bits
//! as a 1-wide one. No `f64` kernel uses FMA, and the compiler contracts
//! none: a fused multiply-add rounds once where a multiply and an add
//! round twice, which would break the scalar/batched bitwise-parity
//! contract the integration and policy layers are built on (see
//! `DESIGN.md`, "SIMD microkernels & dispatch").
//!
//! The practical consequence: the ISA choice is unobservable in results.
//! `RLDT_SIMD=scalar` runs must reproduce AVX-512 runs bit for bit —
//! CI runs the kernel test suites under both settings.
//!
//! Transcendentals are in-tree; result bits do not depend on the host
//! `libm`. [`mathf64`] holds `sin_cos`, `exp`, `ln` and `tanh` as
//! straight-line functions built from those same exact-rounded
//! operations (as are [`nnf64::adam_step`]'s divides and square root), so
//! the contract also holds across machines: same seed, same policy.
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
