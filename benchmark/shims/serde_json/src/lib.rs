//! Offline stand-in for `serde_json`.
//!
//! `decision` and `bench` list it as a dependency, but only their tests,
//! benches and binaries call it; the benchmark builds none of those. The
//! crate exists so the dependency resolves, and is empty so that a new
//! call from a library path fails to compile here instead of silently
//! measuring a stand-in.
