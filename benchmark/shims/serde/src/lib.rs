//! Offline stand-in for `serde`.
//!
//! The library crates derive `Serialize`/`Deserialize` on their
//! configuration and result types but only ever serialise them from
//! tests, benches and binaries, through `serde_json`. None of that runs
//! in the benchmark, so the traits here are markers: the derives compile,
//! and no measured code changes.

/// Marker for types that derive `Serialize`.
pub trait Serialize {}

/// Marker for types that derive `Deserialize`.
pub trait Deserialize<'de>: Sized {}

pub mod de {
    pub use crate::Deserialize;

    /// Deserializable from any lifetime.
    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
    impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}
}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
