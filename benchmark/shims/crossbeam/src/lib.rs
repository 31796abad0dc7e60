//! Offline stand-in for `crossbeam`.
//!
//! `gymrs` and `dist-exec` list it as a dependency and use nothing from
//! it, so this crate is empty.
