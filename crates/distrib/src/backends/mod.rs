//! The training loops and the collection helpers they share with the
//! runtime's workers.

pub mod common;
mod train;

#[cfg(test)]
mod tests;

pub(crate) use train::train;
