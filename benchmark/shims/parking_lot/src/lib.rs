//! Offline stand-in for `parking_lot`: `Mutex` over `std::sync::Mutex`.
//!
//! The one behaviour callers rely on beyond `std` is that a panic while
//! the lock is held does not poison it, so `lock` returns the guard
//! directly.

use std::sync::PoisonError;

pub use std::sync::MutexGuard;

#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
