//! Offline stand-in for `parking_lot`: a `Mutex` whose `lock` returns the
//! guard directly, over `std::sync::Mutex`. A poisoned lock is recovered,
//! as `parking_lot` has no poisoning.

use std::sync::PoisonError;

pub use std::sync::MutexGuard;

#[derive(Debug)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
