//! Offline stand-in for `crossbeam`: the workspace uses only unbounded
//! channels, which `std::sync::mpsc` (itself a crossbeam port) provides.

pub mod channel {
    pub use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }
}
