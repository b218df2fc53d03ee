//! Offline stand-in for `serde`: re-exports the no-op derives.

pub use serde_derive::{Deserialize, Serialize};
