//! Online performance-model learning (§4.2 "parameter learning", §4.5).
//!
//! During every epoch each node records, per batch, its `a_i` (load +
//! forward + update) and `P_i` (backward) durations together with its
//! noisy observations of the cluster constants γ, `T_comm` and `T_u`. The
//! [`Analyzer`] turns those traces into:
//!
//! - a per-node linear model `(q, s, k, m)` by least squares over the
//!   *per-batch-size mean* timings (at least two distinct local batch
//!   sizes are required — the reason for the Eq. (8) bootstrap epochs);
//! - fused cluster constants, combining each node's observation stream
//!   with **inverse-variance weighting**: nodes whose measurements are
//!   noisier (larger `σᵢ²`) contribute proportionally less. §5.3 shows
//!   naive averaging instead of IVW inflates OptPerf prediction error from
//!   ≤7% to up to 21%.

mod analyzer;
mod fuse;

pub use analyzer::Analyzer;
pub use fuse::{Fused, WeightedFuser};

/// How the analyzer combines per-node observations of cluster constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasurementAggregation {
    /// Inverse-variance weighting (Cannikin, §4.5).
    InverseVariance,
    /// Unweighted mean (the ablation of §5.3).
    NaiveMean,
}
