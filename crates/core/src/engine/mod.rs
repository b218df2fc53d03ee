//! Training engines.
//!
//! Fig. 4 is one control loop — ask the [`Policy`](crate::policy::Policy)
//! for a plan, run it, tell the policy what happened — and it is written
//! once, in the crate-private `driver` module. What differs between the
//! two public engines is only the *executor* behind that loop:
//!
//! - [`CannikinTrainer`] drives a [`hetsim::Simulator`] at paper scale
//!   (16-GPU clusters, ImageNet-sized jobs): batch timings come from the
//!   simulator, gradient-noise evolution from a pluggable [`NoiseModel`],
//!   and injected faults are handled mid-epoch. It reports
//!   [`EpochRecord`]s, the unit every figure harness consumes.
//! - [`parallel::ParallelTrainer`] trains *real* `minidnn` models on OS
//!   threads with ring all-reduce gradient exchange, Eq. (9) weighted
//!   aggregation and live Theorem 4.1 GNS estimation — the functional
//!   path that proves the algorithms work on real gradients, not only on
//!   simulated clocks. It reports [`ParallelEpochReport`]s.
//!
//! Both are thin shells (builders, accessors, report types) over the same
//! driver; the baselines that differ from Cannikin only in their policy
//! are `CannikinTrainer`s too (`cannikin-baselines`).

mod builders;
mod driver;
pub mod loader;
pub mod parallel;
mod subject;
mod trainer;

pub use builders::{CannikinTrainerBuilder, ParallelTrainerBuilder};
pub use loader::HeteroDataLoader;
pub use parallel::{ParallelConfig, ParallelEpochReport, ParallelTrainer};
pub use subject::TrainingSubject;
pub use trainer::{CannikinTrainer, TrainerConfig};

use crate::optperf::Bottleneck;

/// A model of how the gradient noise scale evolves with training progress.
///
/// Progress is measured in *effective epochs*: statistically-weighted
/// passes over the dataset (an epoch at the reference batch size counts as
/// 1.0). The GNS famously grows as training converges — McCandlish et al.
/// report one to two orders of magnitude over a run — which is exactly why
/// adaptive systems grow the batch size over time.
pub trait NoiseModel: Send {
    /// The gradient noise scale φ after `effective_epochs` of progress.
    fn noise_scale(&self, effective_epochs: f64) -> f64;
}

/// φ(t) = φ₀ · (1 + rate·t): the linear-growth model used by the workload
/// profiles (a good fit to the published GNS trajectories at epoch
/// granularity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearNoiseGrowth {
    /// Initial noise scale.
    pub initial: f64,
    /// Growth per effective epoch.
    pub rate: f64,
}

impl NoiseModel for LinearNoiseGrowth {
    fn noise_scale(&self, effective_epochs: f64) -> f64 {
        self.initial * (1.0 + self.rate * effective_epochs.max(0.0))
    }
}

/// Everything recorded about one training epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Total batch size used this epoch.
    pub total_batch: u64,
    /// Per-node local batch sizes.
    pub local_batches: Vec<u64>,
    /// Number of optimizer steps (batches) in the epoch.
    pub steps: usize,
    /// Gradient-accumulation factor (micro-steps per optimizer step;
    /// 1 = plain synchronous training).
    pub accumulation: u64,
    /// Simulated (or measured) wall time of the epoch, s.
    pub epoch_time: f64,
    /// Mean batch processing time, s.
    pub mean_batch_time: f64,
    /// Gradient noise scale in effect during the epoch.
    pub noise_scale: f64,
    /// Statistical efficiency η(B) relative to the reference batch.
    pub efficiency: f64,
    /// Cumulative effective epochs of progress *after* this epoch.
    pub effective_epochs: f64,
    /// The simulated clock after this epoch, s: the epochs' simulated
    /// times plus modelled charges such as a restart. Measured host time
    /// (`overhead_seconds`) is never added, so the clock is reproducible
    /// under seed.
    pub cumulative_time: f64,
    /// Real wall-clock time spent in the optimizer for this epoch —
    /// split planning *plus* performance-model fitting (the Table 6
    /// overhead), s.
    pub overhead_seconds: f64,
    /// Bottleneck pattern of the plan, when a model-based plan was used.
    pub pattern: Option<Vec<Bottleneck>>,
    /// Whether the learned model (vs the bootstrap) produced the split.
    pub used_model: bool,
    /// Faults observed (injected or genuine) during the epoch.
    pub faults: u32,
    /// Recovery actions taken (retries, group membership changes,
    /// mid-epoch replans) during the epoch.
    pub recoveries: u32,
}

impl EpochRecord {
    /// Overhead as a fraction of the epoch's total time (Table 6).
    pub fn overhead_fraction(&self) -> f64 {
        self.overhead_seconds / (self.overhead_seconds + self.epoch_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_noise_growth() {
        let m = LinearNoiseGrowth { initial: 100.0, rate: 0.5 };
        assert_eq!(m.noise_scale(0.0), 100.0);
        assert_eq!(m.noise_scale(2.0), 200.0);
        // Negative progress clamps.
        assert_eq!(m.noise_scale(-5.0), 100.0);
    }

    #[test]
    fn overhead_fraction() {
        let r = EpochRecord {
            epoch: 0,
            total_batch: 64,
            local_batches: vec![64],
            steps: 1,
            accumulation: 1,
            epoch_time: 9.0,
            mean_batch_time: 9.0,
            noise_scale: 1.0,
            efficiency: 1.0,
            effective_epochs: 1.0,
            cumulative_time: 9.0,
            overhead_seconds: 1.0,
            pattern: None,
            used_model: false,
            faults: 0,
            recoveries: 0,
        };
        assert!((r.overhead_fraction() - 0.1).abs() < 1e-12);
    }
}
