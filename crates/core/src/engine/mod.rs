//! Training engines.
//!
//! Fig. 4 is one control loop — ask the [`Policy`](crate::policy::Policy)
//! for a plan, run it, tell the policy what happened — and it is written
//! once, in the crate-private `driver` module. What differs between the
//! two public engines is only the *executor* behind that loop:
//!
//! - [`CannikinTrainer`] drives a [`hetsim::Simulator`] at paper scale
//!   (16-GPU clusters, ImageNet-sized jobs): batch timings come from the
//!   simulator, gradient-noise evolution from a [`LinearNoiseGrowth`] law,
//!   and injected faults are handled mid-epoch.
//! - [`parallel::ParallelTrainer`] trains *real* `minidnn` models on OS
//!   threads with ring all-reduce gradient exchange, Eq. (9) weighted
//!   aggregation and live Theorem 4.1 GNS estimation — the functional
//!   path that proves the algorithms work on real gradients, not only on
//!   simulated clocks.
//!
//! Both report one [`EpochRecord`] per epoch, the unit every figure
//! harness and the scenario matrix consume, and both are
//! [`TrainingSubject`]s. The driver turns each executed epoch into
//! statistical progress in one place. Both are thin shells (builders,
//! accessors) over that driver; the baselines that differ from Cannikin
//! only in their policy are `CannikinTrainer`s too (`cannikin-baselines`).

mod builders;
mod driver;
pub mod loader;
pub mod parallel;
mod subject;
mod trainer;

pub use builders::{check_batches, check_dataset_size, CannikinTrainerBuilder, ParallelTrainerBuilder};
pub use loader::HeteroDataLoader;
pub use parallel::{ParallelConfig, ParallelEpochReport, ParallelTrainer};
pub use subject::TrainingSubject;
pub use trainer::{CannikinTrainer, TrainerConfig};

use crate::optperf::Bottleneck;

/// How the gradient noise scale evolves with training progress:
/// φ(t) = φ₀ · (1 + rate·t), the linear-growth law of the workload
/// profiles (a good fit to the published GNS trajectories at epoch
/// granularity).
///
/// Progress is measured in *effective epochs*: statistically-weighted
/// passes over the dataset (an epoch at the reference batch size counts as
/// 1.0). The GNS famously grows as training converges — McCandlish et al.
/// report one to two orders of magnitude over a run — which is exactly why
/// adaptive systems grow the batch size over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearNoiseGrowth {
    /// Initial noise scale.
    pub initial: f64,
    /// Growth per effective epoch.
    pub rate: f64,
}

impl LinearNoiseGrowth {
    /// The gradient noise scale φ after `effective_epochs` of progress.
    pub fn noise_scale(&self, effective_epochs: f64) -> f64 {
        self.initial * (1.0 + self.rate * effective_epochs.max(0.0))
    }
}

/// Everything recorded about one training epoch, by either engine.
///
/// A field an engine does not measure holds a neutral value that says so:
/// a simulated epoch moves no bytes (`comm_bytes = 0`, `comm_overlap =
/// 0.0`) and trains no model (`mean_loss` and `accuracy` are `NaN`, never
/// `0.0`). `NaN` compares unequal to itself, so the type has no
/// `PartialEq`: compare the fields, or the `{:?}` text, which is
/// bit-exact for every finite field.
#[derive(Debug, Clone)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Total batch size used this epoch.
    pub total_batch: u64,
    /// Per-node local batch sizes.
    pub local_batches: Vec<u64>,
    /// Number of optimizer steps (batches) in the epoch.
    pub steps: usize,
    /// Time of the epoch, s: simulated on the simulated path, measured
    /// wall time (emulated slowdowns included) on the real one.
    pub epoch_time: f64,
    /// Mean batch processing time, s.
    pub mean_batch_time: f64,
    /// Gradient noise scale φ of the epoch: the noise model's value in
    /// effect during a simulated epoch, the real path's smoothed estimate
    /// after it — `None` while that estimate is not yet warm.
    pub noise_scale: Option<f64>,
    /// Statistical efficiency η(B) relative to the reference batch (1.0
    /// while φ is unknown).
    pub efficiency: f64,
    /// Cumulative effective epochs of progress *after* this epoch.
    pub effective_epochs: f64,
    /// The engine's clock after this epoch, s: the epochs' times plus
    /// modelled charges such as a restart. On the simulated path measured
    /// host time (`overhead_seconds`) is never added, so the clock is
    /// reproducible under seed.
    pub cumulative_time: f64,
    /// Real wall-clock time spent in the optimizer for this epoch —
    /// split planning *plus* performance-model fitting (the Table 6
    /// overhead), s.
    pub overhead_seconds: f64,
    /// Bottleneck pattern of the plan, when a model-based plan was used.
    pub pattern: Option<Vec<Bottleneck>>,
    /// Whether the learned model (vs the bootstrap) produced the split.
    pub used_model: bool,
    /// Faults observed (injected or genuine) during the epoch. The real
    /// path counts a failed gradient exchange only in `recoveries`.
    pub faults: u32,
    /// Recovery actions taken during the epoch: retries, group membership
    /// changes and mid-epoch replans on the simulated path; gradient-
    /// exchange retries on the real one (injected-failure recoveries, plus
    /// every attempt of a bucket whose budget ran out and was sent again).
    pub recoveries: u32,
    /// Mean training loss across the epoch's steps (`NaN`: not measured).
    pub mean_loss: f64,
    /// Training accuracy measured after the epoch on rank 0's replica
    /// (`NaN`: not measured).
    pub accuracy: f64,
    /// Bytes moved on the wire by the epoch's collectives, summed over
    /// ranks (payload only for the in-process backend; payload plus frame
    /// headers over TCP).
    pub comm_bytes: u64,
    /// Communication time hidden behind backward compute, summed over
    /// ranks and steps, s (0 unless the real path's `overlap` layout is
    /// on: a single bucket is handed over only once backward is done).
    pub comm_overlap: f64,
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
            epoch_time: 9.0,
            mean_batch_time: 9.0,
            noise_scale: Some(1.0),
            efficiency: 1.0,
            effective_epochs: 1.0,
            cumulative_time: 9.0,
            overhead_seconds: 1.0,
            pattern: None,
            used_model: false,
            faults: 0,
            recoveries: 0,
            mean_loss: f64::NAN,
            accuracy: f64::NAN,
            comm_bytes: 0,
            comm_overlap: 0.0,
        };
        assert!((r.overhead_fraction() - 0.1).abs() < 1e-12);
    }
}
