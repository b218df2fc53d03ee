//! Uniform drive adapter over every epoch-oriented trainer.
//!
//! The scenario-matrix harness (`cannikin-bench`) needs to drive Cannikin
//! and every baseline through the same loop — construct, step epochs,
//! read statistical progress — without caring which system is behind the
//! handle. [`TrainingSubject`] is that adapter: one fallible `next_epoch`
//! plus a `progress` accessor, with the run-to-target loop provided once
//! instead of re-implemented per system.
//!
//! `cannikin-core` implements it for [`CannikinTrainer`] (which is also
//! what the AdaptDL and LB-BSP baselines are); `cannikin-baselines`
//! implements it for the DDP and HetPipe trainers.

use super::{CannikinTrainer, EpochRecord};
use crate::error::CannikinError;

/// An epoch-oriented training system drivable by a generic harness.
pub trait TrainingSubject {
    /// Advance one epoch and return its record.
    ///
    /// # Errors
    ///
    /// Implementations with a fallible epoch (a metric exchange that
    /// fails, a fault plan that wedges the run) propagate that error; the
    /// DDP and HetPipe baselines are infallible and always return `Ok`.
    fn next_epoch(&mut self) -> Result<EpochRecord, CannikinError>;

    /// Cumulative statistically-effective epochs of progress so far.
    fn progress(&self) -> f64;

    /// Drive until `target` effective epochs are reached or `max_epochs`
    /// have run, whichever comes first.
    ///
    /// # Errors
    ///
    /// Propagates the first [`TrainingSubject::next_epoch`] failure.
    fn drive_until(&mut self, target: f64, max_epochs: usize) -> Result<Vec<EpochRecord>, CannikinError> {
        let mut records = Vec::new();
        while self.progress() < target && records.len() < max_epochs {
            records.push(self.next_epoch()?);
        }
        Ok(records)
    }
}

impl TrainingSubject for CannikinTrainer {
    fn next_epoch(&mut self) -> Result<EpochRecord, CannikinError> {
        self.run_epoch()
    }

    fn progress(&self) -> f64 {
        self.effective_epochs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{LinearNoiseGrowth, TrainerConfig};
    use hetsim::catalog::Gpu;
    use hetsim::cluster::{ClusterSpec, NodeSpec};
    use hetsim::Simulator;

    fn subject() -> CannikinTrainer {
        let cluster = ClusterSpec::new(
            "subject",
            vec![NodeSpec::new("a100", Gpu::A100), NodeSpec::new("v100", Gpu::V100)],
        );
        let sim = Simulator::new(cluster, hetsim::job::JobSpec::resnet18_cifar10(), 11);
        CannikinTrainer::builder()
            .simulator(sim)
            .noise(LinearNoiseGrowth { initial: 64.0, rate: 0.5 })
            .config(TrainerConfig::new(1_600, 32, 256))
            .build()
            .expect("valid config")
    }

    #[test]
    fn drive_until_stops_at_target_or_cap() {
        let mut trainer = subject();
        let records = trainer.drive_until(2.0, 40).expect("run");
        assert!(!records.is_empty());
        assert!(records.len() <= 40);
        let trait_progress = TrainingSubject::progress(&trainer);
        assert!((trait_progress - trainer.effective_epochs()).abs() < 1e-12);
        if records.len() < 40 {
            assert!(trait_progress >= 2.0, "stopped early only at the target");
        }
    }

    #[test]
    fn next_epoch_matches_run_epoch_records() {
        let mut via_trait = subject();
        let mut direct = subject();
        let a = via_trait.next_epoch().expect("epoch");
        let b = direct.run_epoch().expect("epoch");
        assert_eq!(a.total_batch, b.total_batch);
        assert_eq!(a.local_batches, b.local_batches);
        assert_eq!(a.epoch_time.to_bits(), b.epoch_time.to_bits());
    }
}
