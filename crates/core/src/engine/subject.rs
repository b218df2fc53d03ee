//! The one run loop over every epoch-oriented trainer.
//!
//! The figures and the scenario matrix (`cannikin-bench`) drive Cannikin
//! and every baseline through the same loop — construct, step epochs,
//! read statistical progress — without caring which system is behind the
//! handle. [`TrainingSubject`] is that loop: one fallible `next_epoch`
//! plus a `progress` accessor, with "run `n` epochs" and "run to the
//! target" provided here once instead of re-implemented per system.
//!
//! `cannikin-core` implements it for [`CannikinTrainer`] (which is also
//! what the DDP, AdaptDL and LB-BSP baselines are: a policy row over the
//! same loop) and, in `parallel.rs`, for the real-gradient
//! [`ParallelTrainer`](super::ParallelTrainer); `cannikin-baselines`
//! implements it only for the HetPipe trainer, whose pipeline physics
//! differ, and builds every compared simulated system from one `System`
//! row.

use super::{CannikinTrainer, EpochRecord};
use crate::error::CannikinError;

/// An epoch-oriented training system drivable by a generic harness.
pub trait TrainingSubject {
    /// Advance one epoch and return its record.
    ///
    /// # Errors
    ///
    /// Implementations with a fallible epoch (a fault plan that wedges the
    /// run) propagate that error — every policy row over
    /// [`CannikinTrainer`], DDP's included; the HetPipe baseline is
    /// infallible and always returns `Ok`.
    fn next_epoch(&mut self) -> Result<EpochRecord, CannikinError>;

    /// Cumulative statistically-effective epochs of progress so far.
    fn progress(&self) -> f64;

    /// Run `n` epochs.
    ///
    /// # Errors
    ///
    /// Stops at the first failed [`TrainingSubject::next_epoch`].
    fn run_epochs(&mut self, n: usize) -> Result<Vec<EpochRecord>, CannikinError> {
        (0..n).map(|_| self.next_epoch()).collect()
    }

    /// Run until `target` effective epochs of statistical progress have
    /// accumulated (the convergence experiments) or `max_epochs` have run,
    /// whichever comes first.
    ///
    /// # Errors
    ///
    /// Stops at the first failed [`TrainingSubject::next_epoch`].
    fn train_until(&mut self, target: f64, max_epochs: usize) -> Result<Vec<EpochRecord>, CannikinError> {
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
    use crate::engine::{LinearNoiseGrowth, ParallelTrainer, TrainerConfig};
    use crate::gns::epoch_progress;
    use crate::policy::PolicyKind;
    use hetsim::catalog::Gpu;
    use hetsim::cluster::{ClusterSpec, NodeSpec};
    use hetsim::Simulator;
    use minidnn::data::gaussian_blobs;
    use minidnn::models::mlp_classifier;

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
    fn train_until_stops_at_target_or_cap() {
        let mut trainer = subject();
        let records = trainer.train_until(2.0, 40).expect("run");
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

    /// A real trainer whose split never reads a clock: an even split of a
    /// fixed batch, so two runs agree bit for bit on everything but time.
    fn real_subject() -> ParallelTrainer {
        ParallelTrainer::builder()
            .dataset(gaussian_blobs(256, 4, 10, 3))
            .model(|seed| mlp_classifier(10, 16, 4, seed))
            .slowdowns(vec![1.0, 2.0])
            .batch_range(32, 32)
            .adaptive(false)
            .policy(PolicyKind::Even)
            .seed(9)
            .build()
            .expect("valid config")
    }

    #[test]
    fn the_real_trainer_runs_the_one_loop() {
        // `run_epochs(n)` is n single epochs, record for record.
        let batched = real_subject().run_epochs(3).expect("run");
        let mut stepped = real_subject();
        let single: Vec<EpochRecord> = (0..3).map(|_| stepped.run_epoch().expect("epoch")).collect();
        assert_eq!(batched.len(), 3);
        for (a, b) in batched.iter().zip(&single) {
            assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits(), "epoch {}", a.epoch);
            assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits(), "epoch {}", a.epoch);
            assert_eq!((a.comm_bytes, &a.local_batches), (b.comm_bytes, &b.local_batches), "epoch {}", a.epoch);
            assert!(a.comm_bytes > 0 && a.mean_loss.is_finite(), "the real path measures what it reports");
        }

        // Progress is the records' Σ steps·B·η/|D|, and the clock their
        // measured times.
        let last = single.last().expect("three epochs");
        let (mut gained, mut clock) = (0.0, 0.0);
        for r in &single {
            gained += epoch_progress(r.steps, r.total_batch, r.efficiency, 256);
            clock += r.epoch_time;
        }
        assert_eq!(stepped.progress().to_bits(), last.effective_epochs.to_bits());
        assert_eq!(last.effective_epochs.to_bits(), gained.to_bits());
        assert_eq!(last.cumulative_time.to_bits(), clock.to_bits());

        // `train_until` stops at the crossing, or at the cap first.
        let mut run = real_subject();
        let records = run.train_until(1.5, 20).expect("run");
        assert!(run.progress() >= 1.5, "stopped short at {}", run.progress());
        let crossed = records.iter().position(|r| r.effective_epochs >= 1.5);
        assert_eq!(crossed, Some(records.len() - 1), "ran past the target");
        let capped = real_subject().train_until(1e9, 2).expect("run");
        assert_eq!(capped.len(), 2, "ignored the cap");
    }
}
