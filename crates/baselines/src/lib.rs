//! # cannikin-baselines — the compared systems of the evaluation (§5.1)
//!
//! One table, [`System`], names every simulated system the figures and
//! the scenario matrix compare — Cannikin, the four baselines it is
//! measured against, and two Cannikin variants — and [`System::build`] is
//! the one place each is constructed. Every row drives the same
//! [`hetsim::Simulator`], produces the same
//! [`EpochRecord`]s and comes back as a
//! [`TrainingSubject`], so every harness runs any of them through the
//! same loop and compares like for like.
//!
//! Three baselines differ from Cannikin only in *what they plan*, so they
//! are not trainers of their own but a [`CannikinTrainer`] over the same
//! simulated executor and epoch loop, configured with the baseline's
//! policy:
//!
//! - [`System::Ddp`] — PyTorch DistributedDataParallel: Cannikin with the
//!   heterogeneity awareness taken out, an even local split
//!   ([`PolicyKind::Even`]) at a fixed total batch. A crash is a
//!   checkpoint-restart: the caller removes the node and charges the lost
//!   work through [`CannikinTrainer::restore_progress`].
//! - [`System::AdaptDl`] — AdaptDL/Pollux: goodput-adaptive *total* batch
//!   size, but the homogeneous assumption keeps local splits even
//!   ([`PolicyKind::Even`]) and cluster constants are fused by a naive
//!   mean — in a heterogeneous cluster its batch time equals DDP's for
//!   the same total.
//! - [`System::LbBsp`] — LB-BSP: fixed total batch, local splits tuned
//!   iteratively (step size Δ = 5, as in the paper's experiments) toward
//!   equal compute times ([`PolicyKind::LbBsp`]); no
//!   communication/computation-overlap model.
//!
//! One models different physics and keeps its own struct:
//!
//! - [`HetPipeTrainer`] — HetPipe: pipelined model parallelism with
//!   speed-proportional stage partitioning; excellent utilization but a
//!   pipeline-fill bubble and a fixed batch size.
//!
//! A new controller to compare is one more row here plus the subject it
//! builds.

mod hetpipe;

pub use hetpipe::HetPipeTrainer;

use cannikin_core::engine::{
    check_dataset_size, CannikinTrainer, EpochRecord, LinearNoiseGrowth, TrainerConfig, TrainingSubject,
};
use cannikin_core::perf::MeasurementAggregation;
use cannikin_core::policy::PolicyKind;
use cannikin_core::CannikinError;
use hetsim::Simulator;

/// Every simulated system the evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// This paper's system: adaptive batch, OptPerf split, elastic recovery.
    Cannikin,
    /// Cannikin with the total batch pinned at B₀ (adaptive split, static
    /// total).
    CannikinFixed,
    /// AdaptDL/Pollux: adaptive total batch, homogeneous even split.
    AdaptDl,
    /// PyTorch DistributedDataParallel: fixed total batch, even split.
    Ddp,
    /// LB-BSP: fixed total batch, split tuned iteratively (Δ = 5).
    LbBsp,
    /// HetPipe: pipelined model parallelism, fixed batch, analytic batch
    /// time.
    HetPipe,
    /// The Cannikin engine planning through the seeded bandit policy
    /// ([`cannikin_core::policy::RlBatchPolicy`]).
    Rl,
}

impl System {
    /// The five systems of the paper's figures, in figure order.
    pub const PAPER: [System; 5] = [System::Ddp, System::AdaptDl, System::LbBsp, System::HetPipe, System::Cannikin];

    /// Every row of the table.
    pub const ALL: [System; 7] = [
        System::Cannikin,
        System::CannikinFixed,
        System::AdaptDl,
        System::Ddp,
        System::LbBsp,
        System::HetPipe,
        System::Rl,
    ];

    /// Display name used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            System::Cannikin => "Cannikin",
            System::CannikinFixed => "Cannikin-fixed",
            System::AdaptDl => "AdaptDL",
            System::Ddp => "PyTorch-DDP",
            System::LbBsp => "LB-BSP",
            System::HetPipe => "HetPipe",
            System::Rl => "Cannikin-RL",
        }
    }

    /// Build this system on `sim`. A fixed-batch system trains at
    /// `base_batch`; an adaptive one moves over `[base_batch, max_batch]`.
    /// Statistical efficiency is referenced to `base_batch` throughout.
    ///
    /// # Errors
    ///
    /// [`CannikinError::InvalidConfig`] when `base_batch` cannot give every
    /// node one sample, the dataset cannot hold one base batch, or — on
    /// the rows that read `max_batch`, all but DDP, LB-BSP and HetPipe —
    /// `max_batch` is below it.
    pub fn build(
        self,
        sim: Simulator,
        noise: LinearNoiseGrowth,
        dataset_size: usize,
        base_batch: u64,
        max_batch: u64,
    ) -> Result<Box<dyn TrainingSubject>, CannikinError> {
        let nodes = sim.cluster().len();
        if base_batch < nodes as u64 {
            return Err(CannikinError::InvalidConfig(format!("base batch {base_batch} cannot cover {nodes} nodes")));
        }
        check_dataset_size(dataset_size, base_batch)?;
        let policy = match self {
            System::HetPipe => {
                return Ok(Box::new(HetPipeTrainer::new(sim, noise, dataset_size, base_batch, base_batch)))
            }
            System::Cannikin | System::CannikinFixed => PolicyKind::OptPerf,
            System::AdaptDl | System::Ddp => PolicyKind::Even,
            System::LbBsp => PolicyKind::LbBsp,
            System::Rl => PolicyKind::Rl,
        };
        // DDP's and LB-BSP's range is the one batch they train at.
        let max_batch = if matches!(self, System::Ddp | System::LbBsp) { base_batch } else { max_batch };
        let mut config = TrainerConfig::new(dataset_size, base_batch, max_batch);
        config.adaptive_batch = !matches!(self, System::CannikinFixed | System::Ddp | System::LbBsp);
        if self == System::AdaptDl {
            config.aggregation = MeasurementAggregation::NaiveMean;
        }
        let builder = CannikinTrainer::builder().simulator(sim).noise(noise);
        Ok(Box::new(builder.config(config).policy(policy).build()?))
    }
}

/// Convergence summary shared by all trainers: the wall-clock time at
/// which a run first crossed `target` effective epochs, if it did.
pub fn time_to_target(records: &[EpochRecord], target: f64) -> Option<f64> {
    records.iter().find(|r| r.effective_epochs >= target).map(|r| r.cumulative_time)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(effective: f64, time: f64) -> EpochRecord {
        EpochRecord {
            epoch: 0,
            total_batch: 64,
            local_batches: vec![64],
            steps: 1,
            epoch_time: time,
            mean_batch_time: time,
            noise_scale: Some(1.0),
            efficiency: 1.0,
            effective_epochs: effective,
            cumulative_time: time,
            overhead_seconds: 0.0,
            pattern: None,
            used_model: false,
            faults: 0,
            recoveries: 0,
            mean_loss: f64::NAN,
            accuracy: f64::NAN,
            comm_bytes: 0,
            comm_overlap: 0.0,
        }
    }

    #[test]
    fn time_to_target_finds_first_crossing() {
        let records = vec![rec(0.5, 10.0), rec(1.2, 20.0), rec(2.0, 30.0)];
        assert_eq!(time_to_target(&records, 1.0), Some(20.0));
        assert_eq!(time_to_target(&records, 5.0), None);
    }

    use cannikin_core::engine::LinearNoiseGrowth;
    use cannikin_telemetry::{Event, Session};
    use hetsim::catalog::Gpu;
    use hetsim::cluster::{ClusterSpec, NodeSpec};
    use hetsim::job::JobSpec;
    use hetsim::FaultPlan;

    fn sim(job: JobSpec, seed: u64) -> Simulator {
        let cluster = ClusterSpec::new(
            "t",
            vec![
                NodeSpec::new("a100", Gpu::A100),
                NodeSpec::new("v100", Gpu::V100),
                NodeSpec::new("rtx", Gpu::Rtx6000),
            ],
        );
        Simulator::new(cluster, job, seed)
    }

    fn subject(system: System) -> Box<dyn TrainingSubject> {
        subject_on(system, 6_400)
    }

    fn subject_on(system: System, dataset_size: usize) -> Box<dyn TrainingSubject> {
        let noise = LinearNoiseGrowth { initial: 300.0, rate: 1.0 };
        system.build(sim(JobSpec::resnet18_cifar10(), 8), noise, dataset_size, 64, 512).expect("valid config")
    }

    #[test]
    fn every_system_runs_the_one_loop() {
        for system in System::ALL {
            // `run_epochs(n)` is n single steps, record for record.
            let batched = subject(system).run_epochs(4).expect("run");
            let mut stepped = subject(system);
            let single: Vec<EpochRecord> = (0..4).map(|_| stepped.next_epoch().expect("epoch")).collect();
            assert_eq!(batched.len(), 4, "{}", system.label());
            for (a, b) in batched.iter().zip(&single) {
                let (mut a, mut b) = (a.clone(), b.clone());
                // Measured host time is the one field two runs may differ in.
                a.overhead_seconds = 0.0;
                b.overhead_seconds = 0.0;
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{}", system.label());
            }
            // `train_until` stops at the target, or at the cap first.
            let mut run = subject(system);
            let records = run.train_until(1.5, 60).expect("run");
            assert!(run.progress() >= 1.5, "{} stopped short", system.label());
            let crossed = records.iter().position(|r| r.effective_epochs >= 1.5);
            assert_eq!(crossed, Some(records.len() - 1), "{} ran past the target", system.label());
            let capped = subject(system).train_until(1e9, 3).expect("run");
            assert_eq!(capped.len(), 3, "{} ignored the cap", system.label());
        }
    }

    #[test]
    fn build_rejects_a_batch_below_the_node_count() {
        for system in System::ALL {
            let noise = LinearNoiseGrowth { initial: 300.0, rate: 1.0 };
            let built = system.build(sim(JobSpec::resnet18_cifar10(), 8), noise, 6_400, 2, 512);
            assert!(matches!(built, Err(CannikinError::InvalidConfig(_))), "{}", system.label());
        }
    }

    /// A dataset smaller than one base batch would credit its first epoch
    /// infinite progress, and `train_until` would stop as if the target
    /// were reached.
    #[test]
    fn build_rejects_a_dataset_below_one_base_batch() {
        for dataset_size in [0, 63] {
            for system in System::ALL {
                let noise = LinearNoiseGrowth { initial: 300.0, rate: 1.0 };
                let built = system.build(sim(JobSpec::resnet18_cifar10(), 8), noise, dataset_size, 64, 512);
                let err = built.err().unwrap_or_else(|| panic!("{} built on {dataset_size} samples", system.label()));
                assert!(err.to_string().contains("cannot hold one base batch"), "{}: {err}", system.label());
            }
            let err = CannikinTrainer::builder()
                .simulator(sim(JobSpec::resnet18_cifar10(), 8))
                .dataset_size(dataset_size)
                .batch_range(64, 512)
                .build()
                .expect_err("the builder accepted a dataset below one base batch");
            assert!(matches!(err, CannikinError::InvalidConfig(_)), "{err}");
        }
        let mut exact = subject_on(System::Cannikin, 64);
        let first = exact.next_epoch().expect("one batch fills the dataset");
        assert!(first.effective_epochs.is_finite(), "{}", first.effective_epochs);
    }

    #[test]
    fn adaptdl_splits_stay_even_while_batch_adapts() {
        for system in [System::AdaptDl, System::Ddp] {
            let noise = LinearNoiseGrowth { initial: 500.0, rate: 2.0 };
            let mut t = system.build(sim(JobSpec::resnet18_cifar10(), 4), noise, 50_000, 64, 4096).expect("valid config");
            let records = t.run_epochs(8).expect("run");
            for r in &records {
                let max = *r.local_batches.iter().max().unwrap();
                let min = *r.local_batches.iter().min().unwrap();
                assert!(max - min <= 1, "{}: even split violated: {:?}", system.label(), r.local_batches);
            }
            if system == System::Ddp {
                // DDP's batch is pinned at B0, whatever the range, so every
                // epoch runs at unit statistical efficiency.
                for r in &records {
                    assert_eq!(r.total_batch, 64);
                    assert!((r.efficiency - 1.0).abs() < 1e-12, "B = B0 gives unit efficiency");
                }
            } else {
                // AdaptDL's batch size must eventually move off B0.
                assert!(records.iter().any(|r| r.total_batch != 64));
            }
        }
    }

    /// DDP steps through the same fault-aware loop as every other row, so
    /// a straggler it trains through is counted on its records and in the
    /// trace alike.
    #[test]
    fn ddp_reports_the_faults_it_trains_through() {
        let noise = LinearNoiseGrowth { initial: 300.0, rate: 1.0 };
        let sim = sim(JobSpec::resnet18_cifar10(), 8).with_fault_plan(FaultPlan::new(8).burst_at(100, 2, u64::MAX, 2.5));
        let mut ddp = System::Ddp.build(sim, noise, 6_400, 64, 512).expect("valid config");
        let session = Session::start();
        let records = ddp.run_epochs(3).expect("run");
        let injected = session.drain().iter().filter(|r| matches!(r.event, Event::FaultInjected(_))).count();
        let faults: u32 = records.iter().map(|r| r.faults).sum();
        assert!(faults > 0, "the straggler after step 100 must register");
        assert_eq!(faults as usize, injected, "records and trace disagree");
    }

    #[test]
    fn adaptdl_beats_ddp_on_convergence() {
        let run = |system: System| {
            let noise = LinearNoiseGrowth { initial: 800.0, rate: 3.0 };
            let mut t =
                system.build(sim(JobSpec::resnet18_cifar10(), 4), noise, 50_000, 64, 4096).expect("valid config");
            t.train_until(5.0, 300).expect("run").last().unwrap().cumulative_time
        };
        let (ta, td) = (run(System::AdaptDl), run(System::Ddp));
        assert!(ta < td, "AdaptDL {ta} should converge faster than DDP {td}");
    }

    fn lbbsp_trainer() -> Box<dyn TrainingSubject> {
        let noise = LinearNoiseGrowth { initial: 300.0, rate: 1.0 };
        System::LbBsp.build(sim(JobSpec::resnet50_imagenet(), 5), noise, 12_800, 128, 128).expect("valid config")
    }

    #[test]
    fn lbbsp_rebalances_gradually() {
        let records = lbbsp_trainer().run_epochs(15).expect("run");
        assert_eq!(records[0].local_batches, vec![43, 43, 42]); // even start
        // Sum preserved every epoch; each node moves ≤ Δ per round.
        for pair in records.windows(2) {
            assert_eq!(pair[1].local_batches.iter().sum::<u64>(), 128);
            for (a, b) in pair[0].local_batches.iter().zip(&pair[1].local_batches) {
                assert!(a.abs_diff(*b) <= 6, "{:?} -> {:?}", pair[0].local_batches, pair[1].local_batches);
            }
        }
        // Eventually the A100 carries far more than the RTX.
        let last = records.last().unwrap();
        assert!(last.local_batches[0] > last.local_batches[2] + 20, "{:?}", last.local_batches);
        // And the batch time improves substantially over the even split.
        assert!(
            last.mean_batch_time < records[0].mean_batch_time * 0.90,
            "last {} vs first {}",
            last.mean_batch_time,
            records[0].mean_batch_time
        );
    }

    #[test]
    fn lbbsp_takes_many_epochs_to_converge() {
        // The Fig. 9 shape: LB-BSP from an even start needs > 5 epochs to
        // get within 3% of its best batch time.
        let records = lbbsp_trainer().run_epochs(25).expect("run");
        let best = records.iter().map(|r| r.mean_batch_time).fold(f64::MAX, f64::min);
        let converged_at = records.iter().position(|r| r.mean_batch_time < best * 1.03).unwrap();
        assert!(converged_at >= 3, "LB-BSP converged suspiciously fast: epoch {converged_at}");
    }
}
