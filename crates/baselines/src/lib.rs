//! # cannikin-baselines — the comparison systems of the evaluation (§5.1)
//!
//! The four baselines Cannikin is measured against, all driving the same
//! [`hetsim::Simulator`] and producing the same
//! [`cannikin_core::engine::EpochRecord`]s so that every figure harness
//! can compare like for like.
//!
//! Two of them differ from Cannikin only in *what they plan*, so they are
//! not trainers of their own but `(executor, policy)` pairs — a
//! [`CannikinTrainer`] over the same simulated executor and epoch loop,
//! configured with the baseline's policy:
//!
//! - [`adaptdl`] — AdaptDL/Pollux: goodput-adaptive *total* batch size,
//!   but the homogeneous assumption keeps local splits even
//!   ([`PolicyKind::Even`]) and cluster constants are fused by a naive
//!   mean — in a heterogeneous cluster its batch time equals DDP's for
//!   the same total.
//! - [`lbbsp`] — LB-BSP: fixed total batch, local splits tuned
//!   iteratively (step size Δ = 5, as in the paper's experiments) toward
//!   equal compute times ([`PolicyKind::LbBsp`]); no
//!   communication/computation-overlap model.
//!
//! The other two model different physics and keep their own structs:
//!
//! - [`DdpTrainer`] — PyTorch DistributedDataParallel: fixed total batch,
//!   even local split, checkpoint-restart on a crash.
//! - [`HetPipeTrainer`] — HetPipe: pipelined model parallelism with
//!   speed-proportional stage partitioning; excellent utilization but a
//!   pipeline-fill bubble and a fixed batch size.
//!
//! All four implement
//! [`TrainingSubject`](cannikin_core::engine::TrainingSubject), so the
//! scenario-matrix harness can drive any of them — and Cannikin itself —
//! through one uniform epoch loop.

mod ddp;
mod hetpipe;

pub use ddp::DdpTrainer;
pub use hetpipe::HetPipeTrainer;

use cannikin_core::engine::{CannikinTrainer, EpochRecord, NoiseModel, TrainerConfig};
use cannikin_core::perf::MeasurementAggregation;
use cannikin_core::policy::PolicyKind;
use cannikin_core::CannikinError;
use hetsim::Simulator;

/// The state-of-the-art *homogeneous* adaptive system (§5.1): AdaptDL
/// adapts the total batch over `[base_batch, max_batch]` by maximizing
/// goodput — exactly like Cannikin — but assumes a homogeneous cluster,
/// so every rank receives `B/n` samples.
///
/// # Errors
///
/// [`CannikinError::InvalidConfig`] when `base_batch` cannot give every
/// node one sample or exceeds `max_batch`.
pub fn adaptdl(
    sim: Simulator,
    noise: Box<dyn NoiseModel>,
    dataset_size: usize,
    base_batch: u64,
    max_batch: u64,
) -> Result<CannikinTrainer, CannikinError> {
    let mut config = TrainerConfig::new(dataset_size, base_batch, max_batch);
    config.aggregation = MeasurementAggregation::NaiveMean;
    CannikinTrainer::builder().simulator(sim).noise_boxed(noise).config(config).policy(PolicyKind::Even).build()
}

/// LB-BSP at fixed `total_batch`: local batch sizes are rebalanced toward
/// equal *compute* times, each node moving at most Δ = 5 samples per
/// epoch. The structural gaps versus Cannikin (slow convergence from an
/// even start, overlap-blind balance target) are documented on
/// [`LbBspIterative`](cannikin_core::policy::LbBspIterative).
///
/// # Errors
///
/// [`CannikinError::InvalidConfig`] when `total_batch` cannot give every
/// node one sample.
pub fn lbbsp(
    sim: Simulator,
    noise: Box<dyn NoiseModel>,
    dataset_size: usize,
    total_batch: u64,
) -> Result<CannikinTrainer, CannikinError> {
    let mut config = TrainerConfig::new(dataset_size, total_batch, total_batch);
    config.adaptive_batch = false;
    CannikinTrainer::builder().simulator(sim).noise_boxed(noise).config(config).policy(PolicyKind::LbBsp).build()
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
            accumulation: 1,
            epoch_time: time,
            mean_batch_time: time,
            noise_scale: 1.0,
            efficiency: 1.0,
            effective_epochs: effective,
            cumulative_time: time,
            overhead_seconds: 0.0,
            pattern: None,
            used_model: false,
            faults: 0,
            recoveries: 0,
        }
    }

    #[test]
    fn time_to_target_finds_first_crossing() {
        let records = vec![rec(0.5, 10.0), rec(1.2, 20.0), rec(2.0, 30.0)];
        assert_eq!(time_to_target(&records, 1.0), Some(20.0));
        assert_eq!(time_to_target(&records, 5.0), None);
    }

    use cannikin_core::engine::LinearNoiseGrowth;
    use hetsim::catalog::Gpu;
    use hetsim::cluster::{ClusterSpec, NodeSpec};
    use hetsim::job::JobSpec;

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

    #[test]
    fn adaptdl_splits_stay_even_while_batch_adapts() {
        let noise = Box::new(LinearNoiseGrowth { initial: 500.0, rate: 2.0 });
        let mut t = adaptdl(sim(JobSpec::resnet18_cifar10(), 4), noise, 50_000, 64, 4096).expect("valid config");
        let records = t.run_epochs(8).expect("run");
        for r in &records {
            let max = *r.local_batches.iter().max().unwrap();
            let min = *r.local_batches.iter().min().unwrap();
            assert!(max - min <= 1, "even split violated: {:?}", r.local_batches);
        }
        // Batch size must eventually move off B0.
        assert!(records.iter().any(|r| r.total_batch != 64));
    }

    #[test]
    fn adaptdl_beats_ddp_on_convergence() {
        let noise = || Box::new(LinearNoiseGrowth { initial: 800.0, rate: 3.0 });
        let job = JobSpec::resnet18_cifar10;
        let mut adaptive = adaptdl(sim(job(), 4), noise(), 50_000, 64, 4096).expect("valid config");
        let mut ddp = DdpTrainer::new(sim(job(), 4), noise(), 50_000, 64, 64);
        let a = adaptive.train_until(5.0, 300).expect("run");
        let d = ddp.train_until(5.0, 300);
        let ta = a.last().unwrap().cumulative_time;
        let td = d.last().unwrap().cumulative_time;
        assert!(ta < td, "AdaptDL {ta} should converge faster than DDP {td}");
    }

    fn lbbsp_trainer() -> CannikinTrainer {
        let noise = Box::new(LinearNoiseGrowth { initial: 300.0, rate: 1.0 });
        lbbsp(sim(JobSpec::resnet50_imagenet(), 5), noise, 12_800, 128).expect("valid config")
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
