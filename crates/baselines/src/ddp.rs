//! PyTorch DistributedDataParallel baseline.

use cannikin_core::engine::{EpochRecord, NoiseModel, TrainingSubject};
use cannikin_core::error::CannikinError;
use cannikin_core::gns::{epoch_progress, statistical_efficiency};
use cannikin_core::optperf::even_split;
use hetsim::Simulator;

/// Fixed-batch, even-split distributed training — the strongest
/// *non-adaptive homogeneous* baseline (§5.1).
///
/// DDP is unaware of heterogeneity (every rank gets `B/n` samples) and of
/// statistical efficiency (the total batch never changes), so in a
/// heterogeneous cluster every batch waits for the slowest node.
pub struct DdpTrainer {
    sim: Simulator,
    noise: Box<dyn NoiseModel>,
    dataset_size: usize,
    total_batch: u64,
    base_batch: u64,
    epoch: usize,
    effective_epochs: f64,
    cumulative_time: f64,
}

impl DdpTrainer {
    /// Create a DDP run with a fixed `total_batch`. `base_batch` is the
    /// statistical reference B₀ (usually equal to `total_batch`).
    ///
    /// # Panics
    ///
    /// Panics if `total_batch` cannot give every node one sample.
    pub fn new(sim: Simulator, noise: Box<dyn NoiseModel>, dataset_size: usize, total_batch: u64, base_batch: u64) -> Self {
        assert!(total_batch >= sim.cluster().len() as u64, "total batch must cover every node");
        DdpTrainer {
            sim,
            noise,
            dataset_size,
            total_batch,
            base_batch,
            epoch: 0,
            effective_epochs: 0.0,
            cumulative_time: 0.0,
        }
    }

    /// React to `node` crashing partway through an epoch.
    ///
    /// Static DDP cannot shrink a collective in flight: the process group
    /// aborts, the partial epoch is discarded, and the scheduler restarts
    /// the job on the survivors from the last epoch-boundary checkpoint.
    /// `lost_fraction` (clamped to `0..=1`) is how far into the doomed
    /// epoch the crash hit — that simulated time is charged with zero
    /// statistical progress — and `restart_overhead` covers detection,
    /// rescheduling, checkpoint reload and process-group re-init.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or it is the last node standing.
    pub fn handle_crash(&mut self, node: usize, lost_fraction: f64, restart_overhead: f64) {
        let n = self.sim.cluster().len();
        assert!(node < n, "node {node} out of range for {n}-node cluster");
        assert!(n > 1, "cannot survive losing the last node");
        let local = even_split(self.total_batch, n);
        let steps = (self.dataset_size / self.total_batch as usize).max(1);
        let lost = self.sim.ideal_batch_time(&local) * steps as f64 * lost_fraction.clamp(0.0, 1.0);
        self.cumulative_time += lost + restart_overhead.max(0.0);
        self.sim.remove_node(node);
    }
}

impl TrainingSubject for DdpTrainer {
    fn next_epoch(&mut self) -> Result<EpochRecord, CannikinError> {
        let n = self.sim.cluster().len();
        let phi = self.noise.noise_scale(self.effective_epochs);
        let local = even_split(self.total_batch, n);
        let steps = (self.dataset_size / self.total_batch as usize).max(1);
        let trace = self.sim.simulate_epoch(&local, steps);
        let efficiency = statistical_efficiency(phi, self.base_batch, self.total_batch);
        self.effective_epochs += epoch_progress(steps, self.total_batch, efficiency, self.dataset_size);
        self.cumulative_time += trace.epoch_time;
        let record = EpochRecord {
            epoch: self.epoch,
            total_batch: self.total_batch,
            local_batches: local,
            steps,
            accumulation: 1,
            epoch_time: trace.epoch_time,
            mean_batch_time: trace.mean_batch_time(),
            noise_scale: Some(phi),
            efficiency,
            effective_epochs: self.effective_epochs,
            cumulative_time: self.cumulative_time,
            overhead_seconds: 0.0,
            pattern: None,
            used_model: false,
            faults: 0,
            recoveries: 0,
            mean_loss: f64::NAN,
            accuracy: f64::NAN,
            comm_bytes: 0,
            comm_overlap: 0.0,
        };
        self.epoch += 1;
        Ok(record)
    }

    fn progress(&self) -> f64 {
        self.effective_epochs
    }
}

impl std::fmt::Debug for DdpTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DdpTrainer(B={}, epoch {})", self.total_batch, self.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cannikin_core::engine::LinearNoiseGrowth;
    use hetsim::catalog::Gpu;
    use hetsim::cluster::{ClusterSpec, NodeSpec};
    use hetsim::job::JobSpec;

    fn sim() -> Simulator {
        let cluster = ClusterSpec::new(
            "t",
            vec![
                NodeSpec::new("a100", Gpu::A100),
                NodeSpec::new("v100", Gpu::V100),
                NodeSpec::new("rtx", Gpu::Rtx6000),
            ],
        );
        Simulator::new(cluster, JobSpec::resnet50_imagenet(), 3)
    }

    #[test]
    fn split_is_always_even() {
        let noise = Box::new(LinearNoiseGrowth { initial: 100.0, rate: 0.5 });
        let mut t = DdpTrainer::new(sim(), noise, 10_000, 120, 120);
        for _ in 0..3 {
            let r = t.next_epoch().unwrap();
            assert_eq!(r.total_batch, 120);
            assert_eq!(r.local_batches, vec![40, 40, 40]);
            assert!((r.efficiency - 1.0).abs() < 1e-12, "B = B0 gives unit efficiency");
        }
    }

    #[test]
    fn crash_costs_wall_time_and_shrinks_the_split() {
        let noise = Box::new(LinearNoiseGrowth { initial: 100.0, rate: 0.5 });
        let mut t = DdpTrainer::new(sim(), noise, 10_000, 120, 120);
        let before = t.next_epoch().unwrap();
        t.handle_crash(1, 0.5, 30.0);
        let after = t.next_epoch().unwrap();
        assert_eq!(after.local_batches, vec![60, 60], "even split over the survivors");
        // The lost half-epoch plus the restart round trip showed up on
        // the clock without any effective-epoch progress.
        let clock = after.cumulative_time - before.cumulative_time;
        assert!(clock > after.epoch_time + 30.0 - 1e-9, "clock {clock} must include lost work + restart");
        assert!(after.effective_epochs > before.effective_epochs);
    }

}
