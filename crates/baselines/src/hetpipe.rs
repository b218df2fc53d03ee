//! HetPipe baseline (pipelined model parallelism).

use cannikin_core::engine::{EpochRecord, LinearNoiseGrowth, TrainingSubject};
use cannikin_core::error::CannikinError;
use cannikin_core::gns::{epoch_progress, statistical_efficiency};
use hetsim::timing::node_coefficients;
use hetsim::Simulator;

/// Pipelined model parallelism over heterogeneous nodes (§5.1).
///
/// HetPipe partitions the model across nodes proportionally to their
/// speed, so — unlike data parallelism — no node waits for a straggler:
/// with an ideal partition every pipeline stage takes the same time. The
/// costs that remain, and that the evaluation exposes, are
///
/// - the **pipeline bubble**: with `m` microbatches and `n` stages a batch
///   takes `(m + n − 1)/m` stage-times instead of `m`;
/// - **activation transfers** between stages each microbatch;
/// - a **fixed batch size**: adaptive batch sizing over a pipeline would
///   invalidate the partition (§2.2), so HetPipe forgoes the statistical
///   speedup entirely.
///
/// The stage-time model is derived from the same ground-truth physics as
/// the data-parallel simulator: the cluster's aggregate per-sample compute
/// capacity bounds an ideally partitioned pipeline.
pub struct HetPipeTrainer {
    sim: Simulator,
    noise: LinearNoiseGrowth,
    dataset_size: usize,
    total_batch: u64,
    base_batch: u64,
    microbatches: u64,
    epoch: usize,
    effective_epochs: f64,
    cumulative_time: f64,
}

impl HetPipeTrainer {
    /// Create a HetPipe run at fixed `total_batch`; the microbatch count
    /// is chosen to minimize the pipelined batch time (fill/drain bubble
    /// vs per-microbatch overhead).
    ///
    /// # Panics
    ///
    /// Panics if `total_batch == 0`.
    pub fn new(sim: Simulator, noise: LinearNoiseGrowth, dataset_size: usize, total_batch: u64, base_batch: u64) -> Self {
        assert!(total_batch > 0, "total batch must be positive");
        let mut trainer = HetPipeTrainer {
            sim,
            noise,
            dataset_size,
            total_batch,
            base_batch,
            microbatches: 1,
            epoch: 0,
            effective_epochs: 0.0,
            cumulative_time: 0.0,
        };
        trainer.microbatches = trainer.best_microbatch_count();
        trainer
    }

    /// The microbatch count that minimizes the pipelined batch time,
    /// searched over powers of two up to `8n` (HetPipe tunes this per
    /// deployment).
    fn best_microbatch_count(&self) -> u64 {
        let n = self.sim.cluster().len() as u64;
        let mut best = (1u64, f64::INFINITY);
        let mut m = 1u64;
        while m <= (8 * n).max(1) {
            let t = self.batch_time_with(m.min(self.total_batch));
            if t < best.1 {
                best = (m.min(self.total_batch), t);
            }
            m *= 2;
        }
        best.0
    }

    /// Predicted time of one pipelined batch at the chosen microbatch
    /// count.
    pub fn batch_time(&self) -> f64 {
        self.batch_time_with(self.microbatches)
    }

    fn batch_time_with(&self, microbatches: u64) -> f64 {
        let n = self.sim.cluster().len();
        let job = self.sim.job();
        // Ideal speed-proportional partition: per-sample stage time equals
        // the whole model's per-sample compute divided across the summed
        // capacity. Use each node's ground-truth slopes as the capacity
        // proxy (1 / (q + k) is samples/sec through a full replica).
        let caps: f64 = self
            .sim
            .cluster()
            .nodes
            .iter()
            .map(|node| {
                let c = node_coefficients(node, job);
                1.0 / (c.q + c.k)
            })
            .sum();
        let per_sample_stage = 1.0 / caps;
        let micro = (self.total_batch as f64 / microbatches as f64).max(1.0);
        // Discrete layers cannot be split exactly proportionally across
        // many heterogeneous stages; the slowest stage runs ~25% over the
        // ideal share.
        let imbalance = 1.25;
        let stage_time = per_sample_stage * micro * imbalance + 0.2e-3; // + per-microbatch launch
        let bubbles = (microbatches + n as u64 - 1) as f64;
        // Activation transfer between stages per microbatch.
        let act_bytes = job.boundary_bytes_per_sample * micro;
        let net = self.sim.cluster().network;
        let hop = act_bytes / net.bottleneck_bandwidth + net.link_latency;
        let pipeline = bubbles * (stage_time + hop);
        // HetPipe is pipeline parallelism *plus* data parallelism across
        // virtual workers, synchronized through a parameter server (wave
        // synchronous parallel). The PS push/pull of the full gradient
        // overlaps with roughly half of the pipeline's compute; only the
        // remainder extends the batch.
        let ps_total = job.gradient_bytes() / net.bottleneck_bandwidth;
        let ps_sync = (ps_total - 0.5 * pipeline).max(0.0);
        pipeline + ps_sync
    }
}

impl TrainingSubject for HetPipeTrainer {
    fn next_epoch(&mut self) -> Result<EpochRecord, CannikinError> {
        let phi = self.noise.noise_scale(self.effective_epochs);
        let steps = (self.dataset_size / self.total_batch as usize).max(1);
        let batch_time = self.batch_time();
        let epoch_time = batch_time * steps as f64;
        let efficiency = statistical_efficiency(phi, self.base_batch, self.total_batch);
        self.effective_epochs += epoch_progress(steps, self.total_batch, efficiency, self.dataset_size);
        self.cumulative_time += epoch_time;
        let record = EpochRecord {
            epoch: self.epoch,
            total_batch: self.total_batch,
            local_batches: vec![self.total_batch], // one pipeline, one logical replica
            steps,
            epoch_time,
            mean_batch_time: batch_time,
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

impl std::fmt::Debug for HetPipeTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HetPipeTrainer(B={}, {} microbatches)", self.total_batch, self.microbatches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cannikin_core::engine::LinearNoiseGrowth;
    use cannikin_core::optperf::even_split;
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
        Simulator::new(cluster, JobSpec::resnet50_imagenet(), 6)
    }

    #[test]
    fn beats_even_data_parallel_at_large_compute_bound_batches() {
        // HetPipe's pitch: in a heterogeneous cluster, pipelining with
        // proportional partitioning beats straggler-bound even-split data
        // parallelism — once batches are large enough that its fill/drain
        // bubble and parameter-server sync amortize. CIFAR's small
        // stage-boundary activations make it the pipeline-friendly case
        // (ImageNet activations over 10 GbE favor data parallelism).
        let cluster = ClusterSpec::new(
            "t",
            vec![
                NodeSpec::new("a100", Gpu::A100),
                NodeSpec::new("v100", Gpu::V100),
                NodeSpec::new("rtx", Gpu::Rtx6000),
            ],
        );
        let s = Simulator::new(cluster, JobSpec::resnet18_cifar10(), 6);
        let noise = LinearNoiseGrowth { initial: 300.0, rate: 1.0 };
        let t = HetPipeTrainer::new(s, noise, 76_800, 768, 768);
        let dp_sim = sim();
        let dp_sim = {
            let cluster = dp_sim.cluster().clone();
            Simulator::new(cluster, JobSpec::resnet18_cifar10(), 6).with_noise(0.0, 0.0)
        };
        let even = dp_sim.ideal_batch_time(&even_split(768, 3));
        assert!(t.batch_time() < even, "hetpipe {} vs even DP {even}", t.batch_time());
    }

    #[test]
    fn fixed_batch_never_changes() {
        let noise = LinearNoiseGrowth { initial: 300.0, rate: 1.0 };
        let mut t = HetPipeTrainer::new(sim(), noise, 12_800, 128, 128);
        let records = t.run_epochs(5).unwrap();
        assert!(records.iter().all(|r| r.total_batch == 128));
    }
}
