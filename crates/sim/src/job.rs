//! Deep-learning job characteristics.
//!
//! A [`JobSpec`] carries the *compute* shape of each Table 5 workload:
//! parameter count (which fixes the gradient payload of every all-reduce),
//! forward FLOPs per sample (which fixes the slope of the linear
//! compute-time model on each GPU), the DDP bucket count and the overlap
//! ratio γ. The convergence-side metadata (batch ranges, gradient noise
//! trajectories, target metrics) lives in `cannikin-workloads`.

/// Compute characteristics of one training job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job name ("ResNet-50/ImageNet", …).
    pub name: String,
    /// Trainable parameter count (Table 5 "Size" column).
    pub params: u64,
    /// Forward-pass FLOPs per training sample.
    pub fwd_flops_per_sample: f64,
    /// Backward-pass FLOPs as a multiple of forward (≈2 for dense nets).
    pub bwd_to_fwd_ratio: f64,
    /// Fraction of peak FP16 throughput the job actually achieves.
    pub utilization: f64,
    /// Number of DDP gradient buckets.
    pub num_buckets: usize,
    /// Overlap ratio γ: fraction of backpropagation that must complete
    /// before the first gradient bucket is ready (§3.2.3).
    pub gamma: f64,
    /// Bytes of activation memory per sample (drives the per-GPU memory
    /// cap on the local batch size).
    pub activation_bytes_per_sample: f64,
    /// Fixed per-batch host-side overhead in seconds (data-loader wakeup,
    /// kernel launches) — part of `s_i`, scaled by the node's CPU speed.
    pub host_overhead: f64,
    /// CPU-side data-loading time per sample at the reference CPU speed, s
    /// — part of `q_i`, scaled by the node's CPU speed.
    pub load_seconds_per_sample: f64,
    /// Bytes per parameter moved by gradient synchronization (4 for fp32
    /// all-reduce; 2 when the canonical recipe uses mixed-precision
    /// gradient communication, as BERT fine-tuning does).
    pub grad_bytes_per_param: f64,
    /// Activation bytes per sample crossing a model-parallel stage
    /// boundary (used by the HetPipe baseline).
    pub boundary_bytes_per_sample: f64,
}

impl JobSpec {
    /// Gradient payload of one all-reduce, in bytes.
    pub fn gradient_bytes(&self) -> f64 {
        self.params as f64 * self.grad_bytes_per_param
    }

    /// Approximate resident model footprint in bytes: weights + gradients
    /// + optimizer state (≈4 copies at fp32).
    pub fn model_memory_bytes(&self) -> f64 {
        self.params as f64 * 16.0
    }

    /// Largest local batch that fits on a node with the given usable
    /// memory (bytes). At least 1 — a node that cannot fit a single sample
    /// would be excluded by the scheduler before training starts.
    pub fn max_local_batch(&self, usable_memory_bytes: f64) -> u64 {
        let left = (usable_memory_bytes - self.model_memory_bytes()).max(0.0);
        ((left / self.activation_bytes_per_sample).floor() as u64).max(1)
    }

    /// ResNet-50 on ImageNet (25.6M params, ~4.1 GFLOPs/sample forward).
    pub fn resnet50_imagenet() -> Self {
        JobSpec {
            name: "ResNet-50/ImageNet".into(),
            params: 25_600_000,
            fwd_flops_per_sample: 4.1e9,
            bwd_to_fwd_ratio: 2.0,
            utilization: 0.15,
            num_buckets: 10,
            gamma: 0.12,
            activation_bytes_per_sample: 60e6,
            host_overhead: 4e-3,
            load_seconds_per_sample: 0.30e-3,
            grad_bytes_per_param: 4.0,
            boundary_bytes_per_sample: 0.6e6,
        }
    }

    /// ResNet-18 on CIFAR-10 (11M params, small 32×32 inputs).
    pub fn resnet18_cifar10() -> Self {
        JobSpec {
            name: "ResNet-18/CIFAR-10".into(),
            params: 11_000_000,
            fwd_flops_per_sample: 0.25e9,
            bwd_to_fwd_ratio: 2.0,
            utilization: 0.035,
            num_buckets: 6,
            gamma: 0.15,
            activation_bytes_per_sample: 9e6,
            host_overhead: 2e-3,
            load_seconds_per_sample: 0.03e-3,
            grad_bytes_per_param: 4.0,
            boundary_bytes_per_sample: 0.02e6,
        }
    }

    /// DeepSpeech2 on LibriSpeech (52M params, long spectrogram inputs).
    pub fn deepspeech2_librispeech() -> Self {
        JobSpec {
            name: "DeepSpeech2/LibriSpeech".into(),
            params: 52_000_000,
            fwd_flops_per_sample: 25e9,
            bwd_to_fwd_ratio: 2.0,
            utilization: 0.10,
            num_buckets: 14,
            gamma: 0.10,
            activation_bytes_per_sample: 250e6,
            host_overhead: 6e-3,
            load_seconds_per_sample: 2.0e-3,
            grad_bytes_per_param: 4.0,
            boundary_bytes_per_sample: 0.3e6,
        }
    }

    /// BERT-base fine-tuning on SQuAD (110M params, 384-token sequences).
    pub fn bert_squad() -> Self {
        JobSpec {
            name: "BERT/SQuAD".into(),
            params: 110_000_000,
            fwd_flops_per_sample: 80e9,
            bwd_to_fwd_ratio: 2.0,
            utilization: 0.42,
            num_buckets: 24,
            gamma: 0.08,
            activation_bytes_per_sample: 800e6,
            host_overhead: 5e-3,
            load_seconds_per_sample: 0.10e-3,
            grad_bytes_per_param: 2.0,
            boundary_bytes_per_sample: 0.6e6,
        }
    }

    /// NeuMF on MovieLens (5.2M params, trivial per-sample compute).
    pub fn neumf_movielens() -> Self {
        JobSpec {
            name: "NeuMF/MovieLens".into(),
            params: 5_200_000,
            fwd_flops_per_sample: 0.011e9,
            bwd_to_fwd_ratio: 2.0,
            utilization: 0.10,
            num_buckets: 4,
            gamma: 0.20,
            activation_bytes_per_sample: 0.5e6,
            host_overhead: 1.5e-3,
            load_seconds_per_sample: 0.002e-3,
            grad_bytes_per_param: 4.0,
            boundary_bytes_per_sample: 0.001e6,
        }
    }

    /// All five Table 5 jobs, in table order.
    pub fn table5() -> Vec<JobSpec> {
        vec![
            Self::resnet50_imagenet(),
            Self::resnet18_cifar10(),
            Self::deepspeech2_librispeech(),
            Self::bert_squad(),
            Self::neumf_movielens(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_sizes_match_paper() {
        let jobs = JobSpec::table5();
        let sizes: Vec<u64> = jobs.iter().map(|j| j.params).collect();
        assert_eq!(sizes, vec![25_600_000, 11_000_000, 52_000_000, 110_000_000, 5_200_000]);
    }

    #[test]
    fn gradient_bytes_follow_precision() {
        // BERT's canonical recipe communicates fp16 gradients (2 B/param);
        // the fp32 jobs move 4 B/param.
        assert_eq!(JobSpec::bert_squad().gradient_bytes(), 220e6);
        assert_eq!(JobSpec::resnet50_imagenet().gradient_bytes(), 102.4e6);
    }

    #[test]
    fn memory_cap_monotone_in_memory() {
        let j = JobSpec::resnet50_imagenet();
        let small = j.max_local_batch(8.0 * 1024f64.powi(3));
        let large = j.max_local_batch(80.0 * 1024f64.powi(3));
        assert!(large > small);
        assert!(small >= 1);
    }

    #[test]
    fn memory_cap_floors_at_one() {
        let j = JobSpec::bert_squad();
        assert_eq!(j.max_local_batch(0.0), 1);
    }

    #[test]
    fn gamma_in_unit_interval() {
        for j in JobSpec::table5() {
            assert!(j.gamma > 0.0 && j.gamma < 1.0, "{}", j.name);
            assert!(j.num_buckets >= 2, "{}", j.name);
        }
    }
}
