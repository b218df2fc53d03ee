//! The five Table 5 workload profiles.

use crate::convergence::SaturatingCurve;
use cannikin_core::engine::LinearNoiseGrowth;
use hetsim::job::JobSpec;

/// The convergence target of a workload (Table 5 "Target" column).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetMetric {
    /// Metric name ("Top-1 accuracy", "WER", …).
    pub name: &'static str,
    /// Target value (fractions for percentages: 0.75 = 75%).
    pub value: f64,
    /// Whether larger is better (false for WER).
    pub higher_is_better: bool,
}

/// One evaluation workload: the Table 5 row plus the simulator-facing
/// calibration (noise trajectory, metric curve, batch range).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Task family ("Image Classification", …).
    pub task: &'static str,
    /// Dataset name.
    pub dataset: &'static str,
    /// Model name.
    pub model: &'static str,
    /// Compute shape consumed by the simulator.
    pub job: JobSpec,
    /// Samples per dataset epoch.
    pub dataset_size: usize,
    /// Initial/reference batch size B₀ (Table 5).
    pub base_batch: u64,
    /// Upper end of the adaptive batch range (memory-bounded, §5.1).
    pub max_batch: u64,
    /// Optimizer (Table 5).
    pub optimizer: &'static str,
    /// Learning-rate scaler (Table 5).
    pub lr_scaler: &'static str,
    /// Convergence target (Table 5).
    pub target: TargetMetric,
    /// Gradient-noise trajectory φ(effective epochs).
    pub noise: LinearNoiseGrowth,
    /// Metric-vs-progress curve calibrated to published epochs-to-target.
    pub curve: SaturatingCurve,
}

impl WorkloadProfile {
    /// Short display name ("ResNet-50/ImageNet").
    pub fn name(&self) -> String {
        format!("{}/{}", self.model, self.dataset)
    }

    /// Metric value after the given statistical progress.
    pub fn metric_at(&self, effective_epochs: f64) -> f64 {
        self.curve.value_at(effective_epochs)
    }

    /// Effective epochs needed to hit the Table 5 target.
    ///
    /// # Panics
    ///
    /// Panics if the calibrated curve cannot reach the target (a profile
    /// construction bug, covered by tests).
    pub fn target_effective_epochs(&self) -> f64 {
        self.curve.progress_to(self.target.value).expect("profile target must be reachable")
    }

    /// Whether a metric value meets the target.
    pub fn meets_target(&self, metric: f64) -> bool {
        if self.target.higher_is_better {
            metric >= self.target.value
        } else {
            metric <= self.target.value
        }
    }
}

/// ResNet-50 on ImageNet: SGD + AdaScale, B₀ = 100, target 75% top-1.
pub fn imagenet_resnet50() -> WorkloadProfile {
    WorkloadProfile {
        task: "Image Classification",
        dataset: "ImageNet",
        model: "ResNet-50",
        job: JobSpec::resnet50_imagenet(),
        dataset_size: 1_281_167,
        base_batch: 100,
        max_batch: 8_000,
        optimizer: "SGD",
        lr_scaler: "AdaScale",
        target: TargetMetric { name: "Top-1 accuracy", value: 0.75, higher_is_better: true },
        noise: LinearNoiseGrowth { initial: 1_500.0, rate: 0.08 },
        // 75% reached at ~60 effective epochs (90-epoch schedules hit 76%).
        curve: SaturatingCurve { start: 0.10, limit: 0.78, rate: 0.052 },
    }
}

/// ResNet-18 on CIFAR-10: SGD + AdaScale, B₀ = 64, target 94% top-1.
pub fn cifar10_resnet18() -> WorkloadProfile {
    WorkloadProfile {
        task: "Image Classification",
        dataset: "CIFAR-10",
        model: "ResNet-18",
        job: JobSpec::resnet18_cifar10(),
        dataset_size: 50_000,
        base_batch: 64,
        max_batch: 4_096,
        optimizer: "SGD",
        lr_scaler: "AdaScale",
        target: TargetMetric { name: "Top-1 accuracy", value: 0.94, higher_is_better: true },
        noise: LinearNoiseGrowth { initial: 400.0, rate: 0.10 },
        // 94% at ~70 effective epochs.
        curve: SaturatingCurve { start: 0.30, limit: 0.955, rate: 0.054 },
    }
}

/// DeepSpeech2 on LibriSpeech: SGD + AdaScale, B₀ = 12, target WER 40%.
pub fn librispeech_deepspeech2() -> WorkloadProfile {
    WorkloadProfile {
        task: "Speech Recognition",
        dataset: "LibriSpeech",
        model: "DeepSpeech2",
        job: JobSpec::deepspeech2_librispeech(),
        dataset_size: 281_241,
        base_batch: 12,
        max_batch: 448,
        optimizer: "SGD",
        lr_scaler: "AdaScale",
        target: TargetMetric { name: "WER", value: 0.40, higher_is_better: false },
        noise: LinearNoiseGrowth { initial: 150.0, rate: 0.15 },
        // WER 40% at ~25 effective epochs.
        curve: SaturatingCurve { start: 1.0, limit: 0.25, rate: 0.064 },
    }
}

/// BERT fine-tuning on SQuAD: AdamW + square-root scaling, B₀ = 9, target F1 88.
pub fn squad_bert() -> WorkloadProfile {
    WorkloadProfile {
        task: "Question Answering",
        dataset: "SQuAD",
        model: "BERT",
        job: JobSpec::bert_squad(),
        dataset_size: 88_524,
        base_batch: 9,
        max_batch: 256,
        optimizer: "AdamW",
        lr_scaler: "Square-Root",
        target: TargetMetric { name: "F1", value: 0.88, higher_is_better: true },
        // Fine-tuning GNS for BERT-class models sits in the low hundreds
        // and grows quickly (McCandlish et al., App. A).
        noise: LinearNoiseGrowth { initial: 180.0, rate: 1.5 },
        // F1 88 at ~2.5 effective epochs (typical 2–3 epoch fine-tune).
        curve: SaturatingCurve { start: 0.20, limit: 0.905, rate: 1.33 },
    }
}

/// NeuMF on MovieLens: Adam + square-root scaling, B₀ = 64 (per the
/// paper's footnote the initial batch is small relative to the range),
/// target hit rate 69%.
pub fn movielens_neumf() -> WorkloadProfile {
    WorkloadProfile {
        task: "Recommendation",
        dataset: "MovieLens",
        model: "NeuMF",
        job: JobSpec::neumf_movielens(),
        dataset_size: 994_169,
        base_batch: 64,
        max_batch: 32_768,
        optimizer: "Adam",
        lr_scaler: "Square-Root",
        target: TargetMetric { name: "Hit rate", value: 0.69, higher_is_better: true },
        noise: LinearNoiseGrowth { initial: 500.0, rate: 0.20 },
        // 69% hit rate at ~15 effective epochs.
        curve: SaturatingCurve { start: 0.30, limit: 0.72, rate: 0.176 },
    }
}

/// All five Table 5 workloads, in table order.
pub fn all() -> Vec<WorkloadProfile> {
    vec![
        imagenet_resnet50(),
        cifar10_resnet18(),
        librispeech_deepspeech2(),
        squad_bert(),
        movielens_neumf(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_rows_match_paper() {
        let profiles = all();
        assert_eq!(profiles.len(), 5);
        let b0: Vec<u64> = profiles.iter().map(|p| p.base_batch).collect();
        assert_eq!(b0, vec![100, 64, 12, 9, 64]);
        let optimizers: Vec<&str> = profiles.iter().map(|p| p.optimizer).collect();
        assert_eq!(optimizers, vec!["SGD", "SGD", "SGD", "AdamW", "Adam"]);
        let sizes: Vec<u64> = profiles.iter().map(|p| p.job.params).collect();
        assert_eq!(sizes, vec![25_600_000, 11_000_000, 52_000_000, 110_000_000, 5_200_000]);
    }

    #[test]
    fn every_target_is_reachable() {
        for p in all() {
            let t = p.target_effective_epochs();
            assert!(t > 0.0 && t.is_finite(), "{}: {t}", p.name());
            // And the curve actually crosses it.
            let before = p.metric_at(t * 0.5);
            let after = p.metric_at(t * 1.01);
            assert!(!p.meets_target(before), "{} met target too early", p.name());
            assert!(p.meets_target(after), "{} missed target after crossing", p.name());
        }
    }

    #[test]
    fn calibrated_epochs_to_target() {
        // Sanity-pin the calibration: these drive every convergence figure.
        assert!((imagenet_resnet50().target_effective_epochs() - 60.0).abs() < 2.0);
        assert!((cifar10_resnet18().target_effective_epochs() - 70.0).abs() < 2.0);
        assert!((librispeech_deepspeech2().target_effective_epochs() - 25.0).abs() < 1.5);
        assert!((squad_bert().target_effective_epochs() - 2.5).abs() < 0.3);
        assert!((movielens_neumf().target_effective_epochs() - 15.0).abs() < 1.0);
    }

    #[test]
    fn wer_is_lower_better() {
        let p = librispeech_deepspeech2();
        assert!(!p.target.higher_is_better);
        assert!(p.meets_target(0.35));
        assert!(!p.meets_target(0.45));
    }

    #[test]
    fn max_batch_within_cluster_b_memory() {
        use crate::clusters::cluster_b;
        let cluster = cluster_b();
        for p in all() {
            let cap: u64 = cluster.nodes.iter().map(|n| p.job.max_local_batch(n.effective_memory_bytes())).sum();
            assert!(p.max_batch <= cap, "{}: range top {} exceeds memory cap {cap}", p.name(), p.max_batch);
        }
    }
}

#[cfg(test)]
mod calibration_tests {
    use super::*;
    use hetsim::catalog::Gpu;
    use hetsim::cluster::NodeSpec;
    use hetsim::timing::node_coefficients;

    /// Per-GPU throughputs implied by the timing model must sit in the
    /// ballpark of published numbers for these model/GPU pairs — the
    /// calibration that makes the compute/communication balance (and with
    /// it every figure's shape) meaningful.
    #[test]
    fn single_gpu_throughputs_are_plausible() {
        let cases: [(&str, WorkloadProfile, Gpu, f64, f64, f64); 5] = [
            // (label, profile, gpu, cpu_factor, min samples/s, max samples/s)
            ("resnet50/V100", imagenet_resnet50(), Gpu::V100, 1.0, 150.0, 700.0),
            ("resnet18-cifar/V100", cifar10_resnet18(), Gpu::V100, 1.0, 800.0, 5_000.0),
            ("deepspeech2/V100", librispeech_deepspeech2(), Gpu::V100, 1.0, 8.0, 80.0),
            ("bert/A100", squad_bert(), Gpu::A100, 1.0, 40.0, 250.0),
            ("neumf/V100", movielens_neumf(), Gpu::V100, 1.0, 20_000.0, 300_000.0),
        ];
        for (label, profile, gpu, cpu, lo, hi) in cases {
            let node = NodeSpec::new("n", gpu).with_cpu_factor(cpu);
            let c = node_coefficients(&node, &profile.job);
            // Steady-state throughput at a healthy batch: slope-dominated.
            let b = 64.0;
            let per_sample = c.compute(b) / b;
            let throughput = 1.0 / per_sample;
            assert!(
                throughput > lo && throughput < hi,
                "{label}: {throughput:.0} samples/s outside [{lo}, {hi}]"
            );
        }
    }

    /// The communication/computation balance on cluster B: gradients per
    /// step must take the same order of magnitude as computing a
    /// medium-sized batch — the regime in which the paper's overlap
    /// modelling matters at all.
    #[test]
    fn comm_compute_balance_is_in_the_contested_regime() {
        use crate::clusters::cluster_b;
        use hetsim::timing::comm_times;
        let cluster = cluster_b();
        for p in all() {
            let (t_comm, _, _) = comm_times(&cluster, &p.job);
            let slowest = cluster
                .nodes
                .iter()
                .map(|n| node_coefficients(n, &p.job).compute(32.0))
                .fold(0.0f64, f64::max);
            let ratio = t_comm / slowest;
            assert!(
                (0.01..=100.0).contains(&ratio),
                "{}: T_comm/compute(32) = {ratio:.3} is out of any contested regime",
                p.name()
            );
        }
    }
}
