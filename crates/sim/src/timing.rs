//! Ground-truth timing coefficients.
//!
//! The paper's compute-time model (§3.2.1) is
//!
//! ```text
//! t_compute^i = a_i + P_i,   a_i = q_i·b_i + s_i,   P_i = k_i·b_i + m_i
//! ```
//!
//! The simulator *generates* timings from exactly this family, with
//! coefficients derived from GPU capability and job shape. Cannikin never
//! sees these coefficients — it must learn them from noisy per-batch
//! observations, and §5.3 of the paper measures how well the learned model
//! predicts the optimum that these ground-truth coefficients define.

use crate::cluster::{ClusterSpec, NodeSpec};
use crate::job::JobSpec;

/// The four linear compute-time coefficients of one node for one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeCoeffs {
    /// Per-sample coefficient of `a_i` (data loading + forward), s/sample.
    pub q: f64,
    /// Fixed part of `a_i` (parameter update + host overhead), s.
    pub s: f64,
    /// Per-sample coefficient of `P_i` (backward), s/sample.
    pub k: f64,
    /// Fixed part of `P_i`, s.
    pub m: f64,
}

impl ComputeCoeffs {
    /// `a_i(b) = q·b + s`.
    pub fn a(&self, b: f64) -> f64 {
        self.q * b + self.s
    }

    /// `P_i(b) = k·b + m`.
    pub fn p(&self, b: f64) -> f64 {
        self.k * b + self.m
    }

    /// Total compute time `t_compute(b) = a(b) + P(b)`.
    pub fn compute(&self, b: f64) -> f64 {
        self.a(b) + self.p(b)
    }

    /// `syncStart(b) = a(b) + γ·P(b)` — Eq. (4).
    pub fn sync_start(&self, b: f64, gamma: f64) -> f64 {
        self.a(b) + gamma * self.p(b)
    }
}

/// Derive a node's ground-truth coefficients for a job.
pub fn node_coefficients(node: &NodeSpec, job: &JobSpec) -> ComputeCoeffs {
    let flops = node.effective_flops() * job.utilization;
    // Forward slope (GPU) plus the CPU-side per-sample data-loading cost.
    // The two scale with *different* hardware axes (Tables 3–4 pair each
    // GPU with a different CPU), which is what makes equal-compute splits
    // and OptPerf splits genuinely different assignments.
    let q = job.fwd_flops_per_sample / flops + job.load_seconds_per_sample / node.cpu_factor;
    // Parameter update touches every weight a handful of times; host
    // overhead is CPU-bound.
    let s = job.params as f64 * 6.0 / flops + job.host_overhead / node.cpu_factor;
    // Backward slope.
    let k = job.fwd_flops_per_sample * job.bwd_to_fwd_ratio / flops;
    // Fixed backward cost: one kernel launch per bucket plus a small
    // parameter-proportional term.
    let m = job.num_buckets as f64 * 0.15e-3 + job.params as f64 * 1.0 / flops;
    ComputeCoeffs { q, s, k, m }
}

/// Ground-truth communication constants of the cluster for a job:
/// `(T_comm, T_o, T_u)` where `T_u = T_comm / num_buckets` is the
/// last-bucket time (buckets are evenly sized, §3.2.3) and
/// `T_o = T_comm − T_u`.
pub fn comm_times(cluster: &ClusterSpec, job: &JobSpec) -> (f64, f64, f64) {
    let t_comm = cluster.network.ring_all_reduce_time(job.gradient_bytes(), cluster.len());
    let t_u = t_comm / job.num_buckets as f64;
    (t_comm, t_comm - t_u, t_u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Gpu;
    use crate::cluster::NodeSpec;

    #[test]
    fn faster_gpu_has_smaller_slopes() {
        let job = JobSpec::resnet50_imagenet();
        let fast = node_coefficients(&NodeSpec::new("a", Gpu::A100), &job);
        let slow = node_coefficients(&NodeSpec::new("r", Gpu::Rtx6000), &job);
        assert!(fast.q < slow.q);
        assert!(fast.k < slow.k);
        // The GPU speed ratio carries through to the backward slope.
        assert!((slow.k / fast.k - 3.42).abs() < 0.05);
    }

    #[test]
    fn coefficients_are_positive_and_linear() {
        let job = JobSpec::bert_squad();
        let c = node_coefficients(&NodeSpec::new("v", Gpu::V100), &job);
        assert!(c.q > 0.0 && c.s > 0.0 && c.k > 0.0 && c.m > 0.0);
        // Linearity: compute(2b) - compute(b) == compute(3b) - compute(2b).
        let d1 = c.compute(20.0) - c.compute(10.0);
        let d2 = c.compute(30.0) - c.compute(20.0);
        assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn backward_costs_twice_forward_slope() {
        // Subtract the CPU-side loading component from q to recover the
        // pure GPU forward slope, which backward doubles.
        let job = JobSpec::resnet18_cifar10();
        let c = node_coefficients(&NodeSpec::new("v", Gpu::V100), &job);
        let fwd = c.q - job.load_seconds_per_sample;
        assert!((c.k / fwd - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sync_start_between_a_and_compute() {
        let job = JobSpec::resnet50_imagenet();
        let c = node_coefficients(&NodeSpec::new("v", Gpu::V100), &job);
        let b = 32.0;
        let ss = c.sync_start(b, job.gamma);
        assert!(ss > c.a(b) && ss < c.compute(b));
    }

    #[test]
    fn comm_split_sums_to_total() {
        let cluster = crate::cluster::ClusterSpec::new(
            "t",
            vec![NodeSpec::new("a", Gpu::A100), NodeSpec::new("b", Gpu::V100), NodeSpec::new("c", Gpu::Rtx6000)],
        );
        let job = JobSpec::resnet50_imagenet();
        let (t_comm, t_o, t_u) = comm_times(&cluster, &job);
        assert!(t_comm > 0.0);
        assert!((t_o + t_u - t_comm).abs() < 1e-15);
        assert!((t_u * job.num_buckets as f64 - t_comm).abs() < 1e-12);
    }

    #[test]
    fn bigger_model_longer_comm() {
        let cluster = crate::cluster::ClusterSpec::new(
            "t",
            vec![NodeSpec::new("a", Gpu::A100), NodeSpec::new("b", Gpu::V100)],
        );
        let (small, _, _) = comm_times(&cluster, &JobSpec::neumf_movielens());
        let (big, _, _) = comm_times(&cluster, &JobSpec::bert_squad());
        assert!(big > small * 10.0);
    }

    #[test]
    fn contention_slows_node() {
        // GPU contention doubles the GPU-bound slope k; q also grows but
        // keeps its CPU-side loading term.
        let job = JobSpec::resnet18_cifar10();
        let full = node_coefficients(&NodeSpec::new("x", Gpu::Rtx6000), &job);
        let half = node_coefficients(&NodeSpec::new("x", Gpu::Rtx6000).with_contention(0.5), &job);
        assert!((half.k / full.k - 2.0).abs() < 1e-9);
        assert!(half.q > full.q);
    }

    #[test]
    fn slow_cpu_slows_loading_not_backward() {
        let job = JobSpec::resnet50_imagenet();
        let fast = node_coefficients(&NodeSpec::new("x", Gpu::V100).with_cpu_factor(1.0), &job);
        let slow = node_coefficients(&NodeSpec::new("x", Gpu::V100).with_cpu_factor(0.5), &job);
        assert_eq!(slow.k, fast.k, "backward is GPU-only");
        assert!(slow.q > fast.q, "loading slows with the CPU");
        assert!(slow.s > fast.s, "host overhead slows with the CPU");
    }
}
