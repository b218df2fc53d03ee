//! Cluster specifications.

use crate::catalog::Gpu;

/// One data-parallel worker (a single GPU — the paper treats every GPU of
/// a multi-GPU server as its own node).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Human-readable name ("a100-0", "rtx-3", …).
    pub name: String,
    /// GPU model installed on this node.
    pub gpu: Gpu,
    /// Fraction of the GPU available to the training job. `1.0` means a
    /// dedicated GPU; values below one model sharing-induced heterogeneity
    /// (§6, cluster C: a dummy co-located workload steals compute).
    pub available_fraction: f64,
    /// Relative host-CPU speed (1.0 = reference). Data loading and
    /// host-side overheads scale with the CPU, not the GPU — Tables 3–4
    /// pair every GPU model with a different Xeon, which is why
    /// equal-compute-time splits (LB-BSP) and OptPerf splits differ.
    pub cpu_factor: f64,
    /// Relative standard deviation of this node's *measurement* noise when
    /// it reports γ and communication-time observations. Heterogeneous
    /// observation quality is what makes inverse-variance weighting (§5.3)
    /// worthwhile.
    pub measurement_sigma: f64,
    /// Relative *systematic* over-estimation of this node's γ and
    /// communication-time observations (a busy straggler cannot separate
    /// queueing delay from transfer time, so its timers read high). Naive
    /// averaging absorbs this bias in full; inverse-variance weighting
    /// suppresses it because biased observers are also the noisy ones.
    pub measurement_bias: f64,
}

impl NodeSpec {
    /// A dedicated node with default measurement noise (2%) and no
    /// systematic measurement bias.
    pub fn new(name: impl Into<String>, gpu: Gpu) -> Self {
        NodeSpec {
            name: name.into(),
            gpu,
            available_fraction: 1.0,
            cpu_factor: 1.0,
            measurement_sigma: 0.02,
            measurement_bias: 0.0,
        }
    }

    /// Set the relative host-CPU speed (builder style).
    ///
    /// # Panics
    ///
    /// Panics unless `factor > 0`.
    #[must_use]
    pub fn with_cpu_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "cpu factor must be positive");
        self.cpu_factor = factor;
        self
    }

    /// Set the available compute fraction (builder style).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction <= 1`.
    #[must_use]
    pub fn with_contention(mut self, fraction: f64) -> Self {
        assert!(fraction > 0.0 && fraction <= 1.0, "available fraction must be in (0, 1]");
        self.available_fraction = fraction;
        self
    }

    /// Set this node's measurement noise (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    #[must_use]
    pub fn with_measurement_sigma(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "measurement sigma must be non-negative");
        self.measurement_sigma = sigma;
        self
    }

    /// Set this node's systematic measurement over-estimation (builder
    /// style): observations read `(1 + bias)` times their true value.
    ///
    /// # Panics
    ///
    /// Panics if `bias < 0`.
    #[must_use]
    pub fn with_measurement_bias(mut self, bias: f64) -> Self {
        assert!(bias >= 0.0, "measurement bias must be non-negative");
        self.measurement_bias = bias;
        self
    }

    /// Effective FP16 FLOPS after contention.
    pub fn effective_flops(&self) -> f64 {
        self.gpu.flops() * self.available_fraction
    }

    /// Usable GPU memory in bytes after contention (memory is shared
    /// proportionally in the cluster-C experiment).
    pub fn effective_memory_bytes(&self) -> f64 {
        f64::from(self.gpu.spec().memory_gb) * self.available_fraction * 1024.0 * 1024.0 * 1024.0
    }
}

/// The interconnect between nodes.
///
/// The paper models gradient synchronization time as a learnable constant
/// per job (§3.2.2); the simulator derives that constant from a ring
/// all-reduce over the slowest link, which is how NCCL's ring behaves in a
/// heterogeneous network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkSpec {
    /// Bandwidth of the slowest link in the ring, bytes/second.
    pub bottleneck_bandwidth: f64,
    /// Per-all-reduce-step latency in seconds (ring hops).
    pub link_latency: f64,
}

impl NetworkSpec {
    /// 10 GbE with 25 µs hops — the Chameleon-like default.
    pub fn ten_gbe() -> Self {
        NetworkSpec { bottleneck_bandwidth: 10.0e9 / 8.0, link_latency: 25e-6 }
    }

    /// 25 GbE with 15 µs hops.
    pub fn twenty_five_gbe() -> Self {
        NetworkSpec { bottleneck_bandwidth: 25.0e9 / 8.0, link_latency: 15e-6 }
    }

    /// Time for one ring all-reduce of `bytes` over `n` nodes:
    /// `2(n−1)/n · bytes / bw + 2(n−1) · latency`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn ring_all_reduce_time(&self, bytes: f64, n: usize) -> f64 {
        assert!(n > 0, "ring needs at least one node");
        if n == 1 {
            return 0.0;
        }
        let steps = 2.0 * (n as f64 - 1.0);
        steps / n as f64 * bytes / self.bottleneck_bandwidth + steps * self.link_latency
    }
}

/// A heterogeneous GPU cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Cluster name ("A", "B", "C", …).
    pub name: String,
    /// The data-parallel workers.
    pub nodes: Vec<NodeSpec>,
    /// Interconnect model.
    pub network: NetworkSpec,
}

impl ClusterSpec {
    /// Create a cluster on the default 10 GbE network.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn new(name: impl Into<String>, nodes: Vec<NodeSpec>) -> Self {
        assert!(!nodes.is_empty(), "cluster needs at least one node");
        ClusterSpec { name: name.into(), nodes, network: NetworkSpec::ten_gbe() }
    }

    /// Replace the network model (builder style).
    #[must_use]
    pub fn with_network(mut self, network: NetworkSpec) -> Self {
        self.network = network;
        self
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no nodes (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ratio of fastest to slowest effective node speed — the paper's
    /// "degree of heterogeneity" (§6).
    pub fn heterogeneity_degree(&self) -> f64 {
        let speeds: Vec<f64> = self.nodes.iter().map(NodeSpec::effective_flops).collect();
        let max = speeds.iter().copied().fold(f64::MIN, f64::max);
        let min = speeds.iter().copied().fold(f64::MAX, f64::min);
        max / min
    }

    /// Whether all nodes are effectively identical.
    pub fn is_homogeneous(&self) -> bool {
        (self.heterogeneity_degree() - 1.0).abs() < 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_time_scales_with_bytes_and_latency() {
        let net = NetworkSpec::ten_gbe();
        let t_small = net.ring_all_reduce_time(1e6, 4);
        let t_big = net.ring_all_reduce_time(1e8, 4);
        assert!(t_big > t_small * 50.0);
        assert_eq!(net.ring_all_reduce_time(1e9, 1), 0.0);
    }

    #[test]
    fn ring_time_approaches_2x_bandwidth_bound() {
        // For large n, time → 2·bytes/bw (plus latency).
        let net = NetworkSpec { bottleneck_bandwidth: 1e9, link_latency: 0.0 };
        let t = net.ring_all_reduce_time(1e9, 1000);
        assert!((t - 2.0).abs() < 0.01, "t = {t}");
    }

    #[test]
    fn contention_reduces_effective_speed() {
        let full = NodeSpec::new("x", Gpu::Rtx6000);
        let half = NodeSpec::new("y", Gpu::Rtx6000).with_contention(0.5);
        assert!((full.effective_flops() / half.effective_flops() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn heterogeneity_degree_of_mixed_cluster() {
        let c = ClusterSpec::new(
            "t",
            vec![NodeSpec::new("a", Gpu::A100), NodeSpec::new("r", Gpu::Rtx6000)],
        );
        assert!((c.heterogeneity_degree() - 3.42).abs() < 0.02);
        assert!(!c.is_homogeneous());
    }

    #[test]
    fn homogeneous_detection() {
        let c = ClusterSpec::new(
            "t",
            vec![NodeSpec::new("a", Gpu::V100), NodeSpec::new("b", Gpu::V100)],
        );
        assert!(c.is_homogeneous());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_cluster_rejected() {
        let _ = ClusterSpec::new("empty", vec![]);
    }
}
