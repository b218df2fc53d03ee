//! The analyzer: batch traces in, solver inputs out.

use super::fuse::WeightedFuser;
use super::MeasurementAggregation;
use crate::error::CannikinError;
use crate::linalg::fit_line_weighted;
use crate::optperf::{NodePerf, SolverInput};

use cannikin_telemetry::{self as telemetry, Event, RegimeChange};
use hetsim::trace::BatchTrace;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Default)]
struct RunningPair {
    count: f64,
    mean_a: f64,
    mean_p: f64,
    /// Analyzer batch counter at the last observation of this size.
    last_seen: usize,
    /// Consecutive observations that deviated far from the running mean.
    outlier_streak: u32,
}

#[derive(Debug, Clone, Default)]
struct NodeHistory {
    /// Recency-weighted mean of (a, P) per observed local batch size.
    by_batch: BTreeMap<u64, RunningPair>,
    /// Most recent per-sample compute time (for the Eq. (8) bootstrap).
    last_per_sample: Option<f64>,
}

impl NodeHistory {
    fn observe(&mut self, node: usize, b: u64, a: f64, p: f64, now: usize) {
        // Change-point detection with outlier gating: a >30% deviation at
        // an already-warm batch size is either a transient straggler spike
        // (GC pause, preemption — exclude it from the mean entirely) or,
        // if it *persists* for several consecutive batches, a regime
        // change (a co-located workload appeared or left, §6) — then every
        // cached size is from the old regime, so drop the history and
        // relearn. This is the one place the workspace decides that a
        // node's law changed; the `regime_change` event reports it.
        let mut gated = false;
        let mut entry = self.by_batch.entry(b).or_default();
        if entry.count >= 8.0 {
            let da = (a - entry.mean_a).abs() / entry.mean_a.max(1e-12);
            let dp = (p - entry.mean_p).abs() / entry.mean_p.max(1e-12);
            if da > 0.30 || dp > 0.30 {
                entry.outlier_streak += 1;
                gated = true;
            } else {
                entry.outlier_streak = 0;
            }
            if entry.outlier_streak >= 5 {
                if telemetry::enabled() {
                    telemetry::emit(Event::RegimeChange(RegimeChange {
                        node: node as u32,
                        b_i: b,
                        expected: entry.mean_a + entry.mean_p,
                        observed: a + p,
                    }));
                }
                self.by_batch.clear();
                entry = self.by_batch.entry(b).or_default();
                gated = false; // the observation seeds the new regime
            }
        }
        entry.last_seen = now;
        if !gated {
            entry.count += 1.0;
            // Mean until warm, then EMA: keeps the entry tracking the
            // *current* node speed instead of its lifetime average.
            let alpha = (1.0 / entry.count).max(0.05);
            entry.mean_a += alpha * (a - entry.mean_a);
            entry.mean_p += alpha * (p - entry.mean_p);
        }
        if b > 0 {
            // Smoothed per-sample time: the Eq. (8) bootstrap divides by
            // this, so a single noisy batch must not swing the split.
            let instant = (a + p) / b as f64;
            self.last_per_sample = Some(match self.last_per_sample {
                Some(prev) => prev + 0.1 * (instant - prev),
                None => instant,
            });
        }
    }

    /// How many batches an observation stays influential. Sudden regime
    /// shifts are handled by change-point detection (see
    /// [`NodeHistory::observe`]); this is a long backstop that only
    /// retires sizes never revisited across many epochs.
    const STALENESS_WINDOW: usize = 50_000;

    /// Recency-weighted least squares: `(q, s)` over `a` and `(k, m)` over
    /// `P`. Entries not refreshed within [`Self::STALENESS_WINDOW`] batches
    /// decay away, so a contention change invalidates pre-change sizes
    /// instead of letting them anchor a wrong slope.
    fn fit(&self, now: usize) -> Option<(f64, f64, f64, f64)> {
        if self.by_batch.len() < 2 {
            return None;
        }
        let weight = |entry: &RunningPair| {
            let age = now.saturating_sub(entry.last_seen) as f64;
            (-age / Self::STALENESS_WINDOW as f64).exp()
        };
        let a_pts: Vec<(f64, f64, f64)> =
            self.by_batch.iter().map(|(&b, e)| (b as f64, e.mean_a, weight(e))).collect();
        let p_pts: Vec<(f64, f64, f64)> =
            self.by_batch.iter().map(|(&b, e)| (b as f64, e.mean_p, weight(e))).collect();
        let (q, s) = fit_line_weighted(&a_pts)?;
        let (k, m) = fit_line_weighted(&p_pts)?;
        // Noise can produce non-physical fits early on; report not-ready
        // rather than handing the solver a negative slope.
        if q <= 0.0 || k <= 0.0 {
            return None;
        }
        Some((q, s.max(0.0), k, m.max(0.0)))
    }
}

/// Learns per-node compute models and cluster communication constants
/// from [`BatchTrace`]s.
///
/// # Examples
///
/// ```
/// use cannikin_core::perf::{Analyzer, MeasurementAggregation};
/// use hetsim::catalog::Gpu;
/// use hetsim::cluster::{ClusterSpec, NodeSpec};
/// use hetsim::job::JobSpec;
/// use hetsim::Simulator;
///
/// let cluster = ClusterSpec::new(
///     "d",
///     vec![NodeSpec::new("a", Gpu::A100), NodeSpec::new("b", Gpu::V100)],
/// );
/// let mut sim = Simulator::new(cluster, JobSpec::resnet18_cifar10(), 7);
/// let mut analyzer = Analyzer::new(2, MeasurementAggregation::InverseVariance);
/// for local in [[32u64, 32], [48, 16]] {
///     for _ in 0..4 {
///         analyzer.observe_batch(&sim.simulate_batch(&local));
///     }
/// }
/// let input = analyzer.solver_input().expect("two batch sizes seen");
/// assert_eq!(input.nodes.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Analyzer {
    nodes: Vec<NodeHistory>,
    gamma: WeightedFuser,
    t_comm: WeightedFuser,
    t_u: WeightedFuser,
    max_batches: Vec<Option<u64>>,
    batches_seen: usize,
}

impl Analyzer {
    /// Create an analyzer for `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, aggregation: MeasurementAggregation) -> Self {
        assert!(n > 0, "analyzer needs at least one node");
        Analyzer {
            nodes: vec![NodeHistory::default(); n],
            gamma: WeightedFuser::new(aggregation),
            t_comm: WeightedFuser::new(aggregation),
            t_u: WeightedFuser::new(aggregation),
            max_batches: vec![None; n],
            batches_seen: 0,
        }
    }

    /// Provide per-node memory caps that will be attached to solver inputs
    /// (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the node count.
    #[must_use]
    pub fn with_max_batches(mut self, caps: Vec<Option<u64>>) -> Self {
        assert_eq!(caps.len(), self.nodes.len(), "one cap per node");
        self.max_batches = caps;
        self
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the analyzer tracks no nodes (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of batch traces absorbed.
    pub fn batches_seen(&self) -> usize {
        self.batches_seen
    }

    /// Preload learned models from a checkpoint (e.g. the `SolverInput`
    /// of a previous run of the same job on the same cluster): each node's
    /// history is seeded with two synthetic warm observations derived from
    /// the model, and the communication fusers are seeded with the
    /// checkpointed constants. Training can then skip the bootstrap epochs
    /// entirely; genuine observations keep refining (and, via change-point
    /// detection, can discard) the preloaded state.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's node count differs from the analyzer's.
    pub fn preload_models(&mut self, checkpoint: &SolverInput) {
        assert_eq!(checkpoint.len(), self.nodes.len(), "checkpoint node count mismatch");
        for (history, node) in self.nodes.iter_mut().zip(&checkpoint.nodes) {
            for b in [8u64, 24] {
                let entry = history.by_batch.entry(b).or_default();
                entry.count = 8.0;
                entry.mean_a = node.q * b as f64 + node.s;
                entry.mean_p = node.p(b as f64);
                entry.last_seen = 0;
            }
            history.last_per_sample = Some(node.compute(16.0) / 16.0);
        }
        // Seed the fusers with tight-variance pseudo-observations so real
        // measurements still dominate over time.
        self.gamma.observe(checkpoint.gamma, 1e-4);
        self.t_comm.observe(checkpoint.t_comm(), 1e-4);
        self.t_u.observe(checkpoint.t_u, 1e-4);
    }

    /// Fold in one batch trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace's node count differs from the analyzer's.
    pub fn observe_batch(&mut self, trace: &BatchTrace) {
        assert_eq!(trace.observations.len(), self.nodes.len(), "trace node count mismatch");
        for obs in &trace.observations {
            self.nodes[obs.node].observe(obs.node, obs.local_batch, obs.a_time, obs.p_time, self.batches_seen);
            self.gamma.observe(obs.gamma_obs, obs.rel_variance);
            self.t_comm.observe(obs.t_comm_obs, obs.rel_variance);
            self.t_u.observe(obs.t_u_obs, obs.rel_variance);
        }
        self.batches_seen += 1;
    }

    /// The learned model for one node.
    ///
    /// # Errors
    ///
    /// [`CannikinError::ModelNotReady`] until the node has been observed at
    /// two distinct local batch sizes (with physically plausible fits).
    pub fn node_model(&self, node: usize) -> Result<NodePerf, CannikinError> {
        let (q, s, k, m) = self.nodes[node]
            .fit(self.batches_seen)
            .ok_or(CannikinError::ModelNotReady { node })?;
        Ok(NodePerf { q, s, k, m, max_batch: self.max_batches[node] })
    }

    /// Evict a node (crash or graceful leave): its history and memory cap
    /// are dropped and every higher index shifts down by one, mirroring
    /// [`hetsim::Simulator::remove_node`]. The surviving nodes keep their
    /// learned models and the cluster-wide communication fusers keep their
    /// fused state, so the solver can re-engage immediately after an
    /// elastic shrink instead of re-profiling from scratch.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or the analyzer would become empty.
    pub fn remove_node(&mut self, node: usize) {
        assert!(node < self.nodes.len(), "node {node} out of range");
        assert!(self.nodes.len() > 1, "cannot remove the last node");
        self.nodes.remove(node);
        self.max_batches.remove(node);
    }

    /// Admit a freshly joined node with an optional memory cap. Its
    /// history starts empty, so [`Analyzer::solver_input`] reports
    /// not-ready until the newcomer has been profiled at two distinct
    /// local batch sizes (the engine routes through the bootstrap in the
    /// meantime).
    pub fn add_node(&mut self, max_batch: Option<u64>) {
        self.nodes.push(NodeHistory::default());
        self.max_batches.push(max_batch);
    }

    /// Most recent per-sample compute time of a node (drives Eq. (8)).
    pub fn per_sample_time(&self, node: usize) -> Option<f64> {
        self.nodes[node].last_per_sample
    }

    /// The fused overlap ratio γ, if any observation arrived.
    pub fn gamma(&self) -> Option<f64> {
        self.gamma.estimate().map(|f| f.value)
    }

    /// The fused total synchronization time `T_comm`.
    pub fn t_comm(&self) -> Option<f64> {
        self.t_comm.estimate().map(|f| f.value)
    }

    /// The fused last-bucket time `T_u`.
    pub fn t_u(&self) -> Option<f64> {
        self.t_u.estimate().map(|f| f.value)
    }

    /// Assemble a full solver input from the learned state.
    ///
    /// # Errors
    ///
    /// [`CannikinError::ModelNotReady`] if any node lacks a model or no
    /// communication observations have arrived.
    pub fn solver_input(&self) -> Result<SolverInput, CannikinError> {
        let nodes: Vec<NodePerf> = (0..self.nodes.len()).map(|i| self.node_model(i)).collect::<Result<_, _>>()?;
        let gamma = self.gamma().ok_or(CannikinError::ModelNotReady { node: 0 })?;
        let t_comm = self.t_comm().ok_or(CannikinError::ModelNotReady { node: 0 })?;
        let t_u = self.t_u().ok_or(CannikinError::ModelNotReady { node: 0 })?;
        // Clamp into physical ranges: γ strictly inside (0,1), T_u ≤ T_comm.
        let gamma = gamma.clamp(1e-3, 1.0 - 1e-3);
        let t_u = t_u.clamp(0.0, t_comm);
        Ok(SolverInput { nodes, gamma, t_o: t_comm - t_u, t_u })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::catalog::Gpu;
    use hetsim::cluster::{ClusterSpec, NodeSpec};
    use hetsim::job::JobSpec;
    use hetsim::Simulator;

    fn cluster() -> ClusterSpec {
        ClusterSpec::new(
            "t",
            vec![
                NodeSpec::new("a100", Gpu::A100),
                NodeSpec::new("v100", Gpu::V100),
                NodeSpec::new("rtx", Gpu::Rtx6000),
            ],
        )
    }

    #[test]
    fn model_not_ready_with_one_batch_size() {
        let mut sim = Simulator::new(cluster(), JobSpec::resnet18_cifar10(), 1);
        let mut an = Analyzer::new(3, MeasurementAggregation::InverseVariance);
        for _ in 0..5 {
            an.observe_batch(&sim.simulate_batch(&[32, 32, 32]));
        }
        assert!(matches!(an.node_model(0), Err(CannikinError::ModelNotReady { .. })));
        assert!(an.solver_input().is_err());
    }

    #[test]
    fn learns_ground_truth_coefficients_without_noise() {
        let mut sim = Simulator::new(cluster(), JobSpec::resnet50_imagenet(), 2).with_noise(0.0, 0.0);
        let mut an = Analyzer::new(3, MeasurementAggregation::InverseVariance);
        for local in [[48u64, 24, 12], [24, 12, 6]] {
            an.observe_batch(&sim.simulate_batch(&local));
        }
        for i in 0..3 {
            let learned = an.node_model(i).unwrap();
            let truth = sim.true_coefficients(i);
            assert!((learned.q - truth.q).abs() / truth.q < 1e-9, "node {i} q");
            assert!((learned.s - truth.s).abs() / truth.s < 1e-9, "node {i} s");
            assert!((learned.k - truth.k).abs() / truth.k < 1e-9, "node {i} k");
            assert!((learned.m - truth.m).abs() / truth.m < 1e-9, "node {i} m");
        }
    }

    #[test]
    fn learns_accurate_models_under_noise() {
        let mut sim = Simulator::new(cluster(), JobSpec::resnet50_imagenet(), 3);
        let mut an = Analyzer::new(3, MeasurementAggregation::InverseVariance);
        // Several epochs at several batch sizes, many batches each.
        for local in [[48u64, 24, 12], [32, 16, 8], [64, 32, 16], [40, 20, 10]] {
            for _ in 0..40 {
                an.observe_batch(&sim.simulate_batch(&local));
            }
        }
        let input = an.solver_input().unwrap();
        for i in 0..3 {
            let truth = sim.true_coefficients(i);
            assert!((input.nodes[i].q / truth.q - 1.0).abs() < 0.05, "node {i} q error");
            assert!((input.nodes[i].k / truth.k - 1.0).abs() < 0.05, "node {i} k error");
        }
        let (t_comm, _, t_u) = sim.true_comm();
        assert!((input.t_comm() / t_comm - 1.0).abs() < 0.05);
        assert!((input.t_u / t_u - 1.0).abs() < 0.25); // single-bucket obs is noisier
        assert!((input.gamma / sim.job().gamma - 1.0).abs() < 0.05);
    }

    #[test]
    fn per_sample_time_tracks_latest_batch() {
        let mut sim = Simulator::new(cluster(), JobSpec::resnet18_cifar10(), 4).with_noise(0.0, 0.0);
        let mut an = Analyzer::new(3, MeasurementAggregation::InverseVariance);
        an.observe_batch(&sim.simulate_batch(&[30, 30, 30]));
        let t = an.per_sample_time(2).unwrap();
        let truth = sim.true_coefficients(2).compute(30.0) / 30.0;
        assert!((t - truth).abs() / truth < 1e-9);
        // The slow RTX must have a larger per-sample time than the A100.
        assert!(an.per_sample_time(2).unwrap() > an.per_sample_time(0).unwrap());
    }

    #[test]
    fn caps_propagate_to_solver_input() {
        let mut sim = Simulator::new(cluster(), JobSpec::resnet18_cifar10(), 5).with_noise(0.0, 0.0);
        let mut an = Analyzer::new(3, MeasurementAggregation::InverseVariance)
            .with_max_batches(vec![Some(100), Some(50), Some(25)]);
        for local in [[32u64, 16, 8], [16, 8, 4]] {
            an.observe_batch(&sim.simulate_batch(&local));
        }
        let input = an.solver_input().unwrap();
        assert_eq!(input.nodes[1].max_batch, Some(50));
    }

    #[test]
    fn remove_node_keeps_surviving_models() {
        let mut sim = Simulator::new(cluster(), JobSpec::resnet50_imagenet(), 2).with_noise(0.0, 0.0);
        let mut an = Analyzer::new(3, MeasurementAggregation::InverseVariance)
            .with_max_batches(vec![Some(100), Some(50), Some(25)]);
        for local in [[48u64, 24, 12], [24, 12, 6]] {
            an.observe_batch(&sim.simulate_batch(&local));
        }
        let rtx_truth = sim.true_coefficients(2);
        an.remove_node(1); // the V100 dies
        assert_eq!(an.len(), 2);
        let input = an.solver_input().expect("survivors keep their models");
        assert_eq!(input.nodes.len(), 2);
        assert!((input.nodes[1].q - rtx_truth.q).abs() / rtx_truth.q < 1e-9, "index 1 is now the RTX");
        assert_eq!(input.nodes[1].max_batch, Some(25), "caps shift with the nodes");
    }

    #[test]
    fn add_node_requires_profiling_the_newcomer() {
        let mut sim = Simulator::new(cluster(), JobSpec::resnet50_imagenet(), 2).with_noise(0.0, 0.0);
        let mut an = Analyzer::new(3, MeasurementAggregation::InverseVariance);
        for local in [[48u64, 24, 12], [24, 12, 6]] {
            an.observe_batch(&sim.simulate_batch(&local));
        }
        assert!(an.solver_input().is_ok());
        an.add_node(Some(64));
        assert_eq!(an.len(), 4);
        assert!(an.solver_input().is_err(), "newcomer has no model yet");
        assert!(an.per_sample_time(3).is_none());
    }

    #[test]
    fn ivw_input_predicts_better_than_naive() {
        // End-to-end §5.3 mechanism check: make one node's measurements
        // very noisy; the IVW analyzer's comm constants should be closer to
        // the truth than the naive analyzer's.
        let mut nodes = vec![
            NodeSpec::new("a100", Gpu::A100).with_measurement_sigma(0.01),
            NodeSpec::new("v100", Gpu::V100).with_measurement_sigma(0.01),
            NodeSpec::new("rtx", Gpu::Rtx6000).with_measurement_sigma(0.40),
        ];
        nodes[2].available_fraction = 1.0;
        let cluster = ClusterSpec::new("noisy", nodes);
        let job = JobSpec::resnet50_imagenet();
        let mut sim = Simulator::new(cluster, job, 6);
        let mut ivw = Analyzer::new(3, MeasurementAggregation::InverseVariance);
        let mut naive = Analyzer::new(3, MeasurementAggregation::NaiveMean);
        for local in [[48u64, 24, 12], [32, 16, 8]] {
            for _ in 0..30 {
                let t = sim.simulate_batch(&local);
                ivw.observe_batch(&t);
                naive.observe_batch(&t);
            }
        }
        let (t_comm_true, _, _) = sim.true_comm();
        let err_ivw = (ivw.t_comm().unwrap() - t_comm_true).abs();
        let err_naive = (naive.t_comm().unwrap() - t_comm_true).abs();
        assert!(err_ivw < err_naive, "ivw {err_ivw} vs naive {err_naive}");
    }
}

#[cfg(test)]
mod straggler_robustness {
    use super::*;
    use cannikin_telemetry::Session;
    use hetsim::catalog::Gpu;
    use hetsim::cluster::{ClusterSpec, NodeSpec};
    use hetsim::job::JobSpec;
    use hetsim::Simulator;

    /// The `regime_change` verdicts a session recorded, in order.
    fn regime_changes(session: &Session) -> Vec<RegimeChange> {
        session
            .drain()
            .into_iter()
            .filter_map(|r| match r.event {
                Event::RegimeChange(change) => Some(change),
                _ => None,
            })
            .collect()
    }

    /// Transient straggler spikes (isolated 3x batches) must neither clear
    /// the learned history (they are not a regime change) nor drag the
    /// fitted model far from the truth.
    #[test]
    fn transient_stragglers_do_not_destroy_the_model() {
        let session = Session::start();
        let cluster = ClusterSpec::new(
            "t",
            vec![NodeSpec::new("a", Gpu::A100), NodeSpec::new("v", Gpu::V100), NodeSpec::new("r", Gpu::Rtx6000)],
        );
        let job = JobSpec::resnet50_imagenet();
        let mut sim = Simulator::new(cluster.clone(), job.clone(), 41).with_stragglers(0.08, 3.0);
        let mut an = Analyzer::new(3, MeasurementAggregation::InverseVariance);
        for local in [[48u64, 24, 12], [32, 16, 8], [64, 32, 16]] {
            for _ in 0..60 {
                an.observe_batch(&sim.simulate_batch(&local));
            }
        }
        let oracle = Simulator::new(cluster, job, 0);
        for node in 0..3 {
            let learned = an.node_model(node).expect("model survives stragglers");
            let truth = oracle.true_coefficients(node);
            // Spikes inflate the EMA slightly (they are real time the node
            // spent), but the slope must stay in the right ballpark.
            assert!((learned.k / truth.k - 1.0).abs() < 0.35, "node {node} k: {} vs {}", learned.k, truth.k);
            assert!(learned.q > 0.0 && learned.k > 0.0);
        }
        assert_eq!(regime_changes(&session), [], "a spike is not a regime change");
    }

    /// A *sustained* slowdown, by contrast, must reset the history so the
    /// model tracks the new regime (the §6 contention scenario).
    #[test]
    fn sustained_slowdown_resets_and_relearns() {
        let session = Session::start();
        let cluster = ClusterSpec::new("t", vec![NodeSpec::new("a", Gpu::Rtx6000), NodeSpec::new("b", Gpu::Rtx6000)]);
        let job = JobSpec::resnet18_cifar10();
        let mut sim = Simulator::new(cluster, job, 42);
        let mut an = Analyzer::new(2, MeasurementAggregation::InverseVariance);
        for local in [[32u64, 32], [48, 16]] {
            for _ in 0..40 {
                an.observe_batch(&sim.simulate_batch(&local));
            }
        }
        let k_before = an.node_model(0).expect("ready").k;
        // Node 0 loses half its GPU.
        sim.set_contention(0, 0.5);
        for _ in 0..40 {
            an.observe_batch(&sim.simulate_batch(&[48, 16]));
        }
        // History cleared -> single batch size -> model not ready…
        // …until a second size arrives in the new regime.
        for _ in 0..40 {
            an.observe_batch(&sim.simulate_batch(&[32, 32]));
        }
        let k_after = an.node_model(0).expect("relearned").k;
        assert!(
            (k_after / k_before - 2.0).abs() < 0.3,
            "slope should double after 50% contention: {k_before} -> {k_after}"
        );
        // The reset is reported once, for the slowed node, at about 2x.
        let changes = regime_changes(&session);
        assert_eq!(changes.len(), 1, "{changes:?}");
        let change = changes[0];
        assert_eq!((change.node, change.b_i), (0, 48));
        let severity = change.observed / change.expected;
        assert!((severity - 2.0).abs() < 0.3, "severity {severity} should be near 2x");
    }
}
