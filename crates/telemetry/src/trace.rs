//! Observation records shared by the simulator and the analyzer.
//!
//! These types used to live in `hetsim::trace`; they moved here so the
//! simulator, the engine, and the exporters all speak one format (`hetsim`
//! re-exports them, so existing code keeps compiling). They are the *only*
//! things the Cannikin analyzer is allowed to see — the ground-truth
//! coefficients stay inside the simulator, exactly as a real cluster's
//! physics stay inside the hardware.

use crate::event::{Event, FaultInjected, StepTiming};

/// What one node measures about itself during one batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeObservation {
    /// Node index within the cluster.
    pub node: usize,
    /// Local batch size this node trained.
    pub local_batch: u64,
    /// Measured `a_i` (data loading + forward + parameter update), s.
    pub a_time: f64,
    /// Measured backpropagation time `P_i`, s.
    pub p_time: f64,
    /// Measured first-bucket-ready point `syncStart_i`, s from batch start.
    pub sync_start: f64,
    /// This node's (noisy) estimate of the overlap ratio γ.
    pub gamma_obs: f64,
    /// This node's (noisy) estimate of the total gradient-synchronization
    /// time `T_comm`, s.
    pub t_comm_obs: f64,
    /// This node's (noisy) estimate of the last-bucket time `T_u`, s.
    pub t_u_obs: f64,
    /// Relative variance of this node's γ/`T_comm` measurements
    /// (`σ_i²` in the inverse-variance weighting of §4.5).
    pub rel_variance: f64,
}

impl NodeObservation {
    /// This observation as a telemetry [`StepTiming`] event. Non-finite
    /// measurements (a node that saw no synchronization this micro-batch)
    /// export as `0.0`.
    pub fn step_timing(&self, step: u64) -> Event {
        let finite = |v: f64| if v.is_finite() { v } else { 0.0 };
        Event::StepTiming(StepTiming {
            step,
            rank: self.node as u32,
            b_i: self.local_batch,
            t_compute: self.a_time + self.p_time,
            t_comm: finite(self.t_comm_obs),
            overlap: finite(self.gamma_obs),
        })
    }
}

/// The timing outcome of one synchronized training batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchTrace {
    /// Per-node measurements, indexed by node.
    pub observations: Vec<NodeObservation>,
    /// Wall-clock time of the batch (all nodes finish the last bucket), s.
    pub batch_time: f64,
    /// Completion time of each gradient bucket's synchronization, in
    /// reduction order, s from batch start.
    pub bucket_sync_end: Vec<f64>,
    /// Faults that fired during this batch (empty on healthy batches).
    /// A batch whose faults include a crash or an exhausted comm timeout
    /// carries no usable observations — see [`BatchTrace::is_failed`].
    pub faults: Vec<FaultInjected>,
}

impl BatchTrace {
    /// The straggler's total compute time, s.
    pub fn max_compute(&self) -> f64 {
        self.observations.iter().map(|o| o.a_time + o.p_time).fold(0.0, f64::max)
    }

    /// Whether the batch failed outright: the gradients never synchronized,
    /// so no sample from it may be counted.
    pub fn is_failed(&self) -> bool {
        use crate::event::FaultKind;
        self.faults.iter().any(|f| matches!(f.kind, FaultKind::NodeCrash | FaultKind::CommTimeout))
    }
}

/// The timing outcome of a full epoch (many batches).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochTrace {
    /// Every batch of the epoch, in order.
    pub batches: Vec<BatchTrace>,
    /// Total epoch wall-clock time, s.
    pub epoch_time: f64,
}

impl EpochTrace {
    /// Mean batch time across the epoch, s.
    ///
    /// # Panics
    ///
    /// Panics if the epoch has no batches.
    pub fn mean_batch_time(&self) -> f64 {
        assert!(!self.batches.is_empty(), "epoch has no batches");
        self.epoch_time / self.batches.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(node: usize, a: f64, p: f64) -> NodeObservation {
        NodeObservation {
            node,
            local_batch: 8,
            a_time: a,
            p_time: p,
            sync_start: a + 0.1 * p,
            gamma_obs: 0.1,
            t_comm_obs: 0.05,
            t_u_obs: 0.01,
            rel_variance: 4e-4,
        }
    }

    #[test]
    fn max_compute_picks_straggler() {
        let trace = BatchTrace {
            observations: vec![obs(0, 0.1, 0.2), obs(1, 0.3, 0.4)],
            batch_time: 0.75,
            bucket_sync_end: vec![0.7, 0.75],
            faults: Vec::new(),
        };
        assert_eq!(trace.max_compute(), 0.7);
    }

    #[test]
    fn mean_batch_time() {
        let b = BatchTrace { observations: vec![], batch_time: 0.5, bucket_sync_end: vec![], faults: vec![] };
        let e = EpochTrace { batches: vec![b.clone(), b], epoch_time: 1.0 };
        assert_eq!(e.mean_batch_time(), 0.5);
    }

    #[test]
    fn step_timing_sanitizes_non_finite_measurements() {
        let mut o = obs(2, 0.1, 0.2);
        o.t_comm_obs = f64::NAN;
        match o.step_timing(5) {
            Event::StepTiming(t) => {
                assert_eq!(t.step, 5);
                assert_eq!(t.rank, 2);
                assert_eq!(t.b_i, 8);
                assert!((t.t_compute - 0.3).abs() < 1e-12);
                assert_eq!(t.t_comm, 0.0);
                assert!((t.overlap - 0.1).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
