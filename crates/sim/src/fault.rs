//! Seeded fault injection for the simulator (chaos testing, §4.3).
//!
//! A [`FaultPlan`] is a deterministic schedule of cluster misbehavior:
//! hard node crashes, graceful leaves, scheduled joins, bounded slowdown
//! bursts, flapping contention, and probabilistic transient communication
//! failures. [`Simulator::with_fault_plan`](crate::Simulator::with_fault_plan)
//! attaches a plan; `simulate_batch` then consumes it and surfaces every
//! fired fault in [`BatchTrace::faults`](cannikin_telemetry::trace::BatchTrace),
//! so the engine *sees* faults instead of silently observing stretched
//! times.
//!
//! Determinism: all fault randomness (comm-failure draws, backoff jitter)
//! comes from the plan's own seeded RNG, which is separate from the
//! simulator's noise RNG. The same `(simulator seed, fault plan)` pair
//! therefore replays the exact same run, and attaching a plan does not
//! perturb the noise stream of healthy batches.

use crate::cluster::NodeSpec;
use cannikin_telemetry::{FaultInjected, FaultKind};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;

/// One scheduled fault.
#[derive(Debug, Clone)]
pub enum FaultEvent {
    /// Node dies hard at the scheduled step: the step's gradients are lost
    /// and every subsequent batch fails until the node is evicted.
    Crash {
        /// Node index at scheduling time (kept stable across removals).
        node: usize,
    },
    /// Node leaves gracefully: the scheduled step completes, then the
    /// engine is expected to shrink the group.
    Leave {
        /// Node index at scheduling time.
        node: usize,
    },
    /// A new node arrives; the engine picks it up via
    /// [`Simulator::take_pending_joins`](crate::Simulator::take_pending_joins).
    Join {
        /// Specification of the joining node.
        spec: NodeSpec,
    },
    /// A bounded compute slowdown (GC pause, preemption storm).
    SlowdownBurst {
        /// Affected node index at scheduling time.
        node: usize,
        /// Number of consecutive batches the burst lasts.
        steps: u64,
        /// Multiplicative compute stretch while active (>= 1).
        factor: f64,
    },
}

/// A flapping-contention rule: starting at `from_step`, the node
/// alternates every `period` steps between full speed and a contended
/// `fraction` of its compute.
#[derive(Debug, Clone, Copy)]
struct FlapRule {
    node: usize,
    period: u64,
    fraction: f64,
    from_step: u64,
}

/// Failure-detection timeout per failed synchronization attempt, as a
/// multiple of the ground-truth `T_comm`.
const COMM_TIMEOUT_FACTOR: f64 = 2.0;

/// Base of the exponential retry backoff, seconds.
const COMM_BACKOFF_BASE: f64 = 0.05;

/// Uniform jitter fraction applied to each backoff.
const COMM_JITTER: f64 = 0.5;

/// Crash-detection timeout as a multiple of the failed batch's ideal batch
/// time (the cost of *noticing* the dead node).
pub(crate) const DETECT_TIMEOUT_FACTOR: f64 = 2.0;

/// A seeded, deterministic schedule of faults for one simulated run.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    scheduled: BTreeMap<u64, Vec<FaultEvent>>,
    flaps: Vec<FlapRule>,
    /// Per-batch probability that the gradient synchronization fails and
    /// must be retried (each retry fails again with the same probability).
    comm_prob: f64,
    /// Retry budget per batch; exhausting it fails the whole step.
    comm_max_attempts: u32,
}

impl FaultPlan {
    /// An empty plan drawing its randomness from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            scheduled: BTreeMap::new(),
            flaps: Vec::new(),
            comm_prob: 0.0,
            comm_max_attempts: 1,
        }
    }

    /// Schedule a hard crash of `node` at batch `step`.
    #[must_use]
    pub fn crash_at(mut self, step: u64, node: usize) -> Self {
        self.scheduled.entry(step).or_default().push(FaultEvent::Crash { node });
        self
    }

    /// Schedule a graceful departure of `node` at batch `step`.
    #[must_use]
    pub fn leave_at(mut self, step: u64, node: usize) -> Self {
        self.scheduled.entry(step).or_default().push(FaultEvent::Leave { node });
        self
    }

    /// Schedule a node join at batch `step`.
    #[must_use]
    pub fn join_at(mut self, step: u64, spec: NodeSpec) -> Self {
        self.scheduled.entry(step).or_default().push(FaultEvent::Join { spec });
        self
    }

    /// Schedule a slowdown burst: `node` computes `factor`× slower for
    /// `steps` batches starting at `step`.
    ///
    /// # Panics
    ///
    /// Panics unless `factor >= 1` and `steps > 0`.
    #[must_use]
    pub fn burst_at(mut self, step: u64, node: usize, steps: u64, factor: f64) -> Self {
        assert!(factor >= 1.0, "slowdown factor must be >= 1");
        assert!(steps > 0, "burst must last at least one step");
        self.scheduled.entry(step).or_default().push(FaultEvent::SlowdownBurst { node, steps, factor });
        self
    }

    /// Add a flapping-contention rule: from `from_step` on, `node`
    /// alternates every `period` steps between full compute and
    /// `fraction` of it.
    ///
    /// # Panics
    ///
    /// Panics unless `period > 0` and `0 < fraction <= 1`.
    #[must_use]
    pub fn flapping(mut self, node: usize, period: u64, fraction: f64, from_step: u64) -> Self {
        assert!(period > 0, "flap period must be positive");
        assert!(fraction > 0.0 && fraction <= 1.0, "contended fraction must be in (0, 1]");
        self.flaps.push(FlapRule { node, period, fraction, from_step });
        self
    }

    /// Enable transient communication failures with per-batch probability
    /// `prob` and a retry budget of `max_attempts`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= prob < 1` and `max_attempts >= 1`.
    #[must_use]
    pub fn transient_comm(mut self, prob: f64, max_attempts: u32) -> Self {
        assert!((0.0..1.0).contains(&prob), "failure probability must be in [0, 1)");
        assert!(max_attempts >= 1, "need at least one attempt");
        self.comm_prob = prob;
        self.comm_max_attempts = max_attempts;
        self
    }
}

/// What the gradient synchronization of one batch experienced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum CommOutcome {
    /// No injected failure.
    Clean,
    /// Failed `attempts - 1` times, then succeeded; `penalty` seconds of
    /// timeouts + backoff were added to the batch.
    Recovered { attempts: u32, penalty: f64 },
    /// Every attempt failed; the step is lost and must be re-run.
    Exhausted { attempts: u32, penalty: f64 },
}

/// Everything the fault layer decided for one batch.
#[derive(Debug)]
pub(crate) struct BatchFaults {
    /// Nodes currently crashed (non-empty ⇒ the batch fails).
    pub crashed: Vec<usize>,
    /// Per-node multiplicative compute stretch (len = cluster size).
    pub slowdown: Vec<f64>,
    /// Contention toggles to apply before simulating: `(node, fraction)`.
    pub toggles: Vec<(usize, f64)>,
    /// Fault events to surface in the trace.
    pub faults: Vec<FaultInjected>,
    /// Communication outcome.
    pub comm: CommOutcome,
}

/// Live per-run fault state attached to a [`Simulator`](crate::Simulator).
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: StdRng,
    step: u64,
    crashed: Vec<bool>,
    bursts: Vec<(usize, u64, f64)>,
    /// Last applied flap state, parallel to `plan.flaps`.
    flap_active: Vec<bool>,
    pending_joins: Vec<NodeSpec>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, nodes: usize) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed);
        let flap_active = vec![false; plan.flaps.len()];
        FaultState { plan, rng, step: 0, crashed: vec![false; nodes], bursts: Vec::new(), flap_active, pending_joins: Vec::new() }
    }

    pub(crate) fn take_pending_joins(&mut self) -> Vec<NodeSpec> {
        std::mem::take(&mut self.pending_joins)
    }

    /// Keep per-node fault state consistent with
    /// [`Simulator::remove_node`](crate::Simulator::remove_node): drop the
    /// removed node's state and shift every higher index down by one, in
    /// the crash flags, active bursts, flap rules, and the not-yet-fired
    /// scheduled events alike.
    pub(crate) fn on_node_removed(&mut self, node: usize) {
        if node < self.crashed.len() {
            self.crashed.remove(node);
        }
        self.bursts.retain(|&(n, _, _)| n != node);
        for burst in &mut self.bursts {
            if burst.0 > node {
                burst.0 -= 1;
            }
        }
        let mut keep = Vec::with_capacity(self.plan.flaps.len());
        let mut active = Vec::with_capacity(self.plan.flaps.len());
        for (rule, was) in self.plan.flaps.iter().zip(&self.flap_active) {
            if rule.node == node {
                continue;
            }
            let mut rule = *rule;
            if rule.node > node {
                rule.node -= 1;
            }
            keep.push(rule);
            active.push(*was);
        }
        self.plan.flaps = keep;
        self.flap_active = active;
        for events in self.plan.scheduled.values_mut() {
            // Drop events aimed at the removed node BEFORE renumbering, or
            // an event shifted down onto its index would be lost with it.
            events.retain(|e| match e {
                FaultEvent::Crash { node: n }
                | FaultEvent::Leave { node: n }
                | FaultEvent::SlowdownBurst { node: n, .. } => *n != node,
                FaultEvent::Join { .. } => true,
            });
            for event in events.iter_mut() {
                match event {
                    FaultEvent::Crash { node: n }
                    | FaultEvent::Leave { node: n }
                    | FaultEvent::SlowdownBurst { node: n, .. } => {
                        if *n > node {
                            *n -= 1;
                        }
                    }
                    FaultEvent::Join { .. } => {}
                }
            }
        }
        self.plan.scheduled.retain(|_, events| !events.is_empty());
    }

    /// Mirror of [`FaultState::on_node_removed`] for joins.
    pub(crate) fn on_node_added(&mut self) {
        self.crashed.push(false);
    }

    /// Advance one batch: fire scheduled events, tick bursts and flaps,
    /// and draw the communication outcome. `n` is the current cluster
    /// size, `t_comm` the ground-truth all-reduce time (the unit of the
    /// comm-failure detection timeout).
    pub(crate) fn on_batch_start(&mut self, n: usize, t_comm: f64) -> BatchFaults {
        let step = self.step;
        self.step += 1;
        let mut faults = Vec::new();

        // Fire this step's scheduled events (dropping out-of-range nodes —
        // the cluster may have shrunk since scheduling).
        if let Some(events) = self.plan.scheduled.remove(&step) {
            for event in events {
                match event {
                    FaultEvent::Crash { node } if node < n => {
                        self.crashed[node] = true;
                    }
                    FaultEvent::Leave { node } if node < n => {
                        faults.push(FaultInjected {
                            kind: FaultKind::NodeLeave,
                            node: Some(node as u32),
                            step,
                            attempts: 1,
                            magnitude: 0.0,
                        });
                    }
                    FaultEvent::Join { spec } => {
                        self.pending_joins.push(spec);
                        faults.push(FaultInjected { kind: FaultKind::NodeJoin, node: None, step, attempts: 1, magnitude: 0.0 });
                    }
                    FaultEvent::SlowdownBurst { node, steps, factor } if node < n => {
                        self.bursts.push((node, steps, factor));
                    }
                    _ => {}
                }
            }
        }

        let crashed: Vec<usize> = (0..n).filter(|&i| self.crashed[i]).collect();
        for &node in &crashed {
            faults.push(FaultInjected { kind: FaultKind::NodeCrash, node: Some(node as u32), step, attempts: 1, magnitude: 0.0 });
        }
        if !crashed.is_empty() {
            // The batch dies at the detection timeout; nothing else fires.
            return BatchFaults { crashed, slowdown: vec![1.0; n], toggles: Vec::new(), faults, comm: CommOutcome::Clean };
        }

        // Active slowdown bursts stretch compute for this batch.
        let mut slowdown = vec![1.0; n];
        for &mut (node, ref mut remaining, factor) in &mut self.bursts {
            if node < n && *remaining > 0 {
                slowdown[node] *= factor;
                *remaining -= 1;
                faults.push(FaultInjected {
                    kind: FaultKind::SlowdownBurst,
                    node: Some(node as u32),
                    step,
                    attempts: 1,
                    magnitude: factor,
                });
            }
        }
        self.bursts.retain(|&(_, remaining, _)| remaining > 0);

        // Flapping contention: surface state changes as toggles.
        let mut toggles = Vec::new();
        for (rule, was) in self.plan.flaps.iter().zip(self.flap_active.iter_mut()) {
            if rule.node >= n || step < rule.from_step {
                continue;
            }
            let active = ((step - rule.from_step) / rule.period) % 2 == 1;
            if active != *was {
                *was = active;
                let fraction = if active { rule.fraction } else { 1.0 };
                toggles.push((rule.node, fraction));
                faults.push(FaultInjected {
                    kind: FaultKind::ContentionFlap,
                    node: Some(rule.node as u32),
                    step,
                    attempts: 1,
                    magnitude: fraction,
                });
            }
        }

        // Transient communication failure episode.
        let prob = self.plan.comm_prob;
        let comm = if prob > 0.0 && self.rng.random::<f64>() < prob {
            let mut attempts = 1u32;
            let mut penalty = COMM_TIMEOUT_FACTOR * t_comm;
            let mut recovered = false;
            while attempts < self.plan.comm_max_attempts {
                let backoff = COMM_BACKOFF_BASE
                    * f64::from(1u32 << (attempts - 1).min(16))
                    * (1.0 + COMM_JITTER * self.rng.random::<f64>());
                penalty += backoff;
                attempts += 1;
                if self.rng.random::<f64>() >= prob {
                    recovered = true;
                    break;
                }
                penalty += COMM_TIMEOUT_FACTOR * t_comm;
            }
            if recovered {
                faults.push(FaultInjected { kind: FaultKind::CommFailure, node: None, step, attempts, magnitude: penalty });
                CommOutcome::Recovered { attempts, penalty }
            } else {
                faults.push(FaultInjected { kind: FaultKind::CommTimeout, node: None, step, attempts, magnitude: penalty });
                CommOutcome::Exhausted { attempts, penalty }
            }
        } else {
            CommOutcome::Clean
        };

        BatchFaults { crashed, slowdown, toggles, faults, comm }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Gpu;

    #[test]
    fn scheduled_events_fire_once_at_their_step() {
        let plan = FaultPlan::new(1).crash_at(3, 1).leave_at(5, 0);
        let mut state = FaultState::new(plan, 3);
        for step in 0..3 {
            let fx = state.on_batch_start(3, 0.1);
            assert!(fx.crashed.is_empty() && fx.faults.is_empty(), "step {step}: {fx:?}");
        }
        let fx = state.on_batch_start(3, 0.1);
        assert_eq!(fx.crashed, vec![1]);
        assert!(fx.faults.iter().any(|f| f.kind == FaultKind::NodeCrash && f.node == Some(1)));
        // The crash persists until the node is evicted.
        let fx = state.on_batch_start(3, 0.1);
        assert_eq!(fx.crashed, vec![1]);
        state.on_node_removed(1);
        let fx = state.on_batch_start(2, 0.1);
        assert!(fx.crashed.is_empty());
        // The leave scheduled for node 0 still targets the same machine.
        assert!(fx.faults.iter().any(|f| f.kind == FaultKind::NodeLeave && f.node == Some(0)), "{fx:?}");
    }

    #[test]
    fn removal_shifts_scheduled_indices() {
        // Crash of node 2 scheduled; node 1 is removed first, so the same
        // physical machine is now index 1.
        let plan = FaultPlan::new(2).crash_at(4, 2).burst_at(4, 2, 2, 3.0);
        let mut state = FaultState::new(plan, 3);
        state.on_node_removed(1);
        for _ in 0..4 {
            state.on_batch_start(2, 0.1);
        }
        let fx = state.on_batch_start(2, 0.1);
        assert_eq!(fx.crashed, vec![1], "crash must follow the machine, not the index");
    }

    #[test]
    fn bursts_last_exactly_their_duration() {
        let plan = FaultPlan::new(3).burst_at(1, 0, 2, 4.0);
        let mut state = FaultState::new(plan, 2);
        assert_eq!(state.on_batch_start(2, 0.1).slowdown, vec![1.0, 1.0]);
        assert_eq!(state.on_batch_start(2, 0.1).slowdown, vec![4.0, 1.0]);
        assert_eq!(state.on_batch_start(2, 0.1).slowdown, vec![4.0, 1.0]);
        assert_eq!(state.on_batch_start(2, 0.1).slowdown, vec![1.0, 1.0]);
    }

    #[test]
    fn flapping_toggles_at_period_boundaries() {
        let plan = FaultPlan::new(4).flapping(1, 2, 0.5, 0);
        let mut state = FaultState::new(plan, 2);
        let mut toggles = Vec::new();
        for _ in 0..8 {
            let fx = state.on_batch_start(2, 0.1);
            toggles.extend(fx.toggles);
        }
        // Steps 0-1 clean, 2-3 contended, 4-5 clean, 6-7 contended.
        assert_eq!(toggles, vec![(1, 0.5), (1, 1.0), (1, 0.5)]);
    }

    #[test]
    fn comm_failures_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let plan = FaultPlan::new(seed).transient_comm(0.3, 4);
            let mut state = FaultState::new(plan, 2);
            (0..50).map(|_| state.on_batch_start(2, 0.1).comm).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds must differ somewhere");
        let outcomes = run(7);
        assert!(outcomes.iter().any(|o| matches!(o, CommOutcome::Recovered { .. })));
        assert!(outcomes.iter().any(|o| matches!(o, CommOutcome::Clean)));
        for o in &outcomes {
            if let CommOutcome::Recovered { attempts, penalty } | CommOutcome::Exhausted { attempts, penalty } = o {
                assert!(*attempts >= 1 && *attempts <= 4);
                assert!(*penalty > 0.0);
            }
        }
    }

    #[test]
    fn spot_preemption_composes_crash_and_join() {
        let plan = FaultPlan::new(9).crash_at(2, 1).join_at(4, NodeSpec::new("spot-replacement", Gpu::V100));
        let mut state = FaultState::new(plan, 3);
        state.on_batch_start(3, 0.1);
        state.on_batch_start(3, 0.1);
        let fx = state.on_batch_start(3, 0.1);
        assert_eq!(fx.crashed, vec![1], "preemption fires at its step");
        state.on_node_removed(1);
        state.on_batch_start(2, 0.1);
        let fx = state.on_batch_start(2, 0.1);
        assert!(fx.faults.iter().any(|f| f.kind == FaultKind::NodeJoin));
        assert_eq!(state.take_pending_joins()[0].name, "spot-replacement");
    }

    #[test]
    fn straggler_onset_never_expires() {
        let plan = FaultPlan::new(3).burst_at(1, 0, u64::MAX, 2.5);
        let mut state = FaultState::new(plan, 2);
        assert_eq!(state.on_batch_start(2, 0.1).slowdown, vec![1.0, 1.0]);
        for _ in 0..50 {
            assert_eq!(state.on_batch_start(2, 0.1).slowdown, vec![2.5, 1.0], "the onset is permanent");
        }
    }

    #[test]
    fn cluster_churn_leaves_then_joins() {
        let plan = FaultPlan::new(5).leave_at(1, 2).join_at(3, NodeSpec::new("fresh", Gpu::A100));
        let mut state = FaultState::new(plan, 3);
        state.on_batch_start(3, 0.1);
        let fx = state.on_batch_start(3, 0.1);
        assert!(fx.faults.iter().any(|f| f.kind == FaultKind::NodeLeave && f.node == Some(2)));
        state.on_node_removed(2);
        state.on_batch_start(2, 0.1);
        let fx = state.on_batch_start(2, 0.1);
        assert!(fx.faults.iter().any(|f| f.kind == FaultKind::NodeJoin));
        assert_eq!(state.take_pending_joins()[0].name, "fresh");
    }

    #[test]
    fn joins_are_queued_for_the_engine() {
        let plan = FaultPlan::new(5).join_at(2, NodeSpec::new("late", Gpu::A100));
        let mut state = FaultState::new(plan, 2);
        state.on_batch_start(2, 0.1);
        state.on_batch_start(2, 0.1);
        assert!(state.take_pending_joins().is_empty());
        let fx = state.on_batch_start(2, 0.1);
        assert!(fx.faults.iter().any(|f| f.kind == FaultKind::NodeJoin));
        let joins = state.take_pending_joins();
        assert_eq!(joins.len(), 1);
        assert_eq!(joins[0].name, "late");
        assert!(state.take_pending_joins().is_empty(), "drained");
    }
}
