//! The one epoch loop of Fig. 4: ask the [`Policy`] for a plan, have an
//! [`Executor`] run it, tell the policy what happened, act on the health
//! verdicts.
//!
//! This is the kurobako split: the policy is the *solver*, the executor
//! is the *problem*. `SimExecutor` (`trainer.rs`) answers with hetsim
//! physics, `ThreadedExecutor` (`parallel.rs`) with real gradients on
//! rank threads; everything that does not depend on how a
//! step is executed — the [`PolicyContext`], the decision telemetry, the
//! analyzer, the monitor, the epoch counter and the last split — lives
//! here once. The trait is crate-private: it exists so the loop is
//! written once and a test can script an executor, not as an extension
//! point.

use crate::error::CannikinError;
use crate::perf::Analyzer;
use crate::policy::{EpochObservation, EpochPlan, Policy, PolicyContext};

use cannikin_insight::{HealthReport, Monitor};
use cannikin_telemetry::{self as telemetry, AnomalyKind, Event, PolicyDecision, SplitDecision};
use std::time::Instant;

/// The batch-size envelope an executor trains within.
pub(crate) struct Bounds {
    pub adaptive: bool,
    pub base_batch: u64,
    pub max_batch: u64,
    pub dataset_size: usize,
}

/// What the driver hands an executor for one epoch.
pub(crate) struct Round<'a> {
    pub epoch: usize,
    pub plan: EpochPlan,
    /// Wall time the policy spent planning (Table 6 overhead), s.
    pub plan_seconds: f64,
    pub analyzer: &'a mut Analyzer,
}

/// What an executor hands back.
pub(crate) struct Executed<R> {
    /// Realized outcome, fed to [`Policy::tell`]; `local` is the split
    /// that actually finished the epoch (a mid-epoch replan may have
    /// changed it) and becomes the next context's `last_split`.
    pub observation: EpochObservation,
    /// The node set changed while the epoch ran.
    pub membership_changed: bool,
    /// The executor's own per-epoch report type.
    pub report: R,
}

/// "Run this plan for one epoch, feed the analyzer, return per-node
/// measurements."
pub(crate) trait Executor {
    type Report;

    /// Current node count.
    fn nodes(&self) -> usize;

    fn bounds(&self) -> Bounds;

    /// Gradient noise scale at the current progress, when known.
    fn phi(&self) -> Option<f64>;

    /// A fresh analyzer sized (and memory-capped) for the current nodes.
    fn new_analyzer(&self) -> Analyzer;

    /// Run one epoch.
    ///
    /// # Errors
    ///
    /// Communication failures beyond recovery, or a fault plan that never
    /// lets a step complete.
    fn execute(&mut self, round: Round<'_>) -> Result<Executed<Self::Report>, CannikinError>;
}

/// The epoch loop over any executor.
pub(crate) struct Driver<E: Executor> {
    pub exec: E,
    pub analyzer: Analyzer,
    pub policy: Box<dyn Policy>,
    pub monitor: Option<Monitor>,
    /// Epochs run so far (the next epoch's index).
    pub epoch: usize,
    /// The split the previous epoch finished with (empty before epoch 0
    /// and after a membership change).
    pub last_split: Vec<u64>,
}

impl<E: Executor> Driver<E> {
    pub fn new(exec: E, policy: Box<dyn Policy>) -> Self {
        let analyzer = exec.new_analyzer();
        Driver { exec, analyzer, policy, monitor: None, epoch: 0, last_split: Vec::new() }
    }

    /// The attached monitor's current health report, if one is installed.
    pub fn health(&self) -> Option<HealthReport> {
        self.monitor.as_ref().map(|m| m.report())
    }

    /// The node set changed between epochs: the policy drops state keyed
    /// to the old cluster shape and the next plan starts from no split.
    pub fn on_membership_change(&mut self) {
        self.policy.on_membership_change(self.exec.nodes());
        self.last_split.clear();
    }

    /// Run one epoch: ask → execute → tell → health.
    ///
    /// # Errors
    ///
    /// Propagates policy and executor failures; the epoch counter and
    /// last split are left untouched so the caller may retry.
    pub fn run_epoch(&mut self) -> Result<E::Report, CannikinError> {
        let _epoch_span = telemetry::span("epoch");
        let n = self.exec.nodes();
        let bounds = self.exec.bounds();
        let phi = self.exec.phi();

        let plan_span = telemetry::span("plan");
        let started = Instant::now();
        // A pure snapshot: assembling it performs no solver work and emits
        // no telemetry.
        let ctx = PolicyContext {
            epoch: self.epoch,
            nodes: n,
            adaptive: bounds.adaptive,
            base_batch: bounds.base_batch,
            max_batch: bounds.max_batch,
            dataset_size: bounds.dataset_size,
            phi,
            last_split: self.last_split.clone(),
            solver_input: self.analyzer.solver_input().ok(),
            per_sample_times: (0..n).map(|i| self.analyzer.per_sample_time(i).unwrap_or(1.0)).collect(),
        };
        let plan = self.policy.ask(&ctx)?;
        let plan_seconds = started.elapsed().as_secs_f64();
        drop(plan_span);
        if telemetry::enabled() {
            telemetry::emit(Event::SplitDecision(SplitDecision {
                total: plan.total,
                local: plan.local.clone(),
                predicted_t: plan.predicted_t,
                source: plan.source,
            }));
            telemetry::emit(Event::PolicyDecision(PolicyDecision {
                policy: self.policy.name().to_string(),
                epoch: self.epoch as u64,
                total: plan.total,
            }));
        }

        let ran =
            self.exec.execute(Round { epoch: self.epoch, plan, plan_seconds, analyzer: &mut self.analyzer })?;
        if ran.membership_changed {
            self.policy.on_membership_change(self.exec.nodes());
        }
        self.policy.tell(&ran.observation);
        self.apply_health();
        self.epoch += 1;
        self.last_split = ran.observation.local;
        Ok(ran.report)
    }

    /// End-of-epoch health pass: flush this thread's telemetry buffer so
    /// the monitor has seen everything the epoch emitted (rank threads
    /// flush on exit), then act on the verdicts. A straggler flag means
    /// the node's fitted `t = c·b + d` law no longer matches reality (e.g.
    /// the §6 contention scenario), so trusting the learned model would
    /// keep handing it an oversized share; clearing its observations makes
    /// `solver_input()` fail and routes the next epochs through the
    /// bootstrap re-profiling path.
    fn apply_health(&mut self) {
        let Some(monitor) = &self.monitor else { return };
        telemetry::flush_thread();
        let fresh = monitor.drain_new();
        if fresh.is_empty() {
            return;
        }
        telemetry::counter("health_anomalies", fresh.len() as f64);
        let mut flagged: Vec<u32> = fresh
            .iter()
            .filter(|a| a.kind == AnomalyKind::Straggler)
            .filter_map(|a| a.node)
            .collect();
        flagged.sort_unstable();
        flagged.dedup();
        for node in flagged {
            if (node as usize) < self.analyzer.len() {
                self.analyzer.reset_node(node as usize);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::MeasurementAggregation;
    use crate::policy::{build_sim_policy, PolicyKind};
    use cannikin_insight::InsightConfig;
    use cannikin_telemetry::Session;
    use hetsim::trace::{BatchTrace, NodeObservation};
    use std::sync::{Arc, Mutex};

    /// Canned physics: node `i` computes a batch of `b` samples in
    /// `per_sample[i]·b + 2 ms`, six steps an epoch alternating between two
    /// batch sizes so every node's linear model can fit.
    struct Scripted {
        per_sample: Vec<f64>,
        finished: Vec<Vec<u64>>,
    }

    impl Executor for Scripted {
        type Report = ();

        fn nodes(&self) -> usize {
            self.per_sample.len()
        }

        fn bounds(&self) -> Bounds {
            Bounds { adaptive: true, base_batch: 32, max_batch: 128, dataset_size: 4_096 }
        }

        fn phi(&self) -> Option<f64> {
            Some(200.0)
        }

        fn new_analyzer(&self) -> Analyzer {
            Analyzer::new(self.nodes(), MeasurementAggregation::InverseVariance)
        }

        fn execute(&mut self, round: Round<'_>) -> Result<Executed<()>, CannikinError> {
            telemetry::counter("execute", round.epoch as f64);
            let local = round.plan.local;
            for step in 0..6u64 {
                let observations: Vec<NodeObservation> = local
                    .iter()
                    .enumerate()
                    .map(|(node, &b)| {
                        let b = b + 4 * (step % 2);
                        let t = self.per_sample[node] * b as f64 + 0.002;
                        NodeObservation {
                            node,
                            local_batch: b,
                            a_time: 0.4 * t,
                            p_time: 0.6 * t,
                            sync_start: 0.7 * t,
                            gamma_obs: 0.5,
                            t_comm_obs: 0.01,
                            t_u_obs: 0.004,
                            rel_variance: 1e-4,
                        }
                    })
                    .collect();
                for obs in &observations {
                    telemetry::emit(obs.step_timing(step));
                }
                round.analyzer.observe_batch(&BatchTrace {
                    observations,
                    batch_time: 0.0,
                    bucket_sync_end: Vec::new(),
                    faults: Vec::new(),
                });
            }
            self.finished.push(local.clone());
            let observation = EpochObservation {
                epoch: round.epoch,
                total: round.plan.total,
                local,
                epoch_time: 1.0,
                mean_batch_time: 1.0 / 6.0,
                efficiency: 1.0,
                goodput: 1.0,
                phi: Some(200.0),
                per_sample_times: self.per_sample.clone(),
            };
            Ok(Executed { observation, membership_changed: false, report: () })
        }
    }

    /// A built-in policy that also records what the driver showed it.
    struct Recording {
        inner: Box<dyn Policy>,
        asked: Arc<Mutex<Vec<PolicyContext>>>,
        memberships: Arc<Mutex<Vec<usize>>>,
    }

    impl Policy for Recording {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn ask(&mut self, ctx: &PolicyContext) -> Result<EpochPlan, CannikinError> {
            telemetry::counter("ask", ctx.epoch as f64);
            self.asked.lock().expect("log").push(ctx.clone());
            self.inner.ask(ctx)
        }

        fn tell(&mut self, obs: &EpochObservation) {
            telemetry::counter("tell", obs.epoch as f64);
            self.inner.tell(obs);
        }

        fn on_membership_change(&mut self, nodes: usize) {
            self.memberships.lock().expect("log").push(nodes);
            self.inner.on_membership_change(nodes);
        }
    }

    /// The loop-phase counters of the session so far, in emission order.
    fn phases(session: &Session) -> Vec<String> {
        session
            .drain()
            .into_iter()
            .filter_map(|r| match r.event {
                Event::Counter(c) if ["ask", "execute", "tell", "health_anomalies"].contains(&c.name.as_str()) => {
                    Some(c.name)
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn one_loop_serves_every_policy_kind() {
        for kind in [PolicyKind::OptPerf, PolicyKind::Even, PolicyKind::LbBsp, PolicyKind::Rl] {
            let asked = Arc::new(Mutex::new(Vec::new()));
            let memberships = Arc::new(Mutex::new(Vec::new()));
            let policy = Recording {
                inner: build_sim_policy(kind, 32, 3, 128),
                asked: Arc::clone(&asked),
                memberships: Arc::clone(&memberships),
            };
            let exec = Scripted { per_sample: vec![0.001, 0.002, 0.004], finished: Vec::new() };
            let mut driver = Driver::new(exec, Box::new(policy));
            driver.monitor = Some(Monitor::install(InsightConfig::default()));
            let session = Session::start();

            // Two healthy epochs, then node 1 slows 3x: its third slowed
            // step trips the straggler detector inside epoch 2.
            let mut seen_per_sample = Vec::new();
            for epoch in 0..3 {
                if epoch == 2 {
                    driver.exec.per_sample[1] *= 3.0;
                }
                driver.run_epoch().expect("scripted epoch");
                let mut expected = vec!["ask", "execute", "tell"];
                if epoch == 2 {
                    expected.push("health_anomalies");
                }
                assert_eq!(phases(&session), expected, "{kind}: epoch {epoch} phase order");
                seen_per_sample.push(
                    (0..3).map(|i| driver.analyzer.per_sample_time(i).unwrap_or(1.0)).collect::<Vec<f64>>(),
                );
            }

            // The verdict reset exactly the flagged node's history.
            assert!(driver.analyzer.node_model(0).is_ok(), "{kind}: node 0 keeps its model");
            assert!(driver.analyzer.node_model(1).is_err(), "{kind}: the straggler re-profiles");
            assert!(driver.analyzer.node_model(2).is_ok(), "{kind}: node 2 keeps its model");
            assert_eq!(driver.health().expect("monitor attached").straggling_nodes, vec![1]);

            // What one epoch ended with is what the next ask sees.
            {
                let asked = asked.lock().expect("log");
                for k in 1..3 {
                    assert_eq!(asked[k].epoch, k, "{kind}");
                    assert_eq!(asked[k].last_split, driver.exec.finished[k - 1], "{kind}: epoch {k} last split");
                    assert_eq!(asked[k].per_sample_times, seen_per_sample[k - 1], "{kind}: epoch {k} per-sample");
                }
                assert!(asked[0].last_split.is_empty() && asked[0].solver_input.is_none(), "{kind}");
            }
            assert!(memberships.lock().expect("log").is_empty(), "{kind}: no change yet");

            // Node 2 leaves between epochs.
            driver.exec.per_sample.pop();
            driver.analyzer.remove_node(2);
            driver.on_membership_change();
            assert_eq!(*memberships.lock().expect("log"), vec![2], "{kind}: told once, with the new size");
            assert!(driver.last_split.is_empty(), "{kind}: the stale split is dropped");
            driver.run_epoch().expect("epoch after the shrink");
            let asked = asked.lock().expect("log");
            assert_eq!((asked[3].epoch, asked[3].nodes), (3, 2), "{kind}");
            assert!(asked[3].last_split.is_empty(), "{kind}");
            assert_eq!(driver.last_split.len(), 2, "{kind}: the new plan covers the survivors");
        }
    }
}
