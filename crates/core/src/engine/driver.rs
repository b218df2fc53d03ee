//! The one epoch loop of Fig. 4: ask the [`Policy`] for a plan, have an
//! [`Executor`] run it, tell the policy what happened.
//!
//! This is the kurobako split: the policy is the *solver*, the executor
//! is the *problem*. `SimExecutor` (`trainer.rs`) answers with hetsim
//! physics, `ThreadedExecutor` (`parallel.rs`) with real gradients on
//! rank threads; everything that does not depend on how a
//! step is executed — the [`PolicyContext`], the decision telemetry, the
//! analyzer, the epoch counter, the last split, the statistical progress
//! and the clock, and the [`EpochObservation`] each epoch tells the
//! policy — lives here once. The trait is crate-private: it exists so the
//! loop is written once and a test can script an executor, not as an
//! extension point.

use super::EpochRecord;
use crate::error::CannikinError;
use crate::gns::epoch_progress;
use crate::perf::Analyzer;
use crate::policy::{EpochObservation, EpochPlan, Policy, PolicyContext};

use cannikin_telemetry::{self as telemetry, Event, PolicyDecision, SplitDecision};
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
    /// Effective epochs of progress before this one.
    pub progress: f64,
    pub plan: EpochPlan,
    /// Wall time the policy spent planning (Table 6 overhead), s.
    pub plan_seconds: f64,
    pub analyzer: &'a mut Analyzer,
}

/// What an executor hands back.
pub(crate) struct Executed {
    /// The epoch as it ran: `total_batch` and `local_batches` are the
    /// split that actually finished it (a mid-epoch replan may have
    /// changed it), which becomes the next context's `last_split`. The
    /// driver fills the progress fields, `effective_epochs` and
    /// `cumulative_time`.
    pub record: EpochRecord,
    /// Observed per-sample time per node from the epoch's last batch, fed
    /// to [`Policy::tell`].
    pub per_sample_times: Vec<f64>,
    /// The node set changed while the epoch ran.
    pub membership_changed: bool,
}

/// "Run this plan for one epoch, feed the analyzer, return per-node
/// measurements."
pub(crate) trait Executor {
    /// Current node count.
    fn nodes(&self) -> usize;

    fn bounds(&self) -> Bounds;

    /// Gradient noise scale after `progress` effective epochs, when known.
    fn phi(&self, progress: f64) -> Option<f64>;

    /// A fresh analyzer sized (and memory-capped) for the current nodes.
    fn new_analyzer(&self) -> Analyzer;

    /// Run one epoch.
    ///
    /// # Errors
    ///
    /// Communication failures beyond recovery, or a fault plan that never
    /// lets a step complete.
    fn execute(&mut self, round: Round<'_>) -> Result<Executed, CannikinError>;
}

/// The epoch loop over any executor.
pub(crate) struct Driver<E: Executor> {
    pub exec: E,
    pub analyzer: Analyzer,
    pub policy: Box<dyn Policy>,
    /// Epochs run so far (the next epoch's index).
    pub epoch: usize,
    /// The split the previous epoch finished with (empty before epoch 0
    /// and after a membership change).
    pub last_split: Vec<u64>,
    /// Cumulative statistically-effective epochs so far.
    pub effective_epochs: f64,
    /// The executor's clock so far, s: every epoch's time plus charges
    /// restored with the progress.
    pub cumulative_time: f64,
}

impl<E: Executor> Driver<E> {
    pub fn new(exec: E, policy: Box<dyn Policy>) -> Self {
        let analyzer = exec.new_analyzer();
        Driver { exec, analyzer, policy, epoch: 0, last_split: Vec::new(), effective_epochs: 0.0, cumulative_time: 0.0 }
    }

    /// The node set changed between epochs: the policy drops state keyed
    /// to the old cluster shape and the next plan starts from no split.
    pub fn on_membership_change(&mut self) {
        self.policy.on_membership_change(self.exec.nodes());
        self.last_split.clear();
    }

    /// Run one epoch: ask → execute → account the progress → tell.
    ///
    /// # Errors
    ///
    /// Propagates policy and executor failures; the epoch counter, last
    /// split and progress are left untouched so the caller may retry.
    pub fn run_epoch(&mut self) -> Result<EpochRecord, CannikinError> {
        let _epoch_span = telemetry::span("epoch");
        let n = self.exec.nodes();
        let bounds = self.exec.bounds();
        let phi = self.exec.phi(self.effective_epochs);

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

        let round =
            Round { epoch: self.epoch, progress: self.effective_epochs, plan, plan_seconds, analyzer: &mut self.analyzer };
        let Executed { mut record, per_sample_times, membership_changed } = self.exec.execute(round)?;
        if membership_changed {
            self.policy.on_membership_change(self.exec.nodes());
        }
        let gain = epoch_progress(record.steps, record.total_batch, record.efficiency, bounds.dataset_size);
        self.effective_epochs += gain;
        self.cumulative_time += record.epoch_time;
        record.effective_epochs = self.effective_epochs;
        record.cumulative_time = self.cumulative_time;
        // The goodput reward is effective epochs gained per second of the
        // executor's clock; leaving the host's optimizer overhead out
        // keeps learning policies deterministic under seed on the
        // simulated path.
        self.policy.tell(&EpochObservation {
            epoch: record.epoch,
            total: record.total_batch,
            local: record.local_batches.clone(),
            epoch_time: record.epoch_time,
            mean_batch_time: record.mean_batch_time,
            efficiency: record.efficiency,
            goodput: gain / record.epoch_time,
            phi: record.noise_scale,
            per_sample_times,
        });
        self.epoch += 1;
        self.last_split.clone_from(&record.local_batches);
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::MeasurementAggregation;
    use crate::policy::{build_sim_policy, PolicyKind};
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
        fn nodes(&self) -> usize {
            self.per_sample.len()
        }

        fn bounds(&self) -> Bounds {
            Bounds { adaptive: true, base_batch: 32, max_batch: 128, dataset_size: 4_096 }
        }

        fn phi(&self, progress: f64) -> Option<f64> {
            Some(200.0 * (1.0 + progress))
        }

        fn new_analyzer(&self) -> Analyzer {
            Analyzer::new(self.nodes(), MeasurementAggregation::InverseVariance)
        }

        fn execute(&mut self, round: Round<'_>) -> Result<Executed, CannikinError> {
            telemetry::counter("execute", round.epoch as f64);
            let phi = self.phi(round.progress).expect("scripted φ");
            let local = round.plan.local;
            let mut epoch_time = 0.0;
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
                epoch_time += observations.iter().map(|o| o.a_time + o.p_time).fold(0.0, f64::max);
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
            let record = EpochRecord {
                epoch: round.epoch,
                total_batch: round.plan.total,
                local_batches: local,
                steps: 6,
                epoch_time,
                mean_batch_time: epoch_time / 6.0,
                noise_scale: Some(phi),
                efficiency: crate::gns::statistical_efficiency(phi, 32, round.plan.total),
                effective_epochs: f64::NAN,
                cumulative_time: f64::NAN,
                overhead_seconds: round.plan_seconds,
                pattern: round.plan.pattern,
                used_model: round.plan.used_model,
                faults: 0,
                recoveries: 0,
                mean_loss: f64::NAN,
                accuracy: f64::NAN,
                comm_bytes: 0,
                comm_overlap: 0.0,
            };
            Ok(Executed { record, per_sample_times: self.per_sample.clone(), membership_changed: false })
        }
    }

    /// A built-in policy that also records what the driver showed it.
    struct Recording {
        inner: Box<dyn Policy>,
        asked: Arc<Mutex<Vec<PolicyContext>>>,
        told: Arc<Mutex<Vec<EpochObservation>>>,
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
            self.told.lock().expect("log").push(obs.clone());
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
                Event::Counter(c) if ["ask", "execute", "tell"].contains(&c.name.as_str()) => Some(c.name),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn one_loop_serves_every_policy_kind() {
        for kind in [PolicyKind::OptPerf, PolicyKind::Even, PolicyKind::LbBsp, PolicyKind::Rl] {
            let asked = Arc::new(Mutex::new(Vec::new()));
            let told = Arc::new(Mutex::new(Vec::new()));
            let memberships = Arc::new(Mutex::new(Vec::new()));
            let policy = Recording {
                inner: build_sim_policy(kind, 32, 3, 128),
                asked: Arc::clone(&asked),
                told: Arc::clone(&told),
                memberships: Arc::clone(&memberships),
            };
            let exec = Scripted { per_sample: vec![0.001, 0.002, 0.004], finished: Vec::new() };
            let mut driver = Driver::new(exec, Box::new(policy));
            let session = Session::start();

            // Two healthy epochs, then node 1 slows 3x: the next ask must
            // see the per-sample times the slowed epoch ended with.
            let mut seen_per_sample = Vec::new();
            let mut records = Vec::new();
            for epoch in 0..3 {
                if epoch == 2 {
                    driver.exec.per_sample[1] *= 3.0;
                }
                records.push(driver.run_epoch().expect("scripted epoch"));
                assert_eq!(phases(&session), ["ask", "execute", "tell"], "{kind}: epoch {epoch} phase order");
                seen_per_sample.push(
                    (0..3).map(|i| driver.analyzer.per_sample_time(i).unwrap_or(1.0)).collect::<Vec<f64>>(),
                );
            }

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

            // The driver accounts the progress once and tells each policy
            // the record's own values, the reward in effective epochs/s.
            {
                let told = told.lock().expect("log");
                let (mut progress, mut clock) = (0.0, 0.0);
                for (k, (obs, r)) in told.iter().zip(&records).enumerate() {
                    let gain = epoch_progress(r.steps, r.total_batch, r.efficiency, 4_096);
                    progress += gain;
                    clock += r.epoch_time;
                    assert_eq!(r.effective_epochs.to_bits(), progress.to_bits(), "{kind}: epoch {k} progress");
                    assert_eq!(r.cumulative_time.to_bits(), clock.to_bits(), "{kind}: epoch {k} clock");
                    let ran = (r.epoch, r.total_batch, &r.local_batches);
                    assert_eq!((obs.epoch, obs.total, &obs.local), ran, "{kind}: epoch {k}");
                    assert_eq!(obs.epoch_time.to_bits(), r.epoch_time.to_bits(), "{kind}: epoch {k}");
                    assert_eq!(obs.mean_batch_time.to_bits(), r.mean_batch_time.to_bits(), "{kind}: epoch {k}");
                    assert_eq!(obs.efficiency.to_bits(), r.efficiency.to_bits(), "{kind}: epoch {k}");
                    assert_eq!(obs.phi, r.noise_scale, "{kind}: epoch {k}");
                    assert_eq!(obs.goodput.to_bits(), (gain / r.epoch_time).to_bits(), "{kind}: epoch {k} reward");
                }
                assert_eq!(told.len(), 3, "{kind}: told once per epoch");
                // φ follows the driver's progress: epoch k planned under
                // the progress of the epochs before it.
                assert_eq!(asked.lock().expect("log")[2].phi, Some(200.0 * (1.0 + records[1].effective_epochs)));
            }

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
