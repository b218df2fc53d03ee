//! The simulator-driven Cannikin training loop (Fig. 4).

use super::driver::{Bounds, Driver, Executed, Executor, Round};
use super::{EpochRecord, NoiseModel};
use crate::error::CannikinError;
use crate::gns::statistical_efficiency;
use crate::optperf::{bootstrap_split, even_split, OptPerfSolver};
use crate::perf::{Analyzer, MeasurementAggregation};
use crate::policy::{EpochObservation, Policy};

use cannikin_collectives::{CommError, CommGroup, TransportKind};
use cannikin_insight::{HealthReport, Monitor};
use cannikin_telemetry::{
    self as telemetry, Event, FaultKind, RecoveryAction, RecoveryKind, SplitDecision, SplitSource,
};
use hetsim::Simulator;
use std::time::Instant;

/// Configuration of a Cannikin training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerConfig {
    /// Samples per (synthetic) dataset epoch.
    pub dataset_size: usize,
    /// Initial/reference total batch size B₀ (Table 5).
    pub base_batch: u64,
    /// Upper end of the admissible total-batch range.
    pub max_batch: u64,
    /// Measurement aggregation for the cluster constants (IVW vs naive —
    /// the §5.3 ablation).
    pub aggregation: MeasurementAggregation,
    /// Whether the total batch size adapts (false pins it to
    /// `base_batch`, isolating the local-split optimization for the
    /// fixed-batch experiments of §5.2.2).
    pub adaptive_batch: bool,
}

impl TrainerConfig {
    /// A sensible default configuration for a workload.
    pub fn new(dataset_size: usize, base_batch: u64, max_batch: u64) -> Self {
        TrainerConfig {
            dataset_size,
            base_batch,
            max_batch,
            aggregation: MeasurementAggregation::InverseVariance,
            adaptive_batch: true,
        }
    }
}

/// The Cannikin system driving a simulated heterogeneous cluster.
///
/// Epoch 0 splits evenly; epoch 1 uses the Eq. (8) bootstrap (which also
/// guarantees two distinct local batch sizes per node, unlocking the
/// linear model); from epoch 2 the full pipeline runs: learned models →
/// OptPerf solver → goodput-maximizing batch size → `HeteroDataLoader`
/// split.
///
/// A thin shell over the shared epoch `Driver` with a `SimExecutor`
/// behind it.
pub struct CannikinTrainer {
    driver: Driver<SimExecutor>,
}

impl CannikinTrainer {
    /// A fresh [`CannikinTrainerBuilder`](super::CannikinTrainerBuilder) —
    /// the supported construction path.
    pub fn builder() -> super::CannikinTrainerBuilder {
        super::CannikinTrainerBuilder::new()
    }

    /// `config` has been validated by the builder (batch range covers the
    /// cluster).
    pub(crate) fn from_parts(
        sim: Simulator,
        noise: Box<dyn NoiseModel>,
        config: TrainerConfig,
        transport: Option<TransportKind>,
        policy: Box<dyn Policy>,
    ) -> Self {
        let exec =
            SimExecutor { sim, noise, config, effective_epochs: 0.0, cumulative_time: 0.0, transport, comm_bytes: 0 };
        CannikinTrainer { driver: Driver::new(exec, policy) }
    }

    /// Cumulative bytes moved on the wire by the per-epoch cluster-metric
    /// exchange (0 when no transport is configured).
    pub fn comm_bytes(&self) -> u64 {
        self.driver.exec.comm_bytes
    }

    /// Attach an online [`Monitor`]: at the end of every epoch the trainer
    /// drains its fresh anomalies, records a `health_anomalies` counter,
    /// and forces a re-profile of any node the monitor flagged as a
    /// straggler (its compute-law observations are discarded, so the next
    /// epoch falls back to the Eq. (8) bootstrap and re-measures before
    /// the OptPerf model re-engages).
    pub fn attach_monitor(&mut self, monitor: Monitor) {
        self.driver.monitor = Some(monitor);
    }

    /// The attached monitor's current health report, if one is installed.
    pub fn health(&self) -> Option<HealthReport> {
        self.driver.health()
    }

    /// Warm-start from a checkpointed model (a `SolverInput` saved from a
    /// previous run of the same job on the same cluster): the bootstrap
    /// epochs are skipped and the first epoch already trains on the
    /// OptPerf split.
    pub fn warm_start(&mut self, checkpoint: &crate::optperf::SolverInput) {
        self.driver.analyzer.preload_models(checkpoint);
        self.driver.policy.on_warm_start();
    }

    /// The underlying simulator (e.g. to inject contention mid-run).
    pub fn simulator_mut(&mut self) -> &mut Simulator {
        &mut self.driver.exec.sim
    }

    /// React to an elastic-scheduler event that changed the cluster
    /// membership (the simulator's nodes were added/removed via
    /// [`Simulator::add_node`] / [`Simulator::remove_node`]): the analyzer
    /// is rebuilt for the new node set, the candidate cache is dropped, and
    /// the next epochs re-profile via the bootstrap path while training
    /// continues.
    pub fn on_cluster_change(&mut self) {
        let n = self.driver.exec.nodes();
        let prev_total: u64 = self.driver.last_split.iter().sum();
        self.driver.analyzer = self.driver.exec.new_analyzer();
        self.driver.on_membership_change();
        // Re-profile at (roughly) the previous total batch rather than
        // dropping back to B₀: the statistical operating point is a
        // property of the *job*, not of the cluster, and reverting to tiny
        // batches would waste hundreds of large-dataset steps per
        // bootstrap epoch.
        let resume = prev_total.max(self.driver.exec.config.base_batch).max(n as u64);
        self.driver.last_split = even_split(resume, n);
    }

    /// The analyzer's current state (inspection/tests).
    pub fn analyzer(&self) -> &Analyzer {
        &self.driver.analyzer
    }

    /// Cumulative statistically-effective epochs so far.
    pub fn effective_epochs(&self) -> f64 {
        self.driver.exec.effective_epochs
    }

    /// Cumulative wall time (simulated epoch time plus measured optimizer
    /// overhead) so far, s.
    pub fn cumulative_time(&self) -> f64 {
        self.driver.exec.cumulative_time
    }

    /// Epochs run so far (the next epoch's index).
    pub fn epochs_run(&self) -> usize {
        self.driver.epoch
    }

    /// The noise model's gradient noise scale φ at the current progress —
    /// the demand signal a fleet-level allocator reads to decide whether
    /// this job is starved of statistical efficiency or past its knee.
    pub fn noise_scale_now(&self) -> f64 {
        self.driver.exec.noise_scale_now()
    }

    /// Restore checkpointed statistical progress after a full preemption:
    /// a re-admitted job resumes its effective-epoch count, wall clock and
    /// epoch index instead of restarting from zero. Performance models are
    /// *not* restored — the new node set re-profiles through the Eq. (8)
    /// bootstrap (or a [`CannikinTrainer::warm_start`], when the membership
    /// is unchanged).
    pub fn restore_progress(&mut self, effective_epochs: f64, cumulative_time: f64, epochs_run: usize) {
        self.driver.exec.effective_epochs = effective_epochs;
        self.driver.exec.cumulative_time = cumulative_time;
        self.driver.epoch = epochs_run;
    }

    /// Run one epoch and return its record.
    ///
    /// # Errors
    ///
    /// A configured metric exchange that fails, or a fault plan that never
    /// lets a step complete. Solver infeasibility does not abort the epoch:
    /// the policy degrades it to the bootstrap split.
    pub fn run_epoch(&mut self) -> Result<EpochRecord, CannikinError> {
        self.driver.run_epoch()
    }

    /// Run `n` epochs.
    ///
    /// # Errors
    ///
    /// Stops at the first failed epoch.
    pub fn run_epochs(&mut self, n: usize) -> Result<Vec<EpochRecord>, CannikinError> {
        (0..n).map(|_| self.run_epoch()).collect()
    }

    /// Run until `target` effective epochs of statistical progress have
    /// accumulated (the convergence experiments) or `max_epochs` elapse.
    ///
    /// # Errors
    ///
    /// Stops at the first failed epoch.
    pub fn train_until(&mut self, target: f64, max_epochs: usize) -> Result<Vec<EpochRecord>, CannikinError> {
        let mut out = Vec::new();
        while self.effective_epochs() < target && out.len() < max_epochs {
            out.push(self.run_epoch()?);
        }
        Ok(out)
    }
}

impl std::fmt::Debug for CannikinTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CannikinTrainer(epoch {}, eff. epochs {:.2}, cluster {})",
            self.driver.epoch,
            self.effective_epochs(),
            self.driver.exec.sim.cluster().name
        )
    }
}

/// Consecutive failed steps after which the fault plan is declared wedged.
const MAX_CONSECUTIVE_FAILURES: u32 = 10_000;

/// The simulated problem: hetsim physics, the fault-aware step loop, the
/// noise-model φ and the optional cluster-metric exchange.
pub(crate) struct SimExecutor {
    sim: Simulator,
    noise: Box<dyn NoiseModel>,
    config: TrainerConfig,
    effective_epochs: f64,
    cumulative_time: f64,
    transport: Option<TransportKind>,
    comm_bytes: u64,
}

impl Executor for SimExecutor {
    type Report = EpochRecord;

    fn nodes(&self) -> usize {
        self.sim.cluster().len()
    }

    fn bounds(&self) -> Bounds {
        Bounds {
            adaptive: self.config.adaptive_batch,
            base_batch: self.config.base_batch,
            max_batch: self.config.max_batch,
            dataset_size: self.config.dataset_size,
        }
    }

    fn phi(&self) -> Option<f64> {
        Some(self.noise_scale_now())
    }

    fn new_analyzer(&self) -> Analyzer {
        let n = self.nodes();
        let caps: Vec<Option<u64>> = (0..n).map(|i| Some(self.sim.max_local_batch(i))).collect();
        Analyzer::new(n, self.config.aggregation).with_max_batches(caps)
    }

    /// One loop serves every epoch: each optimizer step is
    /// `accumulation − 1` no-sync micro-batches then one synchronized
    /// batch, and every batch may surface injected faults the engine must
    /// react to *mid-epoch* — evict crashed or departing nodes, admit
    /// joiners, re-solve the split at the same total batch, and retry
    /// steps whose gradient exchange was lost. A failed step contributes
    /// simulated wall time but no observations and no samples, so nothing
    /// is double-counted. Without a fault plan no batch carries a fault and
    /// the loop degenerates to `steps` plain batches.
    fn execute(&mut self, round: Round<'_>) -> Result<Executed<EpochRecord>, CannikinError> {
        let Round { epoch, plan, plan_seconds, analyzer } = round;
        let phi = self.noise_scale_now();
        let (mut total, mut local) = (plan.total, plan.local);
        let accumulation = plan.accumulation;
        let steps = (self.config.dataset_size / total as usize).max(1);
        // Model fitting (absorbing batch observations into the analyzer) is
        // real optimizer work and counts toward the Table 6 overhead, even
        // though it happens interleaved with the simulated batches.
        let mut fit_seconds = 0.0;
        let mut observe = |analyzer: &mut Analyzer, batch: &hetsim::trace::BatchTrace, step: usize| {
            if telemetry::enabled() {
                for obs in &batch.observations {
                    telemetry::emit(obs.step_timing(step as u64));
                }
            }
            let fit_started = Instant::now();
            analyzer.observe_batch(batch);
            fit_seconds += fit_started.elapsed().as_secs_f64();
        };
        let mut faults_seen = 0u32;
        let mut recoveries = 0u32;
        let mut replan_seconds = 0.0;
        let mut membership_changed = false;
        let sim_span = telemetry::span("simulate");
        let mut epoch_time = 0.0;
        let mut completed = 0usize;
        let mut consecutive_failures = 0u32;
        let mut micros = Vec::new();
        // The epoch's last completed batch, as its nodes observed it.
        let mut last_observed = Vec::new();
        while completed < steps {
            micros.clear();
            for _ in 1..accumulation {
                let micro = self.sim.simulate_microbatch(&local);
                epoch_time += micro.batch_time;
                micros.push(micro);
            }
            let mut batch = self.sim.simulate_batch(&local);
            epoch_time += batch.batch_time;
            faults_seen += batch.faults.len() as u32;
            for fault in &batch.faults {
                telemetry::emit(Event::FaultInjected(*fault));
            }
            let failed = batch.is_failed();
            if failed {
                consecutive_failures += 1;
                if consecutive_failures >= MAX_CONSECUTIVE_FAILURES {
                    return Err(CannikinError::Comm(CommError::RetriesExhausted { attempts: consecutive_failures }));
                }
            } else {
                // Only a completed step feeds the models — a retried
                // step's micro-batches would otherwise be seen twice.
                for micro in &micros {
                    observe(analyzer, micro, completed);
                }
                observe(analyzer, &batch, completed);
                last_observed = std::mem::take(&mut batch.observations);
                completed += 1;
                consecutive_failures = 0;
            }
            // Membership changes: crashed nodes (their step already
            // failed) and graceful leavers (their step completed).
            let mut gone: Vec<usize> = batch
                .faults
                .iter()
                .filter(|f| matches!(f.kind, FaultKind::NodeCrash | FaultKind::NodeLeave))
                .filter_map(|f| f.node.map(|n| n as usize))
                .collect();
            gone.sort_unstable();
            gone.dedup();
            let recovery = |kind, node: Option<usize>, attempt| {
                telemetry::emit(Event::RecoveryAction(RecoveryAction {
                    kind,
                    node: node.map(|n| n as u32),
                    step: completed as u64,
                    attempt,
                    backoff_ns: 0,
                }));
            };
            let mut step_changed = false;
            for &node in gone.iter().rev() {
                if self.sim.cluster().len() <= 1 {
                    break; // never evict the last survivor
                }
                self.sim.remove_node(node);
                analyzer.remove_node(node);
                recoveries += 1;
                recovery(RecoveryKind::GroupShrink, Some(node), 1);
                step_changed = true;
            }
            for spec in self.sim.take_pending_joins() {
                self.sim.add_node(spec);
                let new_idx = self.sim.cluster().len() - 1;
                analyzer.add_node(Some(self.sim.max_local_batch(new_idx)));
                recoveries += 1;
                recovery(RecoveryKind::GroupGrow, Some(new_idx), 1);
                step_changed = true;
            }
            if step_changed {
                membership_changed = true;
                let replan_started = Instant::now();
                local = self.replan_split(total, analyzer);
                total = local.iter().sum();
                replan_seconds += replan_started.elapsed().as_secs_f64();
                recoveries += 1;
                recovery(RecoveryKind::Replan, None, 1);
                if telemetry::enabled() {
                    telemetry::emit(Event::SplitDecision(SplitDecision {
                        total,
                        local: local.clone(),
                        predicted_t: None,
                        source: SplitSource::Bootstrap,
                    }));
                }
            } else if failed {
                // Transient loss of the gradient exchange with the
                // membership intact: retry the same step.
                recoveries += 1;
                recovery(RecoveryKind::StepRetry, None, consecutive_failures);
            }
        }
        let mean_batch_time = epoch_time / steps as f64;
        drop(sim_span);
        // Per-sample times of that batch, fed back to the policy through
        // `tell` (the LB-BSP rebalance signal).
        let tell_per_sample: Vec<f64> =
            last_observed.iter().map(|o| (o.a_time + o.p_time) / o.local_batch.max(1) as f64).collect();
        let overhead_seconds = plan_seconds + fit_seconds + replan_seconds;

        telemetry::counter("epoch_time_s", epoch_time);
        telemetry::counter("overhead_s", overhead_seconds);
        self.exchange_metrics(&local, analyzer)?;

        let efficiency = statistical_efficiency(phi, self.config.base_batch, total);
        let effective = steps as f64 * total as f64 * efficiency / self.config.dataset_size as f64;
        self.effective_epochs += effective;
        self.cumulative_time += epoch_time + overhead_seconds;
        let report = EpochRecord {
            epoch,
            total_batch: total,
            local_batches: local.clone(),
            steps,
            accumulation,
            epoch_time,
            mean_batch_time,
            noise_scale: phi,
            efficiency,
            effective_epochs: self.effective_epochs,
            cumulative_time: self.cumulative_time,
            overhead_seconds,
            pattern: plan.pattern,
            used_model: plan.used_model,
            faults: faults_seen,
            recoveries,
        };
        // The goodput reward is effective epochs gained per *simulated*
        // second — excluding wall-clock optimizer overhead keeps learning
        // policies deterministic under seed.
        let observation = EpochObservation {
            epoch,
            total,
            local,
            epoch_time,
            mean_batch_time,
            efficiency,
            goodput: effective / epoch_time,
            phi: Some(phi),
            per_sample_times: tell_per_sample,
        };
        Ok(Executed { observation, membership_changed, report })
    }
}

impl SimExecutor {
    fn noise_scale_now(&self) -> f64 {
        self.noise.noise_scale(self.effective_epochs)
    }

    /// End-of-epoch cluster-metric exchange over a *real* comm group (the
    /// configured [`TransportKind`]): every node all-gathers its local
    /// batch size and fitted per-sample time, exactly the control-plane
    /// traffic the distributed deployment pays each epoch. The
    /// simulator-driven trainer has no gradients to move, so this is the
    /// path that exercises real sockets (and their byte accounting) at
    /// paper scale; a `comm_bytes` counter records the wire traffic.
    fn exchange_metrics(&mut self, local: &[u64], analyzer: &Analyzer) -> Result<(), CannikinError> {
        let Some(kind) = self.transport.clone() else { return Ok(()) };
        let n = local.len();
        let comms = CommGroup::with_kind(n, &kind, None)?;
        let _comm_span = telemetry::span("metric_exchange");
        let mut handles = Vec::with_capacity(n);
        for (rank, comm) in comms.into_iter().enumerate() {
            let row = vec![local[rank] as f64, analyzer.per_sample_time(rank).unwrap_or(0.0)];
            handles.push(std::thread::spawn(move || comm.gather(&row).map(|_| comm.bytes_sent())));
        }
        // Join every rank before propagating the first failure.
        let joined: Vec<_> = handles.into_iter().map(std::thread::JoinHandle::join).collect();
        let mut bytes = 0u64;
        for (rank, outcome) in joined.into_iter().enumerate() {
            bytes += outcome
                .map_err(|_| CommError::Io { rank, detail: "metric-exchange rank panicked".into() })
                .and_then(|sent| sent)?;
        }
        telemetry::counter("comm_bytes", bytes as f64);
        self.comm_bytes += bytes;
        Ok(())
    }

    /// Mid-epoch split re-solve after an elastic membership change: keep
    /// the same total batch (clamped into the new cluster's feasible
    /// range), prefer the surviving nodes' learned models, and fall back
    /// to the Eq. (8) bootstrap when the model set is incomplete (e.g. an
    /// unprofiled joiner). Preserves the GNS/goodput operating point — the
    /// statistical state belongs to the *job*, not the cluster.
    fn replan_split(&self, total: u64, analyzer: &Analyzer) -> Vec<u64> {
        let n = self.nodes();
        let cap_sum: u64 = (0..n).map(|i| self.sim.max_local_batch(i)).sum();
        let total = total.clamp(n as u64, cap_sum.max(n as u64));
        if let Ok(input) = analyzer.solver_input() {
            if let Ok(plan) = OptPerfSolver::new(input).solve(total) {
                return plan.local_batches;
            }
        }
        let t_samples: Vec<f64> = (0..n).map(|i| analyzer.per_sample_time(i).unwrap_or(1.0)).collect();
        bootstrap_split(&t_samples, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LinearNoiseGrowth;
    use hetsim::catalog::Gpu;
    use hetsim::cluster::{ClusterSpec, NodeSpec};
    use hetsim::job::JobSpec;

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

    fn trainer(adaptive: bool) -> CannikinTrainer {
        let sim = Simulator::new(cluster(), JobSpec::resnet18_cifar10(), 11);
        CannikinTrainer::builder()
            .simulator(sim)
            .noise(LinearNoiseGrowth { initial: 300.0, rate: 1.0 })
            .dataset_size(50_000)
            .batch_range(64, 4096)
            .adaptive_batch(adaptive)
            .transport(TransportKind::InProcess)
            .build()
            .expect("valid config")
    }

    #[test]
    fn first_two_epochs_bootstrap_then_model_kicks_in() {
        let mut t = trainer(true);
        let e0 = t.run_epoch().unwrap();
        assert!(!e0.used_model);
        assert_eq!(e0.local_batches, vec![22, 21, 21]); // even split of 64
        let e1 = t.run_epoch().unwrap();
        assert!(!e1.used_model);
        // Eq. (8): the A100 must get the largest share.
        assert!(e1.local_batches[0] > e1.local_batches[2]);
        let e2 = t.run_epoch().unwrap();
        assert!(e2.used_model, "model should be ready after two distinct splits");
        assert!(e2.pattern.is_some());
    }

    #[test]
    fn adaptive_batch_grows_with_noise() {
        let mut t = trainer(true);
        let records = t.run_epochs(12).unwrap();
        let first_model = records.iter().find(|r| r.used_model).unwrap();
        let last = records.last().unwrap();
        assert!(
            last.total_batch >= first_model.total_batch,
            "batch should not shrink as noise grows: {} -> {}",
            first_model.total_batch,
            last.total_batch
        );
        // Statistical efficiency must be accounted (η ≤ 1 for B ≥ B₀).
        for r in &records {
            assert!(r.efficiency <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn fixed_batch_mode_pins_total() {
        let mut t = trainer(false);
        let records = t.run_epochs(6).unwrap();
        assert!(records.iter().all(|r| r.total_batch == 64));
        // But the split still adapts to heterogeneity once learned.
        let last = records.last().unwrap();
        assert!(last.local_batches[0] > last.local_batches[2]);
    }

    #[test]
    fn model_based_split_beats_even_split_time() {
        // Use the compute-heavy ImageNet job: for the comm-dominated CIFAR
        // job at B=64, rebalancing cannot move the needle much.
        let sim = Simulator::new(cluster(), JobSpec::resnet50_imagenet(), 12);
        let mut t = CannikinTrainer::builder()
            .simulator(sim)
            .dataset_size(20_000)
            .batch_range(128, 1024)
            .adaptive_batch(false)
            .transport(TransportKind::InProcess)
            .build()
            .expect("valid config");
        let records = t.run_epochs(8).unwrap();
        let even_epoch = &records[0]; // even split
        let tuned = records.last().unwrap();
        assert!(
            tuned.mean_batch_time < even_epoch.mean_batch_time * 0.97,
            "tuned {} vs even {}",
            tuned.mean_batch_time,
            even_epoch.mean_batch_time
        );
    }

    #[test]
    fn effective_epochs_accumulate_monotonically() {
        let mut t = trainer(true);
        let records = t.run_epochs(5).unwrap();
        for pair in records.windows(2) {
            assert!(pair[1].effective_epochs > pair[0].effective_epochs);
            assert!(pair[1].cumulative_time > pair[0].cumulative_time);
        }
    }

    #[test]
    fn train_until_reaches_target() {
        let mut t = trainer(true);
        let records = t.train_until(3.0, 100).unwrap();
        assert!(t.effective_epochs() >= 3.0);
        assert!(records.len() >= 3);
    }

    #[test]
    fn overhead_is_small() {
        let mut t = trainer(true);
        let records = t.run_epochs(6).unwrap();
        for r in records.iter().filter(|r| r.used_model) {
            assert!(r.overhead_fraction() < 0.05, "epoch {} overhead {}", r.epoch, r.overhead_fraction());
        }
    }
}

#[cfg(test)]
mod elastic_tests {
    use super::*;
    use hetsim::catalog::Gpu;
    use hetsim::cluster::{ClusterSpec, NodeSpec};
    use hetsim::job::JobSpec;

    #[test]
    fn adding_nodes_mid_run_speeds_up_epochs() {
        let cluster = ClusterSpec::new(
            "grow",
            vec![NodeSpec::new("v100-0", Gpu::V100), NodeSpec::new("rtx-0", Gpu::Rtx6000)],
        );
        let sim = Simulator::new(cluster, JobSpec::resnet50_imagenet(), 13);
        let mut trainer = CannikinTrainer::builder()
            .simulator(sim)
            .dataset_size(12_800)
            .batch_range(128, 128)
            .adaptive_batch(false)
            .transport(TransportKind::InProcess)
            .build()
            .expect("valid config");
        let before = trainer.run_epochs(5).expect("run");
        let t_before = before.last().unwrap().mean_batch_time;

        // The scheduler grants two A100s.
        trainer.simulator_mut().add_node(NodeSpec::new("a100-0", Gpu::A100).with_cpu_factor(1.5));
        trainer.simulator_mut().add_node(NodeSpec::new("a100-1", Gpu::A100).with_cpu_factor(1.5));
        trainer.on_cluster_change();
        let after = trainer.run_epochs(5).expect("run");
        for r in &after {
            assert_eq!(r.local_batches.len(), 4, "epoch {} must cover 4 nodes", r.epoch);
            assert_eq!(r.local_batches.iter().sum::<u64>(), 128);
        }
        let t_after = after.last().unwrap().mean_batch_time;
        assert!(
            t_after < t_before * 0.75,
            "two extra A100s should cut the batch time: {t_before} -> {t_after}"
        );
        // The new fast nodes must end up with the largest shares.
        let last = after.last().unwrap();
        assert!(last.local_batches[2] > last.local_batches[1], "{:?}", last.local_batches);
    }

    #[test]
    fn removing_a_node_keeps_training_consistent() {
        let cluster = ClusterSpec::new(
            "shrink",
            vec![
                NodeSpec::new("a100", Gpu::A100),
                NodeSpec::new("v100", Gpu::V100),
                NodeSpec::new("rtx", Gpu::Rtx6000),
            ],
        );
        let sim = Simulator::new(cluster, JobSpec::resnet18_cifar10(), 14);
        let mut trainer = CannikinTrainer::builder()
            .simulator(sim)
            .dataset_size(50_000)
            .batch_range(64, 1024)
            .transport(TransportKind::InProcess)
            .build()
            .expect("valid config");
        trainer.run_epochs(4).expect("run");
        trainer.simulator_mut().remove_node(2);
        trainer.on_cluster_change();
        let after = trainer.run_epochs(4).expect("run");
        for r in &after {
            assert_eq!(r.local_batches.len(), 2);
            assert_eq!(r.local_batches.iter().sum::<u64>(), r.total_batch);
        }
        assert!(after.last().unwrap().used_model, "model should re-engage after shrink");
    }
}

#[cfg(test)]
mod fault_recovery_tests {
    use super::*;
    use hetsim::catalog::Gpu;
    use hetsim::cluster::{ClusterSpec, NodeSpec};
    use hetsim::job::JobSpec;
    use hetsim::FaultPlan;

    fn cluster() -> ClusterSpec {
        ClusterSpec::new(
            "chaos",
            vec![
                NodeSpec::new("a100", Gpu::A100),
                NodeSpec::new("v100", Gpu::V100),
                NodeSpec::new("rtx", Gpu::Rtx6000),
            ],
        )
    }

    fn trainer_with(plan: FaultPlan) -> CannikinTrainer {
        let sim = Simulator::new(cluster(), JobSpec::resnet18_cifar10(), 21).with_fault_plan(plan);
        CannikinTrainer::builder()
            .simulator(sim)
            .dataset_size(6_400)
            .batch_range(64, 512)
            .adaptive_batch(false)
            .transport(TransportKind::InProcess)
            .build()
            .expect("valid config")
    }

    #[test]
    fn crash_mid_epoch_shrinks_and_resplits_at_same_total() {
        // Node 1 dies during epoch 2 (steps are 100/epoch at B=64).
        let mut t = trainer_with(FaultPlan::new(9).crash_at(250, 1));
        let before = t.run_epochs(2).expect("healthy epochs");
        assert!(before.iter().all(|r| r.faults == 0 && r.recoveries == 0));
        let crash_epoch = t.run_epoch().expect("epoch with the crash");
        assert!(crash_epoch.faults >= 1, "the crash must be surfaced");
        assert!(crash_epoch.recoveries >= 2, "eviction + replan: {}", crash_epoch.recoveries);
        assert_eq!(crash_epoch.local_batches.len(), 2, "dead rank evicted");
        assert_eq!(crash_epoch.local_batches.iter().sum::<u64>(), crash_epoch.total_batch);
        assert_eq!(crash_epoch.total_batch, 64, "total batch preserved across the shrink");
        let after = t.run_epochs(2).expect("post-recovery epochs");
        for r in &after {
            assert_eq!(r.local_batches.len(), 2);
            assert_eq!(r.local_batches.iter().sum::<u64>(), 64);
        }
    }

    #[test]
    fn graceful_leave_does_not_lose_the_departing_step() {
        let mut t = trainer_with(FaultPlan::new(10).leave_at(120, 2));
        let records = t.run_epochs(3).expect("run");
        let leave_epoch = &records[1];
        assert!(leave_epoch.faults >= 1);
        assert_eq!(leave_epoch.local_batches.len(), 2);
        // A graceful leave completes its last step: effective progress per
        // epoch never dips to zero.
        for pair in records.windows(2) {
            assert!(pair[1].effective_epochs > pair[0].effective_epochs);
        }
    }

    #[test]
    fn join_mid_epoch_grows_the_group() {
        let plan = FaultPlan::new(11).join_at(150, NodeSpec::new("late-a100", Gpu::A100));
        let mut t = trainer_with(plan);
        let records = t.run_epochs(3).expect("run");
        let join_epoch = &records[1];
        assert_eq!(join_epoch.local_batches.len(), 4, "joiner admitted mid-epoch");
        assert_eq!(join_epoch.local_batches.iter().sum::<u64>(), join_epoch.total_batch);
        assert!(join_epoch.local_batches.iter().all(|&b| b >= 1), "every node trains");
        assert!(join_epoch.recoveries >= 2, "grow + replan");
    }

    #[test]
    fn transient_comm_loss_retries_without_losing_samples() {
        let mut t = trainer_with(FaultPlan::new(12).transient_comm(0.2, 1));
        let records = t.run_epochs(3).expect("run");
        let faulty: u32 = records.iter().map(|r| r.faults).sum();
        let retries: u32 = records.iter().map(|r| r.recoveries).sum();
        assert!(faulty > 0, "with p=0.2 over 300 steps, failures are certain");
        assert!(retries > 0, "every exhausted exchange must be retried");
        // Every epoch still completes its full step budget — no samples
        // lost (failed steps are re-run) and none double-counted (each
        // record's progress uses the planned step count once).
        for r in &records {
            assert_eq!(r.steps, 100);
            assert_eq!(r.local_batches.iter().sum::<u64>(), r.total_batch);
        }
    }

    #[test]
    fn faulty_run_converges_close_to_fault_free() {
        let healthy = {
            let sim = Simulator::new(cluster(), JobSpec::resnet18_cifar10(), 21);
            let mut t = CannikinTrainer::builder()
                .simulator(sim)
                .dataset_size(6_400)
                .batch_range(64, 512)
                .adaptive_batch(false)
                .transport(TransportKind::InProcess)
                .build()
                .expect("valid config");
            t.run_epochs(4).expect("run")
        };
        let faulty = {
            let mut t = trainer_with(FaultPlan::new(13).transient_comm(0.1, 1).burst_at(50, 2, 10, 3.0));
            t.run_epochs(4).expect("run")
        };
        let eff_h = healthy.last().unwrap().effective_epochs;
        let eff_f = faulty.last().unwrap().effective_epochs;
        assert!((eff_f / eff_h - 1.0).abs() < 1e-9, "same statistical progress: {eff_h} vs {eff_f}");
        let t_h = healthy.last().unwrap().cumulative_time;
        let t_f = faulty.last().unwrap().cumulative_time;
        assert!(t_f > t_h, "faults cost wall time");
        assert!(t_f < t_h * 2.0, "but bounded: {t_h} vs {t_f}");
    }
}

#[cfg(test)]
mod warm_start_tests {
    use super::*;
    use crate::optperf::SolverInput;
    use hetsim::catalog::Gpu;
    use hetsim::cluster::{ClusterSpec, NodeSpec};
    use hetsim::job::JobSpec;

    #[test]
    fn checkpoint_skips_bootstrap_epochs() {
        let cluster = ClusterSpec::new(
            "t",
            vec![
                NodeSpec::new("a100", Gpu::A100),
                NodeSpec::new("v100", Gpu::V100),
                NodeSpec::new("rtx", Gpu::Rtx6000),
            ],
        );
        let job = JobSpec::resnet50_imagenet();
        let checkpoint = SolverInput::from_ground_truth(&cluster, &job);
        let sim = Simulator::new(cluster, job, 19);
        let mut trainer = CannikinTrainer::builder()
            .simulator(sim)
            .dataset_size(12_800)
            .batch_range(128, 128)
            .adaptive_batch(false)
            .warm_start(checkpoint)
            .transport(TransportKind::InProcess)
            .build()
            .expect("valid config");
        let records = trainer.run_epochs(3).expect("run");
        // Epoch 0 already uses the model — no even split, no Eq. (8) epoch.
        assert!(records[0].used_model, "warm start should skip the bootstrap");
        assert!(records[0].local_batches[0] > records[0].local_batches[2]);
        // And the very first epoch is already near the best epoch.
        let best = records.iter().map(|r| r.mean_batch_time).fold(f64::MAX, f64::min);
        assert!(records[0].mean_batch_time < best * 1.05);
    }
}
