//! Functional data-parallel training with real gradients.
//!
//! [`ParallelTrainer`] runs one `minidnn` model replica per OS thread,
//! exchanges gradients with the real bucketed ring all-reduce of
//! `cannikin-collectives`, aggregates them with the Eq. (9) batch-ratio
//! weights, and estimates the gradient noise scale live with Eq. (10) +
//! Theorem 4.1. CPU threads are equally fast, so hardware heterogeneity is
//! emulated with per-node *slowdown factors* (a slow node sleeps in
//! proportion to its measured compute time — the same observable a slower
//! GPU would produce).
//!
//! By default the functional path synchronizes the whole gradient after
//! backpropagation (no bucket overlap), so its timing model is the
//! all-compute-bottleneck special case: `T = max_i t_compute^i + T_comm`
//! and the analyzer is fed `T_o = 0, T_u = T_comm`, under which the
//! OptPerf solver's Check 1 (equal compute times) is exact. With
//! [`ParallelConfig::overlap`] enabled, each rank instead drives the
//! backward pass layer by layer and ships every layer's gradient bucket to
//! a per-step communication worker as soon as it is produced (the DDP
//! bucketing scheme, §3.2.3 of the paper), so all-reduce time hides behind
//! the remaining backward compute; the analyzer is then fed the *exposed*
//! communication time `T_u = T_comm − T_o`.
//!
//! Gradients can additionally travel through a lossy [`Codec`] (bf16/f16
//! quantization or top-k sparsification) with a persistent per-rank
//! [`ErrorFeedback`] residual, cutting bytes on the wire while the
//! compensated trajectory tracks the uncompressed one.
//!
//! Rank state lives as long as the trainer, like a DDP worker process:
//! each rank's replica, optimizer (so momentum carries across epochs),
//! residual and ring endpoint are built once, moved into one scoped thread
//! per rank for the epoch and handed back when it ends. An epoch boundary
//! only sets the learning rate and restarts the fault-plan sequence. A
//! rank that fails or panics drops its state — and with it its endpoint,
//! which is how its peers find out — so the next epoch rebuilds every rank
//! and the ring from the checkpoint rank 0 left at the end of the last
//! epoch that completed (DESIGN.md, "Rank-state lifecycle").

use super::driver::{Bounds, Driver, Executed, Executor, Round};
use super::loader::HeteroDataLoader;
use crate::error::CannikinError;
use crate::gns::{estimate_gns, Aggregation, GnsEstimate, GnsTracker, GradientSample};
use crate::perf::{Analyzer, MeasurementAggregation};
use crate::policy::{EpochObservation, Policy};

use cannikin_collectives::{
    Codec, CommError, CommFaultPlan, CommGroup, Communicator, ErrorFeedback, RetryPolicy, TransportKind,
};
use cannikin_insight::{HealthReport, Monitor};
use cannikin_telemetry::{self as telemetry, AllReduceBucket, Event, RecoveryAction, RecoveryKind, StepTiming};
use hetsim::trace::{BatchTrace, NodeObservation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use minidnn::data::ClassificationDataset;
use minidnn::layers::{
    assign_grads_from, assign_values, flatten_grads_into, flatten_values, num_elements, zero_grads, Layer, Sequential,
};
use minidnn::loss::{Loss, SoftmaxCrossEntropy};
use minidnn::lr::LrScaler;
use minidnn::optim::{Optimizer, Sgd};
use minidnn::tensor::Tensor;

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Configuration of a functional training run.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Per-node slowdown factors, each finite and `>= 1.0` (1.0 = full
    /// speed); the length sets the node count.
    pub slowdowns: Vec<f64>,
    /// Reference/initial total batch size B₀.
    pub base_batch: u64,
    /// Upper bound of the adaptive batch range.
    pub max_batch: u64,
    /// Whether the total batch size adapts via goodput.
    pub adaptive: bool,
    /// Base learning rate at B₀.
    pub base_lr: f64,
    /// Learning-rate scaling rule for grown batches.
    pub lr_scaler: LrScaler,
    /// RNG seed (model init and shuffling).
    pub seed: u64,
    /// Injected gradient-exchange failures, keyed by exchange sequence
    /// number; `Some` arms every rank's exchange with `retry` (receive
    /// timeouts, retry-with-backoff, restore-on-error). `None` leaves it
    /// unarmed.
    pub comm_faults: Option<CommFaultPlan>,
    /// Retry policy of the armed exchange (only used with `comm_faults`).
    pub retry: RetryPolicy,
    /// Collective backend for the gradient exchange: in-process channels
    /// (default) or real localhost TCP sockets. Results are bitwise
    /// identical across backends.
    pub transport: TransportKind,
    /// Gradient compression codec for the exchange (default: lossless raw
    /// `f32`). Lossy codecs run with a persistent per-rank error-feedback
    /// residual so convergence tracks the uncompressed trajectory.
    pub codec: Codec,
    /// Overlap gradient communication with backward compute: each layer's
    /// gradient bucket is all-reduced by a per-step comm worker while
    /// earlier layers still compute (default: `false`, synchronize after
    /// the full backward pass). Ignored — with a sequential fallback — when
    /// `comm_faults` arms the exchange, whose step-retry protocol needs
    /// the whole gradient in one collective.
    pub overlap: bool,
}

impl ParallelConfig {
    /// A 3-node heterogeneous default: one full-speed node, one at 2x
    /// slowdown, one at 4x — cluster-A-like ratios.
    pub fn hetero_default(base_batch: u64) -> Self {
        ParallelConfig {
            slowdowns: vec![1.0, 2.0, 4.0],
            base_batch,
            max_batch: base_batch * 8,
            adaptive: true,
            base_lr: 0.1,
            lr_scaler: LrScaler::AdaScale,
            seed: 17,
            comm_faults: None,
            retry: RetryPolicy::default(),
            transport: TransportKind::InProcess,
            codec: Codec::None,
            overlap: false,
        }
    }
}

/// Per-epoch outcome of the functional trainer.
#[derive(Debug, Clone)]
pub struct ParallelEpochReport {
    /// Epoch index.
    pub epoch: usize,
    /// Total batch size used.
    pub total_batch: u64,
    /// Per-node local batches.
    pub local_batches: Vec<u64>,
    /// Measured wall time of the epoch, s (including emulated slowdowns).
    pub epoch_time: f64,
    /// Mean training loss across steps.
    pub mean_loss: f64,
    /// Training accuracy measured after the epoch (rank 0 replica).
    pub accuracy: f64,
    /// Smoothed gradient noise scale after the epoch, if estimable.
    pub noise_scale: Option<f64>,
    /// Whether the learned performance model produced the split.
    pub used_model: bool,
    /// Gradient-exchange retries this epoch (injected-failure recoveries
    /// plus full-step retries; 0 without `comm_faults`).
    pub comm_retries: u32,
    /// Bytes moved on the wire by this epoch's collectives, summed over
    /// ranks (payload only for the in-process backend; payload plus frame
    /// headers over TCP).
    pub comm_bytes: u64,
    /// Communication time hidden behind backward compute this epoch,
    /// summed over ranks and steps, in seconds (0 unless
    /// [`ParallelConfig::overlap`] is enabled).
    pub comm_overlap: f64,
}

/// Functional Cannikin trainer over OS threads — a thin shell over the
/// shared epoch `Driver` with a `ThreadedExecutor` behind it.
pub struct ParallelTrainer {
    driver: Driver<ThreadedExecutor>,
}

impl ParallelTrainer {
    /// A fresh [`ParallelTrainerBuilder`](super::ParallelTrainerBuilder) —
    /// the supported construction path.
    pub fn builder() -> super::ParallelTrainerBuilder {
        super::ParallelTrainerBuilder::new()
    }

    /// `config` has been validated by the builder (non-empty node set the
    /// batch range covers).
    pub(crate) fn from_parts(
        dataset: ClassificationDataset,
        model_factory: Arc<dyn Fn(u64) -> Sequential + Send + Sync>,
        config: ParallelConfig,
        policy: Box<dyn Policy>,
    ) -> Self {
        let loader = HeteroDataLoader::new(dataset.len(), config.seed);
        let exec = ThreadedExecutor {
            dataset,
            tracker: GnsTracker::new(0.9),
            loader,
            checkpoint: None,
            config,
            model_factory,
            ranks: Vec::new(),
        };
        ParallelTrainer { driver: Driver::new(exec, policy) }
    }

    /// Attach an online [`Monitor`]: after every epoch the trainer drains
    /// its fresh anomalies, records a `health_anomalies` counter, and
    /// discards the compute-law observations of any rank flagged as a
    /// straggler so the next epochs re-profile it via the bootstrap path.
    pub fn attach_monitor(&mut self, monitor: Monitor) {
        self.driver.monitor = Some(monitor);
    }

    /// The attached monitor's current health report, if one is installed.
    pub fn health(&self) -> Option<HealthReport> {
        self.driver.health()
    }

    /// Smoothed gradient noise scale, if available.
    pub fn noise_scale(&self) -> Option<f64> {
        self.driver.exec.tracker.noise_scale()
    }

    /// The analyzer's current state (inspection/tests).
    pub fn analyzer(&self) -> &Analyzer {
        &self.driver.analyzer
    }

    /// Current rank count.
    pub fn world_size(&self) -> usize {
        self.driver.exec.nodes()
    }

    /// The effective configuration (after builder/env resolution).
    pub fn config(&self) -> &ParallelConfig {
        &self.driver.exec.config
    }

    /// Evict a rank (crash or graceful leave): its replica, optimizer and
    /// residual leave with it, the next epoch's ring is formed over the
    /// survivors — who keep theirs — the dead rank's analyzer state is
    /// dropped, and the split is re-planned so `Σ bᵢ = B` over the new
    /// membership. The shared model weights and the GNS tracker carry over
    /// untouched — no training progress is lost.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range or it is the last rank.
    pub fn remove_rank(&mut self, rank: usize) {
        let exec = &mut self.driver.exec;
        let n = exec.nodes();
        assert!(rank < n, "rank {rank} out of range");
        assert!(n > 1, "cannot remove the last rank");
        exec.config.slowdowns.remove(rank);
        // Empty before the first epoch and after a failed one.
        if rank < exec.ranks.len() {
            exec.ranks.remove(rank);
        }
        self.driver.analyzer.remove_node(rank);
        self.driver.on_membership_change();
        self.emit_membership(RecoveryKind::GroupShrink, rank);
    }

    /// Admit a new rank with the given emulated slowdown factor. The next
    /// epoch builds it from the shared weights and rank 0's optimizer state
    /// (what an elastic join broadcasts — a newcomer with its own momentum
    /// would walk away from the other replicas) with a zero residual, and
    /// it is profiled through the bootstrap path over the next epochs.
    ///
    /// # Panics
    ///
    /// Panics if `slowdown < 1` or the base batch cannot cover the grown
    /// membership.
    pub fn add_rank(&mut self, slowdown: f64) {
        assert!(slowdown >= 1.0, "slowdown must be >= 1");
        let exec = &mut self.driver.exec;
        exec.config.slowdowns.push(slowdown);
        assert!(exec.config.base_batch >= exec.nodes() as u64, "base batch must cover every rank");
        self.driver.analyzer.add_node(None);
        self.driver.on_membership_change();
        self.emit_membership(RecoveryKind::GroupGrow, self.world_size() - 1);
    }

    fn emit_membership(&self, kind: RecoveryKind, rank: usize) {
        telemetry::emit(Event::RecoveryAction(RecoveryAction {
            kind,
            node: Some(rank as u32),
            step: self.driver.epoch as u64,
            attempt: 1,
            backoff_ns: 0,
        }));
    }

    /// Run one epoch of real data-parallel training.
    ///
    /// # Errors
    ///
    /// [`CannikinError::Comm`] when the comm group cannot be built (e.g.
    /// TCP rendezvous failure), a rank's gradient exchange fails beyond
    /// recovery — the error is the [`CommError`] that rank observed — or a
    /// rank thread panics (every rank is joined first).
    pub fn run_epoch(&mut self) -> Result<ParallelEpochReport, CannikinError> {
        self.driver.run_epoch()
    }
}

impl std::fmt::Debug for ParallelTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ParallelTrainer(epoch {}, {} nodes)", self.driver.epoch, self.world_size())
    }
}

/// Everything one rank keeps from epoch to epoch.
struct RankState {
    model: Sequential,
    /// Persisted so momentum carries across the epoch boundary.
    opt: Sgd,
    /// Error-feedback residual; `Some` while the codec is lossy.
    feedback: Option<ErrorFeedback>,
    comm: Communicator,
}

/// The real-gradient problem: long-lived rank state run on per-epoch
/// scoped threads, the last-good checkpoint, and the live GNS tracker.
pub(crate) struct ThreadedExecutor {
    dataset: ClassificationDataset,
    config: ParallelConfig,
    /// Rank 0's flat weights at the end of the last epoch that completed
    /// (the first replica's initial weights before that): what a new rank,
    /// and every rank after a failed epoch, starts from.
    checkpoint: Option<Tensor>,
    tracker: GnsTracker,
    loader: HeteroDataLoader,
    model_factory: Arc<dyn Fn(u64) -> Sequential + Send + Sync>,
    /// One state per rank once an epoch has formed the ring; shorter than
    /// the membership after `add_rank`, empty after a failed epoch.
    ranks: Vec<RankState>,
}

impl ThreadedExecutor {
    /// Form a ring over the current membership. Ranks that have state keep
    /// everything but their endpoint; the rest are built from the
    /// checkpoint and rank 0's optimizer state, so every replica applies
    /// the same update to the same weights from the first step on.
    fn regroup(&mut self) -> Result<(), CommError> {
        let config = &self.config;
        let comms =
            CommGroup::with_options(self.nodes(), &config.transport, config.comm_faults.clone(), config.codec)?;
        let mut kept = std::mem::take(&mut self.ranks).into_iter();
        for comm in comms {
            let state = match kept.next() {
                Some(state) => RankState { comm, ..state },
                None => self.new_rank(comm),
            };
            self.ranks.push(state);
        }
        Ok(())
    }

    fn new_rank(&mut self, comm: Communicator) -> RankState {
        let mut model = (self.model_factory)(self.config.seed);
        match &self.checkpoint {
            Some(weights) => assign_values(&mut model.parameters_mut(), weights),
            None => self.checkpoint = Some(flatten_values(&model.parameters())),
        }
        let opt = match self.ranks.first() {
            Some(first) => first.opt.clone(),
            None => Sgd::new(self.config.base_lr).momentum(0.9),
        };
        let feedback = self.config.codec.is_lossy().then(|| ErrorFeedback::new(num_elements(&model.parameters())));
        RankState { model, opt, feedback, comm }
    }
}

impl Executor for ThreadedExecutor {
    type Report = ParallelEpochReport;

    fn nodes(&self) -> usize {
        self.config.slowdowns.len()
    }

    fn bounds(&self) -> Bounds {
        Bounds {
            adaptive: self.config.adaptive,
            base_batch: self.config.base_batch,
            max_batch: self.config.max_batch,
            dataset_size: self.dataset.len(),
        }
    }

    fn phi(&self) -> Option<f64> {
        self.tracker.noise_scale()
    }

    fn new_analyzer(&self) -> Analyzer {
        Analyzer::new(self.nodes(), MeasurementAggregation::InverseVariance)
    }

    fn execute(&mut self, round: Round<'_>) -> Result<Executed<ParallelEpochReport>, CannikinError> {
        let Round { epoch, plan, analyzer, .. } = round;
        let n = self.nodes();
        let (total, local) = (plan.total, plan.local);

        // Even steps use the planned split, odd steps a ~25%-perturbed
        // variant: every node sees two well-separated local batch sizes
        // *within* the same epoch, so its linear compute model is fit
        // under identical thermal conditions (cross-epoch timing drift on
        // real threads would otherwise poison the slopes).
        let odd = measurement_variant(&local);
        let schedule = self.loader.next_epoch_alternating(&local, &odd);
        let steps = schedule.steps().max(1);
        let step_totals = [local.iter().sum::<u64>(), odd.iter().sum::<u64>()];
        let phi = self.tracker.noise_scale();
        let lr = self.config.lr_scaler.scaled_lr(self.config.base_lr, self.config.base_batch, total, phi);
        // A fault plan's presence is what arms the exchange's retry.
        let retry = self.config.comm_faults.is_some().then_some(self.config.retry);

        // The first epoch, a membership change and a failed epoch leave
        // the states out of step with the membership; otherwise ranks and
        // ring carry over and only the per-epoch knobs are set.
        if self.ranks.len() != n || self.ranks[0].comm.world_size() != n {
            self.regroup()?;
        }
        for state in &mut self.ranks {
            state.opt.set_learning_rate(lr);
            state.comm.restart_sequence();
        }
        let shared = EpochArgs {
            dataset: &self.dataset,
            step_totals,
            seed: self.config.seed,
            steps,
            // Each replica thread gets a proportional share of the kernel
            // thread budget so n replicas × blocked-matmul fan-out never
            // oversubscribes the machine.
            kernel_threads: minidnn::tensor::threads::replica_share(n),
            retry,
            epoch,
            // The step-retry protocol re-runs the whole exchange as one
            // collective, so overlap falls back to the sequential path.
            overlap: self.config.overlap && retry.is_none(),
            session: telemetry::context(),
        };
        let started = Instant::now();
        // Each state moves into its rank's thread and comes back only with
        // a completed epoch: a rank that fails or panics drops its endpoint
        // there and then, so peers blocked on it see `Dropped` instead of
        // waiting on a ring that will never move again.
        let ranks = std::mem::take(&mut self.ranks);
        let joined: Vec<thread::Result<Result<(RankState, RankOutput), CommError>>> = thread::scope(|s| {
            let handles: Vec<_> = ranks
                .into_iter()
                .enumerate()
                .map(|(rank, state)| {
                    let (shared, batches) = (&shared, schedule.node_batches(rank));
                    let slowdown = self.config.slowdowns[rank];
                    s.spawn(move || run_rank(state, rank, batches, slowdown, shared))
                })
                .collect();
            // Join every thread before propagating a failure.
            handles.into_iter().map(thread::ScopedJoinHandle::join).collect()
        });
        // The error a rank returned wins over a panicked rank's stand-in:
        // it names what the transport saw, and the panic has already
        // printed its own message. Either way `self.ranks` stays empty and
        // the next epoch rebuilds from the checkpoint.
        let mut ranks = Vec::with_capacity(n);
        let mut rank_outputs = Vec::with_capacity(n);
        let mut panicked = None;
        for (rank, outcome) in joined.into_iter().enumerate() {
            match outcome {
                Ok(result) => {
                    let (state, output) = result?;
                    ranks.push(state);
                    rank_outputs.push(output);
                }
                Err(_) => panicked = panicked.or(Some(rank)),
            }
        }
        if let Some(rank) = panicked {
            return Err(CommError::Io { rank, detail: "training rank panicked".into() }.into());
        }
        self.ranks = ranks;
        let epoch_time = started.elapsed().as_secs_f64();
        let comm_bytes: u64 = rank_outputs.iter().map(|r| r.comm_bytes).sum();
        telemetry::counter("comm_bytes", comm_bytes as f64);
        let comm_overlap: f64 = rank_outputs
            .iter()
            .flat_map(|r| r.step_measurements.iter())
            .map(|m| m.overlap)
            .sum();
        if shared.overlap {
            telemetry::counter("comm_overlap_s", comm_overlap);
        }

        // ---- Absorb measurements (discarding thread warm-up steps:
        // freshly spawned ranks run their first batches with cold caches,
        // which would poison the linear fit). ----
        let warmup = if steps > 6 { 3 } else { 0 };
        for step in warmup..steps {
            let observations = rank_outputs
                .iter()
                .enumerate()
                .map(|(node, r)| {
                    let m = r.step_measurements[step];
                    NodeObservation {
                        node,
                        local_batch: m.batch_size,
                        a_time: m.a_time,
                        p_time: m.p_time,
                        sync_start: m.a_time + 0.5 * m.p_time,
                        gamma_obs: 0.5,
                        t_comm_obs: m.comm_time,
                        // Overlapped comm is hidden behind compute, so the
                        // solver only sees the exposed tail (T_u = T_comm −
                        // T_o); on the sequential path overlap is 0 and
                        // this degenerates to T_u = T_comm.
                        t_u_obs: (m.comm_time - m.overlap).max(0.0),
                        rel_variance: 1e-4,
                    }
                })
                .collect();
            analyzer.observe_batch(&BatchTrace {
                observations,
                batch_time: 0.0,
                bucket_sync_end: Vec::new(),
                faults: Vec::new(),
            });
        }
        let rank0 = &rank_outputs[0];
        for est in &rank0.gns_estimates {
            self.tracker.observe(*est);
        }

        // Reward is the measured goodput of this epoch: statistical
        // efficiency at the fresh φ estimate times raw throughput (plain
        // samples/s while no estimate exists yet).
        let mean_batch_time = epoch_time / steps as f64;
        let fresh_phi = self.tracker.noise_scale();
        let (efficiency, realized_goodput) = match fresh_phi {
            Some(phi) => (
                crate::gns::statistical_efficiency(phi, self.config.base_batch, total),
                crate::gns::goodput(phi, self.config.base_batch, total, mean_batch_time),
            ),
            None => (1.0, total as f64 / mean_batch_time),
        };
        let per_sample_times = rank_outputs
            .iter()
            .map(|r| {
                r.step_measurements
                    .last()
                    .map_or(1.0, |m| (m.a_time + m.p_time) / m.batch_size.max(1) as f64)
            })
            .collect();

        // ---- Checkpoint and evaluate replica 0 in place. ----
        let mean_loss = rank0.losses.iter().sum::<f64>() / rank0.losses.len().max(1) as f64;
        let replica = &mut self.ranks[0].model;
        // Old copy out before the new one is made: peak memory matters.
        self.checkpoint = None;
        self.checkpoint = Some(flatten_values(&replica.parameters()));
        let accuracy = evaluate(replica, &self.dataset);

        let report = ParallelEpochReport {
            epoch,
            total_batch: total,
            local_batches: local.clone(),
            epoch_time,
            mean_loss,
            accuracy,
            noise_scale: fresh_phi,
            used_model: plan.used_model,
            comm_retries: rank0.comm_retries,
            comm_bytes,
            comm_overlap,
        };
        let observation = EpochObservation {
            epoch,
            total,
            local,
            epoch_time,
            mean_batch_time,
            efficiency,
            goodput: realized_goodput,
            phi: fresh_phi,
            per_sample_times,
        };
        Ok(Executed { observation, membership_changed: false, report })
    }
}

/// What every rank of one epoch is handed, besides its own state.
struct EpochArgs<'a> {
    dataset: &'a ClassificationDataset,
    /// Total batch of even and of odd steps.
    step_totals: [u64; 2],
    seed: u64,
    steps: usize,
    kernel_threads: usize,
    /// `Some` arms the gradient exchange (set iff a fault plan is).
    retry: Option<RetryPolicy>,
    epoch: usize,
    overlap: bool,
    /// The driving thread's session membership, which each rank thread
    /// joins.
    session: telemetry::Context,
}

#[derive(Debug, Clone, Copy)]
struct StepMeasurement {
    batch_size: u64,
    a_time: f64,
    p_time: f64,
    /// Total communication busy time of the step (exposed + overlapped).
    comm_time: f64,
    /// Portion of `comm_time` hidden behind backward compute (0 on the
    /// sequential path).
    overlap: f64,
}

struct RankOutput {
    losses: Vec<f64>,
    gns_estimates: Vec<GnsEstimate>,
    step_measurements: Vec<StepMeasurement>,
    comm_retries: u32,
    comm_bytes: u64,
}

/// A second split for within-epoch measurement: adjacent node pairs trade
/// ~25% of their smaller share (at least one sample), preserving the sum
/// and the one-sample floor while giving the linear fit real leverage.
fn measurement_variant(split: &[u64]) -> Vec<u64> {
    let mut out = split.to_vec();
    let mut i = 0;
    while i + 1 < out.len() {
        let d = (out[i].min(out[i + 1]) / 4).max(1);
        if out[i + 1] > d {
            out[i] += d;
            out[i + 1] -= d;
        } else if out[i] > d {
            out[i] -= d;
            out[i + 1] += d;
        }
        i += 2;
    }
    if out.len() % 2 == 1 && out.len() >= 3 {
        let last = out.len() - 1;
        let d = (out[last].min(out[0]) / 4).max(1);
        if out[last] > d {
            out[last] -= d;
            out[0] += d;
        } else if out[0] > d {
            out[0] -= d;
            out[last] += d;
        }
    }
    out
}

/// One rank's epoch. The state comes back only with `Ok`: any other way
/// out drops it, endpoint included.
fn run_rank(
    mut state: RankState,
    rank: usize,
    batches: &[Vec<usize>],
    slowdown: f64,
    shared: &EpochArgs<'_>,
) -> Result<(RankState, RankOutput), CommError> {
    let &EpochArgs { dataset, step_totals, seed, steps, kernel_threads, retry, epoch, overlap, session } = shared;
    let RankState { model, opt, feedback, comm } = &mut state;
    // Cap this replica's matmul fan-out at its share of the budget for the
    // lifetime of the rank thread.
    let _budget = minidnn::tensor::threads::ThreadBudgetGuard::new(kernel_threads);
    // This thread records into the session of the thread driving the
    // epoch, if that has one. Every record it emits carries its rank, and
    // step timings carry the step index, so events from concurrently
    // running replicas can never be attributed to the wrong step when the
    // drain interleaves them by timestamp.
    session.enter();
    let _identity = telemetry::set_thread_identity(rank as u32, rank as u32);

    let mut losses = Vec::with_capacity(steps);
    let mut gns_estimates = Vec::with_capacity(steps);
    let mut measurements = Vec::with_capacity(steps);
    // Per-rank backoff jitter, deterministic in (seed, epoch, rank): the
    // same seeded run replays the same retry timeline.
    let mut retry_rng = StdRng::seed_from_u64(seed ^ ((epoch as u64) << 32) ^ (rank as u64).wrapping_mul(0x9E37_79B9));
    let mut comm_retries = 0u32;
    // The endpoint's byte counter runs for its lifetime, not the epoch's.
    let bytes_before = comm.bytes_sent();
    // Flat gradient buffer reused across every step of the epoch (not kept
    // between epochs: an idle trainer should hold no dead copy of the model).
    let mut g: Vec<f32> = Vec::new();
    // Per-layer parameter counts, in forward order — the bucket layout of
    // the overlapped exchange (identical on every rank by the identical-
    // architecture contract).
    let layer_sizes: Vec<usize> = if overlap {
        model.layers().iter().map(|l| num_elements(&l.parameters())).collect()
    } else {
        Vec::new()
    };
    for (step, batch_indices) in batches.iter().take(steps).enumerate() {
        let _step_span = telemetry::span("step");
        let ratio = batch_indices.len() as f64 / step_totals[step % 2] as f64;
        // Forward (+ data load) — the `a_i` phase.
        let t0 = Instant::now();
        let (x, y) = dataset.batch(batch_indices);
        let logits = model.forward(&x, true);
        let (loss, grad) = SoftmaxCrossEntropy.loss(&logits, &y);
        let a_elapsed = t0.elapsed().as_secs_f64();

        let (p_elapsed, comm_time, overlapped, local_sq) = if overlap {
            // Backward + exchange interleaved: buckets ship to the comm
            // worker as their layers finish.
            zero_grads(&mut model.parameters_mut());
            let outcome = overlap_step(OverlapArgs {
                model: &mut *model,
                loss_grad: &grad,
                g: &mut g,
                layer_sizes: &layer_sizes,
                comm: &mut *comm,
                feedback: feedback.as_mut(),
                weight: ratio as f32,
                slowdown,
                forward_elapsed: a_elapsed,
            })?;
            (outcome.p_time, outcome.comm_time, outcome.overlap, outcome.local_sq)
        } else {
            // Backward — the `P_i` phase.
            let t1 = Instant::now();
            zero_grads(&mut model.parameters_mut());
            model.backward(&grad);
            let p_elapsed = t1.elapsed().as_secs_f64();

            // Emulate a slower GPU: stretch this node's compute wall time.
            if slowdown > 1.0 {
                let extra = (a_elapsed + p_elapsed) * (slowdown - 1.0);
                thread::sleep(Duration::from_secs_f64(extra));
            }

            // Gradient exchange: Eq. (9) weighted aggregation + GNS inputs.
            flatten_grads_into(&model.parameters(), &mut g);
            let local_sq = sq_norm(&g);
            let t2 = Instant::now();
            // Injected failures abort before any data moves and exhausted
            // budgets restore the unscaled buffer, so looping until success
            // applies the Eq. (9) scaling exactly once — every rank decides
            // identically (shared plan, lockstep sequence numbers), so no
            // rank can apply an update the others dropped. Unarmed, the
            // first pass ends the loop either way.
            loop {
                match comm.exchange(
                    &mut g,
                    ratio as f32,
                    feedback.as_mut().map(|residual| (residual, 0)),
                    retry.as_ref().map(|policy| (policy, &mut retry_rng)),
                ) {
                    Ok(attempt) => {
                        comm_retries += attempt - 1;
                        break;
                    }
                    Err(CommError::RetriesExhausted { attempts }) => {
                        comm_retries += attempts;
                        telemetry::emit(Event::RecoveryAction(RecoveryAction {
                            kind: RecoveryKind::StepRetry,
                            node: Some(rank as u32),
                            step: step as u64,
                            attempt: comm_retries,
                            backoff_ns: 0,
                        }));
                    }
                    Err(e) => return Err(e),
                }
            }
            (p_elapsed, t2.elapsed().as_secs_f64(), 0.0, local_sq)
        };
        let global_sq = sq_norm(&g);

        // Gather (bᵢ, |gᵢ|²) from every rank for Eq. (10).
        let rows = comm.gather(&[batch_indices.len() as f64, local_sq])?;
        if rank == 0 {
            let samples: Vec<GradientSample> = rows
                .iter()
                .map(|r| GradientSample { local_batch: r[0] as u64, local_sq_norm: r[1] })
                .collect();
            if let Ok(est) = estimate_gns(&samples, global_sq, Aggregation::MinimumVariance) {
                gns_estimates.push(est);
            }
        }

        // Apply the identical global gradient on every replica.
        assign_grads_from(&mut model.parameters_mut(), &g);
        opt.step(&mut model.parameters_mut());

        losses.push(f64::from(loss));
        if telemetry::enabled() {
            telemetry::emit(Event::StepTiming(StepTiming {
                step: step as u64,
                rank: rank as u32,
                b_i: batch_indices.len() as u64,
                t_compute: (a_elapsed + p_elapsed) * slowdown,
                t_comm: comm_time,
                overlap: overlapped,
            }));
        }
        measurements.push(StepMeasurement {
            batch_size: batch_indices.len() as u64,
            a_time: a_elapsed * slowdown,
            p_time: p_elapsed * slowdown,
            comm_time,
            overlap: overlapped,
        });
    }
    // Dead until the next step zeroes them: an idle replica keeps weights,
    // velocity and residual, not a fourth copy of the model.
    for p in model.parameters_mut() {
        p.release_grad();
    }
    let output = RankOutput {
        losses,
        gns_estimates,
        step_measurements: measurements,
        comm_retries,
        comm_bytes: comm.bytes_sent() - bytes_before,
    };
    Ok((state, output))
}

struct OverlapArgs<'a> {
    model: &'a mut Sequential,
    loss_grad: &'a minidnn::tensor::Tensor,
    g: &'a mut Vec<f32>,
    layer_sizes: &'a [usize],
    comm: &'a mut Communicator,
    feedback: Option<&'a mut ErrorFeedback>,
    weight: f32,
    slowdown: f64,
    forward_elapsed: f64,
}

struct OverlapOutcome {
    /// Pure backward compute, s (unscaled — the caller applies `slowdown`).
    p_time: f64,
    /// Total communication busy time, s.
    comm_time: f64,
    /// Portion of `comm_time` that ran while backward still computed, s.
    overlap: f64,
    /// `|g_local|²` of the raw (pre-compensation, pre-scaling) gradient.
    local_sq: f64,
}

/// One overlapped backward + gradient exchange: the backward pass runs
/// layer by layer from the loss down, and as soon as a layer's gradients
/// exist its flat-buffer bucket is handed to a communication worker thread
/// that all-reduces it — tail-first, the order DDP reduces buckets in —
/// while earlier layers still compute. An emulated slow node spreads its
/// slowdown sleep across the per-layer backward steps, so the comm worker
/// overlaps with the stretched compute exactly as it would on genuinely
/// slower hardware.
///
/// The worker calls the same [`Communicator::exchange`] the sequential
/// path does, once per bucket, with the bucket's offset indexing into the
/// persistent [`ErrorFeedback`] residual. Buckets are produced and reduced
/// in the same deterministic order on every rank, preserving the SPMD
/// contract. The first bucket that fails is the step's error; the worker
/// then moves no more data but keeps draining, so the backward pass
/// finishes and the rank leaves the group in one piece.
fn overlap_step(args: OverlapArgs<'_>) -> Result<OverlapOutcome, CommError> {
    let OverlapArgs { model, loss_grad, g, layer_sizes, comm, feedback, weight, slowdown, forward_elapsed } =
        args;
    // Stretch the forward phase first; no bucket exists yet, so there is
    // nothing to overlap with it.
    if slowdown > 1.0 {
        thread::sleep(Duration::from_secs_f64(forward_elapsed * (slowdown - 1.0)));
    }
    let total: usize = layer_sizes.iter().sum();
    g.clear();
    g.resize(total, 0.0);
    // Disjoint per-layer views of the flat gradient, forward order.
    let mut views: Vec<(usize, &mut [f32])> = Vec::with_capacity(layer_sizes.len());
    {
        let mut rest: &mut [f32] = g.as_mut_slice();
        let mut offset = 0usize;
        for &len in layer_sizes {
            let (head, tail) = rest.split_at_mut(len);
            views.push((offset, head));
            offset += len;
            rest = tail;
        }
    }
    let mut p_time = 0.0f64;
    let mut local_sq = 0.0f64;
    let (worked, exposed) = thread::scope(|s| {
        let (tx, rx) = std::sync::mpsc::channel::<(usize, &mut [f32])>();
        let worker = s.spawn(move || {
            let mut feedback = feedback;
            let mut busy = Duration::ZERO;
            let mut buckets: Vec<AllReduceBucket> = Vec::new();
            let mut failed = None;
            for (i, (offset, slice)) in rx.into_iter().enumerate() {
                if failed.is_some() {
                    continue;
                }
                let t = Instant::now();
                let bytes_before = comm.bytes_sent();
                let residual = feedback.as_deref_mut().map(|residual| (residual, offset));
                if let Err(e) = comm.exchange(slice, weight, residual, None) {
                    failed = Some(e);
                    continue;
                }
                let wall = t.elapsed();
                busy += wall;
                buckets.push(AllReduceBucket {
                    bucket: i as u32,
                    elems: slice.len() as u64,
                    wall_ns: wall.as_nanos() as u64,
                    bytes: comm.bytes_sent() - bytes_before,
                });
            }
            match failed {
                Some(e) => Err(e),
                None => Ok((busy, buckets)),
            }
        });
        // Tail-first backward: the bucket nearest the loss is ready (and on
        // the wire) first.
        let mut cur = loss_grad.clone();
        for layer in model.layers_mut().iter_mut().rev() {
            let t = Instant::now();
            cur = layer.backward(&cur);
            let layer_elapsed = t.elapsed().as_secs_f64();
            p_time += layer_elapsed;
            let (offset, slice) = views.pop().expect("one view per layer");
            let mut filled = 0usize;
            for p in layer.parameters() {
                let len = p.len();
                slice[filled..filled + len].copy_from_slice(p.grad.data());
                filled += len;
            }
            local_sq += sq_norm(slice);
            if slowdown > 1.0 {
                thread::sleep(Duration::from_secs_f64(layer_elapsed * (slowdown - 1.0)));
            }
            // Parameterless layers contribute no bucket (identically on
            // every rank, so the collective order stays in lockstep).
            if !slice.is_empty() {
                tx.send((offset, slice)).expect("comm worker alive");
            }
        }
        drop(tx);
        let wait = Instant::now();
        (worker.join().expect("comm worker panicked"), wait.elapsed())
    });
    let (busy, buckets) = worked?;
    if telemetry::enabled() {
        for b in buckets {
            telemetry::emit(Event::AllReduceBucket(b));
        }
    }
    let comm_time = busy.as_secs_f64();
    let overlap = (comm_time - exposed.as_secs_f64()).max(0.0);
    Ok(OverlapOutcome { p_time, comm_time, overlap, local_sq })
}

/// `|values|²` in `f64`, as eight interleaved partial sums: one running
/// total is one chain of dependent adds, a latency apiece, and a rank takes
/// two of these norms over the whole gradient every step.
fn sq_norm(values: &[f32]) -> f64 {
    let square = |v: f32| f64::from(v) * f64::from(v);
    let (lanes, tail) = values.as_chunks::<8>();
    let mut sums = [0.0f64; 8];
    for lane in lanes {
        for (sum, &v) in sums.iter_mut().zip(lane) {
            *sum += square(v);
        }
    }
    sums.iter().sum::<f64>() + tail.iter().map(|&v| square(v)).sum::<f64>()
}

/// Training accuracy over the first 512 samples, in mini-batches: the
/// replica keeps the activations of its last forward pass until the next
/// one, and a 64-row pass leaves little behind.
fn evaluate(model: &mut Sequential, dataset: &ClassificationDataset) -> f64 {
    let sample: Vec<usize> = (0..dataset.len().min(512)).collect();
    let correct: usize = sample
        .chunks(64)
        .map(|chunk| {
            let (x, y) = dataset.batch(chunk);
            let predicted = model.forward(&x, false).argmax_rows();
            predicted.iter().zip(&y).filter(|(p, label)| p == label).count()
        })
        .sum();
    correct as f64 / sample.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidnn::data::{gaussian_blob_images, gaussian_blobs};
    use minidnn::models::{mini_cnn, mlp_classifier};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn config(adaptive: bool) -> ParallelConfig {
        ParallelConfig {
            slowdowns: vec![1.0, 2.0],
            base_batch: 32,
            max_batch: 128,
            adaptive,
            base_lr: 0.05,
            lr_scaler: LrScaler::AdaScale,
            seed: 5,
            comm_faults: None,
            retry: RetryPolicy::default(),
            transport: TransportKind::InProcess,
            codec: Codec::None,
            overlap: false,
        }
    }

    fn trainer(adaptive: bool) -> ParallelTrainer {
        let ds = gaussian_blobs(640, 4, 10, 3);
        ParallelTrainer::builder()
            .dataset(ds)
            .model(|seed| mlp_classifier(10, 24, 4, seed))
            .config(config(adaptive))
            .build()
            .expect("valid config")
    }

    /// The two models the trainer is held to on both step paths: the MLP
    /// over flat blobs, and the CNN over image blobs — a 4-D dataset,
    /// per-layer buckets of very different sizes, and parameterless layers
    /// (`Relu`, `AvgPool2d`) that must put no collective on any rank.
    fn subjects(overlap: bool, codec: Codec) -> [(&'static str, ParallelTrainer); 2] {
        let build = |ds, factory: fn(u64) -> Sequential, mut cfg: ParallelConfig| {
            cfg.overlap = overlap;
            cfg.codec = codec;
            ParallelTrainer::builder().dataset(ds).model(factory).config(cfg).build().expect("valid config")
        };
        let mut cnn = config(false);
        cnn.slowdowns = vec![1.0, 2.0, 4.0];
        cnn.base_batch = 24;
        [
            ("mlp", build(gaussian_blobs(640, 4, 10, 3), |seed| mlp_classifier(10, 24, 4, seed), config(false))),
            ("cnn", build(gaussian_blob_images(192, 4, 3, 8, 3), |seed| mini_cnn(3, 8, 4, seed), cnn)),
        ]
    }

    fn four_epochs(t: &mut ParallelTrainer) -> Vec<ParallelEpochReport> {
        (0..4).map(|_| t.run_epoch().expect("epoch")).collect()
    }

    #[test]
    fn replicas_learn_the_task() {
        for (subject, mut t) in subjects(false, Codec::None) {
            let report = four_epochs(&mut t).pop().unwrap();
            assert!(report.comm_bytes > 0, "{subject}: gradient exchange must move bytes");
            assert!(report.accuracy > 0.9, "{subject}: accuracy {}", report.accuracy);
            assert!(report.mean_loss < 0.5, "{subject}: loss {}", report.mean_loss);
            assert_replicas_agree(&t);
        }
    }

    #[test]
    fn rank_threads_record_into_the_driving_threads_session_and_no_other() {
        let session = telemetry::Session::start();
        // A whole epoch on a thread that holds no session, while ours is
        // live: its rank threads inherit that thread's (non-)membership.
        thread::spawn(|| trainer(false).run_epoch().expect("bystander epoch")).join().expect("bystander");
        assert!(session.drain().is_empty(), "a run that opened no session recorded into ours");

        trainer(false).run_epoch().expect("epoch");
        let records = session.drain();
        let steps_of = |rank: u32| -> Vec<u64> {
            records
                .iter()
                .filter_map(|r| match &r.event {
                    Event::StepTiming(t) if t.rank == rank => {
                        assert_eq!((r.node, r.rank), (rank, rank), "stamped with the rank thread's identity");
                        Some(t.step)
                    }
                    _ => None,
                })
                .collect()
        };
        assert!(!steps_of(0).is_empty(), "rank 0 recorded no step");
        assert_eq!(steps_of(0), (0..steps_of(0).len() as u64).collect::<Vec<_>>(), "in step order");
        assert_eq!(steps_of(1), steps_of(0), "every rank records every step");
    }

    #[test]
    fn gns_becomes_available() {
        let mut t = trainer(false);
        let r = t.run_epoch().expect("epoch");
        assert!(r.noise_scale.is_some(), "GNS should be estimable after one epoch");
        assert!(r.noise_scale.unwrap() > 0.0);
    }

    #[test]
    fn split_adapts_to_slowdown() {
        // Thread timings on loaded CI machines are noisy, so judge the
        // *cumulative* allocation over several post-bootstrap epochs
        // rather than a single epoch's split.
        let mut t = trainer(false);
        let mut fast_total = 0u64;
        let mut slow_total = 0u64;
        let mut model_epochs = 0;
        for epoch in 0..6 {
            let r = t.run_epoch().expect("epoch");
            if epoch >= 2 {
                fast_total += r.local_batches[0];
                slow_total += r.local_batches[1];
                model_epochs += usize::from(r.used_model);
            }
        }
        assert!(
            fast_total > slow_total,
            "the 1x node should receive more work overall: {fast_total} vs {slow_total}"
        );
        assert!(model_epochs >= 1, "the learned model should engage at least once");
    }

    #[test]
    fn losses_decrease_over_epochs() {
        let mut t = trainer(false);
        let first = t.run_epoch().expect("epoch");
        let mut last = t.run_epoch().expect("epoch");
        for _ in 0..2 {
            last = t.run_epoch().expect("epoch");
        }
        assert!(last.mean_loss < first.mean_loss, "{} -> {}", first.mean_loss, last.mean_loss);
    }

    #[test]
    fn resilient_path_is_numerically_identical_to_clean() {
        // Same seed, same even epoch-0 split; the retried gradient
        // exchanges must produce bit-identical models — the strongest form
        // of "no sample lost, none double-counted".
        let clean = trainer(false).run_epoch().expect("epoch");
        let faulty = {
            let mut cfg = config(false);
            cfg.comm_faults = Some(CommFaultPlan::new().fail_at(0, 1).fail_at(5, 2).fail_at(12, 1));
            cfg.retry = RetryPolicy {
                base_backoff: std::time::Duration::from_micros(10),
                max_backoff: std::time::Duration::from_micros(100),
                ..RetryPolicy::default()
            };
            let ds = gaussian_blobs(640, 4, 10, 3);
            let mut t = ParallelTrainer::builder()
                .dataset(ds)
                .model(|seed| mlp_classifier(10, 24, 4, seed))
                .config(cfg)
                .build()
                .expect("valid config");
            t.run_epoch().expect("epoch")
        };
        assert!(faulty.comm_retries > 0, "the seeded plan must inject failures");
        assert_eq!(clean.comm_retries, 0);
        assert_eq!(clean.mean_loss, faulty.mean_loss, "losses computed before the exchange");
        assert_eq!(clean.accuracy, faulty.accuracy, "weights after recovery must match bitwise");
        assert_eq!(clean.noise_scale, faulty.noise_scale, "GNS inputs must be unaffected");
    }

    #[test]
    fn rank_crash_between_epochs_recovers() {
        let ds = gaussian_blobs(640, 4, 10, 3);
        let mut cfg = config(false);
        cfg.slowdowns = vec![1.0, 1.0, 2.0];
        let mut t = ParallelTrainer::builder()
            .dataset(ds)
            .model(|seed| mlp_classifier(10, 24, 4, seed))
            .config(cfg)
            .build()
            .expect("valid config");
        let before = t.run_epoch().expect("epoch");
        assert_eq!(before.local_batches.len(), 3);
        t.remove_rank(2);
        assert_eq!(t.world_size(), 2);
        let mut last = t.run_epoch().expect("epoch");
        assert_eq!(last.local_batches.len(), 2, "group shrinks to the survivors");
        assert_eq!(last.local_batches.iter().sum::<u64>(), last.total_batch);
        for _ in 0..2 {
            last = t.run_epoch().expect("epoch");
        }
        assert!(
            last.mean_loss < before.mean_loss,
            "training continues from the shared weights: {} -> {}",
            before.mean_loss,
            last.mean_loss
        );
    }

    #[test]
    fn bf16_codec_cuts_comm_bytes_and_still_learns() {
        let baseline = trainer(false).run_epoch().expect("epoch").comm_bytes;
        let ds = gaussian_blobs(640, 4, 10, 3);
        let mut t = ParallelTrainer::builder()
            .dataset(ds)
            .model(|seed| mlp_classifier(10, 24, 4, seed))
            .config(config(false))
            .codec(Codec::Bf16)
            .build()
            .expect("valid config");
        let mut last = None;
        for _ in 0..4 {
            last = Some(t.run_epoch().expect("epoch"));
        }
        let report = last.unwrap();
        // 2-byte payloads halve the gradient bytes; the f64 metric gathers
        // stay uncompressed, so the total lands just under 50%.
        assert!(
            (report.comm_bytes as f64) < 0.55 * baseline as f64,
            "bf16 should cut wire bytes by ≥45%: {} vs {baseline}",
            report.comm_bytes
        );
        assert!(report.accuracy > 0.9, "error feedback keeps convergence: {}", report.accuracy);
        assert!(report.mean_loss < 0.5, "loss {}", report.mean_loss);
    }

    #[test]
    fn overlapped_exchange_learns_and_reports_hidden_comm() {
        for (subject, mut t) in subjects(true, Codec::None) {
            let session = telemetry::Session::start();
            let reports = four_epochs(&mut t);
            let overlap_total: f64 = reports.iter().map(|r| r.comm_overlap).sum();
            let report = reports.last().unwrap();
            assert!(report.comm_bytes > 0, "{subject}: bucketed exchange still moves bytes");
            assert!(report.accuracy > 0.9, "{subject}: accuracy {}", report.accuracy);
            assert!(
                overlap_total > 0.0,
                "{subject}: per-layer buckets must hide some communication behind backward compute"
            );
            assert_replicas_agree(&t);
            // One collective per layer that has parameters, per step, per
            // rank — and none for the layers that have not.
            let with_params =
                t.driver.exec.ranks[0].model.layers().iter().filter(|l| !l.parameters().is_empty()).count();
            let records = session.drain();
            let count = |wanted: fn(&Event) -> bool| records.iter().filter(|r| wanted(&r.event)).count();
            let rank_steps = count(|e| matches!(e, Event::StepTiming(_)));
            assert_eq!(with_params, 3, "{subject}");
            assert_eq!(count(|e| matches!(e, Event::AllReduceBucket(_))), with_params * rank_steps, "{subject}");
        }
    }

    #[test]
    fn overlapped_lossy_exchange_keeps_replicas_consistent() {
        // The strongest cross-check: overlap + bf16 + error feedback.
        for (subject, mut t) in subjects(true, Codec::Bf16) {
            let report = four_epochs(&mut t).pop().unwrap();
            assert!(report.accuracy > 0.9, "{subject}: accuracy {}", report.accuracy);
            assert!(report.mean_loss < 0.5, "{subject}: loss {}", report.mean_loss);
            assert_replicas_agree(&t);
        }
    }

    /// Identity layer that panics in the first forward pass after the test
    /// arms it — one rank dies mid-epoch, the others are left on the ring.
    struct Tripwire(Arc<AtomicBool>);

    impl Layer for Tripwire {
        fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
            assert!(!self.0.swap(false, Ordering::SeqCst), "injected rank failure");
            x.clone()
        }

        fn backward(&mut self, grad_out: &Tensor) -> Tensor {
            grad_out.clone()
        }
    }

    #[test]
    fn dropped_peer_is_the_error_run_epoch_returns_and_the_next_epoch_recovers() {
        let built = Arc::new(AtomicUsize::new(0));
        let armed = Arc::new(AtomicBool::new(false));
        let mut cfg = config(false);
        cfg.slowdowns = vec![1.0, 1.0, 2.0];
        let (count, wire) = (Arc::clone(&built), Arc::clone(&armed));
        let mut t = ParallelTrainer::builder()
            .dataset(gaussian_blobs(640, 4, 10, 3))
            .model(move |seed| {
                count.fetch_add(1, Ordering::SeqCst);
                mlp_classifier(10, 24, 4, seed).push(Tripwire(Arc::clone(&wire)))
            })
            .config(cfg)
            .build()
            .expect("valid config");
        let first = t.run_epoch().expect("epoch 0 is healthy");
        let healthy = t.run_epoch().expect("epoch 1 is healthy");
        assert_eq!(built.load(Ordering::SeqCst), 3, "one replica per rank for the trainer's lifetime");
        let checkpoint = t.driver.exec.checkpoint.clone();

        // The panicked rank's endpoint drops with it; its neighbours'
        // exchanges fail typed, and theirs is the error the epoch reports —
        // not the join failure of the rank that died.
        armed.store(true, Ordering::SeqCst);
        let err = t.run_epoch().expect_err("a panicked rank fails the epoch, not the process");
        assert!(matches!(err, CannikinError::Comm(CommError::Dropped { .. })), "{err}");
        assert!(t.driver.exec.ranks.is_empty(), "a failed epoch keeps no rank state");
        assert!(t.driver.exec.checkpoint == checkpoint, "and leaves the last-good checkpoint alone");

        // Every rank was joined and nothing is poisoned: the next epoch
        // rebuilds states and ring from the checkpoint and trains on from
        // where the last good epoch stopped, not from scratch.
        let recovered = t.run_epoch().expect("recovery epoch");
        assert_eq!(built.load(Ordering::SeqCst), 6, "n more replicas after the failed epoch");
        assert_eq!(recovered.epoch, healthy.epoch + 1, "the failed epoch is not counted");
        assert!(
            recovered.mean_loss < first.mean_loss.min(1.5 * healthy.mean_loss + 0.05),
            "recovery restarts from the checkpoint: {} -> {} -> {}",
            first.mean_loss,
            healthy.mean_loss,
            recovered.mean_loss
        );
        assert_replicas_agree(&t);
    }

    #[test]
    fn sq_norm_agrees_with_the_serial_sum() {
        let values: Vec<f32> = (0..1_300_000).map(|i| ((i * 31) as f32).sin() * (1 + i % 7) as f32).collect();
        for len in (0..=17).chain([values.len()]) {
            let serial: f64 = values[..len].iter().map(|&v| f64::from(v) * f64::from(v)).sum();
            let lanes = sq_norm(&values[..len]);
            assert!((lanes - serial).abs() <= 1e-12 * serial, "{len} values: {lanes} vs {serial}");
        }
    }

    fn weight_bits(model: &Sequential) -> Vec<u32> {
        flatten_values(&model.parameters()).data().iter().map(|v| v.to_bits()).collect()
    }

    /// Every replica holds rank 0's weights, and so does the checkpoint,
    /// bit for bit.
    fn assert_replicas_agree(t: &ParallelTrainer) {
        let exec = &t.driver.exec;
        let reference = weight_bits(&exec.ranks[0].model);
        for (rank, state) in exec.ranks.iter().enumerate() {
            assert!(weight_bits(&state.model) == reference, "rank {rank} drifted from rank 0");
        }
        let checkpoint: Vec<u32> =
            exec.checkpoint.as_ref().expect("checkpoint").data().iter().map(|v| v.to_bits()).collect();
        assert!(checkpoint == reference, "checkpoint is not rank 0's weights");
    }

    /// The residual as a vector (the accumulator has no read accessor:
    /// compensating zeros reads it out).
    fn residual_of(state: &RankState) -> Vec<f32> {
        let feedback = state.feedback.as_ref().expect("lossy codec");
        let mut out = vec![0.0f32; feedback.len()];
        feedback.compensate(&mut out, 0);
        out
    }

    #[test]
    fn replicas_stay_bitwise_identical_on_one_ring_for_the_trainers_lifetime() {
        let cells: [(TransportKind, Codec, bool); 3] = [
            (TransportKind::InProcess, Codec::None, false),
            (TransportKind::tcp(), Codec::Bf16, false),
            (TransportKind::InProcess, Codec::Bf16, true),
        ];
        for (transport, codec, overlap) in cells {
            let label = format!("{transport} / {codec} / overlap {overlap}");
            let built = Arc::new(AtomicUsize::new(0));
            let count = Arc::clone(&built);
            let mut cfg = config(false);
            cfg.slowdowns = vec![1.0, 1.0, 2.0];
            cfg.transport = transport;
            cfg.codec = codec;
            cfg.overlap = overlap;
            let mut t = ParallelTrainer::builder()
                .dataset(gaussian_blobs(640, 4, 10, 3))
                .model(move |seed| {
                    count.fetch_add(1, Ordering::SeqCst);
                    mlp_classifier(10, 24, 4, seed)
                })
                .config(cfg)
                .build()
                .expect("valid config");
            let reported: u64 = (0..4).map(|_| t.run_epoch().expect("epoch").comm_bytes).sum();
            assert_replicas_agree(&t);
            assert_eq!(built.load(Ordering::SeqCst), 3, "{label}: replicas are built once");
            // The endpoints' lifetime counters add up to what the four
            // epochs reported: no epoch started on a new ring.
            let lifetime: u64 = t.driver.exec.ranks.iter().map(|s| s.comm.bytes_sent()).sum();
            assert_eq!(lifetime, reported, "{label}: the ring is formed once");
        }
    }

    #[test]
    fn fault_plan_keys_count_from_each_epochs_first_exchange() {
        let mut cfg = config(false);
        cfg.comm_faults = Some(CommFaultPlan::new().fail_at(0, 1).fail_at(5, 2).fail_at(12, 1));
        cfg.retry = RetryPolicy {
            base_backoff: std::time::Duration::from_micros(10),
            max_backoff: std::time::Duration::from_micros(100),
            ..RetryPolicy::default()
        };
        let mut t = ParallelTrainer::builder()
            .dataset(gaussian_blobs(640, 4, 10, 3))
            .model(|seed| mlp_classifier(10, 24, 4, seed))
            .config(cfg)
            .build()
            .expect("valid config");
        let retries: Vec<u32> = (0..3).map(|_| t.run_epoch().expect("epoch").comm_retries).collect();
        assert_eq!(retries, vec![4, 4, 4], "the plan fires at the same exchanges of every epoch");
    }

    #[test]
    fn momentum_carries_across_the_epoch_boundary() {
        // One rank has no split to measure, so a run repeats bit for bit.
        let run = |restart_momentum: bool| {
            let mut cfg = config(false);
            cfg.slowdowns = vec![1.0];
            let mut t = ParallelTrainer::builder()
                .dataset(gaussian_blobs(640, 4, 10, 3))
                .model(|seed| mlp_classifier(10, 24, 4, seed))
                .config(cfg)
                .build()
                .expect("valid config");
            t.run_epoch().expect("epoch");
            if restart_momentum {
                t.driver.exec.ranks[0].opt = Sgd::new(0.05).momentum(0.9);
            }
            t.run_epoch().expect("epoch");
            weight_bits(&t.driver.exec.ranks[0].model)
        };
        let carried = run(false);
        assert!(carried == run(false), "a single-rank run must repeat exactly");
        assert!(carried != run(true), "epoch 1 must start with epoch 0's velocity, not from rest");
    }

    #[test]
    fn membership_changes_touch_only_the_rank_that_moved() {
        let mut cfg = config(false);
        cfg.slowdowns = vec![1.0, 1.0, 2.0];
        cfg.codec = Codec::Bf16;
        let mut t = ParallelTrainer::builder()
            .dataset(gaussian_blobs(640, 4, 10, 3))
            .model(|seed| mlp_classifier(10, 24, 4, seed))
            .config(cfg)
            .build()
            .expect("valid config");
        for _ in 0..2 {
            t.run_epoch().expect("epoch");
        }
        let snapshot =
            |t: &ParallelTrainer, rank: usize| (t.driver.exec.ranks[rank].opt.clone(), residual_of(&t.driver.exec.ranks[rank]));
        let (first, middle, last) = (snapshot(&t, 0), snapshot(&t, 1), snapshot(&t, 2));
        assert!(first.1 != middle.1 && middle.1 != last.1, "residuals are per-rank, so they tell ranks apart");

        t.remove_rank(1);
        assert_eq!(t.driver.exec.ranks.len(), 2, "exactly one state leaves");
        assert!(snapshot(&t, 0) == first && snapshot(&t, 1) == last, "survivors keep velocity and residual");

        // The newcomer is built when the next epoch re-forms the ring.
        t.add_rank(1.0);
        t.driver.exec.regroup().expect("in-process ring");
        assert!(snapshot(&t, 0) == first && snapshot(&t, 1) == last, "survivors keep velocity and residual");
        let newcomer = &t.driver.exec.ranks[2];
        assert!(weight_bits(&newcomer.model) == weight_bits(&t.driver.exec.ranks[0].model), "shared weights");
        assert!(newcomer.opt == first.0, "rank 0's velocity, or the replicas would part ways");
        assert!(residual_of(newcomer).iter().all(|&r| r == 0.0), "nothing to compensate yet");
        t.run_epoch().expect("epoch");
        assert_replicas_agree(&t);
    }

    #[test]
    fn rank_join_between_epochs_grows_the_group() {
        let mut t = trainer(false);
        t.run_epoch().expect("epoch");
        t.add_rank(1.0);
        assert_eq!(t.world_size(), 3);
        let r = t.run_epoch().expect("epoch");
        assert_eq!(r.local_batches.len(), 3, "newcomer gets a share");
        assert!(r.local_batches.iter().all(|&b| b >= 1));
        assert_eq!(r.local_batches.iter().sum::<u64>(), r.total_batch);
    }
}
