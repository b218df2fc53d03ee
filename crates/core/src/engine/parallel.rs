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
use minidnn::layers::{assign_grads_from, flatten_grads_into, flatten_values, zero_grads, Layer, Sequential};
use minidnn::loss::{Loss, SoftmaxCrossEntropy};
use minidnn::lr::LrScaler;
use minidnn::optim::{Optimizer, Sgd};

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Configuration of a functional training run.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Per-node slowdown factors (1.0 = full speed); the length sets the
    /// node count.
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
        let model = model_factory(config.seed);
        let weights = flatten_values(&model.parameters()).into_data();
        let loader = HeteroDataLoader::new(dataset.len(), config.seed);
        let exec = ThreadedExecutor {
            dataset: Arc::new(dataset),
            tracker: GnsTracker::new(0.9),
            loader,
            weights,
            config,
            model_factory,
            feedback: Vec::new(),
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

    /// Evict a rank (crash or graceful leave): the next epoch's comm group
    /// is built over the survivors, the dead rank's analyzer state is
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
        // Survivors keep their accumulated residuals; the dead rank's
        // compensation leaves with it.
        if exec.feedback.len() == n {
            exec.feedback.remove(rank);
        }
        self.driver.analyzer.remove_node(rank);
        self.driver.on_membership_change();
        self.emit_membership(RecoveryKind::GroupShrink, rank);
    }

    /// Admit a new rank with the given emulated slowdown factor. It starts
    /// from the shared weights like every replica and is profiled through
    /// the bootstrap path over the next epochs.
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
        // The newcomer's residual starts at zero like every fresh
        // replica's (existing ranks keep theirs).
        if !exec.feedback.is_empty() {
            exec.feedback.push(ErrorFeedback::new(exec.weights.len()));
        }
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

/// The real-gradient problem: rank threads, collectives, codec and
/// error-feedback state, and the live GNS tracker.
pub(crate) struct ThreadedExecutor {
    dataset: Arc<ClassificationDataset>,
    config: ParallelConfig,
    weights: Vec<f32>,
    tracker: GnsTracker,
    loader: HeteroDataLoader,
    model_factory: Arc<dyn Fn(u64) -> Sequential + Send + Sync>,
    /// Per-rank error-feedback residuals, persisted across epochs so the
    /// compensation accumulates over the whole run (only populated while a
    /// lossy codec is configured).
    feedback: Vec<ErrorFeedback>,
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
        let even_total: u64 = local.iter().sum();
        let odd_total: u64 = odd.iter().sum();
        let step_totals: Arc<Vec<u64>> =
            Arc::new((0..steps).map(|s| if s % 2 == 0 { even_total } else { odd_total }).collect());
        let phi = self.tracker.noise_scale();
        let lr = self.config.lr_scaler.scaled_lr(self.config.base_lr, self.config.base_batch, total, phi);
        // Each replica thread gets a proportional share of the kernel
        // thread budget so n replicas × blocked-matmul fan-out never
        // oversubscribes the machine.
        let kernel_threads = minidnn::tensor::threads::replica_share(n);
        // A fault plan's presence is what arms the exchange's retry.
        let retry = self.config.comm_faults.is_some().then_some(self.config.retry);
        // The step-retry protocol re-runs the whole exchange as one
        // collective, so overlap falls back to the sequential path.
        let overlap = self.config.overlap && retry.is_none();
        // (Re)create the error-feedback residuals when the membership or
        // parameter count changed; otherwise they carry across epochs.
        let lossy = self.config.codec.is_lossy();
        if lossy
            && (self.feedback.len() != n || self.feedback.iter().any(|f| f.len() != self.weights.len()))
        {
            self.feedback = (0..n).map(|_| ErrorFeedback::new(self.weights.len())).collect();
        }
        let mut feedbacks: Vec<Option<ErrorFeedback>> = if lossy {
            std::mem::take(&mut self.feedback).into_iter().map(Some).collect()
        } else {
            (0..n).map(|_| None).collect()
        };
        let comms =
            CommGroup::with_options(n, &self.config.transport, self.config.comm_faults.clone(), self.config.codec)?;
        let started = Instant::now();
        let mut handles = Vec::new();
        for (rank, comm) in comms.into_iter().enumerate() {
            let dataset = Arc::clone(&self.dataset);
            let factory = Arc::clone(&self.model_factory);
            let weights = self.weights.clone();
            let batches: Vec<Vec<usize>> = schedule.node_batches(rank).to_vec();
            let step_totals = Arc::clone(&step_totals);
            let slowdown = self.config.slowdowns[rank];
            let seed = self.config.seed;
            let feedback = feedbacks[rank].take();
            handles.push(thread::spawn(move || {
                run_rank(RankArgs {
                    comm,
                    rank,
                    dataset,
                    factory,
                    weights,
                    batches,
                    step_totals,
                    slowdown,
                    lr,
                    seed,
                    steps,
                    kernel_threads,
                    retry,
                    epoch,
                    overlap,
                    feedback,
                })
            }));
        }
        // Join every thread before propagating a failure so no rank is
        // left detached mid-collective. The error a rank returned wins over
        // a panicked rank's stand-in: it names what the transport saw, and
        // the panic has already printed its own message.
        let joined: Vec<thread::Result<Result<RankOutput, CommError>>> =
            handles.into_iter().map(thread::JoinHandle::join).collect();
        let mut rank_outputs = Vec::with_capacity(n);
        let mut panicked = None;
        for (rank, outcome) in joined.into_iter().enumerate() {
            match outcome {
                Ok(result) => rank_outputs.push(result?),
                Err(_) => panicked = panicked.or(Some(rank)),
            }
        }
        if let Some(rank) = panicked {
            return Err(CommError::Io { rank, detail: "training rank panicked".into() }.into());
        }
        let epoch_time = started.elapsed().as_secs_f64();
        let comm_bytes: u64 = rank_outputs.iter().map(|r| r.comm_bytes).sum();
        telemetry::counter("comm_bytes", comm_bytes as f64);
        let comm_overlap: f64 = rank_outputs
            .iter()
            .flat_map(|r| r.step_measurements.iter())
            .map(|m| m.overlap)
            .sum();
        if overlap {
            telemetry::counter("comm_overlap_s", comm_overlap);
        }
        // Residuals travel back to the trainer so the next epoch's
        // compensation continues where this one stopped.
        if lossy {
            self.feedback = rank_outputs
                .iter_mut()
                .map(|r| r.feedback.take().expect("lossy ranks return their residual"))
                .collect();
        }

        // ---- Absorb measurements (discarding thread warm-up steps:
        // freshly spawned ranks run their first batches with cold caches,
        // which would poison the linear fit). ----
        let warmup = if steps > 6 { 3 } else { 0 };
        for step in warmup..steps {
            let observations = rank_outputs
                .iter()
                .map(|r| {
                    let m = r.step_measurements[step];
                    NodeObservation {
                        node: r.rank,
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
        for est in &rank_outputs[0].gns_estimates {
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

        // ---- Evaluate and roll state forward. ----
        let comm_retries = rank_outputs[0].comm_retries;
        let rank0 = rank_outputs.swap_remove(0);
        self.weights = rank0.weights;
        let mean_loss = rank0.losses.iter().sum::<f64>() / rank0.losses.len().max(1) as f64;
        let mut eval_model = (self.model_factory)(self.config.seed);
        let flat = minidnn::tensor::Tensor::from_vec(self.weights.clone(), &[self.weights.len()]).expect("weights");
        minidnn::layers::assign_values(&mut eval_model.parameters_mut(), &flat);
        let accuracy = evaluate(&mut eval_model, &self.dataset);

        let report = ParallelEpochReport {
            epoch,
            total_batch: total,
            local_batches: local.clone(),
            epoch_time,
            mean_loss,
            accuracy,
            noise_scale: fresh_phi,
            used_model: plan.used_model,
            comm_retries,
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

struct RankArgs {
    comm: Communicator,
    rank: usize,
    dataset: Arc<ClassificationDataset>,
    factory: Arc<dyn Fn(u64) -> Sequential + Send + Sync>,
    weights: Vec<f32>,
    batches: Vec<Vec<usize>>,
    step_totals: Arc<Vec<u64>>,
    slowdown: f64,
    lr: f64,
    seed: u64,
    steps: usize,
    kernel_threads: usize,
    /// `Some` arms the gradient exchange (set iff a fault plan is).
    retry: Option<RetryPolicy>,
    epoch: usize,
    overlap: bool,
    feedback: Option<ErrorFeedback>,
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
    rank: usize,
    weights: Vec<f32>,
    losses: Vec<f64>,
    gns_estimates: Vec<GnsEstimate>,
    step_measurements: Vec<StepMeasurement>,
    comm_retries: u32,
    comm_bytes: u64,
    feedback: Option<ErrorFeedback>,
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

fn run_rank(args: RankArgs) -> Result<RankOutput, CommError> {
    let RankArgs {
        comm,
        rank,
        dataset,
        factory,
        weights,
        batches,
        step_totals,
        slowdown,
        lr,
        seed,
        steps,
        kernel_threads,
        retry,
        epoch,
        overlap,
        feedback,
    } = args;
    let mut comm = comm;
    let mut feedback = feedback;
    // Cap this replica's matmul fan-out at its share of the budget for the
    // lifetime of the rank thread.
    let _budget = minidnn::tensor::threads::ThreadBudgetGuard::new(kernel_threads);
    // Every record this thread emits carries its rank, and step timings
    // carry the step index, so events from concurrently running replicas
    // can never be attributed to the wrong step when the drain interleaves
    // them by timestamp.
    let _identity = telemetry::set_thread_identity(rank as u32, rank as u32);
    let mut model = factory(seed);
    // Start from the shared weights so every replica is identical.
    let flat = minidnn::tensor::Tensor::from_vec(weights, &[model.parameters().iter().map(|p| p.len()).sum()])
        .expect("weight vector");
    minidnn::layers::assign_values(&mut model.parameters_mut(), &flat);
    let mut opt = Sgd::new(lr).momentum(0.9);

    let mut losses = Vec::with_capacity(steps);
    let mut gns_estimates = Vec::with_capacity(steps);
    let mut measurements = Vec::with_capacity(steps);
    // Per-rank backoff jitter, deterministic in (seed, epoch, rank): the
    // same seeded run replays the same retry timeline.
    let mut retry_rng = StdRng::seed_from_u64(seed ^ ((epoch as u64) << 32) ^ (rank as u64).wrapping_mul(0x9E37_79B9));
    let mut comm_retries = 0u32;
    // Flat gradient buffer reused across every step of the epoch.
    let mut g: Vec<f32> = Vec::with_capacity(flat.len());
    // Per-layer parameter counts, in forward order — the bucket layout of
    // the overlapped exchange (identical on every rank by the identical-
    // architecture contract).
    let layer_sizes: Vec<usize> = if overlap {
        model.layers().iter().map(|l| l.parameters().iter().map(|p| p.len()).sum()).collect()
    } else {
        Vec::new()
    };
    for (step, batch_indices) in batches.iter().take(steps).enumerate() {
        let _step_span = telemetry::span("step");
        let ratio = batch_indices.len() as f64 / step_totals[step] as f64;
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
                model: &mut model,
                loss_grad: &grad,
                g: &mut g,
                layer_sizes: &layer_sizes,
                comm,
                feedback: feedback.take(),
                weight: ratio as f32,
                slowdown,
                forward_elapsed: a_elapsed,
            })?;
            comm = outcome.comm;
            feedback = outcome.feedback;
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
            let local_sq: f64 = g.iter().map(|&v| f64::from(v) * f64::from(v)).sum();
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
        let global_sq: f64 = g.iter().map(|&v| f64::from(v) * f64::from(v)).sum();

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
    Ok(RankOutput {
        rank,
        weights: flatten_values(&model.parameters()).into_data(),
        losses,
        gns_estimates,
        step_measurements: measurements,
        comm_retries,
        comm_bytes: comm.bytes_sent(),
        feedback,
    })
}

struct OverlapArgs<'a> {
    model: &'a mut Sequential,
    loss_grad: &'a minidnn::tensor::Tensor,
    g: &'a mut Vec<f32>,
    layer_sizes: &'a [usize],
    comm: Communicator,
    feedback: Option<ErrorFeedback>,
    weight: f32,
    slowdown: f64,
    forward_elapsed: f64,
}

struct OverlapOutcome {
    comm: Communicator,
    feedback: Option<ErrorFeedback>,
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
                let residual = feedback.as_mut().map(|residual| (residual, offset));
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
                None => Ok((comm, feedback, busy, buckets)),
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
            local_sq += slice.iter().map(|&v| f64::from(v) * f64::from(v)).sum::<f64>();
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
    let (comm, feedback, busy, buckets) = worked?;
    if telemetry::enabled() {
        for b in buckets {
            telemetry::emit(Event::AllReduceBucket(b));
        }
    }
    let comm_time = busy.as_secs_f64();
    let overlap = (comm_time - exposed.as_secs_f64()).max(0.0);
    Ok(OverlapOutcome { comm, feedback, p_time, comm_time, overlap, local_sq })
}

fn evaluate(model: &mut Sequential, dataset: &ClassificationDataset) -> f64 {
    let sample: Vec<usize> = (0..dataset.len().min(512)).collect();
    let (x, y) = dataset.batch(&sample);
    minidnn::models::accuracy(model, &x, &y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidnn::data::gaussian_blobs;
    use minidnn::models::mlp_classifier;

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

    #[test]
    fn replicas_learn_the_task() {
        let mut t = trainer(false);
        let mut last = None;
        for _ in 0..4 {
            last = Some(t.run_epoch().expect("epoch"));
        }
        let report = last.unwrap();
        assert!(report.comm_bytes > 0, "gradient exchange must move bytes");
        assert!(report.accuracy > 0.9, "accuracy {}", report.accuracy);
        assert!(report.mean_loss < 0.5, "loss {}", report.mean_loss);
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
        let ds = gaussian_blobs(640, 4, 10, 3);
        let mut cfg = config(false);
        cfg.overlap = true;
        let mut t = ParallelTrainer::builder()
            .dataset(ds)
            .model(|seed| mlp_classifier(10, 24, 4, seed))
            .config(cfg)
            .build()
            .expect("valid config");
        let mut overlap_total = 0.0;
        let mut last = None;
        for _ in 0..4 {
            let r = t.run_epoch().expect("epoch");
            overlap_total += r.comm_overlap;
            last = Some(r);
        }
        let report = last.unwrap();
        assert!(report.comm_bytes > 0, "bucketed exchange still moves bytes");
        assert!(report.accuracy > 0.9, "accuracy {}", report.accuracy);
        assert!(
            overlap_total > 0.0,
            "per-layer buckets must hide some communication behind backward compute"
        );
    }

    #[test]
    fn overlapped_lossy_exchange_keeps_replicas_consistent() {
        // The strongest cross-check: overlap + bf16 + error feedback, with
        // replica agreement enforced implicitly (a divergent replica would
        // wreck accuracy within an epoch or two).
        let ds = gaussian_blobs(640, 4, 10, 3);
        let mut cfg = config(false);
        cfg.overlap = true;
        cfg.codec = Codec::Bf16;
        let mut t = ParallelTrainer::builder()
            .dataset(ds)
            .model(|seed| mlp_classifier(10, 24, 4, seed))
            .config(cfg)
            .build()
            .expect("valid config");
        let mut last = None;
        for _ in 0..4 {
            last = Some(t.run_epoch().expect("epoch"));
        }
        let report = last.unwrap();
        assert!(report.accuracy > 0.9, "accuracy {}", report.accuracy);
        assert!(report.mean_loss < 0.5, "loss {}", report.mean_loss);
    }

    #[test]
    fn dropped_peer_is_the_error_run_epoch_returns() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Call 0 builds the trainer's reference weights on this thread,
        // calls 1–3 the replicas of epoch 0, call 4 its evaluation model;
        // call 5 is the first rank thread of epoch 1 to build its replica.
        let calls = Arc::new(AtomicUsize::new(0));
        let mut cfg = config(false);
        cfg.slowdowns = vec![1.0, 1.0, 2.0];
        let mut t = ParallelTrainer::builder()
            .dataset(gaussian_blobs(640, 4, 10, 3))
            .model(move |seed| {
                assert!(calls.fetch_add(1, Ordering::SeqCst) != 5, "injected model-factory failure");
                mlp_classifier(10, 24, 4, seed)
            })
            .config(cfg)
            .build()
            .expect("valid config");
        t.run_epoch().expect("epoch 0 is healthy");
        // The panicked rank's endpoint drops with it; its neighbours'
        // exchanges fail typed, and theirs is the error the epoch reports —
        // not the join failure of the rank that died.
        let err = t.run_epoch().expect_err("a panicked rank fails the epoch, not the process");
        assert!(matches!(err, CannikinError::Comm(CommError::Dropped { .. })), "{err}");
        // Every rank was joined and nothing global is poisoned: a fresh
        // trainer still trains.
        let report = trainer(false).run_epoch().expect("epoch");
        assert!(report.comm_bytes > 0);
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
