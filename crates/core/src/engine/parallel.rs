//! Functional data-parallel training with real gradients.
//!
//! [`ParallelTrainer`] runs one `minidnn` model replica per OS thread,
//! exchanges gradients with the real bucketed ring all-reduce of
//! `cannikin-collectives`, aggregates them with the Eq. (9) batch-ratio
//! weights, and estimates the gradient noise scale live with Eq. (10) +
//! Theorem 4.1. CPU threads are equally fast, so hardware heterogeneity is
//! emulated with per-node *slowdown factors*, charged on a node clock: a
//! node `s` times slower sleeps, at each bucket hand-off and at the end of
//! backward, until the step's start plus `s ×` the CPU time its thread has
//! spent on the step — the observable a slower GPU would produce. Time the
//! rank spent waiting for one of the host's cores is not CPU time, so it
//! is not multiplied by `s`: a slow rank pays for its own work, not the
//! host's. It reports `s·cpu` as its compute time, the deadline the sleep
//! realises whenever the host leaves it the room, so the analyzer fits
//! what the emulated node costs and not what the run queue added — on a
//! full-speed rank as on a slow one.
//!
//! Every step is the DDP bucketed step (§3.2.3 of the paper): each rank
//! drives the backward pass layer by layer from the loss side, each layer
//! storing its gradients straight into its window of one flat buffer
//! (DDP's gradient-as-bucket-view: no zeroing pass, no copy), and hands
//! each bucket of that buffer to a per-step communication worker as soon
//! as backward has passed the bucket's lowest layer. The optimizer steps
//! from the reduced buffer, so no replica holds `Param::grad` at all. The
//! first layer runs [`Layer::backward_params`]: its input gradient is the
//! one thing backward would compute that nothing reads. The
//! bucket layout is the only thing [`ParallelConfig::overlap`] selects.
//! Off (the default), one bucket spans the whole gradient and is reduced
//! after backpropagation, so the timing model is the all-compute-bottleneck special case
//! `T = max_i t_compute^i + T_comm` (`T_o ≈ 0`, `T_u ≈ T_comm`), under
//! which the OptPerf solver's Check 1 (equal compute times) is exact. On,
//! each layer with parameters is its own bucket, all-reduce time hides
//! behind the remaining backward compute, and the analyzer is fed the
//! *exposed* communication time `T_u = T_comm − T_o`.
//!
//! Odd steps run a variant of the planned split, so every rank's compute
//! model sees two local batch sizes in one epoch; a sample the variant's
//! repair can place either way goes to the largest planned share.
//!
//! Gradients can additionally travel through a lossy [`Codec`] (bf16
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
use super::{EpochRecord, TrainingSubject};
use crate::error::CannikinError;
use crate::gns::{estimate_gns, statistical_efficiency, Aggregation, GnsEstimate, GnsTracker, GradientSample};
use crate::optperf::ensure_distinct_split;
use crate::perf::{Analyzer, MeasurementAggregation};
use crate::policy::Policy;

use cannikin_collectives::{
    Codec, CommError, CommFaultPlan, CommGroup, Communicator, ErrorFeedback, RetryPolicy, TransportKind,
};
use cannikin_telemetry::{self as telemetry, AllReduceBucket, Event, RecoveryAction, RecoveryKind, StepTiming};
use hetsim::trace::{BatchTrace, NodeObservation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use minidnn::data::ClassificationDataset;
use minidnn::layers::{assign_values, flatten_values, num_elements, Grads, Layer, Sequential};
use minidnn::loss::{Loss, SoftmaxCrossEntropy};
use minidnn::lr::adascale_gain;
use minidnn::optim::{Optimizer, Sgd};
use minidnn::tensor::threads::thread_cpu_time;
use minidnn::tensor::Tensor;

use std::sync::{mpsc, Arc};
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
    /// Base learning rate at B₀; a grown batch scales it by AdaScale's
    /// gain.
    pub base_lr: f64,
    /// RNG seed (model init and shuffling).
    pub seed: u64,
    /// Injected gradient-exchange failures, keyed by exchange sequence
    /// number (one per bucket); `Some` arms every bucket's exchange with
    /// `retry` (receive timeouts, retry-with-backoff, restore-on-error).
    /// `None` leaves it unarmed.
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
    /// The gradient bucket layout. `false` (default): one bucket over the
    /// whole gradient, all-reduced once the full backward pass is done.
    /// `true`: one bucket per layer with parameters, each all-reduced by
    /// the per-step comm worker while earlier layers still compute. Either
    /// layout retries per bucket under `comm_faults`.
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
            seed: 17,
            comm_faults: None,
            retry: RetryPolicy::default(),
            transport: TransportKind::InProcess,
            codec: Codec::None,
            overlap: false,
        }
    }
}

/// The functional trainer's per-epoch record, which is the one
/// [`EpochRecord`]. The alias is kept only because the frozen benchmark
/// (`crates/benchmark/src/real.rs`) names it; the benchmark's migration
/// (ROADMAP item 8) deletes it.
pub type ParallelEpochReport = EpochRecord;

/// Functional Cannikin trainer over OS threads — a thin shell over the
/// shared epoch `Driver` with a `ThreadedExecutor` behind it, and a
/// [`TrainingSubject`] whose progress is the effective epochs the live GNS
/// estimate credits.
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

    /// The analyzer's current state (inspection/tests).
    pub fn analyzer(&self) -> &Analyzer {
        &self.driver.analyzer
    }

    /// Current rank count.
    pub fn world_size(&self) -> usize {
        self.driver.exec.nodes()
    }

    /// The configuration the builder resolved (with `max_batch` capped at
    /// half the dataset).
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
    /// Panics if `slowdown` is not a finite factor `>= 1` or the base batch
    /// cannot cover the grown membership.
    pub fn add_rank(&mut self, slowdown: f64) {
        assert!(is_slowdown(slowdown), "slowdown {slowdown} is not a finite factor >= 1");
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
    pub fn run_epoch(&mut self) -> Result<EpochRecord, CannikinError> {
        self.driver.run_epoch()
    }
}

impl TrainingSubject for ParallelTrainer {
    fn next_epoch(&mut self) -> Result<EpochRecord, CannikinError> {
        self.run_epoch()
    }

    /// Each epoch's `steps·B·η/|D|`, with η at the GNS estimate after that
    /// epoch (1.0 while there is none).
    fn progress(&self) -> f64 {
        self.driver.effective_epochs
    }
}

/// Whether a rank can emulate `slowdown`: it sleeps until `slowdown ×` its
/// CPU time and reports that product, so a non-finite one panics inside
/// the rank thread and one below 1 would report CPU times scaled by a
/// factor no sleep backs.
pub(crate) fn is_slowdown(slowdown: f64) -> bool {
    slowdown.is_finite() && slowdown >= 1.0
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
    /// (the first replica's initial weights before that): what the first
    /// replica is rebuilt from after a failed epoch.
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
    /// everything but their endpoint; the rest are copies of the first
    /// replica and its optimizer state, so every replica applies the same
    /// update to the same weights from the first step on. The model factory
    /// runs only when no replica exists — the first epoch and the one after
    /// a failed epoch — and the checkpoint, if any, overwrites what it drew.
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
        let (model, opt) = match self.ranks.first() {
            // Between epochs the first replica holds the checkpoint's
            // weights, so a copy is what the factory plus the checkpoint
            // would build, without drawing a random init to overwrite.
            Some(first) => (first.model.replicate(), first.opt.clone()),
            None => {
                let mut model = (self.model_factory)(self.config.seed);
                match &self.checkpoint {
                    Some(weights) => assign_values(&mut model.parameters_mut(), weights),
                    None => self.checkpoint = Some(flatten_values(&model.parameters())),
                }
                // Backward stores into the step's flat buffer and the
                // optimizer steps from it: no replica reads its gradient
                // tensors (and copies inherit the released ones).
                for p in model.parameters_mut() {
                    p.release_grad();
                }
                (model, Sgd::new(self.config.base_lr).momentum(0.9))
            }
        };
        let feedback = self.config.codec.is_lossy().then(|| ErrorFeedback::new(num_elements(&model.parameters())));
        RankState { model, opt, feedback, comm }
    }
}

impl Executor for ThreadedExecutor {
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

    fn phi(&self, _progress: f64) -> Option<f64> {
        self.tracker.noise_scale()
    }

    fn new_analyzer(&self) -> Analyzer {
        Analyzer::new(self.nodes(), MeasurementAggregation::InverseVariance)
    }

    fn execute(&mut self, round: Round<'_>) -> Result<Executed, CannikinError> {
        let Round { epoch, plan, plan_seconds, analyzer, .. } = round;
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
        let step_total = local.iter().sum::<u64>();
        let phi = self.tracker.noise_scale();
        let lr = self.config.base_lr * adascale_gain(self.config.base_batch, total, phi);
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
            step_total,
            seed: self.config.seed,
            steps,
            // Each replica thread gets a proportional share of the kernel
            // thread budget so n replicas × blocked-matmul fan-out never
            // oversubscribes the machine.
            kernel_threads: minidnn::tensor::threads::replica_share(n),
            retry,
            epoch,
            buckets: bucket_layout(&self.ranks[0].model, self.config.overlap),
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
        telemetry::counter("comm_overlap_s", comm_overlap);

        // ---- Absorb measurements (discarding thread warm-up steps:
        // freshly spawned ranks run their first batches with cold caches,
        // which would poison the linear fit). Fitting is optimizer work:
        // it counts toward the Table 6 overhead, as on the simulated path.
        let fit_started = Instant::now();
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
                        // T_o); a single bucket hides nothing and this
                        // degenerates to T_u = T_comm.
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
        let overhead_seconds = plan_seconds + fit_started.elapsed().as_secs_f64();
        let rank0 = &rank_outputs[0];
        for est in &rank0.gns_estimates {
            self.tracker.observe(*est);
        }

        // Statistical efficiency at the fresh φ estimate (1.0 while no
        // estimate exists yet).
        let fresh_phi = self.tracker.noise_scale();
        let efficiency = fresh_phi.map_or(1.0, |phi| statistical_efficiency(phi, self.config.base_batch, total));
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

        let record = EpochRecord {
            epoch,
            total_batch: total,
            local_batches: local,
            steps,
            epoch_time,
            mean_batch_time: epoch_time / steps as f64,
            noise_scale: fresh_phi,
            efficiency,
            // Progress is the driver's to account.
            effective_epochs: 0.0,
            cumulative_time: 0.0,
            overhead_seconds,
            pattern: plan.pattern,
            used_model: plan.used_model,
            faults: 0,
            recoveries: rank0.comm_retries,
            mean_loss,
            accuracy,
            comm_bytes,
            comm_overlap,
        };
        Ok(Executed { record, per_sample_times, membership_changed: false })
    }
}

/// What every rank of one epoch is handed, besides its own state.
struct EpochArgs<'a> {
    dataset: &'a ClassificationDataset,
    /// Total batch of every step: the odd steps' measurement variant
    /// moves samples between nodes, never in or out.
    step_total: u64,
    seed: u64,
    steps: usize,
    kernel_threads: usize,
    /// `Some` arms every bucket's exchange (set iff a fault plan is).
    retry: Option<RetryPolicy>,
    epoch: usize,
    buckets: Vec<Bucket>,
    /// The driving thread's session membership, which each rank thread
    /// and its comm workers join.
    session: telemetry::Context,
}

/// One bucket of the flat gradient: the parameters of the layers from
/// `first_layer` up to the next bucket's, `len` values from `offset`.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// The lowest layer (forward order) the bucket holds: once backward
    /// has passed it, the bucket is complete and goes on the wire.
    first_layer: usize,
    offset: usize,
    len: usize,
}

/// The bucket layout of `model`'s flat gradient, in forward order — the one
/// place [`ParallelConfig::overlap`] is read. Off: one bucket over the
/// whole gradient, complete when backward is. On: one bucket per layer with
/// parameters, tail-first on the wire, the order DDP reduces buckets in.
/// Parameterless layers get no bucket, identically on every rank (the
/// identical-architecture contract), so the collectives stay in lockstep.
fn bucket_layout(model: &Sequential, overlap: bool) -> Vec<Bucket> {
    let (mut buckets, mut offset) = (Vec::<Bucket>::new(), 0);
    for (layer, l) in model.layers().iter().enumerate() {
        let len = num_elements(&l.parameters());
        if len == 0 {
            continue;
        }
        match buckets.last_mut() {
            Some(whole) if !overlap => whole.len += len,
            _ => buckets.push(Bucket { first_layer: layer, offset, len }),
        }
        offset += len;
    }
    buckets
}

#[derive(Debug, Clone, Copy)]
struct StepMeasurement {
    batch_size: u64,
    a_time: f64,
    p_time: f64,
    /// Total communication busy time of the step (exposed + overlapped).
    comm_time: f64,
    /// Portion of `comm_time` hidden behind backward compute.
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
/// A rank the trades leave where it was (an odd tail handing back what the
/// first pair gave, or two one-sample ranks side by side) is then moved by
/// [`ensure_distinct_split`], the bootstrap's repair, which gives a sample
/// it can place either way to the largest planned share: `[19, 4, 1]` runs
/// `[20, 2, 2]`, sparing the 4×-slow rank that sets the step.
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
    ensure_distinct_split(split, out)
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
    let &EpochArgs { dataset, step_total, seed, steps, kernel_threads, retry, epoch, ref buckets, session } = shared;
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
    // The flat gradient every step's backward stores into, reused across
    // the epoch (not kept between epochs: an idle trainer should hold no
    // dead copy of the model).
    let mut g: Vec<f32> = Vec::new();
    for (step, batch_indices) in batches.iter().take(steps).enumerate() {
        let _step_span = telemetry::span("step");
        let ratio = batch_indices.len() as f64 / step_total as f64;
        // Forward (+ data load) — the `a_i` phase — on the node's clock.
        let mut clock = NodeClock::start(slowdown);
        let (x, y) = dataset.batch(batch_indices);
        let logits = model.forward(&x, true);
        let (loss, grad) = SoftmaxCrossEntropy.loss(&logits, &y);
        let a_time = clock.read();

        // Backward — the `P_i` phase — with the Eq. (9) weighted exchange
        // of each bucket riding along.
        let link = Link {
            comm: &mut *comm,
            feedback: feedback.as_mut(),
            retry: retry.as_ref().map(|policy| (policy, &mut retry_rng)),
            weight: ratio as f32,
            rank,
            step,
            session,
            retries: &mut comm_retries,
        };
        let Exchanged { compute, comm_time, overlap, local_sq } =
            backward_and_exchange(model, &grad, &mut g, buckets, link, &mut clock)?;

        // Gather (bᵢ, |gᵢ|²) from every rank for Eq. (10); rank 0 estimates.
        let rows = comm.gather(&[batch_indices.len() as f64, local_sq])?;
        if rank == 0 {
            let samples: Vec<GradientSample> = rows
                .iter()
                .map(|r| GradientSample { local_batch: r[0] as u64, local_sq_norm: r[1] })
                .collect();
            if let Ok(est) = estimate_gns(&samples, sq_norm(&g), Aggregation::MinimumVariance) {
                gns_estimates.push(est);
            }
        }

        // Apply the identical global gradient on every replica.
        opt.step_from(&mut model.parameters_mut(), &g);

        losses.push(f64::from(loss));
        if telemetry::enabled() {
            telemetry::emit(Event::StepTiming(StepTiming {
                step: step as u64,
                rank: rank as u32,
                b_i: batch_indices.len() as u64,
                t_compute: compute,
                t_comm: comm_time,
                overlap,
            }));
        }
        measurements.push(StepMeasurement {
            batch_size: batch_indices.len() as u64,
            a_time,
            p_time: compute - a_time,
            comm_time,
            overlap,
        });
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

/// What a rank's comm worker exchanges through, and with, for one step.
struct Link<'a> {
    comm: &'a mut Communicator,
    feedback: Option<&'a mut ErrorFeedback>,
    /// `Some` arms every bucket's exchange.
    retry: Option<(&'a RetryPolicy, &'a mut StdRng)>,
    /// This rank's Eq. (9) weight `bᵢ / B`.
    weight: f32,
    rank: usize,
    step: usize,
    session: telemetry::Context,
    /// The rank's retries so far this epoch.
    retries: &'a mut u32,
}

/// What one step's backward pass and exchange measured.
struct Exchanged {
    /// The step's forward and backward compute on the node's clock, s.
    compute: f64,
    /// Total communication busy time, s.
    comm_time: f64,
    /// Portion of `comm_time` that ran while backward still computed, s.
    overlap: f64,
    /// `|g_local|²` of the raw (pre-compensation, pre-scaling) gradient,
    /// summed per bucket.
    local_sq: f64,
}

/// The step's backward pass and gradient exchange. Backward runs layer by
/// layer from the loss side, each layer storing its gradients into its
/// window of the flat buffer `g` (so every value of `g` is overwritten each
/// step, and nothing is zeroed or copied); as soon as it has passed a
/// bucket's lowest layer, the bucket's window goes to a comm worker thread
/// that all-reduces it while earlier layers still compute. An emulated
/// slow node settles its clock (sleeps to its CPU-time deadline, its
/// forward pass included) right before each hand-off and once more at the
/// end of backward, so the worker overlaps with the stretched compute as it
/// would on genuinely slower hardware, and the one-bucket layout sleeps
/// once a step.
///
/// Buckets are produced and reduced in the same order on every rank,
/// preserving the SPMD contract. The first bucket that fails is the step's
/// error; the worker then moves no more data but keeps draining, so the
/// backward pass finishes and the rank leaves the group in one piece.
fn backward_and_exchange(
    model: &mut Sequential,
    loss_grad: &Tensor,
    g: &mut Vec<f32>,
    buckets: &[Bucket],
    link: Link<'_>,
    clock: &mut NodeClock,
) -> Result<Exchanged, CommError> {
    let total = buckets.iter().map(|b| b.len).sum();
    g.resize(total, 0.0);
    // Each bucket's window of the flat gradient.
    let mut windows = Vec::with_capacity(buckets.len());
    let mut rest = g.as_mut_slice();
    for bucket in buckets {
        let (grads, tail) = rest.split_at_mut(bucket.len);
        windows.push((bucket, grads));
        rest = tail;
    }
    // Tail-first: the bucket nearest the loss is complete (and on the wire)
    // first.
    let mut windows = windows.into_iter().rev();
    let mut local_sq = 0.0f64;
    let (busy, compute, computed) = thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(usize, &mut [f32])>();
        let worker = s.spawn(move || reduce_buckets(rx, link));
        let mut next = windows.next();
        // The current bucket's window still to fill, from its start:
        // backward reaches its layers last to first, each taking the tail.
        let mut unfilled = next.as_ref().map_or(0, |(bucket, _)| bucket.len);
        let layers = model.layers_mut();
        let mut cur = loss_grad.clone();
        // The node-clock compute and the instant of the last settle, while
        // no layer has run after it.
        let mut settled = None;
        for index in (0..layers.len()).rev() {
            let len = num_elements(&layers[index].parameters());
            let grads = match &mut next {
                Some((_, window)) => {
                    unfilled -= len;
                    Grads::Store(&mut window[unfilled..unfilled + len])
                }
                None => Grads::Store(&mut []),
            };
            // Nothing reads the first layer's input gradient.
            if index == 0 {
                layers[0].backward_params(&cur, grads);
            } else {
                cur = layers[index].backward_to(&cur, grads);
            }
            settled = None;
            if let Some((bucket, grads)) = next.take_if(|(bucket, _)| bucket.first_layer == index) {
                local_sq += sq_norm(grads);
                settled = Some((clock.settle(), Instant::now()));
                tx.send((bucket.offset, grads)).expect("comm worker alive");
                next = windows.next();
                unfilled = next.as_ref().map_or(0, |(bucket, _)| bucket.len);
            }
        }
        // When this rank's backward, stretched by its slowdown, ended: the
        // last hand-off's settle, unless layers ran after it.
        let (compute, computed) = settled.unwrap_or_else(|| (clock.settle(), Instant::now()));
        drop(tx);
        (worker.join().expect("comm worker panicked"), compute, computed)
    });
    let busy = busy?;
    // Hidden is what the worker reduced before backward was done. The
    // instants are taken before each hand-off, so a bucket handed over at
    // the end hides nothing even when its worker preempts the rank.
    let comm_time = busy.iter().map(|&(start, end)| (end - start).as_secs_f64()).sum();
    let overlap =
        busy.iter().map(|&(start, end)| end.min(computed).saturating_duration_since(start).as_secs_f64()).sum();
    Ok(Exchanged { compute, comm_time, overlap, local_sq })
}

/// A rank's emulated compute clock for one step. A node `slowdown` times
/// slower has, by each settle, taken `slowdown ×` the CPU time its thread
/// has spent on the step since [`NodeClock::start`]: a deadline, so time
/// the thread lost waiting for a core is not multiplied (it only sleeps
/// less), and an oversleep at one settle is absorbed by the next. Where
/// the thread CPU clock is unavailable, the CPU time is the wall time not
/// spent asleep here, which stretches the wall compute by `slowdown`.
///
/// The clock reads `slowdown · cpu`, not the wall time a settle ends at:
/// the two differ only when the host kept the thread from a core for
/// longer than its slack, always so at full speed, and that wait is the
/// host's, not the emulated node's.
struct NodeClock {
    slowdown: f64,
    /// The step's start on the wall clock and, if readable, the thread's
    /// CPU clock.
    wall: Instant,
    cpu: Option<Duration>,
    /// Wall time spent in [`NodeClock::settle`]'s sleeps.
    slept: Duration,
}

impl NodeClock {
    fn start(slowdown: f64) -> Self {
        // Wall before CPU here and CPU before wall in `spent`: the CPU span
        // then lies inside the wall span, so a full-speed node never owes.
        let wall = Instant::now();
        NodeClock { slowdown, wall, cpu: thread_cpu_time(), slept: Duration::ZERO }
    }

    /// `(cpu, wall)` spent on the step so far.
    fn spent(&self) -> (Duration, Duration) {
        let cpu = self.cpu.zip(thread_cpu_time()).map(|(start, now)| now.saturating_sub(start));
        let wall = self.wall.elapsed();
        (cpu.unwrap_or_else(|| wall.saturating_sub(self.slept)), wall)
    }

    /// The step's compute so far on the emulated node, s: `slowdown ·
    /// cpu`, the deadline a settle now would sleep to.
    fn read(&self) -> f64 {
        self.spent().0.as_secs_f64() * self.slowdown
    }

    /// Sleep until the deadline, if it is ahead; returns the emulated
    /// compute it was set from, as [`read`] would.
    ///
    /// [`read`]: NodeClock::read
    fn settle(&mut self) -> f64 {
        let (cpu, wall) = self.spent();
        let owed = owed(self.slowdown, cpu, wall);
        if !owed.is_zero() {
            let asleep = Instant::now();
            thread::sleep(owed);
            self.slept += asleep.elapsed();
        }
        cpu.as_secs_f64() * self.slowdown
    }
}

/// What a node `slowdown` times slower still owes after spending `cpu` of
/// its own work in `wall`: `max(0, slowdown · cpu − wall)`. A full-speed
/// node owes nothing, whatever the clocks read.
fn owed(slowdown: f64, cpu: Duration, wall: Duration) -> Duration {
    if slowdown <= 1.0 {
        return Duration::ZERO;
    }
    cpu.mul_f64(slowdown).saturating_sub(wall)
}

/// A rank's comm worker for one step: all-reduces each bucket the backward
/// pass hands it, in arrival order, with [`Communicator::exchange`] at the
/// bucket's offset into the residual, and returns when it was busy with
/// each. It joins
/// the rank's session under the rank's identity, so what it records — one
/// `AllReduceBucket` per bucket, and the exchange's own retry and fault
/// records — reads as the rank's.
fn reduce_buckets(
    buckets: mpsc::Receiver<(usize, &mut [f32])>,
    link: Link<'_>,
) -> Result<Vec<(Instant, Instant)>, CommError> {
    let Link { comm, mut feedback, mut retry, weight, rank, step, session, retries } = link;
    session.enter();
    let _identity = telemetry::set_thread_identity(rank as u32, rank as u32);
    let mut busy = Vec::new();
    let mut failed = None;
    for (index, (offset, bucket)) in buckets.into_iter().enumerate() {
        if failed.is_some() {
            continue;
        }
        let (start, bytes_before) = (Instant::now(), comm.bytes_sent());
        // Injected failures abort before any data moves and exhausted
        // budgets restore the bucket and its residual window, so looping
        // until success applies the Eq. (9) scaling exactly once — every
        // rank decides identically (shared plan, lockstep sequence
        // numbers), so no rank can apply an update the others dropped.
        // Unarmed, the first pass ends the loop either way.
        loop {
            let residual = feedback.as_deref_mut().map(|residual| (residual, offset));
            match comm.exchange(bucket, weight, residual, retry.as_mut().map(|(policy, rng)| (*policy, &mut **rng))) {
                Ok(attempt) => {
                    *retries += attempt - 1;
                    break;
                }
                Err(CommError::RetriesExhausted { attempts }) => {
                    *retries += attempts;
                    telemetry::emit(Event::RecoveryAction(RecoveryAction {
                        kind: RecoveryKind::StepRetry,
                        node: Some(rank as u32),
                        step: step as u64,
                        attempt: *retries,
                        backoff_ns: 0,
                    }));
                }
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        if failed.is_some() {
            continue;
        }
        let end = Instant::now();
        busy.push((start, end));
        telemetry::emit(Event::AllReduceBucket(AllReduceBucket {
            bucket: index as u32,
            elems: bucket.len() as u64,
            wall_ns: (end - start).as_nanos() as u64,
            bytes: comm.bytes_sent() - bytes_before,
        }));
    }
    failed.map_or(Ok(busy), Err)
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
    use crate::engine::ParallelTrainerBuilder;
    use crate::policy::PolicyKind;
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

    /// The two models the trainer is held to on both bucket layouts: the MLP
    /// over flat blobs, and the CNN over image blobs — a 4-D dataset,
    /// per-layer buckets of very different sizes, and parameterless layers
    /// (`Relu`, `AvgPool2d`) that must put no collective on any rank.
    fn subjects(overlap: bool, codec: Codec) -> [(&'static str, ParallelTrainer); 2] {
        subject_builders(overlap, codec).map(|(subject, builder)| (subject, builder.build().expect("valid config")))
    }

    fn subject_builders(overlap: bool, codec: Codec) -> [(&'static str, ParallelTrainerBuilder); 2] {
        let build = |ds, factory: fn(u64) -> Sequential, mut cfg: ParallelConfig| {
            cfg.overlap = overlap;
            cfg.codec = codec;
            ParallelTrainer::builder().dataset(ds).model(factory).config(cfg)
        };
        let mut cnn = config(false);
        cnn.slowdowns = vec![1.0, 2.0, 4.0];
        cnn.base_batch = 24;
        [
            ("mlp", build(gaussian_blobs(640, 4, 10, 3), |seed| mlp_classifier(10, 24, 4, seed), config(false))),
            ("cnn", build(gaussian_blob_images(192, 4, 3, 8, 3), |seed| mini_cnn(3, 8, 4, seed), cnn)),
        ]
    }

    /// The MLP at the width the benchmark runs: a 1.2 MB gradient, every
    /// product far over `SMALL_WORK`, and 12–24 rows per rank across even
    /// and odd steps of an even split of B = 48 — the skinny rows the
    /// kernels' row rules choose between.
    fn wide_mlp(overlap: bool) -> ParallelTrainerBuilder {
        let mut cfg = config(false);
        cfg.slowdowns = vec![1.0, 2.0, 4.0];
        cfg.base_batch = 48;
        cfg.overlap = overlap;
        cfg.codec = Codec::Bf16;
        ParallelTrainer::builder()
            .dataset(gaussian_blobs(96, 4, 64, 3))
            .model(|seed| mlp_classifier(64, 512, 4, seed))
            .config(cfg)
    }

    fn four_epochs(t: &mut ParallelTrainer) -> Vec<EpochRecord> {
        (0..4).map(|_| t.run_epoch().expect("epoch")).collect()
    }

    #[test]
    fn replicas_learn_the_task() {
        for (subject, mut t) in subjects(false, Codec::None) {
            let session = telemetry::Session::start();
            let reports = four_epochs(&mut t);
            assert!(reports.iter().all(|r| r.comm_overlap == 0.0), "{subject}: a single bucket hides nothing");
            let report = reports.last().unwrap();
            assert!(report.comm_bytes > 0, "{subject}: gradient exchange must move bytes");
            assert!(report.accuracy > 0.9, "{subject}: accuracy {}", report.accuracy);
            assert!(report.mean_loss < 0.5, "{subject}: loss {}", report.mean_loss);
            assert_replicas_agree(&t);
            // The sequential layout is one bucket over the whole gradient.
            assert_buckets_per_rank_step(&session.drain(), 1, subject);
        }
    }

    /// Layers of the replicas' model that carry parameters.
    fn layers_with_params(t: &ParallelTrainer) -> usize {
        t.driver.exec.ranks[0].model.layers().iter().filter(|l| !l.parameters().is_empty()).count()
    }

    /// Every rank put `per_step` bucket collectives on the wire in each of
    /// its steps, recorded under its own identity.
    fn assert_buckets_per_rank_step(records: &[telemetry::Record], per_step: usize, label: &str) {
        let ranks: std::collections::BTreeSet<u32> = records
            .iter()
            .filter_map(|r| match &r.event {
                Event::StepTiming(t) => Some(t.rank),
                _ => None,
            })
            .collect();
        assert!(!ranks.is_empty(), "{label}: no step recorded");
        for rank in ranks {
            let count = |wanted: fn(&Event) -> bool| {
                records.iter().filter(|r| r.rank == rank && wanted(&r.event)).count()
            };
            let steps = count(|e| matches!(e, Event::StepTiming(_)));
            let buckets = count(|e| matches!(e, Event::AllReduceBucket(_)));
            assert_eq!(buckets, per_step * steps, "{label}: rank {rank}");
        }
    }

    #[test]
    #[should_panic(expected = "slowdown inf is not a finite factor >= 1")]
    fn add_rank_rejects_an_infinite_slowdown() {
        trainer(false).add_rank(f64::INFINITY);
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
        // Same seed, same even epoch-0 split, on either bucket layout; the
        // retried gradient exchanges must produce bit-identical models —
        // the strongest form of "no sample lost, none double-counted" —
        // and the armed overlapped layout must still exchange per layer.
        for overlap in [false, true] {
            let run = |mut cfg: ParallelConfig| {
                cfg.overlap = overlap;
                let mut t = ParallelTrainer::builder()
                    .dataset(gaussian_blobs(640, 4, 10, 3))
                    .model(|seed| mlp_classifier(10, 24, 4, seed))
                    .config(cfg)
                    .build()
                    .expect("valid config");
                let session = telemetry::Session::start();
                let report = t.run_epoch().expect("epoch");
                (report, session.drain(), t)
            };
            let (clean, _, clean_t) = run(config(false));
            let (faulty, records, faulty_t) = run(with_faults(config(false)));
            assert!(faulty.recoveries > 0, "overlap {overlap}: the seeded plan must inject failures");
            assert_eq!(clean.recoveries, 0);
            assert_eq!(clean.mean_loss, faulty.mean_loss, "losses computed before the exchange");
            assert_eq!(clean.noise_scale, faulty.noise_scale, "GNS inputs must be unaffected");
            let weights = |t: &ParallelTrainer| weight_bits(&t.driver.exec.ranks[0].model);
            assert!(weights(&clean_t) == weights(&faulty_t), "overlap {overlap}: weights after recovery must match");
            let per_step = if overlap { layers_with_params(&faulty_t) } else { 1 };
            assert_buckets_per_rank_step(&records, per_step, &format!("armed, overlap {overlap}"));
        }
    }

    /// `cfg` with a seeded fault plan armed, on a microsecond backoff.
    fn with_faults(mut cfg: ParallelConfig) -> ParallelConfig {
        cfg.comm_faults = Some(CommFaultPlan::new().fail_at(0, 1).fail_at(5, 2).fail_at(12, 1));
        cfg.retry = RetryPolicy {
            base_backoff: std::time::Duration::from_micros(10),
            max_backoff: std::time::Duration::from_micros(100),
            ..RetryPolicy::default()
        };
        cfg
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
            // One collective per layer that has parameters — and none for
            // the layers that have not.
            assert_eq!(layers_with_params(&t), 3, "{subject}");
            assert_buckets_per_rank_step(&session.drain(), 3, subject);
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

        fn backward_to(&mut self, grad_out: &Tensor, _: Grads<'_>) -> Tensor {
            grad_out.clone()
        }

        fn replicate(&self) -> Box<dyn Layer> {
            Box::new(Tripwire(Arc::clone(&self.0)))
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
        assert_eq!(built.load(Ordering::SeqCst), 1, "one model for the trainer's lifetime, copied per rank");
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
        assert_eq!(built.load(Ordering::SeqCst), 2, "one more model after the failed epoch");
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
    fn model_factory_runs_only_when_no_replica_exists() {
        let built = Arc::new(AtomicUsize::new(0));
        let armed = Arc::new(AtomicBool::new(false));
        let (count, wire) = (Arc::clone(&built), Arc::clone(&armed));
        let mut cfg = config(false);
        cfg.slowdowns = vec![1.0, 2.0, 4.0];
        let mut t = ParallelTrainer::builder()
            .dataset(gaussian_blobs(640, 4, 10, 3))
            .model(move |seed| {
                count.fetch_add(1, Ordering::SeqCst);
                mlp_classifier(10, 24, 4, seed).push(Tripwire(Arc::clone(&wire)))
            })
            .config(cfg)
            .build()
            .expect("valid config");
        let calls = || built.load(Ordering::SeqCst);
        t.run_epoch().expect("epoch");
        assert_eq!(calls(), 1, "the first epoch builds one model and copies it to the other ranks");
        t.add_rank(1.0);
        t.run_epoch().expect("epoch");
        assert_eq!(calls(), 1, "a joining rank copies the first replica");
        assert_replicas_agree(&t);
        armed.store(true, Ordering::SeqCst);
        t.run_epoch().expect_err("a panicked rank fails the epoch");
        t.run_epoch().expect("recovery epoch");
        assert_eq!(calls(), 2, "after a failed epoch one model is built, from the checkpoint");
        assert_replicas_agree(&t);
    }

    /// Durations in milliseconds, for the node-clock cases.
    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn a_full_speed_node_never_sleeps() {
        for (cpu, wall) in [(0, 0), (10, 10), (10, 25), (25, 10)] {
            assert_eq!(owed(1.0, ms(cpu), ms(wall)), Duration::ZERO, "cpu {cpu} ms, wall {wall} ms");
        }
    }

    #[test]
    fn a_slow_node_owes_its_stretched_cpu_time_less_the_wall_time() {
        assert_eq!(owed(4.0, ms(10), ms(10)), ms(30));
        assert_eq!(owed(4.0, ms(10), ms(25)), ms(15));
        assert_eq!(owed(2.0, ms(10), ms(25)), Duration::ZERO, "past the deadline already");
        assert_eq!(owed(2.5, ms(8), ms(8)), ms(12));
    }

    #[test]
    fn time_lost_to_the_run_queue_is_slept_less_not_multiplied() {
        // The same 10 ms of work, once on a free core and once after
        // waiting X ms for one: the deadline does not move.
        for lost in [1, 5, 20] {
            let free = owed(4.0, ms(10), ms(10));
            let queued = owed(4.0, ms(10), ms(10 + lost));
            assert_eq!(free - queued, ms(lost), "lost {lost} ms");
        }
    }

    #[test]
    fn an_oversleep_is_absorbed_by_the_next_settle() {
        // s = 3: 10 ms of work, then a settle that owes 20 ms but sleeps
        // `over` ms longer, then 10 ms more work (run unhindered).
        for over in [0, 4, 15] {
            let first = owed(3.0, ms(10), ms(10));
            assert_eq!(first, ms(20));
            let wall = ms(10) + first + ms(over) + ms(10);
            let second = owed(3.0, ms(20), wall);
            assert_eq!(second, ms(20 - over), "oversleep {over} ms");
            assert_eq!(wall + second, ms(60), "the step still ends at 3 × its CPU time");
        }
    }

    /// Every step of an epoch weighs its gradient by one total, so the
    /// odd steps' variant must keep the split's length and sum, and give
    /// no node fewer than one sample.
    #[test]
    fn measurement_variant_keeps_length_sum_and_floor() {
        for n in 1..=4u32 {
            for code in 0..12u64.pow(n) {
                let split: Vec<u64> = (0..n).map(|i| code / 12u64.pow(i) % 12 + 1).collect();
                let odd = measurement_variant(&split);
                assert_eq!(odd.len(), split.len(), "{split:?} -> {odd:?}");
                assert_eq!(odd.iter().sum::<u64>(), split.iter().sum::<u64>(), "{split:?} -> {odd:?}");
                assert!(odd.iter().all(|&b| b >= 1), "{split:?} -> {odd:?}");
                // Every rank sees a second local size whenever some split
                // of the same total gives it one.
                if moves_every_rank_exists(&split) {
                    assert!(split.iter().zip(&odd).all(|(a, b)| a != b), "a rank stays put: {split:?} -> {odd:?}");
                }
            }
        }
    }

    /// The odd steps' splits of the benchmark's two real workloads, the
    /// digest cells and a four-rank floor pair, pinned: a sample the repair
    /// places goes to the largest planned share.
    #[test]
    fn measurement_variants_are_pinned() {
        for (plan, odd) in [
            (&[19, 4, 1][..], &[20, 2, 2][..]),
            (&[20, 3, 1], &[21, 1, 2]),
            (&[300, 146, 66], &[352, 110, 50]),
            (&[8, 8, 8], &[12, 6, 6]),
            (&[16, 16, 16], &[24, 12, 12]),
            (&[1, 1, 2, 2], &[2, 2, 1, 1]),
        ] {
            assert_eq!(measurement_variant(plan), odd, "{plan:?}");
        }
    }

    /// Whether some split of `split`'s total, one sample per rank at
    /// least, differs from it at every rank (brute force over the first
    /// `n − 1` shares).
    fn moves_every_rank_exists(split: &[u64]) -> bool {
        fn search(split: &[u64], left: u64) -> bool {
            match split {
                [] => false,
                [last] => left != *last && left >= 1,
                [first, rest @ ..] => (1..left).any(|b| b != *first && search(rest, left - b)),
            }
        }
        search(split, split.iter().sum())
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

    /// FNV-1a over 32-bit words.
    fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
        words.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, w| (h ^ u64::from(w)).wrapping_mul(0x0100_0000_01B3))
    }

    /// The real path, bit for bit: one line per epoch of every cell — the
    /// `subjects()` pair × both bucket layouts × {raw `f32`, bf16 + error
    /// feedback} in process, plus the MLP's sequential bf16 cell over TCP,
    /// plus `wide_mlp` under bf16 + error feedback on both layouts —
    /// holding the bits of every weight and of every rank's residual,
    /// `mean_loss`, `noise_scale` and `comm_bytes`. Under
    /// `PolicyKind::Even` with a fixed batch no split reads a clock, so the
    /// lines are a function of the code and the GEMM family alone: the
    /// AVX2 and AVX-512 tiles give the same bits and the scalar tile other
    /// ones, so each line is keyed by the family that wrote it, and a host
    /// whose family has no line says so and skips. `CANNIKIN_BLESS=1`
    /// rewrites the compiled-in family's lines and keeps the others; the
    /// committed lines were written by the step this one replaced. The
    /// switch is read when the test is compiled (cargo rebuilds it when the
    /// variable changes): the core crate reads no environment.
    #[test]
    fn epochs_match_the_golden_digests() {
        use minidnn::tensor::simd::{configured_kernel, Kernel};
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/parallel_digests.txt");
        let family = match configured_kernel() {
            Kernel::Scalar => "scalar",
            Kernel::Avx2 | Kernel::Avx512 => "simd",
        };
        let bless = option_env!("CANNIKIN_BLESS").is_some();
        let fixture = std::fs::read_to_string(&path).unwrap_or_default();
        let (golden, others): (Vec<&str>, Vec<&str>) =
            fixture.lines().partition(|line| line.split(' ').next() == Some(family));
        if golden.is_empty() && !bless {
            eprintln!("{}: no line for the {family} GEMM family; skipped", path.display());
            return;
        }

        let mut cells = Vec::new();
        for (overlap, codec) in [(false, Codec::None), (false, Codec::Bf16), (true, Codec::None), (true, Codec::Bf16)] {
            for (subject, builder) in subject_builders(overlap, codec) {
                cells.push((subject, overlap, codec, TransportKind::InProcess, builder));
            }
        }
        let [(subject, tcp_cell), _] = subject_builders(false, Codec::Bf16);
        cells.push((subject, false, Codec::Bf16, TransportKind::tcp(), tcp_cell));
        for overlap in [false, true] {
            cells.push(("wide", overlap, Codec::Bf16, TransportKind::InProcess, wide_mlp(overlap)));
        }
        let mut lines = Vec::new();
        for (subject, overlap, codec, transport, builder) in cells {
            let wire = transport.label();
            let mut t = builder.policy(PolicyKind::Even).transport(transport).build().expect("valid config");
            for epoch in 0..3 {
                let report = t.run_epoch().expect("epoch");
                assert_replicas_agree(&t);
                let ranks = &t.driver.exec.ranks;
                let residuals = ranks.iter().filter(|s| s.feedback.is_some()).flat_map(residual_of);
                lines.push(format!(
                    "{family} {subject} overlap={overlap} codec={codec} {wire} epoch={epoch} weights={:016x} \
                     residuals={:016x} mean_loss={:016x} noise_scale={:016x} comm_bytes={}",
                    fnv1a(weight_bits(&ranks[0].model)),
                    fnv1a(residuals.map(f32::to_bits)),
                    report.mean_loss.to_bits(),
                    report.noise_scale.map_or(u64::MAX, f64::to_bits),
                    report.comm_bytes,
                ));
            }
        }
        if bless {
            let text: Vec<String> = others.iter().map(|l| l.to_string()).chain(lines).collect();
            std::fs::write(&path, text.join("\n") + "\n").expect("write golden fixture");
            return;
        }
        for (line, (got, want)) in lines.iter().zip(&golden).enumerate() {
            assert_eq!(got, want, "{family} line {} of {} departs", line + 1, path.display());
        }
        assert_eq!(lines.len(), golden.len(), "{} has a different {family} line count", path.display());
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
            assert_eq!(built.load(Ordering::SeqCst), 1, "{label}: replicas are built once, from one model");
            // The endpoints' lifetime counters add up to what the four
            // epochs reported: no epoch started on a new ring.
            let lifetime: u64 = t.driver.exec.ranks.iter().map(|s| s.comm.bytes_sent()).sum();
            assert_eq!(lifetime, reported, "{label}: the ring is formed once");
        }
    }

    #[test]
    fn fault_plan_keys_count_from_each_epochs_first_exchange() {
        let mut t = ParallelTrainer::builder()
            .dataset(gaussian_blobs(640, 4, 10, 3))
            .model(|seed| mlp_classifier(10, 24, 4, seed))
            .config(with_faults(config(false)))
            .build()
            .expect("valid config");
        let retries: Vec<u32> = (0..3).map(|_| t.run_epoch().expect("epoch").recoveries).collect();
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
