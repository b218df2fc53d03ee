//! Fluent builders for the two training engines.
//!
//! [`CannikinTrainerBuilder`] and [`ParallelTrainerBuilder`] are the
//! supported way to construct trainers: every knob has a sensible default,
//! misconfigurations surface as [`CannikinError::InvalidConfig`] from
//! `build()` instead of a panic deep inside a constructor, and the
//! gradient exchange's collective transport can be chosen per
//! [`ParallelTrainer`] ([`TransportKind::InProcess`] channels or
//! [`TransportKind::tcp`] sockets). A knob no setter touches keeps the
//! default its setter documents.
//!
//! ```
//! use cannikin_core::engine::{CannikinTrainer, LinearNoiseGrowth};
//! use hetsim::catalog::Gpu;
//! use hetsim::cluster::{ClusterSpec, NodeSpec};
//! use hetsim::job::JobSpec;
//! use hetsim::Simulator;
//!
//! let cluster = ClusterSpec::new(
//!     "quickstart",
//!     vec![NodeSpec::new("a100", Gpu::A100), NodeSpec::new("v100", Gpu::V100)],
//! );
//! let mut trainer = CannikinTrainer::builder()
//!     .simulator(Simulator::new(cluster, JobSpec::resnet18_cifar10(), 7))
//!     .noise(LinearNoiseGrowth { initial: 300.0, rate: 1.0 })
//!     .dataset_size(10_000)
//!     .batch_range(64, 1024)
//!     .build()
//!     .expect("valid configuration");
//! let record = trainer.run_epoch().expect("epoch runs");
//! assert_eq!(record.total_batch, 64);
//! ```

use super::parallel::{is_slowdown, ParallelConfig, ParallelTrainer};
use super::trainer::{CannikinTrainer, TrainerConfig};
use super::LinearNoiseGrowth;
use crate::error::CannikinError;
use crate::optperf::SolverInput;
use crate::policy::{self, PolicyKind};

use cannikin_collectives::{Codec, CommFaultPlan, TransportKind};
use hetsim::Simulator;
use minidnn::data::ClassificationDataset;
use minidnn::layers::Sequential;

use std::sync::Arc;

/// Builder for the simulator-driven [`CannikinTrainer`].
///
/// Required: [`simulator`](Self::simulator). Everything else defaults to
/// the standard workload configuration (50 000-sample dataset, batch range
/// 64–4096, inverse-variance measurement fusion, adaptive total batch,
/// linear noise growth φ₀ = 300, rate 1).
pub struct CannikinTrainerBuilder {
    sim: Option<Simulator>,
    noise: LinearNoiseGrowth,
    config: TrainerConfig,
    warm_start: Option<SolverInput>,
    policy_kind: PolicyKind,
}

impl Default for CannikinTrainerBuilder {
    fn default() -> Self {
        CannikinTrainerBuilder {
            sim: None,
            noise: LinearNoiseGrowth { initial: 300.0, rate: 1.0 },
            config: TrainerConfig::new(50_000, 64, 4096),
            warm_start: None,
            policy_kind: PolicyKind::default(),
        }
    }
}

impl CannikinTrainerBuilder {
    /// A builder with every knob at its default.
    pub fn new() -> Self {
        Self::default()
    }

    /// The simulated cluster to train on (required).
    #[must_use]
    pub fn simulator(mut self, sim: Simulator) -> Self {
        self.sim = Some(sim);
        self
    }

    /// The gradient-noise growth law (default: φ₀ = 300, rate 1 per
    /// effective epoch).
    #[must_use]
    pub fn noise(mut self, noise: LinearNoiseGrowth) -> Self {
        self.noise = noise;
        self
    }

    /// Replace the whole [`TrainerConfig`]; a setter called after this
    /// changes its one field.
    #[must_use]
    pub fn config(mut self, config: TrainerConfig) -> Self {
        self.config = config;
        self
    }

    /// Samples per (synthetic) dataset epoch.
    #[must_use]
    pub fn dataset_size(mut self, samples: usize) -> Self {
        self.config.dataset_size = samples;
        self
    }

    /// The total-batch range: the initial/reference batch B₀ and the
    /// upper end the adaptive batch may reach.
    #[must_use]
    pub fn batch_range(mut self, base: u64, max: u64) -> Self {
        self.config.base_batch = base;
        self.config.max_batch = max;
        self
    }

    /// Whether the total batch size adapts via goodput (`false` pins it to
    /// `base_batch`).
    #[must_use]
    pub fn adaptive_batch(mut self, adaptive: bool) -> Self {
        self.config.adaptive_batch = adaptive;
        self
    }

    /// Warm-start from a checkpointed performance model, skipping the
    /// bootstrap epochs.
    #[must_use]
    pub fn warm_start(mut self, checkpoint: SolverInput) -> Self {
        self.warm_start = Some(checkpoint);
        self
    }

    /// Which built-in adaptation policy plans each epoch (default:
    /// [`PolicyKind::OptPerf`]).
    #[must_use]
    pub fn policy(mut self, kind: PolicyKind) -> Self {
        self.policy_kind = kind;
        self
    }

    /// Build the trainer.
    ///
    /// # Errors
    ///
    /// [`CannikinError::InvalidConfig`] when the simulator is missing, the
    /// batch range cannot cover the cluster, or the dataset cannot hold
    /// one base batch.
    pub fn build(self) -> Result<CannikinTrainer, CannikinError> {
        let sim = self
            .sim
            .ok_or_else(|| CannikinError::InvalidConfig("CannikinTrainerBuilder needs a simulator".into()))?;
        let config = self.config;
        let n = sim.cluster().len();
        check_batches(config.base_batch, config.max_batch, n)?;
        check_dataset_size(config.dataset_size, config.base_batch)?;
        let policy = policy::build_sim_policy(self.policy_kind, config.base_batch, n, config.max_batch);
        let mut trainer = CannikinTrainer::from_parts(sim, self.noise, config, policy);
        if let Some(checkpoint) = &self.warm_start {
            trainer.warm_start(checkpoint);
        }
        Ok(trainer)
    }
}

/// The batch range's rules every engine shares: B₀ gives each of `nodes`
/// one sample, and the range is not inverted.
///
/// # Errors
///
/// [`CannikinError::InvalidConfig`] when `base_batch < nodes` or
/// `max_batch < base_batch`.
pub fn check_batches(base_batch: u64, max_batch: u64, nodes: usize) -> Result<(), CannikinError> {
    if base_batch < nodes as u64 {
        return Err(CannikinError::InvalidConfig(format!("base batch {base_batch} cannot cover {nodes} nodes")));
    }
    if max_batch < base_batch {
        return Err(CannikinError::InvalidConfig(format!("max batch {max_batch} is below base batch {base_batch}")));
    }
    Ok(())
}

/// An epoch is `|D| / B` steps and credits `steps·B·η/|D|` effective
/// epochs, so a dataset smaller than one base batch would make the
/// progress of its first epoch infinite.
///
/// # Errors
///
/// [`CannikinError::InvalidConfig`] when `dataset_size < base_batch`.
pub fn check_dataset_size(dataset_size: usize, base_batch: u64) -> Result<(), CannikinError> {
    if (dataset_size as u64) < base_batch {
        return Err(CannikinError::InvalidConfig(format!(
            "a dataset of {dataset_size} samples cannot hold one base batch of {base_batch}"
        )));
    }
    Ok(())
}

impl std::fmt::Debug for CannikinTrainerBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CannikinTrainerBuilder")
            .field("sim", &self.sim.is_some())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// Builder for the thread-parallel functional [`ParallelTrainer`].
///
/// Required: [`dataset`](Self::dataset) and [`model`](Self::model).
/// Everything else defaults to [`ParallelConfig::hetero_default`] with
/// B₀ = 32.
pub struct ParallelTrainerBuilder {
    dataset: Option<ClassificationDataset>,
    factory: Option<Arc<dyn Fn(u64) -> Sequential + Send + Sync>>,
    config: ParallelConfig,
    policy_kind: PolicyKind,
}

impl Default for ParallelTrainerBuilder {
    fn default() -> Self {
        ParallelTrainerBuilder {
            dataset: None,
            factory: None,
            config: ParallelConfig::hetero_default(32),
            policy_kind: PolicyKind::default(),
        }
    }
}

impl ParallelTrainerBuilder {
    /// A builder with every knob at its default.
    pub fn new() -> Self {
        Self::default()
    }

    /// The classification dataset to train on (required).
    #[must_use]
    pub fn dataset(mut self, dataset: ClassificationDataset) -> Self {
        self.dataset = Some(dataset);
        self
    }

    /// The model factory (required): `factory(seed)` must build identical
    /// architectures for identical seeds.
    #[must_use]
    pub fn model(mut self, factory: impl Fn(u64) -> Sequential + Send + Sync + 'static) -> Self {
        self.factory = Some(Arc::new(factory));
        self
    }

    /// Replace the whole [`ParallelConfig`]; a setter called after this
    /// changes its one field.
    #[must_use]
    pub fn config(mut self, config: ParallelConfig) -> Self {
        self.config = config;
        self
    }

    /// Per-node slowdown factors, each finite and `>= 1.0` (1.0 = full
    /// speed; `build` rejects anything else); the length sets the node
    /// count.
    #[must_use]
    pub fn slowdowns(mut self, slowdowns: Vec<f64>) -> Self {
        self.config.slowdowns = slowdowns;
        self
    }

    /// The total-batch range: the reference/initial batch B₀ and the
    /// upper bound of the adaptive range (`build` caps the bound at half
    /// the dataset: an epoch must hold one even and one odd step).
    #[must_use]
    pub fn batch_range(mut self, base: u64, max: u64) -> Self {
        self.config.base_batch = base;
        self.config.max_batch = max;
        self
    }

    /// Whether the total batch size adapts via goodput.
    #[must_use]
    pub fn adaptive(mut self, adaptive: bool) -> Self {
        self.config.adaptive = adaptive;
        self
    }

    /// Base learning rate at B₀.
    #[must_use]
    pub fn base_lr(mut self, lr: f64) -> Self {
        self.config.base_lr = lr;
        self
    }

    /// RNG seed (model init and shuffling).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Inject deterministic gradient-exchange failures; this arms every
    /// rank's exchange with the retry policy (receive timeouts,
    /// retry-with-backoff, restore-on-error).
    #[must_use]
    pub fn comm_faults(mut self, plan: CommFaultPlan) -> Self {
        self.config.comm_faults = Some(plan);
        self
    }

    /// Collective transport for the gradient exchange (default: in-process
    /// channels).
    #[must_use]
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.config.transport = kind;
        self
    }

    /// Gradient compression codec for the exchange (default: lossless raw
    /// `f32`). Lossy codecs run with persistent per-rank error feedback.
    #[must_use]
    pub fn codec(mut self, codec: Codec) -> Self {
        self.config.codec = codec;
        self
    }

    /// Overlap gradient communication with backward compute (per-layer
    /// buckets reduced while earlier layers still compute; default:
    /// synchronize after the full backward pass).
    #[must_use]
    pub fn overlap(mut self, overlap: bool) -> Self {
        self.config.overlap = overlap;
        self
    }

    /// Which built-in adaptation policy plans each epoch (default:
    /// [`PolicyKind::OptPerf`]).
    #[must_use]
    pub fn policy(mut self, kind: PolicyKind) -> Self {
        self.policy_kind = kind;
        self
    }

    /// Build the trainer.
    ///
    /// # Errors
    ///
    /// [`CannikinError::InvalidConfig`] when the dataset or model factory
    /// is missing, the node set is empty or holds a slowdown that is not a
    /// finite factor `>= 1`, the batch range cannot cover it, the learning
    /// rate is not positive, or the dataset is smaller than two base batches.
    pub fn build(self) -> Result<ParallelTrainer, CannikinError> {
        let dataset = self
            .dataset
            .ok_or_else(|| CannikinError::InvalidConfig("ParallelTrainerBuilder needs a dataset".into()))?;
        let factory = self
            .factory
            .ok_or_else(|| CannikinError::InvalidConfig("ParallelTrainerBuilder needs a model factory".into()))?;
        let mut config = self.config;
        let n = config.slowdowns.len();
        if n == 0 {
            return Err(CannikinError::InvalidConfig("need at least one node".into()));
        }
        check_batches(config.base_batch, config.max_batch, n)?;
        if let Some((i, s)) = config.slowdowns.iter().enumerate().find(|(_, s)| !is_slowdown(**s)) {
            return Err(CannikinError::InvalidConfig(format!(
                "slowdown {s} of node {i} is not a finite factor >= 1"
            )));
        }
        // The ranks' optimizers are built on the caller's thread, where a
        // bad rate must not panic.
        if config.base_lr.is_nan() || config.base_lr <= 0.0 {
            return Err(CannikinError::InvalidConfig(format!(
                "base learning rate {} is not positive",
                config.base_lr
            )));
        }
        // Every epoch alternates an even and an odd measurement step, so
        // a batch can be at most half the samples an epoch holds.
        let epoch_cap = (dataset.len() / 2) as u64;
        if config.base_batch > epoch_cap {
            return Err(CannikinError::InvalidConfig(format!(
                "base batch {} needs at least {} samples per epoch, the dataset has {}",
                config.base_batch,
                2 * config.base_batch,
                dataset.len()
            )));
        }
        config.max_batch = config.max_batch.min(epoch_cap);
        let policy = policy::build_sim_policy(self.policy_kind, config.base_batch, n, config.max_batch);
        Ok(ParallelTrainer::from_parts(dataset, factory, config, policy))
    }
}

impl std::fmt::Debug for ParallelTrainerBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelTrainerBuilder")
            .field("dataset", &self.dataset.is_some())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::catalog::Gpu;
    use hetsim::cluster::{ClusterSpec, NodeSpec};
    use hetsim::job::JobSpec;
    use minidnn::data::gaussian_blobs;
    use minidnn::models::mlp_classifier;

    fn sim() -> Simulator {
        let cluster = ClusterSpec::new(
            "b",
            vec![NodeSpec::new("a100", Gpu::A100), NodeSpec::new("v100", Gpu::V100)],
        );
        Simulator::new(cluster, JobSpec::resnet18_cifar10(), 3)
    }

    #[test]
    fn missing_simulator_is_a_config_error() {
        let err = CannikinTrainer::builder().build().expect_err("no simulator");
        assert!(matches!(err, CannikinError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("simulator"));
    }

    #[test]
    fn batch_range_is_validated_not_panicked() {
        let err = CannikinTrainer::builder()
            .simulator(sim())
            .batch_range(1, 4096)
            .build()
            .expect_err("1 < 2 nodes");
        assert!(err.to_string().contains("cannot cover"));
        let err = CannikinTrainer::builder()
            .simulator(sim())
            .batch_range(64, 32)
            .build()
            .expect_err("inverted range");
        assert!(err.to_string().contains("below base batch"));
    }

    #[test]
    fn trainer_builder_defaults_train() {
        let mut t = CannikinTrainer::builder()
            .simulator(sim())
            .dataset_size(3_200)
            .batch_range(32, 256)
            .build()
            .expect("valid config");
        let record = t.run_epoch().expect("epoch");
        assert_eq!(record.total_batch, 32);
    }

    #[test]
    fn parallel_builder_validates_and_trains() {
        let err = ParallelTrainer::builder().build().expect_err("no dataset");
        assert!(err.to_string().contains("dataset"));
        let err = ParallelTrainer::builder()
            .dataset(gaussian_blobs(64, 4, 10, 3))
            .build()
            .expect_err("no model");
        assert!(err.to_string().contains("model factory"));
        let err = ParallelTrainer::builder()
            .dataset(gaussian_blobs(64, 4, 10, 3))
            .model(|seed| mlp_classifier(10, 16, 4, seed))
            .slowdowns(vec![1.0; 40])
            .batch_range(8, 64)
            .transport(TransportKind::InProcess)
            .build()
            .expect_err("8 < 40 nodes");
        assert!(err.to_string().contains("cannot cover"));
        let err = ParallelTrainer::builder()
            .dataset(gaussian_blobs(48, 4, 10, 3))
            .model(|seed| mlp_classifier(10, 16, 4, seed))
            .batch_range(32, 256)
            .transport(TransportKind::InProcess)
            .build()
            .expect_err("48 samples cannot hold an even and an odd step of 32");
        assert!(err.to_string().contains("samples per epoch"), "{err}");
        let err = ParallelTrainer::builder()
            .dataset(gaussian_blobs(64, 4, 10, 3))
            .model(|seed| mlp_classifier(10, 16, 4, seed))
            .base_lr(0.0)
            .transport(TransportKind::InProcess)
            .build()
            .expect_err("a zero rate never moves the weights");
        assert!(err.to_string().contains("learning rate"), "{err}");
        let with_slowdown = |x: f64| {
            ParallelTrainer::builder()
                .dataset(gaussian_blobs(64, 4, 10, 3))
                .model(|seed| mlp_classifier(10, 16, 4, seed))
                .slowdowns(vec![1.0, x])
                .batch_range(8, 64)
                .transport(TransportKind::InProcess)
                .build()
        };
        for x in [f64::INFINITY, f64::NAN, 0.5, -1.0] {
            let err = with_slowdown(x).expect_err("a factor no rank can sleep for");
            assert!(matches!(err, CannikinError::InvalidConfig(_)), "{err}");
            assert!(err.to_string().contains(&format!("slowdown {x} of node 1")), "{err}");
        }
        for x in [1.0, 4.0] {
            with_slowdown(x).expect("a finite factor >= 1 builds");
        }

        let mut t = ParallelTrainer::builder()
            .dataset(gaussian_blobs(256, 4, 10, 3))
            .model(|seed| mlp_classifier(10, 16, 4, seed))
            .slowdowns(vec![1.0, 1.0])
            .batch_range(32, 64)
            .adaptive(false)
            .seed(9)
            .transport(TransportKind::InProcess)
            .build()
            .expect("valid config");
        let report = t.run_epoch().expect("epoch");
        assert_eq!(report.local_batches.len(), 2);
        assert!(report.comm_bytes > 0, "gradient exchange moves bytes");
    }

    #[test]
    fn config_then_setters_layering() {
        let mut cfg = ParallelConfig::hetero_default(32);
        cfg.seed = 40;
        let t = ParallelTrainer::builder()
            .dataset(gaussian_blobs(128, 4, 10, 3))
            .model(|seed| mlp_classifier(10, 16, 4, seed))
            .config(cfg)
            .slowdowns(vec![1.0])
            .build()
            .expect("valid config");
        assert_eq!(t.world_size(), 1, "setter overrides the config's node set");
    }

    #[test]
    fn codec_and_overlap_knobs_layer_like_transport() {
        let mut cfg = ParallelConfig::hetero_default(32);
        cfg.codec = Codec::TopK { permille: 100 };
        cfg.overlap = true;
        let t = ParallelTrainer::builder()
            .dataset(gaussian_blobs(128, 4, 10, 3))
            .model(|seed| mlp_classifier(10, 16, 4, seed))
            .config(cfg)
            .codec(Codec::Bf16)
            .transport(TransportKind::InProcess)
            .build()
            .expect("valid config");
        assert_eq!(t.config().codec, Codec::Bf16, "setter overrides the config's codec");
        assert!(t.config().overlap, "config's overlap flag survives");

        let t = ParallelTrainer::builder()
            .dataset(gaussian_blobs(128, 4, 10, 3))
            .model(|seed| mlp_classifier(10, 16, 4, seed))
            .overlap(true)
            .transport(TransportKind::InProcess)
            .codec(Codec::TopK { permille: 100 })
            .build()
            .expect("valid config");
        assert_eq!(t.config().codec, Codec::TopK { permille: 100 });
        assert!(t.config().overlap, "overlap setter engages without a config");
    }
}
