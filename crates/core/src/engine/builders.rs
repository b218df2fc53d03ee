//! Fluent builders for the two training engines.
//!
//! [`CannikinTrainerBuilder`] and [`ParallelTrainerBuilder`] are the
//! supported way to construct trainers: every knob has a sensible default,
//! misconfigurations surface as [`CannikinError::InvalidConfig`] from
//! `build()` instead of a panic deep inside a constructor, and the
//! collective transport can be chosen per trainer
//! ([`TransportKind::InProcess`] channels or [`TransportKind::tcp`]
//! sockets).
//!
//! Transport precedence is **builder > env > default**: an explicit
//! [`transport`](CannikinTrainerBuilder::transport) call (or, for the
//! parallel builder, a full [`config`](ParallelTrainerBuilder::config))
//! always wins; otherwise the `CANNIKIN_TRANSPORT` variable is consulted
//! via [`runtime::transport_from_env`]; otherwise the in-process backend is
//! used. The gradient codec follows the same ladder through
//! [`codec`](ParallelTrainerBuilder::codec) and `CANNIKIN_CODEC`, ending
//! at the lossless raw-`f32` default. The adaptation policy follows it
//! too: [`policy`](CannikinTrainerBuilder::policy) (or
//! [`policy_boxed`](CannikinTrainerBuilder::policy_boxed) for a custom
//! [`Policy`] implementation) > `CANNIKIN_POLICY` >
//! [`PolicyKind::OptPerf`].
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

use super::parallel::{ParallelConfig, ParallelTrainer};
use super::trainer::{CannikinTrainer, TrainerConfig};
use super::NoiseModel;
use crate::error::CannikinError;
use crate::optperf::SolverInput;
use crate::policy::{self, Policy, PolicyKind};
use crate::runtime;

use cannikin_collectives::{Codec, CommFaultPlan, TransportKind};
use hetsim::Simulator;
use minidnn::data::ClassificationDataset;
use minidnn::layers::Sequential;
use minidnn::lr::LrScaler;

use std::sync::Arc;

/// Builder for the simulator-driven [`CannikinTrainer`].
///
/// Required: [`simulator`](Self::simulator). Everything else defaults to
/// the standard workload configuration (50 000-sample dataset, batch range
/// 64–4096, inverse-variance measurement fusion, adaptive total batch,
/// linear noise growth φ₀ = 300, rate 1).
#[derive(Default)]
pub struct CannikinTrainerBuilder {
    sim: Option<Simulator>,
    noise: Option<Box<dyn NoiseModel>>,
    config: Option<TrainerConfig>,
    dataset_size: Option<usize>,
    base_batch: Option<u64>,
    max_batch: Option<u64>,
    adaptive_batch: Option<bool>,
    warm_start: Option<SolverInput>,
    transport: Option<TransportKind>,
    policy_kind: Option<PolicyKind>,
    policy: Option<Box<dyn Policy>>,
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

    /// The gradient-noise evolution model (default: linear growth,
    /// φ₀ = 300, rate 1 per effective epoch).
    #[must_use]
    pub fn noise(mut self, noise: impl NoiseModel + 'static) -> Self {
        self.noise = Some(Box::new(noise));
        self
    }

    /// Like [`noise`](Self::noise), accepting an already-boxed model
    /// (e.g. a `Box<dyn NoiseModel>` chosen at runtime).
    #[must_use]
    pub fn noise_boxed(mut self, noise: Box<dyn NoiseModel>) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Start from a complete [`TrainerConfig`]; the individual setters
    /// below still override its fields.
    #[must_use]
    pub fn config(mut self, config: TrainerConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Samples per (synthetic) dataset epoch.
    #[must_use]
    pub fn dataset_size(mut self, samples: usize) -> Self {
        self.dataset_size = Some(samples);
        self
    }

    /// Initial/reference total batch size B₀.
    #[must_use]
    pub fn base_batch(mut self, base: u64) -> Self {
        self.base_batch = Some(base);
        self
    }

    /// Upper end of the admissible total-batch range.
    #[must_use]
    pub fn max_batch(mut self, max: u64) -> Self {
        self.max_batch = Some(max);
        self
    }

    /// Both ends of the total-batch range at once.
    #[must_use]
    pub fn batch_range(self, base: u64, max: u64) -> Self {
        self.base_batch(base).max_batch(max)
    }

    /// Whether the total batch size adapts via goodput (`false` pins it to
    /// `base_batch`).
    #[must_use]
    pub fn adaptive_batch(mut self, adaptive: bool) -> Self {
        self.adaptive_batch = Some(adaptive);
        self
    }

    /// Warm-start from a checkpointed performance model, skipping the
    /// bootstrap epochs.
    #[must_use]
    pub fn warm_start(mut self, checkpoint: SolverInput) -> Self {
        self.warm_start = Some(checkpoint);
        self
    }

    /// Collective transport for the per-epoch cluster-metric exchange
    /// (local batches and per-sample times gathered over a real comm
    /// group, with bytes-on-wire telemetry). When neither this nor
    /// `CANNIKIN_TRANSPORT` is set, no exchange runs — the simulator-driven
    /// trainer has no gradients to move, so the control-plane gather is
    /// opt-in.
    #[must_use]
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.transport = Some(kind);
        self
    }

    /// Which built-in adaptation policy plans each epoch (default: builder
    /// > `CANNIKIN_POLICY` > [`PolicyKind::OptPerf`]).
    #[must_use]
    pub fn policy(mut self, kind: PolicyKind) -> Self {
        self.policy_kind = Some(kind);
        self
    }

    /// A custom [`Policy`] implementation; overrides
    /// [`policy`](Self::policy) and `CANNIKIN_POLICY`.
    #[must_use]
    pub fn policy_boxed(mut self, policy: Box<dyn Policy>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Build the trainer.
    ///
    /// # Errors
    ///
    /// [`CannikinError::InvalidConfig`] when the simulator is missing, the
    /// batch range cannot cover the cluster, or `CANNIKIN_TRANSPORT` /
    /// `CANNIKIN_POLICY` holds an unparseable value.
    pub fn build(self) -> Result<CannikinTrainer, CannikinError> {
        let sim = self
            .sim
            .ok_or_else(|| CannikinError::InvalidConfig("CannikinTrainerBuilder needs a simulator".into()))?;
        let mut config = self.config.unwrap_or_else(|| TrainerConfig::new(50_000, 64, 4096));
        if let Some(v) = self.dataset_size {
            config.dataset_size = v;
        }
        if let Some(v) = self.base_batch {
            config.base_batch = v;
        }
        if let Some(v) = self.max_batch {
            config.max_batch = v;
        }
        if let Some(v) = self.adaptive_batch {
            config.adaptive_batch = v;
        }
        let n = sim.cluster().len() as u64;
        if config.base_batch < n {
            return Err(CannikinError::InvalidConfig(format!(
                "base batch {} cannot cover {n} nodes",
                config.base_batch
            )));
        }
        if config.max_batch < config.base_batch {
            return Err(CannikinError::InvalidConfig(format!(
                "max batch {} is below base batch {}",
                config.max_batch, config.base_batch
            )));
        }
        let noise: Box<dyn NoiseModel> =
            self.noise.unwrap_or_else(|| Box::new(super::LinearNoiseGrowth { initial: 300.0, rate: 1.0 }));
        // Builder > environment: a variable the builder overrides is never
        // read, so a malformed one cannot fail the build.
        let transport = match self.transport {
            Some(kind) => Some(kind),
            None => runtime::transport_from_env()?,
        };
        let policy: Box<dyn Policy> = match self.policy {
            Some(p) => p,
            None => {
                let kind = match self.policy_kind {
                    Some(kind) => kind,
                    None => runtime::policy_from_env()?.unwrap_or_default(),
                };
                policy::build_sim_policy(kind, config.base_batch, sim.cluster().len(), config.max_batch)
            }
        };
        let mut trainer = CannikinTrainer::from_parts(sim, noise, config, transport, policy);
        if let Some(checkpoint) = &self.warm_start {
            trainer.warm_start(checkpoint);
        }
        Ok(trainer)
    }
}

impl std::fmt::Debug for CannikinTrainerBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CannikinTrainerBuilder")
            .field("sim", &self.sim.is_some())
            .field("config", &self.config)
            .field("transport", &self.transport)
            .finish_non_exhaustive()
    }
}

/// Builder for the thread-parallel functional [`ParallelTrainer`].
///
/// Required: [`dataset`](Self::dataset) and [`model`](Self::model).
/// Everything else defaults to [`ParallelConfig::hetero_default`] with
/// B₀ = 32.
#[derive(Default)]
pub struct ParallelTrainerBuilder {
    dataset: Option<ClassificationDataset>,
    factory: Option<Arc<dyn Fn(u64) -> Sequential + Send + Sync>>,
    config: Option<ParallelConfig>,
    slowdowns: Option<Vec<f64>>,
    base_batch: Option<u64>,
    max_batch: Option<u64>,
    adaptive: Option<bool>,
    base_lr: Option<f64>,
    lr_scaler: Option<LrScaler>,
    seed: Option<u64>,
    comm_faults: Option<CommFaultPlan>,
    transport: Option<TransportKind>,
    codec: Option<Codec>,
    overlap: Option<bool>,
    policy_kind: Option<PolicyKind>,
    policy: Option<Box<dyn Policy>>,
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

    /// Start from a complete [`ParallelConfig`] (its `transport` field
    /// counts as an explicit builder-level choice); the individual setters
    /// below still override its fields.
    #[must_use]
    pub fn config(mut self, config: ParallelConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Per-node slowdown factors, each finite and `>= 1.0` (1.0 = full
    /// speed; `build` rejects anything else); the length sets the node
    /// count.
    #[must_use]
    pub fn slowdowns(mut self, slowdowns: Vec<f64>) -> Self {
        self.slowdowns = Some(slowdowns);
        self
    }

    /// Reference/initial total batch size B₀.
    #[must_use]
    pub fn base_batch(mut self, base: u64) -> Self {
        self.base_batch = Some(base);
        self
    }

    /// Upper bound of the adaptive batch range (`build` caps it at half
    /// the dataset: an epoch must hold one even and one odd step).
    #[must_use]
    pub fn max_batch(mut self, max: u64) -> Self {
        self.max_batch = Some(max);
        self
    }

    /// Both ends of the total-batch range at once.
    #[must_use]
    pub fn batch_range(self, base: u64, max: u64) -> Self {
        self.base_batch(base).max_batch(max)
    }

    /// Whether the total batch size adapts via goodput.
    #[must_use]
    pub fn adaptive(mut self, adaptive: bool) -> Self {
        self.adaptive = Some(adaptive);
        self
    }

    /// Base learning rate at B₀.
    #[must_use]
    pub fn base_lr(mut self, lr: f64) -> Self {
        self.base_lr = Some(lr);
        self
    }

    /// Learning-rate scaling rule for grown batches.
    #[must_use]
    pub fn lr_scaler(mut self, scaler: LrScaler) -> Self {
        self.lr_scaler = Some(scaler);
        self
    }

    /// RNG seed (model init and shuffling).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Inject deterministic gradient-exchange failures; this arms every
    /// rank's exchange with the retry policy (receive timeouts,
    /// retry-with-backoff, restore-on-error).
    #[must_use]
    pub fn comm_faults(mut self, plan: CommFaultPlan) -> Self {
        self.comm_faults = Some(plan);
        self
    }

    /// Collective transport for the gradient exchange (default: builder >
    /// `CANNIKIN_TRANSPORT` > in-process channels).
    #[must_use]
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.transport = Some(kind);
        self
    }

    /// Gradient compression codec for the exchange (default: builder >
    /// `CANNIKIN_CODEC` > lossless raw `f32`). Lossy codecs run with
    /// persistent per-rank error feedback.
    #[must_use]
    pub fn codec(mut self, codec: Codec) -> Self {
        self.codec = Some(codec);
        self
    }

    /// Overlap gradient communication with backward compute (per-layer
    /// buckets reduced while earlier layers still compute; default:
    /// synchronize after the full backward pass).
    #[must_use]
    pub fn overlap(mut self, overlap: bool) -> Self {
        self.overlap = Some(overlap);
        self
    }

    /// Which built-in adaptation policy plans each epoch (default: builder
    /// > `CANNIKIN_POLICY` > [`PolicyKind::OptPerf`]).
    #[must_use]
    pub fn policy(mut self, kind: PolicyKind) -> Self {
        self.policy_kind = Some(kind);
        self
    }

    /// A custom [`Policy`] implementation; overrides
    /// [`policy`](Self::policy) and `CANNIKIN_POLICY`.
    #[must_use]
    pub fn policy_boxed(mut self, policy: Box<dyn Policy>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Build the trainer.
    ///
    /// # Errors
    ///
    /// [`CannikinError::InvalidConfig`] when the dataset or model factory
    /// is missing, the node set is empty or holds a slowdown that is not a
    /// finite factor `>= 1`, the batch range cannot cover it, the learning
    /// rate is not positive, the dataset is smaller than two base batches, or
    /// `CANNIKIN_TRANSPORT` / `CANNIKIN_POLICY` holds an unparseable value.
    pub fn build(self) -> Result<ParallelTrainer, CannikinError> {
        let dataset = self
            .dataset
            .ok_or_else(|| CannikinError::InvalidConfig("ParallelTrainerBuilder needs a dataset".into()))?;
        let factory = self
            .factory
            .ok_or_else(|| CannikinError::InvalidConfig("ParallelTrainerBuilder needs a model factory".into()))?;
        let explicit_transport = self.transport.or_else(|| self.config.as_ref().map(|c| c.transport.clone()));
        let explicit_codec = self.codec.or_else(|| self.config.as_ref().map(|c| c.codec));
        let mut config = self
            .config
            .unwrap_or_else(|| ParallelConfig::hetero_default(self.base_batch.unwrap_or(32)));
        if let Some(v) = self.slowdowns {
            config.slowdowns = v;
        }
        if let Some(v) = self.base_batch {
            config.base_batch = v;
        }
        if let Some(v) = self.max_batch {
            config.max_batch = v;
        }
        if let Some(v) = self.adaptive {
            config.adaptive = v;
        }
        if let Some(v) = self.base_lr {
            config.base_lr = v;
        }
        if let Some(v) = self.lr_scaler {
            config.lr_scaler = v;
        }
        if let Some(v) = self.seed {
            config.seed = v;
        }
        if let Some(v) = self.comm_faults {
            config.comm_faults = Some(v);
        }
        if let Some(v) = self.overlap {
            config.overlap = v;
        }
        // Builder > environment > default: a variable the builder overrides
        // is never read, so a malformed one cannot fail the build.
        config.transport = match explicit_transport {
            Some(kind) => kind,
            None => runtime::transport_from_env()?.unwrap_or_default(),
        };
        config.codec = match explicit_codec {
            Some(codec) => codec,
            None => runtime::codec_from_env()?.unwrap_or_default(),
        };
        let n = config.slowdowns.len();
        if n == 0 {
            return Err(CannikinError::InvalidConfig("need at least one node".into()));
        }
        if config.base_batch < n as u64 {
            return Err(CannikinError::InvalidConfig(format!(
                "base batch {} cannot cover {n} nodes",
                config.base_batch
            )));
        }
        if config.max_batch < config.base_batch {
            return Err(CannikinError::InvalidConfig(format!(
                "max batch {} is below base batch {}",
                config.max_batch, config.base_batch
            )));
        }
        // A rank sleeps `compute x (slowdown - 1)` and reports its times
        // scaled by the factor: a non-finite one panics inside the rank
        // thread, and one below 1 scales the analyzer's inputs by a factor
        // no sleep backs.
        if let Some((i, s)) = config.slowdowns.iter().enumerate().find(|(_, s)| !(s.is_finite() && **s >= 1.0)) {
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
        let policy: Box<dyn Policy> = match self.policy {
            Some(p) => p,
            None => {
                let kind = match self.policy_kind {
                    Some(kind) => kind,
                    None => runtime::policy_from_env()?.unwrap_or_default(),
                };
                policy::build_sim_policy(kind, config.base_batch, n, config.max_batch)
            }
        };
        Ok(ParallelTrainer::from_parts(dataset, factory, config, policy))
    }
}

impl std::fmt::Debug for ParallelTrainerBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelTrainerBuilder")
            .field("dataset", &self.dataset.is_some())
            .field("config", &self.config)
            .field("transport", &self.transport)
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
            .base_batch(1)
            .transport(TransportKind::InProcess)
            .build()
            .expect_err("1 < 2 nodes");
        assert!(err.to_string().contains("cannot cover"));
        let err = CannikinTrainer::builder()
            .simulator(sim())
            .batch_range(64, 32)
            .transport(TransportKind::InProcess)
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
            .transport(TransportKind::InProcess)
            .build()
            .expect("valid config");
        let record = t.run_epoch().expect("epoch");
        assert_eq!(record.total_batch, 32);
        assert!(t.comm_bytes() > 0, "in-process metric exchange moves bytes");
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
            .base_batch(8)
            .transport(TransportKind::InProcess)
            .build()
            .expect_err("8 < 40 nodes");
        assert!(err.to_string().contains("cannot cover"));
        let err = ParallelTrainer::builder()
            .dataset(gaussian_blobs(48, 4, 10, 3))
            .model(|seed| mlp_classifier(10, 16, 4, seed))
            .base_batch(32)
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
                .base_batch(8)
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
        cfg.codec = Codec::F16;
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
