//! Pluggable adaptation policies behind an ask/tell protocol.
//!
//! The paper's control loop — profile, solve OptPerf, pick the
//! goodput-maximizing `(B, split)`, observe, repeat (Fig. 4) — is a
//! *policy* decision layered on mechanism the engines own (simulation,
//! measurement, telemetry, fault handling). This module factors the
//! decision into a [`Policy`] trait with the kurobako solver-protocol
//! shape: each epoch the engine calls [`Policy::ask`] with a
//! [`PolicyContext`] describing the declared problem (node count, batch
//! range, learned models, GNS state) and receives an [`EpochPlan`]; after
//! running the epoch it calls [`Policy::tell`] with an
//! [`EpochObservation`] carrying realized timings and goodput so the
//! policy can learn across epochs.
//!
//! Four implementations ship:
//!
//! - [`OptPerfGoodput`] — the paper's planner (pinned bit for bit under
//!   seed by the `tests/policy.rs` goldens);
//! - [`EvenSplit`] — AdaptDL/Pollux: goodput-adaptive total batch, always
//!   split evenly (the homogeneous-cluster assumption);
//! - [`LbBspIterative`] — LB-BSP: fixed total, Δ-bounded iterative moves
//!   toward the equal-compute-time split;
//! - [`RlBatchPolicy`] — a DYNAMIX-flavored seeded ε-greedy bandit over
//!   batch-size actions, reward = realized goodput from `tell`.

mod even;
mod lbbsp;
mod optperf;
mod rl;

pub use even::EvenSplit;
pub use lbbsp::{LbBspIterative, DEFAULT_STEP as LBBSP_DEFAULT_STEP};
pub use optperf::OptPerfGoodput;
pub use rl::RlBatchPolicy;

use crate::error::CannikinError;
use crate::optperf::{Bottleneck, SolverInput};
use cannikin_telemetry::SplitSource;

/// Everything a policy may consult when proposing an epoch plan.
///
/// The engine assembles this fresh each epoch from its own state; the
/// context is a *snapshot* — reading it has no side effects on the
/// engine.
#[derive(Debug, Clone)]
pub struct PolicyContext {
    /// Epoch index about to run (0-based).
    pub epoch: usize,
    /// Current cluster size.
    pub nodes: usize,
    /// Whether the engine allows the total batch to adapt; when `false`
    /// the policy must pin `total == base_batch`.
    pub adaptive: bool,
    /// The job's base batch size `B0` (statistical-efficiency reference).
    pub base_batch: u64,
    /// Upper bound on the total batch size.
    pub max_batch: u64,
    /// Samples per epoch (bounds useful batch sizes).
    pub dataset_size: usize,
    /// Gradient noise scale φ, when an estimate exists. Simulation-driven
    /// engines always supply it; the measured engine reports `None` until
    /// its GNS tracker warms up, and adaptive policies then hold
    /// `base_batch`.
    pub phi: Option<f64>,
    /// The split the previous epoch actually ran (empty before epoch 0).
    pub last_split: Vec<u64>,
    /// Fitted per-node linear models, once the analyzer can produce them.
    pub solver_input: Option<SolverInput>,
    /// Latest observed per-sample time per node (1.0 where unobserved) —
    /// the Eq. (8) bootstrap signal.
    pub per_sample_times: Vec<f64>,
}

/// A policy's answer for one epoch: the plan the engine will execute,
/// plus the bookkeeping fields the engine records and emits as telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochPlan {
    /// Total batch size `B`.
    pub total: u64,
    /// Local batch per node, summing to `total`.
    pub local: Vec<u64>,
    /// Provenance of the split, for the `split_decision` telemetry event.
    pub source: SplitSource,
    /// Whether fitted performance models informed the plan.
    pub used_model: bool,
    /// Bottleneck classification per node, when the solver produced one.
    pub pattern: Option<Vec<Bottleneck>>,
    /// Predicted synchronized batch time, when the solver produced one.
    pub predicted_t: Option<f64>,
}

/// Realized outcome of an epoch, fed back through [`Policy::tell`].
#[derive(Debug, Clone)]
pub struct EpochObservation {
    /// Epoch index that ran.
    pub epoch: usize,
    /// Total batch size that ran.
    pub total: u64,
    /// Local split that ran.
    pub local: Vec<u64>,
    /// Realized epoch time, s.
    pub epoch_time: f64,
    /// Realized mean synchronized batch time, s.
    pub mean_batch_time: f64,
    /// Statistical efficiency at the epoch's φ and `B`.
    pub efficiency: f64,
    /// Realized goodput, in effective epochs per second: the epoch's gain
    /// `steps·B·η/|D|` over its `epoch_time` (simulated seconds on the
    /// simulated path, measured wall seconds on the real one). The RL
    /// reward signal.
    pub goodput: f64,
    /// The epoch's φ, when known (its record's `noise_scale`).
    pub phi: Option<f64>,
    /// Observed per-sample time per node from the epoch's last batch.
    pub per_sample_times: Vec<f64>,
}

/// An adaptation policy: `ask` proposes `(B, split)`, `tell` feeds back
/// what actually happened.
///
/// Policies are stateful — they accumulate learned state across
/// `ask`/`tell` rounds — and must be [`Send`] so measured engines can own
/// them across thread scopes and the fleet can move jobs between
/// scheduler ticks.
pub trait Policy: Send {
    /// Stable short name, recorded in `policy_decision` telemetry.
    fn name(&self) -> &'static str;

    /// Propose the next epoch's plan.
    ///
    /// # Errors
    ///
    /// Solver-backed policies propagate [`CannikinError`] from infeasible
    /// plans (e.g. a total batch no split can satisfy under node caps).
    fn ask(&mut self, ctx: &PolicyContext) -> Result<EpochPlan, CannikinError>;

    /// Feed back the realized outcome of the epoch `ask` planned.
    fn tell(&mut self, obs: &EpochObservation);

    /// The engine warm-started from a checkpointed model: the next
    /// solver-backed plan should be attributed to
    /// [`SplitSource::WarmStart`].
    fn on_warm_start(&mut self) {}

    /// Cluster membership changed to `nodes` nodes: drop state keyed to
    /// the old cluster shape (candidate caches, per-node vectors).
    fn on_membership_change(&mut self, _nodes: usize) {}
}

/// Which built-in policy to construct — the builders' `.policy()` knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// The paper's planner: OptPerf splits + goodput-maximizing `B`.
    #[default]
    OptPerf,
    /// AdaptDL-style: adaptive `B`, even split.
    Even,
    /// LB-BSP: fixed `B`, Δ-bounded iterative rebalancing.
    LbBsp,
    /// Seeded ε-greedy bandit over batch-size actions.
    Rl,
}

impl PolicyKind {
    /// A short stable label (`optperf` / `even` / `lbbsp` / `rl`), e.g.
    /// for telemetry tags and experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::OptPerf => "optperf",
            PolicyKind::Even => "even",
            PolicyKind::LbBsp => "lbbsp",
            PolicyKind::Rl => "rl",
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Default seed for [`PolicyKind::Rl`] when no explicit seed is given
/// (builders construct from a kind, which carries no seed).
pub const DEFAULT_RL_SEED: u64 = 0x5EED_CA11;

/// Construct a built-in policy planning over `[base_batch, max_batch]` on
/// `nodes` nodes — the one constructor, called by both engines' builders.
/// Its path is part of the API the frozen `crates/benchmark` compiles
/// against.
pub fn build_sim_policy(kind: PolicyKind, base_batch: u64, nodes: usize, max_batch: u64) -> Box<dyn Policy> {
    match kind {
        PolicyKind::OptPerf => Box::new(OptPerfGoodput::new(base_batch, nodes, max_batch)),
        PolicyKind::Even => Box::new(EvenSplit::new()),
        PolicyKind::LbBsp => Box::new(LbBspIterative::new(lbbsp::DEFAULT_STEP)),
        PolicyKind::Rl => Box::new(RlBatchPolicy::new(DEFAULT_RL_SEED)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_displays_as_its_label() {
        for kind in [PolicyKind::OptPerf, PolicyKind::Even, PolicyKind::LbBsp, PolicyKind::Rl] {
            assert_eq!(kind.to_string(), kind.label());
        }
        assert_eq!(PolicyKind::default(), PolicyKind::OptPerf);
    }

    #[test]
    fn factories_name_their_kind() {
        for kind in [PolicyKind::OptPerf, PolicyKind::Even, PolicyKind::LbBsp, PolicyKind::Rl] {
            assert_eq!(build_sim_policy(kind, 64, 3, 512).name(), kind.label());
        }
    }
}
