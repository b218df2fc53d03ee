//! A DYNAMIX-flavored RL controller: seeded ε-greedy bandit over
//! batch-size actions, rewarded with realized goodput.

use super::{EpochPlan, EpochObservation, Policy, PolicyContext};
use crate::error::CannikinError;
use crate::optperf::{bootstrap_split, ensure_distinct_split, even_split, OptPerfSolver};
use cannikin_telemetry::SplitSource;

/// Learns the total-batch schedule from the telemetry stream instead of a
/// throughput model: each epoch is one bandit round over a doubling grid
/// of batch-size actions, the reward is the realized goodput reported via
/// [`Policy::tell`], and exploration is a seeded ε-greedy draw that decays
/// with the epoch index — two same-seed runs take identical action
/// sequences (`rl_policy_is_deterministic_under_seed` in
/// `tests/policy.rs`).
///
/// The *split* for the chosen total still comes from the OptPerf solver
/// when models are available (falling back to the Eq. (8) bootstrap):
/// the bandit learns *how much* to ask of the cluster, the solver knows
/// *how to divide it* — which is what lets the policy beat [`super::EvenSplit`]
/// under heterogeneity while remaining model-free about batch sizing.
#[derive(Debug)]
pub struct RlBatchPolicy {
    rng_state: u64,
    actions: Vec<u64>,
    q: Vec<f64>,
    counts: Vec<u64>,
    pending: Option<usize>,
    history: Vec<u64>,
}

impl RlBatchPolicy {
    /// Initial exploration rate ε₀.
    const EPSILON_0: f64 = 0.3;

    /// Create a bandit seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        RlBatchPolicy {
            // splitmix64 state; offset so seed 0 is still a valid stream.
            rng_state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
            actions: Vec::new(),
            q: Vec::new(),
            counts: Vec::new(),
            pending: None,
            history: Vec::new(),
        }
    }

    /// The sequence of totals chosen so far (determinism tests).
    pub fn action_history(&self) -> &[u64] {
        &self.history
    }

    /// splitmix64 — tiny, seedable, and plenty for ε-greedy draws.
    fn next_u64(&mut self) -> u64 {
        self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` from the top 53 bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The doubling grid of feasible totals for the current problem.
    fn grid(ctx: &PolicyContext) -> Vec<u64> {
        let mut out = Vec::new();
        let mut b = ctx.base_batch.max(ctx.nodes as u64);
        while b <= ctx.max_batch && (b as usize) <= ctx.dataset_size {
            out.push(b);
            b *= 2;
        }
        if out.is_empty() {
            out.push(ctx.base_batch);
        }
        out
    }

    /// Re-key the value table when the action grid changes (batch range or
    /// membership moved the feasible set).
    fn sync_grid(&mut self, grid: Vec<u64>) {
        if self.actions != grid {
            self.q = vec![0.0; grid.len()];
            self.counts = vec![0; grid.len()];
            self.pending = None;
            self.actions = grid;
        }
    }

    /// ε-greedy choice: untried actions first (in grid order), then a
    /// seeded exploration draw, otherwise the greedy arg-max.
    fn choose(&mut self, epoch: usize) -> usize {
        if let Some(i) = self.counts.iter().position(|&c| c == 0) {
            return i;
        }
        let eps = Self::EPSILON_0 / (1.0 + epoch as f64 * 0.25);
        if self.next_f64() < eps {
            return (self.next_u64() % self.actions.len() as u64) as usize;
        }
        let mut best = 0;
        for i in 1..self.q.len() {
            if self.q[i] > self.q[best] {
                best = i;
            }
        }
        best
    }
}

impl Policy for RlBatchPolicy {
    fn name(&self) -> &'static str {
        "rl"
    }

    fn ask(&mut self, ctx: &PolicyContext) -> Result<EpochPlan, CannikinError> {
        let n = ctx.nodes;
        self.sync_grid(Self::grid(ctx));
        let (total, action) = if ctx.adaptive {
            let i = self.choose(ctx.epoch);
            (self.actions[i], Some(i))
        } else {
            (ctx.base_batch, None)
        };
        self.pending = action;
        self.history.push(total);

        // Split the chosen total: solver when models exist, bootstrap
        // otherwise — the bandit only owns the total-batch decision.
        let mut used_model = false;
        let mut pattern = None;
        let mut predicted_t = None;
        let mut source = SplitSource::Bootstrap;
        let local = if let Some(input) = ctx.solver_input.clone() {
            match OptPerfSolver::new(input).solve(total) {
                Ok(plan) => {
                    used_model = true;
                    source = SplitSource::Solver;
                    pattern = Some(plan.pattern.clone());
                    predicted_t = Some(plan.opt_perf);
                    plan.local_batches
                }
                Err(_) => {
                    source = SplitSource::EvenInit;
                    even_split(total, n)
                }
            }
        } else if ctx.epoch == 0 || ctx.last_split.is_empty() {
            source = SplitSource::EvenInit;
            even_split(total, n)
        } else {
            ensure_distinct_split(&ctx.last_split, bootstrap_split(&ctx.per_sample_times, total))
        };
        Ok(EpochPlan { total, local, accumulation: 1, source, used_model, pattern, predicted_t })
    }

    fn tell(&mut self, obs: &EpochObservation) {
        let Some(i) = self.pending.take() else { return };
        if self.actions.get(i).copied() != Some(obs.total) {
            return;
        }
        // Incremental-mean value update with the realized goodput reward.
        self.counts[i] += 1;
        self.q[i] += (obs.goodput - self.q[i]) / self.counts[i] as f64;
    }

    fn on_membership_change(&mut self, _nodes: usize) {
        // The feasible grid may shift (`base.max(n)` floor); force a
        // re-key on the next ask and drop the in-flight reward.
        self.actions.clear();
        self.pending = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(epoch: usize) -> PolicyContext {
        PolicyContext {
            epoch,
            nodes: 3,
            adaptive: true,
            base_batch: 64,
            max_batch: 512,
            dataset_size: 6_400,
            phi: Some(300.0),
            last_split: vec![22, 21, 21],
            solver_input: None,
            per_sample_times: vec![1.0, 1.0, 1.0],
        }
    }

    /// Same seed → same action sequence, even with reward feedback in the
    /// loop; different seed → different sequence (with overwhelming
    /// probability on 40 draws).
    #[test]
    fn same_seed_same_actions() {
        let run = |seed: u64| {
            let mut p = RlBatchPolicy::new(seed);
            for e in 0..40 {
                let plan = p.ask(&ctx(e)).unwrap();
                p.tell(&EpochObservation {
                    epoch: e,
                    total: plan.total,
                    local: plan.local,
                    epoch_time: 1.0 + (e % 3) as f64,
                    mean_batch_time: 0.1,
                    efficiency: 0.9,
                    goodput: 1.0 / (1.0 + (plan.total as f64 - 256.0).abs()),
                    phi: Some(300.0),
                    per_sample_times: vec![1.0, 1.0, 1.0],
                });
            }
            p.action_history().to_vec()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn untried_actions_explored_first() {
        let mut p = RlBatchPolicy::new(1);
        let mut seen = Vec::new();
        for e in 0..4 {
            seen.push(p.ask(&ctx(e)).unwrap().total);
            let total = *seen.last().unwrap();
            p.tell(&EpochObservation {
                epoch: e,
                total,
                local: vec![total / 3; 3],
                epoch_time: 1.0,
                mean_batch_time: 0.1,
                efficiency: 0.9,
                goodput: 1.0,
                phi: None,
                per_sample_times: vec![1.0; 3],
            });
        }
        // Grid is 64, 128, 256, 512 — each tried once before any repeat.
        assert_eq!(seen, vec![64, 128, 256, 512]);
    }

    #[test]
    fn non_adaptive_pins_base_batch() {
        let mut p = RlBatchPolicy::new(3);
        let mut c = ctx(0);
        c.adaptive = false;
        for _ in 0..5 {
            assert_eq!(p.ask(&c).unwrap().total, 64);
        }
    }
}
