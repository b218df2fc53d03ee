//! LB-BSP policy: fixed total batch, Δ-bounded iterative rebalancing.

use super::{EpochPlan, EpochObservation, Policy, PolicyContext};
use crate::error::CannikinError;
use crate::optperf::even_split;
use cannikin_telemetry::SplitSource;

/// The paper's adjustment step Δ = 5 (§5.1 experiments).
pub const DEFAULT_STEP: u64 = 5;

/// LB-BSP iteratively rebalances local batch sizes toward equal *compute*
/// times, moving each node at most Δ samples per adjustment round (§5.1).
///
/// Two structural gaps versus Cannikin, both visible in the figures:
///
/// 1. convergence to the balanced point takes many rounds (Fig. 9: more
///    than ten epochs from an even start, versus Cannikin's three);
/// 2. the balance target ignores communication/computation overlap, so in
///    communication-bound regimes the equal-compute split is not the
///    optimal split (Fig. 10's gap at small batch sizes).
#[derive(Debug)]
pub struct LbBspIterative {
    step: u64,
    local: Vec<u64>,
    last_per_sample: Vec<f64>,
    asked: bool,
}

impl LbBspIterative {
    /// Create an LB-BSP policy with adjustment step Δ.
    ///
    /// # Panics
    ///
    /// Panics if `step == 0`.
    pub fn new(step: u64) -> Self {
        assert!(step > 0, "adjustment step must be positive");
        LbBspIterative { step, local: Vec::new(), last_per_sample: Vec::new(), asked: false }
    }

    /// The current local split (test/inspection).
    pub fn local_batches(&self) -> &[u64] {
        &self.local
    }

    /// Rescale the current split proportionally onto a new total (the
    /// adaptive-batch experiment of §5.2.2) — LB-BSP then has to re-tune
    /// with Δ-bounded steps.
    ///
    /// # Panics
    ///
    /// Panics if the new total cannot cover every node.
    pub fn set_total(&mut self, total: u64) {
        let n = self.local.len();
        if n == 0 {
            return;
        }
        assert!(total >= n as u64, "total batch must cover every node");
        let old_total: u64 = self.local.iter().sum();
        let mut scaled: Vec<u64> =
            self.local.iter().map(|&b| ((b as f64 / old_total as f64) * total as f64).floor() as u64).collect();
        for b in scaled.iter_mut() {
            *b = (*b).max(1);
        }
        fix_sum(&mut scaled, total);
        self.local = scaled;
    }

    /// One LB-BSP adjustment round: move every node toward the
    /// equal-compute-time split, at most Δ samples each.
    fn adjust(&mut self) {
        if self.last_per_sample.len() != self.local.len() || self.last_per_sample.is_empty() {
            return;
        }
        let total: u64 = self.local.iter().sum();
        let inv_sum: f64 = self.last_per_sample.iter().map(|t| 1.0 / t).sum();
        let target: Vec<f64> =
            self.last_per_sample.iter().map(|t| (1.0 / t) / inv_sum * total as f64).collect();
        // Zero-sum one-sample transfers from over-loaded to under-loaded
        // nodes, each node moving at most Δ samples per round — this keeps
        // the sum invariant without ever exceeding the step bound.
        let mut budget = vec![self.step; self.local.len()];
        loop {
            let giver = (0..self.local.len())
                .filter(|&i| budget[i] > 0 && self.local[i] > 1 && self.local[i] as f64 > target[i] + 0.5)
                .max_by(|&a, &b| (self.local[a] as f64 - target[a]).total_cmp(&(self.local[b] as f64 - target[b])));
            let taker = (0..self.local.len())
                .filter(|&i| budget[i] > 0 && (self.local[i] as f64) < target[i] - 0.5)
                .max_by(|&a, &b| (target[a] - self.local[a] as f64).total_cmp(&(target[b] - self.local[b] as f64)));
            match (giver, taker) {
                (Some(g), Some(t)) if g != t => {
                    self.local[g] -= 1;
                    self.local[t] += 1;
                    budget[g] -= 1;
                    budget[t] -= 1;
                }
                _ => break,
            }
        }
    }
}

impl Policy for LbBspIterative {
    fn name(&self) -> &'static str {
        "lbbsp"
    }

    fn ask(&mut self, ctx: &PolicyContext) -> Result<EpochPlan, CannikinError> {
        let n = ctx.nodes;
        let total = ctx.base_batch;
        let first = !self.asked || self.local.len() != n;
        if first {
            self.local = even_split(total, n);
            self.asked = true;
        } else if self.local.iter().sum::<u64>() != total {
            self.set_total(total);
        }
        Ok(EpochPlan {
            total,
            local: self.local.clone(),
            accumulation: 1,
            source: if first { SplitSource::EvenInit } else { SplitSource::Bootstrap },
            used_model: false,
            pattern: None,
            predicted_t: None,
        })
    }

    fn tell(&mut self, obs: &EpochObservation) {
        self.last_per_sample = obs.per_sample_times.clone();
        self.adjust();
    }

    fn on_membership_change(&mut self, _nodes: usize) {
        // The split is keyed to the old cluster; restart from even.
        self.local.clear();
        self.last_per_sample.clear();
        self.asked = false;
    }
}

/// Repair a split so it sums to `total`, adjusting one sample at a time at
/// the largest (or smallest-above-1) entries.
fn fix_sum(split: &mut [u64], total: u64) {
    let mut sum: u64 = split.iter().sum();
    while sum < total {
        let i = (0..split.len()).max_by_key(|&i| split[i]).expect("non-empty");
        split[i] += 1;
        sum += 1;
    }
    while sum > total {
        let i = (0..split.len()).filter(|&i| split[i] > 1).max_by_key(|&i| split[i]).expect("reducible entry");
        split[i] -= 1;
        sum -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fix_sum_repairs() {
        let mut s = vec![5, 5, 5];
        fix_sum(&mut s, 17);
        assert_eq!(s.iter().sum::<u64>(), 17);
        fix_sum(&mut s, 12);
        assert_eq!(s.iter().sum::<u64>(), 12);
        let mut tiny = vec![1, 1, 5];
        fix_sum(&mut tiny, 3);
        assert_eq!(tiny, vec![1, 1, 1]);
    }

    #[test]
    fn batch_change_rescales_the_tuned_split_proportionally() {
        let mut policy = LbBspIterative::new(DEFAULT_STEP);
        let ctx = |total: u64| PolicyContext {
            epoch: 0,
            nodes: 3,
            adaptive: false,
            base_batch: total,
            max_batch: total,
            dataset_size: 12_800,
            phi: None,
            last_split: Vec::new(),
            solver_input: None,
            per_sample_times: Vec::new(),
        };
        // Tune toward a 4:2:1 speed ratio at B=128.
        for epoch in 0..20 {
            let plan = policy.ask(&ctx(128)).expect("infallible");
            policy.tell(&EpochObservation {
                epoch,
                total: 128,
                local: plan.local,
                epoch_time: 1.0,
                mean_batch_time: 1.0,
                efficiency: 1.0,
                goodput: 1.0,
                phi: None,
                per_sample_times: vec![1.0, 2.0, 4.0],
            });
        }
        let balanced = policy.local_batches().to_vec();
        assert!(balanced[0] > balanced[2] + 20, "{balanced:?}");
        let plan = policy.ask(&ctx(192)).expect("infallible");
        assert_eq!(plan.local.iter().sum::<u64>(), 192);
        // The scaled split preserves proportions approximately.
        for (i, &b) in plan.local.iter().enumerate() {
            let expected = balanced[i] as f64 * 1.5;
            assert!((b as f64 - expected).abs() <= 2.0, "node {i}: {b} vs {expected}");
        }
    }
}
