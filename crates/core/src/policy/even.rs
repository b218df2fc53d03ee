//! AdaptDL/Pollux-style policy: adaptive total batch, always-even split.

use super::{EpochPlan, EpochObservation, Policy, PolicyContext};
use crate::error::CannikinError;
use crate::gns::goodput;
use crate::goodput::GoodputEngine;
use crate::optperf::{even_split, predict_batch_time};
use cannikin_telemetry::SplitSource;

/// The state-of-the-art *homogeneous* adaptive planner: maximize goodput
/// over the total batch — exactly like Cannikin — but give every rank
/// `B/n` samples. In a homogeneous cluster this *is* Cannikin (§6); in a
/// heterogeneous one every batch still waits for the straggler.
#[derive(Debug, Default)]
pub struct EvenSplit;

impl EvenSplit {
    /// Create the (stateless) even-split policy.
    pub fn new() -> Self {
        EvenSplit
    }
}

impl Policy for EvenSplit {
    fn name(&self) -> &'static str {
        "even"
    }

    fn ask(&mut self, ctx: &PolicyContext) -> Result<EpochPlan, CannikinError> {
        let n = ctx.nodes;
        let used_model = ctx.solver_input.is_some();
        let total = if !ctx.adaptive {
            ctx.base_batch
        } else if let (Some(input), Some(phi)) = (&ctx.solver_input, ctx.phi) {
            // Goodput over Cannikin's own candidate grid, for a fair
            // comparison (the floor `OptPerfGoodput` uses), throughput
            // predicted for the homogeneous (even) split. A floor above
            // `max_batch` (nodes joined past it) is the one candidate: no
            // smaller total gives every node a sample.
            let floor = ctx.base_batch.max(n as u64);
            GoodputEngine::new(ctx.base_batch, floor, ctx.max_batch.max(floor))
                .candidates()
                .into_iter()
                .max_by(|&a, &b| {
                    let ga = goodput(phi, ctx.base_batch, a, predict_batch_time(input, &even_split(a, n)));
                    let gb = goodput(phi, ctx.base_batch, b, predict_batch_time(input, &even_split(b, n)));
                    ga.total_cmp(&gb)
                })
                .unwrap_or(ctx.base_batch)
        } else if ctx.epoch == 0 || ctx.solver_input.is_some() {
            // Models without a GNS estimate pin the base batch; so does
            // the very first epoch.
            ctx.base_batch
        } else {
            // The throughput model needs two batch sizes to fit; perturb
            // the batch upward once.
            ((ctx.base_batch as f64 * 1.5).round() as u64).min(ctx.max_batch)
        };
        let source = if used_model { SplitSource::Solver } else { SplitSource::EvenInit };
        Ok(EpochPlan {
            total,
            local: even_split(total, n),
            source,
            used_model,
            pattern: None,
            predicted_t: None,
        })
    }

    fn tell(&mut self, _obs: &EpochObservation) {
        // Stateless: the fitted models arrive through the next context.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optperf::SolverInput;
    use hetsim::catalog::Gpu;
    use hetsim::cluster::{ClusterSpec, NodeSpec};
    use hetsim::job::JobSpec;

    #[test]
    fn nodes_past_the_ceiling_leave_the_floor_as_the_one_total() {
        let cluster = ClusterSpec::new("wide", (0..5).map(|i| NodeSpec::new(format!("v{i}"), Gpu::V100)).collect());
        let ctx = PolicyContext {
            epoch: 3,
            nodes: 5,
            adaptive: true,
            base_batch: 2,
            max_batch: 4,
            dataset_size: 1_000,
            phi: Some(100.0),
            last_split: vec![1; 5],
            solver_input: Some(SolverInput::from_ground_truth(&cluster, &JobSpec::resnet18_cifar10())),
            per_sample_times: Vec::new(),
        };
        let plan = EvenSplit::new().ask(&ctx).expect("a plan");
        assert_eq!((plan.total, plan.local), (5, vec![1; 5]));
    }
}
