//! The paper's planner as a [`Policy`]: OptPerf splits + goodput-driven
//! total batch selection.

use super::{EpochObservation, EpochPlan, Policy, PolicyContext};
use crate::error::CannikinError;
use crate::goodput::GoodputEngine;
use crate::optperf::{bootstrap_split, ensure_distinct_split, even_split, OptPerfSolver, SolverInput};
use cannikin_telemetry::SplitSource;

/// The Fig. 4 planner: even split at epoch 0, the Eq. (8) growth
/// bootstrap until the linear models fit, then OptPerf splits with the
/// total batch chosen by a stateful [`GoodputEngine`] over the geometric
/// candidate grid. One planner serves both engines; what differs between
/// them arrives as data in the [`PolicyContext`] (a measured engine has
/// no φ until its GNS tracker warms up, and caps `max_batch` at its
/// dataset size).
pub struct OptPerfGoodput {
    goodput: GoodputEngine,
    base_batch: u64,
    max_batch: u64,
    warm_started: bool,
}

impl OptPerfGoodput {
    /// Planner over `[base_batch, max_batch]` on `nodes` nodes.
    pub fn new(base_batch: u64, nodes: usize, max_batch: u64) -> Self {
        OptPerfGoodput {
            goodput: GoodputEngine::new(base_batch, base_batch.max(nodes as u64), max_batch),
            base_batch,
            max_batch,
            warm_started: false,
        }
    }

    /// Plan from the fitted models: the goodput-maximal `(B, split)` when
    /// the batch adapts and φ is known, the OptPerf split at `base_batch`
    /// otherwise (fixed-batch mode, or no GNS estimate yet).
    fn plan_with_models(&mut self, ctx: &PolicyContext, input: SolverInput) -> Result<EpochPlan, CannikinError> {
        let mut solver = OptPerfSolver::new(input);
        let source = if self.warm_started { SplitSource::WarmStart } else { SplitSource::Solver };
        self.warm_started = false;
        let (total, plan) = match ctx.phi {
            Some(phi) if ctx.adaptive => {
                let sel = self.goodput.select(&mut solver, phi)?;
                (sel.total, sel.plan)
            }
            _ => (ctx.base_batch, solver.solve(ctx.base_batch)?),
        };
        Ok(EpochPlan {
            total,
            local: plan.local_batches,
            source,
            used_model: true,
            pattern: Some(plan.pattern),
            predicted_t: Some(plan.opt_perf),
        })
    }
}

impl Policy for OptPerfGoodput {
    fn name(&self) -> &'static str {
        "optperf"
    }

    fn ask(&mut self, ctx: &PolicyContext) -> Result<EpochPlan, CannikinError> {
        // A solver error (an infeasible total, a singular fit) degrades
        // this epoch to the bootstrap split instead of aborting it: the
        // next epoch's fresher models get another chance.
        if let Some(plan) = ctx.solver_input.clone().and_then(|input| self.plan_with_models(ctx, input).ok()) {
            return Ok(plan);
        }
        let n = ctx.nodes;
        let (total, local, source) = if ctx.epoch == 0 || ctx.last_split.is_empty() {
            (ctx.base_batch, even_split(ctx.base_batch, n), SplitSource::EvenInit)
        } else {
            // Growth bootstrap: perturb the total once so the linear models
            // see two batch sizes, then hold it until the solver takes over.
            let total = if ctx.epoch == 1 && ctx.adaptive {
                ((ctx.base_batch as f64 * 1.5).round() as u64).min(ctx.max_batch)
            } else if ctx.epoch >= 2 {
                ctx.last_split.iter().sum::<u64>()
            } else {
                ctx.base_batch
            };
            let split = bootstrap_split(&ctx.per_sample_times, total);
            (total, ensure_distinct_split(&ctx.last_split, split), SplitSource::Bootstrap)
        };
        Ok(EpochPlan { total, local, source, used_model: false, pattern: None, predicted_t: None })
    }

    fn tell(&mut self, _obs: &EpochObservation) {
        // The goodput engine learns through the analyzer models the engine
        // passes back via `PolicyContext::solver_input`; realized timings
        // carry no extra signal for this planner.
    }

    fn on_warm_start(&mut self) {
        self.warm_started = true;
    }

    fn on_membership_change(&mut self, nodes: usize) {
        // New candidate floor at the new node count, caches invalidated.
        self.goodput = GoodputEngine::new(self.base_batch, self.base_batch.max(nodes as u64), self.max_batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::catalog::Gpu;
    use hetsim::cluster::{ClusterSpec, NodeSpec};
    use hetsim::job::JobSpec;

    fn fitted_ctx(phi: Option<f64>) -> PolicyContext {
        let cluster = ClusterSpec::new(
            "t",
            vec![
                NodeSpec::new("a100", Gpu::A100),
                NodeSpec::new("v100", Gpu::V100),
                NodeSpec::new("rtx", Gpu::Rtx6000),
            ],
        );
        PolicyContext {
            epoch: 5,
            nodes: 3,
            adaptive: true,
            base_batch: 64,
            max_batch: 512,
            dataset_size: 6_400,
            phi,
            last_split: vec![30, 20, 14],
            solver_input: Some(SolverInput::from_ground_truth(&cluster, &JobSpec::resnet18_cifar10())),
            per_sample_times: vec![1.0, 2.0, 4.0],
        }
    }

    #[test]
    fn without_a_noise_estimate_the_batch_holds_at_base() {
        let mut policy = OptPerfGoodput::new(64, 3, 512);
        let held = policy.ask(&fitted_ctx(None)).expect("plan");
        assert_eq!(held.total, 64, "no φ: hold B₀ this epoch");
        assert!(held.used_model, "the split still comes from the solver");
        assert_eq!(held.local.iter().sum::<u64>(), 64);
        // The same models with φ known move the batch off B₀.
        let adapted = policy.ask(&fitted_ctx(Some(5_000.0))).expect("plan");
        assert!(adapted.total > 64, "φ ≫ B₀ grows the batch: {}", adapted.total);
    }

    #[test]
    fn a_solver_error_degrades_the_epoch_to_the_bootstrap_split() {
        let mut ctx = fitted_ctx(None);
        // Memory caps no split of 64 can satisfy.
        for node in &mut ctx.solver_input.as_mut().expect("fitted").nodes {
            node.max_batch = Some(8);
        }
        let plan = OptPerfGoodput::new(64, 3, 512).ask(&ctx).expect("degrades, does not abort");
        assert!(!plan.used_model);
        assert_eq!(plan.source, SplitSource::Bootstrap);
        assert_eq!(plan.total, 64, "holds the previous epoch's total");
        assert_eq!(plan.local.iter().sum::<u64>(), 64);
        assert!(plan.local[0] > plan.local[2], "Eq. (8): the fast node takes the larger share");
    }
}
