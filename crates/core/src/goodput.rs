//! Goodput-driven total-batch-size selection (§4.1, §4.5).
//!
//! Before each epoch the adaptive engine enumerates total-batch-size
//! candidates from the configured range, predicts *OptPerf* for each, and
//! picks the candidate maximizing goodput = throughput × statistical
//! efficiency. Running the full OptPerf sweep every epoch would be
//! wasteful, so — following §4.5 — the sweep runs once (`OptPerf_init`),
//! is cached, and later epochs re-rank the cached predictions under the
//! fresh gradient-noise estimate, re-solving only the chosen candidate.
//! If that re-solve reveals a changed overlap pattern, the cache is
//! rebuilt (with each candidate's search warm-started from its neighbor,
//! the "overlap state searching" optimization).

use crate::error::CannikinError;
use crate::gns::goodput;
use crate::optperf::{compute_span, OptPerfSolver, Plan};
use cannikin_telemetry::{self as telemetry, Event, GoodputEval};

/// A cached OptPerf prediction for one total-batch-size candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CachedCandidate {
    /// Effective total batch (micro-batch × accumulation).
    total: u64,
    /// Predicted time of one *optimizer step* (all micro-steps + sync), s.
    step_time: f64,
    boundary: usize,
    /// Gradient-accumulation factor (1 = plain synchronous step).
    accumulation: u64,
}

/// The outcome of one batch-size selection.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// Chosen *effective* total batch size (micro-batch × accumulation).
    pub total: u64,
    /// OptPerf plan for one micro-batch, solved with the current models.
    pub plan: Plan,
    /// Gradient-accumulation factor: micro-steps per optimizer step
    /// (1 = plain synchronous training).
    pub accumulation: u64,
    /// Predicted goodput at the chosen size (reference-batch samples/s).
    pub goodput: f64,
    /// Linear solves spent this selection (overhead accounting).
    pub solves: usize,
    /// Whether the full candidate sweep was (re)run this selection.
    pub cache_rebuilt: bool,
}

/// Goodput-maximizing batch-size selector with the `OptPerf_init` cache.
#[derive(Debug, Clone)]
pub struct GoodputEngine {
    base_batch: u64,
    min_batch: u64,
    max_batch: u64,
    candidates_per_decade: usize,
    max_accumulation: u64,
    cache: Option<Vec<CachedCandidate>>,
}

impl GoodputEngine {
    /// Create a selector over `[min_batch, max_batch]` with statistical
    /// efficiency referenced to `base_batch` (the user's B₀ from Table 5).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min_batch <= max_batch` and `base_batch > 0`.
    pub fn new(base_batch: u64, min_batch: u64, max_batch: u64) -> Self {
        assert!(base_batch > 0, "base batch must be positive");
        assert!(min_batch > 0 && min_batch <= max_batch, "invalid batch range");
        GoodputEngine { base_batch, min_batch, max_batch, candidates_per_decade: 12, max_accumulation: 1, cache: None }
    }

    /// Allow gradient accumulation up to `max` micro-steps per optimizer
    /// step (builder style). Candidates whose batch exceeds the cluster's
    /// memory capacity are then realized as several no-sync micro-batches
    /// followed by one synchronized step — extending the adaptive range
    /// beyond GPU memory, as Pollux does.
    ///
    /// # Panics
    ///
    /// Panics if `max == 0`.
    #[must_use]
    pub fn with_accumulation(mut self, max: u64) -> Self {
        assert!(max > 0, "accumulation factor must be at least 1");
        self.max_accumulation = max;
        self
    }

    /// The reference batch size B₀.
    pub fn base_batch(&self) -> u64 {
        self.base_batch
    }

    /// The candidate totals: a geometric grid over the range (ascending,
    /// deduplicated, endpoints included). Geometric spacing matches how
    /// goodput varies — multiplicatively in `B`.
    pub fn candidates(&self) -> Vec<u64> {
        let lo = self.min_batch as f64;
        let hi = self.max_batch as f64;
        if self.min_batch == self.max_batch {
            return vec![self.min_batch];
        }
        let decades = (hi / lo).log10();
        let count = ((decades * self.candidates_per_decade as f64).ceil() as usize).clamp(2, 40);
        let mut out: Vec<u64> = (0..=count)
            .map(|i| (lo * (hi / lo).powf(i as f64 / count as f64)).round() as u64)
            .collect();
        out.dedup();
        out
    }

    /// Drop the cached sweep (models changed materially — e.g. a node's
    /// contention factor moved).
    pub fn invalidate(&mut self) {
        self.cache = None;
    }

    /// Select the goodput-maximizing total batch size under the gradient
    /// noise scale `phi`, solving with `solver` (built from the current
    /// learned models).
    ///
    /// # Errors
    ///
    /// Propagates solver infeasibility; candidates that are individually
    /// infeasible (below the node count, above memory caps) are skipped,
    /// and an error is returned only when *no* candidate is feasible.
    pub fn select(&mut self, solver: &mut OptPerfSolver, phi: f64) -> Result<Selection, CannikinError> {
        let mut solves = 0usize;
        let mut rebuilt = false;
        if self.cache.is_none() {
            self.rebuild_cache(solver, &mut solves)?;
            rebuilt = true;
        }
        let base_batch = self.base_batch;
        let pick = move |cache: &[CachedCandidate]| {
            cache
                .iter()
                .max_by(|a, b| {
                    goodput(phi, base_batch, a.total, a.step_time)
                        .total_cmp(&goodput(phi, base_batch, b.total, b.step_time))
                })
                .copied()
        };
        let cache = self.cache.as_ref().expect("cache just built");
        let best = pick(cache)
            .ok_or(CannikinError::InfeasibleBatch { total: self.min_batch, reason: "no feasible candidate".into() })?;

        // Re-solve the winner with the freshest models.
        solver.set_warm_boundary(best.boundary);
        let micro = best.total / best.accumulation;
        let plan = solver.solve(micro)?;
        solves += plan.solves;

        // Overlap pattern changed since the sweep? Rebuild and re-pick.
        if plan.boundary != best.boundary && !rebuilt {
            self.rebuild_cache(solver, &mut solves)?;
            rebuilt = true;
            let cache = self.cache.as_ref().expect("cache just rebuilt");
            let best2 = pick(cache).expect("cache non-empty after rebuild");
            solver.set_warm_boundary(best2.boundary);
            let micro2 = best2.total / best2.accumulation;
            let plan2 = solver.solve(micro2)?;
            solves += plan2.solves;
            let step_time2 = plan2.opt_perf + (best2.accumulation - 1) as f64 * compute_span(solver.input(), &plan2.local_batches);
            let g = goodput(phi, self.base_batch, best2.total, step_time2);
            self.update_entry(best2.total, step_time2, &plan2);
            self.emit_eval(phi, best2.total, g, best2.accumulation, rebuilt);
            return Ok(Selection {
                total: best2.total,
                accumulation: best2.accumulation,
                goodput: g,
                plan: plan2,
                solves,
                cache_rebuilt: rebuilt,
            });
        }

        let step_time = plan.opt_perf + (best.accumulation - 1) as f64 * compute_span(solver.input(), &plan.local_batches);
        let g = goodput(phi, self.base_batch, best.total, step_time);
        self.update_entry(best.total, step_time, &plan);
        self.emit_eval(phi, best.total, g, best.accumulation, rebuilt);
        Ok(Selection {
            total: best.total,
            accumulation: best.accumulation,
            goodput: g,
            plan,
            solves,
            cache_rebuilt: rebuilt,
        })
    }

    fn emit_eval(&self, phi: f64, total: u64, goodput: f64, accumulation: u64, cache_rebuilt: bool) {
        if telemetry::enabled() {
            telemetry::emit(Event::GoodputEval(GoodputEval {
                phi,
                total,
                goodput,
                accumulation,
                candidates: self.cache.as_ref().map_or(0, Vec::len) as u32,
                cache_rebuilt,
            }));
        }
    }

    fn update_entry(&mut self, total: u64, step_time: f64, plan: &Plan) {
        if let Some(cache) = self.cache.as_mut() {
            if let Some(entry) = cache.iter_mut().find(|c| c.total == total) {
                entry.step_time = step_time;
                entry.boundary = plan.boundary;
            }
        }
    }

    fn rebuild_cache(&mut self, solver: &mut OptPerfSolver, solves: &mut usize) -> Result<(), CannikinError> {
        // Sweep candidates ascending so each solve warm-starts from the
        // previous candidate's overlap state (§4.5).
        let mut cache = Vec::new();
        for total in self.candidates() {
            if let Some(entry) = self.evaluate_candidate(solver, total, solves)? {
                cache.push(entry);
            }
        }
        if cache.is_empty() {
            return Err(CannikinError::InfeasibleBatch {
                total: self.min_batch,
                reason: "every candidate in the range is infeasible".into(),
            });
        }
        self.cache = Some(cache);
        Ok(())
    }

    /// Evaluate one candidate, escalating to gradient accumulation when
    /// the plain batch exceeds the memory caps. Returns `None` when no
    /// accumulation factor within the limit makes it feasible.
    fn evaluate_candidate(
        &self,
        solver: &mut OptPerfSolver,
        total: u64,
        solves: &mut usize,
    ) -> Result<Option<CachedCandidate>, CannikinError> {
        let n = solver.input().len() as u64;
        let mut accum = 1u64;
        while accum <= self.max_accumulation {
            let micro = (total / accum).max(n);
            match solver.solve(micro) {
                Ok(plan) => {
                    *solves += plan.solves;
                    let span = compute_span(solver.input(), &plan.local_batches);
                    let step_time = plan.opt_perf + (accum - 1) as f64 * span;
                    return Ok(Some(CachedCandidate {
                        total: micro * accum,
                        step_time,
                        boundary: plan.boundary,
                        accumulation: accum,
                    }));
                }
                Err(CannikinError::InfeasibleBatch { .. }) => {
                    accum *= 2;
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optperf::SolverInput;
    use hetsim::catalog::Gpu;
    use hetsim::cluster::{ClusterSpec, NodeSpec};
    use hetsim::job::JobSpec;

    fn solver() -> OptPerfSolver {
        let cluster = ClusterSpec::new(
            "t",
            vec![
                NodeSpec::new("a100", Gpu::A100),
                NodeSpec::new("v100", Gpu::V100),
                NodeSpec::new("rtx", Gpu::Rtx6000),
            ],
        );
        OptPerfSolver::new(SolverInput::from_ground_truth(&cluster, &JobSpec::resnet50_imagenet()))
    }

    #[test]
    fn candidates_are_geometric_and_bounded() {
        let engine = GoodputEngine::new(64, 64, 4096);
        let c = engine.candidates();
        assert_eq!(*c.first().unwrap(), 64);
        assert_eq!(*c.last().unwrap(), 4096);
        for pair in c.windows(2) {
            assert!(pair[1] > pair[0]);
        }
        // Roughly geometric: max ratio close to min ratio.
        let ratios: Vec<f64> = c.windows(2).map(|p| p[1] as f64 / p[0] as f64).collect();
        let rmax = ratios.iter().copied().fold(f64::MIN, f64::max);
        let rmin = ratios.iter().copied().fold(f64::MAX, f64::min);
        assert!(rmax / rmin < 1.6, "ratios {ratios:?}");
    }

    #[test]
    fn degenerate_range_is_single_candidate() {
        let engine = GoodputEngine::new(64, 128, 128);
        assert_eq!(engine.candidates(), vec![128]);
    }

    #[test]
    fn low_noise_prefers_small_batches() {
        let mut s = solver();
        let mut engine = GoodputEngine::new(64, 64, 4096);
        let small = engine.select(&mut s, 20.0).unwrap();
        engine.invalidate();
        let large = engine.select(&mut s, 20_000.0).unwrap();
        assert!(
            large.total > small.total,
            "high noise {} should pick bigger batches than low noise {}",
            large.total,
            small.total
        );
    }

    #[test]
    fn cache_avoids_resweeping() {
        let mut s = solver();
        let mut engine = GoodputEngine::new(64, 64, 4096);
        let first = engine.select(&mut s, 500.0).unwrap();
        assert!(first.cache_rebuilt);
        let second = engine.select(&mut s, 520.0).unwrap();
        assert!(!second.cache_rebuilt);
        assert!(second.solves < first.solves / 2, "cached selection {} vs sweep {}", second.solves, first.solves);
    }

    #[test]
    fn selection_plan_sums_to_total() {
        let mut s = solver();
        let mut engine = GoodputEngine::new(64, 64, 2048);
        let sel = engine.select(&mut s, 800.0).unwrap();
        assert_eq!(sel.plan.local_batches.iter().sum::<u64>(), sel.total);
        assert!(sel.goodput > 0.0);
    }

    #[test]
    fn accumulation_unlocks_batches_beyond_memory() {
        // Tighten every node's cap so the top of the range only fits via
        // gradient accumulation.
        let cluster = ClusterSpec::new(
            "tight",
            vec![
                NodeSpec::new("a100", Gpu::A100),
                NodeSpec::new("v100", Gpu::V100),
                NodeSpec::new("rtx", Gpu::Rtx6000),
            ],
        );
        let mut input = SolverInput::from_ground_truth(&cluster, &JobSpec::resnet50_imagenet());
        for node in input.nodes.iter_mut() {
            node.max_batch = Some(100);
        }
        let mut s = OptPerfSolver::new(input.clone());
        // Without accumulation the engine cannot reach past 300.
        let mut plain = GoodputEngine::new(64, 64, 2048);
        let sel = plain.select(&mut s, 1e9).unwrap();
        assert!(sel.total <= 300, "plain engine capped at {}", sel.total);
        assert_eq!(sel.accumulation, 1);
        // With accumulation, enormous noise pushes it beyond the caps.
        let mut accum = GoodputEngine::new(64, 64, 2048).with_accumulation(8);
        let sel = accum.select(&mut s, 1e9).unwrap();
        assert!(sel.total > 300, "accumulation should unlock large batches: {}", sel.total);
        assert!(sel.accumulation > 1);
        // The micro-plan respects the caps and multiplies back to the total.
        assert!(sel.plan.local_batches.iter().all(|&b| b <= 100));
        assert_eq!(sel.plan.local_batches.iter().sum::<u64>() * sel.accumulation, sel.total);
    }

    #[test]
    fn accumulation_is_never_preferred_when_plain_fits() {
        // With generous caps the accumulated variant is strictly slower
        // (extra compute passes, same sync), so it must not be selected.
        let mut s = solver();
        let mut engine = GoodputEngine::new(64, 64, 2048).with_accumulation(4);
        let sel = engine.select(&mut s, 800.0).unwrap();
        assert_eq!(sel.accumulation, 1, "plain batches fit; accumulation must stay off");
    }

    #[test]
    fn selected_batch_maximizes_goodput_over_grid() {
        let mut s = solver();
        let mut engine = GoodputEngine::new(64, 64, 4096);
        let phi = 900.0;
        let sel = engine.select(&mut s, phi).unwrap();
        // No other candidate achieves materially better goodput when
        // solved exactly.
        for total in engine.candidates() {
            let Ok(plan) = s.solve(total) else {
                continue; // above the memory caps
            };
            let g = goodput(phi, 64, total, plan.opt_perf);
            assert!(g <= sel.goodput * 1.01, "candidate {total} goodput {g} beats selection {}", sel.goodput);
        }
    }
}
