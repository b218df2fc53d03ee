//! The boundary-search OptPerf solver.

use super::{NodePerf, SolverInput};
use crate::error::CannikinError;
use cannikin_telemetry::{self as telemetry, Event, SolverInvocation};

/// Which resource limits a node at the solved operating point (§3.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// `(1−γ)·P_i ≥ T_o`: gradient computation hides all overlappable
    /// communication; the node's batch time is `t_compute + T_u` (Eq. 5).
    Compute,
    /// `(1−γ)·P_i < T_o`: the bucket-synchronization chain is the critical
    /// path; the node's batch time is `syncStart + T_comm` (Eq. 6).
    Communication,
}

/// The solver's answer for one total batch size.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Integer local batch per node, summing to the requested total.
    pub local_batches: Vec<u64>,
    /// Predicted batch processing time of `local_batches`, s — this is
    /// *OptPerf* for the requested total batch size.
    pub opt_perf: f64,
    /// The continuous-relaxation optimum (before integer rounding), s.
    pub continuous_opt: f64,
    /// Bottleneck classification of every node at the solved point.
    pub pattern: Vec<Bottleneck>,
    /// Number of compute-bottleneck nodes in the solver's transition
    /// ordering (the boundary `C`; `C = n` ⇔ Check 1, `C = 0` ⇔ Check 2).
    pub boundary: usize,
    /// Linear-system solves performed (overhead accounting for Table 6).
    pub solves: usize,
}

impl Plan {
    /// Local batch ratios `r_i = b_i / B` (Eq. 9 weights).
    pub fn ratios(&self) -> Vec<f64> {
        let total: u64 = self.local_batches.iter().sum();
        self.local_batches.iter().map(|&b| b as f64 / total as f64).collect()
    }
}

/// Predicted synchronized batch time of an arbitrary split under the given
/// models — Eq. (7) evaluated in closed form.
///
/// # Panics
///
/// Panics if `local.len()` differs from the node count.
pub fn predict_batch_time(input: &SolverInput, local: &[u64]) -> f64 {
    assert_eq!(local.len(), input.nodes.len(), "one local batch per node");
    let t_comm = input.t_comm();
    let mut t = 0.0f64;
    for (node, &b) in input.nodes.iter().zip(local) {
        let b = b as f64;
        t = t
            .max(node.compute(b) + input.t_u)
            .max(node.sync_start(b, input.gamma) + t_comm);
    }
    t
}

/// The straggler's pure compute time for a split — the per-micro-step
/// cost of gradient accumulation, where no all-reduce happens.
///
/// # Panics
///
/// Panics if `local.len()` differs from the node count.
pub fn compute_span(input: &SolverInput, local: &[u64]) -> f64 {
    assert_eq!(local.len(), input.nodes.len(), "one local batch per node");
    input
        .nodes
        .iter()
        .zip(local)
        .map(|(node, &b)| node.compute(b as f64))
        .fold(0.0, f64::max)
}

/// The OptPerf solver with warm-started boundary search.
///
/// Construct once per (cluster, job) model snapshot; call
/// [`OptPerfSolver::solve`] per candidate total batch size. Successive
/// calls reuse the previous boundary as the search start (§4.5).
#[derive(Debug, Clone)]
pub struct OptPerfSolver {
    input: SolverInput,
    /// Node indices sorted ascending by transition threshold μ*.
    order: Vec<usize>,
    warm_boundary: Option<usize>,
}

impl OptPerfSolver {
    /// Create a solver for the given models.
    ///
    /// # Panics
    ///
    /// Panics if the input is empty, γ is outside `(0, 1)`, or any slope
    /// is non-positive (a physically meaningless model).
    pub fn new(input: SolverInput) -> Self {
        assert!(!input.is_empty(), "solver needs at least one node");
        assert!(input.gamma > 0.0 && input.gamma < 1.0, "gamma must be in (0, 1)");
        for (i, n) in input.nodes.iter().enumerate() {
            assert!(n.q > 0.0 && n.k > 0.0, "node {i} has non-positive slope");
        }
        let mut order: Vec<usize> = (0..input.len()).collect();
        let thresholds_by_node: Vec<f64> = input.nodes.iter().map(|n| mu_star(n, input.gamma, input.t_o)).collect();
        order.sort_by(|&a, &b| thresholds_by_node[a].total_cmp(&thresholds_by_node[b]));
        OptPerfSolver { input, order, warm_boundary: None }
    }

    /// The models the solver was built from.
    pub fn input(&self) -> &SolverInput {
        &self.input
    }

    /// Seed the boundary search (used when replaying a cached overlap
    /// state from `OptPerf_init`, §4.5).
    pub fn set_warm_boundary(&mut self, boundary: usize) {
        self.warm_boundary = Some(boundary.min(self.input.len()));
    }

    /// Solve for the optimal split of `total` samples.
    ///
    /// # Errors
    ///
    /// Returns [`CannikinError::InfeasibleBatch`] when `total` is smaller
    /// than the node count (every node must train at least one sample) or
    /// exceeds the sum of the per-node memory caps.
    pub fn solve(&mut self, total: u64) -> Result<Plan, CannikinError> {
        let invocation_started = std::time::Instant::now();
        let n = self.input.len();
        if total < n as u64 {
            return Err(CannikinError::InfeasibleBatch {
                total,
                reason: format!("cluster has {n} nodes and every node needs at least one sample"),
            });
        }
        let cap_sum: u64 = self.input.nodes.iter().map(|nd| nd.max_batch.unwrap_or(u64::MAX / 1024)).sum();
        if total > cap_sum {
            return Err(CannikinError::InfeasibleBatch {
                total,
                reason: format!("memory caps admit at most {cap_sum} samples"),
            });
        }

        let mut solves = 0usize;

        // Warm-started / binary boundary search over C ∈ [0, n].
        let mut chosen: Option<(usize, ContinuousSolution)> = None;
        let mut lo = 0usize;
        let mut hi = n;
        let mut first = self.warm_boundary;
        for _ in 0..=n + 2 {
            if lo > hi {
                break;
            }
            let c = match first.take() {
                Some(w) if (lo..=hi).contains(&w) => w,
                _ => (lo + hi) / 2,
            };
            let sol = self.solve_continuous(total, c);
            solves += 1;
            match self.classify_consistency(c, &sol) {
                Consistency::Ok => {
                    chosen = Some((c, sol));
                    break;
                }
                Consistency::NeedMoreCompute => lo = c + 1,
                Consistency::NeedLessCompute => {
                    if c == 0 {
                        break;
                    }
                    hi = c - 1;
                }
            }
        }

        // Fallback: exhaustive scan, keeping the best predicted plan even
        // when no boundary is perfectly self-consistent (possible when
        // pinning at caps or the 1-sample floor distorts the system).
        let (_search_boundary, solution) = match chosen {
            Some(x) => x,
            None => {
                let mut best: Option<(usize, ContinuousSolution, f64)> = None;
                for c in 0..=n {
                    let sol = self.solve_continuous(total, c);
                    solves += 1;
                    let rounded = self.round(total, &sol);
                    let t = predict_batch_time(&self.input, &rounded);
                    if best.as_ref().is_none_or(|(_, _, bt)| t < *bt) {
                        best = Some((c, sol, t));
                    }
                }
                let (c, sol, _) = best.expect("n+1 candidate boundaries evaluated");
                (c, sol)
            }
        };

        let local_batches = self.round(total, &solution);
        let opt_perf = predict_batch_time(&self.input, &local_batches);
        let pattern = self.classify_plan(&local_batches);
        // Report (and warm-start from) the realized compute-node count:
        // when every node was pinned by the 1-sample floor or a memory
        // cap, the search boundary `boundary` is arbitrary, but the
        // realized pattern is not.
        let boundary = pattern.iter().filter(|p| **p == Bottleneck::Compute).count();
        self.warm_boundary = Some(boundary);
        if telemetry::enabled() {
            telemetry::emit(Event::SolverInvocation(SolverInvocation {
                wall_ns: invocation_started.elapsed().as_nanos() as u64,
                total,
                candidates: 1,
                solves: solves as u32,
                boundary: boundary as u32,
            }));
        }
        Ok(Plan {
            continuous_opt: solution.makespan,
            local_batches,
            opt_perf,
            pattern,
            boundary,
            solves,
        })
    }

    /// Solve the equal-finish linear system for boundary `c` with the
    /// 1-sample floor and memory caps enforced by an active-set loop.
    fn solve_continuous(&self, total: u64, c: usize) -> ContinuousSolution {
        let n = self.input.len();
        let gamma = self.input.gamma;
        let t_o = self.input.t_o;
        // slope/offset of each node's finish-time expression μ = slope·b + offset.
        let mut slope = vec![0.0f64; n];
        let mut offset = vec![0.0f64; n];
        for (pos, &i) in self.order.iter().enumerate() {
            let node = &self.input.nodes[i];
            if pos < c {
                slope[i] = node.compute_slope();
                offset[i] = node.compute_intercept();
            } else {
                slope[i] = node.sync_slope(gamma);
                offset[i] = node.sync_intercept(gamma) + t_o;
            }
        }
        let caps: Vec<f64> = self.input.nodes.iter().map(|nd| nd.max_batch.map_or(f64::INFINITY, |m| m as f64)).collect();
        let mut pinned: Vec<Option<f64>> = vec![None; n];
        let mut b = vec![0.0f64; n];
        let mut mu = 0.0f64;
        for _round in 0..=n {
            let budget = total as f64 - pinned.iter().flatten().sum::<f64>();
            let free: Vec<usize> = (0..n).filter(|&i| pinned[i].is_none()).collect();
            if free.is_empty() {
                break;
            }
            let inv_sum: f64 = free.iter().map(|&i| 1.0 / slope[i]).sum();
            let rhs: f64 = free.iter().map(|&i| offset[i] / slope[i]).sum();
            mu = (budget + rhs) / inv_sum;
            for &i in &free {
                b[i] = (mu - offset[i]) / slope[i];
            }
            // Pin violations and re-solve.
            let mut changed = false;
            for &i in &free {
                if b[i] < 1.0 {
                    pinned[i] = Some(1.0f64.min(caps[i]));
                    changed = true;
                } else if b[i] > caps[i] {
                    pinned[i] = Some(caps[i]);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for i in 0..n {
            if let Some(p) = pinned[i] {
                b[i] = p;
            }
        }
        // Makespan of the continuous solution: free nodes finish at μ, but
        // pinned nodes may finish later.
        let mut makespan = self.input.t_u + mu.max(0.0);
        for i in 0..n {
            let node = &self.input.nodes[i];
            makespan = makespan
                .max(node.compute(b[i]) + self.input.t_u)
                .max(node.sync_start(b[i], gamma) + self.input.t_comm());
        }
        ContinuousSolution { b, makespan }
    }

    /// Check whether the hypothesis "first `c` sorted nodes are
    /// compute-bottleneck" agrees with the solved batch sizes.
    ///
    /// Pinned nodes (memory cap or the one-sample floor) are classified by
    /// their *actual* overlap state at the pinned size: a node hypothesized
    /// communication-bound but pinned at a cap where it is compute-bound
    /// would otherwise silently anchor a wrong boundary (its real finish
    /// time exceeds the equalized makespan μ, which the solver would never
    /// notice — it was a genuine bug caught by the Appendix A tests).
    fn classify_consistency(&self, c: usize, sol: &ContinuousSolution) -> Consistency {
        let gamma = self.input.gamma;
        let t_o = self.input.t_o;
        for (pos, &i) in self.order.iter().enumerate() {
            let overlap_headroom = (1.0 - gamma) * self.input.nodes[i].p(sol.b[i]);
            let is_compute = overlap_headroom >= t_o - 1e-12;
            if pos < c && !is_compute {
                return Consistency::NeedLessCompute;
            }
            if pos >= c && is_compute {
                return Consistency::NeedMoreCompute;
            }
        }
        Consistency::Ok
    }

    /// Classify every node of an integer plan by its actual overlap state.
    fn classify_plan(&self, local: &[u64]) -> Vec<Bottleneck> {
        local
            .iter()
            .zip(&self.input.nodes)
            .map(|(&b, node)| {
                if (1.0 - self.input.gamma) * node.p(b as f64) >= self.input.t_o {
                    Bottleneck::Compute
                } else {
                    Bottleneck::Communication
                }
            })
            .collect()
    }

    /// Largest-remainder rounding of the continuous split to integers that
    /// sum to `total`, respecting the 1-sample floor and memory caps.
    fn round(&self, total: u64, sol: &ContinuousSolution) -> Vec<u64> {
        let n = self.input.len();
        let caps: Vec<u64> = self.input.nodes.iter().map(|nd| nd.max_batch.unwrap_or(u64::MAX / 1024)).collect();
        let mut out: Vec<u64> = (0..n).map(|i| (sol.b[i].floor() as u64).clamp(1, caps[i])).collect();
        let mut assigned: u64 = out.iter().sum();
        // Order nodes by descending fractional part for the remainder.
        let mut frac_order: Vec<usize> = (0..n).collect();
        frac_order.sort_by(|&a, &b| {
            let fa = sol.b[a] - sol.b[a].floor();
            let fb = sol.b[b] - sol.b[b].floor();
            fb.total_cmp(&fa)
        });
        let mut cursor = 0;
        while assigned < total {
            let i = frac_order[cursor % n];
            if out[i] < caps[i] {
                out[i] += 1;
                assigned += 1;
            }
            cursor += 1;
            if cursor > 4 * n * (total as usize + 1) {
                break; // caps saturated; feasibility was pre-checked
            }
        }
        while assigned > total {
            // Floors pushed us over (tiny totals): shave from the largest.
            let i = (0..n).max_by(|&a, &b| out[a].cmp(&out[b])).expect("non-empty");
            if out[i] > 1 {
                out[i] -= 1;
                assigned -= 1;
            } else {
                break;
            }
        }
        out
    }
}

/// Transition threshold μ*: the equal-finish makespan at which node `i`
/// becomes compute-bottleneck. Below it the node is communication-bound.
fn mu_star(node: &NodePerf, gamma: f64, t_o: f64) -> f64 {
    // (1−γ)(k·b + m) = T_o  ⇒  b_crit
    let b_crit = (t_o / (1.0 - gamma) - node.m) / node.k;
    if b_crit <= 0.0 {
        return f64::NEG_INFINITY; // compute-bound at any batch size
    }
    node.compute(b_crit)
}

#[derive(Debug, Clone)]
struct ContinuousSolution {
    b: Vec<f64>,
    makespan: f64,
}

enum Consistency {
    Ok,
    NeedMoreCompute,
    NeedLessCompute,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::catalog::Gpu;
    use hetsim::cluster::{ClusterSpec, NodeSpec};
    use hetsim::job::JobSpec;
    use hetsim::Simulator;

    fn cluster3() -> ClusterSpec {
        ClusterSpec::new(
            "t",
            vec![
                NodeSpec::new("a100", Gpu::A100),
                NodeSpec::new("v100", Gpu::V100),
                NodeSpec::new("rtx", Gpu::Rtx6000),
            ],
        )
    }

    fn solver_for(job: JobSpec) -> OptPerfSolver {
        OptPerfSolver::new(SolverInput::from_ground_truth(&cluster3(), &job))
    }

    #[test]
    fn split_sums_to_total_and_favors_fast_nodes() {
        let mut s = solver_for(JobSpec::resnet50_imagenet());
        let plan = s.solve(128).unwrap();
        assert_eq!(plan.local_batches.iter().sum::<u64>(), 128);
        assert!(plan.local_batches[0] > plan.local_batches[1]);
        assert!(plan.local_batches[1] > plan.local_batches[2]);
    }

    #[test]
    fn beats_even_split() {
        let mut s = solver_for(JobSpec::resnet50_imagenet());
        let plan = s.solve(96).unwrap();
        let even = predict_batch_time(s.input(), &[32, 32, 32]);
        assert!(plan.opt_perf < even, "opt {} vs even {even}", plan.opt_perf);
    }

    #[test]
    fn optimal_among_exhaustive_integer_splits() {
        // Brute force all integer splits for a small total and check the
        // solver is within rounding distance of the best.
        for job in [JobSpec::resnet50_imagenet(), JobSpec::bert_squad(), JobSpec::neumf_movielens()] {
            let mut s = solver_for(job.clone());
            let total = 48u64;
            let plan = s.solve(total).unwrap();
            let mut best = f64::INFINITY;
            for b0 in 1..total - 1 {
                for b1 in 1..total - b0 {
                    let b2 = total - b0 - b1;
                    if b2 < 1 {
                        continue;
                    }
                    best = best.min(predict_batch_time(s.input(), &[b0, b1, b2]));
                }
            }
            assert!(
                plan.opt_perf <= best * 1.02 + 1e-6,
                "{}: solver {} vs brute force {best}",
                job.name,
                plan.opt_perf
            );
            // Continuous bound is a true lower bound (up to fp noise).
            assert!(plan.continuous_opt <= best * (1.0 + 1e-9));
        }
    }

    #[test]
    fn plan_matches_simulator_ground_truth() {
        // The solver's predicted time must equal the event simulator's
        // noise-free batch time for the same split.
        let job = JobSpec::resnet50_imagenet();
        let sim = Simulator::new(cluster3(), job.clone(), 0).with_noise(0.0, 0.0);
        let mut s = solver_for(job);
        for total in [24u64, 64, 256, 1024] {
            let plan = s.solve(total).unwrap();
            let simulated = sim.ideal_batch_time(&plan.local_batches);
            assert!(
                (plan.opt_perf - simulated).abs() / simulated < 1e-9,
                "total {total}: predicted {} vs simulated {simulated}",
                plan.opt_perf
            );
        }
    }

    #[test]
    fn large_batches_become_all_compute() {
        let mut s = solver_for(JobSpec::resnet50_imagenet());
        let plan = s.solve(2000).unwrap();
        assert!(plan.pattern.iter().all(|p| *p == Bottleneck::Compute), "{:?}", plan.pattern);
        assert_eq!(plan.boundary, 3);
    }

    #[test]
    fn tiny_batches_become_all_communication() {
        // BERT's 440 MB gradient makes communication dominate at batch 3.
        let mut s = solver_for(JobSpec::bert_squad());
        let plan = s.solve(3).unwrap();
        assert!(plan.pattern.iter().all(|p| *p == Bottleneck::Communication), "{:?}", plan.pattern);
        assert_eq!(plan.boundary, 0);
    }

    #[test]
    fn mixed_bottleneck_exists_between_extremes() {
        // Sweep totals; somewhere between all-comm and all-compute there
        // must be a mixed state for a heterogeneous cluster.
        let mut s = solver_for(JobSpec::resnet50_imagenet());
        let mut saw_mixed = false;
        for total in (3..600).step_by(3) {
            let plan = s.solve(total).unwrap();
            let computes = plan.pattern.iter().filter(|p| **p == Bottleneck::Compute).count();
            if computes > 0 && computes < 3 {
                saw_mixed = true;
                break;
            }
        }
        assert!(saw_mixed, "no mixed-bottleneck state found in sweep");
    }

    #[test]
    fn warm_start_reduces_solves() {
        let mut cold = solver_for(JobSpec::resnet50_imagenet());
        let plan_a = cold.solve(300).unwrap();
        // Re-solving a nearby batch size with the warm boundary should use
        // no more solves than the cold solve.
        let plan_b = cold.solve(310).unwrap();
        assert!(plan_b.solves <= plan_a.solves, "warm {} vs cold {}", plan_b.solves, plan_a.solves);
        // And typically exactly one verification solve.
        assert!(plan_b.solves <= 2);
    }

    #[test]
    fn infeasible_batches_rejected() {
        let mut s = solver_for(JobSpec::resnet50_imagenet());
        assert!(matches!(s.solve(2), Err(CannikinError::InfeasibleBatch { .. })));
        // Sum of memory caps bounds the total.
        let caps: u64 = s.input().nodes.iter().map(|n| n.max_batch.unwrap()).sum();
        assert!(matches!(s.solve(caps + 1), Err(CannikinError::InfeasibleBatch { .. })));
    }

    #[test]
    fn memory_caps_respected() {
        let job = JobSpec::deepspeech2_librispeech();
        let mut input = SolverInput::from_ground_truth(&cluster3(), &job);
        // Artificially tighten node 0's cap.
        input.nodes[0].max_batch = Some(4);
        let mut s = OptPerfSolver::new(input);
        let plan = s.solve(40).unwrap();
        assert!(plan.local_batches[0] <= 4);
        assert_eq!(plan.local_batches.iter().sum::<u64>(), 40);
    }

    #[test]
    fn homogeneous_cluster_splits_evenly() {
        let cluster = ClusterSpec::new(
            "h",
            vec![
                NodeSpec::new("a", Gpu::V100),
                NodeSpec::new("b", Gpu::V100),
                NodeSpec::new("c", Gpu::V100),
                NodeSpec::new("d", Gpu::V100),
            ],
        );
        let mut s = OptPerfSolver::new(SolverInput::from_ground_truth(&cluster, &JobSpec::resnet50_imagenet()));
        let plan = s.solve(128).unwrap();
        assert_eq!(plan.local_batches, vec![32, 32, 32, 32]);
    }

    #[test]
    fn single_node_gets_everything() {
        let cluster = ClusterSpec::new("one", vec![NodeSpec::new("a", Gpu::A100)]);
        let mut s = OptPerfSolver::new(SolverInput::from_ground_truth(&cluster, &JobSpec::resnet18_cifar10()));
        let plan = s.solve(64).unwrap();
        assert_eq!(plan.local_batches, vec![64]);
    }

    #[test]
    fn ratios_sum_to_one() {
        let mut s = solver_for(JobSpec::resnet18_cifar10());
        let plan = s.solve(100).unwrap();
        let sum: f64 = plan.ratios().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sixteen_node_cluster_b_solves_fast_and_correctly() {
        // Paper-scale: 4×A100 + 4×V100 + 8×RTX6000.
        let mut nodes = Vec::new();
        for i in 0..4 {
            nodes.push(NodeSpec::new(format!("a100-{i}"), Gpu::A100));
        }
        for i in 0..4 {
            nodes.push(NodeSpec::new(format!("v100-{i}"), Gpu::V100));
        }
        for i in 0..8 {
            nodes.push(NodeSpec::new(format!("rtx-{i}"), Gpu::Rtx6000));
        }
        let cluster = ClusterSpec::new("B", nodes);
        let job = JobSpec::resnet50_imagenet();
        let sim = Simulator::new(cluster.clone(), job.clone(), 0).with_noise(0.0, 0.0);
        let mut s = OptPerfSolver::new(SolverInput::from_ground_truth(&cluster, &job));
        let plan = s.solve(1024).unwrap();
        assert_eq!(plan.local_batches.iter().sum::<u64>(), 1024);
        // Same-type nodes must receive near-identical batches.
        for i in 1..4 {
            assert!(plan.local_batches[i].abs_diff(plan.local_batches[0]) <= 1);
        }
        // Random splits cannot beat the plan.
        let sim_time = sim.ideal_batch_time(&plan.local_batches);
        assert!((sim_time - plan.opt_perf).abs() / sim_time < 1e-9);
        let even = sim.ideal_batch_time(&[64; 16]);
        assert!(plan.opt_perf < even);
    }
}
