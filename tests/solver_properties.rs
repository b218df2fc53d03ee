//! Property-based tests for the OptPerf solver (Algorithm 1).
//!
//! The solver's claims are checked against randomized adversaries:
//! no feasible split may beat the plan's predicted time, the continuous
//! relaxation lower-bounds everything, classifications must agree with the
//! `(1−γ)P vs T_o` criterion, and predictions must match the event-driven
//! simulator exactly on oracle inputs.

use cannikin::core::optperf::{predict_batch_time, Bottleneck, NodePerf, OptPerfSolver, SolverInput};
use cannikin::sim::Simulator;
use propcheck::{check, Gen};

const CASES: usize = 128;

/// Random heterogeneous solver input: n nodes with slopes spanning up to
/// ~6x, γ in (0.05, 0.5), communication comparable to compute.
fn arbitrary_input(g: &mut Gen) -> SolverInput {
    let n = g.usize(2..8);
    let gamma = g.f64(0.05..0.5);
    let node = |_| NodePerf {
        q: g.f64(0.05e-3..1.0e-3),
        s: g.f64(0.1e-3..4e-3),
        k: g.f64(0.1e-3..2e-3),
        m: g.f64(0.1e-3..4e-3),
        max_batch: None,
    };
    let nodes = (0..n).map(node).collect();
    SolverInput { nodes, gamma, t_o: g.f64(1e-3..80e-3), t_u: g.f64(0.2e-3..8e-3) }
}

/// A random feasible integer split of `total` across `n` nodes.
fn random_split(total: u64, weights: &[f64]) -> Vec<u64> {
    let n = weights.len();
    let sum: f64 = weights.iter().sum();
    let mut out: Vec<u64> = weights.iter().map(|w| ((w / sum) * total as f64).floor() as u64).map(|b| b.max(1)).collect();
    let mut s: u64 = out.iter().sum();
    let mut i = 0;
    while s < total {
        out[i % n] += 1;
        s += 1;
        i += 1;
    }
    while s > total {
        if out[i % n] > 1 {
            out[i % n] -= 1;
            s -= 1;
        }
        i += 1;
    }
    out
}

#[test]
fn plan_sums_and_floors() {
    check(CASES, |g| {
        let input = arbitrary_input(g);
        let total_mult = g.u64(2..200);
        let n = input.len() as u64;
        let total = n * total_mult;
        let mut solver = OptPerfSolver::new(input);
        let plan = solver.solve(total).expect("feasible");
        assert_eq!(plan.local_batches.iter().sum::<u64>(), total);
        assert!(plan.local_batches.iter().all(|&b| b >= 1));
    });
}

#[test]
fn no_random_split_beats_the_plan() {
    check(CASES, |g| {
        let input = arbitrary_input(g);
        let total_mult = g.u64(2..200);
        let weights: Vec<f64> = (0..8).map(|_| g.f64(0.05..1.0)).collect();
        let n = input.len();
        let total = n as u64 * total_mult;
        let mut solver = OptPerfSolver::new(input.clone());
        let plan = solver.solve(total).expect("feasible");
        let rival = random_split(total, &weights[..n]);
        let rival_time = predict_batch_time(&input, &rival);
        // Integer rounding gives the plan at most a whisker of slack.
        assert!(
            plan.opt_perf <= rival_time * 1.02 + 1e-9,
            "plan {} loses to random split {:?} at {}",
            plan.opt_perf,
            rival,
            rival_time
        );
    });
}

#[test]
fn continuous_relaxation_is_a_lower_bound() {
    check(CASES, |g| {
        let input = arbitrary_input(g);
        let total_mult = g.u64(2..200);
        let n = input.len() as u64;
        let total = n * total_mult;
        let mut solver = OptPerfSolver::new(input);
        let plan = solver.solve(total).expect("feasible");
        assert!(plan.continuous_opt <= plan.opt_perf * (1.0 + 1e-9));
    });
}

#[test]
fn pattern_matches_overlap_criterion() {
    check(CASES, |g| {
        let input = arbitrary_input(g);
        let total_mult = g.u64(2..200);
        let n = input.len() as u64;
        let total = n * total_mult;
        let mut solver = OptPerfSolver::new(input.clone());
        let plan = solver.solve(total).expect("feasible");
        for node in 0..input.len() {
            let b = plan.local_batches[node] as f64;
            let headroom = (1.0 - input.gamma) * input.nodes[node].p(b);
            let expected = if headroom >= input.t_o { Bottleneck::Compute } else { Bottleneck::Communication };
            assert_eq!(plan.pattern[node], expected, "node {}", node);
        }
        // Boundary equals the compute count.
        let computes = plan.pattern.iter().filter(|p| **p == Bottleneck::Compute).count();
        assert_eq!(plan.boundary, computes);
    });
}

#[test]
fn warm_start_agrees_with_cold_solve() {
    check(CASES, |g| {
        let input = arbitrary_input(g);
        let total_mult = g.u64(2..100);
        let n = input.len() as u64;
        let total = n * total_mult;
        let mut warm = OptPerfSolver::new(input.clone());
        let _ = warm.solve(total / 2 + n).expect("feasible warmup");
        let plan_warm = warm.solve(total).expect("feasible");
        let mut cold = OptPerfSolver::new(input);
        let plan_cold = cold.solve(total).expect("feasible");
        assert!((plan_warm.opt_perf - plan_cold.opt_perf).abs() <= plan_cold.opt_perf * 1e-9);
    });
}

/// Oracle check on the real clusters: prediction equals event simulation.
#[test]
fn predictions_match_event_simulator_on_paper_clusters() {
    use cannikin::workloads::{clusters, profiles};
    for cluster in [clusters::cluster_a(), clusters::cluster_b(), clusters::cluster_c_default()] {
        for profile in profiles::all() {
            let input = SolverInput::from_ground_truth(&cluster, &profile.job);
            let mut solver = OptPerfSolver::new(input);
            let sim = Simulator::new(cluster.clone(), profile.job.clone(), 0).with_noise(0.0, 0.0);
            let n = cluster.len() as u64;
            for total in [2 * n, 8 * n, 64 * n] {
                let Ok(plan) = solver.solve(total) else { continue };
                let simulated = sim.ideal_batch_time(&plan.local_batches);
                assert!(
                    (plan.opt_perf - simulated).abs() / simulated < 1e-9,
                    "{} / {} at B={total}: {} vs {}",
                    cluster.name,
                    profile.name(),
                    plan.opt_perf,
                    simulated
                );
            }
        }
    }
}

/// Appendix A optimality conditions, checked on the returned plans:
/// all-compute plans equalize `t_compute`, all-communication plans
/// equalize `syncStart`, and mixed plans satisfy
/// `t_compute = syncStart' + T_o` across the boundary.
#[test]
fn appendix_a_equalization_conditions_hold() {
    use cannikin::workloads::{clusters, profiles};
    let cluster = clusters::cluster_b();
    let profile = profiles::imagenet_resnet50();
    let input = SolverInput::from_ground_truth(&cluster, &profile.job);
    let mut solver = OptPerfSolver::new(input.clone());

    // All-compute regime (huge batch): equal compute times (A.1).
    let plan = solver.solve(8000).expect("feasible");
    assert!(plan.pattern.iter().all(|p| *p == Bottleneck::Compute));
    let computes: Vec<f64> = input
        .nodes
        .iter()
        .zip(&plan.local_batches)
        .map(|(node, &b)| node.compute(b as f64))
        .collect();
    let max = computes.iter().copied().fold(f64::MIN, f64::max);
    let min = computes.iter().copied().fold(f64::MAX, f64::min);
    // Integer rounding leaves at most one sample's worth of spread.
    let slope = input.nodes.iter().map(|n| n.compute_slope()).fold(0.0f64, f64::max);
    assert!(max - min <= 2.0 * slope, "compute spread {} vs slope {slope}", max - min);

    // All-communication regime (tiny batch): equal sync starts (A.2).
    let plan = solver.solve(48).expect("feasible");
    assert!(plan.pattern.iter().all(|p| *p == Bottleneck::Communication), "{:?}", plan.pattern);
    let syncs: Vec<f64> = input
        .nodes
        .iter()
        .zip(&plan.local_batches)
        .map(|(node, &b)| node.sync_start(b as f64, input.gamma))
        .collect();
    let max = syncs.iter().copied().fold(f64::MIN, f64::max);
    let min = syncs.iter().copied().fold(f64::MAX, f64::min);
    let sync_slope = input.nodes.iter().map(|n| n.sync_slope(input.gamma)).fold(0.0f64, f64::max);
    assert!(max - min <= 2.0 * sync_slope, "sync spread {} vs slope {sync_slope}", max - min);

    // Mixed regime (A.3): compute-bottleneck nodes' t_compute equals the
    // communication-bottleneck nodes' syncStart + T_o (both get ready for
    // the last bucket simultaneously), up to rounding.
    let mut mixed = None;
    for total in (64..2000).step_by(32) {
        let plan = solver.solve(total).expect("feasible");
        let computes = plan.pattern.iter().filter(|p| **p == Bottleneck::Compute).count();
        if computes > 0 && computes < cluster.len() {
            mixed = Some(plan);
            break;
        }
    }
    let plan = mixed.expect("a mixed regime exists in the sweep");
    let mut compute_finish = Vec::new();
    let mut comm_finish = Vec::new();
    for (i, node) in input.nodes.iter().enumerate() {
        let b = plan.local_batches[i] as f64;
        match plan.pattern[i] {
            Bottleneck::Compute => compute_finish.push(node.compute(b)),
            Bottleneck::Communication => comm_finish.push(node.sync_start(b, input.gamma) + input.t_o),
        }
    }
    let all: Vec<f64> = compute_finish.iter().chain(&comm_finish).copied().collect();
    let max = all.iter().copied().fold(f64::MIN, f64::max);
    let min = all.iter().copied().fold(f64::MAX, f64::min);
    let worst_slope = input
        .nodes
        .iter()
        .map(|n| n.compute_slope().max(n.sync_slope(input.gamma)))
        .fold(0.0f64, f64::max);
    assert!(
        max - min <= 3.0 * worst_slope,
        "mixed-regime finish spread {} vs slope {worst_slope}",
        max - min
    );
}

/// Edge-of-domain inputs the online-learned models can realistically
/// produce: near-degenerate γ, negligible communication, extreme
/// heterogeneity and large clusters.
#[test]
fn solver_survives_edge_inputs() {
    let node = |speed: f64| NodePerf {
        q: 0.2e-3 / speed,
        s: 1e-3,
        k: 0.4e-3 / speed,
        m: 0.5e-3,
        max_batch: None,
    };

    // γ close to its clamp boundaries.
    for gamma in [1e-3, 0.999 - 1e-6] {
        let input = SolverInput { nodes: vec![node(1.0), node(3.0)], gamma, t_o: 5e-3, t_u: 1e-3 };
        let mut solver = OptPerfSolver::new(input.clone());
        let plan = solver.solve(200).expect("feasible");
        assert_eq!(plan.local_batches.iter().sum::<u64>(), 200);
        assert!(plan.opt_perf.is_finite() && plan.opt_perf > 0.0, "gamma {gamma}");
    }

    // Essentially free communication: pure load balancing.
    let input = SolverInput { nodes: vec![node(1.0), node(2.0), node(4.0)], gamma: 0.1, t_o: 1e-12, t_u: 1e-12 };
    let mut solver = OptPerfSolver::new(input.clone());
    let plan = solver.solve(700).expect("feasible");
    // Shares ∝ speed.
    assert!(plan.local_batches[2] > plan.local_batches[1] && plan.local_batches[1] > plan.local_batches[0]);
    let even = predict_batch_time(&input, &[234, 233, 233]);
    assert!(plan.opt_perf < even);

    // 100x heterogeneity: the slow node still gets ≥ 1 sample.
    let input = SolverInput { nodes: vec![node(100.0), node(1.0)], gamma: 0.1, t_o: 2e-3, t_u: 0.5e-3 };
    let mut solver = OptPerfSolver::new(input);
    let plan = solver.solve(1000).expect("feasible");
    assert!(plan.local_batches[1] >= 1);
    assert!(plan.local_batches[0] > 900, "{:?}", plan.local_batches);

    // 64-node cluster: solves quickly and correctly.
    let nodes: Vec<NodePerf> = (0..64).map(|i| node(1.0 + (i % 8) as f64)).collect();
    let input = SolverInput { nodes, gamma: 0.15, t_o: 30e-3, t_u: 3e-3 };
    let mut solver = OptPerfSolver::new(input.clone());
    let started = std::time::Instant::now();
    let plan = solver.solve(6400).expect("feasible");
    assert!(started.elapsed().as_millis() < 200, "64-node solve took {:?}", started.elapsed());
    assert_eq!(plan.local_batches.iter().sum::<u64>(), 6400);
    // Same-speed nodes get near-identical shares.
    for i in (8..64).step_by(8) {
        assert!(plan.local_batches[i].abs_diff(plan.local_batches[0]) <= 1);
    }
}
