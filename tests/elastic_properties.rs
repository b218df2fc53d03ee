//! Property-based tests for split planning under elastic membership
//! change (ISSUE 4 satellite): after a node is removed or added, a
//! re-solve at the same total must still cover the batch exactly over the
//! *new* membership — Σ b_i = B, every live node gets ≥ 1 sample, no
//! share is assigned to a dead rank, and memory caps stay respected. The
//! same contracts are checked for the Eq. (8) bootstrap fallback the
//! engine uses when the survivors' models are incomplete.

use cannikin::core::optperf::{bootstrap_split, NodePerf, OptPerfSolver, SolverInput};
use propcheck::{check, Gen};

const CASES: usize = 128;

fn arbitrary_node(g: &mut Gen) -> NodePerf {
    NodePerf {
        q: g.f64(0.05e-3..1.0e-3),
        s: g.f64(0.1e-3..4e-3),
        k: g.f64(0.1e-3..2e-3),
        m: g.f64(0.1e-3..4e-3),
        max_batch: None,
    }
}

/// Random heterogeneous solver input (same envelope as the solver
/// property suite): n nodes with slopes spanning up to ~6x.
fn arbitrary_input(g: &mut Gen) -> SolverInput {
    let n = g.usize(3..8);
    let gamma = g.f64(0.05..0.5);
    let nodes = (0..n).map(|_| arbitrary_node(g)).collect();
    SolverInput { nodes, gamma, t_o: g.f64(1e-3..80e-3), t_u: g.f64(0.2e-3..8e-3) }
}

#[test]
fn resolve_after_removal_covers_the_survivors() {
    check(CASES, |g| {
        let input = arbitrary_input(g);
        let victim_seed = g.usize(0..64);
        let total_mult = g.u64(2..120);
        let n = input.len();
        let total = n as u64 * total_mult;
        let victim = victim_seed % n;
        let mut survivors = input;
        survivors.nodes.remove(victim);
        let plan = OptPerfSolver::new(survivors).solve(total).expect("still feasible without caps");
        // The dead rank gets nothing — the split has exactly n-1 entries.
        assert_eq!(plan.local_batches.len(), n - 1);
        assert_eq!(plan.local_batches.iter().sum::<u64>(), total, "same total after the shrink");
        assert!(plan.local_batches.iter().all(|&b| b >= 1), "every survivor works");
        assert!(plan.opt_perf.is_finite() && plan.opt_perf > 0.0);
    });
}

#[test]
fn resolve_after_removal_respects_memory_caps() {
    check(CASES, |g| {
        let input = arbitrary_input(g);
        let victim_seed = g.usize(0..64);
        let caps: Vec<u64> = (0..8).map(|_| g.u64(4..200)).collect();
        let total_mult = g.u64(2..120);
        let n = input.len();
        let victim = victim_seed % n;
        let mut survivors = input;
        for (node, &cap) in survivors.nodes.iter_mut().zip(&caps) {
            node.max_batch = Some(cap);
        }
        survivors.nodes.remove(victim);
        // Mirror the engine's replan clamp: the old total may exceed the
        // shrunken cluster's capacity, in which case it is clamped into
        // the feasible range before solving.
        let cap_sum: u64 = survivors.nodes.iter().map(|nd| nd.max_batch.unwrap()).sum();
        let total = (n as u64 * total_mult).clamp(n as u64 - 1, cap_sum);
        let plan = OptPerfSolver::new(survivors.clone()).solve(total).expect("clamped total is feasible");
        assert_eq!(plan.local_batches.iter().sum::<u64>(), total);
        for (nd, &b) in survivors.nodes.iter().zip(&plan.local_batches) {
            assert!(b >= 1);
            assert!(b <= nd.max_batch.unwrap(), "share {} breaks cap {:?}", b, nd.max_batch);
        }
    });
}

#[test]
fn resolve_after_join_covers_the_newcomer() {
    check(CASES, |g| {
        let input = arbitrary_input(g);
        let joiner = arbitrary_node(g);
        let total_mult = g.u64(2..120);
        let n = input.len();
        let total = n as u64 * total_mult;
        let mut grown = input;
        grown.nodes.push(joiner);
        let plan = OptPerfSolver::new(grown).solve(total).expect("feasible");
        assert_eq!(plan.local_batches.len(), n + 1);
        assert_eq!(plan.local_batches.iter().sum::<u64>(), total, "same total after the grow");
        assert!(plan.local_batches.iter().all(|&b| b >= 1), "the joiner must be put to work");
    });
}

#[test]
fn bootstrap_fallback_survives_membership_change() {
    check(CASES, |g| {
        let t_samples = g.vec(3..9, |g| g.f64(1e-5..1e-2));
        let victim_seed = g.usize(0..64);
        let total_mult = g.u64(1..200);
        // The engine falls back to the Eq. (8) bootstrap when a survivor
        // or joiner has no fitted model yet; the fallback must keep the
        // same covering contract.
        let n = t_samples.len();
        let victim = victim_seed % n;
        let mut survivors = t_samples;
        survivors.remove(victim);
        let total = (n as u64 - 1) * total_mult.max(1);
        let split = bootstrap_split(&survivors, total);
        assert_eq!(split.len(), n - 1);
        assert_eq!(split.iter().sum::<u64>(), total);
        assert!(split.iter().all(|&b| b >= 1));
    });
}
