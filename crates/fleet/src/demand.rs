//! GNS-driven node demand: how many nodes a job is worth *right now*.
//!
//! Pollux-style goodput is throughput × statistical efficiency,
//! η(B) = (B₀+φ)/(B+φ). Model per-step time as t(B) = t_fix + t_samp·B
//! with the fixed overhead normalized to B₀ compute-equivalents
//! (t_fix/t_samp = B₀ — one reference batch's worth of per-step setup
//! and synchronization). Then goodput
//!
//! ```text
//! g(B) ∝ B·η(B)/t(B) ∝ B·(B₀+φ) / ((B+φ)(B₀+B))
//! ```
//!
//! is maximized at **B\* = √(φ·B₀)** — the knee of the statistical-
//! efficiency curve. Early in training (φ ≈ B₀) the optimal batch is B₀
//! and the job wants few nodes; as the gradient noise scale grows, B\*
//! grows as √φ and the job is *starved of statistical efficiency* on a
//! small allocation. The closed form reads this as node demand directly:
//! a job wants ⌈B\*/B₀⌉ nodes, one reference batch per node
//! ([`desired_nodes`]).
//!
//! The closed form is blind to communication, though: on small workloads
//! an extra node's all-reduce overhead can cost more step time than its
//! compute contribution saves, and such a job runs *faster on fewer
//! nodes*. [`profiled_nodes`] is the fleet's production demand model —
//! OptPerf one level up. It reuses the job-level machinery (the OptPerf
//! solver plus the goodput engine) to predict, for each candidate node
//! count `k`, the goodput the job would deliver on the pool's `k` best
//! nodes at the current φ, and asks for the smallest `k` within
//! diminishing returns of the best. Comm-bound jobs correctly demand one
//! node; compute-bound jobs demand more as √φ pushes B\* up.
//!
//! Even the one-shot goodput prediction is optimistic at high node
//! counts: it scores steady state, while a real (short) job spends a
//! meaningful fraction of its life in the Eq. (8) bootstrap with
//! suboptimal splits, and its batch follows the evolving φ rather than
//! sitting at the prediction's optimum. So the production demand is
//! clamped by a *measured* scaling knee: [`measured_scaling_curve`]
//! replays the job's own trainer to target on the pool's `k` fastest
//! nodes (deterministic, same seed the job will run with) and
//! [`scaling_knee`] reads off the smallest `k` within diminishing returns
//! of the fastest completion. That is `cap` full trainings per admitted
//! job — about 2.5 ms of simulated steps for the eight-node pool, by far
//! the dearest thing the control plane does — so the replays are fanned
//! out over the host's cores, off the controller's thread and outside any
//! telemetry session it belongs to (about 1 ms on two cores). The
//! controller takes `min(profiled, knee)` — a job never asks past what
//! its gradient noise justifies *or* past where realized scaling stops
//! paying.

use cannikin_core::engine::{CannikinTrainer, LinearNoiseGrowth, TrainerConfig};
use cannikin_core::goodput::GoodputEngine;
use cannikin_core::optperf::{OptPerfSolver, SolverInput};
use hetsim::cluster::{ClusterSpec, NodeSpec};
use hetsim::job::JobSpec;
use hetsim::Simulator;

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// The goodput-optimal total batch √(φ·B₀), clamped into `[base, max]`.
pub fn optimal_batch(phi: f64, base: u64, max: u64) -> u64 {
    let b = (phi.max(0.0) * base as f64).sqrt().round() as u64;
    b.clamp(base, max.max(base))
}

/// GNS-driven desired node count: the goodput-optimal batch at one
/// reference batch `B₀` per node, clamped into the job's `[min, max]`
/// node range.
pub fn desired_nodes(phi: f64, base: u64, max_batch: u64, min_nodes: usize, max_nodes: usize) -> usize {
    let b_star = optimal_batch(phi, base, max_batch);
    let want = b_star.div_ceil(base.max(1)) as usize;
    want.clamp(min_nodes.max(1), max_nodes.max(min_nodes.max(1)))
}

/// Keep asking for nodes only while each one buys at least this much
/// predicted goodput relative to the best candidate. 5% stops jobs from
/// hoarding nodes for marginal gains another tenant could use outright.
pub const DIMINISHING_RETURNS: f64 = 0.95;

/// Predicted-goodput node demand: score every candidate node count
/// `k ∈ [min_nodes, cap]` by the goodput the job's own machinery (an
/// OptPerf solve per batch candidate, ranked by the goodput engine at
/// noise scale `phi`) predicts on the `k` fastest pool nodes, and return
/// the smallest `k` within [`DIMINISHING_RETURNS`] of the best score.
///
/// `ranked_pool` is the pool's live nodes, fastest first (see
/// `NodePool::ranked_live`) — a reference ranking, not the exact nodes
/// the job will receive; it keeps the demand signal independent of who
/// currently holds what, which keeps allocations stable. Candidates the
/// solver rejects outright score zero; if every candidate is rejected
/// the job asks for its minimum.
pub fn profiled_nodes(
    job: &JobSpec,
    config: &TrainerConfig,
    ranked_pool: &[NodeSpec],
    phi: f64,
    min_nodes: usize,
    cap: usize,
) -> usize {
    let cap = cap.min(ranked_pool.len()).max(1);
    let min_nodes = min_nodes.clamp(1, cap);
    let mut scores: Vec<(usize, f64)> = Vec::with_capacity(cap - min_nodes + 1);
    let mut best = 0.0f64;
    for k in min_nodes..=cap {
        let cluster = ClusterSpec::new("fleet-demand", ranked_pool[..k].to_vec());
        let mut solver = OptPerfSolver::new(SolverInput::from_ground_truth(&cluster, job));
        let mut engine = GoodputEngine::new(config.base_batch, config.base_batch, config.max_batch);
        let goodput = engine.select(&mut solver, phi).map_or(0.0, |sel| sel.goodput);
        best = best.max(goodput);
        scores.push((k, goodput));
    }
    if best <= 0.0 {
        return min_nodes;
    }
    scores
        .iter()
        .find(|(_, g)| *g >= DIMINISHING_RETURNS * best)
        .map_or(min_nodes, |&(k, _)| k)
}

/// Epoch cap for one scaling-curve replay; a job that cannot reach its
/// target inside this many epochs on some node count scores `∞` there.
const MEASURE_EPOCH_BUDGET: usize = 10_000;

/// Measured time-to-target for every node count `k ∈ [1, cap]`: replay
/// the job's own trainer (bootstrap profiling, GNS-driven batch growth,
/// re-planning — everything) on the `k` fastest pool nodes and record
/// the simulated seconds until `target_effective_epochs`. Entry `k - 1`
/// holds the time for `k` nodes; infeasible or non-converging counts
/// hold `f64::INFINITY`.
///
/// The replay is deterministic (the job's own seed) and runs entirely in
/// simulated time, so it is the fleet's profiling pass: what Cannikin's
/// adaptive profiler measures on hardware in a few epochs, the control
/// plane measures here in about a millisecond of host time per job.
///
/// The `cap` replays are independent, so they run on
/// `min(available_parallelism, cap)` scoped workers that claim node
/// counts from one shared counter, largest first (a replay's cost grows
/// with `k`); each entry lands at its own index, so the curve does not
/// depend on which worker ran what. The caller only joins: the workers
/// never enter its telemetry context, so a `Session` the caller belongs to
/// records nothing of the replays — they are profiling, not training that
/// happened.
pub fn measured_scaling_curve(
    job: &JobSpec,
    config: &TrainerConfig,
    noise: LinearNoiseGrowth,
    seed: u64,
    target_effective_epochs: f64,
    ranked_pool: &[NodeSpec],
    cap: usize,
) -> Vec<f64> {
    let cap = cap.min(ranked_pool.len()).max(1);
    let replay = |k: usize| {
        let cluster = ClusterSpec::new("fleet-profile", ranked_pool[..k].to_vec());
        let sim = Simulator::new(cluster, job.clone(), seed);
        CannikinTrainer::builder()
            .simulator(sim)
            .noise(noise)
            .config(config.clone())
            .build()
            .ok()
            .and_then(|mut trainer| {
                let mut elapsed = 0.0;
                for _ in 0..MEASURE_EPOCH_BUDGET {
                    elapsed += trainer.run_epoch().ok()?.epoch_time;
                    if trainer.effective_epochs() >= target_effective_epochs {
                        return Some(elapsed);
                    }
                }
                None
            })
            .unwrap_or(f64::INFINITY)
    };
    // Counts down from `cap`; a worker that finds it at zero is done.
    let unclaimed = AtomicUsize::new(cap);
    let worker = || {
        let mut measured = Vec::new();
        while let Ok(k) = unclaimed.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |k| k.checked_sub(1)) {
            measured.push((k, replay(k)));
        }
        measured
    };
    let workers = thread::available_parallelism().map_or(1, NonZeroUsize::get).min(cap);
    let mut times = vec![f64::INFINITY; cap];
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        for handle in handles {
            for (k, time) in handle.join().expect("a scaling-curve replay panicked") {
                times[k - 1] = time;
            }
        }
    });
    times
}

/// The knee of a measured scaling curve: the smallest node count whose
/// time-to-target is within [`DIMINISHING_RETURNS`] of the fastest
/// completion, clamped into `[min_nodes, cap]`. An all-infinite curve
/// (nothing converged) falls back to `min_nodes`.
pub fn scaling_knee(curve: &[f64], min_nodes: usize, cap: usize) -> usize {
    let curve = &curve[..curve.len().min(cap)];
    let best = curve.iter().copied().fold(f64::INFINITY, f64::min);
    if !best.is_finite() {
        return min_nodes;
    }
    let limit = best / DIMINISHING_RETURNS;
    curve
        .iter()
        .position(|&t| t <= limit)
        .map_or(min_nodes, |i| (i + 1).clamp(min_nodes, cap.max(min_nodes)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::catalog::Gpu;

    #[test]
    fn optimal_batch_grows_as_sqrt_of_noise() {
        let base = 64;
        assert_eq!(optimal_batch(64.0, base, 4096), 64, "φ = B₀ → B* = B₀");
        let b1 = optimal_batch(400.0, base, 4096);
        let b2 = optimal_batch(1600.0, base, 4096);
        assert!(b2 > b1, "demand grows with noise: {b1} vs {b2}");
        assert_eq!(b2, 320, "√(1600·64) = 320");
        assert_eq!(optimal_batch(1e12, base, 4096), 4096, "clamped to max");
    }

    #[test]
    fn desired_nodes_tracks_the_knee() {
        // φ = B₀: one node's worth of batch.
        assert_eq!(desired_nodes(64.0, 64, 4096, 1, 16), 1);
        // φ = 1600: B* = 320 → 5 nodes.
        assert_eq!(desired_nodes(1600.0, 64, 4096, 1, 16), 5);
        // Clamped by the job's node range.
        assert_eq!(desired_nodes(1600.0, 64, 4096, 1, 3), 3);
        assert_eq!(desired_nodes(64.0, 64, 4096, 2, 16), 2);
    }

    fn mixed_pool() -> Vec<NodeSpec> {
        let mut out = Vec::new();
        for (gpu, count) in [(Gpu::A100, 2), (Gpu::V100, 2), (Gpu::Rtx6000, 4)] {
            for i in 0..count {
                out.push(NodeSpec::new(format!("{gpu}-{i}"), gpu));
            }
        }
        out.sort_by(|a, b| b.effective_flops().total_cmp(&a.effective_flops()));
        out
    }

    #[test]
    fn profiled_demand_sees_the_communication_wall() {
        // NeuMF on a shrunk dataset is communication-bound: every extra
        // node costs more all-reduce time than it saves in compute, so
        // the profiler must ask for a single node — where the closed
        // form, blind to communication, would ask for two or more.
        let pool = mixed_pool();
        let config = TrainerConfig::new(6_400, 64, 512);
        let want = profiled_nodes(&JobSpec::neumf_movielens(), &config, &pool, 250.0, 1, 8);
        assert_eq!(want, 1, "comm-bound job demands one node");
        assert!(desired_nodes(250.0, 64, 512, 1, 8) >= 2, "the closed form over-asks here");
    }

    #[test]
    fn profiled_demand_scales_compute_bound_jobs() {
        // ResNet-50/ImageNet is compute-heavy per sample: parallelism
        // pays, and demand must grow with the gradient noise scale.
        let pool = mixed_pool();
        let config = TrainerConfig::new(12_800, 128, 1_024);
        let early = profiled_nodes(&JobSpec::resnet50_imagenet(), &config, &pool, 400.0, 1, 8);
        assert!(early >= 2, "compute-bound job wants real parallelism: {early}");
        let late = profiled_nodes(&JobSpec::resnet50_imagenet(), &config, &pool, 6_400.0, 1, 8);
        assert!(late >= early, "demand is monotone in φ here: {early} → {late}");
    }

    /// What `measured_scaling_curve` must return: the replays one after the
    /// other on the calling thread.
    fn sequential_curve(spec: &crate::FleetJobSpec, pool: &[NodeSpec], cap: usize) -> Vec<f64> {
        (1..=cap.min(pool.len()).max(1))
            .map(|k| {
                let sim = Simulator::new(ClusterSpec::new("fleet-profile", pool[..k].to_vec()), spec.job.clone(), spec.seed);
                let Ok(mut trainer) =
                    CannikinTrainer::builder().simulator(sim).noise(spec.noise).config(spec.config.clone()).build()
                else {
                    return f64::INFINITY;
                };
                let mut elapsed = 0.0;
                for _ in 0..MEASURE_EPOCH_BUDGET {
                    match trainer.run_epoch() {
                        Ok(record) => elapsed += record.epoch_time,
                        Err(_) => return f64::INFINITY,
                    }
                    if trainer.effective_epochs() >= spec.target_effective_epochs {
                        return elapsed;
                    }
                }
                f64::INFINITY
            })
            .collect()
    }

    #[test]
    fn scaling_curve_is_the_sequential_one_whatever_the_schedule() {
        let pool = mixed_pool();
        let mut templates = std::collections::BTreeSet::new();
        propcheck::check(24, |g| {
            let spec = crate::synthetic_trace(g.u64(0..1_000), 8, 30.0).swap_remove(g.usize(0..8));
            let cap = g.usize(1..9);
            templates.insert(spec.name.split('-').next().expect("template label").to_owned());
            let bits = |curve: Vec<f64>| curve.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            let expected = bits(sequential_curve(&spec, &pool, cap));
            assert_eq!(expected.len(), cap);
            for _ in 0..5 {
                let curve = measured_scaling_curve(
                    &spec.job,
                    &spec.config,
                    spec.noise,
                    spec.seed,
                    spec.target_effective_epochs,
                    &pool,
                    cap,
                );
                assert_eq!(bits(curve), expected, "{} at cap {cap}", spec.name);
            }
        });
        assert_eq!(templates.len(), 4, "every trace template was drawn: {templates:?}");
    }

    #[test]
    fn profiled_demand_respects_bounds() {
        let pool = mixed_pool();
        let config = TrainerConfig::new(6_400, 64, 512);
        let want = profiled_nodes(&JobSpec::neumf_movielens(), &config, &pool, 250.0, 3, 5);
        assert_eq!(want, 3, "floor binds even past the knee");
        let capped = profiled_nodes(&JobSpec::resnet50_imagenet(), &config, &pool[..2], 6_400.0, 1, 8);
        assert!(capped <= 2, "cap clamps to the ranked pool size");
    }
}
