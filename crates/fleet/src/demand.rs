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
//! a job wants ⌈B\*/B₀⌉ nodes, one reference batch per node.
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
//! clamped by a *predicted* scaling knee: [`DemandModel::scaling_curve`]
//! walks the job's own planner (the policy it trains with, through
//! `ask`/`tell`) epoch by epoch over the ground-truth laws of the pool's
//! `k` fastest nodes, prices each epoch at the plan's Eq. (7) time, and
//! records when the walk reaches the job's target; [`scaling_knee`] reads
//! off the smallest `k` within diminishing returns of the fastest
//! completion. The controller takes `min(profiled, knee)` — a job never
//! asks past what its gradient noise justifies *or* past where scaling
//! stops paying. No step is simulated: the target is crossed inside the
//! last epoch by interpolation, because whether a *replayed* last epoch
//! lands just past the target is the simulator's noise, not the pool's
//! scaling.
//!
//! What this costs, on a two-core AVX-512 host (`fleet-stream`'s drain and
//! a loop over one job on the eight-node pool):
//!
//! - A scaling curve is one planner walk per node count, a few dozen
//!   warm solves in all: about 0.2 ms for the eight-node pool, on the
//!   controller's thread. The knee is at least the job's floor and the
//!   profiled ask never falls below it, so the curve cannot bind while the
//!   ask is the floor; the model computes it the first time the ask rises
//!   above the floor, once per ranked pool.
//! - A cold [`profiled_nodes`] runs one goodput sweep per node count,
//!   about 12 solves each: 0.07–0.10 ms over eight counts. A warm
//!   [`DemandModel`] re-prices a moved φ at one solve per count, about
//!   11 µs over eight, and an unmoved φ at none.
//!
//! [`measured_scaling_curve`] replays the job's trainer per node count
//! instead, simulating every step; it is kept only as the prediction's
//! test reference and for the benchmark probe that times it.

use cannikin_core::engine::{CannikinTrainer, LinearNoiseGrowth, TrainerConfig, TrainingSubject};
use cannikin_core::gns::{epoch_progress, statistical_efficiency};
use cannikin_core::goodput::GoodputEngine;
use cannikin_core::optperf::{predict_batch_time, OptPerfSolver, SolverInput};
use cannikin_core::policy::{build_sim_policy, EpochObservation, PolicyContext, PolicyKind};
use hetsim::cluster::{ClusterSpec, NodeSpec};
use hetsim::job::JobSpec;
use hetsim::Simulator;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Keep asking for nodes only while each one buys at least this much
/// predicted goodput relative to the best candidate. 5% stops jobs from
/// hoarding nodes for marginal gains another tenant could use outright.
pub const DIMINISHING_RETURNS: f64 = 0.95;

/// Predicted-goodput node demand, cold: [`DemandModel::want`] on a model
/// built for this one call. See there for what is scored.
pub fn profiled_nodes(
    job: &JobSpec,
    config: &TrainerConfig,
    ranked_pool: &[NodeSpec],
    phi: f64,
    min_nodes: usize,
    cap: usize,
) -> usize {
    DemandModel::new(job, config, ranked_pool).want(phi, min_nodes, cap)
}

/// One job's demand pricing over one ranked live pool, kept warm across
/// noise scales.
///
/// For each node count `k` it holds an OptPerf solver over the pool's `k`
/// fastest nodes and a goodput engine over the job's batch range, built
/// the first time `k` is priced. The first price of `k` runs the engine's
/// full candidate sweep (`OptPerf_init`, §4.5); a later one at another φ
/// re-ranks the cached predictions and re-solves only the winner, and one
/// at the φ it last priced costs nothing. The models are the ground truth,
/// so the sweep never goes stale: a warm price is the cold one bit for bit.
///
/// It also predicts, at most once, the job's time to target per node count
/// ([`DemandModel::scaling_curve`]), on the same ranked pool.
#[derive(Debug, Clone)]
pub struct DemandModel {
    job: JobSpec,
    config: TrainerConfig,
    ranked_pool: Vec<NodeSpec>,
    /// Entry `k - 1` prices the `k` fastest nodes.
    priced: Vec<Option<Priced>>,
    /// Predicted time to target, entry `k - 1` for `k` nodes, once read.
    pub(crate) curve: Option<Vec<f64>>,
}

/// The warm state of one node count, and the last price it gave.
#[derive(Debug, Clone)]
struct Priced {
    solver: OptPerfSolver,
    engine: GoodputEngine,
    /// `(φ bits, goodput)` of the last price.
    last: Option<(u64, f64)>,
}

impl DemandModel {
    /// A model for `job` over `ranked_pool`, the pool's live nodes fastest
    /// first (see `NodePool::ranked_live`). Nothing is solved yet.
    pub fn new(job: &JobSpec, config: &TrainerConfig, ranked_pool: &[NodeSpec]) -> Self {
        DemandModel {
            job: job.clone(),
            config: config.clone(),
            ranked_pool: ranked_pool.to_vec(),
            priced: vec![None; ranked_pool.len()],
            curve: None,
        }
    }

    /// Score every candidate node count `k ∈ [min_nodes, cap]` by the
    /// goodput the job's own machinery (OptPerf solves ranked by the
    /// goodput engine at noise scale `phi`) predicts on the `k` fastest
    /// pool nodes, and return the smallest `k` within
    /// [`DIMINISHING_RETURNS`] of the best score.
    ///
    /// The ranking is a reference, not the exact nodes the job will
    /// receive; it keeps the demand signal independent of who currently
    /// holds what, which keeps allocations stable. Candidates the solver
    /// rejects outright score zero; if every candidate is rejected the job
    /// asks for its minimum.
    pub fn want(&mut self, phi: f64, min_nodes: usize, cap: usize) -> usize {
        let cap = cap.min(self.ranked_pool.len()).max(1);
        let min_nodes = min_nodes.clamp(1, cap);
        let mut scores: Vec<(usize, f64)> = Vec::with_capacity(cap - min_nodes + 1);
        let mut best = 0.0f64;
        for k in min_nodes..=cap {
            let goodput = self.goodput(k, phi);
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

    /// Predicted goodput on the `k` fastest nodes at noise scale `phi`.
    fn goodput(&mut self, k: usize, phi: f64) -> f64 {
        let DemandModel { job, config, ranked_pool, priced, .. } = self;
        let priced = priced[k - 1].get_or_insert_with(|| {
            let cluster = ClusterSpec::new("fleet-demand", ranked_pool[..k].to_vec());
            Priced {
                solver: OptPerfSolver::new(SolverInput::from_ground_truth(&cluster, job)),
                engine: GoodputEngine::new(config.base_batch, config.base_batch, config.max_batch),
                last: None,
            }
        });
        match priced.last {
            Some((bits, goodput)) if bits == phi.to_bits() => goodput,
            _ => {
                let goodput = priced.engine.select(&mut priced.solver, phi).map_or(0.0, |sel| sel.goodput);
                priced.last = Some((phi.to_bits(), goodput));
                goodput
            }
        }
    }

    /// Predicted time to `target` effective epochs for every node count
    /// `k ∈ [1, cap]` on the pool's `k` fastest nodes, for a job that plans
    /// with `policy` under the noise growth `noise`. Entry `k - 1` holds
    /// `k` nodes; a count the job cannot run on (`B₀ < k`), or on which it
    /// does not get there within 10,000 epochs, holds `∞`.
    ///
    /// The curve is computed the first time it is asked for and kept: the
    /// controller asks with the same job and node cap every time, and
    /// builds a new model when the ranked pool changes.
    ///
    /// Each `k` walks the job's own planner, built by `build_sim_policy`
    /// and driven through `ask`/`tell` exactly as the epoch loop drives it,
    /// so its bootstrap and goodput choice are the ones the job will run:
    ///
    /// - the plan is asked at the φ the job's progress has reached, with
    ///   the ground-truth laws as its models once every node has run two
    ///   distinct local sizes (the analyzer's own readiness rule), and the
    ///   per-sample times those laws give the previous split;
    /// - an epoch is `|D| / B` steps of the plan's Eq. (7) time
    ///   (`predict_batch_time`), and gains `epoch_progress` at the plan's
    ///   statistical efficiency;
    /// - the target is crossed inside the last epoch, pro rata to its gain.
    pub fn scaling_curve(&mut self, policy: PolicyKind, noise: LinearNoiseGrowth, target: f64, cap: usize) -> &[f64] {
        let DemandModel { job, config, ranked_pool, curve, .. } = self;
        curve.get_or_insert_with(|| {
            let cap = cap.min(ranked_pool.len()).max(1);
            (1..=cap).map(|k| predicted_time_to_target(job, config, policy, noise, target, &ranked_pool[..k])).collect()
        })
    }
}

/// One [`DemandModel::scaling_curve`] entry: the planner's walk to `target`
/// on `nodes`.
fn predicted_time_to_target(
    job: &JobSpec,
    config: &TrainerConfig,
    policy: PolicyKind,
    noise: LinearNoiseGrowth,
    target: f64,
    nodes: &[NodeSpec],
) -> f64 {
    let k = nodes.len();
    if config.base_batch < k as u64 {
        return f64::INFINITY; // no split gives every node a sample
    }
    let laws = SolverInput::from_ground_truth(&ClusterSpec::new("fleet-predict", nodes.to_vec()), job);
    let mut planner = build_sim_policy(policy, config.base_batch, k, config.max_batch);
    // Each node's first local size, and whether it has run another since.
    let mut first_split = Vec::new();
    let mut fitted = vec![false; k];
    let mut last_split = Vec::new();
    let mut per_sample_times = vec![1.0; k];
    let (mut progress, mut elapsed) = (0.0, 0.0);
    for epoch in 0..EPOCH_BUDGET {
        let phi = noise.noise_scale(progress);
        let ctx = PolicyContext {
            epoch,
            nodes: k,
            adaptive: config.adaptive_batch,
            base_batch: config.base_batch,
            max_batch: config.max_batch,
            dataset_size: config.dataset_size,
            phi: Some(phi),
            last_split: last_split.clone(),
            solver_input: fitted.iter().all(|&f| f).then(|| laws.clone()),
            per_sample_times: per_sample_times.clone(),
        };
        let Ok(plan) = planner.ask(&ctx) else {
            return f64::INFINITY;
        };
        let steps = (config.dataset_size / plan.total as usize).max(1);
        let step_time = predict_batch_time(&laws, &plan.local);
        let epoch_time = steps as f64 * step_time;
        let efficiency = statistical_efficiency(phi, config.base_batch, plan.total);
        let gain = epoch_progress(steps, plan.total, efficiency, config.dataset_size);
        if progress + gain >= target {
            // Pro rata inside the epoch that crosses the target.
            return elapsed + epoch_time * (target - progress) / gain;
        }
        if epoch == 0 {
            first_split.clone_from(&plan.local);
        }
        for (i, &b) in plan.local.iter().enumerate() {
            fitted[i] |= b != first_split[i];
            per_sample_times[i] = laws.nodes[i].compute(b as f64) / b as f64;
        }
        planner.tell(&EpochObservation {
            epoch,
            total: plan.total,
            local: plan.local.clone(),
            epoch_time,
            mean_batch_time: step_time,
            efficiency,
            goodput: gain / epoch_time,
            phi: Some(phi),
            per_sample_times: per_sample_times.clone(),
        });
        progress += gain;
        elapsed += epoch_time;
        last_split = plan.local;
    }
    f64::INFINITY
}

/// Epoch cap for one scaling-curve walk or replay; a job that cannot reach
/// its target inside this many epochs on some node count scores `∞` there.
const EPOCH_BUDGET: usize = 10_000;

/// Measured time-to-target for every node count `k ∈ [1, cap]`: replay
/// the job's own trainer (bootstrap profiling, GNS-driven batch growth,
/// re-planning — everything) on the `k` fastest pool nodes and record
/// the simulated seconds until `target_effective_epochs`. Entry `k - 1`
/// holds the time for `k` nodes; infeasible or non-converging counts
/// hold `f64::INFINITY`.
///
/// The replay is deterministic (the job's own seed) and runs entirely in
/// simulated time, but it simulates every step of every epoch, about 2 ms
/// of host time per curve on the eight-node pool. The controller reads
/// [`DemandModel::scaling_curve`] instead, about a tenth of that; this
/// stays as that prediction's test reference and for the benchmark probe
/// that times it. It always replays the OptPerf planner.
///
/// The `cap` replays are independent, so they run on
/// `min(hetsim::cores(), cap)` scoped workers that claim node
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
                trainer.train_until(target_effective_epochs, EPOCH_BUDGET).ok()?;
                (trainer.progress() >= target_effective_epochs).then(|| trainer.cumulative_time())
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
    let workers = hetsim::cores().min(cap);
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

    /// The closed form's goodput-optimal total batch √(φ·B₀), clamped into
    /// `[base, max]`.
    fn optimal_batch(phi: f64, base: u64, max: u64) -> u64 {
        let b = (phi.max(0.0) * base as f64).sqrt().round() as u64;
        b.clamp(base, max.max(base))
    }

    /// The closed form's node demand: the goodput-optimal batch at one
    /// reference batch `B₀` per node, clamped into `[min, max]` nodes.
    fn desired_nodes(phi: f64, base: u64, max_batch: u64, min_nodes: usize, max_nodes: usize) -> usize {
        let b_star = optimal_batch(phi, base, max_batch);
        let want = b_star.div_ceil(base.max(1)) as usize;
        want.clamp(min_nodes.max(1), max_nodes.max(min_nodes.max(1)))
    }

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

    #[test]
    fn warm_pricing_is_the_cold_one_bit_for_bit() {
        let pool = mixed_pool();
        let mut templates = std::collections::BTreeSet::new();
        propcheck::check(32, |g| {
            let spec = crate::synthetic_trace(g.u64(0..1_000), 8, 30.0).swap_remove(g.usize(0..8));
            templates.insert(spec.name.split('-').next().expect("template label").to_owned());
            let ranked = &pool[..g.usize(1..9)];
            let mut warm = DemandModel::new(&spec.job, &spec.config, ranked);
            // φ drifts up as training progresses, stands still while the
            // job waits, and jumps either way (a requeued job) in between.
            let mut phi = spec.noise.initial;
            for step in 0..10 {
                phi = match g.usize(0..3) {
                    0 => g.f64(10.0..50_000.0),
                    1 => phi * g.f64(1.0..1.5),
                    _ => phi,
                };
                let cap = g.usize(1..10);
                let min_nodes = g.usize(1..cap + 1);
                for k in min_nodes..=cap.min(ranked.len()) {
                    let cold = DemandModel::new(&spec.job, &spec.config, ranked).goodput(k, phi);
                    assert_eq!(warm.goodput(k, phi).to_bits(), cold.to_bits(), "{} step {step}, k {k}, φ {phi}", spec.name);
                }
                let cold = profiled_nodes(&spec.job, &spec.config, ranked, phi, min_nodes, cap);
                assert_eq!(warm.want(phi, min_nodes, cap), cold, "{} step {step}, φ {phi}", spec.name);
            }
        });
        assert_eq!(templates.len(), 4, "every trace template was drawn: {templates:?}");
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
                for _ in 0..EPOCH_BUDGET {
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

    /// Eq. (7) for one node, written out: its compute plus the last
    /// bucket, or its sync start plus all of the communication.
    fn one_node_batch_time(laws: &SolverInput, b: u64) -> f64 {
        let law = laws.nodes[0];
        (law.compute(b as f64) + laws.t_u).max(law.sync_start(b as f64, laws.gamma) + laws.t_comm())
    }

    #[test]
    fn a_one_node_curve_is_its_bootstrap_by_hand() {
        let pool = mixed_pool();
        let (job, config) = (JobSpec::resnet18_cifar10(), TrainerConfig::new(6_400, 64, 512));
        let noise = LinearNoiseGrowth { initial: 300.0, rate: 1.0 };
        let laws = SolverInput::from_ground_truth(&ClusterSpec::new("one", pool[..1].to_vec()), &job);
        // Epoch 0 runs B₀ = 64 for 100 steps at η = 1: one effective epoch.
        let epoch0 = 100.0 * one_node_batch_time(&laws, 64);
        // Epoch 1 runs 1.5·B₀ = 96 for ⌊6400/96⌋ = 66 steps at φ = 300·(1 + 1):
        // η = (64 + 600)/(96 + 600).
        let epoch1 = 66.0 * one_node_batch_time(&laws, 96);
        let gain1 = 66.0 * 96.0 * (664.0 / 696.0) / 6_400.0;
        let curve = |target: f64| DemandModel::new(&job, &config, &pool[..1]).scaling_curve(PolicyKind::OptPerf, noise, target, 8).to_vec();
        let close = |got: f64, want: f64| (got - want).abs() <= 1e-12 * want;
        for (target, want) in [(0.5, 0.5 * epoch0), (1.0, epoch0), (1.5, epoch0 + epoch1 * 0.5 / gain1)] {
            let got = curve(target);
            assert_eq!(got.len(), 1, "a one-node pool has one count");
            assert!(close(got[0], want), "target {target}: {} vs {want}", got[0]);
        }
    }

    #[test]
    fn a_node_count_past_the_base_batch_reads_infinity() {
        let pool = mixed_pool();
        let config = TrainerConfig::new(6_400, 2, 512);
        let noise = LinearNoiseGrowth { initial: 300.0, rate: 1.0 };
        let curve = DemandModel::new(&JobSpec::resnet18_cifar10(), &config, &pool[..4])
            .scaling_curve(PolicyKind::OptPerf, noise, 3.0, 8)
            .to_vec();
        assert_eq!(curve.len(), 4, "capped by the pool");
        assert!(curve[..2].iter().all(|t| t.is_finite()), "B₀ = 2 covers two nodes: {curve:?}");
        assert!(curve[2..].iter().all(|&t| t == f64::INFINITY), "no split of 2 covers more: {curve:?}");
        assert_eq!(scaling_knee(&curve, 1, 4), scaling_knee(&curve[..2], 1, 2), "the knee ignores them");
    }

    /// How much longer the replayed training takes at the predicted knee
    /// than at its own, where the two differ. Only ImageNet's differ over
    /// traces 0–199 (980 of its 2,416 job/floor pairs, 1.07× median, 1.104×
    /// at most): its replayed curve is flat past two nodes, and whether a
    /// replay's last epoch lands just past the target is the simulator's
    /// noise.
    const KNEE_MISMATCH_BOUND: f64 = 1.12;

    #[test]
    fn predicted_knees_are_the_replayed_ones_or_cost_little() {
        let pool = mixed_pool();
        let mut templates = std::collections::BTreeSet::new();
        propcheck::check(24, |g| {
            let spec = crate::synthetic_trace(g.u64(0..1_000), 8, 30.0).swap_remove(g.usize(0..8));
            let template = spec.name.split('-').next().expect("template label").to_owned();
            let predicted = DemandModel::new(&spec.job, &spec.config, &pool)
                .scaling_curve(spec.policy, spec.noise, spec.target_effective_epochs, 8)
                .to_vec();
            let replayed = measured_scaling_curve(
                &spec.job,
                &spec.config,
                spec.noise,
                spec.seed,
                spec.target_effective_epochs,
                &pool,
                8,
            );
            for floor in 1..=8 {
                let (p, r) = (scaling_knee(&predicted, floor, 8), scaling_knee(&replayed, floor, 8));
                if template == "imagenet" {
                    let cost = replayed[p - 1] / replayed[r - 1];
                    assert!(cost <= KNEE_MISMATCH_BOUND, "{} floor {floor}: knee {p} costs {cost}× knee {r}", spec.name);
                } else {
                    assert_eq!(p, r, "{} floor {floor}: {predicted:?} vs {replayed:?}", spec.name);
                }
            }
            templates.insert(template);
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
