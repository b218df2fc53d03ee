//! Ablations beyond the paper's figures: what each design choice buys.

use crate::runners::noiseless_sim;
use crate::{fmt, row};
use cannikin_core::engine::{CannikinTrainer, TrainerConfig};
use cannikin_core::optperf::{bootstrap_split, even_split, OptPerfSolver, SolverInput};
use cannikin_workloads::{clusters, profiles};
use hetsim::catalog::Gpu;
use hetsim::cluster::{NetworkSpec, NodeSpec};
use hetsim::Simulator;

/// Ablation: the compute/communication-overlap model (§3.2.3).
///
/// Compares three split policies on cluster B across batch sizes and
/// network speeds: the full OptPerf split, an *overlap-blind* split that
/// only equalizes total compute time (what LB-BSP converges to), and the
/// even split. The overlap model matters exactly in the mixed/
/// communication-bound regime, and more on slower networks.
pub fn ablation_overlap() -> String {
    let mut out = String::from("Ablation — overlap-aware vs overlap-blind splits (ResNet-50, cluster B)\n");
    let widths = [10, 9, 14, 14, 10];
    out += &row(
        &["network".into(), "B".into(), "blind/opt".into(), "even/opt".into(), "pattern".into()],
        &widths,
    );
    out.push('\n');
    for (label, network) in [("10GbE", NetworkSpec::ten_gbe()), ("25GbE", NetworkSpec::twenty_five_gbe())] {
        let profile = profiles::imagenet_resnet50();
        let cluster = clusters::cluster_b().with_network(network);
        let sim = Simulator::new(cluster.clone(), profile.job.clone(), 0).with_noise(0.0, 0.0);
        let mut solver = OptPerfSolver::new(SolverInput::from_ground_truth(&cluster, &profile.job));
        for total in [128u64, 512, 768, 1024, 1280, 1536, 2048, 8000] {
            let Ok(plan) = solver.solve(total) else { continue };
            let opt = sim.ideal_batch_time(&plan.local_batches);
            let blind = sim.ideal_batch_time(&equal_compute_split(&sim, total));
            let even = sim.ideal_batch_time(&even_split(total, cluster.len()));
            let computes = plan.pattern.iter().filter(|p| format!("{p:?}") == "Compute").count();
            out += &row(
                &[
                    label.into(),
                    total.to_string(),
                    fmt(blind / opt),
                    fmt(even / opt),
                    format!("{computes}/16 comp"),
                ],
                &widths,
            );
            out.push('\n');
        }
    }
    out += "\n(blind/opt > 1 only in mixed/communication-bound regimes — the overlap\n model's contribution, peaking near the bottleneck transition; at large B\n both policies coincide, as §5.2.2 notes. In this substrate the penalty is\n small in absolute terms because T_comm dominates exactly where the splits\n differ — see EXPERIMENTS.md deviation note 2.)\n";
    out
}

/// The overlap-blind fixed point: equalize per-sample *total compute* only.
fn equal_compute_split(sim: &Simulator, total: u64) -> Vec<u64> {
    let n = sim.cluster().len();
    let mut split = even_split(total, n);
    for _ in 0..12 {
        let t: Vec<f64> = (0..n)
            .map(|i| {
                let c = sim.true_coefficients(i);
                c.compute(split[i].max(1) as f64) / split[i].max(1) as f64
            })
            .collect();
        split = bootstrap_split(&t, total);
    }
    split
}

/// Ablation: warm-started overlap-state search (§4.5).
///
/// Counts linear-system solves for a full 30-candidate sweep with the
/// warm-start chain versus solving every candidate cold.
pub fn ablation_warm_start() -> String {
    let profile = profiles::imagenet_resnet50();
    let cluster = clusters::cluster_b();
    let input = SolverInput::from_ground_truth(&cluster, &profile.job);
    let candidates: Vec<u64> = (0..30).map(|i| 128 + i * 256).collect();

    let mut warm = OptPerfSolver::new(input.clone());
    let warm_solves: usize = candidates.iter().map(|&b| warm.solve(b).expect("feasible").solves).sum();
    let cold_solves: usize = candidates
        .iter()
        .map(|&b| OptPerfSolver::new(input.clone()).solve(b).expect("feasible").solves)
        .sum();

    let mut out = String::from("Ablation — warm-started boundary search (30-candidate sweep, 16 nodes)\n");
    out += &format!("  warm-start chain: {warm_solves} linear solves\n");
    out += &format!("  cold per candidate: {cold_solves} linear solves\n");
    out += &format!("  reduction: {:.0}%\n", (1.0 - warm_solves as f64 / cold_solves as f64) * 100.0);
    out
}

/// Elastic scheduling (§6): the scheduler grants two A100s to a running
/// 2-node job; Cannikin re-profiles and recovers within a few epochs.
pub fn elastic() -> String {
    let profile = profiles::imagenet_resnet50();
    let cluster = hetsim::cluster::ClusterSpec::new(
        "elastic",
        vec![NodeSpec::new("v100-0", Gpu::V100), NodeSpec::new("rtx-0", Gpu::Rtx6000).with_cpu_factor(0.7)],
    );
    let sim = Simulator::new(cluster, profile.job.clone(), 17);
    let mut config = TrainerConfig::new(12_800, 128, 128);
    config.adaptive_batch = false;
    let mut trainer = CannikinTrainer::builder()
        .simulator(sim)
        .noise_boxed(Box::new(profile.noise))
        .config(config)
        .build()
        .expect("valid config");

    let mut out = String::from("§6 — elastic cluster membership (fixed B=128, ImageNet)\n");
    let widths = [6, 7, 16, 24];
    out += &row(&["epoch".into(), "nodes".into(), "batch time (s)".into(), "split".into()], &widths);
    out.push('\n');
    for epoch in 0..12 {
        if epoch == 6 {
            trainer.simulator_mut().add_node(NodeSpec::new("a100-0", Gpu::A100).with_cpu_factor(1.5));
            trainer.simulator_mut().add_node(NodeSpec::new("a100-1", Gpu::A100).with_cpu_factor(1.5));
            trainer.on_cluster_change();
            out += "--- scheduler grants 2x A100 ---\n";
        }
        let r = trainer.run_epoch().expect("epoch");
        out += &row(
            &[
                r.epoch.to_string(),
                r.local_batches.len().to_string(),
                fmt(r.mean_batch_time),
                format!("{:?}", r.local_batches),
            ],
            &widths,
        );
        out.push('\n');
    }
    // Oracle on the final 4-node cluster.
    let final_cluster = trainer.simulator_mut().cluster().clone();
    let mut oracle = OptPerfSolver::new(SolverInput::from_ground_truth(&final_cluster, &profile.job));
    let oracle_time = noiseless_sim(&final_cluster, &profile.job)
        .ideal_batch_time(&oracle.solve(128).expect("feasible").local_batches);
    out += &format!("post-grant OptPerf (oracle): {}s\n", fmt(oracle_time));
    out
}

/// Extension: gradient accumulation beyond GPU memory. On a memory-capped
/// cluster the goodput engine escalates to no-sync micro-batches once the
/// gradient noise scale justifies batches the GPUs cannot hold at once.
pub fn accumulation() -> String {
    let cluster = hetsim::cluster::ClusterSpec::new(
        "tight",
        vec![
            NodeSpec::new("a100", Gpu::A100),
            NodeSpec::new("v100", Gpu::V100),
            NodeSpec::new("rtx", Gpu::Rtx6000),
        ],
    );
    let profile = profiles::imagenet_resnet50();
    let mut input = SolverInput::from_ground_truth(&cluster, &profile.job);
    for node in input.nodes.iter_mut() {
        node.max_batch = Some(100); // pretend each GPU fits only 100 samples
    }
    let mut solver = OptPerfSolver::new(input);
    let mut engine = cannikin_core::goodput::GoodputEngine::new(64, 64, 2048).with_accumulation(8);

    let mut out = String::from("Extension — gradient accumulation beyond memory (caps: 100/GPU, range to 2048)
");
    let widths = [12, 12, 8, 14, 16];
    out += &row(
        &["phi".into(), "B(effective)".into(), "accum".into(), "micro split".into(), "step time (s)".into()],
        &widths,
    );
    out.push('\n');
    for phi in [100.0f64, 1_000.0, 10_000.0, 100_000.0] {
        let sel = engine.select(&mut solver, phi).expect("feasible");
        let span = sel.plan.opt_perf
            + (sel.accumulation - 1) as f64
                * cannikin_core::optperf::compute_span(solver.input(), &sel.plan.local_batches);
        out += &row(
            &[
                format!("{phi:.0}"),
                sel.total.to_string(),
                sel.accumulation.to_string(),
                format!("{:?}", sel.plan.local_batches),
                fmt(span),
            ],
            &widths,
        );
        out.push('\n');
    }
    out += "
(the adaptive range extends past the 300-sample memory wall once phi makes
 large batches statistically worthwhile)
";
    out
}

/// Extension: multi-job scheduling over a shared heterogeneous pool
/// (§6's "adapt to schedulers" discussion), now on the `cannikin-fleet`
/// control plane. A short CIFAR job and a long production ImageNet job
/// share an 8-GPU pool; the fleet allocator re-divides the pool at every
/// epoch boundary as GNS-driven demands shift, so the short job's exit
/// flows straight into the survivor. The same trace under a static
/// partition shows what adaptive reallocation buys.
pub fn multi_job() -> String {
    use cannikin_core::engine::TrainerConfig;
    use cannikin_fleet::{AllocPolicy, FleetController, FleetJobSpec, Priority};
    use hetsim::job::JobSpec;

    let pool = || -> Vec<NodeSpec> {
        let mut out = Vec::new();
        for (gpu, count) in [(Gpu::A100, 2), (Gpu::V100, 2), (Gpu::Rtx6000, 4)] {
            for i in 0..count {
                out.push(NodeSpec::new(format!("{gpu}-{i}"), gpu));
            }
        }
        out
    };
    let trace = || {
        vec![
            FleetJobSpec::new("cifar (short)", JobSpec::resnet18_cifar10(), TrainerConfig::new(6_400, 64, 512), 3.0)
                .noise(400.0, 0.5)
                .seed(1),
            FleetJobSpec::new(
                "imagenet (long)",
                JobSpec::resnet50_imagenet(),
                TrainerConfig::new(12_800, 128, 1_024),
                5.0,
            )
            .priority(Priority::Production)
            .noise(400.0, 0.8)
            .seed(2),
        ]
    };

    let run = |policy: AllocPolicy| {
        FleetController::new(pool(), trace(), policy)
            .expect("valid fleet")
            .run_to_completion(10_000)
            .expect("stream drains")
    };
    let adaptive = run(AllocPolicy::Cannikin);
    let fixed = run(AllocPolicy::Static);

    let mut out = String::from("§6 — multi-tenant fleet over a shared heterogeneous pool\n");
    let widths = [10, 18, 16, 8, 13];
    out += &row(
        &["policy".into(), "job".into(), "completion (s)".into(), "epochs".into(), "preemptions".into()],
        &widths,
    );
    out.push('\n');
    for (policy, report) in [("cannikin", &adaptive), ("static", &fixed)] {
        for j in &report.jobs {
            out += &row(
                &[
                    policy.into(),
                    j.name.clone(),
                    fmt(j.finished_at),
                    j.epochs_run.to_string(),
                    j.preemptions.to_string(),
                ],
                &widths,
            );
            out.push('\n');
        }
    }
    out += &format!(
        "\nadaptive reallocation: makespan {} vs static {} ({:.0}% faster), aggregate\ngoodput {:.0} vs {:.0} samples/s\n",
        fmt(adaptive.makespan),
        fmt(fixed.makespan),
        (1.0 - adaptive.makespan / fixed.makespan) * 100.0,
        adaptive.aggregate_goodput,
        fixed.aggregate_goodput,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_blind_never_beats_optperf() {
        let profile = profiles::imagenet_resnet50();
        let cluster = clusters::cluster_b().with_network(NetworkSpec::ten_gbe());
        let sim = Simulator::new(cluster.clone(), profile.job.clone(), 0).with_noise(0.0, 0.0);
        let mut solver = OptPerfSolver::new(SolverInput::from_ground_truth(&cluster, &profile.job));
        let mut saw_gap = false;
        for total in [128u64, 256, 512, 768, 1024, 1280, 1536, 2048] {
            let plan = solver.solve(total).expect("feasible");
            let opt = sim.ideal_batch_time(&plan.local_batches);
            let blind = sim.ideal_batch_time(&equal_compute_split(&sim, total));
            assert!(blind >= opt * 0.999, "B={total}: blind {blind} vs opt {opt}");
            if blind > opt * 1.005 {
                saw_gap = true;
            }
        }
        assert!(saw_gap, "the overlap model should matter somewhere in the sweep");
    }

    #[test]
    fn warm_start_saves_solves() {
        let text = ablation_warm_start();
        let reduction: f64 = text
            .lines()
            .find(|l| l.contains("reduction"))
            .and_then(|l| l.split(&[' ', '%'][..]).filter_map(|t| t.parse().ok()).next())
            .expect("reduction line");
        assert!(reduction > 20.0, "warm start should cut solves: {text}");
    }
}
