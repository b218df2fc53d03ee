//! Uniform runners for the five systems under evaluation.

use cannikin_baselines::{adaptdl, lbbsp, DdpTrainer, HetPipeTrainer};
use cannikin_core::engine::{CannikinTrainer, EpochRecord, LinearNoiseGrowth, NoiseModel, TrainerConfig};
use cannikin_workloads::WorkloadProfile;
use hetsim::cluster::ClusterSpec;
use hetsim::Simulator;

/// The systems compared throughout §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// This paper's system.
    Cannikin,
    /// AdaptDL/Pollux (adaptive batch, even split).
    Adaptdl,
    /// PyTorch DistributedDataParallel (fixed batch, even split).
    Ddp,
    /// LB-BSP (fixed batch, iterative split tuning, Δ = 5).
    LbBsp,
    /// HetPipe (pipelined model parallelism, fixed batch).
    HetPipe,
}

impl System {
    /// All systems in figure order.
    pub fn all() -> [System; 5] {
        [System::Ddp, System::Adaptdl, System::LbBsp, System::HetPipe, System::Cannikin]
    }

    /// Display name used in figure output.
    pub fn label(&self) -> &'static str {
        match self {
            System::Cannikin => "Cannikin",
            System::Adaptdl => "AdaptDL",
            System::Ddp => "PyTorch-DDP",
            System::LbBsp => "LB-BSP",
            System::HetPipe => "HetPipe",
        }
    }
}

fn noise_box(profile: &WorkloadProfile) -> Box<dyn NoiseModel> {
    Box::new(LinearNoiseGrowth { initial: profile.noise.initial, rate: profile.noise.rate })
}

/// Run `system` on `profile` over `cluster` until the Table 5 target (or
/// `max_epochs`), returning the per-epoch records.
pub fn run_to_target(
    system: System,
    profile: &WorkloadProfile,
    cluster: &ClusterSpec,
    seed: u64,
    max_epochs: usize,
) -> Vec<EpochRecord> {
    let target = profile.target_effective_epochs();
    let sim = Simulator::new(cluster.clone(), profile.job.clone(), seed);
    // Table 5's B₀ can be smaller than the node count (BERT: 9, DeepSpeech2:
    // 12, cluster B: 16 GPUs); data parallelism needs at least one sample
    // per node, and learning a per-node linear model needs at least two
    // distinct local batch sizes, so the effective reference batch is
    // max(B₀, 2n) — the same floor the paper's systems face on 16 GPUs.
    let base = profile.base_batch.max(2 * cluster.len() as u64);
    match system {
        System::Cannikin => {
            let config = TrainerConfig::new(profile.dataset_size, base, profile.max_batch);
            let mut t = CannikinTrainer::builder()
                .simulator(sim)
                .noise_boxed(noise_box(profile))
                .config(config)
                .build()
                .expect("valid config");
            t.train_until(target, max_epochs).expect("cannikin run failed")
        }
        System::Adaptdl => {
            let mut t = adaptdl(sim, noise_box(profile), profile.dataset_size, base, profile.max_batch)
                .expect("valid config");
            t.train_until(target, max_epochs).expect("adaptdl run failed")
        }
        System::Ddp => {
            let mut t = DdpTrainer::new(sim, noise_box(profile), profile.dataset_size, base, base);
            t.train_until(target, max_epochs)
        }
        System::LbBsp => {
            let mut t = lbbsp(sim, noise_box(profile), profile.dataset_size, base).expect("valid config");
            t.train_until(target, max_epochs).expect("lbbsp run failed")
        }
        System::HetPipe => {
            let mut t = HetPipeTrainer::new(sim, noise_box(profile), profile.dataset_size, base, base);
            t.train_until(target, max_epochs)
        }
    }
}

/// A noise-free simulator for oracle evaluations.
pub fn noiseless_sim(cluster: &ClusterSpec, job: &hetsim::job::JobSpec) -> Simulator {
    Simulator::new(cluster.clone(), job.clone(), 0).with_noise(0.0, 0.0)
}

/// Wall-clock convergence time of a finished run (time of the record that
/// crossed the target), or `None` if the run hit its epoch cap first.
pub fn convergence_time(records: &[EpochRecord], profile: &WorkloadProfile) -> Option<f64> {
    let target = profile.target_effective_epochs();
    records.iter().find(|r| r.effective_epochs >= target).map(|r| r.cumulative_time)
}

/// The (time, metric) trajectory of a run under the profile's calibrated
/// metric curve — the raw series behind Figs. 6(c) and 7.
pub fn metric_trajectory(records: &[EpochRecord], profile: &WorkloadProfile) -> Vec<(f64, f64)> {
    records
        .iter()
        .map(|r| (r.cumulative_time, profile.metric_at(r.effective_epochs)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cannikin_workloads::{clusters, profiles};

    #[test]
    fn all_systems_run_cifar_on_cluster_b() {
        let profile = profiles::cifar10_resnet18();
        let cluster = clusters::cluster_b();
        for system in System::all() {
            let records = run_to_target(system, &profile, &cluster, 1, 4000);
            assert!(!records.is_empty(), "{}", system.label());
            let t = convergence_time(&records, &profile);
            assert!(t.is_some(), "{} did not converge", system.label());
        }
    }

    #[test]
    fn cannikin_converges_fastest_on_cifar() {
        // The headline comparison behind Figs. 7–8.
        let profile = profiles::cifar10_resnet18();
        let cluster = clusters::cluster_b();
        let mut times = std::collections::HashMap::new();
        for system in System::all() {
            let records = run_to_target(system, &profile, &cluster, 2, 4000);
            times.insert(system, convergence_time(&records, &profile).expect("converged"));
        }
        let cannikin = times[&System::Cannikin];
        for (system, t) in &times {
            assert!(cannikin <= *t * 1.001, "{} beat Cannikin: {t} vs {cannikin}", system.label());
        }
        // And the adaptive-batch gap over DDP must be large (paper: up to 85%).
        assert!(cannikin < times[&System::Ddp] * 0.6, "cannikin {cannikin} vs ddp {}", times[&System::Ddp]);
    }

    #[test]
    fn trajectory_is_monotone() {
        let profile = profiles::cifar10_resnet18();
        let cluster = clusters::cluster_b();
        let records = run_to_target(System::Cannikin, &profile, &cluster, 3, 4000);
        let traj = metric_trajectory(&records, &profile);
        for pair in traj.windows(2) {
            assert!(pair[1].0 > pair[0].0);
            assert!(pair[1].1 >= pair[0].1);
        }
    }
}
