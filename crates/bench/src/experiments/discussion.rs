//! The §6 discussion experiments: heterogeneity-degree sweep and the
//! sharing-induced-heterogeneity cluster C.

use crate::runners::run_to_target;
use crate::{fmt, row};
use cannikin_baselines::{time_to_target, System};
use cannikin_core::optperf::{even_split, predict_batch_time, NodePerf, OptPerfSolver, SolverInput};
use cannikin_workloads::{clusters, profiles};
use hetsim::Simulator;

/// §6 "impact of varying heterogeneity degree": two workers, one `N`
/// times faster than the other, pure compute. The optimal split's batch
/// time relative to the even split approaches the theoretical bound
/// `2/(N+1)` as communication vanishes.
pub fn hetero_sweep() -> String {
    let mut out = String::from("§6 — two-worker heterogeneity sweep (compute-only)\n");
    let widths = [8, 14, 14, 14];
    out += &row(&["N".into(), "opt/even".into(), "bound 2/(N+1)".into(), "gap".into()], &widths);
    out.push('\n');
    for &ratio in &[1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0] {
        let (measured, bound) = sweep_point(ratio);
        out += &row(
            &[format!("{ratio:.1}"), fmt(measured), fmt(bound), fmt(measured - bound)],
            &widths,
        );
        out.push('\n');
    }
    out
}

/// One point of the sweep: `(opt/even time ratio, 2/(N+1))`.
pub fn sweep_point(speed_ratio: f64) -> (f64, f64) {
    // Two synthetic nodes: per-sample times 1 and `speed_ratio`
    // milliseconds, negligible fixed terms and communication.
    let node = |per_sample: f64| NodePerf {
        q: per_sample * 1e-3 / 3.0,
        s: 1e-7,
        k: per_sample * 2e-3 / 3.0,
        m: 1e-7,
        max_batch: None,
    };
    let input = SolverInput { nodes: vec![node(1.0), node(speed_ratio)], gamma: 0.1, t_o: 1e-9, t_u: 1e-9 };
    let mut solver = OptPerfSolver::new(input.clone());
    let total = 1200u64;
    let plan = solver.solve(total).expect("feasible");
    let even = predict_batch_time(&input, &even_split(total, 2));
    (plan.opt_perf / even, 2.0 / (speed_ratio + 1.0))
}

/// §6 cluster C: heterogeneity induced purely by GPU sharing. Cannikin's
/// relative advantage should align with the hardware-heterogeneous
/// cluster B.
pub fn cluster_c_experiment() -> String {
    let profile = profiles::cifar10_resnet18();
    let mut out = String::from("§6 — sharing-induced heterogeneity (cluster C, 16× RTX6000 with contention)\n");
    let widths = [12, 16, 16, 14];
    out += &row(&["cluster".into(), "Cannikin (s)".into(), "DDP (s)".into(), "reduction".into()], &widths);
    out.push('\n');
    for (name, cluster) in [("B", clusters::cluster_b()), ("C", clusters::cluster_c_default())] {
        let converged = |system: System| {
            let records = run_to_target(system, &profile, &cluster, 151, 2000).expect("run");
            time_to_target(&records, profile.target_effective_epochs())
        };
        let tc = converged(System::Cannikin).expect("cannikin converged");
        let td = converged(System::Ddp).expect("ddp converged");
        out += &row(
            &[name.into(), fmt(tc), fmt(td), format!("{:.0}%", (1.0 - tc / td) * 100.0)],
            &widths,
        );
        out.push('\n');
    }
    out += "\nfixed-batch (B=512) batch-time comparison on cluster C:\n";
    let cluster = clusters::cluster_c_default();
    let sim = Simulator::new(cluster.clone(), profile.job.clone(), 5).with_noise(0.0, 0.0);
    let mut solver = OptPerfSolver::new(SolverInput::from_ground_truth(&cluster, &profile.job));
    let plan = solver.solve(512).expect("feasible");
    let opt = sim.ideal_batch_time(&plan.local_batches);
    let even = sim.ideal_batch_time(&even_split(512, cluster.len()));
    out += &format!("  OptPerf {}s vs even split {}s ({:.0}% faster)\n", fmt(opt), fmt(even), (1.0 - opt / even) * 100.0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_approaches_theoretical_bound() {
        for &ratio in &[2.0, 4.0, 8.0] {
            let (measured, bound) = sweep_point(ratio);
            assert!(measured >= bound - 1e-6, "cannot beat the bound: {measured} vs {bound}");
            assert!(measured - bound < 0.02, "should approach the bound: {measured} vs {bound}");
        }
    }

    #[test]
    fn homogeneous_pair_has_no_gain() {
        let (measured, bound) = sweep_point(1.0);
        assert!((measured - 1.0).abs() < 1e-6);
        assert!((bound - 1.0).abs() < 1e-12);
    }
}
