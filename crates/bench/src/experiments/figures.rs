//! Figures 5–10.

use crate::runners::{equal_compute_split, metric_trajectory, run_to_target};
use crate::{fmt, row};
use cannikin_baselines::{time_to_target, System};
use cannikin_core::optperf::{even_split, OptPerfSolver, SolverInput};
use cannikin_workloads::{clusters, profiles, WorkloadProfile};
use hetsim::Simulator;

/// Fig. 5: global and per-node local batch sizes over the epochs of a
/// CIFAR-10 run on cluster B. The global batch grows with the gradient
/// noise; the per-GPU shares track each GPU's speed, with `r_opt`
/// shifting as nodes cross between communication- and compute-bottleneck.
pub fn fig5() -> String {
    let profile = profiles::cifar10_resnet18();
    let records = run_to_target(System::Cannikin, &profile, &clusters::cluster_b(), 41, 400).expect("cannikin run");

    let mut out = String::from("Fig 5 — batch sizes during CIFAR-10 training on cluster B (Cannikin)\n");
    let widths = [6, 8, 10, 10, 10];
    out += &row(
        &["epoch".into(), "global".into(), "b[a100-0]".into(), "b[v100-0]".into(), "b[rtx-0]".into()],
        &widths,
    );
    out.push('\n');
    let stride = (records.len() / 20).max(1);
    for r in records.iter().step_by(stride) {
        out += &row(
            &[
                r.epoch.to_string(),
                r.total_batch.to_string(),
                r.local_batches[0].to_string(),
                r.local_batches[4].to_string(),
                r.local_batches[8].to_string(),
            ],
            &widths,
        );
        out.push('\n');
    }
    out
}

/// Fig. 6: Cannikin vs AdaptDL on CIFAR-10 — (a) batch size per epoch,
/// (b) accuracy per epoch, (c) accuracy vs wall time.
pub fn fig6() -> String {
    let profile = profiles::cifar10_resnet18();
    let cluster = clusters::cluster_b();
    let cannikin = run_to_target(System::Cannikin, &profile, &cluster, 61, 1000).expect("cannikin run");
    let adaptdl = run_to_target(System::AdaptDl, &profile, &cluster, 61, 1000).expect("adaptdl run");

    let mut out = String::from("Fig 6 — Cannikin vs AdaptDL, CIFAR-10 on cluster B\n");
    let widths = [6, 9, 9, 9, 9, 10, 10];
    out += &row(
        &[
            "epoch".into(),
            "B(can)".into(),
            "B(adl)".into(),
            "acc(can)".into(),
            "acc(adl)".into(),
            "t(can)s".into(),
            "t(adl)s".into(),
        ],
        &widths,
    );
    out.push('\n');
    let epochs = cannikin.len().max(adaptdl.len());
    let stride = (epochs / 20).max(1);
    for e in (0..epochs).step_by(stride) {
        let c = cannikin.get(e);
        let a = adaptdl.get(e);
        out += &row(
            &[
                e.to_string(),
                c.map_or("-".into(), |r| r.total_batch.to_string()),
                a.map_or("-".into(), |r| r.total_batch.to_string()),
                c.map_or("-".into(), |r| fmt(profile.metric_at(r.effective_epochs))),
                a.map_or("-".into(), |r| fmt(profile.metric_at(r.effective_epochs))),
                c.map_or("-".into(), |r| fmt(r.cumulative_time)),
                a.map_or("-".into(), |r| fmt(r.cumulative_time)),
            ],
            &widths,
        );
        out.push('\n');
    }
    let tc = time_to_target(&cannikin, profile.target_effective_epochs()).expect("cannikin converged");
    let ta = time_to_target(&adaptdl, profile.target_effective_epochs()).expect("adaptdl converged");
    out += &format!(
        "time to 94% top-1: Cannikin {}s, AdaptDL {}s (reduction {:.0}%)\n",
        fmt(tc),
        fmt(ta),
        (1.0 - tc / ta) * 100.0
    );
    out
}

/// Fig. 7: convergence (metric vs wall time) of every system on CIFAR-10
/// and ImageNet over cluster B.
pub fn fig7() -> String {
    let mut out = String::from("Fig 7 — convergence processes on cluster B\n");
    for profile in [profiles::cifar10_resnet18(), profiles::imagenet_resnet50()] {
        out += &format!("\n[{}] metric vs time (sampled)\n", profile.name());
        let cluster = clusters::cluster_b();
        for system in System::PAPER {
            let records = run_to_target(system, &profile, &cluster, 71, 5000).expect("run");
            let traj = metric_trajectory(&records, &profile);
            let stride = (traj.len() / 8).max(1);
            let series: Vec<String> = traj
                .iter()
                .step_by(stride)
                .map(|(t, m)| format!("({}, {})", fmt(*t), fmt(*m)))
                .collect();
            let conv = time_to_target(&records, profile.target_effective_epochs())
                .map_or("did not converge".into(), |t| format!("target at {}s", fmt(t)));
            out += &format!("  {:12} {}  [{}]\n", system.label(), conv, series.join(" "));
        }
    }
    out
}

/// Fig. 8: normalized convergence time of all five tasks under every
/// system (normalized to PyTorch DDP = 1.0; lower is better).
pub fn fig8() -> String {
    let mut out = String::from("Fig 8 — normalized convergence time, cluster B (DDP = 1.0)\n");
    let widths = [24, 12, 12, 12, 12, 12];
    let mut header = vec!["task".to_string()];
    header.extend(System::PAPER.iter().map(|s| s.label().to_string()));
    out += &row(&header, &widths);
    out.push('\n');
    let ddp_column = System::PAPER.iter().position(|&s| s == System::Ddp).expect("DDP is a paper system");
    for profile in profiles::all() {
        let cluster = clusters::cluster_b();
        let times = System::PAPER.map(|system| {
            let records = run_to_target(system, &profile, &cluster, 81, 20_000).expect("run");
            time_to_target(&records, profile.target_effective_epochs())
        });
        let ddp = times[ddp_column].expect("DDP converged");
        let mut cells = vec![profile.name()];
        cells.extend(times.iter().map(|t| t.map_or("-".into(), |t| fmt(t / ddp))));
        out += &row(&cells, &widths);
        out.push('\n');
    }
    out
}

/// Fig. 9: batch processing time per epoch when training ImageNet on
/// cluster A at fixed total batch 128 from an even-split start — Cannikin
/// reaches OptPerf by epoch 3 (two bootstrap epochs), LB-BSP needs many
/// Δ-bounded rounds.
pub fn fig9() -> String {
    let profile = profiles::imagenet_resnet50();
    let cluster = clusters::cluster_a();
    let epochs = 16;
    // Small dataset slice: Fig. 9 is about per-epoch batch time, not
    // convergence, so 40 batches per epoch keeps it cheap.
    let dataset = 128 * 40;

    let run = |system: System| {
        let sim = Simulator::new(cluster.clone(), profile.job.clone(), 91);
        let mut subject = system.build(sim, profile.noise, dataset, 128, 128).expect("valid config");
        subject.run_epochs(epochs).expect("run")
    };
    let can_records = run(System::CannikinFixed);
    let lb_records = run(System::LbBsp);

    // Oracle OptPerf for reference.
    let oracle_sim = Simulator::new(cluster.clone(), profile.job.clone(), 0).with_noise(0.0, 0.0);
    let mut oracle = OptPerfSolver::new(SolverInput::from_ground_truth(&cluster, &profile.job));
    let opt = oracle_sim.ideal_batch_time(&oracle.solve(128).expect("feasible").local_batches);

    let mut out = String::from("Fig 9 — ImageNet on cluster A, fixed B=128, even init\n");
    let widths = [6, 16, 16, 14];
    out += &row(&["epoch".into(), "Cannikin (s)".into(), "LB-BSP (s)".into(), "OptPerf (s)".into()], &widths);
    out.push('\n');
    for e in 0..epochs {
        out += &row(
            &[
                e.to_string(),
                fmt(can_records[e].mean_batch_time),
                fmt(lb_records[e].mean_batch_time),
                fmt(opt),
            ],
            &widths,
        );
        out.push('\n');
    }
    out
}

/// Fig. 10: normalized batch processing time vs total batch size for each
/// task on cluster B — OptPerf (= 1.0) vs LB-BSP's converged split,
/// LB-BSP right after a 10%-of-range batch-size increase, and DDP's even
/// split.
pub fn fig10() -> String {
    let mut out = String::from("Fig 10 — normalized batch processing time vs total batch (OptPerf = 1.0), cluster B\n");
    for profile in profiles::all() {
        out += &format!("\n[{}]\n", profile.name());
        let widths = [9, 10, 10, 13, 10];
        out += &row(
            &["B".into(), "OptPerf".into(), "LB-BSP".into(), "LB-BSP-adapt".into(), "DDP".into()],
            &widths,
        );
        out.push('\n');
        for (b, cols) in fig10_series(&profile) {
            out += &row(
                &[b.to_string(), fmt(cols[0]), fmt(cols[1]), fmt(cols[2]), fmt(cols[3])],
                &widths,
            );
            out.push('\n');
        }
    }
    out
}

/// The Fig. 10 series for one workload: `(B, [optperf, lbbsp, lbbsp_adaptive, ddp])`,
/// all normalized to OptPerf.
pub fn fig10_series(profile: &WorkloadProfile) -> Vec<(u64, [f64; 4])> {
    let cluster = clusters::cluster_b();
    let sim = Simulator::new(cluster.clone(), profile.job.clone(), 0).with_noise(0.0, 0.0);
    let mut solver = OptPerfSolver::new(SolverInput::from_ground_truth(&cluster, &profile.job));
    let n = cluster.len();
    let lo = profile.base_batch.max(2 * n as u64);
    let hi = profile.max_batch;
    let range_width = (hi - lo) as f64;
    let points = 8usize;
    let mut out = Vec::new();
    for i in 0..points {
        let b = (lo as f64 * (hi as f64 / lo as f64).powf(i as f64 / (points - 1) as f64)).round() as u64;
        let Ok(plan) = solver.solve(b) else { continue };
        let opt = sim.ideal_batch_time(&plan.local_batches);

        // LB-BSP's asymptote: equal compute times, overlap-blind.
        let lb_split = equal_compute_split(&sim, b);
        let lb = sim.ideal_batch_time(&lb_split);

        // LB-BSP right after the batch grew by 10% of the range: it still
        // uses the (rescaled) split balanced for the previous size.
        let prev = (b as f64 - 0.1 * range_width).max(n as f64) as u64;
        let prev_split = equal_compute_split(&sim, prev.max(n as u64));
        let prev_total: u64 = prev_split.iter().sum();
        let mut scaled: Vec<u64> = prev_split
            .iter()
            .map(|&x| ((x as f64 / prev_total as f64 * b as f64).round() as u64).max(1))
            .collect();
        let mut sum: u64 = scaled.iter().sum();
        while sum != b {
            let i = if sum < b {
                (0..n).max_by_key(|&i| scaled[i]).expect("nodes")
            } else {
                (0..n).filter(|&i| scaled[i] > 1).max_by_key(|&i| scaled[i]).expect("nodes")
            };
            if sum < b {
                scaled[i] += 1;
                sum += 1;
            } else {
                scaled[i] -= 1;
                sum -= 1;
            }
        }
        let lb_adapt = sim.ideal_batch_time(&scaled);

        let ddp = sim.ideal_batch_time(&even_split(b, n));
        out.push((b, [1.0, lb / opt, lb_adapt / opt, ddp / opt]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_shape_holds() {
        let text = fig9();
        // Parse the per-epoch columns back out.
        let lines: Vec<&str> = text.lines().skip(2).collect();
        let parse = |line: &str| -> (f64, f64, f64) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            (cols[1].parse().unwrap(), cols[2].parse().unwrap(), cols[3].parse().unwrap())
        };
        let (can0, lb0, opt) = parse(lines[0]);
        // Both start even → identical batch time (up to noise).
        assert!((can0 / lb0 - 1.0).abs() < 0.1, "even starts should match: {can0} vs {lb0}");
        // Cannikin reaches within 5% of OptPerf by epoch 3.
        let (can3, _, _) = parse(lines[3]);
        assert!(can3 < opt * 1.05, "cannikin epoch 3: {can3} vs optperf {opt}");
        // LB-BSP is still far away at epoch 3 but close by epoch 15.
        let (_, lb3, _) = parse(lines[3]);
        assert!(lb3 > opt * 1.08, "LB-BSP should still lag at epoch 3: {lb3} vs {opt}");
        let (_, lb15, _) = parse(lines[15]);
        assert!(lb15 < opt * 1.10, "LB-BSP should approach OptPerf eventually: {lb15} vs {opt}");
    }

    #[test]
    fn fig10_relationships() {
        let series = fig10_series(&profiles::imagenet_resnet50());
        assert!(series.len() >= 6);
        for (b, cols) in &series {
            // OptPerf is the floor.
            assert!(cols[1] >= 0.999, "LB-BSP beat OptPerf at B={b}: {}", cols[1]);
            assert!(cols[3] >= 0.999, "DDP beat OptPerf at B={b}: {}", cols[3]);
            // Post-growth LB-BSP is no better than converged LB-BSP (up to
            // integer-rounding slack in the rescaled split).
            assert!(cols[2] >= cols[1] - 0.02, "B={b}");
        }
        // DDP's even split is clearly worse somewhere (paper: up to 53%).
        assert!(series.iter().any(|(_, c)| c[3] > 1.3), "DDP should lose significantly somewhere");
        // LB-BSP approaches OptPerf at the largest batch (both equalize
        // compute when everything is compute-bound).
        let last = series.last().unwrap();
        assert!(last.1[1] < 1.05, "LB-BSP at large B should approach OptPerf: {}", last.1[1]);
    }
}
