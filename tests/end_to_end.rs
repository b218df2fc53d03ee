//! Cross-crate integration tests: the full Cannikin pipeline (simulator →
//! analyzer → solver → goodput engine → trainer) against the baselines on
//! the paper's clusters.

use cannikin::baselines::{adaptdl, lbbsp, DdpTrainer};
use cannikin::core::engine::{CannikinTrainer, LinearNoiseGrowth, NoiseModel, TrainerConfig};
use cannikin::core::optperf::{OptPerfSolver, SolverInput};
use cannikin::core::perf::MeasurementAggregation;
use cannikin::sim::Simulator;
use cannikin::workloads::{clusters, profiles};

fn noise(profile: &cannikin::workloads::WorkloadProfile) -> Box<dyn NoiseModel> {
    Box::new(LinearNoiseGrowth { initial: profile.noise.initial, rate: profile.noise.rate })
}

#[test]
fn cannikin_run_invariants_on_cluster_b() {
    let profile = profiles::cifar10_resnet18();
    let cluster = clusters::cluster_b();
    let sim = Simulator::new(cluster.clone(), profile.job.clone(), 71);
    let config = TrainerConfig::new(profile.dataset_size, 64, profile.max_batch);
    let mut trainer = CannikinTrainer::builder()
        .simulator(sim)
        .noise_boxed(noise(&profile))
        .config(config)
        .build()
        .expect("valid config");
    let records = trainer.run_epochs(30).expect("run");

    for r in &records {
        assert_eq!(r.local_batches.iter().sum::<u64>(), r.total_batch, "epoch {}", r.epoch);
        assert!(r.total_batch <= profile.max_batch);
        assert!(r.local_batches.iter().all(|&b| b >= 1));
        assert!(r.efficiency > 0.0 && r.efficiency <= 1.0 + 1e-12);
        assert!(r.epoch_time > 0.0);
    }
    for pair in records.windows(2) {
        assert!(pair[1].effective_epochs > pair[0].effective_epochs);
        assert!(pair[1].cumulative_time > pair[0].cumulative_time);
    }
    // The model must engage early and stay engaged.
    assert!(records[2].used_model);
    assert!(records.iter().skip(2).filter(|r| r.used_model).count() >= 26);
    // Same-type GPUs must receive near-identical shares once modeled.
    let last = records.last().unwrap();
    for i in 1..4 {
        assert!(last.local_batches[i].abs_diff(last.local_batches[0]) <= 2, "{:?}", last.local_batches);
    }
    // A100s beat RTX6000s by roughly their speed ratio.
    assert!(last.local_batches[0] > last.local_batches[8] * 2, "{:?}", last.local_batches);
}

#[test]
fn learned_models_converge_to_ground_truth() {
    let profile = profiles::imagenet_resnet50();
    let cluster = clusters::cluster_a();
    let sim = Simulator::new(cluster.clone(), profile.job.clone(), 72);
    let config = TrainerConfig::new(12_800, 128, 1024);
    let mut trainer = CannikinTrainer::builder()
        .simulator(sim)
        .noise_boxed(noise(&profile))
        .config(config)
        .build()
        .expect("valid config");
    trainer.run_epochs(10).expect("run");

    let oracle = Simulator::new(cluster, profile.job.clone(), 0);
    for node in 0..3 {
        let learned = trainer.analyzer().node_model(node).expect("model ready");
        let truth = oracle.true_coefficients(node);
        assert!((learned.q / truth.q - 1.0).abs() < 0.15, "node {node} q: {} vs {}", learned.q, truth.q);
        assert!((learned.k / truth.k - 1.0).abs() < 0.15, "node {node} k: {} vs {}", learned.k, truth.k);
    }
    let (t_comm, _, _) = oracle.true_comm();
    assert!((trainer.analyzer().t_comm().expect("comm") / t_comm - 1.0).abs() < 0.1);
}

#[test]
fn cannikin_beats_every_baseline_on_cifar_cluster_b() {
    let profile = profiles::cifar10_resnet18();
    let cluster = clusters::cluster_b();
    let target = profile.target_effective_epochs();

    let sim = || Simulator::new(cluster.clone(), profile.job.clone(), 73);
    let config = TrainerConfig::new(profile.dataset_size, 64, profile.max_batch);
    let mut cannikin = CannikinTrainer::builder()
        .simulator(sim())
        .noise_boxed(noise(&profile))
        .config(config)
        .build()
        .expect("valid config");
    let t_cannikin = cannikin.train_until(target, 3000).expect("run").last().unwrap().cumulative_time;

    let mut ad = adaptdl(sim(), noise(&profile), profile.dataset_size, 64, profile.max_batch).expect("valid config");
    let t_adaptdl = ad.train_until(target, 3000).expect("run").last().unwrap().cumulative_time;

    let mut ddp = DdpTrainer::new(sim(), noise(&profile), profile.dataset_size, 64, 64);
    let t_ddp = ddp.train_until(target, 3000).last().unwrap().cumulative_time;

    let mut lb = lbbsp(sim(), noise(&profile), profile.dataset_size, 64).expect("valid config");
    let t_lbbsp = lb.train_until(target, 3000).expect("run").last().unwrap().cumulative_time;

    assert!(t_cannikin < t_adaptdl, "vs AdaptDL: {t_cannikin} vs {t_adaptdl}");
    assert!(t_cannikin < t_ddp * 0.35, "vs DDP: {t_cannikin} vs {t_ddp}");
    assert!(t_cannikin < t_lbbsp * 0.35, "vs LB-BSP: {t_cannikin} vs {t_lbbsp}");
}

#[test]
fn ivw_ablation_matters_under_biased_observers() {
    // §5.3 end to end: the same run with naive measurement aggregation
    // produces a worse-calibrated communication model on cluster A (whose
    // slow nodes over-report comm times).
    let profile = profiles::imagenet_resnet50();
    let cluster = clusters::cluster_a();
    let oracle = Simulator::new(cluster.clone(), profile.job.clone(), 0);
    let (t_comm_true, _, _) = oracle.true_comm();

    let mut errs = Vec::new();
    for aggregation in [MeasurementAggregation::InverseVariance, MeasurementAggregation::NaiveMean] {
        let sim = Simulator::new(cluster.clone(), profile.job.clone(), 74);
        let mut config = TrainerConfig::new(12_800, 128, 1024);
        config.aggregation = aggregation;
        let mut trainer = CannikinTrainer::builder()
        .simulator(sim)
        .noise_boxed(noise(&profile))
        .config(config)
        .build()
        .expect("valid config");
        trainer.run_epochs(6).expect("run");
        errs.push((trainer.analyzer().t_comm().expect("comm") - t_comm_true).abs() / t_comm_true);
    }
    assert!(errs[0] < errs[1], "ivw {} vs naive {}", errs[0], errs[1]);
    assert!(errs[0] < 0.05, "ivw error {}", errs[0]);
    assert!(errs[1] > 0.08, "naive error should be visibly biased: {}", errs[1]);
}

#[test]
fn contention_change_is_absorbed_within_a_few_epochs() {
    // The §6 dynamic-resources scenario end to end.
    let profile = profiles::cifar10_resnet18();
    let cluster = clusters::cluster_c_default();
    let sim = Simulator::new(cluster, profile.job.clone(), 75);
    let mut config = TrainerConfig::new(50_000, 512, 512);
    config.adaptive_batch = false;
    let mut trainer = CannikinTrainer::builder()
        .simulator(sim)
        .noise_boxed(noise(&profile))
        .config(config)
        .build()
        .expect("valid config");
    let before = trainer.run_epochs(6).expect("run");
    let share_before = *before.last().unwrap().local_batches.last().unwrap();

    trainer.simulator_mut().set_contention(15, 1.0);
    let after = trainer.run_epochs(6).expect("run");
    let share_after = *after.last().unwrap().local_batches.last().unwrap();
    assert!(
        share_after as f64 > share_before as f64 * 2.0,
        "node 15's share should grow after contention release: {share_before} -> {share_after}"
    );
}

#[test]
fn oracle_solver_and_trainer_agree_at_convergence() {
    // After enough epochs the learned plan's batch time approaches the
    // oracle OptPerf for the same total batch.
    let profile = profiles::imagenet_resnet50();
    let cluster = clusters::cluster_a();
    let sim = Simulator::new(cluster.clone(), profile.job.clone(), 76);
    let mut config = TrainerConfig::new(128 * 50, 128, 128);
    config.adaptive_batch = false;
    let mut trainer = CannikinTrainer::builder()
        .simulator(sim)
        .noise_boxed(noise(&profile))
        .config(config)
        .build()
        .expect("valid config");
    let records = trainer.run_epochs(8).expect("run");

    let mut oracle = OptPerfSolver::new(SolverInput::from_ground_truth(&cluster, &profile.job));
    let oracle_sim = Simulator::new(cluster, profile.job.clone(), 0).with_noise(0.0, 0.0);
    let opt = oracle_sim.ideal_batch_time(&oracle.solve(128).expect("feasible").local_batches);
    let last = records.last().unwrap();
    assert!(
        (last.mean_batch_time - opt).abs() / opt < 0.05,
        "trainer {} vs oracle OptPerf {opt}",
        last.mean_batch_time
    );
}
