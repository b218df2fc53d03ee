//! Property-based tests of the full control loop on randomized clusters
//! and jobs: whatever the hardware mix, the engine must stay within its
//! invariants and end up no worse than the even split.

use cannikin::core::engine::{CannikinTrainer, LinearNoiseGrowth, TrainerConfig};
use cannikin::core::optperf::even_split;
use cannikin::sim::catalog::Gpu;
use cannikin::sim::cluster::{ClusterSpec, NodeSpec};
use cannikin::sim::job::JobSpec;
use cannikin::sim::Simulator;
use propcheck::{check, Gen};

// Each case runs several simulated epochs; keep the count moderate.
const CASES: usize = 24;

fn arbitrary_cluster(g: &mut Gen) -> ClusterSpec {
    let nodes = g.vec(2..6, |g| {
        let gpu = g.pick(&[Gpu::A100, Gpu::V100, Gpu::Rtx6000, Gpu::RtxA5000, Gpu::RtxA4000]);
        NodeSpec::new("node", gpu).with_contention(g.f64(0.4..1.0)).with_cpu_factor(g.f64(0.5..2.0))
    });
    ClusterSpec::new("prop", nodes)
}

fn arbitrary_job(g: &mut Gen) -> JobSpec {
    match g.usize(0..3) {
        0 => JobSpec::resnet50_imagenet(),
        1 => JobSpec::resnet18_cifar10(),
        _ => JobSpec::neumf_movielens(),
    }
}

#[test]
fn engine_invariants_on_random_clusters() {
    check(CASES, |g| {
        let cluster = arbitrary_cluster(g);
        let job = arbitrary_job(g);
        let seed = g.u64(0..1000);
        let phi0 = g.f64(50.0..2000.0);
        let n = cluster.len();
        let base = 16 * n as u64;
        let sim = Simulator::new(cluster, job, seed);
        let noise = Box::new(LinearNoiseGrowth { initial: phi0, rate: 0.5 });
        let config = TrainerConfig::new(base as usize * 40, base, base * 16);
        let mut trainer = CannikinTrainer::builder()
            .simulator(sim)
            .noise_boxed(noise)
            .config(config)
            .build()
            .expect("valid config");
        let records = trainer.run_epochs(6).expect("run");
        for r in &records {
            assert_eq!(r.local_batches.len(), n);
            assert_eq!(
                r.local_batches.iter().sum::<u64>() * r.accumulation,
                r.total_batch,
                "micro split × accumulation must equal the effective batch"
            );
            assert!(r.local_batches.iter().all(|&b| b >= 1));
            assert!(r.epoch_time.is_finite() && r.epoch_time > 0.0);
            assert!(r.efficiency > 0.0 && r.efficiency <= 1.0 + 1e-12);
        }
        for pair in records.windows(2) {
            assert!(pair[1].effective_epochs > pair[0].effective_epochs);
        }
        // The model path must engage by epoch 2 on a clean simulator.
        assert!(records[2].used_model || records[3].used_model);
    });
}

#[test]
fn fixed_batch_engine_never_loses_to_even_split() {
    check(CASES, |g| {
        let cluster = arbitrary_cluster(g);
        let seed = g.u64(0..1000);
        let n = cluster.len();
        let job = JobSpec::resnet50_imagenet();
        let total = 32 * n as u64;
        let oracle = Simulator::new(cluster.clone(), job.clone(), 0).with_noise(0.0, 0.0);
        let even_time = oracle.ideal_batch_time(&even_split(total, n));

        let sim = Simulator::new(cluster, job, seed);
        let noise = Box::new(LinearNoiseGrowth { initial: 300.0, rate: 0.5 });
        let mut config = TrainerConfig::new(total as usize * 30, total, total);
        config.adaptive_batch = false;
        let mut trainer = CannikinTrainer::builder()
            .simulator(sim)
            .noise_boxed(noise)
            .config(config)
            .build()
            .expect("valid config");
        let records = trainer.run_epochs(5).expect("run");
        let tuned = records.last().unwrap();
        let ideal_tuned = oracle.ideal_batch_time(&tuned.local_batches);
        // The learned split can never be materially worse than even.
        assert!(
            ideal_tuned <= even_time * 1.02,
            "tuned split {:?} at {ideal_tuned} vs even {even_time}",
            tuned.local_batches
        );
    });
}
