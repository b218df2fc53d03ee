//! Public-API acceptance tests (ISSUE 5): the `cannikin::prelude` plus
//! the trainer builders must cover everyday use end to end on *both*
//! collective transports, and a weighted all-reduce must produce
//! bitwise-identical results over in-process channels and real TCP
//! sockets.

use cannikin::dnn::data::gaussian_blobs;
use cannikin::dnn::models::mlp_classifier;
use cannikin::prelude::*;
use cannikin::sim::catalog::Gpu;
use std::thread;

fn cluster3() -> ClusterSpec {
    ClusterSpec::new(
        "api",
        vec![
            NodeSpec::new("a100", Gpu::A100),
            NodeSpec::new("v100", Gpu::V100),
            NodeSpec::new("rtx", Gpu::Rtx6000),
        ],
    )
}

fn sim_trainer(transport: TransportKind) -> CannikinTrainer {
    CannikinTrainer::builder()
        .simulator(Simulator::new(cluster3(), JobSpec::resnet18_cifar10(), 11))
        .noise(LinearNoiseGrowth { initial: 300.0, rate: 0.5 })
        .dataset_size(6_400)
        .batch_range(64, 512)
        .transport(transport)
        .build()
        .expect("valid configuration")
}

fn parallel_trainer(transport: TransportKind, seed: u64) -> ParallelTrainer {
    ParallelTrainer::builder()
        .dataset(gaussian_blobs(384, 6, 8, 21))
        .model(|seed| mlp_classifier(8, 16, 6, seed))
        .slowdowns(vec![1.0, 1.5, 2.0])
        .batch_range(48, 96)
        .adaptive(false)
        .seed(seed)
        .transport(transport)
        .build()
        .expect("valid configuration")
}

/// Both engines, built entirely from the prelude, train one epoch per
/// backend.
#[test]
fn builders_train_one_epoch_on_every_backend() {
    for kind in [TransportKind::InProcess, TransportKind::tcp()] {
        let record = sim_trainer(kind.clone()).run_epoch().expect("sim epoch");
        assert_eq!(record.local_batches.len(), 3, "{kind}: one share per node");
        assert!(record.epoch_time > 0.0);

        let report = parallel_trainer(kind.clone(), 5).run_epoch().expect("parallel epoch");
        assert_eq!(report.local_batches.iter().sum::<u64>(), report.total_batch);
        assert!(report.comm_bytes > 0, "{kind}: gradient exchange must count wire bytes");
        assert!(report.mean_loss.is_finite());
    }
}

/// Multi-epoch runs over real TCP sockets complete for both engines, and
/// the byte counters keep growing epoch over epoch.
#[test]
fn multi_epoch_tcp_runs_count_bytes() {
    let mut trainer = sim_trainer(TransportKind::tcp());
    let records = trainer.run_epochs(3).expect("tcp sim run");
    assert_eq!(records.len(), 3);
    assert!(trainer.comm_bytes() > 0, "metric exchange must cross the sockets");

    let mut parallel = parallel_trainer(TransportKind::tcp(), 6);
    let mut last_bytes = 0;
    for epoch in 0..3 {
        let report = parallel.run_epoch().expect("tcp parallel epoch");
        assert!(report.comm_bytes > 0, "epoch {epoch} must move gradient bytes");
        last_bytes = report.comm_bytes;
        assert!(report.mean_loss.is_finite());
    }
    assert!(last_bytes > 0);
}

/// Same seed, same data: epoch 0 (which always runs the even split, so
/// timing jitter cannot change the shards) must produce bitwise-identical
/// losses over in-process channels and TCP sockets.
#[test]
fn first_epoch_is_bitwise_identical_across_backends() {
    let a = parallel_trainer(TransportKind::InProcess, 7).run_epoch().expect("in-process epoch");
    let b = parallel_trainer(TransportKind::tcp(), 7).run_epoch().expect("tcp epoch");
    assert_eq!(a.local_batches, b.local_batches, "epoch 0 runs the even split on both");
    assert_eq!(
        a.mean_loss.to_bits(),
        b.mean_loss.to_bits(),
        "losses must agree bitwise: {} vs {}",
        a.mean_loss,
        b.mean_loss
    );
    assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
}

/// A raw weighted exchange crosses both backends bit-for-bit — the
/// foundation the engine-level equivalence rests on.
#[test]
fn weighted_exchange_matches_bitwise_across_backends() {
    let payload = |rank: usize| -> Vec<f32> {
        (0..37).map(|i| ((i * 13 + rank * 7) as f32).sin() * 0.37).collect()
    };
    let mut per_backend = Vec::new();
    for kind in [TransportKind::InProcess, TransportKind::tcp()] {
        let comms = CommGroup::with_kind(3, &kind, None).expect("group forms");
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                thread::spawn(move || {
                    let mut data = payload(comm.rank());
                    comm.exchange(&mut data, 0.2 + comm.rank() as f32 * 0.3, None, None).expect("exchange");
                    assert!(comm.bytes_sent() > 0);
                    data
                })
            })
            .collect();
        let results: Vec<Vec<u32>> = handles
            .into_iter()
            .map(|h| h.join().expect("rank").iter().map(|v| v.to_bits()).collect())
            .collect();
        // Every rank of a group agrees with rank 0.
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
        per_backend.push(results[0].clone());
    }
    assert_eq!(per_backend[0], per_backend[1], "in-process and tcp must agree bitwise");
}

/// Every adaptation policy is selectable through the builder, and each
/// one plans a full epoch on the simulated engine.
#[test]
fn every_policy_kind_trains_through_the_builder() {
    for kind in [PolicyKind::OptPerf, PolicyKind::Even, PolicyKind::LbBsp, PolicyKind::Rl] {
        let mut trainer = CannikinTrainer::builder()
            .simulator(Simulator::new(cluster3(), JobSpec::resnet18_cifar10(), 11))
            .noise(LinearNoiseGrowth { initial: 300.0, rate: 0.5 })
            .dataset_size(6_400)
            .batch_range(64, 512)
            .policy(kind)
            .build()
            .expect("valid configuration");
        let record = trainer.run_epoch().expect("epoch");
        assert_eq!(record.local_batches.len(), 3, "{kind}: one share per node");
        assert_eq!(record.local_batches.iter().sum::<u64>(), record.total_batch, "{kind}");
    }
}
