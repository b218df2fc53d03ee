//! Substrate-level integration: datasets + loaders + collectives +
//! simulator interacting across crates, plus property invariants on the
//! epoch-sharding loader.

use cannikin::collectives::{bucket_ranges, CommGroup};
use cannikin::core::engine::HeteroDataLoader;
use cannikin::dnn::data::{gaussian_blob_images, EpochPlan};
use cannikin::sim::Simulator;
use cannikin::workloads::{clusters, profiles};
use propcheck::check;
use std::thread;

#[test]
fn hetero_loader_covers_dataset_without_overlap_across_nodes() {
    let mut loader = HeteroDataLoader::new(10_000, 3);
    let plan = loader.next_epoch(&[96, 32, 16, 8]);
    let mut seen = vec![false; 10_000];
    for node in 0..plan.nodes() {
        for batch in plan.node_batches(node) {
            for &idx in batch {
                assert!(!seen[idx], "sample {idx} assigned twice");
                seen[idx] = true;
            }
        }
    }
    let covered = seen.iter().filter(|&&s| s).count();
    assert_eq!(covered, plan.steps() * 152);
}

#[test]
fn image_batches_flow_through_cnn_shapes() {
    use cannikin::dnn::layers::Layer;
    use cannikin::dnn::models::mini_cnn;
    let ds = gaussian_blob_images(64, 4, 3, 8, 5);
    let mut loader = HeteroDataLoader::new(ds.len(), 9);
    let plan = loader.next_epoch(&[6, 2]);
    let mut model = mini_cnn(3, 8, 4, 1);
    let (x, y) = ds.batch(&plan.node_batches(0)[0]);
    assert_eq!(x.shape(), &[6, 3, 8, 8]);
    let logits = model.forward(&x, true);
    assert_eq!(logits.shape(), &[6, 4]);
    assert_eq!(y.len(), 6);
}

#[test]
fn simulator_epoch_and_collectives_compose() {
    // A smoke test across three crates: plan an epoch for the solver's
    // split, simulate its timing, and do one real all-reduce sized like
    // the job's gradient buckets.
    let profile = profiles::cifar10_resnet18();
    let cluster = clusters::cluster_a();
    let mut sim = Simulator::new(cluster, profile.job.clone(), 21);
    let trace = sim.simulate_batch(&[40, 28, 12]);
    assert_eq!(trace.observations.len(), 3);
    assert!(trace.batch_time > 0.0);

    let buckets = profile.job.num_buckets;
    let comms = CommGroup::create(3);
    let handles: Vec<_> = comms
        .into_iter()
        .map(|comm| {
            thread::spawn(move || {
                let mut grad = vec![1.0f32; 1000];
                let ranges = bucket_ranges(grad.len(), buckets);
                for r in &ranges {
                    comm.exchange(&mut grad[r.clone()], 1.0, None, None).expect("exchange");
                }
                (grad[0], ranges.len())
            })
        })
        .collect();
    for h in handles {
        let (v, k) = h.join().expect("rank");
        assert_eq!(v, 3.0);
        assert_eq!(k, buckets);
    }
}

const CASES: usize = 64;

fn assert_loader_shards_exactly(dataset_len: usize, splits: &[u64], seed: u64) {
    let mut loader = HeteroDataLoader::new(dataset_len, seed);
    let plan = loader.next_epoch(splits);
    let total: u64 = splits.iter().sum();
    assert_eq!(plan.steps(), dataset_len / total as usize);
    for (node, &b) in splits.iter().enumerate() {
        for batch in plan.node_batches(node) {
            assert_eq!(batch.len() as u64, b);
            assert!(batch.iter().all(|&i| i < dataset_len));
        }
    }
}

#[test]
fn loader_shards_exactly() {
    check(CASES, |g| {
        let dataset_len = g.usize(100..5000);
        let splits = g.vec(2..6, |g| g.u64(1..40));
        let seed = g.u64(0..1000);
        assert_loader_shards_exactly(dataset_len, &splits, seed);
    });
}

/// A case that once failed: the split's total (35) does not divide the
/// dataset (207), and the seed is the degenerate one.
#[test]
fn loader_shards_exactly_on_the_saved_regression() {
    assert_loader_shards_exactly(207, &[22, 13], 0);
}

#[test]
fn alternating_plans_preserve_pairing() {
    check(CASES, |g| {
        let dataset_len = g.usize(200..4000);
        let splits = g.vec(2..5, |g| g.u64(2..30));
        let odd: Vec<u64> = splits.iter().rev().copied().collect();
        let plan = EpochPlan::new_alternating(dataset_len, &splits, &odd, 7);
        assert_eq!(plan.steps() % 2, 0);
        for (node, (&be, &bo)) in splits.iter().zip(&odd).enumerate() {
            for (step, batch) in plan.node_batches(node).iter().enumerate() {
                let expected = if step % 2 == 0 { be } else { bo };
                assert_eq!(batch.len() as u64, expected);
            }
        }
    });
}

#[test]
fn bucket_ranges_partition() {
    check(CASES, |g| {
        let (total, buckets) = (g.usize(0..10_000), g.usize(1..64));
        let ranges = bucket_ranges(total, buckets);
        let mut cursor = 0;
        for r in &ranges {
            assert_eq!(r.start, cursor);
            cursor = r.end;
        }
        assert_eq!(cursor, total);
    });
}

#[test]
fn noise_free_simulation_is_deterministic() {
    check(CASES, |g| {
        let local = [g.u64(1..200), g.u64(1..200), g.u64(1..200)];
        let profile = profiles::imagenet_resnet50();
        let cluster = clusters::cluster_a();
        let sim1 = Simulator::new(cluster.clone(), profile.job.clone(), 1).with_noise(0.0, 0.0);
        let sim2 = Simulator::new(cluster, profile.job.clone(), 999).with_noise(0.0, 0.0);
        assert_eq!(sim1.ideal_batch_time(&local), sim2.ideal_batch_time(&local));
        // And Eq. (7) agrees with the event simulation for every split.
        let ev = sim1.ideal_batch_time(&local);
        let eq7 = sim1.eq7_batch_time(&local);
        assert!((ev - eq7).abs() <= eq7 * 1e-12);
    });
}
