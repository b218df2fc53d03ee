//! Functional correctness of the distributed-training substrate: the
//! Eq. (9) weighted aggregation must reproduce single-machine full-batch
//! gradients exactly, replicas must stay synchronized, and the whole
//! thread-parallel trainer must actually learn.

use cannikin::collectives::{Codec, CommGroup, TransportKind};
use cannikin::core::engine::parallel::{ParallelConfig, ParallelTrainer};
use cannikin::dnn::data::gaussian_blobs;
use cannikin::dnn::layers::{flatten_grads, zero_grads, Layer};
use cannikin::dnn::loss::{Loss, SoftmaxCrossEntropy};
use cannikin::dnn::models::mlp_classifier;
use cannikin::dnn::tensor::Tensor;
use std::thread;

/// Eq. (9) exactness: splitting a batch unevenly across workers and
/// combining their *mean* gradients with weights `bᵢ/B` equals the
/// single-machine gradient of the full batch.
#[test]
fn weighted_aggregation_equals_full_batch_gradient() {
    let dataset = gaussian_blobs(64, 5, 12, 31);
    let indices: Vec<usize> = (0..24).collect();
    let splits: [&[usize]; 3] = [&indices[0..4], &indices[4..12], &indices[12..24]];
    let total = indices.len() as f32;

    // Reference: one machine, full batch.
    let mut reference = mlp_classifier(12, 20, 5, 77);
    let (x, y) = dataset.batch(&indices);
    let logits = reference.forward(&x, true);
    let (_, grad) = SoftmaxCrossEntropy.loss(&logits, &y);
    zero_grads(&mut reference.parameters_mut());
    reference.backward(&grad);
    let full = flatten_grads(&reference.parameters());

    // Distributed: three replicas with identical weights, uneven shards,
    // combined through the real ring all-reduce with Eq. (9) weights.
    let comms = CommGroup::create(3);
    let handles: Vec<_> = comms
        .into_iter()
        .zip(splits)
        .map(|(comm, shard)| {
            let (x, y) = dataset.batch(shard);
            let weight = shard.len() as f32 / total;
            thread::spawn(move || {
                let mut model = mlp_classifier(12, 20, 5, 77); // same seed ⇒ same init
                let logits = model.forward(&x, true);
                let (_, grad) = SoftmaxCrossEntropy.loss(&logits, &y);
                zero_grads(&mut model.parameters_mut());
                model.backward(&grad);
                let mut g = flatten_grads(&model.parameters()).into_data();
                comm.exchange(&mut g, weight, None, None).expect("exchange");
                g
            })
        })
        .collect();
    let results: Vec<Vec<f32>> = handles.into_iter().map(|h| h.join().expect("rank")).collect();

    // Every rank holds the identical combined gradient...
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
    // ...and it equals the full-batch gradient up to fp32 noise.
    let combined = Tensor::from_vec(results[0].clone(), &[full.len()]).unwrap();
    let diff = combined.sub(&full);
    let rel = (diff.sq_l2() / full.sq_l2().max(1e-30)).sqrt();
    assert!(rel < 1e-4, "relative gradient error {rel}");
}

/// Plain averaging (the homogeneous aggregation) does NOT reproduce the
/// full-batch gradient under uneven shards — the motivation for Eq. (9).
#[test]
fn naive_averaging_is_biased_for_uneven_shards() {
    let dataset = gaussian_blobs(64, 5, 12, 32);
    let indices: Vec<usize> = (0..24).collect();
    let splits: [&[usize]; 2] = [&indices[0..2], &indices[2..24]];

    let mut reference = mlp_classifier(12, 20, 5, 78);
    let (x, y) = dataset.batch(&indices);
    let logits = reference.forward(&x, true);
    let (_, grad) = SoftmaxCrossEntropy.loss(&logits, &y);
    zero_grads(&mut reference.parameters_mut());
    reference.backward(&grad);
    let full = flatten_grads(&reference.parameters());

    let mut avg = Tensor::zeros(&[full.len()]);
    for shard in splits {
        let mut model = mlp_classifier(12, 20, 5, 78);
        let (x, y) = dataset.batch(shard);
        let logits = model.forward(&x, true);
        let (_, grad) = SoftmaxCrossEntropy.loss(&logits, &y);
        zero_grads(&mut model.parameters_mut());
        model.backward(&grad);
        avg.axpy(0.5, &flatten_grads(&model.parameters()));
    }
    let rel = ((avg.sub(&full)).sq_l2() / full.sq_l2().max(1e-30)).sqrt();
    assert!(rel > 0.05, "naive averaging should deviate for a 2-vs-22 split, got {rel}");
}

fn config() -> ParallelConfig {
    ParallelConfig {
        slowdowns: vec![1.0, 2.0],
        base_batch: 32,
        max_batch: 128,
        adaptive: true,
        base_lr: 0.05,
        seed: 9,
        comm_faults: None,
        retry: Default::default(),
        transport: TransportKind::InProcess,
        codec: Codec::None,
        overlap: false,
    }
}

#[test]
fn parallel_trainer_learns_and_reports_consistent_state() {
    let ds = gaussian_blobs(1024, 6, 12, 33);
    let mut trainer = ParallelTrainer::builder()
        .dataset(ds)
        .model(|seed| mlp_classifier(12, 32, 6, seed))
        .config(config())
        .build()
        .expect("valid config");
    let mut last = None;
    let mut gns_seen = false;
    for _ in 0..6 {
        let r = trainer.run_epoch().expect("epoch");
        assert_eq!(r.local_batches.iter().sum::<u64>(), r.total_batch);
        assert!(r.local_batches.iter().all(|&b| b >= 1));
        assert!(r.epoch_time > 0.0);
        gns_seen |= r.noise_scale.is_some();
        last = Some(r);
    }
    let r = last.unwrap();
    assert!(r.accuracy > 0.9, "accuracy {}", r.accuracy);
    // The GNS can legitimately blank out once the task is solved (the true
    // gradient vanishes and the unbiased |G|² estimate fluctuates around
    // zero), but it must have been live at some point during training.
    assert!(gns_seen, "GNS never became estimable");
}

#[test]
fn adaptive_total_stays_within_the_batch_range_and_the_dataset() {
    // max_batch (128) exceeds the 96-sample dataset: whatever the planner
    // picks — growth bootstrap, held base, goodput sweep — an epoch must
    // still hold one even and one odd step, so B ≤ 96 / 2.
    let mut trainer = ParallelTrainer::builder()
        .dataset(gaussian_blobs(96, 4, 10, 35))
        .model(|seed| mlp_classifier(10, 16, 4, seed))
        .config(config())
        .build()
        .expect("valid config");
    for epoch in 0..6 {
        let r = trainer.run_epoch().expect("epoch");
        assert_eq!(r.local_batches.iter().sum::<u64>(), r.total_batch, "epoch {epoch}");
        assert!((32..=48).contains(&r.total_batch), "epoch {epoch}: total {}", r.total_batch);
    }
}

#[test]
fn parallel_trainer_is_deterministic_in_math() {
    // Wall-clock timings differ between runs (and with them the measured
    // splits), but Eq. (9) makes the global gradient independent of the
    // split, and at a fixed B = B₀ AdaScale's gain is exactly 1 whatever
    // φ is, so the loss sequence must agree run to run up to fp
    // reassociation noise.
    let run = || {
        let ds = gaussian_blobs(512, 4, 10, 34);
        let mut c = config();
        c.adaptive = false;
        c.slowdowns = vec![1.0, 1.0];
        let mut t = ParallelTrainer::builder()
            .dataset(ds)
            .model(|seed| mlp_classifier(10, 24, 4, seed))
            .config(c)
            .build()
            .expect("valid config");
        (0..2).map(|_| t.run_epoch().expect("epoch").mean_loss).collect::<Vec<_>>()
    };
    let (a, b) = (run(), run());
    for (x, y) in a.iter().zip(&b) {
        // Absolute tolerance: once the task converges the losses sit at
        // ~1e-6, where fp reassociation (different splits → different
        // summation orders) dominates relative comparisons. On a
        // saturated host the measured splits can differ a lot between
        // the two runs, and the reassociation difference compounds over
        // ~30 optimizer steps, so the floor is millis, not tenths of one.
        assert!((x - y).abs() < 1e-3 + 1e-3 * x.abs(), "losses diverged: {x} vs {y}");
    }
}
