//! Functional data-parallel training on an emulated heterogeneous cluster.
//!
//! ```text
//! cargo run --release --example hetero_training
//! ```
//!
//! Three OS threads play three nodes of different speeds (1x, 2x, 4x
//! slowdown). Each trains a real `minidnn` MLP on a synthetic
//! classification task; gradients flow through the real bucketed ring
//! all-reduce with the Eq. (9) batch-ratio weighting, the gradient noise
//! scale is estimated live with Eq. (10) + Theorem 4.1, and Cannikin's
//! control loop rebalances the local batches once its performance models
//! are learned.

use cannikin::dnn::data::gaussian_blobs;
use cannikin::dnn::models::mlp_classifier;
use cannikin::prelude::*;

fn main() {
    let dataset = gaussian_blobs(9216, 32, 10, 11); // 32 overlapping classes in 10-D
    let mut trainer = ParallelTrainer::builder()
        .dataset(dataset)
        .model(|seed| mlp_classifier(10, 64, 32, seed))
        .slowdowns(vec![1.0, 2.0, 4.0])
        .batch_range(96, 768)
        .adaptive(true)
        .base_lr(0.02)
        .seed(42)
        .build()
        .expect("valid configuration");

    println!("3 emulated nodes (slowdowns 1x / 2x / 4x), 9216-sample synthetic task\n");
    println!("{:>5}  {:>6}  {:>16}  {:>9}  {:>8}  {:>8}  {:>9}  {:>6}", "epoch", "B", "split", "time (s)", "loss", "acc", "GNS", "model");
    for _ in 0..8 {
        let r = trainer.run_epoch().expect("epoch");
        println!(
            "{:>5}  {:>6}  {:>16}  {:>9.3}  {:>8.4}  {:>7.1}%  {:>9}  {:>6}",
            r.epoch,
            r.total_batch,
            format!("{:?}", r.local_batches),
            r.epoch_time,
            r.mean_loss,
            r.accuracy * 100.0,
            r.noise_scale.map_or("-".to_string(), |p| format!("{p:.1}")),
            if r.used_model { "yes" } else { "boot" },
        );
    }
    println!("\nthe 1x node ends up carrying several times the 4x node's share — via the");
    println!("learned model when per-step timings are clean, or the Eq. (8) bootstrap");
    println!("when they are not (e.g. on a single-core machine where ranks timeshare)");
}
