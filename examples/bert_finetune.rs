//! Data-parallel fine-tuning of a miniature BERT with real gradients.
//!
//! ```text
//! cargo run --release --example bert_finetune
//! ```
//!
//! The Table 5 SQuAD/BERT workload at laptop scale: a 2-layer transformer
//! encoder (`minidnn::models::MiniBert`) trains on synthetic token
//! sequences across three emulated heterogeneous workers. Each step the
//! workers exchange gradients through the real bucketed ring all-reduce
//! with Eq. (9) batch-ratio weights (their shards are deliberately uneven,
//! mimicking an OptPerf split), estimate the gradient noise scale with
//! Eq. (10) + Theorem 4.1, and apply identical AdamW updates so the
//! replicas stay synchronized.

use cannikin::collectives::CommGroup;
use cannikin::core::gns::{estimate_gns, Aggregation, GnsTracker, GradientSample};
use cannikin::dnn::data::token_sequences;
use cannikin::dnn::layers::{assign_values, flatten_values};
use cannikin::dnn::models::MiniBert;
use cannikin::dnn::optim::{AdamW, Optimizer};
use cannikin::dnn::tensor::Tensor;
use std::sync::Arc;
use std::thread;

const VOCAB: usize = 48;
const SEQ: usize = 10;
const CLASSES: usize = 4;

fn main() {
    let dataset = Arc::new(token_sequences(1536, VOCAB, SEQ, CLASSES, 7));
    // An OptPerf-style uneven split: the "A100" takes half the batch.
    let shards: [u64; 3] = [24, 16, 8];
    let total: u64 = shards.iter().sum();
    println!("mini-BERT (2 layers, dim 16), 3 workers with shards {shards:?} of B={total}\n");

    let reference = MiniBert::new(VOCAB, SEQ, 16, 2, 2, CLASSES, 99);
    let init = flatten_values(&reference.parameters()).into_data();

    let epochs = 4;
    let steps_per_epoch = dataset.len() / total as usize;
    let comms = CommGroup::create(3);
    let handles: Vec<_> = comms
        .into_iter()
        .enumerate()
        .map(|(rank, comm)| {
            let dataset = Arc::clone(&dataset);
            let init = init.clone();
            thread::spawn(move || {
                let mut model = MiniBert::new(VOCAB, SEQ, 16, 2, 2, CLASSES, 99);
                let flat = Tensor::from_vec(init, &[model.parameters().iter().map(|p| p.len()).sum()]).unwrap();
                assign_values(&mut model.parameters_mut(), &flat);
                let mut opt = AdamW::new(4e-3).weight_decay(0.01);
                let mut tracker = GnsTracker::new(0.9);
                let ratio = shards[rank] as f32 / total as f32;
                let mut report = Vec::new();
                for epoch in 0..epochs {
                    let mut loss_sum = 0.0f64;
                    for step in 0..steps_per_epoch {
                        // Deterministic shard: worker `rank` reads its slice
                        // of the step's contiguous index window.
                        let start = step * total as usize
                            + shards[..rank].iter().sum::<u64>() as usize;
                        let idx: Vec<usize> =
                            (start..start + shards[rank] as usize).map(|i| i % dataset.len()).collect();
                        let (seqs, labels) = dataset.batch(&idx);
                        for p in model.parameters_mut() {
                            p.zero_grad();
                        }
                        let loss = model.train_step(&seqs, &labels);
                        loss_sum += f64::from(loss);

                        // Eq. (9) weighted gradient exchange + GNS inputs.
                        let mut g: Vec<f32> = model
                            .parameters()
                            .iter()
                            .flat_map(|p| p.grad.data().iter().copied())
                            .collect();
                        let local_sq: f64 = g.iter().map(|&v| f64::from(v) * f64::from(v)).sum();
                        comm.exchange(&mut g, ratio, None, None).expect("gradient exchange");
                        let global_sq: f64 = g.iter().map(|&v| f64::from(v) * f64::from(v)).sum();
                        let rows = comm.gather(&[shards[rank] as f64, local_sq]).expect("metric gather");
                        let samples: Vec<GradientSample> = rows
                            .iter()
                            .map(|r| GradientSample { local_batch: r[0] as u64, local_sq_norm: r[1] })
                            .collect();
                        if let Ok(est) = estimate_gns(&samples, global_sq, Aggregation::MinimumVariance) {
                            tracker.observe(est);
                        }
                        let flat_g = Tensor::from_vec(g, &[flat.len()]).unwrap();
                        cannikin::dnn::layers::assign_grads(&mut model.parameters_mut(), &flat_g);
                        opt.step(&mut model.parameters_mut());
                    }
                    // Evaluate on a held-out slice (every rank computes the
                    // same number since replicas are identical).
                    let eval_idx: Vec<usize> = (0..256).collect();
                    let (seqs, labels) = dataset.batch(&eval_idx);
                    let acc = model.accuracy(&seqs, &labels);
                    report.push((epoch, loss_sum / steps_per_epoch as f64, acc, tracker.noise_scale()));
                }
                (rank, report)
            })
        })
        .collect();

    let mut results: Vec<_> = handles.into_iter().map(|h| h.join().expect("worker")).collect();
    results.sort_by_key(|(rank, _)| *rank);
    println!("{:>5}  {:>9}  {:>9}  {:>10}", "epoch", "loss", "accuracy", "GNS");
    for (epoch, loss, acc, gns) in &results[0].1 {
        println!(
            "{epoch:>5}  {loss:>9.4}  {:>8.1}%  {:>10}",
            acc * 100.0,
            gns.map_or("-".to_string(), |p| format!("{p:.1}"))
        );
    }
    // Replicas must agree bit-for-bit on the evaluation accuracy.
    for (rank, report) in &results[1..] {
        assert_eq!(report.last().unwrap().2, results[0].1.last().unwrap().2, "rank {rank} diverged");
    }
    println!("\nall three replicas report identical accuracy — the weighted ring");
    println!("all-reduce kept them synchronized despite the uneven shards");
}
