//! Adaptive batch sizing vs fixed-batch training (the Fig. 6/7 mechanism).
//!
//! ```text
//! cargo run --release --example adaptive_vs_fixed
//! ```
//!
//! Trains the CIFAR-10 profile on cluster B three ways — PyTorch-DDP-style
//! (fixed batch, even split), Cannikin with the batch pinned to B₀ (split
//! adaptation only), and full Cannikin (goodput-adaptive batch + OptPerf
//! splits) — and prints time-to-target for each.

use cannikin::baselines::System;
use cannikin::prelude::*;
use cannikin::workloads::{clusters, profiles};

fn main() {
    let profile = profiles::cifar10_resnet18();
    let cluster = clusters::cluster_b();
    let target = profile.target_effective_epochs();
    println!("{} on cluster {}: target {} = {:.0}%\n", profile.name(), cluster.name, profile.target.name, profile.target.value * 100.0);

    // Every system trains the same job on the same cluster and seed,
    // from B = 64; only the adaptive one may grow it.
    let run = |system: System| {
        let sim = Simulator::new(cluster.clone(), profile.job.clone(), 5);
        let mut subject = system
            .build(sim, profile.noise, profile.dataset_size, 64, profile.max_batch)
            .expect("valid configuration");
        subject.train_until(target, 5000).expect("run")
    };
    // 1. PyTorch DDP: fixed B, even split.
    let t_ddp = run(System::Ddp).last().expect("ran").cumulative_time;
    // 2. Cannikin, batch pinned: only the local split adapts.
    let t_fixed = run(System::CannikinFixed).last().expect("ran").cumulative_time;
    // 3. Full Cannikin.
    let full_records = run(System::Cannikin);
    let t_full = full_records.last().expect("ran").cumulative_time;
    let b_final = full_records.last().expect("ran").total_batch;

    println!("{:<38} {:>12} {:>10}", "system", "time to 94%", "vs DDP");
    println!("{:<38} {:>11.0}s {:>10}", "PyTorch DDP (fixed B, even split)", t_ddp, "1.00x");
    println!("{:<38} {:>11.0}s {:>9.2}x", "Cannikin split-only (fixed B)", t_fixed, t_ddp / t_fixed);
    println!("{:<38} {:>11.0}s {:>9.2}x", "Cannikin full (adaptive B)", t_full, t_ddp / t_full);
    println!("\nthe split alone buys the straggler factor; the adaptive batch (final B = {b_final})");
    println!("buys the rest by amortizing communication once the gradient noise allows it");
}
