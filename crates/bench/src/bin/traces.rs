//! Dump plotting-ready CSV series for the convergence figures.
//!
//! ```text
//! traces <output-dir>
//! ```
//!
//! Writes one CSV per (figure, task): the Fig. 6 epoch series for
//! CIFAR-10 and the Fig. 7 metric-vs-time series for every system on
//! CIFAR-10 and ImageNet. Columns are self-describing; feed them to any
//! plotting tool to recreate the paper's visuals from this reproduction.

use cannikin_baselines::System;
use cannikin_bench::runners::run_to_target;
use cannikin_workloads::{clusters, profiles};
use std::fs;
use std::io::Write;
use std::path::Path;

fn main() -> std::io::Result<()> {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| "traces_out".to_string());
    fs::create_dir_all(&out_dir)?;
    let cluster = clusters::cluster_b();

    for profile in [profiles::cifar10_resnet18(), profiles::imagenet_resnet50()] {
        let slug = profile.name().replace('/', "_").to_lowercase();
        for system in System::PAPER {
            let records = run_to_target(system, &profile, &cluster, 7, 20_000).map_err(std::io::Error::other)?;
            let path = Path::new(&out_dir).join(format!("{}_{}.csv", slug, system.label().to_lowercase().replace('-', "_")));
            let mut file = fs::File::create(&path)?;
            writeln!(
                file,
                "epoch,total_batch,steps,epoch_time_s,cumulative_time_s,effective_epochs,efficiency,noise_scale,metric"
            )?;
            for r in &records {
                writeln!(
                    file,
                    "{},{},{},{:.6},{:.6},{:.6},{:.6},{:.3},{:.6}",
                    r.epoch,
                    r.total_batch,
                    r.steps,
                    r.epoch_time,
                    r.cumulative_time,
                    r.effective_epochs,
                    r.efficiency,
                    r.noise_scale.unwrap_or(f64::NAN),
                    profile.metric_at(r.effective_epochs),
                )?;
            }
            eprintln!("wrote {} ({} epochs)", path.display(), records.len());
        }
    }
    eprintln!("done; plot metric vs cumulative_time_s for the Fig. 7 curves");
    Ok(())
}
