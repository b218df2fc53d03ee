//! The `insight` experiment: the §6 contention scenario diagnosed by
//! `cannikin-insight` — five healthy epochs on cluster B, a mid-run
//! contention injection on node 0, and the replay of the drained trace,
//! which reports the analyzer's regime change (the one that re-profiles
//! the node) as a straggler next to each plan's calibration error.

use crate::row;
use cannikin_core::engine::{CannikinTrainer, TrainerConfig, TrainingSubject};
use cannikin_insight::{replay, InsightConfig};
use cannikin_telemetry as telemetry;
use cannikin_workloads::{clusters, profiles};
use hetsim::Simulator;
use std::collections::BTreeMap;

const HEALTHY_EPOCHS: usize = 5;
const DEGRADED_EPOCHS: usize = 5;

/// Run the contention scenario and render the trace replay and the
/// split's reaction.
pub fn insight_run() -> String {
    let profile = profiles::cifar10_resnet18();
    let cluster = clusters::cluster_b();
    let base = profile.base_batch.max(cluster.len() as u64);
    let sim = Simulator::new(cluster, profile.job.clone(), 157);
    // Fixed total batch: the experiment is about the *split* reacting to
    // contention, so the goodput dimension is pinned.
    let mut config = TrainerConfig::new(12_800, base, profile.max_batch);
    config.adaptive_batch = false;
    let mut trainer = CannikinTrainer::builder()
        .simulator(sim)
        .noise(profile.noise)
        .config(config)
        .build()
        .expect("valid config");

    let session = telemetry::Session::start();
    let mut epochs = trainer.run_epochs(HEALTHY_EPOCHS).expect("healthy run");
    // §6: node 0 (an A100) loses 60% of its compute to a co-located job.
    trainer.simulator_mut().set_contention(0, 0.4);
    epochs.extend(trainer.run_epochs(DEGRADED_EPOCHS).expect("degraded run"));
    let records = session.drain();
    drop(session);

    let report = replay::analyze(&records, InsightConfig {});

    let mut out = format!(
        "insight — contention injected on node 0 after epoch {} ({} events recorded)\n\n",
        HEALTHY_EPOCHS - 1,
        records.len()
    );
    out += &report.render();

    let mut kinds: BTreeMap<&'static str, usize> = BTreeMap::new();
    for a in &report.anomalies {
        *kinds.entry(a.kind.as_str()).or_default() += 1;
    }
    out += "\nanomalies by kind:\n";
    for (kind, count) in &kinds {
        out += &format!("  {kind}: {count}\n");
    }
    if let Some(first) = report.anomalies.iter().find(|a| a.node == Some(0)) {
        out += &format!(
            "first node-0 anomaly: {} at step {} ({:.4}s expected, {:.4}s observed)\n",
            first.kind.as_str(),
            first.step,
            first.expected,
            first.observed
        );
    }

    // The split's reaction: node 0's share collapses once the analyzer
    // drops its stale law and re-profiles it, then the model re-engages on
    // the slowed coefficients.
    out.push('\n');
    let widths = [6, 7, 8, 11, 10];
    out += &row(
        &["epoch".into(), "total".into(), "node 0".into(), "model".into(), "note".into()],
        &widths,
    );
    out.push('\n');
    for r in &epochs {
        let note = if r.epoch == HEALTHY_EPOCHS { "<- contention" } else { "" };
        out += &row(
            &[
                r.epoch.to_string(),
                r.total_batch.to_string(),
                r.local_batches[0].to_string(),
                if r.used_model { "solver" } else { "profile" }.to_string(),
                note.to_string(),
            ],
            &widths,
        );
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_is_reported_as_the_node_0_straggler() {
        let out = insight_run();
        assert!(out.contains("anomalies: 1\n  [straggler] step 4 node 0 "), "{out}");
        assert!(out.contains("anomalies by kind:\n  straggler: 1\n"), "{out}");
    }
}
