//! Tables 1, 6 and the §5.3 prediction-accuracy study.

use crate::row;
use cannikin_core::engine::{CannikinTrainer, TrainerConfig};
use cannikin_core::optperf::OptPerfSolver;
use cannikin_core::perf::{Analyzer, MeasurementAggregation};
use cannikin_telemetry::{self as telemetry, Event};
use cannikin_workloads::{clusters, profiles, WorkloadProfile};
use hetsim::catalog::Gpu;
use hetsim::Simulator;

/// Table 1: the NVIDIA data-center GPU evolution rows, printed from the
/// simulator's catalog.
pub fn table1() -> String {
    let widths = [12, 6, 9, 11, 12, 14];
    let mut out = String::from("Table 1 — evolution of NVIDIA data center GPUs\n");
    out += &row(
        &["model".into(), "year".into(), "archit.".into(), "CUDA cores".into(), "memory (GB)".into(), "FP16 (TFLOPS)".into()],
        &widths,
    );
    out.push('\n');
    for gpu in Gpu::table1() {
        let s = gpu.spec();
        out += &row(
            &[
                s.name.into(),
                s.year.to_string(),
                s.architecture.into(),
                s.cuda_cores.to_string(),
                s.memory_gb.to_string(),
                format!("{:.2}", s.fp16_tflops),
            ],
            &widths,
        );
        out.push('\n');
    }
    out
}

/// §5.3: OptPerf prediction error on cluster A with and without
/// inverse-variance weighting of the measurement streams.
pub fn table_prediction() -> String {
    let mut out = String::from("§5.3 — OptPerf prediction error on cluster A (max over batch range)\n");
    let widths = [24, 14, 14];
    out += &row(&["task".into(), "with IVW".into(), "naive mean".into()], &widths);
    out.push('\n');
    for profile in profiles::all() {
        let (ivw, naive) = prediction_errors(&profile, 131);
        out += &row(
            &[profile.name(), format!("{:.1}%", ivw * 100.0), format!("{:.1}%", naive * 100.0)],
            &widths,
        );
        out.push('\n');
    }
    out
}

/// Maximum relative OptPerf prediction error over the workload's batch
/// range on cluster A, for IVW and naive measurement aggregation.
pub fn prediction_errors(profile: &WorkloadProfile, seed: u64) -> (f64, f64) {
    let cluster = clusters::cluster_a();
    let mut sim = Simulator::new(cluster.clone(), profile.job.clone(), seed);
    let n = cluster.len();
    let caps: Vec<Option<u64>> = (0..n).map(|i| Some(sim.max_local_batch(i))).collect();
    let mut ivw = Analyzer::new(n, MeasurementAggregation::InverseVariance).with_max_batches(caps.clone());
    let mut naive = Analyzer::new(n, MeasurementAggregation::NaiveMean).with_max_batches(caps.clone());

    // Measurement phase: a few epochs at different splits, as the engine
    // would produce during bootstrap + early training.
    let b0 = profile.base_batch.max(2 * n as u64);
    let splits = [
        cannikin_core::optperf::even_split(b0, n),
        cannikin_core::optperf::bootstrap_split(&[1.0, 1.4, 5.0], b0),
        cannikin_core::optperf::even_split(b0 * 2, n),
    ];
    for split in &splits {
        for _ in 0..25 {
            let trace = sim.simulate_batch(split);
            ivw.observe_batch(&trace);
            naive.observe_batch(&trace);
        }
    }

    let cap_total: u64 = (0..n).map(|i| sim.max_local_batch(i)).sum();
    let hi = profile.max_batch.min(cap_total);
    let oracle = Simulator::new(cluster, profile.job.clone(), 0).with_noise(0.0, 0.0);
    let mut max_err = (0.0f64, 0.0f64);
    for i in 0..8 {
        let b = (b0 as f64 * (hi as f64 / b0 as f64).powf(i as f64 / 7.0)).round() as u64;
        for (which, analyzer) in [(0usize, &ivw), (1usize, &naive)] {
            let input = analyzer.solver_input().expect("models ready");
            let mut solver = OptPerfSolver::new(input);
            let Ok(plan) = solver.solve(b) else { continue };
            // Ground truth: the real (noise-free) time of the plan the
            // learned model proposed.
            let actual = oracle.ideal_batch_time(&plan.local_batches);
            let err = (plan.opt_perf - actual).abs() / actual;
            if which == 0 {
                max_err.0 = max_err.0.max(err);
            } else {
                max_err.1 = max_err.1.max(err);
            }
        }
    }
    max_err
}

/// Table 6: Cannikin's optimizer overhead per task on cluster B.
pub fn table6() -> String {
    let mut out = String::from("Table 6 — Cannikin overhead on cluster B\n");
    let widths = [24, 14, 18];
    out += &row(&["task".into(), "max overhead".into(), "overall overhead".into()], &widths);
    out.push('\n');
    for profile in profiles::all() {
        let (max_o, overall) = overheads(&profile, 141);
        out += &row(
            &[profile.name(), format!("{:.4}%", max_o * 100.0), format!("{:.4}%", overall * 100.0)],
            &widths,
        );
        out.push('\n');
    }
    out += "\n(The Rust solver is orders of magnitude faster than the paper's Python\n implementation, so the absolute percentages are far below Table 6's;\n the *ordering* — short-epoch tasks pay relatively more — is preserved.)\n";
    out
}

/// `(max per-epoch overhead fraction, whole-run overhead fraction)` of a
/// Cannikin run on cluster B, computed from the telemetry stream the
/// trainer emits (one `epoch_time_s` + one `overhead_s` counter per
/// epoch) rather than from its in-memory epoch records.
pub fn overheads(profile: &WorkloadProfile, seed: u64) -> (f64, f64) {
    let cluster = clusters::cluster_b();
    let base = profile.base_batch.max(cluster.len() as u64);
    let sim = Simulator::new(cluster, profile.job.clone(), seed);
    let config = TrainerConfig::new(profile.dataset_size, base, profile.max_batch);
    let mut trainer = CannikinTrainer::builder()
        .simulator(sim)
        .noise_boxed(Box::new(profile.noise))
        .config(config)
        .build()
        .expect("valid config");

    let session = telemetry::Session::start();
    let target = profile.target_effective_epochs();
    let mut epoch_times = Vec::new();
    let mut overhead_times = Vec::new();
    let mut epochs = 0usize;
    while trainer.effective_epochs() < target && epochs < 400 {
        trainer.run_epoch().expect("run");
        epochs += 1;
        // Drain per epoch: a long run's per-step events would otherwise
        // accumulate in the sink for the whole training job.
        for record in session.drain() {
            if let Event::Counter(c) = &record.event {
                match c.name.as_str() {
                    "epoch_time_s" => epoch_times.push(c.value),
                    "overhead_s" => overhead_times.push(c.value),
                    _ => {}
                }
            }
        }
    }
    drop(session);
    assert_eq!(epoch_times.len(), epochs, "one epoch_time_s counter per epoch");
    assert_eq!(overhead_times.len(), epochs, "one overhead_s counter per epoch");

    let max_o = epoch_times
        .iter()
        .zip(&overhead_times)
        .map(|(&t, &o)| o / (o + t))
        .fold(0.0, f64::max);
    let total_overhead: f64 = overhead_times.iter().sum();
    let total_time: f64 = epoch_times.iter().sum::<f64>() + total_overhead;
    (max_o, total_overhead / total_time)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_contains_all_flagships() {
        let t = table1();
        for name in ["Tesla P100", "Tesla V100", "A100", "H100"] {
            assert!(t.contains(name), "{t}");
        }
        assert!(t.contains("204.9"), "H100 FP16 column");
    }

    #[test]
    fn ivw_prediction_beats_naive() {
        // The §5.3 claim on the small/medium models: IVW keeps the error
        // small while naive averaging inflates it.
        let (ivw, naive) = prediction_errors(&profiles::cifar10_resnet18(), 7);
        assert!(ivw < naive, "ivw {ivw} vs naive {naive}");
        assert!(ivw < 0.10, "ivw error should be small: {ivw}");
    }

    #[test]
    fn overheads_are_small_for_large_models() {
        let (max_o, overall) = overheads(&profiles::squad_bert(), 7);
        assert!(max_o < 0.01, "BERT max overhead {max_o}");
        assert!(overall < 0.01, "BERT overall overhead {overall}");
    }
}
