//! Deterministic matrix runner: one seeded, wall-clock-free measurement
//! per compatible (scenario, subject) cell.
//!
//! Every cell runs under [`SCENARIO_SEED`] with its telemetry session
//! tagged `scenario/subject`, and reduces to a `BTreeMap<String, f64>` of
//! metrics that contain **no wall-clock time**: simulated seconds come
//! from the simulator's physics, byte counts from frame layouts, event
//! counts from the drained session. Two same-seed runs therefore emit
//! byte-identical JSON — `tests/scenarios.rs` holds that property, and CI
//! diffs a fresh run against the committed `BENCH_scenarios.json`.

use std::collections::BTreeMap;

use cannikin_baselines::{time_to_target, System};
use cannikin_core::engine::{EpochRecord, ParallelTrainer, TrainingSubject};
use cannikin_collectives::TransportKind;
use cannikin_telemetry::{Json, Record, Session};
use cannikin_workloads::profiles;
use hetsim::catalog::Gpu;
use hetsim::cluster::{ClusterSpec, NodeSpec};
use hetsim::Simulator;
use minidnn::data::gaussian_blobs;
use minidnn::models::mlp_classifier;

use crate::gate::{compare_metric_maps, Bound, GateCheck};

use super::registry::{matrix, subjects, Capability, ScenarioKind, ScenarioSpec, SubjectKind, SubjectSpec};

/// Pinned seed of every cell in the scenario matrix.
pub const SCENARIO_SEED: u64 = 29;

/// Dataset size of the simulated workload (ResNet-18/CIFAR-10 slice).
const SIM_DATASET: usize = 6_400;
/// Base (and fixed-subject) total batch of the simulated workload.
const SIM_BASE_BATCH: u64 = 64;
/// Adaptive-subject batch ceiling.
const SIM_MAX_BATCH: u64 = 512;

/// One measured cell of the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Scenario id.
    pub scenario: String,
    /// Subject id.
    pub subject: String,
    /// Wall-clock-free metrics, name-sorted (stable JSON key order).
    pub metrics: BTreeMap<String, f64>,
}

/// The full matrix report — what `BENCH_scenarios.json` commits.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioBenchReport {
    /// Seed every cell ran under.
    pub seed: u64,
    /// Every compatible cell, in matrix order.
    pub cells: Vec<CellResult>,
    /// Per-scenario `adaptive_vs_static` goodput ratios (Cannikin over
    /// the best static subject in the same scenario).
    pub ratios: BTreeMap<String, f64>,
}

fn sim_cluster() -> ClusterSpec {
    ClusterSpec::new(
        "scenarios",
        vec![
            NodeSpec::new("a100", Gpu::A100),
            NodeSpec::new("v100", Gpu::V100),
            NodeSpec::new("rtx", Gpu::Rtx6000),
        ],
    )
}

/// Reduce a sim run to wall-clock-free metrics: simulated seconds come
/// from the simulated clock (`epoch_time`, `cumulative_time`), which no
/// host measurement reaches.
fn sim_metrics(records: &[EpochRecord], target: f64, drained: &[Record]) -> BTreeMap<String, f64> {
    let mut metrics = BTreeMap::new();
    let sim_time: f64 = records.iter().map(|r| r.epoch_time).sum();
    let final_eff = records.last().map(|r| r.effective_epochs).unwrap_or(0.0);
    metrics.insert("epochs".into(), records.len() as f64);
    metrics.insert("steps".into(), records.iter().map(|r| r.steps as f64).sum());
    metrics.insert("sim_time_s".into(), sim_time);
    metrics.insert("final_effective_epochs".into(), final_eff);
    if sim_time > 0.0 {
        metrics.insert("goodput_eff_epochs_per_hour".into(), final_eff / sim_time * 3_600.0);
    }
    if let Some(t) = time_to_target(records, target) {
        metrics.insert("time_to_target_s".into(), t);
    }
    metrics.insert("faults".into(), records.iter().map(|r| f64::from(r.faults)).sum());
    metrics.insert("recoveries".into(), records.iter().map(|r| f64::from(r.recoveries)).sum());
    metrics.insert("final_total_batch".into(), records.last().map(|r| r.total_batch as f64).unwrap_or(0.0));
    let count = |kind: &str| drained.iter().filter(|r| r.event.kind() == kind).count() as f64;
    metrics.insert("split_decisions".into(), count("split_decision"));
    metrics.insert("solver_invocations".into(), count("solver_invocation"));
    // A simulated run moves no bytes; the metric is there so every cell of
    // the report carries the same gated pair.
    metrics.insert("comm_bytes".into(), records.iter().map(|r| r.comm_bytes as f64).sum());
    metrics
}

fn run_sim_cell(scenario: &ScenarioSpec, subject: &SubjectSpec, system: System) -> BTreeMap<String, f64> {
    let (plan, target, max_epochs) = match &scenario.kind {
        ScenarioKind::Sim { plan, target, max_epochs } => (*plan, *target, *max_epochs),
        ScenarioKind::Real { .. } => unreachable!("checked by the caller"),
    };
    let session = Session::start();
    let profile = profiles::cifar10_resnet18();
    let mut sim = Simulator::new(sim_cluster(), profile.job, SCENARIO_SEED);
    if let Some(build) = plan {
        sim = sim.with_fault_plan(build(SCENARIO_SEED));
    }
    let mut trainer = system
        .build(sim, profile.noise, SIM_DATASET, SIM_BASE_BATCH, SIM_MAX_BATCH)
        .expect("valid scenario config");
    let records = trainer
        .train_until(target, max_epochs)
        .unwrap_or_else(|e| panic!("{}/{} failed: {e}", scenario.name, subject.name));
    drop(trainer); // flush every worker's telemetry before draining
    let drained = session.drain();
    sim_metrics(&records, target, &drained)
}

fn run_real_cell(scenario: &ScenarioSpec, subject: &SubjectSpec, tcp: bool) -> BTreeMap<String, f64> {
    let (faults, epochs) = match &scenario.kind {
        ScenarioKind::Real { faults, epochs } => (*faults, *epochs),
        ScenarioKind::Sim { .. } => unreachable!("checked by the caller"),
    };
    let codec = match &subject.kind {
        SubjectKind::Real { codec, .. } => *codec,
        SubjectKind::Sim(_) => unreachable!("checked by the caller"),
    };
    let transport = if tcp { TransportKind::tcp() } else { TransportKind::InProcess };
    let mut builder = ParallelTrainer::builder()
        .dataset(gaussian_blobs(256, 10, 16, 11))
        .model(|seed| mlp_classifier(16, 32, 10, seed))
        .slowdowns(vec![1.0, 1.5])
        .batch_range(64, 64)
        .adaptive(false)
        .seed(SCENARIO_SEED)
        .transport(transport)
        .codec(codec)
        .overlap(false);
    if let Some(build) = faults {
        builder = builder.comm_faults(build(SCENARIO_SEED));
    }
    let records = builder
        .build()
        .expect("valid scenario config")
        .run_epochs(epochs)
        .unwrap_or_else(|e| panic!("{}/{} failed: {e}", scenario.name, subject.name));

    let mut metrics = BTreeMap::new();
    let last = records.last().expect("at least one epoch");
    metrics.insert("epochs".into(), records.len() as f64);
    metrics.insert("final_mean_loss".into(), last.mean_loss);
    metrics.insert("final_accuracy".into(), last.accuracy);
    metrics.insert("final_total_batch".into(), last.total_batch as f64);
    metrics.insert("comm_bytes".into(), records.iter().map(|r| r.comm_bytes as f64).sum());
    // The real path's recoveries are its gradient-exchange retries.
    metrics.insert("comm_retries".into(), records.iter().map(|r| f64::from(r.recoveries)).sum());
    metrics
}

/// Run one cell (the pair must be compatible) and reduce it to metrics.
///
/// # Panics
///
/// Panics if the pair crosses kinds or the subject's run fails — both are
/// registry bugs, not measurement outcomes.
pub fn run_cell(scenario: &ScenarioSpec, subject: &SubjectSpec) -> CellResult {
    let metrics = match (&scenario.kind, &subject.kind) {
        (ScenarioKind::Sim { .. }, SubjectKind::Sim(system)) => run_sim_cell(scenario, subject, *system),
        (ScenarioKind::Real { .. }, SubjectKind::Real { tcp, .. }) => run_real_cell(scenario, subject, *tcp),
        _ => panic!("{}/{}: scenario and subject kinds cross", scenario.name, subject.name),
    };
    CellResult { scenario: scenario.name.to_string(), subject: subject.name.to_string(), metrics }
}

/// The scenarios whose `adaptive_vs_static` ratio is gated: every
/// fault/churn condition of the sim matrix.
pub const RATIO_SCENARIOS: [&str; 5] =
    ["diurnal-contention", "straggler-onset", "flaky-network", "spot-preemption", "cluster-churn"];

fn goodput(cells: &[CellResult], scenario: &str, subject: &str) -> Option<f64> {
    cells
        .iter()
        .find(|c| c.scenario == scenario && c.subject == subject)
        .and_then(|c| c.metrics.get("goodput_eff_epochs_per_hour").copied())
}

/// Per-scenario goodput of Cannikin over the best *static* subject in
/// the same scenario: the highest goodput among the cells whose subject
/// does not provide [`Capability::AdaptiveBatch`].
pub fn adaptive_vs_static(cells: &[CellResult]) -> BTreeMap<String, f64> {
    let adaptive_subjects: Vec<&str> =
        subjects().into_iter().filter(|s| s.provides.contains(&Capability::AdaptiveBatch)).map(|s| s.name).collect();
    let mut ratios = BTreeMap::new();
    for scenario in RATIO_SCENARIOS {
        let adaptive = goodput(cells, scenario, "cannikin");
        let best_static = cells
            .iter()
            .filter(|c| c.scenario == scenario && !adaptive_subjects.contains(&c.subject.as_str()))
            .filter_map(|c| c.metrics.get("goodput_eff_epochs_per_hour").copied())
            .reduce(f64::max);
        if let (Some(a), Some(s)) = (adaptive, best_static) {
            if s > 0.0 {
                ratios.insert(scenario.to_string(), a / s);
            }
        }
    }
    ratios
}

/// Run the whole compatible matrix under the pinned seed.
pub fn scenario_report() -> ScenarioBenchReport {
    let cells: Vec<CellResult> = matrix().iter().map(|(scenario, subject)| run_cell(scenario, subject)).collect();
    let ratios = adaptive_vs_static(&cells);
    ScenarioBenchReport { seed: SCENARIO_SEED, cells, ratios }
}

impl CellResult {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("scenario".into(), Json::Str(self.scenario.clone())),
            ("subject".into(), Json::Str(self.subject.clone())),
            (
                "metrics".into(),
                Json::Obj(self.metrics.iter().map(|(k, v)| (k.clone(), Json::num(*v))).collect()),
            ),
        ])
    }

    fn from_json(json: &Json) -> Result<CellResult, String> {
        let str_field = |name: &str| -> Result<String, String> {
            match json.get(name) {
                Some(Json::Str(s)) => Ok(s.clone()),
                _ => Err(format!("cell is missing string `{name}`")),
            }
        };
        let scenario = str_field("scenario")?;
        let subject = str_field("subject")?;
        let mut metrics = BTreeMap::new();
        match json.get("metrics") {
            Some(Json::Obj(entries)) => {
                for (name, value) in entries {
                    let v = value
                        .as_f64()
                        .ok_or_else(|| format!("{scenario}/{subject}: metric `{name}` is not a number"))?;
                    metrics.insert(name.clone(), v);
                }
            }
            _ => return Err(format!("{scenario}/{subject}: missing `metrics` object")),
        }
        Ok(CellResult { scenario, subject, metrics })
    }
}

impl ScenarioBenchReport {
    /// Serialize for `BENCH_scenarios.json` (stable key order).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str("cannikin-scenarios-v1".into())),
            ("seed".into(), Json::num(self.seed as f64)),
            ("cells".into(), Json::Arr(self.cells.iter().map(CellResult::to_json).collect())),
            (
                "ratios".into(),
                Json::Obj(self.ratios.iter().map(|(k, v)| (k.clone(), Json::num(*v))).collect()),
            ),
        ])
    }

    /// Reconstruct from `BENCH_scenarios.json` (the `gate scenarios`
    /// baseline side).
    pub fn from_json(json: &Json) -> Result<ScenarioBenchReport, String> {
        let seed = json
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or_else(|| "missing numeric `seed`".to_string())? as u64;
        let cells = match json.get("cells") {
            Some(Json::Arr(items)) => {
                items.iter().map(CellResult::from_json).collect::<Result<Vec<_>, _>>()?
            }
            _ => return Err("missing `cells` array".into()),
        };
        let mut ratios = BTreeMap::new();
        if let Some(Json::Obj(entries)) = json.get("ratios") {
            for (name, value) in entries {
                let v = value.as_f64().ok_or_else(|| format!("ratio `{name}` is not a number"))?;
                ratios.insert(name.clone(), v);
            }
        }
        Ok(ScenarioBenchReport { seed, cells, ratios })
    }

    /// Look up a cell by ids.
    pub fn cell(&self, scenario: &str, subject: &str) -> Option<&CellResult> {
        self.cells.iter().find(|c| c.scenario == scenario && c.subject == subject)
    }

    /// The gate against the committed baseline `base`:
    ///
    /// - every `adaptive_vs_static` goodput ratio must stay at or above
    ///   `max(1.0, baseline·(1−tol))` — Cannikin losing to a static subject
    ///   on any fault/churn scenario fails outright, whatever the baseline;
    /// - every baseline cell must still exist (a vanished cell means the
    ///   registry silently shrank);
    /// - per surviving cell, `goodput_eff_epochs_per_hour` floors and
    ///   `comm_bytes` ceilings at the tolerance.
    pub fn checks(&self, base: &ScenarioBenchReport, tol: f64) -> Vec<GateCheck> {
        let mut checks = Vec::new();
        for (scenario, &baseline) in &base.ratios {
            checks.push(GateCheck::floor(
                format!("{scenario}.adaptive_vs_static"),
                // A vanished ratio is NaN, which fails either bound.
                self.ratios.get(scenario).copied().unwrap_or(f64::NAN),
                baseline,
                (baseline * (1.0 - tol)).max(1.0),
                tol,
            ));
        }
        for cell in &base.cells {
            let label = format!("{}/{}", cell.scenario, cell.subject);
            let Some(current) = self.cell(&cell.scenario, &cell.subject) else {
                checks.push(GateCheck::floor(format!("{label}.present"), f64::NAN, 1.0, 1.0, 0.0));
                continue;
            };
            let pick = |metrics: &BTreeMap<String, f64>, name: &str| -> BTreeMap<String, f64> {
                metrics.get(name).map(|&v| BTreeMap::from([(name.to_string(), v)])).unwrap_or_default()
            };
            for (metric, bound) in [("goodput_eff_epochs_per_hour", Bound::Floor), ("comm_bytes", Bound::Ceiling)] {
                checks.extend(compare_metric_maps(
                    &format!("{label}."),
                    &pick(&current.metrics, metric),
                    &pick(&cell.metrics, metric),
                    bound,
                    tol,
                ));
            }
        }
        checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::registry::{registry, subjects};

    #[test]
    fn report_json_round_trips() {
        let mut metrics = BTreeMap::new();
        metrics.insert("epochs".to_string(), 4.0);
        metrics.insert("goodput_eff_epochs_per_hour".to_string(), 123.456);
        let report = ScenarioBenchReport {
            seed: SCENARIO_SEED,
            cells: vec![CellResult {
                scenario: "calm-baseline".into(),
                subject: "cannikin".into(),
                metrics,
            }],
            ratios: BTreeMap::from([("spot-preemption".to_string(), 1.25)]),
        };
        let text = report.to_json().to_string_compact();
        let parsed = Json::parse(&text).expect("valid json");
        let back = ScenarioBenchReport::from_json(&parsed).expect("complete report");
        assert_eq!(back, report);
    }

    #[test]
    fn one_sim_cell_runs_and_reduces() {
        let scenario = registry().into_iter().find(|s| s.name == "spot-preemption").expect("registered");
        let subject = subjects().into_iter().find(|s| s.name == "cannikin-fixed").expect("registered");
        let cell = run_cell(&scenario, &subject);
        assert!(cell.metrics["final_effective_epochs"] >= 3.0, "reaches the target");
        assert!(cell.metrics["faults"] >= 1.0, "the preemption was observed");
        assert!(cell.metrics["recoveries"] >= 2.0, "evict + replan + join all count");
        assert!(cell.metrics["goodput_eff_epochs_per_hour"] > 0.0);
        assert!(cell.metrics.contains_key("time_to_target_s"));
    }

    fn cell(scenario_name: &str, subject_name: &str) -> CellResult {
        let scenario = registry().into_iter().find(|s| s.name == scenario_name).expect("registered");
        let subject = subjects().into_iter().find(|s| s.name == subject_name).expect("registered");
        run_cell(&scenario, &subject)
    }

    #[test]
    fn rl_policy_beats_even_split_under_faults() {
        // Acceptance floor for the bandit: on a heterogeneous cluster
        // under fault pressure, learning the batch while splitting with
        // the solver must out-goodput the homogeneous even split.
        for scenario in ["straggler-onset", "diurnal-contention"] {
            let rl = cell(scenario, "policy-rl").metrics["goodput_eff_epochs_per_hour"];
            let even = cell(scenario, "adaptdl").metrics["goodput_eff_epochs_per_hour"];
            assert!(rl >= even, "{scenario}: policy-rl goodput {rl} should be >= adaptdl {even}");
        }
    }

    #[test]
    fn the_ratio_divides_by_the_best_static_subject() {
        let cell = |scenario: &str, subject: &str, goodput: f64| CellResult {
            scenario: scenario.into(),
            subject: subject.into(),
            metrics: BTreeMap::from([("goodput_eff_epochs_per_hour".to_string(), goodput)]),
        };
        let cells = vec![
            cell("straggler-onset", "cannikin", 600.0),
            cell("straggler-onset", "cannikin-fixed", 400.0),
            cell("straggler-onset", "adaptdl", 550.0),
            cell("straggler-onset", "ddp", 300.0),
            cell("straggler-onset", "lbbsp", 500.0),
            cell("straggler-onset", "policy-rl", 590.0),
            cell("spot-preemption", "cannikin", 450.0),
            cell("spot-preemption", "cannikin-fixed", 300.0),
        ];
        let ratios = adaptive_vs_static(&cells);
        // LB-BSP beats DDP and the fixed-batch reference; the adaptive
        // subjects (AdaptDL, the bandit) are not static references.
        assert_eq!(ratios["straggler-onset"], 600.0 / 500.0);
        assert_eq!(ratios["spot-preemption"], 450.0 / 300.0);
        assert_eq!(ratios.len(), 2, "a scenario without cells has no ratio");
    }

    #[test]
    fn one_real_cell_runs_and_reduces() {
        let scenario = registry().into_iter().find(|s| s.name == "lan-clean").expect("registered");
        let subject = subjects().into_iter().find(|s| s.name == "parallel-inproc").expect("registered");
        let cell = run_cell(&scenario, &subject);
        assert_eq!(cell.metrics["epochs"], 1.0);
        assert!(cell.metrics["comm_bytes"] > 0.0);
        assert!(cell.metrics["final_mean_loss"].is_finite());
    }
}
