//! The metric registry: every name the benchmark prints, with its unit,
//! direction and — for end-to-end metrics — the bound by which it may
//! worsen. `BENCHMARK.json` lists exactly these (a test holds the two
//! together) and `README.md` explains them.

use cannikin::telemetry::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system would see, with its regression bound
/// (share of the parent's median).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A metric of one layer, measured in the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// Workload names and the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "real-compute",
        "ParallelTrainer, 3 ranks [1,2,4], blobs(4096,10,128) mlp(128,512,10) B=512, in-process raw f32, no overlap: dnn does most of the step, so a comm change predicts no change",
    ),
    (
        "real-comm",
        "ParallelTrainer, 3 ranks [1,2,4], blobs(192,10,256) mlp(256,1024,10) B=24, TCP bf16+EF, no overlap: the exchange and waiting for it are half the step, so a GEMM change predicts little change",
    ),
    (
        "sim-plan",
        "CannikinTrainer on 16-GPU cluster B x 5 paper profiles to target, adaptive batch, OptPerf+goodput: control plane with zero tensor work, repeated warm solves on one cluster",
    ),
    (
        "fleet-stream",
        "FleetController, 200 six-job synthetic traces on the 8-node mixed pool, step() loop: the same solver layers driven cold over ever-changing node subsets",
    ),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports every one of these (the driver's contract), so
/// each is defined in the workload's own unit of work and own clock;
/// README.md maps them to `samples_per_s`, `sim_steps_per_s`,
/// `fleet_ticks_per_s`, `sim_time_to_target_s`, `fleet_goodput`, ….
///
/// The wall-clock bounds are the contract's widest: the sandbox's noisy
/// neighbours shift a whole run by 10–25% for minutes at a time.
/// `result_goodput` holds no wall time, so its bound is tight.
pub const END_TO_END: [EndToEnd; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("work_per_s", "1/s", Better::Higher, 0.25),
    e2e("result_goodput", "samples/tick", Better::Higher, 0.10),
];

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

/// Per-layer metrics, grouped by the repository's modules. A workload
/// that does not run a layer reports 0 for that layer's metrics.
pub const PER_LAYER: [PerLayer; 63] = [
    // dnn (minidnn)
    hi("dnn.gemm_gflops", "GFLOP/s"),
    hi("dnn.gemm_skinny_gflops", "GFLOP/s"),
    lo("dnn.batch_load_us_per_step", "us"),
    lo("dnn.forward_ms_per_step", "ms"),
    lo("dnn.backward_ms_per_step", "ms"),
    lo("dnn.flatten_ms_per_step", "ms"),
    lo("dnn.optimizer_ms_per_step", "ms"),
    lo("dnn.eval_ms_per_epoch", "ms"),
    lo("dnn.model_build_ms", "ms"),
    lo("dnn.step_share", "fraction"),
    hi("dnn.train_accuracy", "fraction"),
    // collectives
    lo("collectives.allreduce_ms_per_step", "ms"),
    hi("collectives.allreduce_gbps", "GB/s"),
    hi("collectives.allreduce_vs_memcpy", "ratio"),
    lo("collectives.wire_bytes_per_step", "bytes"),
    lo("collectives.wire_bytes_per_sample", "bytes"),
    lo("collectives.calls_per_step", "count"),
    hi("collectives.codec_encode_gbps", "GB/s"),
    hi("collectives.codec_decode_gbps", "GB/s"),
    lo("collectives.group_setup_ms", "ms"),
    lo("collectives.gather_us_per_step", "us"),
    lo("collectives.exposed_ms_per_step", "ms"),
    hi("collectives.hidden_s_per_epoch", "s"),
    hi("collectives.overlap_speedup", "ratio"),
    lo("collectives.step_share", "fraction"),
    // core.engine
    lo("core.engine.epoch_ms_p50", "ms"),
    lo("core.engine.epoch_ms_tail", "ms"),
    lo("core.engine.straggler_wait_share", "fraction"),
    lo("core.engine.unattributed_share", "fraction"),
    hi("core.engine.hetero_efficiency", "ratio"),
    lo("core.engine.plan_ms_per_epoch", "ms"),
    lo("core.engine.plan_overhead_pct", "%"),
    lo("core.engine.epochs_to_target", "count"),
    // core.perf
    lo("core.perf.observe_us_per_step", "us"),
    lo("core.perf.solver_input_us", "us"),
    lo("core.perf.prediction_error_pct", "%"),
    // core.optperf
    lo("core.optperf.solve_us", "us"),
    lo("core.optperf.solves_per_epoch", "count"),
    hi("core.optperf.split_speedup_vs_even", "ratio"),
    // core.goodput
    lo("core.goodput.select_cold_us", "us"),
    lo("core.goodput.select_warm_us", "us"),
    lo("core.goodput.candidates_per_epoch", "count"),
    // core.gns / core.policy
    lo("core.gns.estimate_us", "us"),
    lo("core.policy.ask_us", "us"),
    lo("core.policy.tell_us", "us"),
    // sim (hetsim)
    lo("sim.simulate_us_per_step", "us"),
    lo("sim.time_to_target_s", "s"),
    // fleet
    lo("fleet.tick_us_p50", "us"),
    lo("fleet.tick_us_p99", "us"),
    lo("fleet.decisions", "count"),
    lo("fleet.demand_profile_ms", "ms"),
    lo("fleet.scaling_curve_ms", "ms"),
    hi("fleet.goodput_vs_fifo", "ratio"),
    lo("fleet.makespan_s", "s"),
    hi("fleet.goodput", "samples/s"),
    // telemetry / insight
    lo("telemetry.counter_ns_disabled", "ns"),
    lo("telemetry.counter_ns_enabled", "ns"),
    lo("telemetry.span_ns_enabled", "ns"),
    lo("telemetry.drain_ms_per_100k", "ms"),
    hi("telemetry.jsonl_mb_per_s", "MB/s"),
    lo("telemetry.events_per_epoch", "count"),
    lo("telemetry.session_overhead_pct", "%"),
    hi("insight.replay_events_per_s", "1/s"),
];

/// `BENCHMARK.json`: the registry in the driver's format. `run.sh` is the
/// one command; it builds the workspace and runs this binary.
pub fn manifest() -> String {
    let text = |s: &str| Json::Str(s.to_string());
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::Obj(vec![("name".into(), text(w.0)), ("why".into(), text(w.1))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("name".into(), text(m.name)),
                ("unit".into(), text(m.unit)),
                ("better".into(), text(m.better.as_str())),
                ("bound".into(), Json::num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("name".into(), text(m.name)),
                ("unit".into(), text(m.unit)),
                ("better".into(), text(m.better.as_str())),
            ])
        })
        .collect();
    let members = [
        (
            "command",
            Json::Arr(vec![text("bash"), text("crates/benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![text("crates/benchmark")])),
        ("run_seconds", Json::num(crate::DEFAULT_SECONDS)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ];
    // One member per line keeps the file reviewable.
    let lines: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {}", v.to_string_compact()))
        .collect();
    format!("{{\n{}\n}}", lines.join(",\n"))
}

/// What one run measured, before it is laid out against the registry.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Closed-loop operations issued (epochs, ticks).
    pub attempted: u64,
    /// Operations that returned an error or failed an output check.
    pub failed: u64,
    /// Output checks that failed, one line each; empty means correct.
    pub violations: Vec<String>,
    /// Measured values by registry name.
    pub values: Vec<(&'static str, f64)>,
    /// Workload-native numbers for the human report (not in the result).
    pub notes: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.notes.push((name.into(), value, unit));
    }

    /// Count one failed operation and say why.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.violations.push(why);
    }

    /// Record a failed output check that is not tied to one operation.
    pub fn violate(&mut self, why: String) {
        self.violations.push(why);
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().rev().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// One run's result in the driver's format.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in registry order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    /// Lay an outcome out against the registry: every end-to-end metric
    /// (untraced) or every per-layer metric (traced). A per-layer metric
    /// the workload did not measure is 0 — the layer did no work. An
    /// end-to-end metric that is missing, non-finite or not positive is a
    /// harness error.
    pub fn from_outcome(outcome: &Outcome, traced: bool) -> Result<RunResult, String> {
        let mut metrics = Vec::new();
        if traced {
            for m in &PER_LAYER {
                let v = outcome.value(m.name).unwrap_or(0.0);
                if !v.is_finite() {
                    return Err(format!("per-layer metric {} is not finite", m.name));
                }
                metrics.push((m.name.to_string(), v, m.unit.to_string()));
            }
        } else {
            for m in &END_TO_END {
                match outcome.value(m.name) {
                    Some(v) if v.is_finite() && v > 0.0 => metrics.push((m.name.to_string(), v, m.unit.to_string())),
                    other => return Err(format!("end-to-end metric {} is {other:?}", m.name)),
                }
            }
        }
        Ok(RunResult {
            correct: outcome.failed == 0 && outcome.violations.is_empty(),
            attempted: outcome.attempted,
            failed: outcome.failed,
            metrics,
        })
    }

    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = Json::Obj(vec![
                    ("value".into(), Json::num(*value)),
                    ("unit".into(), Json::Str(unit.clone())),
                ]);
                (name.clone(), entry)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::num(self.attempted as f64)),
            ("failed".into(), Json::num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    pub fn from_json(json: &Json) -> Result<RunResult, String> {
        let field = |key: &str| json.get(key).ok_or_else(|| format!("result is missing `{key}`"));
        let Json::Obj(members) = field("metrics")? else {
            return Err("`metrics` is not an object".into());
        };
        let metrics = members
            .iter()
            .map(|(name, entry)| {
                let value = entry.get("value").and_then(Json::as_f64);
                let unit = entry.get("unit").and_then(Json::as_str);
                match (value, unit) {
                    (Some(v), Some(u)) => Ok((name.clone(), v, u.to_string())),
                    _ => Err(format!("metric `{name}` needs a numeric `value` and a `unit`")),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunResult {
            correct: field("correct")?.as_bool().ok_or("`correct` is not a bool")?,
            attempted: field("attempted")?
                .as_u64()
                .ok_or("`attempted` is not a whole number")?,
            failed: field("failed")?.as_u64().ok_or("`failed` is not a whole number")?,
            metrics,
        })
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|&(_, v, _)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let first = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first && name.len() <= 64 && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(name_ok(name), "bad name {name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_ok(unit), "bad unit {unit}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
    }

    /// `BENCHMARK.json` is the driver's copy of the registry.
    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let manifest = Json::parse(include_str!("../../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let list = |key: &str| {
            manifest
                .get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("`{key}` array"))
                .to_vec()
        };
        let text = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("`{key}`"))
                .to_string()
        };

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS.iter().map(|w| (w.0.to_string(), w.1.to_string())).collect();
        assert_eq!(workloads, expected);

        let e2e: Vec<_> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(Json::as_f64).expect("bound"),
                )
            })
            .collect();
        let expected: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, expected);

        let layers: Vec<_> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let expected: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.as_str().to_string()))
            .collect();
        assert_eq!(layers, expected);
        assert_eq!(
            manifest.get("paths").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(
            super::manifest().trim(),
            include_str!("../../../BENCHMARK.json").trim(),
            "regenerate with `run.sh manifest`"
        );
    }

    #[test]
    fn result_round_trips_through_the_telemetry_json() {
        let mut outcome = Outcome {
            attempted: 120,
            ..Outcome::default()
        };
        for (i, m) in END_TO_END.iter().enumerate() {
            outcome.set(m.name, 1.25 + i as f64 / 3.0);
        }
        let result = RunResult::from_outcome(&outcome, false).expect("complete");
        assert!(result.correct);
        let text = result.to_json().to_string_compact();
        assert!(text.starts_with(
            "{\"correct\":true,\"attempted\":120,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":1.25,\"unit\":\"s\"}"
        ));
        let back = RunResult::from_json(&Json::parse(&text).expect("valid JSON")).expect("same shape");
        assert_eq!(back, result);
        assert_eq!(back.get("setup_s"), Some(1.25));

        outcome.fail("epoch 3: loss is NaN".into());
        assert!(!RunResult::from_outcome(&outcome, false).expect("complete").correct);
        // Traced layout: unmeasured layers read 0, end-to-end names absent.
        let traced = RunResult::from_outcome(&outcome, true).expect("per-layer");
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        assert_eq!(traced.get("dnn.gemm_gflops"), Some(0.0));
        // A missing or zero end-to-end metric is a harness error.
        outcome.set("work_per_s", 0.0);
        assert!(RunResult::from_outcome(&outcome, false).is_err());
    }
}
