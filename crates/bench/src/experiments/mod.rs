//! One function per table/figure of the paper's evaluation.
//!
//! Every function returns the rendered text block that `figures` prints,
//! so integration tests can assert on the numbers without re-parsing
//! stdout. The experiment ids match DESIGN.md §4.

mod ablations;
mod discussion;
mod faults;
mod figures;
mod fleet;
mod insight;
mod perf;
mod policy;
mod scenarios;
mod slo;
mod tables;
mod telemetry;
mod transport;

pub use ablations::{ablation_overlap, ablation_warm_start, accumulation, elastic, multi_job};
pub use discussion::{cluster_c_experiment, hetero_sweep};
pub use faults::faults;
pub use figures::{fig10, fig5, fig6, fig7, fig8, fig9};
pub use fleet::{fleet, fleet_pool, fleet_report, FleetBenchReport, PolicyOutcome, TraceOutcome, FLEET_SEEDS};
pub use insight::insight_run;
pub use perf::{perf, perf_report, PerfReport, PERF_SEED};
pub use policy::{policy, POLICY_SCENARIOS, POLICY_SUBJECTS};
pub use scenarios::scenarios;
pub use slo::slo;
pub use tables::{table1, table6, table_prediction};
pub use telemetry::{summarize, telemetry_summary};
pub use transport::transport;

/// Run every experiment in paper order, returning `(id, output)` pairs.
pub fn all() -> Vec<(&'static str, String)> {
    vec![
        ("table1", table1()),
        ("fig5", fig5()),
        ("fig6", fig6()),
        ("fig7", fig7()),
        ("fig8", fig8()),
        ("fig9", fig9()),
        ("fig10", fig10()),
        ("table_prediction", table_prediction()),
        ("table6", table6()),
        ("hetero_sweep", hetero_sweep()),
        ("cluster_c", cluster_c_experiment()),
        ("ablation_overlap", ablation_overlap()),
        ("ablation_warm_start", ablation_warm_start()),
        ("elastic", elastic()),
        ("faults", faults()),
        ("accumulation", accumulation()),
        ("multi_job", multi_job()),
        ("fleet", fleet()),
        ("telemetry", telemetry_summary()),
        ("insight", insight_run()),
        ("slo", slo()),
        ("transport", transport()),
        ("perf", perf()),
        ("scenarios", scenarios()),
        ("policy", policy()),
    ]
}

/// Look up one experiment by id.
pub fn by_id(id: &str) -> Option<String> {
    match id {
        "table1" => Some(table1()),
        "fig5" => Some(fig5()),
        "fig6" => Some(fig6()),
        "fig7" => Some(fig7()),
        "fig8" => Some(fig8()),
        "fig9" => Some(fig9()),
        "fig10" => Some(fig10()),
        "table_prediction" => Some(table_prediction()),
        "table6" => Some(table6()),
        "hetero_sweep" => Some(hetero_sweep()),
        "cluster_c" => Some(cluster_c_experiment()),
        "ablation_overlap" => Some(ablation_overlap()),
        "ablation_warm_start" => Some(ablation_warm_start()),
        "elastic" => Some(elastic()),
        "faults" => Some(faults()),
        "accumulation" => Some(accumulation()),
        "multi_job" => Some(multi_job()),
        "fleet" => Some(fleet()),
        "telemetry" => Some(telemetry_summary()),
        "insight" => Some(insight_run()),
        "slo" => Some(slo()),
        "transport" => Some(transport()),
        "perf" => Some(perf()),
        "scenarios" => Some(scenarios()),
        "policy" => Some(policy()),
        _ => None,
    }
}

/// Ids of every experiment, in paper order.
pub fn ids() -> Vec<&'static str> {
    vec![
        "table1",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "table_prediction",
        "table6",
        "hetero_sweep",
        "cluster_c",
        "ablation_overlap",
        "ablation_warm_start",
        "elastic",
        "faults",
        "accumulation",
        "multi_job",
        "fleet",
        "telemetry",
        "insight",
        "slo",
        "transport",
        "perf",
        "scenarios",
        "policy",
    ]
}
