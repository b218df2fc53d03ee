//! One function per table/figure of the paper's evaluation.
//!
//! Every function returns the rendered text block that `figures` prints,
//! so integration tests can assert on the numbers without re-parsing
//! stdout. DESIGN.md ("Measurement") says what each id backs.

mod ablations;
mod discussion;
mod figures;
mod fleet;
mod insight;
mod scenarios;
mod slo;
mod tables;
mod telemetry;

pub use ablations::{ablation_overlap, ablation_warm_start, accumulation, elastic, multi_job};
pub use discussion::{cluster_c_experiment, hetero_sweep};
pub use figures::{fig10, fig5, fig6, fig7, fig8, fig9};
pub use fleet::{fleet, fleet_pool, fleet_report, FleetBenchReport, PolicyOutcome, TraceOutcome, FLEET_SEEDS};
pub use insight::insight_run;
pub use scenarios::scenarios;
pub use slo::slo;
pub use tables::{table1, table6, table_prediction};
pub use telemetry::{summarize, telemetry_summary};

/// Renders one experiment's table or figure as text.
pub type Render = fn() -> String;

/// Every experiment, in paper order: the id `figures` takes and the
/// function that renders it.
const EXPERIMENTS: [(&str, Render); 21] = [
    ("table1", table1),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("table_prediction", table_prediction),
    ("table6", table6),
    ("hetero_sweep", hetero_sweep),
    ("cluster_c", cluster_c_experiment),
    ("ablation_overlap", ablation_overlap),
    ("ablation_warm_start", ablation_warm_start),
    ("elastic", elastic),
    ("accumulation", accumulation),
    ("multi_job", multi_job),
    ("fleet", fleet),
    ("telemetry", telemetry_summary),
    ("insight", insight_run),
    ("slo", slo),
    ("scenarios", scenarios),
];

/// Run every experiment in paper order, returning `(id, output)` pairs.
pub fn all() -> Vec<(&'static str, String)> {
    EXPERIMENTS.iter().map(|&(id, run)| (id, run())).collect()
}

/// Look up one experiment by id; calling the result runs it.
pub fn by_id(id: &str) -> Option<Render> {
    EXPERIMENTS.iter().find(|(known, _)| *known == id).map(|&(_, run)| run)
}

/// Ids of every experiment, in paper order.
pub fn ids() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|&(id, _)| id).collect()
}
