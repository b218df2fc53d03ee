//! Scenario-matrix evaluation harness (kurobako-style).
//!
//! The registry ([`registry()`]) declares *scenarios* — named cluster
//! conditions seeded from the sim's [`hetsim::FaultPlan`] and the
//! collectives' [`cannikin_collectives::CommFaultPlan`] machinery — and
//! *subjects* — the trainers under evaluation (Cannikin itself, the §5.1
//! baselines, and the real-gradient [`ParallelTrainer`] variants). Both
//! sides carry **capability tags**; a cell of the evaluation matrix
//! exists exactly when the scenario's required capabilities are a subset
//! of the subject's declared ones, so a baseline that cannot survive a
//! crash is never asked to.
//!
//! The runner ([`runner`]) executes every compatible cell deterministically
//! under the pinned [`SCENARIO_SEED`], tags the telemetry session
//! `scenario/subject`, and reduces each run to wall-clock-free metrics
//! (simulated goodput, simulated time-to-target, fault/recovery counts,
//! bytes moved, solver invocations) so the emitted report is byte-stable
//! across machines. `BENCH_scenarios.json` commits that report; `gate
//! scenarios` diffs a fresh run against it in CI.
//!
//! [`ParallelTrainer`]: cannikin_core::engine::ParallelTrainer

pub mod registry;
pub mod runner;

pub use registry::{
    compatible, matrix, registry, subjects, Capability, ScenarioKind, ScenarioSpec, SimSystem, SubjectKind,
    SubjectSpec,
};
pub use runner::{run_cell, scenario_report, CellResult, ScenarioBenchReport, SCENARIO_SEED};
