//! Workspace-level guarantees of the scenario-matrix harness.
//!
//! Two contracts are held here rather than inside `cannikin-bench`:
//! the *determinism* contract — running the full matrix twice under the
//! pinned seed must produce byte-identical JSON, which is what lets CI
//! diff a run against the committed `BENCH_scenarios.json` — and the
//! *soundness* contract — capability filtering never hands a subject a
//! scenario demanding something it did not declare, for arbitrary
//! capability sets, not just the shipped registry.

use cannikin::baselines::System;
use cannikin_bench::scenarios::{
    compatible, matrix, scenario_report, Capability, ScenarioKind, ScenarioSpec, SubjectKind, SubjectSpec,
    SCENARIO_SEED,
};
use propcheck::{check, Gen};

/// The flagship determinism guarantee: the entire matrix — every sim
/// cell, every real-gradient cell, every goodput ratio — serializes to
/// the same bytes on a same-seed re-run. Without this, `gate scenarios`
/// would flag phantom regressions on every CI run.
#[test]
fn same_seed_double_run_is_byte_identical() {
    let first = scenario_report();
    let second = scenario_report();
    assert_eq!(first.seed, SCENARIO_SEED);
    assert_eq!(
        first.to_json().to_string_compact(),
        second.to_json().to_string_compact(),
        "scenario matrix must be byte-identical across same-seed runs"
    );
}

/// The double-run above must cover the whole advertised matrix, not a
/// subset: a cell that errors out and is silently dropped would still
/// serialize identically twice.
#[test]
fn report_covers_every_matrix_cell() {
    let report = scenario_report();
    let cells = matrix();
    assert_eq!(report.cells.len(), cells.len());
    for ((scenario, subject), cell) in cells.iter().zip(&report.cells) {
        assert_eq!(cell.scenario, scenario.name);
        assert_eq!(cell.subject, subject.name);
        assert!(!cell.metrics.is_empty(), "{}/{} produced no metrics", cell.scenario, cell.subject);
    }
}

const CASES: usize = 256;

fn arbitrary_capabilities(g: &mut Gen) -> Vec<Capability> {
    Capability::all().into_iter().filter(|_| g.bool()).collect()
}

fn synthetic_scenario(requires: Vec<Capability>) -> ScenarioSpec {
    ScenarioSpec {
        name: "synthetic-scenario",
        description: "property-test fixture",
        requires,
        kind: ScenarioKind::Sim { plan: None, target: 1.0, max_epochs: 1 },
    }
}

fn synthetic_subject(provides: Vec<Capability>) -> SubjectSpec {
    SubjectSpec {
        name: "synthetic-subject",
        description: "property-test fixture",
        provides,
        kind: SubjectKind::Sim(System::Ddp),
    }
}

/// Soundness of the one-and-only filter: for *arbitrary* requires /
/// provides sets, `compatible` is exactly the subset relation — a
/// subject is admitted iff every required capability is declared, so
/// no cell can ever demand an undeclared capability.
#[test]
fn compatible_is_exactly_the_subset_relation() {
    check(CASES, |g| {
        let requires = arbitrary_capabilities(g);
        let provides = arbitrary_capabilities(g);
        let scenario = synthetic_scenario(requires.clone());
        let subject = synthetic_subject(provides.clone());
        let subset = requires.iter().all(|cap| provides.contains(cap));
        assert_eq!(compatible(&scenario, &subject), subset);
        if compatible(&scenario, &subject) {
            for cap in &scenario.requires {
                assert!(
                    subject.provides.contains(cap),
                    "admitted subject lacks required capability {:?}", cap
                );
            }
        }
    });
}

/// Monotonicity: granting a subject *more* capabilities can never
/// revoke access to a scenario it already qualified for.
#[test]
fn adding_capabilities_never_revokes_access() {
    check(CASES, |g| {
        let scenario = synthetic_scenario(arbitrary_capabilities(g));
        let provides = arbitrary_capabilities(g);
        let cap = g.pick(&Capability::all());
        let subject = synthetic_subject(provides.clone());
        if compatible(&scenario, &subject) {
            let mut widened = provides;
            if !widened.contains(&cap) {
                widened.push(cap);
            }
            assert!(compatible(&scenario, &synthetic_subject(widened)));
        }
    });
}

/// The shipped registry satisfies the same soundness property the
/// properties above establish for arbitrary sets.
#[test]
fn shipped_matrix_is_sound() {
    for (scenario, subject) in matrix() {
        assert!(
            scenario.requires.iter().all(|cap| subject.provides.contains(cap)),
            "{}/{} pairs without full capability coverage",
            scenario.name,
            subject.name
        );
    }
}
