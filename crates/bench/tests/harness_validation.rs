//! End-to-end validation of the experiment harness: the generated outputs
//! must carry the paper's qualitative claims, so a regression anywhere in
//! the stack (simulator physics, measurement, solver, engines) trips one
//! of these before it corrupts `EXPERIMENTS.md`.

use cannikin_bench::experiments;

fn parse_table_rows(text: &str, skip_header_lines: usize) -> Vec<Vec<String>> {
    text.lines()
        .skip(skip_header_lines)
        .map(|l| l.split_whitespace().map(str::to_string).collect::<Vec<_>>())
        // Data rows start with a number; prose and blank lines do not.
        .filter(|cells: &Vec<String>| cells.first().is_some_and(|c| c.parse::<f64>().is_ok()))
        .collect()
}

#[test]
fn hetero_sweep_matches_the_theoretical_bound() {
    let text = experiments::hetero_sweep();
    let rows = parse_table_rows(&text, 2);
    assert_eq!(rows.len(), 7);
    for row in rows {
        let measured: f64 = row[1].parse().expect("measured column");
        let bound: f64 = row[2].parse().expect("bound column");
        assert!(measured >= bound - 1e-6, "{row:?}");
        assert!(measured - bound < 0.02, "{row:?}");
    }
}

#[test]
fn prediction_table_keeps_the_ivw_bands() {
    let text = experiments::table_prediction();
    // Task rows carry two percentage columns.
    let rows: Vec<Vec<String>> = text
        .lines()
        .map(|l| l.split_whitespace().map(str::to_string).collect::<Vec<_>>())
        .filter(|cells: &Vec<String>| cells.iter().filter(|c| c.ends_with('%')).count() == 2)
        .collect();
    assert_eq!(rows.len(), 5, "five Table-5 tasks: {text}");
    for row in rows {
        let ivw: f64 = row[row.len() - 2].trim_end_matches('%').parse().expect("ivw column");
        let naive: f64 = row[row.len() - 1].trim_end_matches('%').parse().expect("naive column");
        assert!(ivw <= 7.0, "IVW error above the paper's 7% band: {row:?}");
        assert!(naive > ivw, "naive should be worse: {row:?}");
        assert!(naive <= 25.0, "naive error implausibly large: {row:?}");
    }
}

#[test]
fn warm_start_ablation_reports_a_real_reduction() {
    let text = experiments::ablation_warm_start();
    let reduction: f64 = text
        .lines()
        .find(|l| l.contains("reduction"))
        .and_then(|l| l.split(&[' ', '%'][..]).filter_map(|t| t.parse().ok()).next())
        .expect("reduction line");
    assert!((20.0..=95.0).contains(&reduction), "{text}");
}

#[test]
fn elastic_experiment_recovers_near_oracle() {
    let text = experiments::elastic();
    // Last epoch's batch time must be within 5% of the printed oracle.
    let oracle: f64 = text
        .lines()
        .find(|l| l.contains("post-grant OptPerf"))
        .and_then(|l| l.split(&[' ', 's'][..]).filter_map(|t| t.parse().ok()).next())
        .expect("oracle line");
    let last_epoch_time: f64 = text
        .lines()
        .filter(|l| l.trim_start().starts_with("11"))
        .filter_map(|l| l.split_whitespace().nth(2).and_then(|t| t.parse().ok()))
        .next()
        .expect("epoch 11 row");
    assert!(
        (last_epoch_time / oracle - 1.0).abs() < 0.05,
        "final epoch {last_epoch_time} vs oracle {oracle}\n{text}"
    );
}

#[test]
fn experiment_registry_is_complete_and_consistent() {
    // Dispatch only: `by_id` hands back the function, nothing runs.
    let ids = experiments::ids();
    assert!(ids.len() >= 14, "registry shrank: {ids:?}");
    for (i, id) in ids.iter().enumerate() {
        assert!(!id.is_empty(), "empty id at position {i}");
        assert!(!ids[..i].contains(id), "id {id} listed twice");
        assert!(experiments::by_id(id).is_some(), "id {id} not dispatchable");
    }
    assert!(experiments::by_id("nonsense").is_none());
}
