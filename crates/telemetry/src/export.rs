//! Exporters: JSONL for offline analysis, Chrome `trace_event` JSON for
//! `chrome://tracing` / Perfetto.
//!
//! JSONL is one [`Record`] object per line (see [`Record::to_json`] for the
//! schema) and round-trips through [`parse_jsonl`]. The Chrome trace is a
//! `{"traceEvents": [...]}` object mapping spans to `B`/`E` phase events,
//! counters to `C`, and every other event to an instant (`i`) with its
//! payload in `args`; `pid` is the logical node and `tid` the rank, so
//! Perfetto lays ranks out as separate tracks.

use crate::event::{Event, Record};
use crate::json::Json;
use std::io::{self, Write};
use std::path::Path;

/// The JSONL form of a record slice (one compact object per line, with a
/// trailing newline when non-empty).
pub fn jsonl_string(records: &[Record]) -> String {
    let mut out = String::new();
    for record in records {
        out.push_str(&record.to_jsonl_line());
        out.push('\n');
    }
    out
}

/// Parse a JSONL export back into records. Blank lines are skipped.
///
/// # Errors
///
/// Returns the 1-based line number and cause of the first bad line.
pub fn parse_jsonl(text: &str) -> Result<Vec<Record>, String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        records.push(Record::from_json(&value).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(records)
}

/// Write the JSONL export to `path`.
///
/// # Errors
///
/// Propagates file-creation and write failures.
pub fn write_jsonl(path: &Path, records: &[Record]) -> io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(jsonl_string(records).as_bytes())?;
    file.flush()
}

/// The Chrome `trace_event` form of a record slice.
pub fn chrome_trace_string(records: &[Record]) -> String {
    let events: Vec<Json> = records.iter().map(chrome_event).collect();
    Json::Obj(vec![("traceEvents".to_string(), Json::Arr(events))]).to_string_compact()
}

/// Write the Chrome trace to `path` (load via `chrome://tracing` or
/// Perfetto's "Open trace file").
///
/// # Errors
///
/// Propagates file-creation and write failures.
pub fn write_chrome_trace(path: &Path, records: &[Record]) -> io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(chrome_trace_string(records).as_bytes())?;
    file.flush()
}

fn chrome_event(record: &Record) -> Json {
    let ts_us = record.ts_ns as f64 / 1_000.0;
    let envelope = |name: &str, ph: &str| {
        vec![
            ("name".to_string(), Json::Str(name.to_string())),
            ("ph".to_string(), Json::Str(ph.to_string())),
            ("ts".to_string(), Json::num(ts_us)),
            ("pid".to_string(), Json::Num(f64::from(record.node))),
            ("tid".to_string(), Json::Num(f64::from(record.rank))),
        ]
    };
    match &record.event {
        Event::SpanBegin(s) => Json::Obj(envelope(&s.name, "B")),
        Event::SpanEnd(s) => Json::Obj(envelope(&s.name, "E")),
        Event::Counter(c) => {
            let mut members = envelope(&c.name, "C");
            members.push(("args".to_string(), Json::Obj(vec![("value".to_string(), Json::num(c.value))])));
            Json::Obj(members)
        }
        other => {
            let mut members = envelope(other.kind(), "i");
            // Thread-scoped instant: renders as a tick on the emitting track.
            members.push(("s".to_string(), Json::Str("t".to_string())));
            let mut args = Vec::new();
            other.write_fields(&mut args);
            members.push(("args".to_string(), Json::Obj(args)));
            Json::Obj(members)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Counter, Span, SplitDecision, SplitSource};

    fn sample_records() -> Vec<Record> {
        vec![
            Record { ts_ns: 100, node: 0, rank: 0, event: Event::SpanBegin(Span { name: "epoch".into() }) },
            Record {
                ts_ns: 150,
                node: 0,
                rank: 0,
                event: Event::SplitDecision(SplitDecision {
                    total: 64,
                    local: vec![32, 32],
                    predicted_t: Some(0.5),
                    source: SplitSource::Bootstrap,
                }),
            },
            Record { ts_ns: 180, node: 1, rank: 1, event: Event::Counter(Counter { name: "overhead_s".into(), value: 0.01 }) },
            Record { ts_ns: 200, node: 0, rank: 0, event: Event::SpanEnd(Span { name: "epoch".into() }) },
        ]
    }

    #[test]
    fn jsonl_round_trips() {
        let records = sample_records();
        let text = jsonl_string(&records);
        assert_eq!(text.lines().count(), records.len());
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn parse_jsonl_reports_bad_lines() {
        let err = parse_jsonl("{\"ts_ns\":1}\n").unwrap_err();
        assert!(err.starts_with("line 1"), "{err}");
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_phases() {
        let trace = chrome_trace_string(&sample_records());
        let parsed = Json::parse(&trace).expect("valid JSON");
        let events = parsed.get("traceEvents").and_then(Json::as_array).expect("traceEvents array");
        assert_eq!(events.len(), 4);
        let phases: Vec<&str> = events.iter().map(|e| e.get("ph").and_then(Json::as_str).unwrap()).collect();
        assert_eq!(phases, ["B", "i", "C", "E"]);
        // pid/tid carry node/rank.
        assert_eq!(events[2].get("pid").and_then(Json::as_u64), Some(1));
        assert_eq!(events[2].get("tid").and_then(Json::as_u64), Some(1));
        // ts is microseconds.
        assert_eq!(events[0].get("ts").and_then(Json::as_f64), Some(0.1));
        // Instant events carry their payload in args.
        let args = events[1].get("args").expect("args");
        assert_eq!(args.get("total").and_then(Json::as_u64), Some(64));
    }
}
