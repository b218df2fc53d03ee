//! End-to-end smoke tests for the telemetry pipeline: concurrent emitters
//! with per-thread identities → session drain → JSONL round-trip and a
//! structurally valid Chrome trace.

use cannikin_telemetry as telemetry;
use std::collections::HashMap;
use std::sync::Arc;
use telemetry::{
    AllReduceBucket, Counter, Event, Json, Record, Session, SolverInvocation, StepTiming, Subscriber,
};

fn run_multithreaded_session() -> Vec<Record> {
    let session = Session::start();
    {
        let _run = telemetry::span("run");
        let ctx = telemetry::context();
        let workers: Vec<_> = (0..4u32)
            .map(|rank| {
                std::thread::spawn(move || {
                    ctx.enter();
                    let _id = telemetry::set_thread_identity(rank, rank);
                    for step in 0..20u64 {
                        let _step_span = telemetry::span("step");
                        telemetry::emit(Event::StepTiming(StepTiming {
                            step,
                            rank,
                            b_i: 8 + u64::from(rank),
                            t_compute: 0.01 * (step + 1) as f64,
                            t_comm: 0.002,
                            overlap: 0.5,
                        }));
                        telemetry::emit(Event::AllReduceBucket(AllReduceBucket {
                            bucket: 0,
                            elems: 1024,
                            wall_ns: 5_000,
                            bytes: 4096,
                        }));
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        telemetry::emit(Event::SolverInvocation(SolverInvocation {
            wall_ns: 42_000,
            total: 64,
            candidates: 1,
            solves: 3,
            boundary: 2,
        }));
        telemetry::counter("epoch_time_s", 1.25);
    }
    session.drain()
}

#[test]
fn multithreaded_session_preserves_per_rank_step_order() {
    let records = run_multithreaded_session();
    // 4 ranks × 20 steps × (span B + timing + bucket + span E) + run span B/E
    // + solver invocation + counter.
    assert_eq!(records.len(), 4 * 20 * 4 + 2 + 2);
    assert!(records.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns), "drain must be time-sorted");
    for rank in 0..4u32 {
        let steps: Vec<u64> = records
            .iter()
            .filter_map(|r| match &r.event {
                Event::StepTiming(t) if r.rank == rank => Some(t.step),
                _ => None,
            })
            .collect();
        let expected: Vec<u64> = (0..20).collect();
        assert_eq!(steps, expected, "rank {rank} steps interleaved or lost");
    }
}

/// A monitor-shaped subscriber: accumulates every record it is handed.
struct TapSubscriber {
    seen: parking_lot::Mutex<Vec<Record>>,
}

impl Subscriber for TapSubscriber {
    fn on_records(&self, batch: &[Record]) {
        self.seen.lock().extend_from_slice(batch);
    }
}

#[test]
fn subscriber_observes_concurrent_emitters_exactly_once_in_thread_order() {
    let tap = Arc::new(TapSubscriber { seen: parking_lot::Mutex::new(Vec::new()) });
    let _guard = telemetry::subscribe(tap.clone());
    let session = Session::start();
    let ctx = telemetry::context();
    let workers: Vec<_> = (0..8u32)
        .map(|rank| {
            std::thread::spawn(move || {
                ctx.enter();
                let _id = telemetry::set_thread_identity(rank, rank);
                for i in 0..500u64 {
                    telemetry::emit(Event::Counter(Counter {
                        name: "seq".to_string(),
                        value: (u64::from(rank) * 1_000 + i) as f64,
                    }));
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let drained = session.drain();
    assert_eq!(drained.len(), 8 * 500);

    let seen = tap.seen.lock();
    // Exactly once: the subscriber saw the same multiset the sink did.
    assert_eq!(seen.len(), drained.len());
    let mut seen_values: Vec<u64> = seen
        .iter()
        .map(|r| match &r.event {
            Event::Counter(c) => c.value as u64,
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    seen_values.sort_unstable();
    let expected: Vec<u64> =
        (0..8u64).flat_map(|t| (0..500u64).map(move |i| t * 1_000 + i)).collect();
    assert_eq!(seen_values, expected, "every event exactly once");

    // Per-thread order: in the delivered stream, each rank's values are
    // strictly increasing (batches arrive in flush order; records within a
    // batch in emission order).
    for rank in 0..8u32 {
        let values: Vec<f64> = seen
            .iter()
            .filter(|r| r.rank == rank)
            .map(|r| match &r.event {
                Event::Counter(c) => c.value,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(values.len(), 500);
        assert!(values.windows(2).all(|w| w[0] < w[1]), "rank {rank} delivered out of order");
    }
}

#[test]
fn jsonl_export_round_trips_a_real_session() {
    let records = run_multithreaded_session();
    let text = telemetry::export::jsonl_string(&records);
    let back = telemetry::export::parse_jsonl(&text).expect("every line parses");
    assert_eq!(back, records);
}

#[test]
fn chrome_trace_is_valid_json_with_matching_span_pairs() {
    let records = run_multithreaded_session();
    let trace = telemetry::export::chrome_trace_string(&records);
    let parsed = Json::parse(&trace).expect("chrome trace must be valid JSON");
    let events = parsed.get("traceEvents").and_then(Json::as_array).expect("traceEvents array");
    assert_eq!(events.len(), records.len());

    // Every B must close with a matching E on the same (pid, tid), LIFO.
    let mut open: HashMap<(u64, u64), Vec<String>> = HashMap::new();
    for event in events {
        let ph = event.get("ph").and_then(Json::as_str).expect("ph");
        let name = event.get("name").and_then(Json::as_str).expect("name").to_string();
        let key = (
            event.get("pid").and_then(Json::as_u64).expect("pid"),
            event.get("tid").and_then(Json::as_u64).expect("tid"),
        );
        match ph {
            "B" => open.entry(key).or_default().push(name),
            "E" => {
                let top = open.get_mut(&key).and_then(Vec::pop);
                assert_eq!(top.as_deref(), Some(name.as_str()), "unbalanced span on {key:?}");
            }
            "i" | "C" => {}
            other => panic!("unexpected phase {other}"),
        }
    }
    for (key, stack) in &open {
        assert!(stack.is_empty(), "spans left open on {key:?}: {stack:?}");
    }

    // Timestamps are microseconds and non-decreasing.
    let ts: Vec<f64> = events.iter().map(|e| e.get("ts").and_then(Json::as_f64).unwrap()).collect();
    assert!(ts.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn env_spec_exports_both_formats() {
    let records = run_multithreaded_session();
    let dir = std::env::temp_dir().join("cannikin-telemetry-int-test");
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl = dir.join("session.jsonl");
    let chrome = dir.join("session.trace.json");
    let spec = format!("jsonl:{},chrome:{}", jsonl.display(), chrome.display());
    let written = telemetry::export_to(&spec, &records).expect("export succeeds");
    assert_eq!(written.len(), 2);
    let back = telemetry::export::parse_jsonl(&std::fs::read_to_string(&jsonl).unwrap()).unwrap();
    assert_eq!(back.len(), records.len());
    assert!(Json::parse(&std::fs::read_to_string(&chrome).unwrap()).is_ok());
    std::fs::remove_file(jsonl).ok();
    std::fs::remove_file(chrome).ok();
}
