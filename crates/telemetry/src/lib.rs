//! # cannikin-telemetry — workspace-wide observability
//!
//! Cannikin is a *measurement-driven* system: per-batch timings feed the
//! OptPerf fits (§3.2), GNS estimates drive the batch-size controller
//! (§4), and Table 6 of the paper quantifies the optimizer's own overhead.
//! This crate is the one place all of those observations flow through:
//!
//! - a global low-overhead [`recorder`]: thread-local event buffers
//!   drained through a `parking_lot`-guarded sink, **off by default** —
//!   the disabled hot path is a single relaxed atomic load (the frozen
//!   benchmark's `telemetry.counter_ns_disabled` times it) — recording
//!   only the threads that belong to the live [`Session`];
//! - typed [`event`]s for the quantities the paper reasons about:
//!   [`StepTiming`], [`SplitDecision`], [`GnsEstimated`], [`GoodputEval`],
//!   [`AllReduceBucket`], [`SolverInvocation`], plus generic counters and
//!   `B`/`E` spans;
//! - a fixed-bucket [`Histogram`] with quantile queries and merging, for
//!   summarizing drained runs;
//! - a ring-buffer time-[`series`] store (labelled counters/gauges/
//!   histograms, windowed aggregates, quantiles, Prometheus-style text
//!   exposition) fed by a [`SeriesRecorder`] subscriber, plus the
//!   declarative [`slo`] rule specs that `cannikin-insight` evaluates;
//! - two [`export`]ers: JSONL for offline analysis and Chrome
//!   `trace_event` JSON (`pid` = node, `tid` = rank) loadable in
//!   `chrome://tracing` / Perfetto;
//! - the shared simulator/analyzer observation records in [`trace`]
//!   (re-exported by `hetsim` for compatibility);
//! - the `CANNIKIN_TELEMETRY=jsonl:/path[,chrome:/path]` [`mod@env`] knob.
//!
//! ## Example
//!
//! ```
//! use cannikin_telemetry::{self as telemetry, Event, Counter};
//!
//! let session = telemetry::Session::start();
//! {
//!     let _epoch = telemetry::span("epoch");
//!     telemetry::emit(Event::Counter(Counter { name: "epoch_time_s".into(), value: 1.5 }));
//! }
//! let records = session.drain();
//! assert_eq!(records.len(), 3); // span begin + counter + span end
//! let jsonl = telemetry::export::jsonl_string(&records);
//! assert_eq!(jsonl.lines().count(), 3);
//! ```

pub mod env;
pub mod event;
pub mod export;
pub mod hist;
pub mod json;
pub mod recorder;
pub mod series;
pub mod slo;
pub mod trace;

pub use env::{export_from_env, export_to, parse_targets, ExportTarget};
pub use event::{
    AllReduceBucket, AnomalyDetected, AnomalyKind, Counter, Event, FaultInjected, FaultKind, FleetDecision,
    FleetJobSample, GnsEstimated, GoodputEval, JobAdmitted, JobPreempted, NodeGranted, PolicyDecision, PreemptKind,
    Record, RecoveryAction, RecoveryKind, SloViolation, SolverInvocation, Span, SplitDecision, SplitSource,
    StepTiming,
};
pub use hist::{Histogram, LayoutMismatch};
pub use series::{Labels, SeriesRecorder, SeriesStore, WindowStats};
pub use slo::{default_fleet_slos, SloRule};
pub use json::Json;
pub use recorder::{
    context, counter, emit, enabled, flush_thread, inject, set_thread_identity, span, subscribe, Context,
    IdentityGuard, Session, SpanGuard, Subscriber, SubscriberGuard,
};
